"""The blocks AllocationVariables assembles match Section 3.1 written out by hand."""

import math

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core.policy import AllocationVariables
from repro.core.problem import PolicyProblem
from repro.core.throughput_matrix import build_throughput_matrix
from repro.solver.lp import LinearProgram
from repro.workloads import ThroughputOracle, TraceGenerator, TraceGeneratorConfig


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


def _assemble(oracle, seed, multi_worker):
    """Twelve static jobs with space sharing on a 2/2/2 cluster, assembled once."""
    generator = TraceGenerator(oracle, config=TraceGeneratorConfig(multi_worker=multi_worker))
    jobs = list(generator.generate_static(num_jobs=12, seed=seed).jobs)
    matrix = build_throughput_matrix(jobs, oracle, space_sharing=True)
    spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
    problem = PolicyProblem(
        jobs={job.job_id: job for job in jobs}, throughputs=matrix, cluster_spec=spec
    )
    program = LinearProgram()
    variables = AllocationVariables(problem, matrix, program)
    return problem, matrix, program, variables


@pytest.mark.parametrize("multi_worker", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validity_constraints_match_section_3_1(oracle, seed, multi_worker):
    """Variables, bounds and rows equal constraints (2) and (3) written out here.

    (2) every job's time fractions over all rows containing it sum to at most
    one (a row holding the job twice counts twice); (3) the scale-factor
    weighted time on each accelerator type is bounded by its worker count.
    """
    problem, matrix, program, variables = _assemble(oracle, seed, multi_worker)
    spec = problem.cluster_spec
    num_columns = len(matrix.registry)

    def index(combination, column):
        return variables.variable(combination, column).index

    expected_upper = np.zeros(program.num_variables())
    for combination in matrix.combinations:
        runnable = (matrix.row(combination) > 0).any(axis=0)
        for column in range(num_columns):
            expected_upper[index(combination, column)] = 1.0 if runnable[column] else 0.0
    assert np.array_equal(np.asarray(program._lower), np.zeros(program.num_variables()))
    assert np.array_equal(np.asarray(program._upper), expected_upper)

    rows, uppers = [], []
    for job_id in matrix.job_ids:  # (2)
        row = np.zeros(program.num_variables())
        for combination, _position in matrix.rows_containing(job_id):
            for column in range(num_columns):
                row[index(combination, column)] += 1.0
        rows.append(row)
        uppers.append(1.0)
    capacity = spec.counts_vector()
    for column in range(num_columns):  # (3)
        row = np.zeros(program.num_variables())
        for combination in matrix.combinations:
            scale = max(problem.scale_factor(job_id) for job_id in combination)
            row[index(combination, column)] += scale
        rows.append(row)
        uppers.append(float(capacity[column]))
    expected = np.array(rows)
    expected_uppers = np.array(uppers)

    assembled, lower, upper = program._assembled()
    actual = assembled.toarray()
    assert np.all(lower == -math.inf)
    # Compare up to row order: sort both blocks by their (row, rhs) contents.
    actual_order = np.lexsort(np.column_stack([actual, upper]).T)
    expected_order = np.lexsort(np.column_stack([expected, expected_uppers]).T)
    assert np.array_equal(actual[actual_order], expected[expected_order])
    assert np.array_equal(upper[actual_order], expected_uppers[expected_order])


@pytest.mark.parametrize("multi_worker", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_effective_throughput_expressions_match_section_3_1(oracle, seed, multi_worker):
    """``throughput(m, X)`` is the sum of ``T[k][m, j] * X[k, j]`` over rows k holding m.

    The per-job expression, its cached columnar terms and the all-jobs
    blocks must all carry exactly these coefficients.
    """
    problem, matrix, program, variables = _assemble(oracle, seed, multi_worker)
    num_columns = len(matrix.registry)
    expected = {}
    for job_id in matrix.job_ids:
        coefficients = {}
        for combination, position in matrix.rows_containing(job_id):
            values = matrix.row(combination)[position]
            for column in range(num_columns):
                index = variables.variable(combination, column).index
                coefficients[index] = coefficients.get(index, 0.0) + float(values[column])
        expected[job_id] = {index: value for index, value in coefficients.items() if value != 0.0}

    job_ids, starts, cols, vals = variables.effective_throughput_blocks()
    assert sorted(job_ids.tolist()) == sorted(matrix.job_ids)
    for k, job_id in enumerate(job_ids.tolist()):
        block = cols[starts[k] : starts[k + 1]], vals[starts[k] : starts[k + 1]]
        terms = variables.effective_throughput_terms(job_id)
        assert np.array_equal(terms[0], block[0]) and np.array_equal(terms[1], block[1])
        summed = {}
        for index, value in zip(block[0].tolist(), block[1].tolist()):
            summed[index] = summed.get(index, 0.0) + value
        assert {i: v for i, v in summed.items() if v != 0.0} == expected[job_id]
        expression = variables.effective_throughput_expression(job_id)
        assert expression.constant == 0.0
        assert expression.coefficients == expected[job_id]


@pytest.mark.parametrize("multi_worker", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cost_expression_charges_each_row_once_per_worker(oracle, seed, multi_worker):
    """Cost is ``sum_k,j price_j * scale_k * X[k, j]`` with ``scale_k`` the row's widest job.

    A space-sharing pair shares one instance, so each row is charged once,
    for as many workers as its largest scale factor occupies.
    """
    problem, matrix, program, variables = _assemble(oracle, seed, multi_worker)
    prices = matrix.registry.costs_per_hour()
    expected = {}
    for combination in matrix.combinations:
        scale = max(problem.scale_factor(job_id) for job_id in combination)
        for column in range(len(matrix.registry)):
            index = variables.variable(combination, column).index
            expected[index] = expected.get(index, 0.0) + scale * float(prices[column])
    expression = variables.cost_expression()
    assert expression.constant == 0.0
    assert expression.coefficients == expected
