"""Tests for the ideal, continuous and physical simulator modes."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import make_policy
from repro.core.effective_throughput import effective_throughput
from repro.core.max_min_fairness import MaxMinFairnessPolicy, MaxMinFairnessSession
from repro.simulator import Simulator, SimulatorConfig
from repro.workloads import ThroughputOracle, TraceGenerator


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture(scope="module")
def spec():
    return ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})


@pytest.fixture(scope="module")
def trace(oracle):
    return TraceGenerator(oracle).generate_continuous(num_jobs=10, jobs_per_hour=5, seed=7)


class TestIdealMode:
    def test_ideal_mode_completes(self, oracle, spec, trace):
        simulator = Simulator(
            make_policy("max_min_fairness"), spec, oracle=oracle, config=SimulatorConfig(mode="ideal")
        )
        result = simulator.run(trace)
        assert result.completion_rate() == 1.0
        assert "(ideal)" in result.policy_name

    def test_round_mechanism_close_to_ideal(self, oracle, spec, trace):
        """Figure 13b: the round-based mechanism behaves almost like the ideal fluid execution."""
        ideal = Simulator(
            make_policy("max_min_fairness"), spec, oracle=oracle, config=SimulatorConfig(mode="ideal")
        ).run(trace)
        rounds = Simulator(
            make_policy("max_min_fairness"),
            spec,
            oracle=oracle,
            config=SimulatorConfig(mode="round", round_duration_seconds=360.0),
        ).run(trace)
        assert rounds.average_jct_hours() == pytest.approx(ideal.average_jct_hours(), rel=0.30)
        assert rounds.average_jct_hours() >= ideal.average_jct_hours() * 0.8

    def test_shorter_rounds_track_ideal_more_closely(self, oracle, spec, trace):
        """Figure 13a: smaller round durations approximate the target allocation better."""
        ideal = Simulator(
            make_policy("max_min_fairness"), spec, oracle=oracle, config=SimulatorConfig(mode="ideal")
        ).run(trace).average_jct_hours()
        short_round = Simulator(
            make_policy("max_min_fairness"), spec, oracle=oracle,
            config=SimulatorConfig(round_duration_seconds=360.0),
        ).run(trace).average_jct_hours()
        long_round = Simulator(
            make_policy("max_min_fairness"), spec, oracle=oracle,
            config=SimulatorConfig(round_duration_seconds=5760.0),
        ).run(trace).average_jct_hours()
        assert abs(short_round - ideal) <= abs(long_round - ideal) + 1e-6


class TestContinuousMode:
    def test_continuous_mode_completes(self, oracle, spec, trace):
        result = Simulator(
            make_policy("max_min_fairness"),
            spec,
            oracle=oracle,
            config=SimulatorConfig(mode="continuous"),
        ).run(trace)
        assert result.completion_rate() == 1.0
        assert "(continuous)" in result.policy_name
        # Continuous mode incorporates churn at the event instant: zero lag.
        assert result.mean_allocation_staleness_seconds() == 0.0

    def test_continuous_matches_ideal_without_control_events(self, oracle, spec, trace):
        """With no queued control events, continuous IS the ideal event loop."""
        ideal = Simulator(
            make_policy("max_min_fairness"), spec, oracle=oracle,
            config=SimulatorConfig(mode="ideal"),
        ).run(trace)
        continuous = Simulator(
            make_policy("max_min_fairness"), spec, oracle=oracle,
            config=SimulatorConfig(mode="continuous"),
        ).run(trace)
        assert continuous.end_time == ideal.end_time
        assert continuous.num_rounds == ideal.num_rounds
        for job_id, record in ideal.records.items():
            assert continuous.records[job_id].completion_time == record.completion_time
            assert continuous.records[job_id].steps_done == record.steps_done

    def test_resolve_ticks_add_solves(self, oracle, spec, trace):
        plain = Simulator(
            make_policy("max_min_fairness"), spec, oracle=oracle,
            config=SimulatorConfig(mode="continuous"),
        ).run(trace)
        ticked = Simulator(
            make_policy("max_min_fairness"), spec, oracle=oracle,
            config=SimulatorConfig(mode="continuous", resolve_interval_seconds=1800.0),
        ).run(trace)
        assert ticked.completion_rate() == 1.0
        assert ticked.num_rounds > plain.num_rounds


class TestPhysicalMode:
    def test_physical_mode_completes_with_overhead(self, oracle, spec, trace):
        result = Simulator(
            make_policy("max_min_fairness"),
            spec,
            oracle=oracle,
            config=SimulatorConfig(mode="physical", checkpoint_overhead_seconds=5.0, seed=1),
        ).run(trace)
        assert result.completion_rate() == 1.0
        assert any(record.preemptions > 0 for record in result.records.values())

    def test_physical_close_to_simulation(self, oracle, spec, trace):
        """Table 3: physical-cluster results agree with simulation within a few percent."""
        simulated = Simulator(
            make_policy("max_min_fairness"), spec, oracle=oracle, config=SimulatorConfig(seed=1)
        ).run(trace)
        physical = Simulator(
            make_policy("max_min_fairness"),
            spec,
            oracle=oracle,
            config=SimulatorConfig(mode="physical", seed=1),
        ).run(trace)
        assert physical.average_jct_hours() == pytest.approx(
            simulated.average_jct_hours(), rel=0.10
        )

    def test_physical_mode_never_faster_than_pure_simulation_by_much(self, oracle, spec, trace):
        simulated = Simulator(
            make_policy("max_min_fairness"), spec, oracle=oracle, config=SimulatorConfig(seed=1)
        ).run(trace)
        physical = Simulator(
            make_policy("max_min_fairness"),
            spec,
            oracle=oracle,
            config=SimulatorConfig(mode="physical", seed=1, checkpoint_overhead_seconds=30.0),
        ).run(trace)
        assert physical.average_jct_hours() >= simulated.average_jct_hours() * 0.95



class _CheckedSession(MaxMinFairnessSession):
    """Live LAS session that also solves every snapshot from a fresh program."""

    def _solve(self, problem):
        allocation = super()._solve(problem)
        scratch = MaxMinFairnessSession(self._policy, problem).solve(problem)
        self._policy.checked.append((problem, allocation, scratch))
        return allocation


class _CheckedMaxMinFairness(MaxMinFairnessPolicy):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.checked = []

    def _make_session(self, problem):
        return _CheckedSession(self, problem)


class TestLiveSessionMatchesScratch:
    @pytest.mark.parametrize("mode", ["round", "ideal", "physical"])
    def test_every_simulator_solve_matches_a_fresh_program(self, oracle, mode):
        """The LP kept alive across a run reaches the from-scratch optimum at every solve.

        Degenerate LPs have several optimal vertices, so the two allocations
        may differ; both must be valid and share the LAS objective value.
        """
        trace = TraceGenerator(oracle).generate_continuous(num_jobs=10, jobs_per_hour=8.0, seed=4)
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1})
        policy = _CheckedMaxMinFairness(space_sharing=True)
        config = SimulatorConfig(mode=mode, round_duration_seconds=360.0)
        result = Simulator(policy, spec, oracle=oracle, config=config).run(trace)
        assert result.completion_rate() == 1.0
        assert len(policy.checked) >= 10

        def objective(problem, allocation):
            matrix = policy.effective_matrix(problem)
            return min(
                effective_throughput(matrix, allocation, job_id)
                * policy.normalized_throughput_scale(problem, matrix, job_id)
                for job_id in problem.job_ids
            )

        for problem, live, scratch in policy.checked:
            live.validate(problem.cluster_spec)
            scratch.validate(problem.cluster_spec)
            assert objective(problem, live) == pytest.approx(
                objective(problem, scratch), rel=1e-6, abs=1e-12
            )
