"""Self-tests of the benchmark's own arithmetic, tracing and metadata."""

from __future__ import annotations

import dataclasses
import json
import re
import time
from pathlib import Path

import pytest

from perfbench import replay
from perfbench.run import END_TO_END_METRICS, percentile, tail_percentile
from perfbench.spans import PER_LAYER_METRICS, Tracer, layer_metrics, self_times
from perfbench.workloads import WORKLOADS, make_inputs

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_subtracts_direct_children_by_parent_id() -> None:
    # step [0, 10] > session [1, 9] > inner session [2, 8] > lp [3, 6];
    # a second lp [8.5, 9] sits directly under the outer session.
    spans = [
        (3, 2, "solver.lp", 3.0, 6.0),
        (2, 1, "session.solve", 2.0, 8.0),
        (4, 1, "solver.lp", 8.5, 9.0),
        (1, 0, "session.solve", 1.0, 9.0),
        (0, None, "service.step", 0.0, 10.0),
    ]
    own = self_times(spans)
    assert own["service.step"] == pytest.approx(2.0)
    # Outer session: 8 - (6 + 0.5); inner session: 6 - 3.  Same name, no
    # double counting, and the layer's self times add up to its outermost span.
    assert own["session.solve"] == pytest.approx(1.5 + 3.0)
    assert own["solver.lp"] == pytest.approx(3.5)
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_metrics_count_allocations_once_per_outermost_session() -> None:
    tracer = Tracer()
    tracer.spans.extend(
        [
            (2, 1, "session.solve", 2.0, 8.0),
            (1, 0, "session.solve", 1.0, 9.0),
            (0, None, "service.step", 0.0, 10.0),
            (4, 3, "session.solve", 11.0, 12.0),
            (3, None, "service.restore", 10.5, 12.5),
        ]
    )
    tracer.counters["solver.lp_calls"] = 4
    metrics = layer_metrics(tracer)
    assert metrics["session.solve_calls"] == 3
    assert metrics["session.allocations"] == 2
    assert metrics["solver.lp_per_allocation"] == pytest.approx(2.0)
    assert metrics["service.step_s"] == pytest.approx(10.0)
    assert metrics["service.self_s"] == pytest.approx(2.0)
    assert metrics["service.restore_s"] == pytest.approx(1.0)


def test_tail_percentile_is_highest_with_ten_samples_beyond() -> None:
    assert tail_percentile(9) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_percentile_interpolates_between_ranks() -> None:
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 50.0) == pytest.approx(2.5)
    assert percentile(values, 100.0) == 4.0


def _tiny(name: str) -> "replay.Workload":
    return dataclasses.replace(WORKLOADS[name], num_jobs=8, traces=1)


def test_traced_run_restores_every_wrapped_attribute() -> None:
    probe = Tracer()
    replay.install_layers(probe)
    patches = probe.patches
    assert patches and all(owner.__dict__[attr] is not orig for owner, attr, orig in patches)
    probe.uninstall()
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in patches)

    cycle = replay.run_cycle(_tiny("las-agg-multi"), 3, 0, True, time.monotonic())
    assert cycle["errors"] == []
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in patches)
    assert cycle["layers"]["service.step_s"] > 0
    assert cycle["layers"]["placement.multi_requests"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_replay_passes_the_correctness_gate(name: str) -> None:
    cycle = replay.run_cycle(_tiny(name), 5, 0, False, time.monotonic())
    (trace,) = cycle["traces"]
    assert trace["errors"] == []
    assert trace["failed"] == 0 and trace["attempted"] > 0
    again = replay.run_cycle(_tiny(name), 5, 0, False, time.monotonic())
    assert again["traces"][0]["digest"] == trace["digest"]


def test_inputs_depend_only_on_the_seed() -> None:
    from repro.workloads.throughputs import ThroughputOracle

    oracle = ThroughputOracle()
    workload = WORKLOADS["ftf-churn"]
    first = make_inputs(workload, 7, 0, oracle)
    assert first == make_inputs(workload, 7, 0, oracle)
    assert first != make_inputs(workload, 8, 0, oracle)
    assert len(first[0].cancels) == round(workload.cancel_fraction * workload.num_jobs)


def test_metric_names_and_benchmark_json_agree() -> None:
    spec = json.loads(BENCHMARK_JSON.read_text())
    for name in list(END_TO_END_METRICS) + list(PER_LAYER_METRICS) + list(WORKLOADS):
        assert NAME.match(name), name
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER_METRICS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
