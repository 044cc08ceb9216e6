"""Golden schedules: every round's Algorithm 1 output, pinned exactly.

For every registry policy (and its ``+ss`` variant where the policy supports
space sharing), a small seeded multi-worker trace is replayed in ``round``
and ``physical`` mode (the latter with seeded throughput jitter), and the
list of :class:`~repro.scheduler.ScheduledCombination` of every round —
combination, accelerator, scale factor and priority — must equal the
committed fixture ``golden_schedules.json`` bit for bit.  Any change to the
allocation producers, the priority tracker or the greedy fill that alters a
single decision or a single priority value fails here.

Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python tests/scheduler/test_golden_schedules.py
"""

import json
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterSpec
from repro.core import available_policies, make_policy
from repro.core.registry import parse_policy_spec
from repro.exceptions import ConfigurationError
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.scheduler.mechanism import RoundScheduler
from repro.workloads import ThroughputOracle, TraceGenerator, TraceGeneratorConfig

FIXTURE = Path(__file__).with_name("golden_schedules.json")
MODES = ("round", "physical")


def _base_policies():
    """Every registry base name (aliases resolve onto one of these)."""
    return sorted({parse_policy_spec(name)[0] for name in available_policies()})


def _specs():
    specs = []
    for base in _base_policies():
        specs.append(base)
        try:
            policy = make_policy(base + "+ss")
        except ConfigurationError:
            continue
        if policy.space_sharing:
            specs.append(base + "+ss")
    return specs


def _trace(oracle):
    config = TraceGeneratorConfig(
        min_duration_minutes=30.0,
        max_duration_minutes=300.0,
        multi_worker=True,
        single_worker_fraction=0.7,
        small_multi_fraction=0.3,
    )
    trace = TraceGenerator(oracle, config).generate_continuous(
        num_jobs=8, jobs_per_hour=6.0, seed=7
    )
    return TraceGenerator(oracle).assign_slos(trace, seed=7)


def capture(spec, mode):
    """Every round's scheduled combinations for one policy spec and mode."""
    oracle = ThroughputOracle()
    cluster = ClusterSpec.from_counts({"v100": 4, "p100": 4, "k80": 4})
    scheduler = ClusterScheduler(
        make_policy(spec), cluster, oracle=oracle, config=SchedulerConfig(mode=mode, seed=3)
    )
    for job in _trace(oracle).jobs:
        scheduler.submit(job)
    rounds = []
    original = RoundScheduler.schedule_round

    def recording(self, tracker, scale_factors):
        scheduled = original(self, tracker, scale_factors)
        rounds.append(
            [
                [list(item.combination), item.accelerator_name, item.scale_factor, item.priority]
                for item in scheduled
            ]
        )
        return scheduled

    RoundScheduler.schedule_round = recording
    try:
        scheduler.run_until()
    finally:
        RoundScheduler.schedule_round = original
    return rounds


def _cases():
    return [(spec, mode) for spec in _specs() for mode in MODES]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{spec}/{mode}" for spec, mode in _cases())


@pytest.mark.parametrize("spec,mode", _cases())
def test_schedule_matches_golden(golden, spec, mode):
    rounds = capture(spec, mode)
    assert rounds, "the trace must run at least one round"
    assert rounds == golden[f"{spec}/{mode}"]


if __name__ == "__main__":
    table = {f"{spec}/{mode}": capture(spec, mode) for spec, mode in _cases()}
    FIXTURE.write_text(json.dumps(table, indent=None, separators=(",", ":")) + "\n")
    sys.stdout.write(f"wrote {len(table)} schedules to {FIXTURE}\n")
