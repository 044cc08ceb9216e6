"""Tests for the round-based scheduling mechanism (Algorithm 1)."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, default_registry
from repro.core import Allocation
from repro.exceptions import SchedulingError
from repro.scheduler import PriorityTracker, RoundScheduler, ScheduledCombination


@pytest.fixture
def registry():
    return default_registry()


def _tracker(registry, entries):
    return PriorityTracker(Allocation(registry, entries))


class TestRoundScheduling:
    def test_single_job_per_worker_respected(self, registry):
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1}, registry=registry)
        tracker = _tracker(
            registry,
            {
                (0,): np.array([0.5, 0.5, 0.0]),
                (1,): np.array([0.5, 0.5, 0.0]),
            },
        )
        scheduled = RoundScheduler(spec).schedule_round(tracker, {0: 1, 1: 1})
        # Each job can be scheduled at most once per round.
        jobs = [job for item in scheduled for job in item.combination]
        assert sorted(jobs) == sorted(set(jobs))
        RoundScheduler(spec).validate_round(scheduled)

    def test_all_workers_used_when_demand_exists(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2}, registry=registry)
        entries = {(i,): np.full(3, 1 / 3) for i in range(6)}
        tracker = _tracker(registry, entries)
        scheduled = RoundScheduler(spec).schedule_round(tracker, {i: 1 for i in range(6)})
        assert len(scheduled) == 6

    def test_zero_allocation_jobs_not_scheduled(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2}, registry=registry)
        tracker = _tracker(
            registry,
            {
                (0,): np.array([1.0, 0.0, 0.0]),
                (1,): np.array([0.0, 0.0, 0.0]),
            },
        )
        scheduled = RoundScheduler(spec).schedule_round(tracker, {0: 1, 1: 1})
        assert all(item.combination != (1,) for item in scheduled)

    def test_distributed_job_needs_enough_workers(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 0, "k80": 0}, registry=registry)
        tracker = _tracker(registry, {(0,): np.array([1.0, 0.0, 0.0])})
        scheduled = RoundScheduler(spec).schedule_round(tracker, {0: 4})
        assert scheduled == []

    def test_underserved_job_scheduled_before_overserved(self, registry):
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 0, "k80": 0}, registry=registry)
        tracker = _tracker(
            registry,
            {
                (0,): np.array([0.5, 0.0, 0.0]),
                (1,): np.array([0.5, 0.0, 0.0]),
            },
        )
        # Job 0 already ran for three rounds on the V100; job 1 never did.
        tracker.record_time((0,), "v100", 3 * 360.0)
        scheduled = RoundScheduler(spec).schedule_round(tracker, {0: 1, 1: 1})
        assert len(scheduled) == 1
        assert scheduled[0].combination == (1,)

    def test_pair_combination_conflicts_with_singletons(self, registry):
        """Once a pair is scheduled, neither of its jobs may run alone this round."""
        spec = ClusterSpec.from_counts({"v100": 3, "p100": 0, "k80": 0}, registry=registry)
        tracker = _tracker(
            registry,
            {
                (0,): np.array([0.1, 0.0, 0.0]),
                (1,): np.array([0.1, 0.0, 0.0]),
                (0, 1): np.array([0.8, 0.0, 0.0]),
            },
        )
        scheduled = RoundScheduler(spec).schedule_round(tracker, {0: 1, 1: 1})
        combinations = [item.combination for item in scheduled]
        assert (0, 1) in combinations
        assert (0,) not in combinations and (1,) not in combinations

    def test_deterministic_given_same_state(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 1, "k80": 1}, registry=registry)
        entries = {(i,): np.array([0.3, 0.3, 0.3]) for i in range(5)}
        first = RoundScheduler(spec).schedule_round(_tracker(registry, entries), {i: 1 for i in range(5)})
        second = RoundScheduler(spec).schedule_round(_tracker(registry, entries), {i: 1 for i in range(5)})
        assert [(s.combination, s.accelerator_name) for s in first] == [
            (s.combination, s.accelerator_name) for s in second
        ]


class TestRoundValidation:
    def test_duplicate_job_detected(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2}, registry=registry)
        scheduled = [
            ScheduledCombination(combination=(0,), accelerator_name="v100", scale_factor=1, priority=1.0),
            ScheduledCombination(combination=(0, 1), accelerator_name="v100", scale_factor=1, priority=1.0),
        ]
        with pytest.raises(SchedulingError):
            RoundScheduler(spec).validate_round(scheduled)

    def test_oversubscription_detected(self, registry):
        spec = ClusterSpec.from_counts({"v100": 1}, registry=registry)
        scheduled = [
            ScheduledCombination(combination=(0,), accelerator_name="v100", scale_factor=1, priority=1.0),
            ScheduledCombination(combination=(1,), accelerator_name="v100", scale_factor=1, priority=1.0),
        ]
        with pytest.raises(SchedulingError):
            RoundScheduler(spec).validate_round(scheduled)

    def test_valid_round_passes(self, registry):
        spec = ClusterSpec.from_counts({"v100": 2, "k80": 1}, registry=registry)
        scheduled = [
            ScheduledCombination(combination=(0,), accelerator_name="v100", scale_factor=2, priority=1.0),
            ScheduledCombination(combination=(1, 2), accelerator_name="k80", scale_factor=1, priority=1.0),
        ]
        RoundScheduler(spec).validate_round(scheduled)


class TestLongRunConvergence:
    def test_received_fractions_converge_to_allocation(self, registry):
        """Simulating many rounds, time fractions approach X_opt (Figure 13b's premise)."""
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 0, "k80": 0}, registry=registry)
        allocation = Allocation(
            registry,
            {
                (0,): np.array([0.75, 0.0, 0.0]),
                (1,): np.array([0.25, 0.0, 0.0]),
            },
        )
        tracker = PriorityTracker(allocation)
        scheduler = RoundScheduler(spec)
        for _ in range(100):
            scheduled = scheduler.schedule_round(tracker, {0: 1, 1: 1})
            for item in scheduled:
                tracker.record_time(item.combination, item.accelerator_name, 360.0)
        fractions = tracker.fractions()
        assert fractions[(0,)][0] == pytest.approx(0.75, abs=0.02)
        assert fractions[(1,)][0] == pytest.approx(0.25, abs=0.02)


class TestTieBreakDeterminism:
    def test_tied_priorities_schedule_identically_across_runs(self, registry):
        """Repeated rounds over tied candidates must pick the same winners."""
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 0}, registry=registry)
        entries = {(i,): np.array([0.25, 0.25, 0.0]) for i in range(8)}
        scale_factors = {i: 1 for i in range(8)}
        schedules = []
        for _ in range(10):
            tracker = _tracker(registry, dict(entries))
            scheduled = RoundScheduler(spec).schedule_round(tracker, scale_factors)
            schedules.append(
                tuple((item.combination, item.accelerator_name) for item in scheduled)
            )
        assert len(set(schedules)) == 1

    def test_tie_break_independent_of_entry_insertion_order(self, registry):
        """The schedule is a function of allocation values, not dict ordering."""
        spec = ClusterSpec.from_counts({"v100": 2, "p100": 1, "k80": 1}, registry=registry)
        entries = {(i,): np.array([0.3, 0.3, 0.3]) for i in range(6)}
        scale_factors = {i: 1 for i in range(6)}
        baseline = None
        for ordering in (list(entries), list(reversed(list(entries)))):
            tracker = _tracker(registry, {key: entries[key] for key in ordering})
            scheduled = RoundScheduler(spec).schedule_round(tracker, scale_factors)
            snapshot = tuple(
                (item.combination, item.accelerator_name) for item in scheduled
            )
            if baseline is None:
                baseline = snapshot
            assert snapshot == baseline

    def test_nan_priority_skipped_not_scheduled(self, registry):
        """NaN priorities must not poison the sort order (non-total comparisons)."""
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1}, registry=registry)
        allocation = Allocation(
            registry,
            {
                (0,): np.array([1.0, 0.0, 0.0]),
                (1,): np.array([0.0, 1.0, 0.0]),
            },
        )
        tracker = PriorityTracker(allocation)
        priorities = tracker.priorities()
        priorities[allocation.row_index((0,)), 0] = float("nan")

        class _PatchedTracker:
            allocation = tracker.allocation

            @staticmethod
            def priorities():
                return priorities

        scheduled = RoundScheduler(spec).schedule_round(_PatchedTracker(), {0: 1, 1: 1})
        assert all(item.combination != (0,) for item in scheduled)
        assert any(item.combination == (1,) for item in scheduled)

    def test_nan_target_not_scheduled_first(self, registry):
        """A NaN target is not positive: it gets priority 0, not infinity."""
        spec = ClusterSpec.from_counts({"v100": 1, "p100": 0, "k80": 0}, registry=registry)
        allocation = Allocation(
            registry,
            {
                (0,): np.array([float("nan"), 0.0, 0.0]),
                (1,): np.array([1.0, 0.0, 0.0]),
            },
        )
        tracker = PriorityTracker(allocation)
        assert tracker.priorities()[allocation.row_index((0,)), 0] == 0.0
        scheduled = RoundScheduler(spec).schedule_round(tracker, {0: 1, 1: 1})
        assert [(item.combination, item.accelerator_name) for item in scheduled] == [
            ((1,), "v100")
        ]
