"""Tests for the per-round priority tracker (Figure 4)."""

import math

import numpy as np
import pytest

from repro.cluster import default_registry
from repro.core import Allocation
from repro.exceptions import SchedulingError
from repro.scheduler import PriorityTracker


def _row(tracker, combination):
    """Row of ``combination`` in the tracker's priority matrix."""
    return tracker.allocation.row_index(combination)


@pytest.fixture
def allocation():
    registry = default_registry()
    return Allocation(
        registry,
        {
            (0,): np.array([0.6, 0.4, 0.0]),
            (1,): np.array([0.2, 0.6, 0.2]),
            (2,): np.array([0.2, 0.0, 0.8]),
        },
    )


class TestTimeAccounting:
    def test_initial_time_is_zero(self, allocation):
        tracker = PriorityTracker(allocation)
        np.testing.assert_allclose(tracker.time_received((0,)), [0.0, 0.0, 0.0])

    def test_record_time_accumulates(self, allocation):
        tracker = PriorityTracker(allocation)
        tracker.record_time((0,), "v100", 360.0)
        tracker.record_time((0,), "v100", 360.0)
        assert tracker.time_received((0,))[0] == pytest.approx(720.0)

    def test_negative_time_rejected(self, allocation):
        tracker = PriorityTracker(allocation)
        with pytest.raises(SchedulingError):
            tracker.record_time((0,), "v100", -1.0)

    def test_unknown_combination_rejected(self, allocation):
        tracker = PriorityTracker(allocation)
        with pytest.raises(SchedulingError):
            tracker.record_time((9,), "v100", 1.0)

    def test_snapshot_round_trip(self, allocation):
        tracker = PriorityTracker(allocation)
        tracker.record_time((1,), "p100", 120.0)
        state = tracker.snapshot_state()
        restored = PriorityTracker(allocation)
        restored.restore_state(state)
        np.testing.assert_array_equal(restored.time_received((1,)), [0.0, 120.0, 0.0])
        state[0, 0] = 5.0  # the snapshot is a copy
        assert restored.time_received((0,))[0] == 0.0

    def test_restore_rejects_mismatched_shape(self, allocation):
        tracker = PriorityTracker(allocation)
        with pytest.raises(SchedulingError):
            tracker.restore_state(np.zeros((2, 3)))

    def test_total_time_per_type(self, allocation):
        tracker = PriorityTracker(allocation)
        tracker.record_time((0,), "v100", 100.0)
        tracker.record_time((1,), "v100", 300.0)
        np.testing.assert_allclose(tracker.total_time_per_type(), [400.0, 0.0, 0.0])


class TestFractionsAndPriorities:
    def test_fractions_normalize_per_type(self, allocation):
        tracker = PriorityTracker(allocation)
        tracker.record_time((0,), "v100", 300.0)
        tracker.record_time((1,), "v100", 100.0)
        fractions = tracker.fractions()
        assert fractions[(0,)][0] == pytest.approx(0.75)
        assert fractions[(1,)][0] == pytest.approx(0.25)

    def test_priorities_matrix_aligned_with_combinations(self):
        registry = default_registry()
        allocation = Allocation(
            registry,
            {
                (1,): np.array([0.0, 0.5, 0.0]),
                (0, 1): np.array([0.5, 0.0, 0.0]),
                (0,): np.array([0.0, 0.0, 0.5]),
            },
        )
        tracker = PriorityTracker(allocation)
        tracker.record_time((0,), "k80", 60.0)
        priorities = tracker.priorities()
        assert priorities.shape == (3, 3)
        assert allocation.combinations == ((0,), (0, 1), (1,))
        assert priorities[0, 2] == pytest.approx(0.5)
        assert math.isinf(priorities[1, 0]) and math.isinf(priorities[2, 1])
        assert np.count_nonzero(priorities) == 3

    def test_priority_zero_when_target_zero(self, allocation):
        tracker = PriorityTracker(allocation)
        priorities = tracker.priorities()
        assert priorities[_row(tracker, (0,)), 2] == 0.0  # job 0 target on K80 is 0

    def test_priority_infinite_before_any_time(self, allocation):
        tracker = PriorityTracker(allocation)
        priorities = tracker.priorities()
        assert math.isinf(priorities[_row(tracker, (0,)), 0])

    def test_underserved_combination_has_higher_priority(self, allocation):
        """Figure 4: jobs that received less than their target get higher priority."""
        tracker = PriorityTracker(allocation)
        # Job 0 has hogged the V100; jobs 1 and 2 received nothing on it.
        tracker.record_time((0,), "v100", 900.0)
        tracker.record_time((1,), "v100", 100.0)
        tracker.record_time((2,), "v100", 100.0)
        priorities = tracker.priorities()
        assert priorities[_row(tracker, (1,)), 0] > priorities[_row(tracker, (0,)), 0]
        assert priorities[_row(tracker, (2,)), 0] > priorities[_row(tracker, (0,)), 0]

    def test_matched_allocation_gives_equal_priorities(self, allocation):
        """When received fractions exactly match the target, priorities are all 1."""
        tracker = PriorityTracker(allocation)
        for combination in allocation.combinations:
            for column, name in enumerate(allocation.registry.names):
                target = allocation.row(combination)[column]
                if target > 0:
                    tracker.record_time(combination, name, target * 1000.0)
        priorities = tracker.priorities()
        for combination in allocation.combinations:
            for column in range(3):
                if allocation.row(combination)[column] > 0:
                    assert priorities[_row(tracker, combination), column] == pytest.approx(1.0)

    def test_paper_figure4_example(self):
        """The worked example of Figure 4: rounds_received = [[3,1,0],[1,3,0],[0,0,4]]."""
        registry = default_registry()
        x_example = Allocation(
            registry,
            {
                (0,): np.array([0.6, 0.4, 0.0]),
                (1,): np.array([0.2, 0.6, 0.2]),
                (2,): np.array([0.2, 0.0, 0.8]),
            },
        )
        tracker = PriorityTracker(x_example)
        rounds_received = {(0,): [3, 1, 0], (1,): [1, 3, 0], (2,): [0, 0, 4]}
        for combination, rounds in rounds_received.items():
            for column, name in enumerate(registry.names):
                if rounds[column]:
                    tracker.record_time(combination, name, float(rounds[column]))
        priorities = tracker.priorities()
        # Figure 4 reports priorities 0.2/0.4/0 for job 0, 0.2/0.2/inf for job 1
        # and inf/0/0.2 for job 2 (element-wise X / fraction-of-rounds).
        assert priorities[_row(tracker, (0,)), 0] == pytest.approx(0.6 / 0.75)
        assert priorities[_row(tracker, (0,)), 1] == pytest.approx(0.4 / 0.25)
        assert math.isinf(priorities[_row(tracker, (1,)), 2])
        assert math.isinf(priorities[_row(tracker, (2,)), 0])
        assert priorities[_row(tracker, (2,)), 2] == pytest.approx(0.8 / 1.0)
