"""Tests for allocation matrices and their validity constraints."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, default_registry
from repro.core import Allocation, ThroughputMatrix
from repro.exceptions import AllocationError, UnknownJobError


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def spec(registry):
    return ClusterSpec.from_counts({"v100": 1, "p100": 1, "k80": 1}, registry=registry)


class TestConstruction:
    def test_rows_normalized_and_copied(self, registry):
        allocation = Allocation(registry, {(1, 0): np.array([0.5, 0.0, 0.0])})
        assert allocation.combinations == ((0, 1),)

    def test_bad_row_shape_rejected(self, registry):
        with pytest.raises(AllocationError):
            Allocation(registry, {(0,): np.array([0.5, 0.5])})

    def test_duplicate_normalized_keys_rejected(self, registry):
        """(0, 1) and (1, 0) are one row; silently keeping the last would lose data."""
        with pytest.raises(AllocationError):
            Allocation(
                registry,
                {(0, 1): np.array([0.1, 0.0, 0.0]), (1, 0): np.array([0.2, 0.0, 0.0])},
            )

    def test_from_dense_matches_dict_constructor(self, registry):
        entries = {
            (1,): np.array([0.2, 0.0, 0.2]),
            (0, 1): np.array([0.0, 0.0, 0.3]),
            (0,): np.array([0.6, 0.4, 0.0]),
        }
        by_dict = Allocation(registry, entries, scale_factors={0: 2})
        combinations = ((0,), (0, 1), (1,))
        dense = Allocation.from_dense(
            registry,
            combinations,
            np.stack([entries[c] for c in combinations]),
            scale_factors={0: 2},
        )
        assert dense.combinations == by_dict.combinations == combinations
        np.testing.assert_array_equal(dense.matrix, by_dict.matrix)
        assert dense.scale_factor(0) == 2

    def test_from_dense_sorts_rows(self, registry):
        allocation = Allocation.from_dense(
            registry, [(1,), (0, 1), (0,)], np.array([[0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0]])
        )
        assert allocation.combinations == ((0,), (0, 1), (1,))
        np.testing.assert_array_equal(allocation.matrix[:, 0], [0.3, 0.2, 0.1])

    def test_from_dense_rejects_repeated_rows(self, registry):
        with pytest.raises(AllocationError):
            Allocation.from_dense(registry, [(0,), (1,), (0,)], np.zeros((3, 3)))

    def test_from_dense_shape_checked(self, registry):
        with pytest.raises(AllocationError):
            Allocation.from_dense(registry, ((0,),), np.zeros((1, 2)))

    def test_zeros_constructor(self, registry):
        matrix = ThroughputMatrix(registry, {(0,): np.ones((1, 3)), (1,): np.ones((1, 3))})
        allocation = Allocation.zeros(matrix)
        assert allocation.job_total(0) == 0.0
        assert allocation.combinations == ((0,), (1,))


class TestQueries:
    @pytest.fixture
    def allocation(self, registry):
        return Allocation(
            registry,
            {
                (0,): np.array([0.6, 0.4, 0.0]),
                (1,): np.array([0.2, 0.0, 0.2]),
                (0, 1): np.array([0.0, 0.0, 0.3]),
            },
        )

    def test_job_total_includes_pair_rows(self, allocation):
        assert allocation.job_total(0) == pytest.approx(1.3)
        assert allocation.job_total(1) == pytest.approx(0.7)

    def test_job_row_sums_rows_containing_job(self, allocation):
        np.testing.assert_allclose(allocation.job_row(1), [0.2, 0.0, 0.5])

    def test_value_lookup(self, allocation):
        assert allocation.value((0,), "v100") == pytest.approx(0.6)
        assert allocation.value((1, 0), "k80") == pytest.approx(0.3)

    def test_unknown_combination_raises(self, allocation):
        with pytest.raises(UnknownJobError):
            allocation.row((5,))

    def test_worker_usage_counts_scale_factors(self, registry):
        allocation = Allocation(
            registry,
            {(0,): np.array([0.5, 0.0, 0.0])},
            scale_factors={0: 4},
        )
        np.testing.assert_allclose(allocation.worker_usage(), [2.0, 0.0, 0.0])

    def test_row_is_read_only_view(self, allocation):
        row = allocation.row((0,))
        assert np.shares_memory(row, allocation.matrix)
        with pytest.raises(ValueError):
            row[0] = 99.0
        assert allocation.value((0,), "v100") == pytest.approx(0.6)

    def test_rows_follow_sorted_combinations(self, allocation):
        assert allocation.combinations == ((0,), (0, 1), (1,))
        for position, combination in enumerate(allocation.combinations):
            assert allocation.row_index(combination) == position
            np.testing.assert_array_equal(allocation.row(combination), allocation.matrix[position])

    def test_job_rows_membership_product(self, allocation):
        np.testing.assert_allclose(
            allocation.job_rows([1, 7, 0]), [[0.2, 0.0, 0.5], [0.0, 0.0, 0.0], [0.6, 0.4, 0.3]]
        )

    def test_same_group_pair_row_counts_its_job_once(self, registry):
        allocation = Allocation(
            registry, {(3,): np.array([0.5, 0.0, 0.0]), (3, 3): np.array([0.0, 1.0, 0.0])}
        )
        np.testing.assert_allclose(allocation.job_row(3), [0.5, 1.0, 0.0])
        assert allocation.job_ids == (3,)

    def test_as_dict_returns_copies(self, allocation):
        exported = allocation.as_dict()
        exported[(0,)][0] = 99.0
        assert allocation.value((0,), "v100") == pytest.approx(0.6)


class TestValidation:
    def test_valid_allocation_passes(self, registry, spec):
        allocation = Allocation(
            registry,
            {(0,): np.array([0.5, 0.3, 0.2]), (1,): np.array([0.5, 0.5, 0.0])},
        )
        allocation.validate(spec)
        assert allocation.is_valid(spec)

    def test_entry_above_one_fails(self, registry, spec):
        allocation = Allocation(registry, {(0,): np.array([1.2, 0.0, 0.0])})
        with pytest.raises(AllocationError):
            allocation.validate(spec)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_fails(self, registry, spec, bad):
        allocation = Allocation(registry, {(0,): np.array([bad, 0.0, 0.0])})
        with pytest.raises(AllocationError):
            allocation.validate(spec)
        assert not allocation.is_valid(spec)

    def test_job_total_above_one_fails(self, registry, spec):
        allocation = Allocation(
            registry,
            {(0,): np.array([0.8, 0.0, 0.0]), (0, 1): np.array([0.0, 0.4, 0.0])},
        )
        # Also add job 1's singleton so the structure is complete.
        with pytest.raises(AllocationError):
            allocation.validate(spec)

    def test_worker_oversubscription_fails(self, registry, spec):
        allocation = Allocation(
            registry,
            {
                (0,): np.array([0.9, 0.0, 0.0]),
                (1,): np.array([0.9, 0.0, 0.0]),
            },
            scale_factors={0: 1, 1: 1},
        )
        # 1.8 expected V100 workers > 1 available.
        with pytest.raises(AllocationError):
            allocation.validate(spec)

    def test_clipped_removes_round_off(self, registry, spec):
        allocation = Allocation(registry, {(0,): np.array([1.0 + 1e-6, -1e-9, 0.0])})
        clipped = allocation.clipped()
        assert clipped.value((0,), "v100") == 1.0
        assert clipped.value((0,), "p100") == 0.0
        # The original is untouched, and upper=None keeps entries above 1.
        np.testing.assert_array_equal(allocation.row((0,)), [1.0 + 1e-6, -1e-9, 0.0])
        np.testing.assert_array_equal(allocation.clipped(upper=None).row((0,)), [1.0 + 1e-6, 0, 0])

    def test_repr_lists_rows(self, registry):
        allocation = Allocation(registry, {(0,): np.array([0.1, 0.2, 0.3])})
        assert "(0,)" in repr(allocation)
