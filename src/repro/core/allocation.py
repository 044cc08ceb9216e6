"""Allocation matrices (the ``X`` of Section 3.1).

An allocation specifies, for every schedulable unit (job or job combination)
and every accelerator type, the fraction of wall-clock time the unit should
spend running on that type between allocation recomputations.

The allocation is stored as one dense ``K x T`` float matrix (``K``
combinations in sorted order, ``T`` accelerator types) plus a
combination-to-row index, so the Section 5 round mechanism and the
accounting run as array operations over it instead of per-row lookups.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.accelerators import AcceleratorRegistry
from repro.cluster.cluster_spec import ClusterSpec
from repro.core.throughput_matrix import JobCombination, ThroughputMatrix
from repro.exceptions import AllocationError, UnknownJobError

__all__ = ["Allocation"]

_VALIDATION_TOLERANCE = 1e-4


def _normalize(combination: Sequence[int]) -> JobCombination:
    return tuple(sorted(int(j) for j in combination))


def _sort_rows(
    combinations: Sequence[JobCombination], matrix: np.ndarray
) -> Tuple[Tuple[JobCombination, ...], np.ndarray]:
    """Rows (a new matrix) in combination order; a repeated combination is an error."""
    order = sorted(range(len(combinations)), key=combinations.__getitem__)
    ordered = tuple(combinations[k] for k in order)
    for earlier, later in zip(ordered, ordered[1:]):
        if not earlier < later:
            raise AllocationError(f"allocation has two rows for combination {later}")
    return ordered, matrix[order]


class Allocation:
    """Time-fraction allocation over job combinations and accelerator types."""

    def __init__(
        self,
        registry: AcceleratorRegistry,
        entries: Mapping[JobCombination, np.ndarray],
        scale_factors: Optional[Mapping[int, int]] = None,
    ) -> None:
        keys = [_normalize(combination) for combination in entries]
        rows = [np.asarray(values, dtype=float).reshape(-1) for values in entries.values()]
        if any(row.shape != (len(registry),) for row in rows):
            raise AllocationError(f"allocation rows must have one entry per type ({len(registry)})")
        matrix = np.array(rows).reshape(len(rows), len(registry))
        self._init(registry, *_sort_rows(keys, matrix), scale_factors)

    def _init(
        self,
        registry: AcceleratorRegistry,
        combinations: Tuple[JobCombination, ...],
        matrix: np.ndarray,
        scale_factors: Optional[Mapping[int, int]],
    ) -> None:
        if matrix.shape != (len(combinations), len(registry)):
            raise AllocationError(
                f"allocation matrix has shape {matrix.shape}, expected "
                f"({len(combinations)}, {len(registry)})"
            )
        self._registry = registry
        self._combinations = combinations
        self._index = {combination: k for k, combination in enumerate(combinations)}
        self._matrix = matrix
        self._matrix.setflags(write=False)
        self._scale_factors: Dict[int, int] = dict(scale_factors or {})
        #: Lazily built job id -> row of the per-job sums (see :meth:`_job_table`).
        self._jobs: Optional[Tuple[Dict[int, int], np.ndarray]] = None

    # -- constructors -------------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        registry: AcceleratorRegistry,
        combinations: Sequence[JobCombination],
        matrix: np.ndarray,
        scale_factors: Optional[Mapping[int, int]] = None,
    ) -> "Allocation":
        """An allocation whose row for ``combinations[k]`` is ``matrix[k]``.

        ``combinations`` must be normalized (each tuple sorted) and distinct;
        rows are stored in sorted combination order, so producers that
        already follow :attr:`ThroughputMatrix.combinations` pay no reorder.
        """
        allocation = cls.__new__(cls)
        ordered = _sort_rows(combinations, np.asarray(matrix, dtype=float))
        allocation._init(registry, *ordered, scale_factors)
        return allocation

    @classmethod
    def zeros(
        cls,
        matrix: ThroughputMatrix,
        scale_factors: Optional[Mapping[int, int]] = None,
    ) -> "Allocation":
        """An all-zero allocation over the rows of ``matrix``."""
        shape = (matrix.num_rows(), len(matrix.registry))
        return cls.from_dense(matrix.registry, matrix.combinations, np.zeros(shape), scale_factors)

    # -- structure -----------------------------------------------------------------
    @property
    def registry(self) -> AcceleratorRegistry:
        return self._registry

    @property
    def combinations(self) -> Tuple[JobCombination, ...]:
        """Row keys, sorted; row ``k`` of :attr:`matrix` belongs to ``combinations[k]``."""
        return self._combinations

    @property
    def matrix(self) -> np.ndarray:
        """The read-only ``(len(combinations), len(registry))`` time-fraction matrix."""
        return self._matrix

    @property
    def job_ids(self) -> Tuple[int, ...]:
        return tuple(self._job_table()[0])

    def scale_factor(self, job_id: int) -> int:
        """Workers requested by ``job_id`` (1 when not recorded)."""
        return int(self._scale_factors.get(job_id, 1))

    def has_row(self, combination: Sequence[int]) -> bool:
        """Whether this allocation has an entry for the given combination."""
        return _normalize(combination) in self._index

    def row_index(self, combination: Sequence[int]) -> int:
        """Position of ``combination`` in :attr:`combinations` (and :attr:`matrix`)."""
        key = _normalize(combination)
        index = self._index.get(key)
        if index is None:
            raise UnknownJobError(f"combination {key} is not part of this allocation")
        return index

    def _job_table(self) -> Tuple[Dict[int, int], np.ndarray]:
        """Sorted job id -> row of the ``(jobs + 1) x T`` per-job row sums.

        The sums are the job x row membership product with the matrix; the
        extra last row is all zeros, for jobs in no row.  A same-group
        ``(j, j)`` row of a type-aggregated problem counts its job once.
        """
        if self._jobs is None:
            members = [dict.fromkeys(combination) for combination in self._combinations]
            jobs = [job_id for member in members for job_id in member]
            rows = [row for row, member in enumerate(members) for _ in member]
            index = {job_id: k for k, job_id in enumerate(sorted(set(jobs)))}
            ordinals = np.array([index[job_id] for job_id in jobs], dtype=np.int64)
            sums = np.zeros((len(index) + 1, len(self._registry)))
            # Unbuffered adds run in row order, like a running sum per job.
            np.add.at(sums, ordinals, self._matrix[rows])
            self._jobs = (index, sums)
        return self._jobs

    # -- values ---------------------------------------------------------------------
    def row(self, combination: Sequence[int]) -> np.ndarray:
        """Read-only view of one combination's time fractions per accelerator type."""
        return self._matrix[self.row_index(combination)]

    def value(self, combination: Sequence[int], accelerator_name: str) -> float:
        column = self._registry.index_of(accelerator_name)
        return float(self._matrix[self.row_index(combination), column])

    def job_rows(self, job_ids: Sequence[int]) -> np.ndarray:
        """``(len(job_ids), T)`` time fractions of each job, summed over the rows containing it."""
        index, sums = self._job_table()
        return sums[[index.get(job_id, -1) for job_id in job_ids]]

    def job_row(self, job_id: int) -> np.ndarray:
        """Per-accelerator time fractions of ``job_id`` summed over all rows containing it."""
        return self.job_rows([job_id])[0]

    def job_total(self, job_id: int) -> float:
        """Total time fraction job ``job_id`` receives across all rows and types."""
        return float(self.job_row(job_id).sum())

    def worker_usage(self) -> np.ndarray:
        """Expected worker usage per accelerator type (left side of constraint (3))."""
        scales = [max(self.scale_factor(j) for j in c) for c in self._combinations]
        return np.array(scales, dtype=float) @ self._matrix

    def as_dict(self) -> Dict[JobCombination, np.ndarray]:
        """A copy of the raw entries."""
        return {c: self._matrix[row].copy() for c, row in self._index.items()}

    # -- validation -------------------------------------------------------------------
    def validate(self, cluster_spec: ClusterSpec, tolerance: float = _VALIDATION_TOLERANCE) -> None:
        """Check the Section 3.1 validity constraints, raising on violation.

        1. every entry is finite and lies in ``[0, 1]``;
        2. the total allocation of each job (summed over every combination the
           job participates in and every accelerator type) is at most 1;
        3. expected worker usage per accelerator type does not exceed the
           number of workers of that type.
        """
        matrix = self._matrix
        # NaN fails every comparison, so the range test alone would pass it.
        bad = ~np.isfinite(matrix) | (matrix < -tolerance) | (matrix > 1 + tolerance)
        if bad.any():
            row = int(np.flatnonzero(bad.any(axis=1))[0])
            raise AllocationError(
                f"allocation entries for {self._combinations[row]} are not finite values "
                f"in [0, 1]: {matrix[row]}"
            )
        totals = self._job_table()[1][:-1].sum(axis=1)
        for job_id, total in zip(self.job_ids, totals.tolist()):
            if total > 1 + tolerance:
                raise AllocationError(
                    f"job {job_id} is allocated a total time fraction of {total:.4f} > 1"
                )
        usage = self.worker_usage()
        capacity = cluster_spec.counts_vector()
        for column, name in enumerate(self._registry.names):
            if usage[column] > capacity[column] + tolerance:
                raise AllocationError(
                    f"allocation oversubscribes {name}: uses {usage[column]:.4f} of "
                    f"{capacity[column]:.0f} workers"
                )

    def is_valid(self, cluster_spec: ClusterSpec, tolerance: float = _VALIDATION_TOLERANCE) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(cluster_spec, tolerance=tolerance)
        except AllocationError:
            return False
        return True

    # -- misc ---------------------------------------------------------------------------
    def clipped(self, upper: Optional[float] = 1.0) -> "Allocation":
        """Return a copy with entries clipped to ``[0, upper]`` (cleans up LP round-off).

        Type-aggregated solves pass ``upper=None``: group-total rows may
        legitimately exceed 1, so only the lower bound is enforced.
        """
        top = np.inf if upper is None else upper
        return Allocation.from_dense(
            self._registry, self._combinations, np.clip(self._matrix, 0.0, top), self._scale_factors
        )

    def __repr__(self) -> str:
        names = list(self._registry.names)
        lines = [f"Allocation({len(self._combinations)} rows, accelerators={names})"]
        for combination, values in zip(self._combinations, self._matrix):
            lines.append(f"  {combination}: [{', '.join(f'{v:.3f}' for v in values)}]")
        return "\n".join(lines)
