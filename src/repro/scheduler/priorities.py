"""Per-round priority computation — Section 5, Figure 4.

Between allocation recomputations the scheduler tracks, for every job
combination and accelerator type, the wall-clock time the combination has
already received.  The *fraction* matrix ``f`` normalizes this per accelerator
type, and the priority of a (combination, type) pair is the element-wise
ratio ``X_opt / f``: combinations that have received less time than their
target allocation get a high priority (infinite if they have received
nothing at all) and are scheduled first in the next round.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from repro.core.allocation import Allocation
from repro.core.throughput_matrix import JobCombination
from repro.exceptions import SchedulingError, UnknownJobError

__all__ = ["PriorityTracker"]


class PriorityTracker:
    """Tracks time received per (combination, accelerator type) and derives priorities.

    The time received is one ``K x T`` matrix aligned with the tracked
    allocation's :attr:`~repro.core.allocation.Allocation.matrix`: row ``k``
    belongs to ``allocation.combinations[k]``.
    """

    def __init__(self, allocation: Allocation) -> None:
        self._allocation = allocation
        self._received = np.zeros(allocation.matrix.shape)

    # -- bookkeeping -------------------------------------------------------------
    @property
    def allocation(self) -> Allocation:
        return self._allocation

    def _row(self, combination: Sequence[int]) -> int:
        try:
            return self._allocation.row_index(combination)
        except UnknownJobError:
            raise SchedulingError(
                f"combination {tuple(sorted(combination))} is not part of the tracked allocation"
            ) from None

    def record_time(self, combination: Sequence[int], accelerator_name: str, seconds: float) -> None:
        """Record that ``combination`` ran on ``accelerator_name`` for ``seconds``."""
        row = self._row(combination)
        if seconds < 0:
            raise SchedulingError(f"cannot record negative time {seconds}")
        column = self._allocation.registry.index_of(accelerator_name)
        self._received[row, column] += seconds

    def snapshot_state(self) -> np.ndarray:
        """Copy of the ``K x T`` time-received matrix (for checkpointing)."""
        return self._received.copy()

    def restore_state(self, state: np.ndarray) -> None:
        """Overwrite the time-received matrix from a :meth:`snapshot_state` copy.

        The matrix must have the tracked allocation's shape — restoring a
        snapshot taken against a different allocation is a
        checkpoint/allocation mismatch.
        """
        received = np.array(state, dtype=float)
        if received.shape != self._received.shape:
            raise SchedulingError(
                f"tracker state {received.shape} does not match allocation {self._received.shape}"
            )
        self._received = received

    def time_received(self, combination: Sequence[int]) -> np.ndarray:
        """Seconds of time received per accelerator type for one combination."""
        return self._received[self._row(combination)].copy()

    def total_time_per_type(self) -> np.ndarray:
        """Total recorded seconds per accelerator type across all combinations."""
        return self._received.sum(axis=0)

    # -- fractions and priorities ----------------------------------------------------
    def _fraction_matrix(self) -> np.ndarray:
        """``f``: each column of the time-received matrix divided by its total."""
        totals = self.total_time_per_type()
        fractions = np.zeros_like(self._received)
        np.divide(self._received, totals, out=fractions, where=totals > 0)
        return fractions

    def fractions(self) -> Dict[JobCombination, np.ndarray]:
        """``f[k, j]``: share of accelerator ``j``'s recorded time spent on combination ``k``."""
        return dict(zip(self._allocation.combinations, self._fraction_matrix()))

    def priorities(self) -> np.ndarray:
        """Element-wise ``X_opt / f`` with the conventions of Figure 4.

        Returns a ``K x T`` matrix whose row ``k`` belongs to
        ``allocation.combinations[k]``:

        * target not positive (including NaN) ⇒ priority 0 (never scheduled
          on that type);
        * target > 0 and no time received yet ⇒ infinite priority;
        * otherwise the ratio of target to received fraction.
        """
        target = self._allocation.matrix
        fractions = self._fraction_matrix()
        priorities = np.zeros_like(fractions)
        wanted = target > 0
        received = fractions > 0
        priorities[wanted & ~received] = math.inf
        ratio = wanted & received
        priorities[ratio] = target[ratio] / fractions[ratio]
        return priorities
