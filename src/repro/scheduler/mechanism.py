"""Round-based scheduling mechanism — Section 5, Algorithm 1.

Each round the mechanism picks, per accelerator type, the job combinations
with the highest priority that fit in the remaining worker budget, subject to
the constraint that no job appears in more than one scheduled combination in
the same round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.cluster.cluster_spec import ClusterSpec
from repro.cluster.placement import PlacementRequest
from repro.core.throughput_matrix import JobCombination
from repro.exceptions import SchedulingError
from repro.scheduler.priorities import PriorityTracker

__all__ = ["ScheduledCombination", "RoundScheduler", "scheduled_job_ids"]

#: Sort value standing in for an infinite priority (a row that has received
#: no time yet), so ties among such rows fall through to the target.
_INFINITE_PRIORITY = 1e18


def scheduled_job_ids(scheduled: Sequence["ScheduledCombination"]) -> Tuple[int, ...]:
    """Sorted ids of every job that received workers in one round.

    The service core stamps each job's first-allocation time (the
    time-to-first-allocation latency metric) from this set, so the mechanism
    — not the accounting loop — defines what "allocated" means in round mode.
    """
    ids: Set[int] = set()
    for item in scheduled:
        ids.update(item.combination)
    return tuple(sorted(ids))


@dataclass(frozen=True)
class ScheduledCombination:
    """One job combination scheduled on one accelerator type for a round."""

    combination: JobCombination
    accelerator_name: str
    scale_factor: int
    priority: float

    def placement_request(self) -> PlacementRequest:
        return PlacementRequest(
            combination=self.combination,
            accelerator_name=self.accelerator_name,
            scale_factor=self.scale_factor,
        )


class RoundScheduler:
    """Greedy highest-priority-first selection of combinations for one round."""

    def __init__(self, cluster_spec: ClusterSpec) -> None:
        self._cluster_spec = cluster_spec

    def schedule_round(
        self,
        tracker: PriorityTracker,
        scale_factors: Mapping[int, int],
    ) -> List[ScheduledCombination]:
        """Select the combinations to run in the upcoming round.

        Args:
            tracker: Priority tracker holding the target allocation and the
                time received so far in this allocation period.
            scale_factors: Worker count required per job id.

        Returns:
            Scheduled combinations (at most one per job) whose total worker
            demand per accelerator type fits the cluster.
        """
        allocation = tracker.allocation
        priorities = tracker.priorities()
        target = allocation.matrix
        names = allocation.registry.names

        # Candidates: positive target and positive priority; the mask also
        # drops NaN, which would make the sort key non-total.
        rows, columns = np.nonzero((target > 0) & (priorities > 0))
        sort_priorities = priorities[rows, columns]
        sort_priorities[np.isinf(sort_priorities)] = _INFINITE_PRIORITY
        # Ranked in Python: a first NumPy string sort pages in ~0.3 MB of code.
        name_ranks = np.array([sorted(names).index(name) for name in names])
        # Higher priority first; ties broken by larger target allocation, then
        # deterministically by combination (row order) and accelerator name.
        order = np.lexsort((name_ranks[columns], rows, -target[rows, columns], -sort_priorities))

        remaining = [self._cluster_spec.count(name) for name in names]
        free = sum(remaining)
        scheduled: List[ScheduledCombination] = []
        busy_jobs: Set[int] = set()
        for row, column, priority in zip(
            rows[order].tolist(), columns[order].tolist(), sort_priorities[order].tolist()
        ):
            if free == 0:
                break
            combination = allocation.combinations[row]
            if any(job_id in busy_jobs for job_id in combination):
                continue
            scale = max(int(scale_factors.get(job_id, 1)) for job_id in combination)
            if remaining[column] < scale:
                continue
            remaining[column] -= scale
            free -= scale
            busy_jobs.update(combination)
            scheduled.append(
                ScheduledCombination(
                    combination=combination,
                    accelerator_name=names[column],
                    scale_factor=scale,
                    priority=priority,
                )
            )
        return scheduled

    def validate_round(self, scheduled: Sequence[ScheduledCombination]) -> None:
        """Sanity-check a round: no job twice, no accelerator type oversubscribed."""
        seen: Set[int] = set()
        usage: Dict[str, int] = {}
        for item in scheduled:
            for job_id in item.combination:
                if job_id in seen:
                    raise SchedulingError(f"job {job_id} scheduled more than once in a round")
                seen.add(job_id)
            usage[item.accelerator_name] = usage.get(item.accelerator_name, 0) + item.scale_factor
        for name, used in usage.items():
            if used > self._cluster_spec.count(name):
                raise SchedulingError(
                    f"round oversubscribes {name}: {used} > {self._cluster_spec.count(name)}"
                )
