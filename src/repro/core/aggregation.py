"""Type-level aggregation: LP size independent of the number of jobs.

The paper observes (Section 5.3) that allocation-computation time grows with
the number of *active jobs*, while the structure of the optimization only
depends on the much smaller number of distinct *job types*: two jobs with the
same model/batch-size configuration, worker count and priority weight are
interchangeable from the solver's point of view — they share throughput rows,
normalizers and validity structure.  This module collapses such jobs into one
**group** per :func:`aggregation_key` and solves the policy LP over group
**totals**:

* the aggregated :class:`~repro.core.problem.PolicyProblem` carries one
  representative job per group (the smallest member id), with
  ``group_counts`` recording the group size ``n_g``;
* the representative's per-job validity right-hand side becomes ``n_g``
  (handled by :class:`~repro.core.policy.AllocationVariables` whenever
  ``group_counts`` is set), so its decision variables hold the *sum* of the
  member allocations;
* the representative's ``priority_weight`` is baked to ``w · n_g`` so the
  max-min-fairness epigraph over group totals equals the true per-member
  fairness level (the equal-share normalizer does not depend on the number of
  jobs, so ``scale_factor / (w·n_g · ref) · total = scale_factor / (w · ref)
  · (total / n_g)`` — exactly the per-member term under an equal split);
* same-group colocation is modelled by a single ``(rep, rep)`` pair row
  (allowed by :class:`~repro.core.throughput_matrix.ThroughputMatrix` for
  pairs only): the duplicate membership contributes coefficient 2 to the
  group's job-total constraint, matching the two member slots such a pair
  occupies.

Recovering a per-job allocation is a **proportional split**: each group's
total is divided among its members (equally by default — optimal for every
supported objective by symmetry — or by caller-supplied weights such as
``steps_remaining`` where an objective requires it).

The same compression is exact for the *iterative* water-filling family
(``max_min_fairness_water_filling`` and ``hierarchical``): members of a group
share one water level, so the level loop of
:mod:`repro.core.water_filling` runs over group representatives — one floor
row and one level row per active group, with the baked ``w · n_g`` weight
making the epigraph and the analytic level bumps track group *totals* — and
splits equally inside each group after the last level converges.  Policies
may refine the grouping through
:meth:`~repro.core.policy.Policy.aggregation_group_key` (the hierarchical
policy appends the entity, so a group never straddles entity boundaries and
FIFO-internal entities degrade to singleton groups).

Supported policy bases are listed in :data:`AGGREGATION_SUPPORTED_BASES`;
policies whose objectives read *per-job* state that cannot be folded into
the group key (e.g. SLO deadlines) are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.policy import Policy
from repro.core.problem import PolicyProblem
from repro.core.session import PolicySession
from repro.core.throughput_matrix import JobCombination, ThroughputMatrix
from repro.exceptions import ConfigurationError
from repro.workloads.job import Job

__all__ = [
    "AggregationKey",
    "GroupKey",
    "aggregation_key",
    "AGGREGATION_SUPPORTED_BASES",
    "supports_type_aggregation",
    "proportional_split",
    "weighted_member_split",
    "AggregatedProblem",
    "AggregatedSession",
]

#: Grouping key: jobs are interchangeable when they share a model/batch-size
#: configuration, a worker count and a priority class.
AggregationKey = Tuple[str, int, float]

#: A policy-refined grouping key (see ``Policy.aggregation_group_key``):
#: always starts with the :data:`AggregationKey` triple and may append
#: policy-specific components (entity id, FIFO rank, ...).
GroupKey = Tuple[object, ...]

#: Policy bases whose objectives are exact over group totals: the one-shot
#: LP bases (LAS is ``max_min_fairness``, the registry name) plus the
#: iterative water-filling family, whose level loops run over group
#: representatives.  ``min_cost_slo`` and the remaining bases are excluded
#: because SLO deadlines / finish-time state are per-job and cannot be
#: folded into the group key.
AGGREGATION_SUPPORTED_BASES = frozenset(
    {
        "max_min_fairness",
        "max_total_throughput",
        "min_cost",
        "max_min_fairness_water_filling",
        "hierarchical",
    }
)


def aggregation_key(job: Job) -> AggregationKey:
    """The group a job belongs to: ``(job_type, scale_factor, priority_weight)``."""
    return (job.job_type, int(job.scale_factor), float(job.priority_weight))


def supports_type_aggregation(base: str) -> bool:
    """Whether policy base ``base`` supports ``aggregation="type"`` exactly."""
    return base in AGGREGATION_SUPPORTED_BASES


def proportional_split(total: float, weights: Sequence[float]) -> List[float]:
    """Split ``total`` proportionally to non-negative ``weights``.

    Equal weights yield an equal split; an all-zero weight vector falls back
    to the equal split (no information to prefer one member).  The returned
    shares always sum to ``total`` exactly up to floating round-off.
    """
    if len(weights) == 0:
        raise ConfigurationError("cannot split a total among zero members")
    array = np.asarray(weights, dtype=float)
    if np.any(array < 0) or not np.all(np.isfinite(array)):
        raise ConfigurationError(f"split weights must be finite and >= 0, got {weights}")
    mass = float(array.sum())
    if mass <= 0.0:
        return [total / len(array)] * len(array)
    # Normalize before scaling: w/mass is exact for equal weights even in
    # the subnormal range, whereas total*w can lose precision first.
    return [total * float(w / mass) for w in array]


def weighted_member_split(
    total: float, member_ids: Sequence[int], weights: Optional[Mapping[int, float]]
) -> Dict[int, float]:
    """Per-member shares of ``total`` keyed by job id.

    ``weights`` maps job ids to split weights (missing ids weigh 1.0);
    ``None`` means an equal split.  Used by :meth:`AggregatedProblem.expand`
    and directly by the property-test suite.
    """
    if weights is None:
        shares = proportional_split(total, [1.0] * len(member_ids))
    else:
        shares = proportional_split(
            total, [float(weights.get(job_id, 1.0)) for job_id in member_ids]
        )
    return {job_id: share for job_id, share in zip(member_ids, shares)}


@dataclass(frozen=True)
class AggregatedProblem:
    """A type-aggregated view over a per-job :class:`PolicyProblem`.

    Attributes:
        base: The original one-row-per-job problem.
        problem: The aggregated problem (one representative per group,
            ``group_counts`` set) handed to the policy's inner session.
        groups: Sorted member job ids per group key.
        representatives: Representative (smallest) member id per group key.
    """

    base: PolicyProblem
    problem: PolicyProblem
    groups: Mapping[GroupKey, Tuple[int, ...]]
    representatives: Mapping[GroupKey, int]

    @classmethod
    def build(
        cls,
        problem: PolicyProblem,
        previous: Optional["AggregatedProblem"] = None,
        key: Optional[Callable[[Job], GroupKey]] = None,
    ) -> "AggregatedProblem":
        """Aggregate ``problem`` by ``key`` (default :func:`aggregation_key`).

        ``previous`` (the view from the last solve) lets the builder reuse
        the aggregated throughput matrix when the base matrix object and the
        group membership are unchanged, which keeps the inner session's
        structural diff trivial between churn events.  ``key`` is the owning
        policy's :meth:`~repro.core.policy.Policy.aggregation_group_key`; any
        refinement must still keep members interchangeable (same job type,
        scale factor and priority weight).
        """
        if problem.group_counts is not None:
            raise ConfigurationError(
                "problem is already type-aggregated (group_counts is set)"
            )
        key_fn: Callable[[Job], GroupKey] = aggregation_key if key is None else key
        groups: Dict[GroupKey, List[int]] = {}
        for job_id in problem.job_ids:
            groups.setdefault(key_fn(problem.jobs[job_id]), []).append(job_id)
        frozen_groups: Dict[GroupKey, Tuple[int, ...]] = {
            key_value: tuple(sorted(members)) for key_value, members in groups.items()
        }
        representatives = {key: members[0] for key, members in frozen_groups.items()}

        if (
            previous is not None
            and previous.base.throughputs is problem.throughputs
            and previous.groups == frozen_groups
        ):
            matrix = previous.problem.throughputs
        else:
            matrix = cls._aggregate_matrix(
                problem.throughputs, problem.jobs, frozen_groups, representatives
            )

        jobs: Dict[int, Job] = {}
        steps_remaining: Dict[int, float] = {}
        time_elapsed: Dict[int, float] = {}
        group_counts: Dict[int, int] = {}
        for key, members in frozen_groups.items():
            rep = representatives[key]
            count = len(members)
            rep_job = problem.jobs[rep]
            jobs[rep] = replace(
                rep_job, priority_weight=rep_job.priority_weight * count
            )
            steps_remaining[rep] = sum(problem.remaining_steps(m) for m in members)
            time_elapsed[rep] = max(problem.elapsed(m) for m in members)
            group_counts[rep] = count

        aggregated = PolicyProblem(
            jobs=jobs,
            throughputs=matrix,
            cluster_spec=problem.cluster_spec,
            steps_remaining=steps_remaining,
            time_elapsed=time_elapsed,
            current_time=problem.current_time,
            group_counts=group_counts,
        )
        return cls(
            base=problem,
            problem=aggregated,
            groups=frozen_groups,
            representatives=representatives,
        )

    @staticmethod
    def _aggregate_matrix(
        matrix: ThroughputMatrix,
        jobs: Mapping[int, Job],
        groups: Mapping[GroupKey, Tuple[int, ...]],
        representatives: Mapping[GroupKey, int],
    ) -> ThroughputMatrix:
        """Collapse a per-job matrix to representative rows.

        Singleton rows come from each representative (members share oracle
        rows by construction of the key).  Pair rows are replicated at the
        *job-type* level: colocation throughput depends only on the two job
        types, so one canonical row per (sorted) type pair — taken from
        whichever member pair the source matrix carries — is emitted for
        every pair of single-worker groups with matching types: a sorted
        ``(rep_g, rep_h)`` row for distinct groups, the duplicate ``(rep,
        rep)`` row for a group with >= 2 members.  This makes the aggregated
        matrix independent of *which* member pairs the source happened to
        instantiate (the type-mode engine keeps only one representative pair
        per type pair).
        """
        reps = sorted(representatives.values())
        singles = np.vstack([matrix.isolated_throughputs(rep) for rep in reps])
        type_of = {rep: jobs[rep].job_type for rep in reps}
        # Canonical throughput row per sorted job-type pair, oriented so the
        # first half carries the lexicographically smaller type.
        canonical: Dict[Tuple[str, str], np.ndarray] = {}
        for combination in matrix.combinations:
            if len(combination) != 2:
                continue
            first, second = combination
            type_first = jobs[first].job_type
            type_second = jobs[second].job_type
            if type_first <= type_second:
                type_pair = (type_first, type_second)
                row = matrix.row(combination)
            else:
                type_pair = (type_second, type_first)
                row = matrix.row(combination)[::-1]
            canonical.setdefault(type_pair, row)
        # Reps of single-worker groups per job type (pairs only ever involve
        # single-worker jobs; the key bakes scale_factor, so one member being
        # single-worker means all are).
        pairable: Dict[str, List[int]] = {}
        members_of_rep: Dict[int, int] = {}
        for key, members in groups.items():
            rep = representatives[key]
            members_of_rep[rep] = len(members)
            if int(jobs[rep].scale_factor) == 1:
                pairable.setdefault(type_of[rep], []).append(rep)
        pairs: Dict[JobCombination, np.ndarray] = {}
        for (type_a, type_b), row in sorted(canonical.items(), key=lambda item: item[0]):
            if type_a == type_b:
                same_type = sorted(pairable.get(type_a, []))
                for position, rep_a in enumerate(same_type):
                    if members_of_rep[rep_a] >= 2:
                        pairs[(rep_a, rep_a)] = row
                    for rep_b in same_type[position + 1 :]:
                        pairs[(rep_a, rep_b)] = row
                continue
            for rep_a in sorted(pairable.get(type_a, [])):
                for rep_b in sorted(pairable.get(type_b, [])):
                    low, high = sorted((rep_a, rep_b))
                    # Position 0 of the aggregated row must carry the group
                    # of the smaller representative.
                    pairs[(low, high)] = row if type_of[low] == type_a else row[::-1]
        return ThroughputMatrix.from_parts(matrix.registry, reps, singles, pairs)

    # -- recovery ----------------------------------------------------------------
    def expand(
        self,
        aggregated: Allocation,
        weights: Optional[Mapping[int, float]] = None,
    ) -> Allocation:
        """Recover a per-job allocation from group-total rows.

        Each aggregated row's time fractions are divided among the member
        (pairs) it stands for: a singleton row among the ``n_g`` members, a
        cross-group pair among the ``n_g · n_h`` member pairs, a same-group
        ``(rep, rep)`` row among the ``C(n_g, 2)`` unordered member pairs.
        ``weights`` (job id → weight, default equal) biases the split inside
        each group; the default equal split is the one proven optimal for the
        supported objectives and always yields a valid per-job allocation.
        """
        keys: List[JobCombination] = []
        blocks: List[np.ndarray] = []
        rep_to_key = {rep: key for key, rep in self.representatives.items()}
        for combination, row in zip(aggregated.combinations, aggregated.matrix):
            if len(combination) == 1:
                members = self.groups[rep_to_key[combination[0]]]
                shares = weighted_member_split(1.0, members, weights)
                keys.extend((member,) for member in shares)
                blocks.append(np.array(list(shares.values()))[:, None] * row)
                continue
            first, second = combination
            if first == second:
                # Members are sorted, so every (members[i], members[j]) is too.
                members = self.groups[rep_to_key[first]]
                pair_ids = [
                    (members[i], members[j])
                    for i in range(len(members))
                    for j in range(i + 1, len(members))
                ]
                pair_weights = (
                    [1.0] * len(pair_ids)
                    if weights is None
                    else [
                        float(weights.get(a, 1.0)) * float(weights.get(b, 1.0))
                        for a, b in pair_ids
                    ]
                )
                keys.extend(pair_ids)
                blocks.append(np.array(proportional_split(1.0, pair_weights))[:, None] * row)
                continue
            shares_first = weighted_member_split(1.0, self.groups[rep_to_key[first]], weights)
            shares_second = weighted_member_split(1.0, self.groups[rep_to_key[second]], weights)
            products: List[float] = []
            for member_a, share_a in shares_first.items():
                for member_b, share_b in shares_second.items():
                    low, high = sorted((member_a, member_b))
                    keys.append((low, high))
                    products.append(share_a * share_b)
            blocks.append(np.array(products)[:, None] * row)

        empty = np.zeros((0, len(aggregated.registry)))
        return Allocation.from_dense(
            aggregated.registry, keys, np.concatenate([empty, *blocks]), self.base.scale_factors()
        )


class AggregatedSession(PolicySession):
    """Session adapter running a policy's own session over the aggregated view.

    ``Policy.session`` returns this wrapper when ``policy.aggregation ==
    "type"`` and the problem is not yet aggregated.  Each solve rebuilds the
    :class:`AggregatedProblem` view from the per-job snapshot (an ``O(n)``
    scan — the LP itself only sees the type-level rows), feeds it to the
    policy's inner incremental session, and expands the group-total solution
    back to per-job shares.  Deltas — including
    :class:`~repro.core.session.TypeCountChanged` — are advisory, exactly as
    for per-job sessions: the view diff against the snapshot is what drives
    the inner session's updates.
    """

    def __init__(self, policy: Policy, problem: PolicyProblem) -> None:
        super().__init__(policy, problem)
        self._view = AggregatedProblem.build(problem, key=policy.aggregation_group_key)
        self._inner = policy._make_session(self._view.problem)

    @property
    def view(self) -> AggregatedProblem:
        """The most recent aggregated view (exposed for tests/diagnostics)."""
        return self._view

    @property
    def inner(self) -> PolicySession:
        """The inner per-representative session (for LP-size diagnostics)."""
        return self._inner

    def _refresh_view(self, problem: PolicyProblem) -> None:
        if problem is not self._view.base or self._pending:
            self._view = AggregatedProblem.build(
                problem, previous=self._view, key=self._policy.aggregation_group_key
            )

    def _prepare(self, problem: PolicyProblem) -> None:
        self._refresh_view(problem)
        self._inner.prepare(self._view.problem)

    def _solve(self, problem: PolicyProblem) -> Allocation:
        self._refresh_view(problem)
        aggregated = self._inner.solve(self._view.problem)
        return self._view.expand(aggregated)
