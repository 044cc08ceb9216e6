"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload is a trace replay on a ``VirtualClock``.  One replay *cycle*
runs ``traces`` independent Poisson traces, each drawn by
``TraceGenerator.generate_continuous`` from a seed derived from the run's
``--seed``, the cycle number and the trace's index; the scheduler only ever
receives the generated ``Job``s and the scripted control events (cancels,
resizes).  Each cycle of a run gets fresh traces, so the median over cycles
averages over many job mixes as well as over the host's slow and fast
stretches, and runs on different seeds agree.

Job durations are log-uniform like the paper's, but over a narrower range per
workload.  The round workloads use 5-30 hour jobs so that, as in the paper's
traces, most 6-minute rounds re-run the mechanism without re-solving the LP;
the narrow range keeps one long job from running alone for days at the end of
a trace.  ``ftf-churn`` uses the paper's shortest jobs (10^1.5 minutes and
up, capped at 3 hours), so that arrivals and completions, each an event that
re-solves, keep coming.

Every replay snapshots its scheduler when the jobs at 1/3 and 2/3 of the
trace arrive, and continues on a scheduler restored from the snapshot, so
``recover_s`` is measured and restore is checked on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

__all__ = [
    "Workload",
    "TraceInputs",
    "WORKLOADS",
    "CHECKPOINT_FRACTIONS",
    "COMPARE_STEPS",
    "make_inputs",
]

#: Where, as fractions of each trace's job sequence, the replay snapshots its
#: scheduler and continues on a restored copy.
CHECKPOINT_FRACTIONS: Tuple[float, ...] = (1.0 / 3.0, 2.0 / 3.0)
#: Steps the original and the restored scheduler take side by side after a
#: checkpoint; their schedule digests must agree after every one.
COMPARE_STEPS = 3
#: A scripted cancel fires this long after the job's arrival, at most.
_CANCEL_WINDOW_SECONDS = 2 * 3600.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: policy, mode, cluster and trace shape."""

    name: str
    why: str
    policy: str
    mode: str
    aggregation: str
    workers_per_type: int
    multi_worker: bool
    num_jobs: int
    jobs_per_hour: float
    traces: int
    min_duration_minutes: float
    max_duration_minutes: float
    #: Share of each trace's jobs that get a scripted ``schedule_cancel``.
    cancel_fraction: float = 0.0
    #: V100 deltas applied by ``schedule_resize`` at evenly spaced points of
    #: the arrival span.
    v100_resizes: Tuple[int, ...] = ()

    def cluster_counts(self) -> Dict[str, int]:
        per_type = self.workers_per_type
        return {"v100": per_type, "p100": per_type, "k80": per_type}


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="las-ss-round",
            why=(
                "LAS with space sharing in rounds: the only workload with pair rows, "
                "so the round mechanism and the O(n^2)-row LP are both heavy"
            ),
            policy="max_min_fairness+ss",
            mode="round",
            aggregation="job",
            workers_per_type=12,
            multi_worker=False,
            num_jobs=36,
            jobs_per_hour=2.5,
            traces=2,
            min_duration_minutes=300.0,
            max_duration_minutes=900.0,
        ),
        Workload(
            name="ftf-churn",
            why=(
                "finish-time fairness, continuous, with cancels and resizes: many small "
                "rhs-only bisection LPs and continuous accounting, no round mechanism"
            ),
            policy="finish_time_fairness",
            mode="continuous",
            aggregation="job",
            workers_per_type=36,
            multi_worker=False,
            num_jobs=100,
            jobs_per_hour=36.0,
            traces=1,
            min_duration_minutes=10**1.5,
            max_duration_minutes=180.0,
            cancel_fraction=0.15,
            v100_resizes=(4, -4, 4, -4),
        ),
        Workload(
            name="las-agg-multi",
            why=(
                "type-aggregated LAS on multi-worker jobs in rounds: the LP stays small "
                "while priorities, the mechanism and placement do the work"
            ),
            policy="max_min_fairness",
            mode="round",
            aggregation="type",
            workers_per_type=36,
            multi_worker=True,
            num_jobs=60,
            jobs_per_hour=3.5,
            traces=2,
            min_duration_minutes=600.0,
            max_duration_minutes=1800.0,
        ),
    )
}


@dataclass(frozen=True)
class TraceInputs:
    """Everything one trace replay hands the scheduler, plus its checkpoints."""

    jobs: Tuple[object, ...]
    #: ``(job id, time)`` of each scripted cancel.
    cancels: Tuple[Tuple[int, float], ...]
    #: ``(time, per-type deltas)`` of each scripted resize.
    resizes: Tuple[Tuple[float, Mapping[str, int]], ...]
    checkpoints: Tuple[float, ...]


def _derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def make_inputs(workload: Workload, seed: int, cycle: int, oracle: object) -> List[TraceInputs]:
    """Generate the traces of replay cycle ``cycle``; the same arguments give the same inputs."""
    from repro.workloads.trace_generator import TraceGenerator, TraceGeneratorConfig

    generator = TraceGenerator(
        oracle,  # type: ignore[arg-type]
        TraceGeneratorConfig(
            multi_worker=workload.multi_worker,
            min_duration_minutes=workload.min_duration_minutes,
            max_duration_minutes=workload.max_duration_minutes,
        ),
    )
    inputs: List[TraceInputs] = []
    for index in range(workload.traces):
        trace = generator.generate_continuous(
            workload.num_jobs, workload.jobs_per_hour, seed=_derived_seed(seed, cycle, index)
        )
        jobs = tuple(trace)
        first = jobs[0].arrival_time
        span = trace.arrival_span_seconds()
        rng = np.random.default_rng(_derived_seed(seed, cycle, index, 1))
        num_cancels = int(round(workload.cancel_fraction * len(jobs)))
        picked = sorted(int(i) for i in rng.choice(len(jobs), size=num_cancels, replace=False))
        cancels = tuple(
            (
                jobs[i].job_id,
                jobs[i].arrival_time + float(rng.uniform(0.0, _CANCEL_WINDOW_SECONDS)),
            )
            for i in picked
        )
        resizes = tuple(
            (first + span * (k + 1) / (len(workload.v100_resizes) + 1), {"v100": delta})
            for k, delta in enumerate(workload.v100_resizes)
        )
        checkpoints = tuple(
            jobs[int(fraction * len(jobs))].arrival_time for fraction in CHECKPOINT_FRACTIONS
        )
        inputs.append(TraceInputs(jobs, cancels, resizes, checkpoints))
    return inputs
