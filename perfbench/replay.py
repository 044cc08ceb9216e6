"""One replay cycle of one workload, in the fresh process ``run.py`` starts.

Usage (from the repository root, with ``src`` and the root on the path)::

    python3 -m perfbench.replay --workload las-ss-round --seed 1 --cycle 0 \\
        --traced 0 --launched <time.monotonic() of the parent starting this process>

Set-up (imports, oracle, trace generation, scheduler construction and
submits) runs first; ``setup_s`` ends at the first ``step()``.  Each trace is
then drained one timed ``step()`` at a time.  At every checkpoint the
scheduler is snapshotted and restored into a fresh one, both take
:data:`~perfbench.workloads.COMPARE_STEPS` steps side by side with their
schedule digests compared, and the replay continues on the restored one.
With ``--traced 1`` the layer wrappers of :func:`install_layers` are active
for the whole cycle and the output carries the per-layer metrics.  The
result is printed as one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.spans import Tracer, layer_metrics
from perfbench.workloads import COMPARE_STEPS, WORKLOADS, TraceInputs, Workload, make_inputs

__all__ = ["install_layers", "host_probe", "schedule_digest", "replay_trace", "run_cycle"]

_HOUR = 3600.0
#: Relative slack for float sums that the scheduler and this check add up in
#: different orders.
_SUM_TOLERANCE = 1e-9


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every measured ``repro`` layer."""
    from repro.cluster.placement import Placer
    from repro.core.allocation import Allocation
    from repro.core.allocation_engine import AllocationEngine
    from repro.core.session import PolicySession
    from repro.exceptions import AllocationError
    from repro.scheduler import service
    from repro.scheduler.mechanism import RoundScheduler
    from repro.scheduler.priorities import PriorityTracker
    from repro.solver.fractional import FractionalProgram
    from repro.solver.lp import LinearProgram
    from repro.workloads.trace_generator import TraceGenerator

    counters, samples = tracer.counters, tracer.samples
    scheduled_workers: List[int] = []

    def note_round(result: Any, *_args: Any, **_kwargs: Any) -> None:
        scheduled_workers.append(sum(item.scale_factor for item in result))

    def note_fill(_result: Any, scheduler: Any, *_args: Any, **_kwargs: Any) -> None:
        # Capacity after the step: a resize applies before the round it affects.
        while scheduled_workers:
            samples["mechanism.fill"].append(
                scheduled_workers.pop() / scheduler.cluster_spec.total_workers()
            )

    def note_placements(result: Any, *_args: Any, **_kwargs: Any) -> None:
        for placement in result:
            if placement.request.scale_factor > 1:
                counters["placement.multi_requests"] += 1
                counters["placement.consolidated"] += int(placement.consolidated)

    def note_lp(program: Any, *_args: Any, **_kwargs: Any) -> None:
        counters["solver.lp_calls"] += 1
        samples["solver.rows"].append(program.num_constraints())
        samples["solver.cols"].append(program.num_variables())

    def validate(allocation: Any, session: Any, *_args: Any, **_kwargs: Any) -> None:
        # Only allocations the scheduler receives: an aggregated session's
        # inner solve returns group totals, which may exceed one.
        if tracer.is_open("session.solve"):
            return
        try:
            allocation.validate(session.problem.cluster_spec)
        except AllocationError:
            counters["check.invalid_allocations"] += 1

    def note_rows(_result: Any, engine: Any, *_args: Any, **_kwargs: Any) -> None:
        samples["engine.rows"].append(engine.num_rows())

    span = tracer.wrap_span
    span(service.ClusterScheduler, "step", "service.step", after=note_fill)
    span(service.ClusterScheduler, "snapshot", "service.snapshot")
    span(service.ClusterScheduler, "restore", "service.restore")
    span(service, "effective_throughput", "throughput.effective")
    span(RoundScheduler, "schedule_round", "mechanism.schedule_round", after=note_round)
    span(PriorityTracker, "priorities", "priorities.priorities")
    span(Placer, "place", "placement.place", after=note_placements)
    span(PolicySession, "solve", "session.solve", after=validate)
    span(PolicySession, "apply", "session.apply")
    span(LinearProgram, "solve", "solver.lp", before=note_lp, error_counter="solver.errors")
    span(FractionalProgram, "solve", "solver.fractional", error_counter="solver.errors")
    span(AllocationEngine, "add_job", "engine.add_job")
    span(AllocationEngine, "remove_job", "engine.remove_job")
    span(AllocationEngine, "matrix", "engine.matrix", after=note_rows)
    span(AllocationEngine, "drain_deltas", "engine.drain_deltas")
    span(TraceGenerator, "generate_continuous", "workloads.trace_gen")
    tracer.wrap_counter(Allocation, "row", "allocation.row")
    tracer.wrap_counter(Allocation, "job_row", "allocation.job_row")
    tracer.wrap_counter(PriorityTracker, "record_time", "priorities.record_time")


def host_probe() -> float:
    """Seconds a fixed task takes on this host right now.

    The task mixes the kinds of work the scheduler spends its time on (dict
    and tuple handling, small NumPy arrays, a HiGHS solve) but runs none of
    the program's code, so a change to the program cannot move it.
    """
    import numpy as np
    from scipy.optimize import linprog

    start = time.perf_counter()
    table: Dict[Tuple[int, int], int] = {}
    for i in range(150000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda item: (-item[1], item[0]))
    vector = np.zeros(3)
    for _ in range(12000):
        vector = vector * 0.5 + 1.0
    rng = np.random.default_rng(0)
    linprog(
        -rng.uniform(0.1, 1.0, 60), A_ub=rng.uniform(0.1, 1.0, (40, 60)),
        b_ub=np.ones(40), bounds=(0, 1), method="highs",
    )
    return time.perf_counter() - start


def schedule_digest(scheduler: Any) -> str:
    """Hash of the clock and every job's completion time, progress, cost and state."""
    digest = hashlib.sha256(repr(scheduler.now).encode())
    for job_id, record in sorted(scheduler.result().records.items()):
        digest.update(
            repr(
                (job_id, record.completion_time, record.steps_done, record.cost_dollars,
                 record.cancelled)
            ).encode()
        )
    return digest.hexdigest()


def replay_trace(
    scheduler: Any, inputs: TraceInputs, fresh: Callable[[], Any]
) -> Dict[str, Any]:
    """Drain one submitted trace, checkpointing on the way; returns its measurements."""
    # Step latencies count while jobs still arrive: the drain at the end of
    # a finite trace, when a few long jobs run on an emptying cluster, is not
    # the load an online scheduler serves.
    last_arrival = max(job.arrival_time for job in inputs.jobs)
    latencies: List[float] = []
    steps = 0
    errors: List[str] = []
    recover = 0.0
    aside = 0.0
    checkpoints = list(inputs.checkpoints)
    start = time.perf_counter()
    while scheduler.has_work:
        if checkpoints and scheduler.now >= checkpoints[0]:
            at = checkpoints.pop(0)
            begin = time.perf_counter()
            restored = fresh().restore(scheduler.snapshot())
            recover += time.perf_counter() - begin
            for index in range(COMPARE_STEPS):
                scheduler.step()
                restored.step()
                if schedule_digest(scheduler) != schedule_digest(restored):
                    errors.append(
                        f"restored scheduler diverged {index + 1} step(s) after the "
                        f"checkpoint at t={at:.1f}s"
                    )
                    break
            scheduler = restored
            aside += time.perf_counter() - begin
            continue
        loaded = scheduler.now < last_arrival
        begin = time.perf_counter()
        scheduler.step()
        elapsed = time.perf_counter() - begin
        steps += 1
        if loaded:
            latencies.append(elapsed)
    wall = time.perf_counter() - start - aside
    if checkpoints:
        errors.append(f"{len(checkpoints)} checkpoint(s) never reached")

    result = scheduler.result()
    records = list(result.records.values())
    attempted = [record for record in records if not record.cancelled]
    completed = [record for record in attempted if record.completed]
    failed = len(attempted) - len(completed)
    if failed:
        errors.append(f"{failed} job(s) neither completed nor cancelled")
    for name, busy in result.busy_worker_seconds.items():
        capacity = result.capacity_worker_seconds.get(name, 0.0)
        if busy > capacity * (1 + _SUM_TOLERANCE) + 1e-6:
            errors.append(f"{name} busy {busy:.3f}s exceeds capacity {capacity:.3f}s")
    cost = sum(record.cost_dollars for record in records)
    total = result.total_cost_dollars
    if abs(cost - total) > _SUM_TOLERANCE * max(1.0, abs(total)):
        errors.append(f"per-job cost {cost!r} does not sum to total cost {total!r}")
    return {
        "wall_s": wall,
        "recover_s": recover,
        "steps": steps,
        "latencies_ms": [1e3 * value for value in latencies],
        "digest": schedule_digest(scheduler),
        "jct_h": [record.jct_seconds / _HOUR for record in completed],
        "makespan_h": max((record.completion_time for record in completed), default=0.0) / _HOUR,
        "attempted": len(attempted),
        "failed": failed,
        "errors": errors,
    }


def run_cycle(
    workload: Workload, seed: int, cycle: int, traced: bool, launched: float
) -> Dict[str, Any]:
    """Set up and replay every trace of one cycle; ``launched`` is the parent's monotonic start."""
    tracer: Optional[Tracer] = None
    if traced:
        tracer = Tracer()
        install_layers(tracer)
    patches = tracer.patches if tracer is not None else []
    try:
        from repro.cluster.cluster_spec import ClusterSpec
        from repro.scheduler.service import ClusterScheduler, SchedulerConfig
        from repro.workloads.colocation import ColocationModel
        from repro.workloads.throughputs import ThroughputOracle

        oracle = ThroughputOracle()
        colocation = ColocationModel(oracle)
        cluster = ClusterSpec.from_counts(workload.cluster_counts())
        config = SchedulerConfig(mode=workload.mode, aggregation=workload.aggregation)

        def fresh() -> Any:
            return ClusterScheduler(
                workload.policy, cluster, oracle=oracle, colocation_model=colocation,
                config=config,
            )

        def submitted(inputs: TraceInputs) -> Any:
            scheduler = fresh()
            for job in inputs.jobs:
                scheduler.submit(job)
            for job_id, at in inputs.cancels:
                scheduler.schedule_cancel(job_id, at)
            for at, deltas in inputs.resizes:
                scheduler.schedule_resize(deltas, at)
            return scheduler

        all_inputs = make_inputs(workload, seed, cycle, oracle)
        schedulers = [submitted(inputs) for inputs in all_inputs]
        setup = time.monotonic() - launched
        probes = [host_probe()]
        traces = []
        for inputs in all_inputs:
            # Popping hands each drained scheduler to the garbage collector.
            traces.append(replay_trace(schedulers.pop(0), inputs, fresh))
            probes.append(host_probe())
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors: List[str] = []
    layers = None
    if tracer is not None:
        if any(owner.__dict__[attr] is not original for owner, attr, original in patches):
            errors.append("a wrapped attribute was not restored")
        invalid = tracer.counters["check.invalid_allocations"]
        if invalid:
            errors.append(f"{invalid} allocation(s) failed Allocation.validate")
        layers = layer_metrics(tracer)
    return {
        "setup_s": setup,
        "probe_s": statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traces": traces,
        "layers": layers,
        "errors": errors,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycle", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args(argv)
    try:
        cycle = run_cycle(
            WORKLOADS[args.workload], args.seed, args.cycle, bool(args.traced), args.launched
        )
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(cycle))
    return 0


if __name__ == "__main__":
    sys.exit(main())
