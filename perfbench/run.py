"""Scheduler benchmark: replay a workload, check the schedule, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload las-ss-round --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Each measurement is a *cycle*: a fresh, single-threaded process
(``perfbench/replay.py``) that sets up and replays every trace of the
workload once.  Cycles repeat until ``--seconds`` would be exceeded, and at
least :data:`MIN_CYCLES` run, so set-up is measured several times.  Times are
medians over cycles, scaled to a reference host speed (see
:data:`REFERENCE_PROBE_SECONDS`); step latency percentiles pool the steps of
all cycles.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced cycles alternate
and it carries the per-layer metrics instead.  A
failed correctness check prints ``"correct": false`` and exits with code 1;
a checkout without the program's sources exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import PER_LAYER_METRICS  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

__all__ = [
    "END_TO_END_METRICS",
    "MIN_CYCLES",
    "REFERENCE_PROBE_SECONDS",
    "percentile",
    "tail_percentile",
    "run_workload",
    "main",
]

#: End-to-end metric name -> (unit, better).  ``BENCHMARK.json`` lists the same.
END_TO_END_METRICS: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "sim_wall_s": ("s", "lower"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p95": ("ms", "lower"),
    "recover_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "avg_jct_h": ("h", "lower"),
    "makespan_h": ("h", "lower"),
    "jobs_completed_frac": ("ratio", "higher"),
}

#: Untraced cycles per ``--trace 0`` run, at least; the simulated outcomes
#: come from these, so they repeat exactly at a fixed seed.
MIN_CYCLES = 4
#: Seconds :func:`~perfbench.replay.host_probe` takes on the reference host (a
#: 2-vCPU Xeon VM at 2.0 GHz in a typical minute).  End-to-end times are
#: scaled by ``REFERENCE_PROBE_SECONDS`` over the run's median probe: on such
#: a shared host the same work runs 20-30% slower or faster from one minute
#: to the next, and the probe, run in the same processes, slows down with it.
REFERENCE_PROBE_SECONDS = 0.08
#: Every run ends within this many seconds, whatever ``--seconds`` says.
_HARD_LIMIT_SECONDS = 170.0
#: Percentiles considered for the tail, highest first.
_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchmarkError(RuntimeError):
    """A cycle crashed, timed out or printed no result."""


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[float]:
    """Highest candidate percentile with at least ten of ``count`` samples beyond it."""
    for pct in _TAIL_CANDIDATES:
        if count * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return None


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # One process, one thread: numeric libraries must not fan out.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_cycle(
    workload: Workload, seed: int, cycle: int, traced: bool, deadline: float
) -> Dict[str, Any]:
    """Start one replay process and return its parsed result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("no time left for another cycle")
    launched = time.monotonic()
    command = [
        sys.executable, "-m", "perfbench.replay",
        "--workload", workload.name, "--seed", str(seed), "--cycle", str(cycle),
        "--traced", str(int(traced)), "--launched", repr(launched),
    ]
    process = subprocess.Popen(
        command, cwd=str(ROOT), env=_child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchmarkError(f"cycle {cycle} exceeded {timeout:.0f}s") from None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(f"cycle {cycle} exited with code {process.returncode}")
    return json.loads(lines[-1])


def _measure(
    workload: Workload, seed: int, seconds: float, traced: bool
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]], List[str]]:
    """Run cycles until ``seconds`` are spent; returns untraced and traced cycles.

    With ``traced``, every cycle's inputs are replayed twice, untraced and
    then traced.
    """
    start = time.monotonic()
    deadline = start + _HARD_LIMIT_SECONDS
    plain: List[Dict[str, Any]] = []
    tracing: List[Dict[str, Any]] = []
    errors: List[str] = []
    while True:
        begin = time.monotonic()
        try:
            plain.append(run_cycle(workload, seed, len(plain), False, deadline))
            if traced:
                tracing.append(run_cycle(workload, seed, len(tracing), True, deadline))
        except BenchmarkError as error:
            errors.append(str(error))
            break
        now = time.monotonic()
        expected_end = now + (now - begin)
        if len(plain) >= (1 if traced else MIN_CYCLES) and expected_end - start > seconds:
            break
        if expected_end > deadline - 5.0:
            break
    return plain, tracing, errors


def _cycle_errors(cycles: Sequence[Dict[str, Any]]) -> List[str]:
    errors: List[str] = []
    for number, cycle in enumerate(cycles):
        errors.extend(f"cycle {number}: {message}" for message in cycle["errors"])
        for index, trace in enumerate(cycle["traces"]):
            errors.extend(
                f"cycle {number} trace {index}: {message}" for message in trace["errors"]
            )
    return errors


def _cycle_wall(cycle: Dict[str, Any]) -> float:
    return sum(trace["wall_s"] for trace in cycle["traces"])


def _pooled_latencies(cycle: Dict[str, Any]) -> List[float]:
    return [latency for trace in cycle["traces"] for latency in trace["latencies_ms"]]


def end_to_end(cycles: Sequence[Dict[str, Any]], errors: List[str]) -> Dict[str, float]:
    """End-to-end metrics from untraced cycles; appends failed checks to ``errors``.

    Times are medians over cycles, scaled to the reference host speed.  The
    simulated outcomes come from the first
    :data:`MIN_CYCLES` cycles, which every run replays, so they repeat
    exactly at a fixed seed.
    """
    # One pool per run: a cycle is too short to have ten steps beyond p95.
    pooled = [latency for cycle in cycles for latency in _pooled_latencies(cycle)]
    tail = tail_percentile(len(pooled))
    if tail is None or tail < 95.0:
        errors.append(f"{len(pooled)} loaded steps leave fewer than 10 beyond p95")
        return {}
    speed = REFERENCE_PROBE_SECONDS / statistics.median(cycle["probe_s"] for cycle in cycles)
    outcomes = [trace for cycle in cycles[:MIN_CYCLES] for trace in cycle["traces"]]
    jcts = [jct for trace in outcomes for jct in trace["jct_h"]]
    return {
        "setup_s": speed * statistics.median(cycle["setup_s"] for cycle in cycles),
        "sim_wall_s": speed * statistics.median(_cycle_wall(cycle) for cycle in cycles),
        "step_ms_p50": speed * percentile(pooled, 50.0),
        "step_ms_p95": speed * percentile(pooled, 95.0),
        "recover_s": speed * statistics.median(
            sum(trace["recover_s"] for trace in cycle["traces"]) for cycle in cycles
        ),
        "peak_rss_mb": statistics.median(cycle["peak_rss_mb"] for cycle in cycles),
        "avg_jct_h": sum(jcts) / len(jcts),
        "makespan_h": sum(trace["makespan_h"] for trace in outcomes) / len(outcomes),
    }


def _layers(
    plain: Sequence[Dict[str, Any]], tracing: Sequence[Dict[str, Any]], errors: List[str]
) -> Dict[str, float]:
    """Per-layer metrics: medians over traced cycles, plus the tracing overhead."""
    for number, (untraced, traced) in enumerate(zip(plain, tracing)):
        if [t["digest"] for t in untraced["traces"]] != [t["digest"] for t in traced["traces"]]:
            errors.append(f"cycle {number}: the traced replay scheduled differently")
    layers = {
        name: statistics.median(cycle["layers"][name] for cycle in tracing)
        for name in tracing[0]["layers"]
    }
    layers["trace.overhead_s"] = statistics.median(
        _cycle_wall(traced) - _cycle_wall(untraced) for untraced, traced in zip(plain, tracing)
    )
    return layers


def run_workload(
    workload: Workload, seed: int, seconds: float, traced: bool
) -> Dict[str, Any]:
    """Measure one workload; returns the result object ``main`` prints."""
    plain, tracing, errors = _measure(workload, seed, seconds, traced)
    cycles = plain + tracing
    attempted = sum(t["attempted"] for cycle in cycles for t in cycle["traces"])
    failed = sum(t["failed"] for cycle in cycles for t in cycle["traces"])
    if errors:  # a crashed cycle: every job it was to run counts as failed
        attempted += workload.traces * workload.num_jobs
        failed += workload.traces * workload.num_jobs
    errors.extend(_cycle_errors(cycles))
    metrics: Dict[str, float] = {}
    if traced and tracing:
        metrics = _layers(plain, tracing, errors)
    elif not traced and len(plain) >= MIN_CYCLES:
        metrics = end_to_end(plain, errors)
    if not traced:
        metrics["jobs_completed_frac"] = (attempted - failed) / attempted if attempted else 0.0
    catalogue = PER_LAYER_METRICS if traced else END_TO_END_METRICS
    return {
        "correct": not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": catalogue[name][0]}
            for name in catalogue
            if name in metrics
        },
        "errors": errors,
        "loaded_steps": [len(_pooled_latencies(cycle)) for cycle in plain],
        "steps": [sum(t["steps"] for t in cycle["traces"]) for cycle in plain],
        "raw_wall_s": statistics.median(_cycle_wall(cycle) for cycle in plain) if plain else 0.0,
        "probe_ms": 1e3 * statistics.median(c["probe_s"] for c in plain) if plain else 0.0,
    }


def _report(name: str, result: Dict[str, Any]) -> None:
    loaded = result["loaded_steps"]
    tail = tail_percentile(sum(loaded))
    print(
        f"== {name}: {len(loaded)} cycle(s); steps per cycle {result['steps']}, "
        f"of them while jobs arrive {loaded}; highest percentile with >=10 "
        f"samples beyond it: p{tail}\n   unscaled sim_wall_s {result['raw_wall_s']:.6f} s, "
        f"host probe {result['probe_ms']:.3f} ms (reference "
        f"{1e3 * REFERENCE_PROBE_SECONDS:.0f} ms)"
    )
    for metric, entry in result["metrics"].items():
        print(f"   {metric:30s} {entry['value']:14.6f} {entry['unit']}")
    print(
        f"   jobs attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {result['correct']}"
    )
    for error in result["errors"]:
        print(f"   CHECK FAILED: {error}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        _report(name, results[name])
    if len(names) == 1:
        summary = {key: results[names[0]][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
