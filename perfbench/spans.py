"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the public entry points of the ``repro`` layers with
wrappers for the length of one traced replay.  A *span* wrapper records
``(span id, parent span id, name, start, end)`` in memory; a *counter*
wrapper only counts calls, because timing a leaf that runs millions of times
(``Allocation.row``) would cost more than the work it measures.  Hooks that
inspect arguments or results (LP shape, allocation validation, fill
fractions) run in their own ``trace.hook`` spans, so their cost is subtracted
from the enclosing layer's self time instead of being billed to it.
:meth:`Tracer.uninstall` puts every original attribute back, and
:func:`layer_metrics` turns the span list into per-layer metrics once, at
the end.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Tracer",
    "self_times",
    "layer_metrics",
    "PER_LAYER_METRICS",
]

#: ``(span id, parent span id or None, name, start, end)``.
Span = Tuple[int, Optional[int], str, float, float]

HOOK = "trace.hook"

#: Per-layer metric name -> (unit, better).  ``BENCHMARK.json`` lists the same.
PER_LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "mechanism.self_s": ("s", "lower"),
    "mechanism.fill_frac": ("ratio", "higher"),
    "priorities.priorities_s": ("s", "lower"),
    "priorities.record_time_calls": ("count", "lower"),
    "allocation.row_calls": ("count", "lower"),
    "allocation.job_row_calls": ("count", "lower"),
    "placement.place_s": ("s", "lower"),
    "placement.multi_requests": ("count", "higher"),
    "placement.consolidated_frac": ("ratio", "higher"),
    "session.self_s": ("s", "lower"),
    "session.solve_calls": ("count", "lower"),
    "session.allocations": ("count", "lower"),
    "session.apply_s": ("s", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.solve_calls": ("count", "lower"),
    "solver.lp_per_allocation": ("LP/alloc", "lower"),
    "solver.rows_mean": ("rows", "lower"),
    "solver.cols_mean": ("cols", "lower"),
    "solver.errors": ("count", "lower"),
    "solver.step_share": ("ratio", "lower"),
    "engine.add_s": ("s", "lower"),
    "engine.remove_s": ("s", "lower"),
    "engine.matrix_s": ("s", "lower"),
    "engine.drain_s": ("s", "lower"),
    "engine.rows_mean": ("rows", "lower"),
    "throughput.effective_s": ("s", "lower"),
    "service.self_s": ("s", "lower"),
    "service.step_s": ("s", "lower"),
    "service.snapshot_s": ("s", "lower"),
    "service.restore_s": ("s", "lower"),
    "workloads.trace_gen_s": ("s", "lower"),
    "trace.hook_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Wraps layer entry points, records spans and counters, then unwraps."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Open spans, innermost last: ``(span id, name)``.
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------------
    def _open(self, name: str) -> Tuple[int, float]:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name))
        return span_id, time.perf_counter()

    def _close(self, span_id: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((span_id, parent, name, start, end))

    def is_open(self, name: str) -> bool:
        """Whether a span called ``name`` is currently open."""
        return any(open_name == name for _, open_name in self._stack)

    def hook(self, action: Callable[[], None]) -> None:
        """Run ``action`` in a ``trace.hook`` span under the current span."""
        span_id, start = self._open(HOOK)
        try:
            action()
        finally:
            self._close(span_id, HOOK, start)

    # -- wrapping -----------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_span(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
        error_counter: Optional[str] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``before(*args, **kwargs)`` runs in a hook span just ahead of the
        call, ``after(result, *args, **kwargs)`` in one just after it; both
        are siblings of the span, not part of it.  Calls that raise count in
        ``error_counter`` and re-raise.
        """
        func = owner.__dict__[attr]
        tracer = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                tracer.hook(lambda: before(*args, **kwargs))
            span_id, start = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                if error_counter is not None:
                    tracer.counters[error_counter] += 1
                raise
            finally:
                tracer._close(span_id, name, start)
            if after is not None:
                tracer.hook(lambda: after(result, *args, **kwargs))
            return result

        self._patch(owner, attr, wrapper)

    def wrap_counter(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name`` without timing them."""
        func = owner.__dict__[attr]
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counters[name] += 1
            return func(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    @property
    def patches(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, attribute, original object)`` for every live patch."""
        return list(self._patches)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _self_by_id(spans: Sequence[Span]) -> Dict[int, float]:
    child_time: Dict[int, float] = defaultdict(float)
    for _span_id, parent, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {span_id: (end - start) - child_time[span_id] for span_id, _, _, start, end in spans}


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name: duration minus direct children's durations.

    Children are found by parent id, so a span nested in another span of the
    same name (an aggregated session solving its inner session) is charged
    only its own part, and the outer one is not charged twice.
    """
    own = _self_by_id(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span_id, _parent, name, _start, _end in spans:
        totals[name] += own[span_id]
    return dict(totals)


def _ancestor_names(spans: Sequence[Span]) -> Dict[int, Tuple[str, ...]]:
    """Names of every span's ancestors, outermost first."""
    by_id = {span[0]: span for span in spans}
    memo: Dict[int, Tuple[str, ...]] = {}

    def ancestors(span_id: int) -> Tuple[str, ...]:
        if span_id not in memo:
            parent = by_id[span_id][1]
            memo[span_id] = () if parent is None else ancestors(parent) + (by_id[parent][2],)
        return memo[span_id]

    for span_id in sorted(by_id):  # parents open before children: shallow first
        ancestors(span_id)
    return memo


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics (see :data:`PER_LAYER_METRICS`) from one traced replay.

    All but ``trace.overhead_s``, which needs an untraced replay to compare with.
    """
    spans = tracer.spans
    counters = tracer.counters
    samples = tracer.samples
    own_by_id = _self_by_id(spans)
    own: Dict[str, float] = defaultdict(float, self_times(spans))
    ancestors = _ancestor_names(spans)

    session_solves = [span[0] for span in spans if span[2] == "session.solve"]
    allocations = sum(1 for span_id in session_solves if "session.solve" not in ancestors[span_id])
    step_total = sum(end - start for _, _, name, start, end in spans if name == "service.step")
    solver_in_steps = sum(
        own_by_id[span_id]
        for span_id, _parent, name, _start, _end in spans
        if name.startswith("solver.") and ancestors[span_id][:1] == ("service.step",)
    )
    lp_calls = counters["solver.lp_calls"]
    multi = counters["placement.multi_requests"]
    return {
        "mechanism.self_s": own["mechanism.schedule_round"],
        "mechanism.fill_frac": _mean(samples["mechanism.fill"]),
        "priorities.priorities_s": own["priorities.priorities"],
        "priorities.record_time_calls": float(counters["priorities.record_time"]),
        "allocation.row_calls": float(counters["allocation.row"]),
        "allocation.job_row_calls": float(counters["allocation.job_row"]),
        "placement.place_s": own["placement.place"],
        "placement.multi_requests": float(multi),
        "placement.consolidated_frac": (
            counters["placement.consolidated"] / multi if multi else 0.0
        ),
        "session.self_s": own["session.solve"],
        "session.solve_calls": float(len(session_solves)),
        "session.allocations": float(allocations),
        "session.apply_s": own["session.apply"],
        "solver.solve_s": own["solver.lp"] + own["solver.fractional"],
        "solver.solve_calls": float(lp_calls),
        "solver.lp_per_allocation": lp_calls / allocations if allocations else 0.0,
        "solver.rows_mean": _mean(samples["solver.rows"]),
        "solver.cols_mean": _mean(samples["solver.cols"]),
        "solver.errors": float(counters["solver.errors"]),
        "solver.step_share": solver_in_steps / step_total if step_total > 0 else 0.0,
        "engine.add_s": own["engine.add_job"],
        "engine.remove_s": own["engine.remove_job"],
        "engine.matrix_s": own["engine.matrix"],
        "engine.drain_s": own["engine.drain_deltas"],
        "engine.rows_mean": _mean(samples["engine.rows"]),
        "throughput.effective_s": own["throughput.effective"],
        "service.self_s": own["service.step"],
        "service.step_s": step_total,
        "service.snapshot_s": own["service.snapshot"],
        "service.restore_s": own["service.restore"],
        "workloads.trace_gen_s": own["workloads.trace_gen"],
        "trace.hook_s": own[HOOK],
    }
