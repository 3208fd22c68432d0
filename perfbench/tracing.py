"""Span tracing from outside the program.

The benchmark measures layers without touching ``src/``: it replaces
the public functions callers reach with wrappers that record a span
(name, start, end, parent) per call, plus counts taken at the same
boundary.  Spans stay in memory and are written when the run ends.

A span's self time is its duration minus the time its child spans
cover.  Children of one span run on the same thread, one after the
other, so that covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: Spans kept for the span file; later spans still count in the totals.
#: Bounds the tracer's memory on the event-by-event workloads, which
#: make millions of wrapped calls per run.
MAX_KEPT_SPANS = 100_000


@dataclass
class LayerTotals:
    """Aggregates of every span of one name."""

    calls: int = 0
    #: Inclusive time of spans with no same-name ancestor (recursion and
    #: nested wraps are counted once).
    outer_ns: int = 0
    self_ns: int = 0


@dataclass
class _ThreadState:
    index: int
    stack: list = field(default_factory=list)  # [span id, name, child ns]
    active: dict = field(default_factory=dict)  # name -> open spans
    next_id: int = 0
    spans: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans and counts on every thread that calls a wrapper."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(index=len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name`` (thread-local, merged later)."""
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def is_active(self, name: str) -> bool:
        """True inside an open span called ``name`` on this thread."""
        return self._state().active.get(name, 0) > 0

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        state = self._state()
        stack = state.stack
        state.next_id += 1
        span_id = (state.index << 40) | state.next_id
        parent = stack[-1][0] if stack else 0
        entry = [span_id, name, 0]
        stack.append(entry)
        active = state.active
        nested = active.get(name, 0)
        active[name] = nested + 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            active[name] = nested
            duration = end - start
            self_ns = duration - entry[2]
            if stack:
                stack[-1][2] += duration
            totals = state.totals.get(name)
            if totals is None:
                totals = state.totals[name] = LayerTotals()
            totals.calls += 1
            totals.self_ns += self_ns
            if not nested:
                totals.outer_ns += duration
            if len(state.spans) < MAX_KEPT_SPANS:
                state.spans.append((span_id, parent, name, start, end, self_ns))

    def wrap(
        self,
        name: str,
        fn: Callable,
        around: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span.

        ``around(args)`` (optional) is called before the call and returns
        a function called after it, which records the boundary's counts.
        """
        tracer = self

        if around is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                after = around(args)
                try:
                    return tracer.span(name, fn, *args, **kwargs)
                finally:
                    after()

        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers on the program's classes and modules
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, around: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (function, method or classmethod) by a
        span wrapper; :meth:`uninstall` restores it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, around))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__, around))
        else:
            replacement = self.wrap(name, original, around)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, LayerTotals]:
        merged: dict[str, LayerTotals] = {}
        for state in self._threads:
            for name, t in state.totals.items():
                m = merged.setdefault(name, LayerTotals())
                m.calls += t.calls
                m.outer_ns += t.outer_ns
                m.self_ns += t.self_ns
        return merged

    def counts(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for state in self._threads:
            for name, value in state.counts.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def spans(self) -> list[tuple]:
        """Kept spans of every thread: (id, parent, name, start, end, self ns)."""
        return [span for state in self._threads for span in state.spans]

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines (times in ns)."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, self_ns in self.spans():
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "self_ns": self_ns,
                        }
                    )
                )
                fh.write("\n")


def check_nesting(spans: list[tuple]) -> list[str]:
    """Problems with a span list: children outside their parent's
    interval, negative self time, self time above the duration."""
    by_id = {span[0]: span for span in spans}
    problems = []
    for span_id, parent, name, start, end, self_ns in spans:
        if end < start:
            problems.append(f"{name} {span_id}: ends before it starts")
        if self_ns < 0 or self_ns > end - start:
            problems.append(f"{name} {span_id}: self time {self_ns} outside [0, {end - start}]")
        outer = by_id.get(parent)
        if outer is not None and not (outer[3] <= start and end <= outer[4]):
            problems.append(f"{name} {span_id}: outside parent {outer[2]} {parent}")
    return problems
