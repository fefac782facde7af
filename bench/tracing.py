"""In-memory span tracing for the benchmark's traced runs.

The tracer wraps library functions at the place their callers look them up
(a module attribute such as ``sim.sample_bilinear`` or a class attribute
such as ``TopoMap.shortest_path``), records one span per call and restores
the originals when it is closed. Spans stay in memory until the run ends.

A span holds its name, start, end, parent span and trace id. A root span
starts a new trace; every span below it shares the root's trace id, so the
spans of one episode (or of one dataset build, one training run) share an
id. A span's self time is its duration minus the time its child spans
cover; calls are strictly nested in one thread, so children never overlap.
"""

from __future__ import annotations

import time


class Span:
    __slots__ = ("name", "parent", "trace_id", "start", "end", "child_s", "flag")

    def __init__(self, name: str, parent: int | None, trace_id: int, start: float):
        self.name = name
        self.parent = parent
        self.trace_id = trace_id
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.flag = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans for patched callables; use as a context manager so the
    originals come back even when the traced code raises."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, name: str, flag=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper recording spans called
        ``name``. ``flag``, when given, maps the call's result to a value
        stored on the span (for ratios such as rejects per check)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, flag))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name: str, fn, flag):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            trace_id = spans[parent].trace_id if parent is not None else index
            span = Span(name, parent, trace_id, time.perf_counter())
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if flag is not None:
                    span.flag = flag(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.duration

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return None


def _percentile(ordered: list[float], pct: float) -> float:
    """Linear interpolation between the closest ranks, as numpy's default."""
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_summary(durations_s: list[float]) -> dict:
    """Median and tail latency in milliseconds, with the tail's percentile and
    the sample count. With fewer than 20 samples no percentile has ten samples
    beyond it, and the tail and its percentile read 0."""
    ms = sorted(d * 1e3 for d in durations_s)
    pct = tail_percentile(len(ms))
    return {
        "p50": _percentile(ms, 50.0) if ms else 0.0,
        "tail": _percentile(ms, pct) if pct is not None else 0.0,
        "tail_pct": pct if pct is not None else 0.0,
        "samples": len(ms),
    }


def has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
