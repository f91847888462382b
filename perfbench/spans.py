"""In-memory span tracer that wraps functions as module attributes.

A span records a name, start and end (perf_counter seconds), the id of the
span that caused it and an optional dict of counts taken at the boundary.
Wrapping replaces the attribute in every namespace that holds the original
function object, so `from .x import f` bindings are traced too, and
`restore` puts every original back.

Spans opened on a worker thread with an empty stack take the innermost
open span of the tracing thread as parent: the only worker threads the
traced program starts belong to a pool the tracing thread is blocked on.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []

    def wrap(self, name: str, fn, note=None):
        """Timing wrapper around fn; note(args, kwargs, result) -> counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                owner = self._stacks.get(self._owner)
                parent = owner[-1] if tid != self._owner and owner else None
            span = Span(next(self._ids), name, 0.0, 0.0, parent)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if note is not None:
                span.counts = note(args, kwargs, result)
            return result

        return traced

    def patch(self, namespaces, original, replacement) -> None:
        """Swap `original` for `replacement` wherever a namespace binds it."""
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                    self._patches.append((ns, attr, original))

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches = []


class Proxy:
    """Stand-in for a module: named attributes overridden, the rest delegated."""

    def __init__(self, target, **overrides) -> None:
        self._target = target
        vars(self).update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def covered(interval: tuple[float, float], children) -> float:
    """Length of the union of child intervals clipped to `interval`."""
    lo, hi = interval
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(c.start, lo), min(c.end, hi)) for c in children):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.id: s.duration - covered((s.start, s.end), children.get(s.id, ()))
        for s in spans
    }
