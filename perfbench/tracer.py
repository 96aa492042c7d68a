"""Span tracer for the traced run.

Wraps vodsim's public functions from outside the package. Each wrapped call
is a span (name, start, end, parent). Very hot calls (SimState.cache_position
and the connection-table updates) are counted and timed as leaves instead:
they charge their time to the open span's children, so that span's self time
still excludes them, but they leave no span record.

Counters and per-call checks run after the call returns; their time is
charged to no layer. Spans are kept in memory; `write` stores them when the
run ends.
"""

from __future__ import annotations

import gzip
import os
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    @property
    def parent_name(self):
        return self.parent.name if self.parent is not None else None


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr by wrapper; `restore` undoes every patch."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class Tracer(Patches):
    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.leaf_calls: dict[str, int] = {}
        self.leaf_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.check_s = 0.0  # time in counters and per-call checks
        self.recording = False

    # -- recording --------------------------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        if self.recording:
            self.counts[key] = self.counts.get(key, 0) + amount

    def current(self):
        return self.stack[-1] if self.stack else None

    def span_wrapper(self, name, func, on_return=None):
        """Wrap func so that each call while recording is a span; on_return
        (span, args, kwargs, result) runs after the span closes."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, perf_counter(), parent)
            tracer.stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if on_return is not None:
                tracer._checked(parent, on_return, span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _checked(self, parent, on_return, *args) -> None:
        """Run a counter or per-call check; its time is charged to no layer."""
        t0 = perf_counter()
        on_return(*args)
        dt = perf_counter() - t0
        self.check_s += dt
        if parent is not None:
            parent.child_s += dt

    def leaf_wrapper(self, name, func, timed=True, on_return=None):
        tracer = self
        calls, secs = self.leaf_calls, self.leaf_s
        calls.setdefault(name, 0)
        secs.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            if not timed:
                calls[name] += 1
                result = func(*args, **kwargs)
            else:
                t0 = perf_counter()
                result = func(*args, **kwargs)
                dt = perf_counter() - t0
                calls[name] += 1
                secs[name] += dt
                if tracer.stack:
                    tracer.stack[-1].child_s += dt
            if on_return is not None:
                tracer._checked(tracer.current(), on_return, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzip CSV: id,parent_id,name,start_s,end_s (times relative
        to the first span)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for i, s in enumerate(self.spans):
                parent = ids.get(id(s.parent), -1) if s.parent is not None else -1
                f.write(f"{i},{parent},{s.name},{s.start - t0:.9f},"
                        f"{s.end - t0:.9f}\n")
