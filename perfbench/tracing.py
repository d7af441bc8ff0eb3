"""Spans around paireffect's public functions, recorded from outside.

A Tracer wraps each traced function and rebinds every attribute of every
loaded paireffect module that refers to it, so a call is timed wherever
the name is looked up: `training.create_pair_ds` is a separate binding
from `pairing.create_pair_ds`, and both must be replaced.  The library's
source is never changed; `uninstall` restores the original bindings.

Spans live in memory.  Each records its name, start, end and the index of
the span open when it started (its parent), so `train` nested in `train`
(the frozen psi model) and `embed` nested in `create_pair_ds` keep their
structure.  Self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans; -1 for a root span
    nested: bool         # an enclosing span has the same name
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerStats:
    calls: int
    busy_s: float        # wall time covered, counting nested repeats once
    self_s: float        # busy time minus the time of child spans
    ms_p50: float        # median call duration


class Tracer:
    """Records spans and counters for the functions it has wrapped."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def trace_function(self, name, module, attr, on_result=None):
        """Wrap module.attr and rebind every paireffect reference to it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, on_result)
        for mod in [m for key, m in sys.modules.items()
                    if key == "paireffect" or key.startswith("paireffect.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, key, wrapper)

    def trace_method(self, name, cls, attr, on_result=None):
        """Wrap a method defined on cls (looked up through instances)."""
        self._rebind(cls, attr, self._wrap(name, vars(cls)[attr], on_result))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def _rebind(self, owner, attr, replacement) -> None:
        self._rebound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn, on_result):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = any(spans[i].name == name for i in stack)
            span = Span(name, stack[-1] if stack else -1, nested)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, span, args, result)
            return result

        return traced

    # -- summaries ----------------------------------------------------------

    def layer_stats(self) -> dict[str, LayerStats]:
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.duration
        by_name: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            by_name.setdefault(span.name, []).append(i)
        out = {}
        for name, idx in by_name.items():
            durations = [self.spans[i].duration for i in idx]
            out[name] = LayerStats(
                calls=len(idx),
                busy_s=sum(self.spans[i].duration for i in idx
                           if not self.spans[i].nested),
                self_s=sum(self.spans[i].duration - child_s[i] for i in idx),
                ms_p50=1e3 * statistics.median(durations),
            )
        return out
