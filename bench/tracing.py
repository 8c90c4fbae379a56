"""In-memory spans around the public functions of each parvts module.

The tracer replaces a function under the name its caller binds (scheduler
calls `run_layers` through its own module namespace, harness calls
`run_strategy` through its own, and so on), so nothing under `src/` changes.
Each span is `[name, start, end, parent, request]`: `parent` is the index of
the enclosing span or None, `request` the id the benchmark set before the
call. Counters sit at the same boundaries, so ratios are measured where the
work happens.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name, layer: str, count=None):
        """Replace owner.attr by a recording wrapper until restore().

        `name` is the span name, or a function of (args, kwargs) giving it.
        `count(counts, span, args, kwargs, result)` runs after a call that
        returned, outside the span.
        """
        original = inspect.getattr_static(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else None, tracer.request]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def covered(interval, children) -> float:
    """Length of the part of `interval` that the union of `children` covers."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (s[END] - s[START]) - covered((s[START], s[END]), children.get(i, ()))
        for i, s in enumerate(spans)
    ]
