"""Outside-in span tracer: wraps the names one octpcc module looks up in another.

A probe names a call the way its caller finds it: `octpcc.pipeline` imports
`quantize_dist` by name, so the probe patches `octpcc.pipeline.quantize_dist`
(patching `octpcc.coder.quantize_dist` would never be seen by the encoder).
Methods are patched on their class, so every instance sees the wrapper.

Each wrapped call records one span (name, start, end, parent) in memory;
aggregation into calls and self time happens only in `summary()`, after the
traced work.  Self time is a span's duration minus the durations of its
direct child spans.  A probe whose target no longer exists is reported in
`absent` instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    module: str                  # module the caller resolves the name in
    attr: str                    # "name" or "Class.method"
    span: str                    # reported as <module>.<call>
    opaque: bool = False         # calls made inside it are not traced
    counter: Optional[Callable] = None  # result -> {count_name: int}


class Tracer:
    def __init__(self, probes=(), clock=time.perf_counter):
        self.probes = tuple(probes)
        self.clock = clock
        self.spans: list = []
        self.counts: dict = {}
        self.absent: list = []
        self._stack: list = []
        self._opaque = 0
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for probe in self.probes:
            try:
                owner, name = _resolve(probe)
                raw = inspect.getattr_static(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(probe.span)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(raw.__func__, probe))
            else:
                patched = self.wrap(raw, probe)
            setattr(owner, name, patched)
            self._restore.append((owner, name, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, raw = self._restore.pop()
            setattr(owner, name, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, probe: Probe):
        clock, spans, stack = self.clock, self.spans, self._stack

        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if probe.opaque:
                self._opaque += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if probe.opaque:
                    self._opaque -= 1
                stack.pop()
                spans[idx] = (probe.span, start, end, parent)
            if probe.counter is not None:
                for key, value in probe.counter(result).items():
                    full = f"{probe.span}.{key}"
                    self.counts[full] = self.counts.get(full, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)


def _resolve(probe: Probe):
    owner = importlib.import_module(probe.module)
    *path, name = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name
