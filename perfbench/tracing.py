"""In-memory span tracer and call-site wrapping of kanmark functions.

A span is (name, start, end, parent, run id). Spans are kept in memory and
written out once, when the benchmark ends. A span's self time is its
duration minus the part of its interval covered by its child spans.

Functions are wrapped at the module that calls them: ``kan.basis_matrix``
patches the name ``basis_matrix`` inside ``kanmark.kan``, which is where
``KanLayer.forward`` looks it up. A target that no longer exists is
reported as a warning and counts zero calls, so removing an internal
helper from kanmark does not break the traced run.

A wrapped function records a span and its counters only when called inside
an open span. The benchmark opens a top-level ``stage.*`` span around each
measured step, so its own checks between steps are not counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a top-level span
    run: int


class Tracer:
    """Records nested spans and per-span counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.run))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def is_open(self) -> bool:
        """Whether a span is open, i.e. the caller is inside a stage."""
        return bool(self._stack)

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def summarise(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        row = out[s.name]
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
    return dict(out)


@dataclass(frozen=True)
class Target:
    """One wrapped name: span ``span`` around ``module.attr`` (``attr`` may
    be ``Class.method``). ``counters`` maps a counter suffix to a function
    of (bound arguments, result) giving the amount to add."""

    span: str
    module: str
    attr: str
    counters: tuple = ()


class Instrumentation:
    """Patches targets with span-recording wrappers; ``remove`` restores."""

    def __init__(self, tracer: Tracer, targets, warn):
        self.tracer = tracer
        self.warn = warn
        self._restore = []
        self._failed_counters: set[str] = set()
        for target in targets:
            self._install(target)

    def _install(self, target: Target) -> None:
        try:
            owner = importlib.import_module(target.module)
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, name)
        except (ImportError, AttributeError):
            self.warn(f"trace target {target.module}.{target.attr} not found; "
                      f"{target.span} counts zero calls")
            return
        self._restore.append((owner, name, original))
        if isinstance(original, (staticmethod, classmethod)):
            wrapped = type(original)(self._wrapper(target, original.__func__))
        else:
            wrapped = self._wrapper(target, original)
        setattr(owner, name, wrapped)

    def _wrapper(self, target: Target, fn):
        tracer = self.tracer
        signature = inspect.signature(fn) if target.counters else None

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.is_open():
                return fn(*args, **kwargs)
            index = tracer.begin(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if signature is not None:
                self._count(target, signature, args, kwargs, result)
            return result

        return wrapped

    def _count(self, target, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            values = [(suffix, fn(bound.arguments, result))
                      for suffix, fn in target.counters]
        except Exception as exc:  # a changed signature must not stop the run
            if target.span not in self._failed_counters:
                self._failed_counters.add(target.span)
                self.warn(f"trace counters of {target.span} unavailable: {exc!r}")
            return
        for suffix, value in values:
            self.tracer.count(f"{target.span}.{suffix}", value)

    def remove(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
