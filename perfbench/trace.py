"""Span tracing of specsense's public functions, installed from outside the package.

The tracer replaces a function with a timing wrapper at every module
attribute where that function object is bound (``specsense.specfun``,
``specsense.detector``, the package namespace, ...), because the modules
import each other's functions by name and call them through their own
globals.  Nothing under ``src/`` is edited; ``Tracer.restore`` puts the
original objects back.

Spans nest as a call stack in one thread.  A span's self time is its
duration minus the union of its direct children's intervals.  Millions of
kernel calls make a full span log too large to keep, so each span is folded
into per-name totals (calls, total and self seconds, durations, and call
counts per parent -> child edge) as it closes.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of it that child spans cover."""
    return (end - start) - union_length(children, start, end)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: array = field(default_factory=lambda: array("d"))


class _Frame:
    __slots__ = ("name", "children")

    def __init__(self, name: str):
        self.name = name
        self.children: list[tuple[float, float]] = []


@dataclass(frozen=True)
class Target:
    """A function to trace: ``owner.attr`` names its defining binding.

    ``span`` is the span name, or None for a counter that opens no span (its
    time stays in the enclosing span).  ``on_return(counters, args, kwargs,
    result)`` records counts measured at the call boundary.
    """

    owner: str
    attr: str
    span: str | None
    on_return: object = None


class Tracer:
    """Install timing wrappers for ``targets``; totals accumulate while installed."""

    def __init__(self, targets, package: str = "specsense"):
        self.targets = tuple(targets)
        self.package = package
        self.stats: dict[str, SpanStats] = {}
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def install(self) -> "Tracer":
        modules = self._modules()
        for target in self.targets:
            owner = _resolve(target.owner)
            original = getattr(owner, target.attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{target.owner}.{target.attr}")
                continue
            wrapper = self._wrap(original, target)
            if isinstance(owner, type):
                # A method: every instance finds it through its class.
                self._patch(owner, target.attr, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        return self

    def _patch(self, holder, attr: str, wrapper) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn, target: Target):
        counters = self.counters
        hook = target.on_return
        if target.span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(counters, args, kwargs, result)
                return result
            return counted

        name = target.span
        stack = self._stack
        stats = self.stats.setdefault(name, SpanStats())
        edges = self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(name)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats.calls += 1
                stats.total_s += end - start
                stats.self_s += self_time(start, end, frame.children)
                stats.durations.append(end - start)
                if parent is not None:
                    parent.children.append((start, end))
                    edges[(parent.name, name)] += 1
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced


def _resolve(dotted: str):
    """Module or class named by ``dotted``, or None when it does not exist."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is None:
            continue
        obj = module
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None
