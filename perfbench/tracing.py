"""Benchmark-side spans around the package's public functions.

A :class:`Tracer` wraps chosen functions of the ``routesvm`` modules and
installs each wrapper in every module namespace that holds the original, so
the wrapper is what callers find whether they look the name up in the
defining module (``svm.train`` finding ``kernel_matrix``) or through a
``from ... import`` binding (``cli`` calling ``generate_trace``).

Spans live in memory with parent links; ``layers.span_metrics`` turns them
into per-op busy times, self times and counts.  Nothing inside the
program changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Callable

# A counter takes (tracer, result, args) and returns a span's counts.  It
# runs after the span has ended, with tracing paused, under a
# "perfbench.count" span of its own so that no layer's self time absorbs it.
Counter = Callable[["Tracer", object, tuple], dict]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: int
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the functions it wraps while installed."""

    def __init__(self, modules: list[ModuleType]):
        self.modules = modules
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []
        self._paused = False
        self._patched: list[tuple[ModuleType, str, Callable]] = []

    @contextlib.contextmanager
    def paused(self):
        """Benchmark-side work (counters, output checks) calls the program
        without recording spans."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if counter is not None:
                counting = self._open("perfbench.count")
                try:
                    with self.paused():
                        span.counts = counter(self, result, args)
                finally:
                    self._close(counting)
            return result

        return traced

    def install(self, targets: list[tuple[ModuleType, str, Counter | None]]) -> None:
        """Wrap each (module, function) and bind the wrapper wherever the
        original is bound in the traced modules."""
        for module, attr, counter in targets:
            fn = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(name, fn, counter)
            for namespace in self.modules:
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        self._patched.append((namespace, key, fn))
                        setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for namespace, key, fn in reversed(self._patched):
            setattr(namespace, key, fn)
        self._patched.clear()

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        return {s.id: s.seconds - child_time.get(s.id, 0.0) for s in self.spans}

    def totals(self, name: str) -> dict:
        """Summed busy time, self time, calls, failures and counts of ``name``."""
        own = self.self_seconds()
        picked = [s for s in self.spans if s.name == name]
        counts: dict[str, float] = {}
        for s in picked:
            for key, value in s.counts.items():
                counts[key] = counts.get(key, 0.0) + value
        return {
            "s": sum(s.seconds for s in picked),
            "self_s": sum(own[s.id] for s in picked),
            "calls": len(picked),
            "failed": sum(1 for s in picked if s.error is not None),
            "counts": counts,
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")
