"""In-memory spans around calls into the spinmotif package.

A span records a name, a start and end time, the span that caused it and the
operation it belongs to.  :func:`instrument` wraps a package function at every
module binding of that name (``ansatz.cnn_logpsi_batch`` and
``vmc.cnn_logpsi_batch`` are the same object), so internal calls nest as child
spans.  Nothing is written until the caller dumps the spans at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

# hook(tracer, span_index, bound_arguments, result)
Hook = Callable[["Tracer", int, dict, object], None]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list; -1 for a root span
    op: int  # operation (request) the span belongs to


class Tracer:
    """Collects spans and named counters for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []

    def next_op(self) -> None:
        self.op += 1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, idx, bound.arguments, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}
        path.write_text(json.dumps(doc) + "\n")


@contextmanager
def instrument(tracer: Tracer, targets, package: str = "spinmotif") -> Iterator[Tracer]:
    """Wrap each ``(module, attribute, hook)`` target at every binding inside
    ``package`` for the duration of the block; the span is named
    ``<module short name>.<attribute>``.  Bindings are restored on exit."""
    modules = [m for name, m in sys.modules.items()
               if name == package or name.startswith(package + ".")]
    undo: list[tuple[object, str, object]] = []
    try:
        for module, attr, hook in targets:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapped = tracer.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))
        yield tracer
    finally:
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children[i]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def by_name(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Total self time and call count per span name."""
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for s, t in zip(spans, self_times(spans)):
        totals[s.name][0] += t
        totals[s.name][1] += 1
    return {name: (t, c) for name, (t, c) in totals.items()}
