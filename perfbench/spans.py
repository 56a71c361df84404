"""In-memory span tracer that wraps cvortho's public functions at their import sites.

``cvortho.cli``, ``cvortho.schemes`` and ``cvortho.homodyne`` bind names such
as ``beam_splitter_op`` or ``marginal`` when they are imported, so patching
the defining module alone would miss their calls.  ``Tracer.install`` finds
every public function defined in the five modules and replaces each binding
of it, in every one of the modules, with a wrapper.  ``uninstall`` restores
the originals.  Spans are recorded only between ``begin_op`` and ``end_op``,
so the benchmark's own checks that call cvortho are not traced.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

MODULES = ("cli", "schemes", "homodyne", "phasespace", "fock")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._patches = []

    # -- recording -------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self._op = op

    def end_op(self) -> None:
        self._op = None

    def call(self, name, fn, args, kwargs):
        if self._op is None:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- patching --------------------------------------------------------
    def install(self, package) -> None:
        modules = {short: getattr(package, short) for short in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def op_self_totals(spans) -> dict:
    """op index -> sum of the self times of all its spans."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.op] = totals.get(span.op, 0.0) + own
    return totals


def by_name(spans) -> dict:
    """span name -> (calls, total self time)."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        calls, total = out.get(span.name, (0, 0.0))
        out[span.name] = (calls + 1, total + own)
    return out
