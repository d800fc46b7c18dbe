"""In-memory call spans around the public functions of filtbem's layers.

Inside a ``tracing(tracer)`` block, every function named in a layer
module's ``__all__`` (and ``WoodburyInverse.apply``) is replaced by a
wrapper that records one span per call: layer, name, start, end and the
span that was open when the call began.  The wrapper is installed in every
``filtbem`` module namespace that bound the function, so a call one layer
makes into another (``calderon2d`` into ``assembly2d``, ``assembly2d`` into
``special``) is recorded under its parent span.  Leaving the block restores
the original functions.  Spans stay in memory; the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = ("mesh2d", "special", "assembly2d", "spectral", "excitation2d",
          "calderon2d", "compression", "solver")


@dataclass
class Span:
    sid: int
    parent: int          # sid of the enclosing span, -1 at top level
    layer: str
    name: str
    start: float
    end: float = float("nan")
    values: int = 0      # special layer: number of arguments evaluated

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one tracer per traced region."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1].sid if self._open else -1
            span = Span(len(self.spans), parent, layer, name, time.perf_counter())
            if layer == "special":
                span.values = int(np.size(args[0]))
            self.spans.append(span)
            self._open.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
        return traced

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.seconds
        return [span.seconds - c for span, c in zip(self.spans, child)]

    def total(self, name: str) -> float:
        """Summed duration of the spans with this name."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_total(self, *, layer: str | None = None, name: str | None = None) -> float:
        """Summed self time of the spans matching a layer and/or name."""
        return sum(t for s, t in zip(self.spans, self.self_seconds())
                   if (layer is None or s.layer == layer)
                   and (name is None or s.name == name))

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [vars(s).copy() for s in self.spans]


@contextmanager
def tracing(tracer: Tracer | None):
    """Record spans into ``tracer`` for the duration of the block (no-op for None)."""
    if tracer is None:
        yield
        return
    modules = [m for name, m in list(sys.modules.items())
               if name == "filtbem" or name.startswith("filtbem.")]
    patches = []
    for layer in LAYERS:
        mod = importlib.import_module(f"filtbem.{layer}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):
                continue
            wrapper = tracer.wrap(layer, name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)
    cls = importlib.import_module("filtbem.solver").WoodburyInverse
    patches.append((cls, "apply", cls.apply))
    cls.apply = tracer.wrap("solver", "WoodburyInverse.apply", cls.apply)
    try:
        yield
    finally:
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)
