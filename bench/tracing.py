"""Spans around the calls into each library module, installed from outside.

The tracer replaces module attributes with timing wrappers, so the library
needs no change to be traced.  A hook whose attribute no longer exists is
reported as absent and skipped: a refactor that renames or batches a function
loses that layer's numbers, not the run.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass, field
from time import perf_counter

#: (module that holds the attribute, attribute, span name).  A function
#: imported into several modules is wrapped in each module that calls it.
HOOKS = (
    ("diftrans.cli", "ingest_csv", "pmf.ingest_csv"),
    ("diftrans.cli", "build_pmf", "pmf.build_pmf"),
    ("diftrans.cli", "ot_cost", "transport.ot_cost"),
    ("diftrans.estimators", "ot_cost", "transport.ot_cost"),
    ("diftrans.estimators", "placebo_cost_matrix", "estimators.placebo_cost_matrix"),
    ("diftrans.estimators", "equal_displacement_curves", "estimators.equal_displacement_curves"),
    ("diftrans.inference", "subsample_ci", "inference.subsample_ci"),
    ("diftrans.equilibrium", "invert_from_volume", "equilibrium.invert_from_volume"),
    ("diftrans.equilibrium", "gains_from_trade", "equilibrium.gains_from_trade"),
)


def _size(name: str, result):
    """Work size of a span read off its result: rows, K, cells, (draws, failed)."""
    try:
        if name == "pmf.ingest_csv":
            return len(result)
        if name == "pmf.build_pmf":
            return len(result.support)
        if name == "estimators.placebo_cost_matrix":
            return int(result.size)
        if name == "inference.subsample_ci":
            return len(result.draws), sum(1 for v in result.draws if math.isnan(v))
    except (AttributeError, TypeError):
        pass
    return None


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = math.nan
    size: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory while installed; `uninstall` restores every attribute."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span_name in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            span.size = _size(name, result)
            return result

        return traced


@dataclass
class Layer:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    sizes: list = field(default_factory=list)


def aggregate(spans: list[Span]) -> tuple[dict[str, Layer], float]:
    """Per-name totals with self time (duration minus child spans), and top-level time."""
    child_time = [0.0] * len(spans)
    top = 0.0
    for span in spans:
        if span.parent is None:
            top += span.seconds
        else:
            child_time[span.parent] += span.seconds
    layers: dict[str, Layer] = {}
    for span, children in zip(spans, child_time):
        layer = layers.setdefault(span.name, Layer())
        layer.calls += 1
        layer.seconds += span.seconds
        layer.self_seconds += span.seconds - children
        if span.size is not None:
            layer.sizes.append(span.size)
    return layers, top
