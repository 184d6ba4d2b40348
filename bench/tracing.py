"""Span tracing of heliobench's public functions, applied from outside.

`Tracer.install` replaces each function in TRACED, at every module attribute
of the imported heliobench package that refers to it, by a wrapper that
records a span: name, start, end, parent span and op id. Patching every
import site matters because the modules call each other through names bound
at import time (`heliobench.benchmark.category_values`,
`heliobench.histogram.category_values`, `heliobench.infogain.information_gain`
and so on). `Tracer.uninstall` restores the originals.

Spans are kept in memory while `Tracer.op` is set and cost one branch when it
is None. A function that no longer exists is skipped; the metrics that derive
from it are then reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Span name -> (defining module, public function).
TRACED = {
    "corpus.load": ("heliobench.corpus", "load_corpus"),
    "corpus.parse": ("heliobench.corpus", "parse_corpus"),
    "corpus.category_values": ("heliobench.corpus", "category_values"),
    "corpus.validate": ("heliobench.corpus", "validate_corpus"),
    "histogram.bin_spec": ("heliobench.histogram", "pooled_bin_spec"),
    "histogram.build": ("heliobench.histogram", "build_histogram"),
    "infogain.gains": ("heliobench.infogain", "gains_against_reference"),
    "infogain.pair": ("heliobench.infogain", "information_gain"),
    "benchmark.run": ("heliobench.benchmark", "run_benchmark"),
    "benchmark.top_k": ("heliobench.benchmark", "top_k"),
    "heliomap.layout": ("heliobench.heliomap", "layout_map"),
    "heliomap.render": ("heliobench.heliomap", "render_svg"),
    "cli.main": ("heliobench.cli", "main"),
}

LAYERS = ("cli", "corpus", "histogram", "infogain", "benchmark", "heliomap")

NAME, START, END, PARENT, OP, INFO = range(6)


def _build_info(fn):
    # Identifies the histogram by its inputs: the values, the spec and alpha.
    signature = inspect.signature(fn)

    def info(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values, spec, alpha = bound.arguments.values()
        values = values.tolist() if hasattr(values, "tolist") else values
        return (tuple(values), spec, alpha)

    return info


# Span name -> factory, given the traced function, of a function
# (args, kwargs, result) -> the span's info.
INFO_HOOKS = {
    "histogram.bin_spec": lambda fn: lambda args, kwargs, result: result,
    "histogram.build": _build_info,
    "corpus.load": lambda fn: lambda args, kwargs, result: len(result),
    "heliomap.render": lambda fn: lambda args, kwargs, result: len(result),
}


class Tracer:
    """Records spans of the traced functions while `op` is not None."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "heliobench" or name.startswith("heliobench.")]
        for span_name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            self.present.add(span_name)
            hook = INFO_HOOKS.get(span_name)
            wrapper = self._wrap(span_name, original, hook(original) if hook else None)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, info):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                try:
                    span[INFO] = info(args, kwargs, result)
                except (TypeError, ValueError):
                    span[INFO] = None
            return result

        return traced


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total and self seconds, distinct infos, info sum.

    Self time is a span's duration minus its direct children's durations.
    Distinct infos are counted per scope: one CLI invocation (the enclosing
    `cli.main` span, since each invocation is its own process), otherwise
    the whole span list.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    roots = []  # a span is appended after its parent, so the parent's root is known
    for i, span in enumerate(spans):
        roots.append(i if span[PARENT] < 0 else roots[span[PARENT]])
    scopes = [root if spans[root][NAME] == "cli.main" else -1 for root in roots]

    stats: dict[str, dict] = {}
    for i, span in enumerate(spans):
        s = stats.setdefault(span[NAME], {"calls": 0, "total": 0.0, "self": 0.0,
                                          "distinct": set(), "info_sum": 0})
        duration = span[END] - span[START]
        s["calls"] += 1
        s["total"] += duration
        s["self"] += duration - child[i]
        if span[INFO] is not None:
            s["distinct"].add((scopes[i], span[INFO]))
            if isinstance(span[INFO], int):
                s["info_sum"] += span[INFO]
    return stats


def root_seconds(spans: list[list]) -> float:
    """Seconds covered by top-level spans; equal to the sum of all self times."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def layer_self_seconds(stats: dict) -> dict[str, float]:
    return {layer: sum(s["self"] for name, s in stats.items() if name.startswith(layer + "."))
            for layer in LAYERS}
