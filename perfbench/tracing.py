"""Per-layer spans and counts for the traced benchmark run.

`Tracer.install` wraps public functions of `stablespan` in every module
namespace that binds them (and a few methods on their classes), so a call
made from any module opens a span.  Each open span holds its layer name,
start time, parent (the span below it on the stack) and the request id;
when it closes, its self time (duration minus the time its child spans
cover) is added to its layer.  Spans are folded into these totals as they
close rather than kept one by one: the polynomial-arithmetic layer alone
opens hundreds of thousands of spans per second.

Counts are read from the objects the wrapped functions return, except call
counts, which count calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

ROOT_LAYER = "cli.other"


def _recognize_counts(counts: Counter, result) -> None:
    from stablespan.recognition import RemovePendant, RemoveTwin, ScaleVertex

    if result.accepted:
        steps = result.trace.steps
        counts["recognition.steps"] += len(steps)
        counts["recognition.pendant_steps"] += sum(isinstance(s, RemovePendant) for s in steps)
        counts["recognition.twin_steps"] += sum(isinstance(s, RemoveTwin) for s in steps)
        counts["recognition.scale_steps"] += sum(isinstance(s, ScaleVertex) for s in steps)
    elif result.obstruction.core is not None:
        counts["recognition.core_vertices"] += len(result.obstruction.core)


def _factor_counts(counts: Counter, result) -> None:
    counts["factorization.factors"] += len(result.factors)


def _falsify_counts(counts: Counter, result) -> None:
    from stablespan.probe import ZeroCertificate

    counts["probe.certified"] += isinstance(result, ZeroCertificate)


# (module, attribute, layer, hook reading counts from the return value).
# An attribute "Class.method" wraps the method on the class.  Layer None
# counts calls without opening a span, for functions whose time belongs to
# their caller.
TARGETS = (
    ("stablespan.formats", "load_graph_file", "formats.parse", None),
    ("stablespan.formats", "parse_graph_text", "formats.parse", None),
    ("stablespan.formats", "trace_to_dict", "formats.serialize", None),
    ("stablespan.formats", "tree_to_dict", "formats.serialize", None),
    ("stablespan.formats", "tree_to_text", "formats.serialize", None),
    ("stablespan.formats", "certificate_to_dict", "formats.serialize", None),
    ("stablespan.formats", "violation_to_dict", "formats.serialize", None),
    ("stablespan.graphs", "normalize_signs", "graphs.normalize", None),
    ("stablespan.graphs", "biconnected_components", "graphs.normalize", None),
    ("stablespan.recognition", "recognize", "recognition.recognize", _recognize_counts),
    ("stablespan.recognition", "is_distance_hereditary_oracle", "recognition.oracle", None),
    ("stablespan.factorization", "factor_from_trace", "factorization.factor", _factor_counts),
    ("stablespan.factorization", "verify_factorization", "factorization.verify", None),
    ("stablespan.rankwidth", "build_rank_decomposition", "rankwidth.build", None),
    ("stablespan.rankwidth", "cut_ranks", "rankwidth.cut_rank", None),
    ("stablespan.rankwidth", "tree_width", "rankwidth.cut_rank", None),
    ("stablespan.rankwidth", "cut_rank", "rankwidth.cut_rank", None),
    ("stablespan.rankwidth", "exhaustive_min_rankwidth", "rankwidth.exhaustive", None),
    ("stablespan.spanning", "vertex_span_poly", "spanning.enumerate", None),
    ("stablespan.spanning", "edge_span_poly", "spanning.enumerate", None),
    ("stablespan.spanning", "matrix_tree_check", "spanning.kirchhoff", None),
    ("stablespan.polynomials", "Polynomial.__mul__", "polynomials.arith", None),
    ("stablespan.polynomials", "Polynomial.__add__", "polynomials.arith", None),
    ("stablespan.polynomials", "Polynomial.__sub__", "polynomials.arith", None),
    ("stablespan.polynomials", "Polynomial.divexact", "polynomials.arith", None),
    ("stablespan.polynomials", "Polynomial.substitute_linear", "polynomials.arith", None),
    ("stablespan.polynomials", "Polynomial.eval_complex", "polynomials.eval", None),
    ("stablespan.polynomials", "Polynomial.restrict_univariate", "polynomials.eval", None),
    ("stablespan.polynomials", "Polynomial.restrict_gaussian", "polynomials.eval", None),
    ("stablespan.polynomials", "is_real_rooted", None, None),
    ("stablespan.probe", "falsify", "probe.falsify", _falsify_counts),
    ("stablespan.probe", "verify_certificate", "probe.verify", None),
    ("stablespan.probe", "verify_violation", "probe.verify", None),
    ("stablespan.cli", "build_parser", "cli.parser", None),
    ("stablespan.cli", "Report.to_json", "cli.report", None),
)

# Generator functions: their yields are counted; their time stays with the
# consumer (the enumeration layer).
YIELD_COUNTS = (("stablespan.spanning", "enumerate_spanning_trees", "spanning.trees"),)


class Tracer:
    """Collects layer self times, call counts and returned-object counts."""

    def __init__(self) -> None:
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.request_time = 0.0
        self.request_id = -1
        self._stack: list[list] = []  # open spans: [layer, start, child time, parent, request id]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, layer: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [layer, 0.0, 0.0, parent, self.request_id]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, frame: list) -> float:
        duration = perf_counter() - frame[1]
        self._stack.pop()
        self.self_time[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def take(self) -> dict:
        """Totals since the last call (or since the start), then zero them."""
        totals = {
            "self": Counter(self.self_time),
            "calls": Counter(self.calls),
            "counts": Counter(self.counts),
            "request": self.request_time,
        }
        for counter in (self.self_time, self.calls, self.counts):
            counter.clear()
        self.request_time = 0.0
        return totals

    def request(self, call, argv):
        """Run one request under a root span; its self time is `cli.other`."""
        self.request_id += 1
        frame = self._open(ROOT_LAYER)
        try:
            return call(argv)
        finally:
            self.request_time += self._close(frame)

    def _wrap(self, fn, name: str, layer: str | None, hook):
        calls, counts = self.calls, self.counts

        if layer is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            frame = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def _wrap_generator(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[counter] += 1
                yield item

        return counted

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever `stablespan` binds it."""
        functions = []  # (original, wrapper) pairs, patched in every module
        for module_name, attr, layer, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, name = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, name, self._wrap(getattr(cls, name), name, layer, hook))
            else:
                original = getattr(module, attr)
                functions.append((original, self._wrap(original, attr, layer, hook)))
        for module_name, attr, counter in YIELD_COUNTS:
            original = getattr(importlib.import_module(module_name), attr)
            functions.append((original, self._wrap_generator(original, counter)))
        modules = [m for name, m in list(sys.modules.items()) if name == "stablespan" or name.startswith("stablespan.")]
        for module in modules:
            for binding, value in list(vars(module).items()):
                for original, wrapper in functions:
                    if value is original:
                        self._patch(module, binding, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
