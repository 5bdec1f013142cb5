"""Timing shims around alcove's public functions, and the spans they record.

Spans live in memory as parallel lists (name, start, end, parent) and are
written out once, when the traced run ends.  A shim replaces the function
in every alcove module that bound it, so calls made inside the library are
traced too and each layer's self time follows from the nesting.
"""

from __future__ import annotations

import functools
import sys
import time

_now = time.perf_counter_ns

# (module, attribute, span name, kind, counter that adds up len(result) or yields)
SHIMS = (
    ("alcove.cartan", "build_root_datum", "cartan.build", "call", None),
    ("alcove.apartment", "iter_scaled_alcove_vertices", "apartment.walk", "gen", "apartment.vertices"),
    ("alcove.apartment", "fold_to_alcove", "apartment.fold_to_alcove", "call", None),
    ("alcove.apartment", "fold_pair", "apartment.fold_pair", "call", None),
    ("alcove.apartment", "vertex_type", "apartment.vertex_type", "call", None),
    ("alcove.apartment", "is_vertex", "apartment.is_vertex", "call", None),
    ("alcove.distance", "simplicial_distances", "distance.table", "call", "distance.nodes"),
    ("alcove.distance", "simplicial_distance", "distance.point", "call", None),
    ("alcove.distance", "wall_distance", "distance.wall", "call", None),
    ("alcove.distance", "iter_wall_ball_points", "distance.ball", "gen", None),
    ("alcove.growth", "ball_sum", "growth.ball_sum", "call", None),
    ("alcove.growth", "quotient_ball_sum", "growth.quotient_ball_sum", "call", None),
    ("alcove.growth", "cind_sandwich", "growth.cind_sandwich", "call", None),
    ("alcove.qpoly", "QPolynomial.__mul__", "qpoly.mul", "call", None),
    ("alcove.qpoly", "QPolynomial.evaluate", "qpoly.evaluate", "call", None),
    ("alcove.moyprasad", "is_concave", "moyprasad.is_concave", "call", None),
    ("alcove.moyprasad", "filtration_contains", "moyprasad.filtration_contains", "call", None),
)
FOLDS = ("apartment.fold_to_alcove", "apartment.fold_pair", "apartment.vertex_type")
GROWTH = ("growth.ball_sum", "growth.quotient_ball_sum", "growth.cind_sandwich")
CLI_SPAN = "cli.invoke"


class Tracer:
    """Span recorder shared by the shims and the benchmark's own CLI span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(_now())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _now()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for i, name in enumerate(self.names):
                out.write(f"{i},{self.parents[i]},{name},{self.starts[i]},{self.ends[i]}\n")


def _function_shim(fn, name: str, tracer: Tracer, counter: str | None):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter:
            tracer.count(counter, len(result))
        return result

    return shim


def _generator_shim(fn, name: str, tracer: Tracer, counter: str | None):
    """One span per resume, so the consumer's work between items is not charged."""

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        gen = fn(*args, **kwargs)
        tracer.count(name + ".calls")
        while True:
            index = tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            if counter:
                tracer.count(counter)
            yield item

    return shim


def install(tracer: Tracer) -> None:
    """Replace each shimmed function everywhere alcove bound it."""
    modules = [m for key, m in sys.modules.items() if key == "alcove" or key.startswith("alcove.")]
    for module_name, attr, span, kind, counter in SHIMS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            shim = _function_shim(original, span, tracer, counter)
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, key, shim)
            continue
        original = getattr(owner, attr)
        make = _generator_shim if kind == "gen" else _function_shim
        shim = make(original, span, tracer, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, shim)


class Totals:
    """Per-name totals over the spans index lo..hi-1."""

    def __init__(self, tracer: Tracer, lo: int, hi: int) -> None:
        names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
        covered: dict[int, int] = {}
        for i in range(lo, hi):
            if parents[i] >= 0:
                covered[parents[i]] = covered.get(parents[i], 0) + ends[i] - starts[i]
        self.inclusive: dict[str, int] = {}
        self.exclusive: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.outer_folds_ns = self.outer_folds = self.outer_qpoly_ns = 0
        for i in range(lo, hi):
            name = names[i]
            duration = ends[i] - starts[i]
            self.inclusive[name] = self.inclusive.get(name, 0) + duration
            self.exclusive[name] = self.exclusive.get(name, 0) + duration - covered.get(i, 0)
            self.calls[name] = self.calls.get(name, 0) + 1
            parent = names[parents[i]] if parents[i] >= 0 else ""
            if name in FOLDS and parent not in FOLDS:
                self.outer_folds_ns += duration
                self.outer_folds += 1
            if name.startswith("qpoly.") and not parent.startswith("qpoly."):
                self.outer_qpoly_ns += duration

    def time(self, *names: str) -> int:
        return sum(self.inclusive.get(n, 0) for n in names)

    def self_time(self, *names: str) -> int:
        return sum(self.exclusive.get(n, 0) for n in names)

    def n(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)
