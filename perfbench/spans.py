"""In-memory span recorder that wraps diophlab functions from outside.

Nothing here edits the package source.  `install` replaces module
attributes with timing wrappers, in every diophlab module that holds the
same function object, so a name brought in with `from ... import` is
wrapped where it is looked up.  `verify.CHECKS` holds its generators and
evaluators directly, so those entries are swapped too.

Each span records its name, start, end and parent.  Parents are tracked
per thread (verify evaluates instances on a thread pool), spans stay in a
list until the unit ends, and a span's self time is its duration minus the
durations of its children, which run on the same thread and cannot overlap.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import math
import threading
import time
from collections import Counter, defaultdict

MODULES = ("diophlab", "diophlab.intervals", "diophlab.approx_sets",
           "diophlab.lattice", "diophlab.dimension", "diophlab.planar",
           "diophlab.verify", "diophlab.cli")

# (module under diophlab, function, span name): the wrapper replaces the
# function in every module of MODULES that holds it
LAYERS = [
    ("cli", "_emit", "cli.emit"),
    ("intervals", "to_json_pairs", "intervals.to_json_pairs"),
    ("intervals", "normalize", "intervals.normalize"),
    ("intervals", "intersect", "intervals.intersect"),
    ("intervals", "mesh_cover", "intervals.mesh_cover"),
    ("intervals", "_combine", "intervals.combine"),
    ("approx_sets", "product_set", "approx.product_set"),
    ("approx_sets", "simultaneous_set", "approx.simultaneous_set"),
    ("approx_sets", "cover_simultaneous", "approx.cover_simultaneous"),
    ("approx_sets", "product_set_cover_cost", "approx.cover_cost"),
    ("approx_sets", "decompose_product_set", "approx.decompose"),
    ("dimension", "estimate_box_dimension", "dimension.box_dimension"),
    ("dimension", "compute_tau", "dimension.compute_tau"),
    ("lattice", "count_near_pairs", "lattice.count_near_pairs"),
    ("lattice", "count_near_pairs_naive", "lattice.count_near_pairs_naive"),
    ("lattice", "exp_sums", "lattice.exp_sums"),
    ("lattice", "discrepancy", "lattice.discrepancy"),
    ("lattice", "erdos_turan_rhs", "lattice.erdos_turan_rhs"),
    ("planar", "product_rectangle_set", "planar"),
    ("planar", "cover_rectangles", "planar"),
    ("planar", "mc_planar_product_area", "planar"),
    ("planar", "decompose_planar_product_set", "planar"),
    ("planar", "planar_premeasure_bound", "planar"),
    ("verify", "serialize_report", "verify.serialize"),
]
# wrapped in dimension only: product_set and decompose_product_set solve
# through the same generator inside their own spans
STREAM = "approx.stream_pieces"
# every verify check's generator runs in this span, its evaluator in
# "verify.<check-id>"
GENERATE = "verify.generate"
ROOT = "trace.other"


class Tracer:
    """Spans and counters of one traced unit."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, name: str, token: tuple[int, int | None, float]) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent))

    def count(self, **incs: int) -> None:
        with self._lock:
            self.counts.update(incs)

    def wrap(self, fn, name: str, after=None):
        """Time every call of fn as a span; `after(args, result)` counts work."""
        def wrapper(*args, **kwargs):
            token = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(name, token)
            if after is not None:
                after(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, fn, name: str):
        """Time only the work done inside each step of a generator."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                token = self.begin()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(name, token)
                yield item
        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over all spans of that name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[name] += (end - start) - child_time[sid]
        return dict(out)


def cells(p) -> int:
    """Solver cells for FracParams p: cuts of both forms inside (0, 1), plus one.

    Computed from (a, b, c, d) alone; coincident cuts of the two forms are
    counted twice, so this can exceed the solver's own count by the number
    of coincidences.
    """
    def cuts(coef, shift):
        return max(math.ceil(coef + shift - 0.5) - math.floor(shift - 0.5) - 1, 0)
    return cuts(p.a, p.c) + cuts(p.b, p.d) + 1


def _pieces_in(raw) -> int:
    if isinstance(raw, tuple) and len(raw) == 2 and hasattr(raw[0], "__len__"):
        return len(raw[0])
    return len(raw)


def _counters(tracer: Tracer) -> dict:
    """Work counts recorded after a call, by span name: f(args, result)."""
    def normalize(args, result):
        tracer.count(**{"intervals.normalize_calls": 1,
                        "intervals.normalize_pieces_in": _pieces_in(args[0]),
                        "intervals.normalize_components_out": len(result)})

    def product_set(args, result):
        tracer.count(**{"approx.product_set_calls": 1, "approx.cells": cells(args[0])})

    return {
        "intervals.normalize": normalize,
        "intervals.mesh_cover":
            lambda a, r: tracer.count(**{"intervals.mesh_cover_pieces": r.count}),
        "approx.product_set": product_set,
        "approx.cover_simultaneous":
            lambda a, r: tracer.count(**{"approx.cover_simultaneous_calls": 1}),
        "lattice.erdos_turan_rhs":
            lambda a, r: tracer.count(**{"lattice.erdos_turan_rhs_calls": 1}),
    }


def install(tracer: Tracer):
    """Wrap every layer function; returns a function that undoes it."""
    mods = [importlib.import_module(m) for m in MODULES]
    approx, dimension, verify = (importlib.import_module(f"diophlab.{m}")
                                 for m in ("approx_sets", "dimension", "verify"))
    counters = _counters(tracer)
    saved: list[tuple[object, str, object]] = []

    def patch(fn, wrapper, where=mods):
        for mod in where:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    for module, attr, name in LAYERS:
        fn = getattr(importlib.import_module(f"diophlab.{module}"), attr)
        patch(fn, tracer.wrap(fn, name, counters.get(name)))
    patch(approx._product_pieces,
          tracer.wrap_generator(approx._product_pieces, STREAM), where=[dimension])

    saved_checks = dict(verify.CHECKS)
    for cid, cdef in saved_checks.items():
        verify.CHECKS[cid] = dataclasses.replace(
            cdef, generate=tracer.wrap(cdef.generate, GENERATE),
            evaluate=tracer.wrap(cdef.evaluate, f"verify.{cid}"))

    def restore():
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)
        verify.CHECKS.clear()
        verify.CHECKS.update(saved_checks)

    return restore
