"""Exact algebra on finite unions of subintervals of [0,1].

Sets are kept in normal form: sorted (lo, hi) pairs in two float64
arrays, each with hi > lo, separated by positive gaps.  Every boolean
operation is one `intersect` sweep against a set or its complement, whose
pairs are already normal, or, for a union, a `normalize` of pieces already
at hand (its only use: every set is built in normal form), so endpoints
are never re-derived by arithmetic and boolean combinations propagate the
original endpoint values bit for bit.
Open/closed endpoints are not tracked: every set handled here differs from
its closure by finitely many points.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_CELL_CAP = 10 ** 8


class CellCapExceeded(RuntimeError):
    """Raised when a construction would enumerate too many cells."""


def cell_cap() -> int:
    """DIOPHLAB_CELL_CAP or its default, refused unless a finite number >= 1."""
    raw = os.environ.get("DIOPHLAB_CELL_CAP")
    try:
        cap = float(raw) if raw else DEFAULT_CELL_CAP
    except ValueError:
        cap = math.nan
    if not 1.0 <= cap < math.inf:
        raise ValueError(f"DIOPHLAB_CELL_CAP must be a finite number >= 1, got {raw!r}")
    return int(cap)


def check_size(n: int | float, what: str) -> None:
    """Refuse, before allocating, n entries above the `cell_cap`; a float n,
    a count int64 could wrap round, is named as an int when finite."""
    limit = cell_cap()
    if n > limit:
        n = int(n) if isinstance(n, float) and math.isfinite(n) else n
        raise CellCapExceeded(
            f"{n} {what} exceed the cap {limit} (set DIOPHLAB_CELL_CAP to raise)")


class IntervalSet:
    """Normalized finite union of subintervals of [0,1]."""

    __slots__ = ("los", "his")

    def __init__(self, los: np.ndarray, his: np.ndarray):
        # Trusted constructor: arrays must already be normalized.
        self.los = los
        self.his = his

    # -- construction -----------------------------------------------------

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(np.empty(0), np.empty(0))

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet(np.array([0.0]), np.array([1.0]))

    # -- basic introspection ----------------------------------------------

    def __len__(self) -> int:
        return len(self.los)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (len(self) == len(other)
                and bool(np.array_equal(self.los, other.los))
                and bool(np.array_equal(self.his, other.his)))

    def __repr__(self) -> str:
        if len(self) <= 4:
            body = ", ".join(f"({lo:.6g}, {hi:.6g})" for lo, hi in self.pairs())
        else:
            body = f"{len(self)} components, measure {lebesgue(self):.6g}"
        return f"IntervalSet[{body}]"

    def pairs(self) -> list[tuple[float, float]]:
        """Components as a list of (lo, hi) tuples."""
        return [(float(lo), float(hi)) for lo, hi in zip(self.los, self.his)]

    def is_empty(self) -> bool:
        return len(self.los) == 0

    def contains(self, x) -> np.ndarray:
        """Vectorized membership test (closed-interval convention)."""
        x = np.asarray(x, dtype=float)
        if self.is_empty():
            return np.zeros(x.shape, dtype=bool)
        idx = np.searchsorted(self.los, x, side="right") - 1
        ok = idx >= 0
        safe = np.where(ok, idx, 0)
        return ok & (x <= self.his[safe])

    def endpoint_distance(self, x) -> np.ndarray:
        """Distance from each x to the nearest component endpoint."""
        x = np.asarray(x, dtype=float)
        if self.is_empty():
            return np.full(x.shape, np.inf)
        pts = np.column_stack((self.los, self.his)).ravel()  # lo0 < hi0 < lo1 < ...
        idx = np.clip(np.searchsorted(pts, x), 1, len(pts) - 1)
        return np.minimum(np.abs(x - pts[idx - 1]), np.abs(x - pts[idx]))


def join_touching(los: np.ndarray, his: np.ndarray,
                  *tags: np.ndarray) -> tuple[np.ndarray, ...]:
    """Components (los, his, *tags) of non-empty pieces sorted by lo, his
    nondecreasing: a piece that touches or overlaps its predecessor (lo <=
    previous hi) joins it unless a tag differs.  A gather only on a join."""
    # starts[i]: piece i begins a component, and so piece i - 1 ends one
    starts = np.empty(los.size + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.greater(los[1:], his[:-1], out=starts[1:-1])
    for tag in tags:
        starts[1:-1] |= tag[1:] != tag[:-1]
    if np.count_nonzero(starts) == starts.size:
        return (los, his, *tags)
    return (los[starts[:-1]], his[starts[1:]], *(tag[starts[:-1]] for tag in tags))


def normalize(raw) -> IntervalSet:
    """Sort, clip to [0,1], drop empty pieces and join those that touch or
    overlap; every positive gap is kept.  It builds unions only: the
    product set, every window set and `intersect` emit normal form
    directly.

    Accepts a list of (lo, hi) pairs or a pair of arrays.  Reversed pairs
    (lo >= hi) are dropped rather than rejected, so degenerate input yields
    the empty set.
    """
    if isinstance(raw, tuple) and len(raw) == 2 and isinstance(raw[0], np.ndarray):
        los, his = raw
        los = np.asarray(los, dtype=float)
        his = np.asarray(his, dtype=float)
    else:
        arr = np.asarray(list(raw), dtype=float)
        if arr.size == 0:
            return IntervalSet.empty()
        los, his = arr[:, 0], arr[:, 1]
    los = np.clip(los, 0.0, 1.0)
    his = np.clip(his, 0.0, 1.0)
    keep = his > los
    if not keep.all():
        los, his = los[keep], his[keep]
    if los.size == 0:
        return IntervalSet.empty()
    if np.any(los[1:] < los[:-1]):  # construction paths mostly emit sorted
        order = np.argsort(los, kind="stable")
        los, his = los[order], his[order]
    # reach[i] = max(his[:i+1]); at the last piece of a component it is the
    # component's hi, since every earlier component ends below this one's lo
    reach = his if np.all(his[1:] >= his[:-1]) else np.maximum.accumulate(his)
    return IntervalSet(*join_touching(los, reach))


# -- boolean combinations ---------------------------------------------------


def intersect(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    """Set intersection by a sorted sweep, O(m + n + output).

    Both inputs are sorted and disjoint, so each component of x overlaps a
    contiguous run of components of y; output endpoints are max/min picks
    of the original endpoint values, never new arithmetic.  The pairs that
    overlap in more than a point are already in normal form: each has
    hi > lo, and consecutive ones are separated by a positive gap of x or
    of y, so they are returned as they are.  This is the one boolean sweep:
    difference and symmetric difference run it against a complement, and
    union is a `normalize`.
    """
    # only pairs that overlap in more than a point: y.his > x.lo, y.lo < x.hi
    start = np.searchsorted(y.his, x.los, side="right")
    stop = np.searchsorted(y.los, x.his, side="left")
    counts = np.maximum(stop - start, 0)
    total = int(counts.sum())
    if total == 0:
        return IntervalSet.empty()
    offsets = np.concatenate([[0], np.cumsum(counts)])
    pos = np.arange(total)
    which_x = np.repeat(np.arange(len(x)), counts)
    which_y = pos - np.repeat(offsets[:-1], counts) + np.repeat(start, counts)
    lo = np.maximum(x.los[which_x], y.los[which_y])
    hi = np.minimum(x.his[which_x], y.his[which_y])
    return IntervalSet(lo, hi)


def complement(x: IntervalSet) -> IntervalSet:
    """[0,1] minus x; its endpoints are those of x, plus 0 and 1."""
    los = np.concatenate([[0.0], x.his])
    his = np.concatenate([x.los, [1.0]])
    keep = his > los
    return IntervalSet(los[keep], his[keep])


def difference(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    """x minus y: one intersect sweep of x against the complement of y."""
    return intersect(x, complement(y))


_combine = difference  # perfbench times the difference sweep under this name


def union(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    return union_many([x, y])


def symmetric_difference(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    return union_many([difference(x, y), difference(y, x)])


def union_many(sets: list[IntervalSet]) -> IntervalSet:
    """Union of many sets in one normalization pass."""
    if not sets:
        return IntervalSet.empty()
    los = np.concatenate([s.los for s in sets])
    his = np.concatenate([s.his for s in sets])
    return normalize((los, his))


# -- measures and covers ----------------------------------------------------


def lebesgue(x: IntervalSet) -> float:
    """Total length of the set."""
    return float(np.sum(x.his - x.los))


def check_s(s: float) -> None:
    """Refuse an exponent s outside (0, 1], the range of the s-premeasures."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s}")


def premeasure_upper(x: IntervalSet, s: float, mesh: float) -> float:
    """Upper bound on the Hausdorff s-premeasure from the equal-mesh cover.

    Each component of length len is covered by ceil(len/mesh) pieces of
    length mesh; the returned value is sum(count) * (mesh/2)**s, using the
    radius = length/2 convention.  Valid as an upper bound for any cover
    radius above mesh/2.
    """
    check_s(s)
    if not 0.0 < mesh < math.inf:
        raise ValueError(f"mesh must be positive and finite, got {mesh}")
    with np.errstate(over="ignore"):
        total = mesh_piece_counts(x.los, x.his, mesh).sum()
    check_pieces(total, mesh)
    return float(total * (mesh / 2.0) ** s)


def _check_dyadic(scale: float) -> None:
    mant, _ = math.frexp(scale)
    if not (0.0 < scale <= 1.0 and mant == 0.5):
        raise ValueError(f"scale must be 2**-k for integer k >= 0, got {scale}")


def box_count(x: IntervalSet, scale: float) -> int:
    """Number of dyadic boxes [j*scale, (j+1)*scale] meeting the set.

    A box counts when its open interior overlaps a component, which keeps
    box_count(x, scale) * scale >= lebesgue(x) without inflating counts at
    touching endpoints.
    """
    _check_dyadic(scale)
    if x.is_empty():
        return 0
    jlo = np.floor(x.los / scale)
    jhi = np.ceil(x.his / scale) - 1.0
    # components are sorted but distinct components can land in one box
    reach = np.maximum.accumulate(jhi)
    starts = np.empty(jlo.size, dtype=bool)
    starts[0] = True
    starts[1:] = jlo[1:] > reach[:-1]
    first = np.flatnonzero(starts)
    group_hi = np.maximum.reduceat(jhi, first)
    return int(np.sum(group_hi - jlo[first] + 1.0))


@dataclass
class Cover:
    """Equal-length cover of an interval set by `count` pieces of common
    nominal length `mesh` (radius mesh/2)."""

    mesh: float
    piece_los: np.ndarray = field(repr=False)
    piece_his: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.piece_los)

    def covers(self, x: IntervalSet) -> bool:
        """Exact containment check of x in the union of the pieces."""
        return difference(x, normalize((self.piece_los, self.piece_his))).is_empty()


def mesh_piece_counts(los: np.ndarray, his: np.ndarray, mesh: float) -> np.ndarray:
    """Pieces of length mesh per interval [lo, hi], max(ceil(len/mesh), 1),
    as floats; at a subnormal mesh a count or sum may pass the largest
    float, so callers sum under np.errstate(over="ignore") and refuse the
    inf total with `check_pieces`."""
    return np.maximum(np.ceil((his - los) / mesh), 1.0)


def check_pieces(totals, meshes) -> None:
    """Refuse a piece total, totals[i] at meshes[i], that overflowed to inf."""
    over = np.asarray(meshes)[np.asarray(totals) == math.inf]
    if over.size:
        raise ValueError(f"mesh {over[0]} is too fine: its piece count overflows a float")


def mesh_cover(x: IntervalSet, mesh: float) -> Cover:
    """Cover each component by ceil(len/mesh) pieces of length mesh.

    Piece endpoints are laid out from each component's own lo, and the last
    piece is stretched to the component's hi when rounding left it a few
    ulp short, so the union provably contains the component.
    """
    if not mesh > 0.0:
        raise ValueError("mesh must be positive")
    with np.errstate(over="ignore"):
        counts = mesh_piece_counts(x.los, x.his, mesh)
        check_size(counts.sum(), f"cover pieces of mesh {mesh}")
    counts = counts.astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total = int(offsets[-1])
    idx = np.arange(total) - np.repeat(offsets[:-1], counts)
    base = np.repeat(x.los, counts)
    los = base + idx * mesh
    his = base + (idx + 1) * mesh
    last = offsets[1:] - 1
    his[last] = np.maximum(his[last], x.his)
    return Cover(mesh=mesh, piece_los=los, piece_his=his)


def to_json_pairs(x: IntervalSet) -> list[list[float]]:
    """JSON form: [[lo, hi], ...]."""
    return [[float(lo), float(hi)] for lo, hi in zip(x.los, x.his)]
