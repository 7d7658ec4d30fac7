"""Exact solution sets of the simultaneous and product closeness conditions.

For parameters (a, b, c, d) with 1 <= a <= b this module constructs, as
interval sets over [0,1]:

  simultaneous_set(eta, xi)   {x : ||a x + c|| < eta and ||b x + d|| < xi}
  product_set(delta)          {x : ||a x + c|| * ||b x + d|| < delta**2}

together with the split of the product set into a simultaneous core and
two one-sided remainders, equal-mesh cover counts against the counting
bound, and a multi-scale dyadic cover whose s-cost realizes the product-set
premeasure bound; its core/annulus walk also serves the planar covers.
Cover counts build no interval set: the simultaneous-set components are
the overlaps of the near window pairs, which `_window_runs` enumerates for
the set, for the counts and for `lattice.count_near_pairs`.

The product set is solved cell by cell: [0,1] is cut at every half-integer
crossing of both linear forms, on each cell both nearest integers are
constant and the condition is a pair of quadratic inequalities solved in
closed form with the cancellation-safe root formula.  Cells are solved in
cache-sized chunks, so the solve's working memory is small; the sorted
array of cell cuts is still built whole, O(a + b) for b up to the cell cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .intervals import (MERGE_EPS, IntervalSet, check_size, complement,
                        intersect, mesh_piece_counts, normalize, union_many)
from .sequences import log_weight, require_finite

_CHUNK = 1 << 14


@dataclass(frozen=True)
class FracParams:
    """Coefficients (a, b, c, d) of the two linear forms, with 1 <= a <= b."""

    a: float
    b: float
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        require_finite(self, ("a", "b", "c", "d"))
        if not (1.0 <= self.a <= self.b):
            raise ValueError(f"need 1 <= a <= b, got a={self.a}, b={self.b}")

    def weight(self) -> float:
        return log_weight(self.a, self.b)

    def count_bound(self, eta: float) -> float:
        """(b*eta + a) * L, the counting bound: on the near pairs and the
        simultaneous-set cover pieces at thresholds (eta, xi), and on the
        Erdos-Turan right-hand side at eta = delta."""
        return (self.b * eta + self.a) * self.weight()


def dist_nearest_int(x):
    """Distance to the nearest integer, in [0, 1/2].  Vectorized."""
    x = np.asarray(x, dtype=float)
    out = np.abs(x - np.round(x))
    return float(out) if out.ndim == 0 else out


# -- simultaneous condition ---------------------------------------------------


def _index_range(coef: float, shift: float) -> tuple[int, int]:
    """First and last index k of the windows, checked against the cap."""
    lo, hi = math.floor(shift), math.ceil(coef + shift)
    check_size(hi - lo + 1, "windows")
    return lo, hi


def _windows(coef: float, shift: float, eps: float,
             k: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The windows ((k - shift) -+ eps)/coef, unclipped, over the integers k
    in [floor(shift), ceil(coef + shift)] or over a float array k."""
    if k is None:
        lo, hi = _index_range(coef, shift)
        k = np.arange(lo, hi + 1, dtype=float)
    centers = k - shift
    return (centers - eps) / coef, (centers + eps) / coef


def _linear_solution(coef: float, shift: float, eps: float,
                     k: np.ndarray | None = None) -> IntervalSet:
    """{x in [0,1] : ||coef*x + shift|| < eps} for eps < 1/2.

    The set is the union of the windows ((k - shift) -+ eps)/coef over the
    integers k in [floor(shift), ceil(coef + shift)].  A sorted float array
    `k` restricts the union to those windows, with the same arithmetic.
    """
    return normalize(_windows(coef, shift, eps, k))


def _factor_set(coef: float, shift: float, eps: float) -> IntervalSet:
    """{x in [0,1] : ||coef*x + shift|| < eps} for eps > 0.

    A threshold at or above 1/2 makes the condition vacuous (the distance
    never exceeds 1/2), so the set is all of [0,1].  NaN is rejected.
    """
    if math.isnan(eps):
        raise ValueError(f"threshold must be a number, got {eps}")
    return IntervalSet.full() if eps >= 0.5 else _linear_solution(coef, shift, eps)


def _window_runs(coef: float, shift: float, eps: float, los: np.ndarray,
                 his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index k of the windows of `_linear_solution` meeting each [lo, hi].

    The window ((k - shift) -+ eps)/coef meets [lo, hi] only if
    lo*coef + shift - eps < k < hi*coef + shift + eps.  Each run is widened
    by 2: a window that ends exactly at lo or hi can still decide, through
    MERGE_EPS fusion, whether that endpoint survives, and the bounds are
    rounded.  Runs are clipped to the full index range and may overlap.
    """
    first = np.maximum(np.floor(los * coef + shift - eps) - 2.0, math.floor(shift))
    last = np.minimum(np.ceil(his * coef + shift + eps) + 2.0,
                      math.ceil(coef + shift))
    return first, last


def _expand_runs(first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integers first..last of each run, concatenated as floats, and run lengths."""
    counts = np.maximum(last - first + 1.0, 0.0)
    # check the float total: cast to int64 first, a huge run would wrap
    # round to a negative length
    total = counts.sum()
    check_size(int(total) if np.isfinite(total) else total, "windows")
    counts = counts.astype(np.int64)
    starts = np.cumsum(counts) - counts
    ks = np.arange(counts.sum(), dtype=float)
    ks -= np.repeat(starts - first, counts)
    return ks, counts


def simultaneous_set(p: FracParams, eta: float, xi: float) -> IntervalSet:
    """Exact set where both forms are within (eta, xi) of integers.

    With both thresholds below 1/2 the work is O(a + output): the a-factor
    is built whole, and of the b-factor only the windows near one of its
    components, which are the near lattice pairs.  The arithmetic is that of
    the full b-factor, so the result is the same array for array; a MERGE_EPS
    fusion chain cut short at the edge of a run moves only endpoints outside
    the a-component, which the intersection drops.  With one threshold at or
    above 1/2 the set is the other factor, O(b) for the b-factor.
    """
    if eta <= 0.0 or xi <= 0.0:
        return IntervalSet.empty()
    x_part = _factor_set(p.a, p.c, eta)
    if eta >= 0.5 or not xi < 0.5:   # a vacuous threshold, or a NaN xi
        y_part = _factor_set(p.b, p.d, xi)
        return y_part if eta >= 0.5 else x_part
    first, last = _window_runs(p.b, p.d, xi, x_part.los, x_part.his)
    # start each run past the runs before it, so the indices are distinct
    first[1:] = np.maximum(first[1:], np.maximum.accumulate(last)[:-1] + 1.0)
    near, _ = _expand_runs(first, last)
    return intersect(x_part, _linear_solution(p.b, p.d, xi, near))


# -- product condition: cell decomposition ------------------------------------


def _cell_bounds(p: FracParams) -> np.ndarray:
    """Sorted cut points of [0,1] where either nearest integer switches.

    Both factors' candidate indices are checked against the cap together,
    before any array is built.  Their sum bounds the cell count from above:
    the last index of each factor cuts beyond 1, so the inner cuts number
    at most the sum minus two, and the cells one more than that.
    """
    ranges = [(coef, shift, math.floor(shift - 0.5), math.ceil(coef + shift + 0.5))
              for coef, shift in ((p.a, p.c), (p.b, p.d))]
    check_size(sum(hi - lo + 1 for _, _, lo, hi in ranges), "cell cuts")
    cuts = [np.array([0.0])]
    for coef, shift, lo, hi in ranges:
        k = np.arange(lo, hi + 1, dtype=float)
        x = (k + 0.5 - shift) / coef
        cuts.append(x[(x > 0.0) & (x < 1.0)])
    cuts.append(np.array([1.0]))
    # the cuts are two sorted runs, which the stable sort (a merge sort)
    # joins in linear time; then drop the cuts both forms share
    x = np.sort(np.concatenate(cuts), kind="stable")
    return x[np.append(True, x[1:] != x[:-1])]


def _solve_chunk(p: FracParams, d2: float, lo: np.ndarray, hi: np.ndarray):
    """Solve |u v| < d2 on cells [lo, hi], u = a x + c - p0, v = b x + d - q0.

    On a cell u v < d2 holds on one interval [lo1, hi1], and u v <= -d2 on
    a subinterval that splits it into a left and a right piece.  Returns
    piece arrays (plo, phi) of twice the cell count, interleaved: entries
    2i and 2i + 1 are the left and right piece of cell i.  Entries with
    phi <= plo are empty and to be discarded by the caller; the others are
    in x order, as the cells are.  The work runs in place on a few buffers
    of the cell count, so a chunk of cells stays in cache.
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    A = a * b
    n = lo.size
    mid = lo + hi
    mid *= 0.5
    em = np.multiply(a, mid)
    em += c
    np.round(em, out=em)
    np.subtract(c, em, out=em)          # u(x) = a x + em
    en = np.multiply(b, mid, out=mid)
    en += d
    np.round(en, out=en)
    np.subtract(d, en, out=en)          # v(x) = b x + en
    B = np.multiply(a, en)
    tmp = np.multiply(b, em)
    B += tmp
    C0 = np.multiply(em, en, out=tmp)
    below = np.subtract(C0, d2, out=em)  # u*v < d2 holds between its roots
    above = np.add(C0, d2, out=en)       # u*v <= -d2 holds between its roots
    qf, bad = np.empty(n), np.empty(n, dtype=bool)

    def roots(const):
        """Roots of A x^2 + B x + const into (qf, const), by the
        cancellation-safe formula; `bad` marks the cells without two real
        roots, whose values are junk."""
        np.subtract(np.multiply(B, B, out=qf),
                    np.multiply(4.0 * A, const, out=tmp), out=qf)
        np.greater(qf, 0.0, out=bad)
        np.logical_not(bad, out=bad)
        np.sqrt(qf, out=qf)
        np.add(B, np.copysign(qf, B, out=qf), out=qf)
        np.multiply(-0.5, qf, out=qf)
        np.divide(const, qf, out=const)
        np.divide(qf, A, out=qf)

    plo, phi = np.empty(2 * n), np.empty(2 * n)
    lo1, hi1 = plo[0::2], phi[1::2]
    with np.errstate(divide="ignore", invalid="ignore"):
        roots(below)
        np.maximum(lo, np.minimum(qf, below, out=lo1), out=lo1)
        np.minimum(hi, np.maximum(qf, below, out=hi1), out=hi1)
        lo1[bad] = 1.0
        hi1[bad] = 0.0
        roots(above)
        excl = np.minimum(qf, above, out=tmp)
        excl[bad] = np.inf
        np.minimum(hi1, excl, out=phi[0::2])
        np.maximum(qf, above, out=excl)
        excl[bad] = np.inf
        np.maximum(lo1, excl, out=plo[1::2])
    return plo, phi


def _product_pieces(p: FracParams,
                    delta: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream solution pieces of the product condition, one chunk of cells
    at a time; the pieces are non-empty and in x order, within and across
    chunks."""
    bounds = _cell_bounds(p)
    ncells = len(bounds) - 1
    d2 = delta * delta
    for i0 in range(0, ncells, _CHUNK):
        i1 = min(i0 + _CHUNK, ncells)
        plo, phi = _solve_chunk(p, d2, bounds[i0:i1], bounds[i0 + 1:i1 + 1])
        # about half the pieces are empty, in no pattern a branch predictor
        # learns; indices and take() gather them without branching
        keep = np.flatnonzero(phi > plo)
        yield plo.take(keep), phi.take(keep)


def check_delta(delta: float) -> None:
    """Refuse a delta outside [2**-511, 1/2], where the decompositions and
    covers are defined: below it delta**2, the product threshold, is not a
    normal float, and the powers of 2 over the dyadic annuli overflow."""
    if not 2.0 ** -511 <= delta <= 0.5:
        raise ValueError(f"delta must be in [2**-511, 1/2], got {delta}")


def product_set(p: FracParams, delta: float) -> IntervalSet:
    """Exact set where the product of the two distances is below delta**2.

    For delta > 1/2 the product never reaches delta**2 apart from a finite
    set of points, so the result is all of [0,1]; delta = 0 gives the empty
    set, and `check_delta` refuses delta in (0, 2**-511).
    """
    if not delta >= 0.0:
        raise ValueError(f"delta must be a nonnegative number, got {delta}")
    if delta == 0.0:
        return IntervalSet.empty()
    if delta > 0.5:
        return IntervalSet.full()
    check_delta(delta)
    los, his = zip(*_product_pieces(p, delta))
    return normalize((np.concatenate(los), np.concatenate(his)))


@dataclass
class ProductDecomposition:
    """Split of the product set into a core and two one-sided remainders.

    simultaneous : both distances below delta (equals simultaneous_set(delta, delta))
    first_far    : first distance >= delta, product below delta**2
    second_far   : second distance >= delta, product below delta**2
    """

    simultaneous: IntervalSet
    first_far: IntervalSet
    second_far: IntervalSet

    def reunion(self) -> IntervalSet:
        return union_many([self.simultaneous, self.first_far, self.second_far])


def decompose_product_set(p: FracParams, delta: float) -> ProductDecomposition:
    """Core/remainder split of E = product_set(delta), for delta in (0, 1/2].

    With A the O(a) windows where u = ||a x + c|| < delta, and the core
    simultaneous_set(delta, delta) where also v = ||b x + d|| < delta:

      first_far  = E minus A
      second_far = (E intersect A) minus core

    A point of E with v >= delta has u < delta**2 / v <= delta, so second_far
    needs no set built from the b-form.  E is solved once.  Each `intersect`
    takes the smaller set first, because its sweep runs over that argument.
    """
    check_delta(delta)
    e = product_set(p, delta)
    near = _factor_set(p.a, p.c, delta)
    core = simultaneous_set(p, delta, delta)
    return ProductDecomposition(
        simultaneous=core,
        first_far=intersect(complement(near), e),
        second_far=intersect(complement(core), intersect(near, e)),
    )


def product_membership(p: FracParams, delta: float, x):
    """Direct pointwise test of the product condition.  Vectorized."""
    u = dist_nearest_int(p.a * np.asarray(x, dtype=float) + p.c)
    v = dist_nearest_int(p.b * np.asarray(x, dtype=float) + p.d)
    out = u * v < delta * delta
    return bool(out) if np.ndim(out) == 0 else out


# -- covers -------------------------------------------------------------------


def _clipped(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Windows clipped to [0,1], the empty ones dropped, as `normalize` does."""
    lo, hi = np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)
    keep = hi > lo
    return lo[keep], hi[keep]


def _pair_pieces(p: FracParams, eta: float, xi: float, mesh: float) -> float | None:
    """Cover pieces of the simultaneous set for eta, xi < 1/2, or None when
    two windows of one factor fuse under MERGE_EPS.

    Without fusion the components are the overlaps of the near window pairs,
    [max(a_lo, b_lo), min(a_hi, b_hi)] with hi > lo: `intersect`'s picks of
    the same floats.  The b-windows are checked only within a run: a fusion
    across runs moves only endpoints outside the a-windows, as in
    `simultaneous_set`.
    """
    alo, ahi = _clipped(*_windows(p.a, p.c, eta))
    if np.any(alo[1:] <= ahi[:-1] + MERGE_EPS):
        return None
    k, runs = _expand_runs(*_window_runs(p.b, p.d, xi, alo, ahi))
    blo, bhi = _windows(p.b, p.d, xi, k)
    if np.any((k[1:] == k[:-1] + 1.0) & (blo[1:] <= bhi[:-1] + MERGE_EPS)):
        return None
    lo = np.maximum(np.repeat(alo, runs), blo, out=blo)
    hi = np.minimum(np.repeat(ahi, runs), bhi, out=bhi)
    keep = hi > lo
    return mesh_piece_counts(lo[keep], hi[keep], mesh).sum()


def _factor_pieces(coef: float, shift: float, eps: float, mesh: float) -> float | None:
    """Cover pieces of `_linear_solution(coef, shift, eps)`, counted over
    chunks of _CHUNK windows, or None when two windows fuse under MERGE_EPS."""
    first, last = _index_range(coef, shift)
    pieces, reach = 0.0, -math.inf
    for k0 in range(first, last + 1, _CHUNK):
        k = np.arange(k0, min(k0 + _CHUNK, last + 1), dtype=float)
        lo, hi = _clipped(*_windows(coef, shift, eps, k))
        ends = np.concatenate(([reach], hi))   # each window's predecessor's hi
        if np.any(lo <= ends[:-1] + MERGE_EPS):
            return None
        reach = ends[-1]
        pieces += mesh_piece_counts(lo, hi, mesh).sum()
    return pieces


def cover_simultaneous(p: FracParams, eta: float, xi: float) -> tuple[int, float]:
    """(pieces, mesh) of the equal-mesh cover of the simultaneous set.

    The mesh is min(eta/a, xi/b), and a component of length len takes
    max(ceil(len/mesh), 1) pieces; callers compare the sum with
    `FracParams.count_bound`.  No piece, and no interval set, is formed:
    with both thresholds below 1/2 the components are the overlaps of the
    near window pairs, O(a + pairs); with one at or above 1/2 they are the
    other factor's windows, O(b) time in cache-sized chunks.  Windows of
    one factor that fuse under MERGE_EPS (a threshold within about 1e-12*b
    of 1/2), or a set that is all of [0,1], are counted on
    `simultaneous_set`, as `intervals.mesh_cover` lays them out.
    """
    if not (0.0 < eta < 1.0 and 0.0 < xi < 1.0):
        raise ValueError("cover needs 0 < eta, xi < 1")
    mesh = min(eta / p.a, xi / p.b)
    if not mesh > 0.0:
        raise ValueError("mesh must be positive")
    pieces = None
    if eta < 0.5 and xi < 0.5:
        pieces = _pair_pieces(p, eta, xi, mesh)
    elif eta < 0.5:
        pieces = _factor_pieces(p.a, p.c, eta, mesh)
    elif xi < 0.5:
        pieces = _factor_pieces(p.b, p.d, xi, mesh)
    if pieces is None:   # fused windows, or all of [0,1]
        f = simultaneous_set(p, eta, xi)
        pieces = mesh_piece_counts(f.los, f.his, mesh).sum()
    return int(pieces), mesh


def dyadic_annuli(delta: float) -> list[int]:
    """Indices j >= 0 with 2**(j+1) * delta < 1."""
    out = []
    j = 0
    while 2.0 ** (j + 1) * delta < 1.0:
        out.append(j)
        j += 1
    return out


@dataclass
class AnnulusCoverCost:
    """Per-scale (pieces, mesh) counts of a multi-scale cover of a product set."""

    core: tuple[int, float]                 # (pieces, mesh) covering the core
    first_far: list[tuple[int, float]]      # per dyadic annulus
    second_far: list[tuple[int, float]]

    def premeasure(self, s: float) -> float:
        """Total s-cost sum(count * (mesh/2)**s) of all pieces, s in (0, 1]."""
        if not 0.0 < s <= 1.0:
            raise ValueError(f"s must be in (0, 1], got {s}")
        total = self.core[0] * (self.core[1] / 2.0) ** s
        for count, mesh in self.first_far + self.second_far:
            total += count * (mesh / 2.0) ** s
        return float(total)


def annulus_cover_cost(delta: float, count) -> AnnulusCoverCost:
    """`count(eta, xi) -> (pieces, mesh)` once per threshold pair of the
    core (delta, delta) and the dyadic annuli, for delta in [2**-511, 1/2].

    A point of the product set outside the core has one distance in
    [2**j delta, 2**(j+1) delta), so the other is below 2**-j delta: the
    pair (2**(j+1) delta, 2**-j delta) covers annulus j on the first side,
    its mirror on the second.
    """
    check_delta(delta)
    core = count(delta, delta)
    first, second = [], []
    for j in dyadic_annuli(delta):
        big = 2.0 ** (j + 1) * delta
        small = 2.0 ** (-j) * delta
        first.append(count(big, small))
        second.append(count(small, big))
    return AnnulusCoverCost(core=core, first_far=first, second_far=second)


def product_set_cover_cost(p: FracParams, delta: float) -> AnnulusCoverCost:
    """Multi-scale cover of the product set via dyadic annuli.

    Each pair of `annulus_cover_cost` is counted by `cover_simultaneous`,
    at its own mesh min(eta/a, xi/b).  A single global mesh cannot
    reproduce the two-term premeasure bound; the per-annulus meshes are
    what make the bound hold with an absolute constant.

    No cover piece and no interval set is built.  Each annulus costs
    O(a + pairs), the near window pairs, and O(b) in cache-sized chunks for
    the last one when its larger threshold reaches 1/2.  An annulus whose
    windows fuse under MERGE_EPS, a threshold within about 1e-12*b of 1/2,
    is counted on `simultaneous_set` instead.
    """
    return annulus_cover_cost(delta, lambda eta, xi: cover_simultaneous(p, eta, xi))


# -- displayed bound values ---------------------------------------------------


def premeasure_bound(p: FracParams, delta: float, s: float) -> float:
    """b*(delta^2/b)^s * L + a*(delta^2/(a b))^(s/2) * L."""
    L = p.weight()
    d2 = delta * delta
    return p.b * (d2 / p.b) ** s * L + p.a * (d2 / (p.a * p.b)) ** (s / 2.0) * L


def measure_bound(p: FracParams, delta: float) -> float:
    """delta^2 * L * log(1/delta) + sqrt(a/b) * delta * L (refined log)."""
    from .sequences import refined_log
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    L = p.weight()
    return (delta * delta * L * refined_log(1.0 / delta)
            + math.sqrt(p.a / p.b) * delta * L)
