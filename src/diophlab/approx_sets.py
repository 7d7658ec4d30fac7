"""Exact solution sets of the simultaneous and product closeness conditions.

For parameters (a, b, c, d) with 1 <= a <= b this module constructs, as
interval sets over [0,1]:

  simultaneous_set(eta, xi)   {x : ||a x + c|| < eta and ||b x + d|| < xi}
  product_set(delta)          {x : ||a x + c|| * ||b x + d|| < delta**2}

together with the split of the product set into a simultaneous core and
two one-sided remainders, equal-mesh cover counts against the counting
bound, and a multi-scale dyadic cover whose s-cost realizes the product-set
premeasure bound; its core/annulus walk also serves the planar covers.

The simultaneous-set components are the overlaps of the near window pairs,
joined where they touch or overlap in floats; a one-factor window set is
the simultaneous set with the other threshold at the vacuous 1/2.  One
chunked walk, `_walk`, builds every window set and serves the cover and
square counts and `lattice.count_near_pairs`: O(a + pairs) time, memory
bounded by `_CHUNK` beyond the O(a) a-windows, at every threshold.  A
multi-scale cover's 2J + 1 threshold pairs, J about log2(1/delta), share
one a-walk and one b-walk, each piece tagged with its pair.

The product set is solved cell by cell: [0,1] is cut at every half-integer
crossing of both linear forms, on each cell both nearest integers are
constant and the condition is a pair of quadratic inequalities solved in
closed form with the cancellation-safe root formula.  A cell is a near pair
at threshold 1/2, so the same walk yields the cells, with their integers,
chunk by chunk: O(a + b) time, memory bounded by `_CHUNK` beyond the O(a)
a-cells.

Both sets come out of one join, `_joined`: it joins touching pieces chunk
by chunk and holds each chunk back until the next shows whether its last
component continues, so the set is the concatenation of its chunks and is
never normalized again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .intervals import (IntervalSet, cell_cap, check_mesh, check_pieces, check_s,
                        check_size, complement, intersect, join_touching, mesh_piece_counts,
                        union_many)
from .sequences import log_weight, refined_log, require_finite

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


def check_thresholds(eta: float, xi: float) -> None:
    """Refuse a NaN, infinite or negative threshold; a threshold of 0 gives
    the empty set, and one at or above 1/2 a vacuous condition."""
    if not (math.isfinite(eta) and math.isfinite(xi)):
        raise ValueError(f"thresholds must be numbers, not inf or NaN: {eta}, {xi}")
    if eta < 0.0 or xi < 0.0:
        raise ValueError(f"thresholds must be nonnegative, got {eta}, {xi}")


def _index_range(coef: float, shift: float) -> tuple[int, int]:
    """The integers k, first and last, whose windows can meet [0, 1]."""
    return math.floor(shift), math.ceil(coef + shift)


def _windows(coef: float, shift: float, eps: float,
             k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The windows ((k - shift) -+ eps)/coef, unclipped, k as floats."""
    centers = k - shift
    return (centers - eps) / coef, (centers + eps) / coef


def _runs(coef: float, shift: float, eps, los: np.ndarray,
          his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs (first, counts) of window indices k, as floats, that can
    meet the intervals [los, his], one run per interval, at eps (or eps[i]).

    The window k meets [lo, hi] only if lo*coef + shift - eps < k <
    hi*coef + shift + eps.  Those bounds are rounded, and so are the window
    endpoints they stand for, so each run is widened by 2 to keep every
    window whose float overlap with [lo, hi] is not empty.  Runs are clipped
    to the full index range and may overlap.
    """
    k0, k1 = _index_range(coef, shift)
    first = np.maximum(np.floor(los * coef + shift - eps) - 2.0, k0)
    last = np.minimum(np.ceil(his * coef + shift + eps) + 2.0, k1)
    return first, np.maximum(last - first + 1.0, 0.0)


def _walk(first: np.ndarray, counts: np.ndarray,
          *values: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The pairs of the runs, chunks (k, *values) of at most _CHUNK pairs,
    run by run: k as floats, and each per-run array of `values` repeated
    over the run's pairs, so no consumer gathers through a row index; one
    empty chunk if there is no pair.  O(runs) set-up, then a dozen numpy
    calls per chunk and one per value."""
    # pair positions: run r holds [starts[r], ends[r]); a chunk is the
    # positions [g0, g1) and the runs that meet them, cut to them
    ends = np.cumsum(counts)
    starts = ends - counts
    total = counts.sum()
    for g0 in range(0, max(int(total), 1), _CHUNK):
        g1 = min(g0 + _CHUNK, total)
        r0, r1 = np.searchsorted(ends, g0, side="right"), np.searchsorted(starts, g1)
        n = (np.minimum(ends[r0:r1], g1) - np.maximum(starts[r0:r1], g0)).astype(np.int64)
        k = np.arange(g0, g1, dtype=float) - np.repeat(starts[r0:r1] - first[r0:r1], n)
        yield (k, *(np.repeat(v[r0:r1], n) for v in values))


def _near_runs(coef: float, shift: float, eps: np.ndarray, los: np.ndarray, his: np.ndarray,
               tags: np.ndarray, *values: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The near pairs (k, *values) of each interval [los[i], his[i]] and the
    windows at eps[i], walked by `_walk`; a threshold of inf is the one
    window (-inf, inf).  The intervals of a tag are consecutive, and each
    tag's walk is capped on its own float total, in tag order, before any
    index is built."""
    first, counts = _runs(coef, shift, eps, los, his)
    counts[eps == np.inf] = 1.0
    if counts.sum() > cell_cap():
        # some walk may be over the cap: refuse the first, in tag order
        cuts = np.flatnonzero(np.diff(tags, prepend=-1))
        for i, j in zip(cuts, [*cuts[1:], tags.size]):
            check_size(counts[i:j].sum(), "windows")
    return _walk(first, counts, *values)


def _joined(chunks: Iterable[tuple[np.ndarray, ...]]) -> Iterator[tuple[np.ndarray, ...]]:
    """The components of a stream of chunks (lo, hi) or (lo, hi, tag).

    A tag's pieces are consecutive, non-empty, sorted by lo with his
    nondecreasing; pieces of two tags never join.  Touching pieces are
    joined within each chunk by `join_touching`, and each chunk is held
    back until the next non-empty one shows whether its last component
    continues there, overwriting that one's first element.  At least one
    chunk, maybe empty, is yielded when one comes in, as from every walk.
    """
    held = None
    for chunk in chunks:
        lo, hi, *tag = chunk = join_touching(*chunk)
        if held is not None and held[0].size:
            if lo.size == 0:
                continue
            if lo[0] <= held[1][-1] and all(t[0] == h[-1] for t, h in zip(tag, held[2:])):
                lo[0] = held[0][-1]
                held = tuple(a[:-1] for a in held)
            if held[0].size:
                yield held
        held = chunk
    if held is not None:
        yield held


def _clipped(coef: float, shift: float, eps: np.ndarray, los: np.ndarray,
             his: np.ndarray, tags: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The windows at eps[tag] clipped to the intervals [los, his] of that
    tag, sorted by tag, with hi > lo: chunks (lo, hi, tag) in x order within
    each interval; a threshold at or above 1/2 is vacuous, one window."""
    eps = np.where(eps < 0.5, eps, np.inf)
    for k, lo, hi, tag in _near_runs(coef, shift, eps[tags], los, his, tags, los, his, tags):
        wlo, whi = _windows(coef, shift, eps.take(tag), k)
        np.maximum(lo, wlo, out=lo)
        np.minimum(hi, whi, out=hi)
        keep = hi > lo
        yield lo[keep], hi[keep], tag[keep]


def _overlaps(p: FracParams, etas, xis) -> Iterator[tuple[np.ndarray, ...]]:
    """The overlaps [max(a_lo, b_lo), min(a_hi, b_hi)] with hi > lo of the
    near window pairs of each threshold pair (etas[i], xis[i]) > 0: chunks
    (lo, hi, tag i), pairs in order, x order within one.  `_joined`, they
    are each simultaneous set's components: `intersect`'s picks of the same
    floats.  A pair's a-set is its a-windows `_clipped` to [0, 1], joined;
    its overlaps its b-windows `_clipped` to the a-set.  Every a-walk has one
    index range, so one a-walk and one b-walk serve a group of pairs whose
    a-windows fit in _CHUNK (or one pair): O(a + pairs) time per group, O(a
    + _CHUNK) memory."""
    etas, xis = np.asarray(etas, dtype=float), np.asarray(xis, dtype=float)
    k0, k1 = _index_range(p.a, p.c)
    bounds, used = [], math.inf
    for i, size in enumerate(np.where(etas < 0.5, k1 - k0 + 1.0, 1.0)):
        if used + size > _CHUNK:
            bounds.append(i)
            used = 0.0
        used += size
    for g0, g1 in zip(bounds, [*bounds[1:], etas.size]):
        whole = np.zeros(g1 - g0), np.ones(g1 - g0), np.arange(g0, g1, dtype=np.int32)
        a_set = _joined(_clipped(p.a, p.c, etas, *whole))
        # unbound, the a-set lives as long as its b-walk, its chunks no longer
        yield from _clipped(p.b, p.d, xis, *[np.concatenate(a) for a in zip(*a_set)])


def simultaneous_set(p: FracParams, eta: float, xi: float) -> IntervalSet:
    """Exact set where both forms are within (eta, xi) of integers: the
    `_overlaps` `_joined`, O(a + output) time, O(b) with eta >= 1/2.
    A threshold of 0 gives the empty set; a NaN or negative one is refused.
    """
    check_thresholds(eta, xi)
    if eta == 0.0 or xi == 0.0:
        return IntervalSet.empty()
    chunks = [(lo, hi) for lo, hi, _ in _joined(_overlaps(p, [eta], [xi]))]
    return IntervalSet(*map(np.concatenate, zip(*chunks)))


# -- product condition: cell decomposition ------------------------------------


def _cells(p: FracParams) -> Iterator[tuple[np.ndarray, ...]]:
    """The cells of [0,1] on which both nearest integers are constant:
    chunks (lo, hi, k, q) in x order, k and q those integers as floats.

    A cell is a near pair at threshold 1/2, walked by `_walk`: the overlap
    with hi > lo of the a-cell [(k - 1/2 - c)/a, (k + 1/2 - c)/a], clipped
    to [0, 1], and the b-cell of q.  The cap counts the cell cuts of both
    factors, about a + b + 6, which is at least the cells solved.  The
    walk's pairs, up to about b + 7a, are not capped: most of them are the
    rounding margin of `_runs`, dropped by hi > lo, and the chunk bounds
    their memory.
    """
    check_size(sum(math.ceil(coef + shift + 0.5) - math.floor(shift - 0.5) + 1
                   for coef, shift in ((p.a, p.c), (p.b, p.d))), "cell cuts")
    k0, k1 = _index_range(p.a, p.c)
    k = np.arange(k0, k1 + 1, dtype=float)
    los = np.maximum((k - 0.5 - p.c) / p.a, 0.0)
    his = np.minimum((k + 0.5 - p.c) / p.a, 1.0)
    keep = his > los
    k, los, his = k[keep], los[keep], his[keep]
    for q, lo, hi, k in _walk(*_runs(p.b, p.d, 0.5, los, his), los, his, k):
        lo = np.maximum(lo, (q - 0.5 - p.d) / p.b)
        hi = np.minimum(hi, (q + 0.5 - p.d) / p.b)
        keep = hi > lo
        yield lo[keep], hi[keep], k[keep], q[keep]


def _solve_chunk(p: FracParams, d2: float, lo: np.ndarray, hi: np.ndarray,
                 k: np.ndarray, q: np.ndarray):
    """Solve |u v| < d2 on cells [lo, hi], u = a x + c - k, v = b x + d - q.

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
    em = np.subtract(c, k)              # u(x) = a x + em
    en = np.subtract(d, q)              # v(x) = b x + en
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
    """Stream solution pieces of the product condition, one chunk of
    `_cells` at a time; the pieces are non-empty and in x order, within and
    across chunks.  The stream owns delta's domain, 0 or a finite delta >=
    2**-511, where delta**2 is a normal float: one empty chunk at 0, the
    piece [0, 1] above 1/2, where the product reaches delta**2 at finitely
    many points only, and a ValueError for any other delta."""
    if not (delta == 0.0 or 2.0 ** -511 <= delta < math.inf):
        raise ValueError(f"delta must be in [2**-511, inf) or be 0, got {delta}")
    if delta == 0.0 or delta > 0.5:
        yield (np.empty(0), np.empty(0)) if delta == 0.0 else (np.zeros(1), np.ones(1))
        return
    d2 = delta * delta
    for lo, hi, k, q in _cells(p):
        plo, phi = _solve_chunk(p, d2, lo, hi, k, q)
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

    The concatenation of `_product_pieces` `_joined` where they touch, at
    cell cuts: the pieces are non-empty, inside [0, 1] and in x order, so
    that is the normal form, and no `normalize` runs.  Peak memory is about
    twice the output: the chunks and their concatenation.  The stream owns
    delta's domain: all of [0, 1] above 1/2, the empty set at 0.
    """
    return IntervalSet(*map(np.concatenate, zip(*_joined(_product_pieces(p, delta)))))


@dataclass
class ProductDecomposition:
    """Split of the product set into a core and two one-sided remainders.

    simultaneous : both distances below delta (equals simultaneous_set(delta, delta))
    first_far    : first distance >= delta, product below delta**2
    second_far   : second distance >= delta, product below delta**2
    product      : E = product_set(delta) itself, the set the three parts split
    """

    simultaneous: IntervalSet
    first_far: IntervalSet
    second_far: IntervalSet
    product: IntervalSet

    def reunion(self) -> IntervalSet:
        return union_many([self.simultaneous, self.first_far, self.second_far])


def decompose_product_set(p: FracParams, delta: float) -> ProductDecomposition:
    """Core/remainder split of E = product_set(delta), for delta in (0, 1/2].

    With A = simultaneous_set(delta, 1/2), where u = ||a x + c|| < delta,
    and the core simultaneous_set(delta, delta) where also v < delta:

      first_far  = E minus A
      second_far = (E intersect A) minus core

    A point of E with v >= delta has u < delta**2 / v <= delta, so second_far
    needs no set built from the b-form.  E is solved once.  Each `intersect`
    takes the smaller set first, because its sweep runs over that argument.
    """
    check_delta(delta)
    e = product_set(p, delta)
    near = simultaneous_set(p, delta, 0.5)
    core = simultaneous_set(p, delta, delta)
    return ProductDecomposition(
        simultaneous=core,
        first_far=intersect(complement(near), e),
        second_far=intersect(complement(core), intersect(near, e)),
        product=e,
    )


def product_membership(p: FracParams, delta: float, x, y=None):
    """Direct test of ||a x + c|| * ||b y + d|| < delta**2, y = x on the line."""
    u = dist_nearest_int(p.a * np.asarray(x, dtype=float) + p.c)
    v = dist_nearest_int(p.b * np.asarray(x if y is None else y, dtype=float) + p.d)
    out = u * v < delta * delta
    return bool(out) if np.ndim(out) == 0 else out


# -- covers -------------------------------------------------------------------


def _cover_scales(p: FracParams, pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(etas, xis, meshes) of a line or plane cover's pairs (eta, xi), each
    checked by `check_thresholds`, its mesh min(eta/a, xi/b) by `check_mesh`."""
    for eta, xi in pairs:
        check_thresholds(eta, xi)
    etas, xis = np.array(pairs, dtype=float).T
    meshes = np.minimum(etas / p.a, xis / p.b)
    check_mesh(meshes)
    return etas, xis, meshes


def _piece_counts(p: FracParams, etas, xis, meshes: np.ndarray) -> np.ndarray:
    """Pieces of length meshes[i] covering the simultaneous set of each
    threshold pair i, all positive: max(ceil(len/mesh), 1) per component of
    the `_joined` `_overlaps`, summed per pair, as floats.  An inf is refused
    at the chunk that makes it: pairs come in order, so all before are done."""
    total = np.zeros(len(etas))
    with np.errstate(over="ignore"):
        for lo, hi, tag in _joined(_overlaps(p, etas, xis)):
            # each pair's components are one slice of the chunk, in pair order
            pairs = range(tag[0], tag[-1] + 1) if tag.size else range(0)
            cuts = np.searchsorted(tag, [*pairs, len(etas)])
            for i, c0, c1 in zip(pairs, cuts, cuts[1:]):
                total[i] += mesh_piece_counts(lo[c0:c1], hi[c0:c1], meshes[i]).sum()
            check_pieces(total[pairs.start:pairs.stop], meshes[pairs.start:pairs.stop])
    return total


def cover_simultaneous(p: FracParams, eta: float, xi: float) -> tuple[int, float]:
    """(pieces, mesh) of the equal-mesh cover of the simultaneous set.

    The mesh is min(eta/a, xi/b), positive by `_cover_scales` (a threshold of
    0 is refused, one at or above 1/2 is vacuous), and a component of length
    len takes max(ceil(len/mesh), 1) pieces; callers compare the sum with
    `FracParams.count_bound`.  The one-pair case of `_cover_counts`:
    O(a + pairs walked) time, O(b) with eta >= 1/2, O(a + _CHUNK) memory.
    """
    return _cover_counts(p, [(eta, xi)])[0]


def _cover_counts(p: FracParams, pairs) -> list[tuple[int, float]]:
    """(pieces, mesh) of `cover_simultaneous` for each threshold pair, all
    checked by `_cover_scales` and counted by `_piece_counts`: no piece or
    interval set is built, O(a + pairs walked) time per group of `_overlaps`."""
    etas, xis, meshes = _cover_scales(p, pairs)
    counts = _piece_counts(p, etas, xis, meshes)
    return [(int(n), float(mesh)) for n, mesh in zip(counts, meshes)]


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
        check_s(s)
        total = 0.0
        for count, mesh in [self.core] + self.first_far + self.second_far:
            total += count * (mesh / 2.0) ** s
        return float(total)


def annulus_cover_cost(delta: float, count) -> AnnulusCoverCost:
    """`count(pairs) -> [(pieces, mesh), ...]` once, on every threshold pair
    (eta, xi) of the core (delta, delta) and the dyadic annuli, in the order
    core, then first and second side of each j, for delta in
    [2**-511, 1/2].

    A point of the product set outside the core has one distance in
    [2**j delta, 2**(j+1) delta), so the other is below 2**-j delta: the
    pair (2**(j+1) delta, 2**-j delta) covers annulus j on the first side,
    its mirror on the second.
    """
    check_delta(delta)
    pairs = [(delta, delta)]
    for j in dyadic_annuli(delta):
        big = 2.0 ** (j + 1) * delta
        small = 2.0 ** (-j) * delta
        pairs += [(big, small), (small, big)]
    core, *annuli = count(pairs)
    return AnnulusCoverCost(core=core, first_far=annuli[0::2], second_far=annuli[1::2])


def product_set_cover_cost(p: FracParams, delta: float) -> AnnulusCoverCost:
    """Multi-scale cover of the product set via dyadic annuli.

    The 2J + 1 pairs of `annulus_cover_cost`, J about log2(1/delta), are
    counted as `cover_simultaneous` counts them, each at its own mesh
    min(eta/a, xi/b).  A single global mesh cannot reproduce the two-term
    premeasure bound; the per-annulus meshes are what make the bound hold
    with an absolute constant.

    No cover piece and no interval set is built.  The pairs share one
    a-walk and one b-walk while their a-windows, about a + 2 per pair, fit
    in one _CHUNK: O(a*J + pairs walked) time, O(b) for a last annulus
    whose larger threshold reaches 1/2, and O(a + _CHUNK) memory.
    """
    return annulus_cover_cost(delta, lambda pairs: _cover_counts(p, pairs))


# -- displayed bound values ---------------------------------------------------


def premeasure_bound(p: FracParams, delta: float, s: float) -> float:
    """b*(delta^2/b)^s * L + a*(delta^2/(a b))^(s/2) * L."""
    L = p.weight()
    d2 = delta * delta
    return p.b * (d2 / p.b) ** s * L + p.a * (d2 / (p.a * p.b)) ** (s / 2.0) * L


def measure_bound(p: FracParams, delta: float) -> float:
    """delta^2 * L * log(1/delta) + sqrt(a/b) * delta * L (refined log)."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    L = p.weight()
    bound = delta * delta * L * refined_log(1.0 / delta) + math.sqrt(p.a / p.b) * delta * L
    if not math.isfinite(bound):
        raise ValueError(f"the measure bound at delta {delta} is not a finite number")
    return bound
