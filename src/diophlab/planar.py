"""Product-structured subsets of the unit square.

The planar sets factor as (x-set) x (y-set): the first linear form
constrains x, the second constrains y.  Covers and premeasures therefore
reduce to products of one-dimensional quantities, and the core/annulus
covering walks the line's threshold pairs, counting each box product once.
The product-threshold region is the one genuinely two-dimensional object
and is measured by seeded Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx_sets import (AnnulusCoverCost, FracParams, _piece_counts,
                          annulus_cover_cost, check_thresholds, dist_nearest_int,
                          dyadic_annuli, simultaneous_set)
from .intervals import IntervalSet, check_s, lebesgue

_BLOCK = 1 << 20


@dataclass
class BoxSet:
    """Axis-aligned product of two interval sets inside [0,1]^2."""

    x_set: IntervalSet
    y_set: IntervalSet

    def area(self) -> float:
        """Area through the product identity."""
        return lebesgue(self.x_set) * lebesgue(self.y_set)

    def area_by_boxes(self) -> float:
        """Area by summing every component box, an independent summation
        route, in row blocks of at most max(_BLOCK, len(y_set)) boxes."""
        lx = self.x_set.his - self.x_set.los
        ly = self.y_set.his - self.y_set.los
        rows = max(_BLOCK // max(ly.size, 1), 1)
        return float(sum(np.sum(np.outer(lx[i:i + rows], ly))
                         for i in range(0, lx.size, rows)))

    def contains(self, x, y) -> np.ndarray:
        return self.x_set.contains(x) & self.y_set.contains(y)


def product_rectangle_set(p: FracParams, eta: float, xi: float) -> BoxSet:
    """Exact {(x,y) : ||a x + c|| < eta, ||b y + d|| < xi} as a box product,
    each factor a `simultaneous_set` with the other threshold at 1/2."""
    check_thresholds(eta, xi)
    if eta == 0.0 or xi == 0.0:
        return BoxSet(IntervalSet.empty(), IntervalSet.empty())
    return BoxSet(simultaneous_set(p, eta, 0.5), simultaneous_set(p, 0.5, xi))


@dataclass
class SquareCover:
    """Equal-side square cover of a box product."""

    squares: int
    mesh: float
    premeasure: float   # squares * mesh**(1+s), side-length convention
    bound: float        # a*b*max(eta/a, xi/b)/min(eta/a, xi/b)
    ratio: float


def _square_counts(p: FracParams, pairs) -> list[tuple[int, float]]:
    """(squares, mesh) of the box product at each pair (eta, xi) covered by
    squares of side mesh = min(eta/a, xi/b): the product of the piece counts
    of its factors (eta, 1/2) and (1/2, xi), all on one `_piece_counts`."""
    etas, xis = np.array(pairs, dtype=float).T
    meshes = np.minimum(etas / p.a, xis / p.b)
    live = meshes > 0.0
    half = np.full(np.count_nonzero(live), 0.5)
    counts = _piece_counts(p, np.concatenate([etas[live], half]),
                           np.concatenate([half, xis[live]]), np.tile(meshes[live], 2))
    squares = iter([int(x) * int(y) for x, y in zip(counts[:half.size], counts[half.size:])])
    return [(next(squares) if ok else 0, float(mesh)) for ok, mesh in zip(live, meshes)]


def cover_rectangles(p: FracParams, eta: float, xi: float, s: float) -> SquareCover:
    """Cover the box product by squares of side min(eta/a, xi/b)."""
    check_s(s)
    check_thresholds(eta, xi)
    squares, mesh = _square_counts(p, [(eta, xi)])[0]
    if not squares:
        return SquareCover(squares=0, mesh=mesh, premeasure=0.0, bound=0.0, ratio=0.0)
    bound = p.a * p.b * max(eta / p.a, xi / p.b) / mesh
    return SquareCover(squares=squares, mesh=mesh,
                       premeasure=squares * mesh ** (1.0 + s),
                       bound=bound,
                       ratio=squares / bound if bound > 0 else math.inf)


def planar_membership(p: FracParams, delta: float, x, y) -> np.ndarray:
    """Direct test of ||a x + c|| * ||b y + d|| < delta**2."""
    u = dist_nearest_int(p.a * np.asarray(x, dtype=float) + p.c)
    v = dist_nearest_int(p.b * np.asarray(y, dtype=float) + p.d)
    return u * v < delta * delta


def mc_planar_product_area(p: FracParams, delta: float, samples: int,
                           seed: int = 0) -> tuple[float, float]:
    """Monte Carlo area of the planar product-threshold set.

    Counter-based Philox streams keyed by (seed, block) make the result
    independent of block evaluation order; (estimate, stderr) returned.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    if not delta >= 0.0:
        raise ValueError(f"delta must be a nonnegative number, got {delta}")
    hits = 0
    done = 0
    block = 0
    while done < samples:
        m = min(_BLOCK, samples - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, block]))
        pts = rng.random((m, 2))
        hits += int(np.count_nonzero(planar_membership(p, delta, pts[:, 0], pts[:, 1])))
        done += m
        block += 1
    est = hits / samples
    return est, math.sqrt(max(est * (1.0 - est), 0.0) / samples)


def decompose_planar_product_set(p: FracParams, delta: float) -> AnnulusCoverCost:
    """Square counts of the box products over the core and the dyadic annulus
    pairs of `annulus_cover_cost`, all counted by one `_square_counts`
    without building a set; the annulus products cover supersets of the two
    one-sided remainders of the planar set."""
    return annulus_cover_cost(delta, lambda pairs: _square_counts(p, pairs))


def planar_premeasure(cost: AnnulusCoverCost, s: float) -> float:
    """Square-cover s-cost core + sum(first) + sum(second), s in (0, 1], at
    squares * side**(1+s) per pair, the convention of `cover_rectangles`."""
    check_s(s)
    return sum(sum(n * side ** (1.0 + s) for n, side in part)
               for part in ([cost.core], cost.first_far, cost.second_far))


def index_split(p: FracParams, delta: float) -> tuple[list[int], list[int]]:
    """J1 (2**2j <= b/a) and J2 (2**2j >= b/a) of the dyadic annulus indices,
    overlapping in at most one j.  No set is built, so any b will do."""
    ratio = p.b / p.a
    J = dyadic_annuli(delta)
    return [j for j in J if 4.0 ** j <= ratio], [j for j in J if 4.0 ** j >= ratio]


def planar_premeasure_bound(p: FracParams, delta: float, s: float) -> float:
    """b**(1-s) * delta**(2s), the product-set premeasure comparison value."""
    return p.b ** (1.0 - s) * delta ** (2.0 * s)
