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

from .approx_sets import (AnnulusCoverCost, FracParams, _factor_set,
                          annulus_cover_cost, dist_nearest_int, dyadic_annuli)
from .intervals import IntervalSet, lebesgue, mesh_piece_counts

_MC_BLOCK = 1 << 20


@dataclass
class BoxSet:
    """Axis-aligned product of two interval sets inside [0,1]^2."""

    x_set: IntervalSet
    y_set: IntervalSet

    def area(self) -> float:
        """Area through the product identity."""
        return lebesgue(self.x_set) * lebesgue(self.y_set)

    def area_by_boxes(self) -> float:
        """Area by summing every component box; independent summation route."""
        lx = self.x_set.his - self.x_set.los
        ly = self.y_set.his - self.y_set.los
        return float(np.sum(np.outer(lx, ly)))

    def contains(self, x, y) -> np.ndarray:
        return self.x_set.contains(x) & self.y_set.contains(y)


def product_rectangle_set(p: FracParams, eta: float, xi: float) -> BoxSet:
    """Exact {(x,y) : ||a x + c|| < eta, ||b y + d|| < xi} as a box product."""
    if eta <= 0.0 or xi <= 0.0:
        return BoxSet(IntervalSet.empty(), IntervalSet.empty())
    return BoxSet(_factor_set(p.a, p.c, eta), _factor_set(p.b, p.d, xi))


@dataclass
class SquareCover:
    """Equal-side square cover of a box product."""

    squares: int
    mesh: float
    premeasure: float   # squares * mesh**(1+s), side-length convention
    bound: float        # a*b*max(eta/a, xi/b)/min(eta/a, xi/b)
    ratio: float


def _square_count(p: FracParams, eta: float, xi: float) -> tuple[int, float]:
    """(squares, mesh) of the cover of the box product at (eta, xi) by
    squares of side mesh = min(eta/a, xi/b); no squares for an empty box."""
    box = product_rectangle_set(p, eta, xi)
    mesh = min(eta / p.a, xi / p.b)
    if mesh <= 0.0 or not len(box.x_set) or not len(box.y_set):
        return 0, mesh
    nx, ny = (int(mesh_piece_counts(f.los, f.his, mesh).sum())
              for f in (box.x_set, box.y_set))
    return nx * ny, mesh


def cover_rectangles(p: FracParams, eta: float, xi: float, s: float) -> SquareCover:
    """Cover the box product by squares of side min(eta/a, xi/b)."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s}")
    squares, mesh = _square_count(p, eta, xi)
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
        m = min(_MC_BLOCK, samples - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, block]))
        pts = rng.random((m, 2))
        hits += int(np.count_nonzero(planar_membership(p, delta, pts[:, 0], pts[:, 1])))
        done += m
        block += 1
    est = hits / samples
    return est, math.sqrt(max(est * (1.0 - est), 0.0) / samples)


def decompose_planar_product_set(p: FracParams, delta: float) -> AnnulusCoverCost:
    """Square counts of the box products over the core and the dyadic annulus
    pairs of `annulus_cover_cost`, each built once; the annulus products
    cover supersets of the two one-sided remainders of the planar set."""
    return annulus_cover_cost(delta, lambda eta, xi: _square_count(p, eta, xi))


def planar_premeasure(cost: AnnulusCoverCost, s: float) -> float:
    """Square-cover s-cost core + sum(first) + sum(second), s in (0, 1], at
    squares * side**(1+s) per pair, the convention of `cover_rectangles`."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s}")
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
