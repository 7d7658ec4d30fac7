"""Product-structured subsets of the unit square.

The planar sets factor as (x-set) x (y-set): the first linear form
constrains x, the second constrains y.  Covers and premeasures therefore
reduce to products of one-dimensional quantities; the product-threshold
region is the one genuinely two-dimensional object and is measured by
seeded Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx_sets import (FracParams, _factor_set, check_delta, dist_nearest_int,
                          dyadic_annuli)
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


def cover_rectangles(p: FracParams, eta: float, xi: float, s: float) -> SquareCover:
    """Cover the box product by squares of side min(eta/a, xi/b)."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s}")
    box = product_rectangle_set(p, eta, xi)
    mesh = min(eta / p.a, xi / p.b)
    if mesh <= 0.0 or not len(box.x_set) or not len(box.y_set):
        return SquareCover(squares=0, mesh=mesh, premeasure=0.0,
                           bound=0.0, ratio=0.0)
    nx, ny = (int(mesh_piece_counts(f, mesh).sum()) for f in (box.x_set, box.y_set))
    squares = nx * ny
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


@dataclass
class PlanarDecomposition:
    """Core/annulus covering of the planar product-threshold set.

    The core is the exact box product at (delta, delta).  The two
    remainders (first form far from integers, resp. second) are covered by
    box products over the dyadic annulus pairs (2^(j+1) delta, 2^-j delta);
    these unions are supersets, which is all the premeasure bounds need.
    No box is stored: `product_rectangle_set` builds any of them.
    """

    delta: float
    params: FracParams

    def annulus_indices(self) -> list[int]:
        return dyadic_annuli(self.delta)

    def index_split(self) -> tuple[list[int], list[int]]:
        """J1 (2^2j <= b/a) and J2 (2^2j >= b/a); they overlap in at most one j."""
        ratio = self.params.b / self.params.a
        J = self.annulus_indices()
        j1 = [j for j in J if 4.0 ** j <= ratio]
        j2 = [j for j in J if 4.0 ** j >= ratio]
        return j1, j2

    def premeasure(self, s: float) -> dict:
        """Square-cover s-costs of the core and each annulus, plus the total."""
        p, d = self.params, self.delta
        J = self.annulus_indices()
        core = cover_rectangles(p, d, d, s)
        first = [(j, cover_rectangles(p, 2.0 ** (j + 1) * d, 2.0 ** (-j) * d, s).premeasure)
                 for j in J]
        second = [(j, cover_rectangles(p, 2.0 ** (-j) * d, 2.0 ** (j + 1) * d, s).premeasure)
                  for j in J]
        total = core.premeasure + sum(v for _, v in first) + sum(v for _, v in second)
        return {"core": core.premeasure, "first_far": first,
                "second_far": second, "total": total}


def decompose_planar_product_set(p: FracParams, delta: float) -> PlanarDecomposition:
    """Core plus dyadic-annulus covering unions for delta in [2**-511, 1/2]."""
    check_delta(delta)
    return PlanarDecomposition(delta=delta, params=p)


def planar_premeasure_bound(p: FracParams, delta: float, s: float) -> float:
    """b**(1-s) * delta**(2s), the product-set premeasure comparison value."""
    return p.b ** (1.0 - s) * delta ** (2.0 * s)
