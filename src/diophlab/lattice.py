"""Lattice-point counting, exponential sums and Erdos-Turan discrepancy.

The central count is the number of integer pairs (p, q) in the standard
window whose fractions (p-c)/a and (q-d)/b lie within eta/a + xi/b of each
other, i.e. whose windows ((p-c) -+ eta)/a and ((q-d) -+ xi)/b overlap: the
components of the simultaneous set.  The fast count takes its candidates
from `approx_sets._near_runs`, on the chunked window-pair walk that also
builds `simultaneous_set`, counts its covers and yields the product-set
cells, and tests each with the naive double loop's float predicate, so the
two agree bit for bit.  The Erdos-Turan right-hand side has one arithmetic:
the scalar is the table's one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx_sets import (FracParams, _index_range, _near_runs, _windows,
                          check_thresholds)
from .intervals import check_size


def count_near_pairs(p: FracParams, eta: float, xi: float) -> int:
    """Exact count of nearly coincident fraction pairs.

    For each admissible p the candidate q are the b-windows that can meet
    the unclipped a-window of p, walked in chunks by `_near_runs`; each is
    tested with the strict inequality |(p-c)/a - (q-d)/b| < eta/a + xi/b.
    O(a + pairs) time and O(a) memory beyond the chunk; the cap counts the
    a-windows and the pairs walked, about 2*b*eta + 7*a, not b.  A NaN,
    infinite or negative threshold is rejected.
    """
    check_thresholds(eta, xi)
    plo, phi = _index_range(p.a, p.c)
    check_size(phi - plo + 1, "windows")
    k = np.arange(plo, phi + 1, dtype=float)
    theta = eta / p.a + xi / p.b
    x = (k - p.c) / p.a
    hits = 0
    for y, x_p in _near_runs(p.b, p.d, np.broadcast_to(xi, k.shape), *_windows(p.a, p.c, eta, k),
                             np.broadcast_to(0, k.shape), x):
        y -= p.d
        y /= p.b
        # (p-c)/a once per p, and |y - x| = |x - y|: the naive loop's bits, in place
        y -= x_p
        hits += int(np.count_nonzero(np.abs(y, out=y) < theta))
    return hits


def count_near_pairs_naive(p: FracParams, eta: float, xi: float) -> int:
    """Oracle: full (p, q) double loop over the window.  O(a*b)."""
    plo, phi = _index_range(p.a, p.c)
    qlo, qhi = _index_range(p.b, p.d)
    check_size((phi - plo + 1) * (qhi - qlo + 1), "(p, q) pairs")
    theta = eta / p.a + xi / p.b
    pv = np.arange(plo, phi + 1, dtype=float)[:, None]
    qv = np.arange(qlo, qhi + 1, dtype=float)[None, :]
    hit = np.abs((pv - p.c) / p.a - (qv - p.d) / p.b) < theta
    return int(np.count_nonzero(hit))


def count_integer_bound(p: FracParams, eta: float, xi: float) -> tuple[int, float]:
    """(count, bound): the exact near-pair count and the integer-case bound
    b*eta + gcd(a, b), for integer a, b; callers take the ratio count/bound."""
    if p.a != int(p.a) or p.b != int(p.b):
        raise ValueError("integer bound needs integer a, b")
    return count_near_pairs(p, eta, xi), p.b * eta + math.gcd(int(p.a), int(p.b))


def large_regime(p: FracParams, eta: float, xi: float) -> bool:
    """Whether eta + (a/b)*xi exceeds 1/2 (the crude-count regime)."""
    return eta + (p.a / p.b) * xi > 0.5


# -- sample points on the torus ----------------------------------------------


@dataclass
class SamplePoints:
    """Q points on the torus, stored reduced mod 1."""

    points: np.ndarray
    Q: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.Q != len(self.points) or self.Q < 1:
            raise ValueError("Q must equal the number of points and be >= 1")


def lattice_fraction_points(p: FracParams) -> SamplePoints:
    """The Q = ceil(b+d) - floor(d) + 1 points (a/b)(q + floor(d) - 1) - ad/b + c mod 1."""
    qlo, qhi = _index_range(p.b, p.d)
    Q = qhi - qlo + 1
    check_size(Q, "lattice points")
    q = np.arange(1, Q + 1, dtype=float)
    u = (p.a / p.b) * (q + qlo - 1.0) - p.a * p.d / p.b + p.c
    return SamplePoints(points=np.mod(u, 1.0), Q=Q)


def exp_sums(points: SamplePoints, kmax: int) -> np.ndarray:
    """|sum e(k u)| for k = 1..kmax, e(x) = exp(2 pi i x), by iterated phase products."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    check_size(kmax * points.Q, "exponential-sum terms")
    z = np.exp(2j * np.pi * points.points)
    acc = np.ones_like(z)
    out = np.empty(kmax)
    for k in range(kmax):
        acc = acc * z
        out[k] = np.abs(np.sum(acc))
    return out


def _interval_lengths(los, his) -> np.ndarray:
    """hi - lo per interval, each required to lie in (0, 1]."""
    lengths = np.asarray(his, dtype=float) - np.asarray(los, dtype=float)
    bad = ~((lengths > 0.0) & (lengths <= 1.0))
    if bad.any():
        raise ValueError("interval length must be in (0, 1], "
                         f"got {lengths[bad][0]}")
    return lengths


def discrepancies(points: SamplePoints, los, his) -> np.ndarray:
    """Signed discrepancies #(points in I) - |I| * Q of the intervals [lo, hi].

    Each interval is closed and may wrap around, as in `discrepancy`.  One
    (intervals x Q) array pass: the arithmetic is elementwise, so a row is
    the same bits whatever the other rows are.  |I| is hi - lo, not a
    length the caller drew, and must lie in (0, 1].
    """
    los = np.asarray(los, dtype=float)
    lengths = _interval_lengths(los, his)
    t = np.mod(points.points[None, :] - los[:, None], 1.0)
    hits = np.count_nonzero(t <= lengths[:, None], axis=1)
    return hits - lengths * points.Q


def discrepancy(points: SamplePoints, interval: tuple[float, float]) -> float:
    """Signed discrepancy #(points in I) - |I| * Q on the torus.

    The interval is closed and may wrap around; membership reduces both
    the points and the interval mod 1.  The one-row case of `discrepancies`.
    """
    lo, hi = interval
    return float(discrepancies(points, [lo], [hi])[0])


def _rhs_column(Q: int, lengths: np.ndarray, s: np.ndarray, K: int) -> np.ndarray:
    """Q/(K+1) + 2 * sum_{k<=K} (1/K + min(|I|, 1/(pi k))) * s[k-1] per length,
    each row summed by one `np.sum`."""
    k = np.arange(1, K + 1, dtype=float)
    weights = 1.0 / K + np.minimum(lengths[:, None], 1.0 / (np.pi * k))
    return Q / (K + 1.0) + 2.0 * np.sum(weights * s[:K], axis=1)


def erdos_turan_rhs(points: SamplePoints, interval: tuple[float, float],
                    K: int) -> float:
    """Right-hand side of the Erdos-Turan inequality for the given I and K.

    Q/(K+1) + 2 * sum_{k<=K} (1/K + min(|I|, 1/(pi k))) * |sum e(k u)|:
    the one-row case of `erdos_turan_rhs_table`, with the same bits.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    lo, hi = interval
    lengths = _interval_lengths([lo], [hi])
    return float(_rhs_column(points.Q, lengths, exp_sums(points, K), K)[0])


def erdos_turan_rhs_table(points: SamplePoints, los, his,
                          kmax: int) -> np.ndarray:
    """Erdos-Turan right-hand sides for every interval and K = 1..kmax.

    Column K-1 is `erdos_turan_rhs` at K for every interval at once, on the
    first K sums of one `exp_sums(points, kmax)`, which are those of
    `exp_sums(points, K)`: it equals the scalar bit for bit.  The table
    costs one exponential-sum pass and O(intervals * kmax**2) arithmetic.
    """
    lengths = _interval_lengths(los, his)
    s = exp_sums(points, kmax)
    return np.stack([_rhs_column(points.Q, lengths, s, K)
                     for K in range(1, kmax + 1)], axis=1)


def default_K(p: FracParams) -> int:
    """The proof-matching truncation floor(b/a)."""
    return max(1, math.floor(p.b / p.a))
