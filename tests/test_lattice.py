import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diophlab.approx_sets import FracParams
from diophlab.intervals import CellCapExceeded
from diophlab.lattice import (SamplePoints, count_integer_bound,
                              count_near_pairs, count_near_pairs_naive,
                              default_K, discrepancies, discrepancy,
                              erdos_turan_rhs, erdos_turan_rhs_table, exp_sums,
                              large_regime, lattice_fraction_points)


def test_count_unit_case():
    assert count_near_pairs(FracParams(1, 1), 0.25, 0.25) == 2


def test_count_two_six_case():
    assert count_near_pairs(FracParams(2, 6), 0.1, 0.1) == 3


@pytest.mark.parametrize("eta, xi", [(math.nan, 0.1), (0.1, math.nan),
                                     (math.inf, 0.1), (0.1, -math.inf)])
def test_count_rejects_nan_threshold(eta, xi):
    # an infinite threshold is rejected too; it used to give a count of 0
    with pytest.raises(ValueError, match="thresholds must be numbers"):
        count_near_pairs(FracParams(2, 11), eta, xi)


def test_count_tiny_threshold_counts_exact_coincidences():
    p = FracParams(1, math.sqrt(2), 0.37, -0.81)
    assert count_near_pairs(p, 1e-12, 1e-12) == \
        count_near_pairs_naive(p, 1e-12, 1e-12)


def test_count_oracle_equivalence_randomized():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a = float(rng.uniform(1, 200))
        p = FracParams(a, float(rng.uniform(a, 200)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        eta = float(rng.uniform(0.01, 0.99))
        xi = float(rng.uniform(0.01, 0.99))
        assert count_near_pairs(p, eta, xi) == count_near_pairs_naive(p, eta, xi)


def test_count_shift_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = float(rng.uniform(1, 50))
        b = float(rng.uniform(a, 150))
        c = float(rng.uniform(-2, 2))
        d = float(rng.uniform(-2, 2))
        eta, xi = float(rng.uniform(0.01, 0.9)), float(rng.uniform(0.01, 0.9))
        n0 = count_near_pairs(FracParams(a, b, c, d), eta, xi)
        n1 = count_near_pairs(FracParams(a, b, c + 1.0, d), eta, xi)
        n2 = count_near_pairs(FracParams(a, b, c, d + 1.0), eta, xi)
        assert n0 == n1 == n2


def test_bound_ratio_example():
    # the quotient `diophlab count` prints: count / ((b eta + a) L)
    p = FracParams(1, 1)
    ratio = count_near_pairs(p, 0.25, 0.25) / ((p.b * 0.25 + p.a) * p.weight())
    assert ratio == pytest.approx(1.6)


def count_six_candidates(p, eta, xi):
    """Oracle: the O(b) count the window-run kernel replaced.

    For each q it tests the six p from floor(c + a (q-d)/b - a theta) on,
    which holds every admissible p while the p-window 2 a theta =
    2 eta + 2 xi a/b is shorter than 5, so for eta, xi <= 1.2.
    """
    plo, phi = math.floor(p.c), math.ceil(p.a + p.c)
    q = np.arange(math.floor(p.d), math.ceil(p.b + p.d) + 1, dtype=float)
    theta = eta / p.a + xi / p.b
    base = np.floor(p.c + p.a * (q - p.d) / p.b - p.a * theta)
    total = 0
    for off in range(6):
        cand = base + off
        ok = (cand >= plo) & (cand <= phi)
        ok &= np.abs((cand - p.c) / p.a - (q - p.d) / p.b) < theta
        total += int(np.count_nonzero(ok))
    return total


def test_count_matches_six_candidate_oracle_at_large_b():
    rng = np.random.default_rng(606)
    for i in range(60):
        a = float(rng.uniform(1, 100))
        b = float(np.exp(rng.uniform(np.log(a), np.log(1e6))))
        if i % 10 == 0:
            b = a
        c, d = rng.uniform(-2, 2, size=2)
        if i % 3 == 0:
            c, d = np.round([c, d])
        p = FracParams(a, b, float(c), float(d))
        eta, xi = (float(t) for t in rng.uniform(0.0, 1.2, size=2))
        assert count_near_pairs(p, eta, xi) == count_six_candidates(p, eta, xi)
    for p, eta, xi in [(FracParams(3.7, 1e6, 0.3, -1.2), 1.2, 1.2),
                       (FracParams(97.3, 9.7e5, 0.4, -1.3), 1e-4, 0.5),
                       (FracParams(2e5, 2e5, 1.0, -2.0), 0.5, 0.5),
                       (FracParams(2.0, 1e6), 0.0, 1.2)]:
        assert count_near_pairs(p, eta, xi) == count_six_candidates(p, eta, xi)


def test_count_is_capped_by_its_walk_not_by_b():
    # b = 2e8 + 1 q values pass the default cap of 1e8, but the walk meets
    # the 3 a-windows in about 600 pairs: |p/2 - q/2e8| < 5e-7 + 5e-15
    # holds for q = 0..100 at p = 0, q = 1e8 - 100..1e8 + 100 at p = 1 and
    # q = 2e8 - 100..2e8 at p = 2
    assert count_near_pairs(FracParams(2, 2e8), 1e-6, 1e-6) == 101 + 201 + 101


# thresholds on the domain boundaries (0, 1/2 and next to it) and inside
_COUNT_THRESHOLD = st.one_of(
    st.sampled_from([0.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]),
    st.floats(0.0, 1.2))
_COUNT_SHIFT = st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0))


@st.composite
def _count_params(draw):
    a = draw(st.one_of(st.integers(1, 40).map(float), st.floats(1.0, 40.0)))
    b = draw(st.one_of(st.just(a), st.integers(math.ceil(a), 300).map(float),
                       st.floats(a, 300.0)))
    return FracParams(a, b, draw(_COUNT_SHIFT), draw(_COUNT_SHIFT))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=_count_params(), eta=_COUNT_THRESHOLD, xi=_COUNT_THRESHOLD)
@example(p=FracParams(1, 1), eta=0.0, xi=0.0)
@example(p=FracParams(7, 7, 1, -2), eta=0.5, xi=0.5)
@example(p=FracParams(3, 12, 0, 0), eta=0.5, xi=0.0)
@example(p=FracParams(2, 6), eta=1.2, xi=1.2)
def test_count_equals_naive_on_domain_boundaries(p, eta, xi):
    assert count_near_pairs(p, eta, xi) == count_near_pairs_naive(p, eta, xi)


def test_large_regime_cap():
    rng = np.random.default_rng(50)
    for _ in range(300):
        a = float(rng.uniform(1, 50))
        p = FracParams(a, float(rng.uniform(a, 2000)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        eta = float(rng.uniform(0.0, 1.0))
        xi = float(rng.uniform(0.0, 1.0))
        if large_regime(p, eta, xi):
            assert count_near_pairs(p, eta, xi) <= 4 * (p.b + 2)


def test_integer_bound_grid():
    p = FracParams(4, 6)
    for eta in np.linspace(0.01, 0.49, 9):
        for xi in np.linspace(0.01, 0.49, 9):
            n, bound = count_integer_bound(p, float(eta), float(xi))
            assert n == count_near_pairs_naive(p, float(eta), float(xi))
            assert bound == 6 * float(eta) + math.gcd(4, 6)


def test_integer_bound_diagonal():
    for n in (3, 7, 20):
        p = FracParams(n, n)
        cnt, _ = count_integer_bound(p, 0.2, 0.2)
        assert cnt <= n + 2


def test_integer_bound_large_b():
    n, bound = count_integer_bound(FracParams(1, 1000), 0.001, 0.3)
    assert n == count_near_pairs_naive(FracParams(1, 1000), 0.001, 0.3)
    assert bound == 1000 * 0.001 + math.gcd(1, 1000)


def test_integer_bound_rejects_reals():
    with pytest.raises(ValueError):
        count_integer_bound(FracParams(1.5, 3), 0.1, 0.1)


def test_build_points_equal_coefficients():
    pts = lattice_fraction_points(FracParams(5, 5))
    assert np.allclose(pts.points, 0.0)


def test_build_points_half_integer_case():
    pts = lattice_fraction_points(FracParams(1, 2))
    assert pts.Q == 3
    np.testing.assert_allclose(pts.points, [0.0, 0.5, 0.0], atol=1e-15)


def test_build_points_count_with_shift():
    assert lattice_fraction_points(FracParams(1, 5, 0, 0.3)).Q == 7


def test_exp_sum_uniform_points():
    Q = 16
    pts = SamplePoints(points=np.arange(Q) / Q)
    sums = exp_sums(pts, 3 * Q)
    assert sums[5 - 1] < 1e-9
    assert sums[Q - 1] == pytest.approx(Q)
    assert sums[3 * Q - 1] == pytest.approx(Q)


def test_exp_sum_rejects_bad_k():
    pts = SamplePoints(points=np.array([0.1]))
    with pytest.raises(ValueError, match="kmax must be >= 1"):
        exp_sums(pts, 0)


def test_exp_sums_match_exp_sum():
    # each k against its own direct sum |sum e(k u)|
    rng = np.random.default_rng(8)
    pts = SamplePoints(points=rng.random(100))
    batch = exp_sums(pts, 20)
    singles = [abs(np.sum(np.exp((2j * np.pi * k) * pts.points)))
               for k in range(1, 21)]
    np.testing.assert_allclose(batch, singles, atol=1e-10)


def test_exp_sums_checks_the_cap_before_the_loop(monkeypatch):
    monkeypatch.setenv("DIOPHLAB_CELL_CAP", "1000")
    pts = SamplePoints(points=np.zeros(12))
    assert len(exp_sums(pts, 83)) == 83
    with pytest.raises(CellCapExceeded, match="1008 exponential-sum terms"):
        exp_sums(pts, 84)


def test_integer_orthogonality_four_six():
    # inner sum over one full period is b when b/gcd divides k, else 0
    a, b = 4, 6
    g = math.gcd(a, b)
    q = np.arange(1, b + 1)
    for k in range(1, 19):
        total = abs(np.sum(np.exp(2j * np.pi * k * a * q / b)))
        expect = b if k % (b // g) == 0 else 0.0
        assert abs(total - expect) < 1e-9


def test_discrepancy_examples():
    Q = 10
    uniform = SamplePoints(points=np.arange(Q) / Q)
    assert discrepancy(uniform, (0.0, 1.0)) == pytest.approx(0.0)
    single = SamplePoints(points=np.array([0.5]))
    assert discrepancy(single, (0.4, 0.6)) == pytest.approx(0.8)
    rng = np.random.default_rng(3)
    pts = SamplePoints(points=rng.random(40))
    assert discrepancy(pts, (0.25, 1.25)) == pytest.approx(0.0)


def test_discrepancy_wraparound():
    pts = SamplePoints(points=np.array([0.05, 0.95, 0.5]))
    # interval wrapping through 0 catches the two edge points
    assert discrepancy(pts, (0.9, 1.1)) == pytest.approx(2 - 0.2 * 3)


@pytest.mark.parametrize("Q", [1, 2, 7, 64, 999, 4096])
def test_discrepancies_equal_discrepancy_row_by_row(Q):
    rng = np.random.default_rng(Q)
    pts = SamplePoints(points=rng.random(Q))
    lo = rng.uniform(-1.5, 1.5, 60)
    length = rng.uniform(1e-6, 1.0, 60)
    # drawn as (lo, lo + length); wraparound rows cross 0 or 1, and the
    # last rows are the full circle and intervals ending on a point
    los = np.concatenate([lo, [0.95, -0.05, 0.0, 0.3, pts.points[0]]])
    his = np.concatenate([lo + length, [1.05, 0.05, 1.0, 1.3,
                                        pts.points[0] + 0.5]])
    batch = discrepancies(pts, los, his)
    assert batch.shape == (len(los),)
    for row, (l, h) in enumerate(zip(los, his)):
        l, h = float(l), float(h)
        # the scalar arithmetic discrepancy had before it became a row
        loop = int(np.count_nonzero(np.mod(pts.points - l, 1.0) <= h - l)) - (h - l) * Q
        assert batch[row] == discrepancy(pts, (l, h)) == loop


def test_rhs_table_matches_scalar_rhs():
    rng = np.random.default_rng(31)
    for Q in (1, 9, 300, 4096):
        pts = SamplePoints(points=rng.random(Q))
        los = rng.uniform(0.0, 1.0, 20)
        his = los + rng.uniform(1e-6, 1.0, 20)
        table = erdos_turan_rhs_table(pts, los, his, 50)
        assert table.shape == (20, 50)
        for row, (lo, hi) in enumerate(zip(los, his)):
            for K in range(1, 51):
                assert table[row, K - 1] == erdos_turan_rhs(pts, (lo, hi), K)


@pytest.mark.parametrize("lo, hi", [(0.2, 0.2), (0.0, 1.7), (0.3, 0.1),
                                    (0.0, math.nan)])
def test_batched_kernels_reject_bad_length(lo, hi):
    # one bad row (length 0, above 1, negative or NaN) among good ones
    pts = SamplePoints(points=np.array([0.1, 0.6]))
    los, his = [0.0, lo, 0.5], [0.5, hi, 1.5]
    with pytest.raises(ValueError, match=r"interval length must be in \(0, 1\]"):
        discrepancies(pts, los, his)
    with pytest.raises(ValueError, match=r"interval length must be in \(0, 1\]"):
        erdos_turan_rhs_table(pts, los, his, 5)


def test_erdos_turan_inequality_randomized():
    rng = np.random.default_rng(12)
    for _ in range(20):
        Q = int(rng.integers(5, 400))
        pts = SamplePoints(points=rng.random(Q))
        for _ in range(20):
            lo = float(rng.uniform(0, 1))
            length = float(rng.uniform(1e-4, 1.0))
            d = abs(discrepancy(pts, (lo, lo + length)))
            for K in (1, 5, 17, 30):
                assert d <= erdos_turan_rhs(pts, (lo, lo + length), K) + 1e-9


def test_erdos_turan_rhs_nonnegative():
    pts = SamplePoints(points=np.arange(32) / 32)
    for K in (1, 7, 31):
        assert erdos_turan_rhs(pts, (0.1, 0.4), K) >= 0.0


def test_rhs_tracks_counting_bound():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = float(rng.uniform(1, 20))
        p = FracParams(a, float(rng.uniform(a, 400)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        delta = float(rng.uniform(1e-3, 0.4))
        pts = lattice_fraction_points(p)
        rhs = erdos_turan_rhs(pts, (-delta, delta), default_K(p))
        ratio = rhs / ((p.a + delta * p.b) * p.weight())
        assert math.isfinite(ratio)
        assert ratio < 1e3
