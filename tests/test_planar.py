import decimal
import math
import tracemalloc

import numpy as np
import pytest

from diophlab.approx_sets import FracParams, dyadic_annuli, product_membership
from diophlab.planar import (cover_rectangles, decompose_planar_product_set,
                             index_split, mc_planar_product_area, planar_premeasure,
                             planar_premeasure_bound, product_rectangle_set)
from diophlab.verify import planar_unit_area


def test_area_is_product_of_measures():
    box = product_rectangle_set(FracParams(1, 1), 0.1, 0.1)
    assert box.area() == pytest.approx(0.04)
    assert box.area_by_boxes() == pytest.approx(0.04)


def test_area_product_identity_randomized():
    rng = np.random.default_rng(44)
    for _ in range(100):
        a = float(rng.uniform(1, 50))
        p = FracParams(a, float(rng.uniform(a, 5000)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        box = product_rectangle_set(p, float(rng.uniform(1e-3, 0.6)),
                                    float(rng.uniform(1e-3, 0.6)))
        assert abs(box.area() - box.area_by_boxes()) < 1e-12


def test_area_by_boxes_memory_is_bounded_by_its_block():
    # 51 x-components by 100,001 y-components: a 41 MB outer product at once
    box = product_rectangle_set(FracParams(50, 1e5), 0.4, 0.3)
    lx, ly = box.x_set.his - box.x_set.los, box.y_set.his - box.y_set.los
    assert len(box.x_set) * len(box.y_set) * 8 > 20 * 2 ** 20
    tracemalloc.start()
    try:
        got = box.area_by_boxes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * 2 ** 20 + 8 * len(box.y_set)
    assert got == pytest.approx(float(np.sum(lx)) * float(np.sum(ly)), rel=1e-12)


def test_vacuous_threshold_keeps_full_factor():
    box = product_rectangle_set(FracParams(2, 7, 0.1, 0.2), 0.6, 0.2)
    assert box.x_set.pairs() == [(0.0, 1.0)]
    y = box.y_set
    assert box.area() == pytest.approx(float(np.sum(y.his - y.los)))


def test_empty_threshold_gives_empty_set():
    box = product_rectangle_set(FracParams(1, 2), 0.0, 0.3)
    assert box.area() == 0.0
    assert box.x_set.is_empty() and box.y_set.is_empty()


def test_cover_counts_balanced_case():
    p = FracParams(3, 3)
    cov = cover_rectangles(p, 0.1, 0.1, 0.5)
    assert cov.mesh == pytest.approx(0.1 / 3)
    # 4 components per axis (two clipped at the boundary), interior ones
    # two pieces wide; float ceil may add one piece per interior component
    assert 36 <= cov.squares <= 64
    assert cov.premeasure == pytest.approx(cov.squares * cov.mesh ** 1.5)
    assert math.isfinite(cov.ratio)


def test_cover_empty_case():
    # a threshold of 0 gives mesh 0, refused as the line's cover refuses
    # it, not a zero cover with bound 0.0
    with pytest.raises(ValueError, match=r"^mesh must be positive and finite, got 0\.0$"):
        cover_rectangles(FracParams(2, 5), 0.0, 0.0, 0.5)


def test_cover_of_an_empty_box_product_keeps_its_bound():
    # eta/a is below the ulp of every a-window centre, so the box product is
    # empty at a positive mesh: 0 squares against the bound a*b*max/min, not
    # the bound 0.0 of a hand-built zero cover
    eta, xi = 1e-300, 0.4
    mesh = min(eta / 2, xi / 3)
    cov = cover_rectangles(FracParams(2, 3, 0.3, 0.1), eta, xi, 0.5)
    assert (cov.squares, cov.mesh, cov.premeasure, cov.ratio) == (0, mesh, 0.0, 0.0)
    assert cov.bound == 2 * 3 * max(eta / 2, xi / 3) / mesh > 0.0


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
def test_cover_premeasure_survives_an_underflowing_power(s):
    # mesh**(1+s) = 1e-306**(1+s) is below the normal floats, 0.0 at s = 0.5,
    # where squares * mesh**(1+s) is about 8e-154; 50-digit decimal reference
    cov = cover_rectangles(FracParams(1, 1000), 1e-306, 0.4, s)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        want = float(decimal.Decimal(cov.squares)
                     * decimal.Decimal(cov.mesh) ** decimal.Decimal(1.0 + s))
    assert want > 0.0
    assert cov.premeasure == pytest.approx(want, rel=1e-12, abs=0.0)


def test_decompose_premeasure_survives_underflowing_powers():
    # at delta = 2**-511 every side is below 1e-153, so each side**1.5 is
    # subnormal or 0; the total read 1.8e-199 where it is about 2.04e-153
    cost = decompose_planar_product_set(FracParams(1, 1), 2.0 ** -511)
    pairs = [(decimal.Decimal(n), decimal.Decimal(side))
             for n, side in [cost.core, *cost.first_far, *cost.second_far]]
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        want = float(sum(n * side * side.sqrt() for n, side in pairs))
    assert planar_premeasure(cost, 0.5) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cover_ratio_bounded_randomized():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(80):
        a = float(rng.uniform(1, 50))
        p = FracParams(a, float(rng.uniform(a, 5000)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        cov = cover_rectangles(p, float(rng.uniform(1e-3, 0.499)),
                               float(rng.uniform(1e-3, 0.499)), 0.5)
        worst = max(worst, cov.ratio)
    assert worst < 50.0


def test_mc_large_delta_saturates():
    est, _ = mc_planar_product_area(FracParams(3, 8, 0.4, 0.1), 0.8, 100_000)
    assert est == 1.0


def test_mc_zero_delta_is_empty():
    est, se = mc_planar_product_area(FracParams(3, 8), 0.0, 10_000)
    assert est == 0.0 and se == 0.0


def test_mc_matches_closed_form_oracle():
    delta = 0.2
    exact = planar_unit_area(delta)
    est, se = mc_planar_product_area(FracParams(1, 1), delta, 1_000_000, seed=11)
    assert abs(est - exact) < 4 * se


def test_mc_deterministic_under_seed():
    p = FracParams(2, 9, 0.3, -0.2)
    a1 = mc_planar_product_area(p, 0.15, 50_000, seed=5)
    a2 = mc_planar_product_area(p, 0.15, 50_000, seed=5)
    a3 = mc_planar_product_area(p, 0.15, 50_000, seed=6)
    assert a1 == a2
    assert a1 != a3


def test_mc_rejects_tiny_sample_count():
    with pytest.raises(ValueError):
        mc_planar_product_area(FracParams(1, 1), 0.1, 100)


def test_unit_area_formula_sanity():
    # w(1 + log(1/w)) at w = 4 delta^2, capped at 1
    assert planar_unit_area(0.5) == 1.0
    assert planar_unit_area(0.25) == pytest.approx(0.25 * (1 + math.log(4)))
    # crude quadrature cross-check of the min-integral
    delta = 0.13
    w = 4 * delta * delta
    u = np.linspace(1e-9, 1, 2_000_001)
    quad = float(np.trapezoid(np.minimum(1.0, w / u), u))
    assert planar_unit_area(delta) == pytest.approx(quad, abs=1e-4)


def _square_record(p, eta, xi):
    cov = cover_rectangles(p, eta, xi, 0.5)
    return cov.squares, cov.mesh


def test_decompose_annulus_indices():
    p = FracParams(2, 5)
    assert dyadic_annuli(0.1) == [0, 1, 2]
    cost = decompose_planar_product_set(p, 0.1)
    assert len(cost.first_far) == len(cost.second_far) == 3
    # each entry is the (squares, mesh) record of its threshold pair
    assert cost.core == _square_record(p, 0.1, 0.1)
    for j, (first, second) in enumerate(zip(cost.first_far, cost.second_far)):
        big, small = 2.0 ** (j + 1) * 0.1, 2.0 ** -j * 0.1
        assert first == _square_record(p, big, small)
        assert second == _square_record(p, small, big)


def test_planar_premeasure_sums_the_square_costs():
    # core + sum(first) + sum(second) of cover_rectangles' s-costs, in that
    # association, bit for bit
    p = FracParams(7.5, 4000.0, 0.3, -0.2)
    delta = 0.01
    J = dyadic_annuli(delta)
    cost = decompose_planar_product_set(p, delta)
    for s in (0.3, 0.5, 0.7, 0.9, 1.0):
        def pm(eta, xi):
            return cover_rectangles(p, eta, xi, s).premeasure

        want = (pm(delta, delta)
                + sum(pm(2.0 ** (j + 1) * delta, 2.0 ** -j * delta) for j in J)
                + sum(pm(2.0 ** -j * delta, 2.0 ** (j + 1) * delta) for j in J))
        assert planar_premeasure(cost, s) == want
    with pytest.raises(ValueError, match=r"s must be in \(0, 1\], got 1.5"):
        planar_premeasure(cost, 1.5)


def test_decompose_index_split_covers_everything():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = float(rng.uniform(1, 30))
        p = FracParams(a, float(rng.uniform(a, 3000)))
        delta = float(rng.uniform(0.01, 0.5))
        j1, j2 = index_split(p, delta)
        J = dyadic_annuli(delta)
        assert all(4.0 ** j <= p.b / p.a for j in j1)
        assert all(4.0 ** j >= p.b / p.a for j in j2)
        assert sorted(set(j1) | set(j2)) == J
        assert len(set(j1) & set(j2)) <= 1


def test_index_split_builds_no_set(monkeypatch):
    # verify draws b up to 1e8 for the split alone
    from diophlab import approx_sets

    def no_sets(*args):
        raise AssertionError("index_split built a set")

    monkeypatch.setattr(approx_sets, "_near_runs", no_sets)
    j1, j2 = index_split(FracParams(1.0, 1e8), 1e-3)
    assert j1 == list(range(9)) and j2 == []


def test_decompose_core_membership_spot_check():
    p = FracParams(2.5, 11.0, 0.3, 0.7)
    delta = 0.12
    core = product_rectangle_set(p, delta, delta)
    rng = np.random.default_rng(8)
    x, y = rng.random(100_000), rng.random(100_000)
    in_core = core.contains(x, y)
    in_product = product_membership(p, delta, x, y)
    assert not np.any(in_core & ~in_product)


def test_decompose_premeasure_ratio_recorded():
    rng = np.random.default_rng(15)
    for _ in range(20):
        a = float(rng.uniform(1, 30))
        p = FracParams(a, float(rng.uniform(a, 3000)))
        delta = float(rng.uniform(0.01, 0.5))
        cost = decompose_planar_product_set(p, delta)
        for s in (0.3, 0.7):
            total = planar_premeasure(cost, s)
            assert math.isfinite(total)
            assert total / planar_premeasure_bound(p, delta, s) < 1e4


def test_annulus_cover_is_superset_of_remainder():
    # sampled members of the product set always land in the core or in one
    # of the covering annulus products
    p = FracParams(2, 37, 0.25, -0.4)
    delta = 0.09
    rng = np.random.default_rng(23)
    x, y = rng.random(200_000), rng.random(200_000)
    members = product_membership(p, delta, x, y)
    x, y = x[members], y[members]
    covered = product_rectangle_set(p, delta, delta).contains(x, y)
    for j in dyadic_annuli(delta):
        big, small = 2.0 ** (j + 1) * delta, 2.0 ** (-j) * delta
        covered |= product_rectangle_set(p, big, small).contains(x, y)
        covered |= product_rectangle_set(p, small, big).contains(x, y)
    assert covered.all()
