import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diophlab import approx_sets, intervals
from diophlab.approx_sets import (FracParams, _cell_bounds, _factor_set,
                                  _product_pieces, annulus_cover_cost,
                                  decompose_product_set, dist_nearest_int,
                                  dyadic_annuli, measure_bound,
                                  premeasure_bound, product_membership,
                                  product_set, product_set_cover_cost,
                                  cover_simultaneous, simultaneous_set)
from diophlab.intervals import (CellCapExceeded, difference, intersect,
                                lebesgue, mesh_cover, mesh_piece_counts,
                                symmetric_difference)
from diophlab.sequences import PsiSpec, SequenceSpec, eval_psi, eval_sequence


def test_dist_nearest_int_examples():
    assert dist_nearest_int(0.3) == pytest.approx(0.3)
    assert dist_nearest_int(-2.7) == pytest.approx(0.3)
    assert dist_nearest_int(3.5) == 0.5


def test_frac_params_validation():
    with pytest.raises(ValueError):
        FracParams(0.5, 2.0)
    with pytest.raises(ValueError):
        FracParams(3.0, 2.0)


@pytest.mark.parametrize("field, args", [
    ("a", (math.nan, 2.0)),
    ("b", (2.0, math.inf)),
    ("c", (2.0, 11.0, math.nan)),
    ("d", (2.0, 11.0, 0.0, -math.inf)),
])
def test_frac_params_rejects_non_finite(field, args):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        FracParams(*args)


def test_simultaneous_set_intersection_example():
    got = simultaneous_set(FracParams(1, 2), 0.1, 0.1)
    assert got.pairs() == [(0.0, 0.05), (0.95, 1.0)]


def test_simultaneous_set_vacuous_thresholds():
    assert simultaneous_set(FracParams(3, 11, 0.2, 0.9), 0.6, 0.7).pairs() == \
        [(0.0, 1.0)]


def test_simultaneous_set_identical_constraints():
    d = 0.15
    got = simultaneous_set(FracParams(1, 1), d, d)
    assert got.pairs() == [(0.0, d), (1.0 - d, 1.0)]


def test_product_set_unit_coefficients():
    got = product_set(FracParams(1, 1), 0.2)
    assert len(got) == 2
    np.testing.assert_allclose(got.los, [0.0, 0.8], atol=1e-15)
    np.testing.assert_allclose(got.his, [0.2, 1.0], atol=1e-15)


def test_product_set_large_delta_is_everything():
    assert product_set(FracParams(5, 9, 1.3, -0.4), 0.8).pairs() == [(0.0, 1.0)]


def test_product_set_zero_delta_is_empty():
    assert product_set(FracParams(2, 3), 0.0).is_empty()


def test_product_set_measure_matches_monte_carlo():
    # Monte Carlo membership frequency is an independent oracle for the
    # constructed measure
    p = FracParams(3, 7, 0.3, 0.6)
    delta = 0.1
    e = product_set(p, delta)
    rng = np.random.default_rng(123)
    x = rng.random(1_000_000)
    freq = float(np.mean(product_membership(p, delta, x)))
    leb = lebesgue(e)
    se = math.sqrt(leb * (1 - leb) / x.size)
    assert abs(freq - leb) < 4 * se


def test_product_set_monotone_in_delta():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = float(rng.uniform(1, 10))
        p = FracParams(a, float(rng.uniform(a, 200)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        d1, d2 = sorted(rng.uniform(1e-3, 0.5, size=2))
        assert difference(product_set(p, float(d1)), product_set(p, float(d2))).is_empty()


def test_membership_examples():
    p = FracParams(1, 1)
    assert product_membership(p, 0.2, 0.1) is True
    assert product_membership(p, 0.2, 0.5) is False


def test_membership_agrees_with_containment():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = float(rng.uniform(1, 20))
        p = FracParams(a, float(rng.uniform(a, 500)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        delta = float(rng.uniform(0.01, 0.5))
        e = product_set(p, delta)
        x = rng.random(20_000)
        direct = product_membership(p, delta, x)
        inside = e.contains(x)
        disagree = direct != inside
        if disagree.any():
            assert np.all(e.endpoint_distance(x[disagree]) < 1e-9)


def test_decompose_reconstructs_product_set():
    p = FracParams(2.5, 9.1, 0.2, 0.7)
    dec = decompose_product_set(p, 0.1)
    gap = lebesgue(symmetric_difference(dec.reunion(), product_set(p, 0.1)))
    assert gap < 1e-10


def test_decompose_remainders_vanish_for_equal_forms():
    # with both forms equal, distance >= delta and squared distance < delta^2
    # cannot hold together; the roots leave a few ulp of sliver at the
    # tangent boundary
    dec = decompose_product_set(FracParams(1, 1), 0.2)
    assert lebesgue(difference(dec.first_far, dec.simultaneous)) < 1e-14
    assert lebesgue(difference(dec.second_far, dec.simultaneous)) < 1e-14


def test_decompose_core_inside_product_set():
    # each part keeps its definition: the core lies in E, the second
    # remainder lies where the first distance is below delta, the first
    # remainder does not
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(10):
        a = float(rng.uniform(1, 15))
        p = FracParams(a, float(rng.uniform(a, 300)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        cases.append((p, float(rng.uniform(0.01, 0.5))))
    # b near 4e5, with remainder pieces about 1e-12 wide where both
    # distances are close to delta
    cases.append((FracParams(82.80290049524143, 376819.18030899105,
                             -1.439003644005557, 0.2161445741561976),
                  0.0019635531823466493))
    for p, delta in cases:
        dec = decompose_product_set(p, delta)
        e = product_set(p, delta)
        assert lebesgue(dec.simultaneous) <= lebesgue(e) + 1e-15
        assert difference(dec.simultaneous, e).is_empty()
        near = simultaneous_set(p, delta, 0.5)
        assert difference(dec.second_far, near).is_empty()
        assert lebesgue(intersect(dec.first_far, near)) == 0


def test_decompose_rejects_bad_delta():
    with pytest.raises(ValueError):
        decompose_product_set(FracParams(1, 2), 0.7)


def test_simultaneous_inside_product_set():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = float(rng.uniform(1, 10))
        p = FracParams(a, float(rng.uniform(a, 100)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        eta = float(rng.uniform(0.01, 0.49))
        xi = float(rng.uniform(0.01, 0.49))
        f = simultaneous_set(p, eta, xi)
        e = product_set(p, math.sqrt(eta * xi))
        assert difference(f, e).is_empty()


def test_cover_simultaneous_small_case():
    p = FracParams(1, 1)
    pieces, mesh = cover_simultaneous(p, 0.1, 0.1)
    assert mesh == pytest.approx(0.1)
    assert pieces == 2
    f = simultaneous_set(p, 0.1, 0.1)
    cov = mesh_cover(f, mesh)
    assert cov.count == pieces and cov.covers(f)


def test_cover_simultaneous_containment_randomized():
    # the counted cover, laid out at its mesh, has the count and contains the set
    rng = np.random.default_rng(77)
    for _ in range(50):
        a = float(rng.uniform(1, 50))
        p = FracParams(a, float(rng.uniform(a, 5000)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        eta = float(rng.uniform(1e-3, 0.5))
        xi = float(rng.uniform(1e-3, 0.5))
        pieces, mesh = cover_simultaneous(p, eta, xi)
        f = simultaneous_set(p, eta, xi)
        cov = mesh_cover(f, mesh)
        assert cov.count == pieces and cov.covers(f)
        assert math.isfinite(pieces / p.count_bound(eta))


def test_cover_simultaneous_builds_no_pieces(monkeypatch):
    # a cover is counted, never laid out: the count runs with mesh_cover gone
    def refuse(*args):
        raise AssertionError("mesh_cover called")

    monkeypatch.setattr(intervals, "mesh_cover", refuse)
    monkeypatch.setattr(approx_sets, "mesh_cover", refuse, raising=False)
    p = FracParams(1, 90)
    assert cover_simultaneous(p, 0.45, 0.45) == (224, 0.005)
    cost = product_set_cover_cost(p, 0.1)
    assert cost.core == cover_simultaneous(p, 0.1, 0.1)


def _dense_simultaneous(p, eta, xi):
    """Oracle: the simultaneous set as the intersection of both whole factors."""
    x, y = _factor_set(p.a, p.c, eta), _factor_set(p.b, p.d, xi)
    return y if eta >= 0.5 else x if xi >= 0.5 else intersect(x, y)


# thresholds where the b-windows fuse under MERGE_EPS into long chains (gap
# (1 - 2 xi)/b), and thresholds down to 1e-12 where windows are a few ulp
# wide or vanish
_NEAR_HALF = [0.5 - 10.0 ** -k for k in range(1, 16)] + [0.5 - 3e-13]
_THRESHOLD = st.one_of(
    st.sampled_from(_NEAR_HALF),
    st.floats(math.log(1e-12), math.log(0.5)).map(math.exp),
    st.floats(1e-3, 0.6))
_SHIFT = st.one_of(st.integers(-3, 3).map(float), st.floats(-3.0, 3.0))


@st.composite
def _params(draw):
    a = draw(st.one_of(st.integers(1, 60).map(float), st.floats(1.0, 60.0)))
    b = draw(st.one_of(st.just(a), st.integers(math.ceil(a), 2000).map(float),
                       st.floats(a, 2e5), st.floats(1e4, 1.6e5)))
    return FracParams(a, b, draw(_SHIFT), draw(_SHIFT))


_FUSION_CASES = [
    (FracParams(7.3, 1.2e4, 0.4, -1.7), 0.013, 0.5 - 1e-6),
    (FracParams(3, 1.6e5, 1, 2), 1e-12, 0.5 - 3e-13),
    (FracParams(3, 1.6e5, 1, 2), 0.5 - 1e-15, 1e-12),
    (FracParams(41.9, 41.9, -0.2, 0.6), 0.5 - 1e-9, 0.5 - 1e-9),
    # a fused chain of b-windows meets an a-component at its lo (hi) through
    # a window that ends (starts) exactly there, so each run needs the window
    # before (after) it: xi = 0.5 - 2**-42 makes those endpoints exact and
    # the gaps between windows about 1e-14
    (FracParams(1, 40, 0, 0.5 - 2 ** -42), 0.25, 0.5 - 2 ** -42),
    (FracParams(1, 40, 0, -0.5 + 2 ** -42), 0.25, 0.5 - 2 ** -42),
]


def _fusion_examples(test):
    """Hypothesis examples where windows fuse under MERGE_EPS."""
    for p, eta, xi in _FUSION_CASES:
        test = example(p=p, eta=eta, xi=xi)(test)
    return test


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(p=_params(), eta=_THRESHOLD, xi=_THRESHOLD)
@_fusion_examples
def test_simultaneous_set_equals_dense_oracle(p, eta, xi):
    # array for array: the near-window build does the dense build's arithmetic
    assert simultaneous_set(p, eta, xi) == _dense_simultaneous(p, eta, xi)


def _set_count(p, eta, xi):
    """Oracle for cover_simultaneous: the mesh pieces of the simultaneous set."""
    mesh = min(eta / p.a, xi / p.b)
    f = simultaneous_set(p, eta, xi)
    return int(mesh_piece_counts(f.los, f.his, mesh).sum()), mesh


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(p=_params(), eta=_THRESHOLD, xi=_THRESHOLD)
@_fusion_examples
def test_cover_count_equals_set_count(p, eta, xi):
    # the window-pair and chunked counts take intersect's picks of the same
    # floats, and fused windows fall back to the set
    assert cover_simultaneous(p, eta, xi) == _set_count(p, eta, xi)


def test_fused_windows_take_the_set_path(monkeypatch):
    # b-windows 1e-14 apart fuse, so the count is read off the set
    p, eta, xi = FracParams(1, 40, 0, 0.5 - 2 ** -42), 0.25, 0.5 - 2 ** -42
    calls = []

    def spy(*args):
        calls.append(args)
        return simultaneous_set(*args)

    monkeypatch.setattr(approx_sets, "simultaneous_set", spy)
    assert cover_simultaneous(p, eta, xi) == _set_count(p, eta, xi)
    assert calls == [(p, eta, xi)]


def _criterion_7_instances(count):
    rng = np.random.default_rng(1007)
    for _ in range(count):
        a = float(rng.uniform(1, 100))
        b = float(np.exp(rng.uniform(np.log(a), np.log(1e6))))
        p = FracParams(a, max(b, a), float(rng.uniform(-2, 2)),
                       float(rng.uniform(-2, 2)))
        yield p, float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5))))


def _worked_example(ns):
    seq = SequenceSpec(kind="exponential", a=2, b=3)
    psi = PsiSpec(kind="scaled-base", t=1.0, seq=seq)
    for n in ns:
        yield FracParams(*eval_sequence(seq, n)), math.sqrt(eval_psi(psi, n))


@pytest.mark.parametrize("cases", [
    pytest.param(lambda: _criterion_7_instances(60), id="criterion-7"),
    pytest.param(lambda: _worked_example(range(8, 13)), id="worked-8-12"),
])
def test_cover_cost_counts_match_dense_covers(cases):
    # every annulus count equals the piece count of the materialized cover
    # of the dense oracle set, at the mesh cover_simultaneous uses
    def dense(p, eta, xi):
        mesh = min(eta / p.a, xi / p.b)
        return mesh_cover(_dense_simultaneous(p, eta, xi), mesh).count, mesh

    for p, delta in cases():
        cost = product_set_cover_cost(p, delta)
        annuli = [(2.0 ** (j + 1) * delta, 2.0 ** -j * delta)
                  for j in dyadic_annuli(delta)]
        assert cost.core == dense(p, delta, delta)
        assert cost.first_far == [dense(p, big, small) for big, small in annuli]
        assert cost.second_far == [dense(p, small, big) for big, small in annuli]


def _unique_cuts(p):
    """Oracle for _cell_bounds: the same cuts, sorted and deduplicated by np.unique."""
    cuts = [np.array([0.0, 1.0])]
    for coef, shift in ((p.a, p.c), (p.b, p.d)):
        k = np.arange(math.floor(shift - 0.5), math.ceil(coef + shift + 0.5) + 1,
                      dtype=float)
        x = (k + 0.5 - shift) / coef
        cuts.append(x[(x > 0.0) & (x < 1.0)])
    return np.unique(np.concatenate(cuts))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=_params())
# every cut of one form is a cut of the other: a = b with c = d, and b = 2a
@example(p=FracParams(3, 3, 0.2, 0.2))
@example(p=FracParams(41.9, 41.9, -0.2, -0.2))
@example(p=FracParams(2, 4))
@example(p=FracParams(2, 4, 0.5, 0.5))
# cuts at exactly 0 and 1, which are dropped in favour of the edges
@example(p=FracParams(5, 7, 0.5, -0.5))
def test_cell_bounds_match_np_unique(p):
    assert _cell_bounds(p).tobytes() == _unique_cuts(p).tobytes()


def _chunked_cases():
    # the last two solve more cells than the default chunk holds
    rng = np.random.default_rng(1010)
    for _ in range(8):
        a = float(rng.uniform(1, 30))
        p = FracParams(a, float(rng.uniform(a, 3000)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        yield p, float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5))))
    yield FracParams(2, 4), 0.1
    yield from _worked_example([5, 9])
    yield FracParams(3.3, 4e4 + 0.7, 0.1, 0.37), 1e-3


@pytest.mark.parametrize("chunk", [7, 1 << 19])
def test_product_set_independent_of_chunk_size(monkeypatch, chunk):
    default = [product_set(p, delta) for p, delta in _chunked_cases()]
    monkeypatch.setattr(approx_sets, "_CHUNK", chunk)
    for want, (p, delta) in zip(default, _chunked_cases()):
        got = product_set(p, delta)
        assert got.los.tobytes() == want.los.tobytes()
        assert got.his.tobytes() == want.his.tobytes()


@pytest.mark.parametrize("chunk", [7, None])
def test_product_pieces_are_nonempty_and_in_x_order(monkeypatch, chunk):
    # the solver emits each cell's two pieces side by side, so the stream is
    # sorted by lo without an argsort, within and across chunks
    if chunk is not None:
        monkeypatch.setattr(approx_sets, "_CHUNK", chunk)
    for p, delta in _chunked_cases():
        los, his = map(np.concatenate, zip(*_product_pieces(p, delta)))
        assert np.all(his > los)
        assert np.all(los[1:] >= los[:-1])


def _one_sided_cases():
    # one threshold at or above 1/2: the set is the other factor, whose
    # windows are counted in chunks; the last case fuses and takes the set
    for p, delta in _chunked_cases():
        yield p, 0.5, delta
        yield p, delta, 0.75
    yield FracParams(3, 1.6e5, 1, 2), 0.6, 0.5 - 3e-13


@pytest.mark.parametrize("chunk", [7, 1 << 19])
def test_factor_count_independent_of_chunk_size(monkeypatch, chunk):
    want = [_set_count(p, eta, xi) for p, eta, xi in _one_sided_cases()]
    monkeypatch.setattr(approx_sets, "_CHUNK", chunk)
    assert [cover_simultaneous(p, eta, xi)
            for p, eta, xi in _one_sided_cases()] == want


def test_fusion_found_across_chunks(monkeypatch):
    # one window per chunk: windows 1e-14 apart fuse only across chunks
    monkeypatch.setattr(approx_sets, "_CHUNK", 1)
    p, eta, xi = FracParams(1, 40, 0, 0.5 - 2 ** -42), 0.6, 0.5 - 2 ** -42
    assert cover_simultaneous(p, eta, xi) == _set_count(p, eta, xi)


def test_cover_cost_builds_no_interval_set(monkeypatch):
    # criterion-7 covers, the last annuli at thresholds of 1/2 and above
    # included, are counted from windows with normalize and intersect gone
    cases = list(_criterion_7_instances(20))
    assert any(2.0 ** len(dyadic_annuli(delta)) * delta >= 0.5 for _, delta in cases)
    want = [annulus_cover_cost(delta, lambda eta, xi: _set_count(p, eta, xi))
            for p, delta in cases]

    def refuse(*args):
        raise AssertionError("interval set built")

    for module in (intervals, approx_sets):
        monkeypatch.setattr(module, "normalize", refuse)
        monkeypatch.setattr(module, "intersect", refuse)
    assert [product_set_cover_cost(p, delta) for p, delta in cases] == want


def test_dyadic_annuli():
    assert dyadic_annuli(0.1) == [0, 1, 2]
    assert dyadic_annuli(0.5) == []
    assert dyadic_annuli(0.25) == [0]


def test_cover_cost_bounded_by_premeasure_bound():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(30):
        a = float(rng.uniform(1, 40))
        p = FracParams(a, float(rng.uniform(a, 2000)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        delta = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.5))))
        cost = product_set_cover_cost(p, delta)
        for s in (0.3, 0.5, 0.7, 0.9):
            worst = max(worst, cost.premeasure(s) / premeasure_bound(p, delta, s))
    assert math.isfinite(worst)
    assert worst < 1e3


def test_measure_bound_tracks_lebesgue():
    rng = np.random.default_rng(14)
    ratios = []
    for _ in range(30):
        a = float(rng.uniform(1, 40))
        p = FracParams(a, float(rng.uniform(a, 2000)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        delta = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.5))))
        ratios.append(lebesgue(product_set(p, delta)) / measure_bound(p, delta))
    assert max(ratios) < 100.0


def test_cell_cap_guard(monkeypatch):
    monkeypatch.setenv("DIOPHLAB_CELL_CAP", "100")
    with pytest.raises(CellCapExceeded):
        product_set(FracParams(2, 5000), 0.01)
    monkeypatch.delenv("DIOPHLAB_CELL_CAP")
    assert len(product_set(FracParams(2, 5000), 0.01)) > 0
