import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diophlab import approx_sets, intervals
from diophlab.approx_sets import (FracParams, _cells, _joined, _product_pieces,
                                  _walk, _windows, annulus_cover_cost,
                                  decompose_product_set, dist_nearest_int,
                                  dyadic_annuli, measure_bound,
                                  premeasure_bound, product_membership,
                                  product_set, product_set_cover_cost,
                                  cover_simultaneous, simultaneous_set)
from diophlab.intervals import (CellCapExceeded, difference, intersect,
                                lebesgue, mesh_cover, mesh_piece_counts,
                                symmetric_difference)
from diophlab.lattice import count_near_pairs
from diophlab.planar import (_square_counts, cover_rectangles,
                             decompose_planar_product_set)
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


def test_collapsed_a_windows_give_the_empty_set():
    # eta/a = 1e-20 is below the ulp of every a-window centre, so each
    # a-window collapses in floats, the a-set is empty and no b-window is
    # walked; the product set keeps its sliver at x = 0, where v is small
    p = FracParams(1, 1, 0.3)
    assert simultaneous_set(p, 1e-20, 0.1).is_empty()
    dec = decompose_product_set(p, 1e-20)
    sliver = [(0.0, 3.333333333333333e-40)]
    assert [part.pairs() for part in (dec.simultaneous, dec.first_far,
                                      dec.second_far, dec.product)] == \
        [[], sliver, [], sliver]


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


@pytest.mark.parametrize("counts", [np.empty(0), np.zeros(3)])
def test_a_walk_with_no_pair_yields_one_empty_chunk(counts):
    chunks = list(_walk(np.arange(counts.size, dtype=float), counts, counts))
    assert len(chunks) == 1
    assert [a.size for a in chunks[0]] == [0, 0]


@pytest.mark.parametrize("delta, chunks", [(0.0, [[]]), (0.5, None), (0.75, [[(0.0, 1.0)]])])
def test_product_pieces_joined_are_the_product_set(delta, chunks):
    # the stream owns delta's domain: one empty chunk at 0, the cell solve
    # at 1/2, and the one piece [0, 1] above 1/2
    p = FracParams(3, 7, 0.3, 0.6)
    got = list(_joined(_product_pieces(p, delta)))
    if chunks is not None:
        assert [list(zip(*map(np.ndarray.tolist, c))) for c in got] == chunks
    los, his = map(np.concatenate, zip(*got))
    want = product_set(p, delta)
    assert np.array_equal(los, want.los) and np.array_equal(his, want.his)


@pytest.mark.parametrize("delta", [math.nan, -0.1, 1e-200, math.inf])
def test_product_pieces_refuse_a_delta_outside_their_domain(delta):
    with pytest.raises(ValueError, match="delta must be"):
        next(_product_pieces(FracParams(2, 3), delta))


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


@pytest.mark.xfail(strict=True, reason="the product set is solved in absolute "
                   "coordinates; ROADMAP item 1")
def test_product_set_holds_every_zero():
    # one distance is 0 at every zero (k - c)/a and (q - d)/b, so the
    # product is 0 there; the solve loses 8 of the 97 a-form zeros and
    # 124,676 of the 970,000 b-form zeros, where product_membership holds
    p, delta = FracParams(97.3, 9.7e5, 0.4, -1.3), 1e-4
    e = product_set(p, delta)
    for coef, shift in ((p.a, p.c), (p.b, p.d)):
        zeros = (np.arange(math.floor(shift), math.ceil(coef + shift) + 1.0) - shift) / coef
        zeros = zeros[(zeros > 0.0) & (zeros < 1.0)]
        assert product_membership(p, delta, zeros).all()
        assert e.contains(zeros).all()


@pytest.mark.xfail(strict=True, reason="the product set is solved in absolute "
                   "coordinates; ROADMAP item 1")
def test_product_membership_agrees_at_every_midpoint():
    # a and b a few ulp apart and c = d at delta = 1/2: the set has pieces
    # about 1e-17 wide, and 16 of the 35 midpoints of its components and
    # gaps lie on the wrong side of the condition
    c = 0.8149133188201294
    p = FracParams(22.15388725286523, 22.153887252865236, c, c)
    e = product_set(p, 0.5)
    cuts = np.concatenate([[0.0], np.column_stack([e.los, e.his]).ravel(), [1.0]])
    mids = ((cuts[:-1] + cuts[1:]) / 2)[cuts[1:] > cuts[:-1]]
    assert np.array_equal(product_membership(p, 0.5, mids), e.contains(mids))


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


def test_decomposition_carries_its_product_set():
    # the decompose-exact check compares the reunion with dec.product, not
    # with a second solve, so dec.product must be product_set's own array
    rng = np.random.default_rng(23)
    cases = [(FracParams(97.3, 9.7e5, 0.4, -1.3), 1e-4),
             (FracParams(82.80290049524143, 376819.18030899105,
                         -1.439003644005557, 0.2161445741561976), 0.0019635531823466493),
             (FracParams(3.0, 2.5e5, -0.7, 1.1), 0.4999),
             (FracParams(2.5, 9.1, 0.2, 0.7), 0.5)]
    for _ in range(20):
        a = float(rng.uniform(1, 100))
        b = float(np.exp(rng.uniform(np.log(a), np.log(1e6))))
        p = FracParams(a, b, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        cases.append((p, float(np.exp(rng.uniform(np.log(1e-3), np.log(0.5))))))
    for p, delta in cases:
        got, want = decompose_product_set(p, delta).product, product_set(p, delta)
        assert got.los.tobytes() == want.los.tobytes()
        assert got.his.tobytes() == want.his.tobytes()


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


def _factor_set(coef, shift, eps):
    """Oracle: {x in [0,1] : ||coef*x + shift|| < eps}, eps > 0, as the
    `normalize` of every window ((k - shift) -+ eps)/coef at once; all of
    [0,1] when eps >= 1/2 (the distance never exceeds 1/2)."""
    if eps >= 0.5:
        return intervals.IntervalSet.full()
    centers = np.arange(math.floor(shift), math.ceil(coef + shift) + 1.0) - shift
    return intervals.normalize(((centers - eps) / coef, (centers + eps) / coef))


def _dense_simultaneous(p, eta, xi):
    """Oracle: the simultaneous set as the intersection of both whole factors."""
    x, y = _factor_set(p.a, p.c, eta), _factor_set(p.b, p.d, xi)
    return y if eta >= 0.5 else x if xi >= 0.5 else intersect(x, y)


# thresholds where the gaps between b-windows, (1 - 2 xi)/b, are a few ulp
# or less, so that many windows touch in floats and join into long chains,
# and thresholds down to 1e-12 where windows are a few ulp wide or vanish
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


_TOUCHING_CASES = [
    (FracParams(7.3, 1.2e4, 0.4, -1.7), 0.013, 0.5 - 1e-6),
    (FracParams(3, 1.6e5, 1, 2), 1e-12, 0.5 - 3e-13),
    (FracParams(3, 1.6e5, 1, 2), 0.5 - 1e-15, 1e-12),
    (FracParams(41.9, 41.9, -0.2, 0.6), 0.5 - 1e-9, 0.5 - 1e-9),
    # a chain of touching b-windows meets an a-component at its lo (hi)
    # through a window that ends (starts) exactly there: xi = 0.5 - 2**-42
    # makes those endpoints exact and the gaps between windows about 1e-14,
    # a few ulp or none
    (FracParams(1, 40, 0, 0.5 - 2 ** -42), 0.25, 0.5 - 2 ** -42),
    (FracParams(1, 40, 0, -0.5 + 2 ** -42), 0.25, 0.5 - 2 ** -42),
]


def _touching_examples(test):
    """Hypothesis examples where windows touch or lie a few ulp apart."""
    for p, eta, xi in _TOUCHING_CASES:
        test = example(p=p, eta=eta, xi=xi)(test)
    return test


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(p=_params(), eta=_THRESHOLD, xi=_THRESHOLD)
@_touching_examples
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
@_touching_examples
def test_cover_count_equals_set_count(p, eta, xi):
    # the window-pair and chunked counts take intersect's picks of the same
    # floats, and join the same touching pieces
    assert cover_simultaneous(p, eta, xi) == _set_count(p, eta, xi)


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
    """Oracle for _cells: the cuts where a nearest integer switches, with 0
    and 1, sorted and deduplicated by np.unique."""
    cuts = [np.array([0.0, 1.0])]
    for coef, shift in ((p.a, p.c), (p.b, p.d)):
        k = np.arange(math.floor(shift - 0.5), math.ceil(coef + shift + 0.5) + 1,
                      dtype=float)
        x = (k + 0.5 - shift) / coef
        cuts.append(x[(x > 0.0) & (x < 1.0)])
    return np.unique(np.concatenate(cuts))


# at a chunk of 7 the walk steps once per 7 pairs, so that run draws fewer
# examples
@pytest.mark.parametrize("chunk, examples", [pytest.param(7, 25, id="7"),
                                             pytest.param(None, 200, id="None")])
def test_cells_match_np_unique(monkeypatch, chunk, examples):
    if chunk is not None:
        monkeypatch.setattr(approx_sets, "_CHUNK", chunk)

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(p=_params())
    # every cut of one form is a cut of the other: a = b with c = d, and b = 2a
    @example(p=FracParams(3, 3, 0.2, 0.2))
    @example(p=FracParams(41.9, 41.9, -0.2, -0.2))
    @example(p=FracParams(2, 4))
    @example(p=FracParams(2, 4, 0.5, 0.5))
    # cuts at exactly 0 and 1, which are dropped in favour of the edges
    @example(p=FracParams(5, 7, 0.5, -0.5))
    # a and b one ulp apart: nearly every cut has a twin a rounding away
    @example(p=FracParams(29.3, math.nextafter(29.3, 30.0), 0.1, 0.1))
    def check(p):
        # the walked cells are the consecutive cuts, bit for bit, and each
        # lies in the windows of its integers (on a cell one float wide,
        # not always the integers nearest at its midpoint)
        lo, hi, k, q = map(np.concatenate, zip(*_cells(p)))
        cuts = _unique_cuts(p)
        assert lo.tobytes() == cuts[:-1].tobytes()
        assert hi.tobytes() == cuts[1:].tobytes()
        for coef, shift, j in ((p.a, p.c, k), (p.b, p.d, q)):
            assert np.all((j - 0.5 - shift) / coef <= lo)
            assert np.all(hi <= (j + 0.5 - shift) / coef)

    check()


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


def _joined_cases():
    # the chunked cases, cells whose cuts all coincide (a = b with c = d,
    # and b = 2a) at delta = 1/2, where most pieces touch at cuts, and the
    # worked example for n <= 10 (n = 1 has delta > 1/2, the full set)
    yield from _chunked_cases()
    for p in (FracParams(3, 3, 0.2, 0.2), FracParams(41.9, 41.9, -0.2, -0.2),
              FracParams(2, 4), FracParams(2, 4, 0.5, 0.5), FracParams(7.5, 15, 0.1, 0.3)):
        yield p, 0.5
    yield from _worked_example(range(2, 11))


def _assert_product_set_is_normalized_pieces(cases):
    # reference: normalize of every piece at once, bit for bit
    for p, delta in cases:
        got = product_set(p, delta)
        want = intervals.normalize(tuple(map(np.concatenate,
                                             zip(*_product_pieces(p, delta)))))
        assert got.los.tobytes() == want.los.tobytes()
        assert got.his.tobytes() == want.his.tobytes()


@pytest.mark.parametrize("chunk", [7, 1 << 19, None])
def test_product_set_independent_of_chunk_size(monkeypatch, chunk):
    # a patched chunk gives the default chunk's bytes; at every chunk the
    # set is its pieces normalized (at 7 cells, joins cross chunk edges)
    if chunk is not None:
        default = [product_set(p, delta) for p, delta in _chunked_cases()]
        monkeypatch.setattr(approx_sets, "_CHUNK", chunk)
        for want, (p, delta) in zip(default, _chunked_cases()):
            got = product_set(p, delta)
            assert got.los.tobytes() == want.los.tobytes()
            assert got.his.tobytes() == want.his.tobytes()
    _assert_product_set_is_normalized_pieces(_joined_cases())


def test_product_set_peak_memory_is_about_twice_its_output():
    # the chunks and their concatenation, about 2x; normalize's clipped,
    # masked and joined copies on top of the gathered pieces reach 3.13x
    p, delta = FracParams(73.9, 889416, 0.3, -1.2), 6.4e-4
    tracemalloc.start()
    try:
        e = product_set(p, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(e) == 889471
    assert peak <= 2.25 * (e.los.nbytes + e.his.nbytes)


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
    # windows are counted in chunks; in the last case most of them touch
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


def _pair_cases():
    # both thresholds below 1/2: the window-pair path, one chunk or many
    for p, delta in _chunked_cases():
        yield p, delta, delta
        yield p, min(8.0 * delta, 0.45), 0.5 * delta
        yield p, 0.5 * delta, min(8.0 * delta, 0.45)


@pytest.mark.parametrize("chunk", [7, 1 << 19])
def test_window_walk_independent_of_chunk_size(monkeypatch, chunk):
    def walk():
        return [(simultaneous_set(p, eta, xi), cover_simultaneous(p, eta, xi),
                 count_near_pairs(p, eta, xi)) for p, eta, xi in _pair_cases()]

    want = walk()
    monkeypatch.setattr(approx_sets, "_CHUNK", chunk)
    for (f, pieces, count), (g, got_pieces, got_count) in zip(want, walk()):
        assert g.los.tobytes() == f.los.tobytes()
        assert g.his.tobytes() == f.his.tobytes()
        assert (got_pieces, got_count) == (pieces, count)


def test_window_walk_memory_is_bounded_by_chunk(monkeypatch):
    # with _CHUNK = 64 no window array is built over more than 64 indices,
    # on the pair path, the one-sided path, the planar factor counts and at
    # a threshold where the windows touch
    sizes = []

    def spy(coef, shift, eps, k=None):
        if k is not None:
            sizes.append(k.size)
        return _windows(coef, shift, eps, k)

    monkeypatch.setattr(approx_sets, "_CHUNK", 64)
    monkeypatch.setattr(approx_sets, "_windows", spy)
    p = FracParams(3.3, 4e4 + 0.7, 0.1, 0.37)
    simultaneous_set(p, 0.3, 0.3)
    cover_simultaneous(p, 0.3, 0.3)
    cover_simultaneous(p, 0.7, 0.3)
    cover_rectangles(p, 0.3, 0.3, 0.5)
    simultaneous_set(p, 0.3, 0.5 - 3e-13)
    cover_simultaneous(p, 0.5 - 3e-13, 0.5 - 3e-13)
    assert len(sizes) > 1000 and max(sizes) <= 64


def test_piece_counts_stop_at_the_overflowing_chunk(monkeypatch):
    # the first pair's count overflows in its first chunk: the walk stops
    # there, one chunk of _joined's look-ahead later, not after the 62
    # chunks of all ten pairs, and the first overflowing mesh is named
    chunks = []
    overlaps = approx_sets._overlaps

    def counted(*args):
        for chunk in overlaps(*args):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(approx_sets, "_overlaps", counted)
    meshes = np.array([1e-320] + [1e-3] * 8 + [1e-321])
    with pytest.raises(ValueError, match=r"^mesh 1e-320 is too fine"):
        approx_sets._piece_counts(FracParams(1, 1e5), np.full(10, 0.5), np.full(10, 0.01),
                                  meshes)
    assert len(chunks) == 2


def test_touching_windows_join_across_chunks(monkeypatch):
    # 155,904 of the 160,000 neighbouring b-windows touch in floats, and
    # chunks of 7 windows cut chains of them: the joins across chunk edges
    # give the dense set's 4,097 components
    p, eta, xi = FracParams(1, 1.6e5), 0.6, 0.5 - 3e-13
    want = _dense_simultaneous(p, eta, xi)
    mesh = min(eta / p.a, xi / p.b)
    monkeypatch.setattr(approx_sets, "_CHUNK", 7)
    got = simultaneous_set(p, eta, xi)
    assert len(want) == 4097
    assert got.los.tobytes() == want.los.tobytes()
    assert got.his.tobytes() == want.his.tobytes()
    assert cover_simultaneous(p, eta, xi) == \
        (int(mesh_piece_counts(want.los, want.his, mesh).sum()), mesh)


def test_simultaneous_set_keeps_gaps_below_1e_12():
    # the 2e-13 gap between the two windows is a gap of the set
    p, eps = FracParams(1, 1), 0.5 - 1e-13
    f = simultaneous_set(p, eps, eps)
    assert f == _dense_simultaneous(p, eps, eps)
    assert f.pairs() == [(0.0, eps), (1.0 - eps, 1.0)]


def test_cover_cost_builds_no_interval_set(monkeypatch):
    # criterion-7 covers, the last annuli at thresholds of 1/2 and above
    # included, and an annulus at 1/2 - 3e-13, where windows touch, are
    # counted from windows with normalize and intersect gone
    cases = [*_criterion_7_instances(20), (FracParams(3, 1.6e5, 1, 2), (0.5 - 3e-13) / 4)]
    assert any(2.0 ** len(dyadic_annuli(delta)) * delta >= 0.5 for _, delta in cases)
    want = [annulus_cover_cost(delta, lambda pairs: [_set_count(p, *t) for t in pairs])
            for p, delta in cases]

    def refuse(*args):
        raise AssertionError("interval set built")

    # approx_sets imports no normalize: the patch stands in for one
    for module in (intervals, approx_sets):
        monkeypatch.setattr(module, "normalize", refuse, raising=False)
        monkeypatch.setattr(module, "intersect", refuse)
    assert [product_set_cover_cost(p, delta) for p, delta in cases] == want


def _batched_cases():
    # random instances with b < 3000, whose plane covers walk every
    # b-window once per pair; a = 6, whose 7 a-windows fill a chunk of 7, so
    # that a chunk edge falls where one pair's last window reaches 1 and the
    # next pair's first starts at 0; windows that touch in floats at
    # 1/2 - 3e-13; and the vacuous factors of the last annulus
    yield from list(_chunked_cases())[:6]
    yield FracParams(6, 40.3, 0.0, 0.2), 0.01
    yield FracParams(3, 1.6e4, 1, 2), (0.5 - 3e-13) / 4
    yield FracParams(3, 1.6e4, 1, 2), 0.5 - 3e-13


@pytest.mark.parametrize("chunk", [7, 64, None])
def test_batched_pairs_equal_their_one_pair_counts(monkeypatch, chunk):
    # every pair counted on the shared walk, on the line and in the plane,
    # equals its count alone
    want = [(annulus_cover_cost(delta, lambda pairs: [cover_simultaneous(p, *t)
                                                      for t in pairs]),
             annulus_cover_cost(delta, lambda pairs: [_square_counts(p, [t])[0]
                                                      for t in pairs]))
            for p, delta in _batched_cases()]
    if chunk is not None:
        monkeypatch.setattr(approx_sets, "_CHUNK", chunk)
    assert [(product_set_cover_cost(p, delta), decompose_planar_product_set(p, delta))
            for p, delta in _batched_cases()] == want


def test_joined_never_joins_two_tags():
    # within a chunk and across a chunk edge, pieces that touch or overlap
    # stay apart when their tags differ
    tagged = [(np.array([0.0, 0.5, 0.25]), np.array([0.5, 1.0, 0.75]), np.array([0, 0, 1])),
              (np.array([0.0]), np.array([0.3]), np.array([2]))]
    got = [tuple(a.tolist() for a in chunk) for chunk in approx_sets._joined(tagged)]
    assert got == [([0.0, 0.25], [1.0, 0.75], [0, 1]), ([0.0], [0.3], [2])]


def test_cover_cost_walks_each_factor_once(monkeypatch):
    # the 27 pairs at delta = 1e-4 share one a-walk and one b-walk, where
    # each pair walked each live factor on its own
    coefs, runs = [], approx_sets._runs

    def spy(coef, *args):
        coefs.append(coef)
        return runs(coef, *args)

    monkeypatch.setattr(approx_sets, "_runs", spy)
    p = FracParams(100, 1e5, 0.3, -0.6)
    cost = product_set_cover_cost(p, 1e-4)
    assert 1 + len(cost.first_far) + len(cost.second_far) == 27
    assert coefs == [p.a, p.b]


def test_cover_cost_peak_memory_is_bounded():
    # a pair whose own a-windows pass the chunk forms its own group, so one
    # a-set is held at a time: the peak stays within 1.25x the 10,740,563
    # bytes of the pair-by-pair walk (tracemalloc, numpy 2.4)
    tracemalloc.start()
    try:
        product_set_cover_cost(FracParams(2e5, 3e5), 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 10_740_563


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
