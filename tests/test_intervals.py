import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diophlab.intervals import (CellCapExceeded, IntervalSet, box_count, complement,
                                difference, intersect, lebesgue, mesh_cover,
                                normalize, premeasure_upper,
                                symmetric_difference, union, union_many)


def test_normalize_drops_reversed():
    assert normalize([(0.5, 0.2)]).is_empty()


def test_normalize_merges_overlap():
    assert normalize([(0, 0.3), (0.2, 0.5)]).pairs() == [(0.0, 0.5)]


def test_normalize_joins_touching_and_keeps_one_ulp_gap():
    # pieces that touch join; a gap of one ulp is a gap and is kept
    assert normalize([(0, 0.1), (0.1, 0.2)]).pairs() == [(0.0, 0.2)]
    up = math.nextafter(0.1, 1.0)
    assert normalize([(0, 0.1), (up, 0.2)]).pairs() == [(0.0, 0.1), (up, 0.2)]


def test_normalize_clips_to_unit_interval():
    assert normalize([(-0.5, 0.25), (0.9, 1.7)]).pairs() == [(0.0, 0.25), (0.9, 1.0)]


def test_normalize_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(50):
        raw = rng.random((20, 2))
        s = normalize(raw.tolist())
        again = normalize(s.pairs())
        assert s == again


def _normalize_oracle(raw) -> IntervalSet:
    """normalize as a sort, a running max of his and a maximum.reduceat over
    each component, with no shortcut for sorted input."""
    arr = np.asarray(list(raw), dtype=float).reshape(-1, 2)
    los = np.clip(arr[:, 0], 0.0, 1.0)
    his = np.clip(arr[:, 1], 0.0, 1.0)
    keep = his > los
    los, his = los[keep], his[keep]
    if los.size == 0:
        return IntervalSet.empty()
    order = np.argsort(los, kind="stable")
    los, his = los[order], his[order]
    reach = np.maximum.accumulate(his)
    starts = np.empty(los.size, dtype=bool)
    starts[0] = True
    starts[1:] = los[1:] > reach[:-1]
    first = np.flatnonzero(starts)
    return IntervalSet(los[first], np.maximum.reduceat(his, first))


# endpoints on and outside the edges of [0, 1], signed zeros and NaN
_ENDPOINT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, -0.25, 1.25, math.nan]),
    st.floats(-0.25, 1.25))
# gaps after an earlier piece: overlaps, touches, and gaps from a few ulp
# up, many near 1e-12
_GAP = st.sampled_from([-0.05, -1e-12, 0.0, 5e-16, 0.999e-12,
                        1e-12, 1.001e-12, 2e-12, 0.01])


@st.composite
def _raw_pieces(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 12))):
        how = draw(st.sampled_from(["free", "after", "nested", "tied"]))
        if how == "free" or not pieces:
            pieces.append((draw(_ENDPOINT), draw(_ENDPOINT)))
            continue
        lo, hi = draw(st.sampled_from(pieces))
        if how == "after":
            start = hi + draw(_GAP)
            pieces.append((start, start + draw(st.floats(0.0, 0.1))))
        elif how == "nested":
            pieces.append((lo + (hi - lo) / 3, hi - (hi - lo) / 3))
        else:
            pieces.append((lo, draw(_ENDPOINT)))
    order = draw(st.sampled_from(["drawn", "by-lo", "reversed"]))
    if order == "by-lo":
        pieces.sort(key=lambda piece: (piece[0], piece[1]))
    elif order == "reversed":
        pieces.reverse()
    return pieces


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(pieces=_raw_pieces())
@example(pieces=[(0.1, 0.2), (0.2 + 1e-12, 0.3), (0.3 + 2e-12, 0.4)])
@example(pieces=[(0.0, 0.9), (0.1, 0.2), (0.3, 0.4), (0.95, 1.0)])
@example(pieces=[(-0.0, 0.5), (0.5, 0.5), (math.nan, 0.7), (0.6, math.nan)])
def test_normalize_matches_reduceat_oracle(pieces):
    # bit for bit, signed zeros included, from either input form
    want = _normalize_oracle(pieces)
    arr = np.array(pieces, dtype=float).reshape(-1, 2)
    for got in (normalize(pieces), normalize((arr[:, 0], arr[:, 1]))):
        assert got.los.tobytes() == want.los.tobytes()
        assert got.his.tobytes() == want.his.tobytes()


def test_intersect_examples():
    x = normalize([(0, 0.5)])
    assert intersect(x, IntervalSet.empty()).is_empty()
    assert intersect(x, normalize([(0.25, 1)])).pairs() == [(0.25, 0.5)]
    assert intersect(x, IntervalSet.full()) == x


def test_union_difference_symdiff_examples():
    x = normalize([(0, 0.5)])
    assert symmetric_difference(x, x).is_empty()
    assert union(x, normalize([(0.5, 1)])).pairs() == [(0.0, 1.0)]
    assert difference(IntervalSet.full(), normalize([(0.4, 0.6)])).pairs() == \
        [(0.0, 0.4), (0.6, 1.0)]


def test_boolean_ops_keep_one_ulp_segments():
    # a midpoint test drops [0.9, 0.9 + ulp): the midpoint of two adjacent
    # floats rounds onto one of them
    x = normalize([(0.9, 0.95)])
    y = normalize([(math.nextafter(0.9, 1.0), 0.95)])
    assert difference(x, y).pairs() == [(0.9, math.nextafter(0.9, 1.0))]
    assert symmetric_difference(x, y) == difference(x, y)
    assert difference(y, x).is_empty() and union(x, y) == x
    empty = IntervalSet.empty()
    assert difference(x, empty) == x and union(empty, x) == x
    assert difference(empty, x).is_empty() and symmetric_difference(empty, empty).is_empty()


def _sweep_oracle(x: IntervalSet, y: IntervalSet, keep) -> IntervalSet:
    """Boolean combination by a sweep over every endpoint of x and y.

    No endpoint lies inside an elementary segment [p_i, p_(i+1)), so each
    segment is inside or outside each input as its left end p_i is, by the
    half-open test lo <= p < hi; `keep(in_x, in_y)` selects the segments
    that survive, and runs of them are merged.
    """
    pts = np.unique(np.concatenate([x.los, x.his, y.los, y.his]))
    if pts.size < 2:
        return IntervalSet.empty()
    left = pts[:-1]

    def starts_in(s):
        if s.is_empty():
            return np.zeros(left.shape, dtype=bool)
        idx = np.searchsorted(s.los, left, side="right") - 1
        return (idx >= 0) & (left < s.his[np.maximum(idx, 0)])

    sel = keep(starts_in(x), starts_in(y))
    if not sel.any():
        return IntervalSet.empty()
    starts = np.flatnonzero(sel & ~np.concatenate([[False], sel[:-1]]))
    ends = np.flatnonzero(sel & ~np.concatenate([sel[1:], [False]]))
    return normalize((pts[starts], pts[ends + 1]))


_BOOLEAN_OPS = [(intersect, lambda a, b: a & b), (union, lambda a, b: a | b),
                (difference, lambda a, b: a & ~b),
                (symmetric_difference, lambda a, b: a ^ b)]


def _assert_ops_match_sweep(x, y):
    for first, second in ((x, y), (y, x)):
        for op, keep in _BOOLEAN_OPS:
            got, want = op(first, second), _sweep_oracle(first, second, keep)
            assert got.los.tobytes() == want.los.tobytes(), op.__name__
            assert got.his.tobytes() == want.his.tobytes(), op.__name__
            # intersect and difference return the sweep's pairs without a
            # normalize: normal form means strictly increasing endpoints,
            # so no piece is empty and no two touch
            ends = np.column_stack([got.los, got.his]).ravel()
            assert np.all(ends[1:] > ends[:-1]), op.__name__
            assert ends.size == 0 or (ends[0] >= 0.0 and ends[-1] <= 1.0), op.__name__


def test_boolean_ops_match_endpoint_sweep_on_jittered_pairs():
    # y's endpoints are x's endpoints and random points, each moved by
    # -1, 0 or +1 ulp, so that elementary segments one ulp wide abound
    rng = np.random.default_rng(11)
    for _ in range(2000):
        xs = np.sort(rng.random(12))
        x = normalize((xs[0::2], xs[1::2]))
        pool = np.concatenate([x.los, x.his, rng.random(4)])
        step = rng.integers(-1, 2, pool.size)
        pool[step < 0] = np.nextafter(pool[step < 0], -np.inf)
        pool[step > 0] = np.nextafter(pool[step > 0], np.inf)
        ys = np.sort(pool)
        y = normalize((ys[0::2], ys[1::2]))
        _assert_ops_match_sweep(x, y)


def _set_from(points) -> IntervalSet:
    pts = np.sort(np.asarray(points, dtype=float))
    return normalize((pts[0:-1:2], pts[1::2]))


# moves of a shared endpoint: none, one ulp either way, 1e-12 and 2e-12
# either way, and 1e-3
_SHIFT = st.sampled_from([0.0, "up", "down", 1e-12, -1e-12,
                          2e-12, -2e-12, 1e-3])


@st.composite
def _set_pairs(draw):
    unit = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
    x = _set_from(draw(st.lists(unit, max_size=10)))
    pool = []
    for _ in range(draw(st.integers(0, 10))):
        how = draw(st.sampled_from(["shared", "nested", "free"]))
        if how == "free" or x.is_empty():
            pool.append(draw(unit))
            continue
        i = draw(st.integers(0, len(x) - 1))
        lo, hi = float(x.los[i]), float(x.his[i])
        if how == "nested":
            pool.append(lo + (hi - lo) * draw(st.sampled_from([0.25, 0.5, 0.75])))
            continue
        p, shift = draw(st.sampled_from([lo, hi])), draw(_SHIFT)
        if shift == "up":
            p = math.nextafter(p, 2.0)
        elif shift == "down":
            p = math.nextafter(p, -1.0)
        else:
            p += shift
        pool.append(p)
    return x, _set_from(pool)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(pair=_set_pairs())
@example(pair=(IntervalSet.empty(), IntervalSet.empty()))
@example(pair=(IntervalSet.empty(), IntervalSet.full()))
@example(pair=(IntervalSet.full(), IntervalSet.full()))
@example(pair=(IntervalSet.full(), normalize([(0.2, 0.4), (0.6, 0.8)])))
@example(pair=(normalize([(0.0, 0.5)]), normalize([(0.5, 1.0)])))
@example(pair=(normalize([(0.1, 0.3), (0.5, 0.7)]), normalize([(0.3, 0.5)])))
@example(pair=(normalize([(0.1, 0.9)]), normalize([(0.1, 0.2), (0.8, 0.9)])))
def test_boolean_ops_match_endpoint_sweep_oracle(pair):
    # touching, nested and shared endpoints, the empty set and [0, 1]
    _assert_ops_match_sweep(*pair)


def test_inclusion_exclusion_randomized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = normalize(rng.random((8, 2)).tolist())
        y = normalize(rng.random((8, 2)).tolist())
        lhs = lebesgue(union(x, y)) + lebesgue(intersect(x, y))
        rhs = lebesgue(x) + lebesgue(y)
        assert abs(lhs - rhs) < 1e-12
        assert complement(complement(x)) == x
        assert abs(lebesgue(x) + lebesgue(complement(x)) - 1.0) < 1e-12


def test_lebesgue_examples():
    assert lebesgue(IntervalSet.empty()) == 0.0
    d = 0.125
    assert lebesgue(normalize([(0, d), (1 - d, 1)])) == pytest.approx(2 * d)
    assert lebesgue(normalize([(0.1, 0.2), (0.5, 0.9)])) == pytest.approx(0.5)


def test_premeasure_examples():
    assert premeasure_upper(IntervalSet.empty(), 0.5, 0.25) == 0.0
    assert premeasure_upper(IntervalSet.full(), 1.0, 0.1) == pytest.approx(0.5)
    # single piece of radius mesh/2
    got = premeasure_upper(normalize([(0, 0.25)]), 0.5, 0.25)
    assert got == pytest.approx(0.125 ** 0.5, abs=1e-6)


def test_premeasure_domain_errors():
    with pytest.raises(ValueError):
        premeasure_upper(IntervalSet.full(), 0.0, 0.1)
    with pytest.raises(ValueError):
        premeasure_upper(IntervalSet.full(), 0.5, -1.0)


def test_premeasure_converges_to_half_measure():
    # with the radius = length/2 convention the s = 1 premeasure of the
    # canonical cover carries a factor 1/2 against Lebesgue measure
    rng = np.random.default_rng(3)
    x = normalize(rng.random((6, 2)).tolist())
    leb = lebesgue(x)
    for k in range(1, 21):
        mesh = 2.0 ** -k
        doubled = 2.0 * premeasure_upper(x, 1.0, mesh)
        assert doubled >= leb - 1e-12
        assert doubled <= leb + mesh * len(x) + 1e-12


def test_premeasure_piece_term_reversed_in_s():
    for mesh in (0.5, 0.1, 0.01):
        r = mesh / 2.0
        for s1, s2 in ((0.2, 0.4), (0.5, 0.9)):
            assert r ** s1 >= r ** s2


def test_box_count_examples():
    assert box_count(IntervalSet.full(), 2.0 ** -3) == 8
    assert box_count(IntervalSet.empty(), 0.25) == 0
    assert box_count(normalize([(0.1, 0.3)]), 0.25) == 2


def test_box_count_rejects_non_dyadic():
    with pytest.raises(ValueError):
        box_count(IntervalSet.full(), 0.3)


def test_box_count_dominates_measure():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = normalize(rng.random((10, 2)).tolist())
        for k in (1, 3, 6):
            scale = 2.0 ** -k
            assert box_count(x, scale) * scale >= lebesgue(x) - 1e-12


def test_box_count_touching_components_share_a_box():
    x = normalize([(0.26, 0.3), (0.4, 0.45)])
    assert box_count(x, 0.25) == 1


def test_mesh_cover_contains_and_counts():
    x = normalize([(0.05, 0.31), (0.7, 0.72)])
    cov = mesh_cover(x, 0.1)
    assert cov.count == 3 + 1
    assert cov.covers(x)


def test_mesh_cover_refuses_a_count_past_the_largest_float():
    # 1/1e-320 overflows: the count is inf, which int() could not take
    with pytest.raises(CellCapExceeded, match="inf cover pieces of mesh 1e-320"):
        mesh_cover(IntervalSet.full(), 1e-320)


@pytest.mark.parametrize("mesh", [0.0, -1.0, math.inf, math.nan])
def test_every_mesh_user_refuses_a_mesh_by_one_rule(mesh):
    # one message from check_mesh: mesh_cover laid out a NaN piece at inf
    # and premeasure_upper had a message of its own
    message = rf"^mesh must be positive and finite, got {mesh}$"
    with pytest.raises(ValueError, match=message):
        mesh_cover(IntervalSet.full(), mesh)
    with pytest.raises(ValueError, match=message):
        premeasure_upper(IntervalSet.full(), 0.5, mesh)


def test_union_many_matches_iterated_union():
    rng = np.random.default_rng(5)
    sets = [normalize(rng.random((5, 2)).tolist()) for _ in range(6)]
    merged = union_many(sets)
    step = IntervalSet.empty()
    for s in sets:
        step = union(step, s)
    assert abs(lebesgue(symmetric_difference(merged, step))) < 1e-15


def test_endpoint_distance_is_the_nearest_endpoint():
    rng = np.random.default_rng(5)
    sets = [normalize([(0.0, 0.1), (0.25, 0.5), (0.7, 1.0)]),
            normalize([(0.3, 0.4)]),
            normalize(np.sort(rng.random((40, 2)), axis=1).tolist())]
    for x_set in sets:
        ends = np.concatenate([x_set.los, x_set.his])
        # every endpoint, the midpoints between neighbours, and points beyond
        x = np.concatenate([ends, (ends[:-1] + np.sort(ends)[1:]) / 2,
                            [-0.5, 0.0, 0.05, 0.175, 0.6, 1.0, 1.5], rng.random(200)])
        brute = np.min(np.abs(x[:, None] - ends[None, :]), axis=1)
        assert np.array_equal(x_set.endpoint_distance(x), brute)
        assert np.all(x_set.endpoint_distance(ends) == 0.0)
    assert np.array_equal(IntervalSet.empty().endpoint_distance([0.0, 0.5, 2.0]),
                          np.full(3, np.inf))
