import hashlib
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from diophlab.approx_sets import FracParams, product_set
from diophlab.dimension import (N_MAX, _TERMS, SeriesSpec, _growth, _term_descriptors,
                                compute_tau, converges, single_series_threshold,
                                estimate_box_dimension, term_value)
from diophlab.intervals import CellCapExceeded, box_count
from diophlab.sequences import PsiSpec, SequenceSpec

EXP23 = SequenceSpec(kind="exponential", a=2, b=3)
PSI_THIRD = PsiSpec(kind="exponential", lam=math.log(3))
PINNED_TAU_DIGEST = ("8190957ae1f41e0035acce255b2c8aac"
                     "ac6bf1b4a7a52a850da63f5b54f813f0")


def spec(family, seq=EXP23, psi=PSI_THIRD):
    return SeriesSpec(seq=seq, psi=psi, family=family)


def test_scaled_base_specs_over_different_sequences_differ():
    # psi = 3^-n and psi = 5^-n, both scaled-base with t = 1, differ only in
    # the bound sequence they scale, so equality and hash must cover it
    third = spec("plain", psi=PsiSpec(kind="scaled-base", t=1.0, seq=EXP23))
    fifth = spec("plain", psi=PsiSpec(kind="scaled-base", t=1.0,
                                      seq=SequenceSpec(kind="exponential", a=2, b=5)))
    assert third != fifth and hash(third) != hash(fifth)
    assert compute_tau(third).tau == pytest.approx(0.5)
    assert compute_tau(fifth).tau == pytest.approx(math.log(3) / math.log(15))


def test_term_zero_psi_gives_zero():
    psi0 = PsiSpec(kind="explicit-table", values=(0.0,) * 5)
    for family in ("plain", "two-term", "four-term"):
        assert term_value(spec(family, psi=psi0), 0.5, 3) == 0.0
    assert term_value(spec("lebesgue", psi=psi0), 1.0, 3) == 0.0


def test_term_two_term_worked_value():
    got = term_value(spec("two-term"), 0.5, 1)
    assert got == pytest.approx(1.0 + 2.0 * 18 ** -0.25, abs=1e-12)
    assert got == pytest.approx(1.9710, abs=1e-4)


def test_term_plain_linear_algebra():
    seq = SequenceSpec(kind="linear", a=1, b=1)
    psi = PsiSpec(kind="power", t=2)
    for n in (1, 4, 9):
        assert term_value(SeriesSpec(seq=seq, psi=psi, family="plain"), 0.5, n) == \
            pytest.approx(n ** -0.5)


def test_term_rejects_bad_s():
    with pytest.raises(ValueError):
        term_value(spec("two-term"), 1.0, 1)
    with pytest.raises(ValueError):
        term_value(spec("lebesgue"), 0.5, 1)


def test_converges_threshold_split():
    # plain family at t = 1 flips at s = 1/(1+t) = 1/2
    assert converges(spec("plain"), 0.6).verdict is True
    assert converges(spec("plain"), 0.4).verdict is False


def test_converges_zero_psi_everywhere():
    psi0 = PsiSpec(kind="explicit-table", values=(0.0,) * 12)
    for s in (0.1, 0.5, 0.9):
        assert converges(spec("plain", psi=psi0), s).verdict is True


def test_converges_constant_psi_diverges():
    flat = PsiSpec(kind="exponential", lam=0.0)  # psi = 1 for every n
    v = converges(spec("lebesgue", psi=flat), 1.0)
    assert v.verdict is False
    for family in ("two-term", "gcd", "four-term"):
        assert converges(spec(family, psi=flat), 0.5).verdict is False


def test_converges_table_heuristics():
    geo = PsiSpec(kind="explicit-table", values=tuple(0.5 ** n for n in range(1, 31)))
    seq = SequenceSpec(kind="explicit-table",
                       a_table=(1.0,) * 30, b_table=(2.0,) * 30)
    assert converges(SeriesSpec(seq=seq, psi=geo, family="plain"), 0.9).verdict is True
    flat = PsiSpec(kind="explicit-table", values=(0.8,) * 30)
    assert converges(SeriesSpec(seq=seq, psi=flat, family="plain"), 0.5).verdict is False


def test_converges_table_p_series():
    # psi(n) = n^-2 over a_n = 1, b_n = 2: the terms 2^(1-s) n^(-2s) sum
    # to a finite value for s > 1/2 only, and the fit reads no geometric rate
    seq = SequenceSpec(kind="explicit-table", a_table=(1.0,) * 200, b_table=(2.0,) * 200)
    psi = PsiSpec(kind="explicit-table", values=tuple(n ** -2.0 for n in range(1, 201)))
    spec = SeriesSpec(seq=seq, psi=psi, family="plain")
    verdicts = {s: converges(spec, s) for s in (0.1, 0.3, 0.5, 0.7, 0.9)}
    assert all(v.certificate["rates"] == [0.0] for v in verdicts.values())
    assert [verdicts[s].verdict for s in (0.1, 0.3)] == [False, False]
    assert verdicts[0.5].verdict is None
    assert [verdicts[s].verdict for s in (0.7, 0.9)] == [True, True]
    assert compute_tau(spec).tau == pytest.approx(0.5, abs=1e-3)
    # the same terms at even n only, psi = 0 at odd n: the same verdicts
    even = PsiSpec(kind="explicit-table",
                   values=tuple(n ** -2.0 if n % 2 == 0 else 0.0 for n in range(1, 201)))
    spec = SeriesSpec(seq=seq, psi=even, family="plain")
    assert [converges(spec, s).verdict for s in (0.3, 0.5, 0.7)] == [False, None, True]


def test_second_term_threshold_value():
    # the ratio-power term flips at 2 log 2 / log 18; the family as a whole
    # flips at the larger first-term threshold 1/2
    thr = 2 * math.log(2) / (math.log(3) + math.log(6))
    res = compute_tau(spec("two-term"))
    assert res.thresholds[1] == pytest.approx(thr, abs=1e-12)
    assert thr == pytest.approx(0.4796, abs=1e-4)
    assert converges(spec("two-term"), 0.51).verdict is True
    assert converges(spec("two-term"), 0.49).verdict is False
    rates = converges(spec("two-term"), thr + 0.01).certificate["rates"]
    assert rates[1] < 0.0 < rates[0]


def test_tau_worked_example():
    res = compute_tau(spec("two-term"))
    assert res.method == "closed-form"
    assert res.tau == pytest.approx(0.5, abs=1e-9)


def test_tau_plain_power_law():
    for t in (0.5, 1.0, 2.0, 4.0):
        psi = PsiSpec(kind="scaled-base", t=t, seq=EXP23)
        res = compute_tau(spec("plain", psi=psi))
        assert res.tau == pytest.approx(1.0 / (1.0 + t), abs=1e-12)


def test_tau_two_term_dominates_plain():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = float(rng.uniform(1.1, 9))
        b = float(rng.uniform(a + 0.1, 80))
        seq = SequenceSpec(kind="exponential", a=a, b=b)
        psi = PsiSpec(kind="scaled-base", t=float(rng.uniform(0.2, 4)), seq=seq)
        plain = compute_tau(SeriesSpec(seq=seq, psi=psi, family="plain"))
        two = compute_tau(SeriesSpec(seq=seq, psi=psi, family="two-term"))
        assert two.tau >= plain.tau - 1e-12
        assert max(two.thresholds) >= two.thresholds[0]


def test_two_term_collapses_when_a_squared_below_b():
    # grid over a in (1, sqrt(b)], t in [0.1, 5]
    for b in (4.0, 10.0, 50.0):
        for a in np.linspace(1.05, math.sqrt(b), 6):
            seq = SequenceSpec(kind="exponential", a=float(a), b=b)
            for t in np.linspace(0.1, 5.0, 8):
                psi = PsiSpec(kind="scaled-base", t=float(t), seq=seq)
                plain = compute_tau(SeriesSpec(seq=seq, psi=psi, family="plain"))
                two = compute_tau(SeriesSpec(seq=seq, psi=psi, family="two-term"))
                assert two.tau == pytest.approx(plain.tau, abs=1e-12)


def _tau_grid_reprs():
    """repr of compute_tau (closed form and numeric) and of each convergence
    verdict, with its certificate when closed-form, over families x
    sequence kinds x psi kinds."""
    tab = SequenceSpec(kind="explicit-table", a_table=tuple(2.0 ** n for n in range(1, 25)),
                       b_table=tuple(3.0 ** n for n in range(1, 25)))
    itab = SequenceSpec(kind="integer-table", a_table=tuple(2.0 ** n for n in range(1, 25)),
                        b_table=tuple(6.0 ** n for n in range(1, 25)))
    seqs = [EXP23, SequenceSpec(kind="exponential", a=2, b=6),
            SequenceSpec(kind="exponential", a=1.5, b=4.2),
            SequenceSpec(kind="linear", a=1, b=2), tab, itab]
    out = []
    for seq in seqs:
        psis = [PsiSpec(kind="power", t=0.5), PsiSpec(kind="power", t=2.0),
                PsiSpec(kind="exponential", lam=0.0), PSI_THIRD,
                PsiSpec(kind="scaled-base", t=0.5, seq=seq),
                PsiSpec(kind="scaled-base", t=1.5, seq=seq),
                PsiSpec(kind="explicit-table", values=tuple(3.0 ** -n for n in range(1, 25)))]
        for psi in psis:
            for family in ("plain", "two-term", "gcd", "four-term", "lebesgue"):
                if family == "gcd" and not seq.is_integer():
                    continue
                s = SeriesSpec(seq=seq, psi=psi, family=family)
                for numeric in (False, True):
                    try:
                        out.append(repr(compute_tau(s, numeric=numeric)))
                    except ValueError as exc:
                        out.append(repr(exc))
                for x in ((1.0,) if family == "lebesgue" else (0.3, 0.6, 0.9)):
                    v = converges(s, x)
                    closed = v.certificate.get("method") == "closed-form"
                    out.append(repr(v) if closed else repr(v.verdict))
    return out


def test_tau_results_are_pinned():
    # every bit of tau, its thresholds and the closed-form certificates,
    # signs of zero included; `diophlab tau` prints them in full
    text = "\n".join(_tau_grid_reprs())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TAU_DIGEST


def test_tail_fit_matches_closed_form():
    # the tail fit, forced by numeric=True or taken for a psi table, gives
    # the closed form's tau.  It fits each feature, not the whole log-term:
    # the logaddexp of two power laws is no power law on a finite tail, so
    # a fit of the sum misses wherever two terms grow polynomially
    rng = np.random.default_rng(42)
    cases = []
    for family in ("two-term", "plain", "four-term", "gcd"):
        for _ in range(15):
            if family == "gcd":  # integer bases
                a = float(rng.integers(2, 11))
                b = float(rng.integers(a + 1, 101))
            else:
                a = float(rng.uniform(1.2, 10))
                b = float(rng.uniform(a * 1.01, 100))
            seq = SequenceSpec(kind="exponential", a=a, b=b)
            psi = PsiSpec(kind="scaled-base", t=float(rng.uniform(0.2, 3)), seq=seq)
            s = SeriesSpec(seq=seq, psi=psi, family=family)
            cases.append((s, s))
    # linear sequences with power psi: pure p-series terms
    for family in ("plain", "two-term", "four-term"):
        for a, b, t in ((2, 5, 2.8), (1, 1, 0.5), (1.5, 40, 4.0)):
            s = SeriesSpec(seq=SequenceSpec(kind="linear", a=a, b=b),
                           psi=PsiSpec(kind="power", t=t), family=family)
            cases.append((s, s))
    # psi = 3^-n as a 24-entry table against its exponential form
    seq = SequenceSpec(kind="exponential", a=1.5, b=4.2)
    table = PsiSpec(kind="explicit-table", values=tuple(3.0 ** -n for n in range(1, 25)))
    for family in ("plain", "two-term", "four-term"):
        cases.append((SeriesSpec(seq=seq, psi=table, family=family),
                      SeriesSpec(seq=seq, psi=PSI_THIRD, family=family)))
    for fitted, exact in cases:
        closed = compute_tau(exact)
        numeric = compute_tau(fitted, numeric=True)
        assert closed.method == "closed-form" and numeric.method == "tail-fit"
        assert abs(closed.tau - numeric.tau) <= 1e-9, (fitted, closed.tau, numeric.tau)
    two = SeriesSpec(seq=SequenceSpec(kind="linear", a=2, b=5),
                     psi=PsiSpec(kind="power", t=2.8), family="two-term")
    assert compute_tau(two, numeric=True).tau == pytest.approx(5 / 6, abs=1e-9)
    four = SeriesSpec(seq=seq, psi=table, family="four-term")
    assert compute_tau(four).tau == pytest.approx(math.log(4.2) / math.log(12.6), abs=1e-9)


def test_fitted_term_descriptors_match_exact():
    # each term's fitted (A, B, C, D) against the exact ones, so that a
    # wrong term that the max in tau hides still shows.  Rates and the
    # log n exponents of the power features are fitted to 1e-9.  A log log
    # feature over a polynomially growing argument, whose exact exponent is
    # 0, fits the slope of log log n against log n, 1/log n <= 1/log(N_MAX/2)
    # over the tail, once per weight u of its row
    loglog = 1.0 / math.log(N_MAX / 2)
    seqs = [EXP23, SequenceSpec(kind="exponential", a=2, b=6),
            SequenceSpec(kind="exponential", a=1.5, b=4.2),
            SequenceSpec(kind="linear", a=1, b=2), SequenceSpec(kind="linear", a=3, b=3)]
    for seq in seqs:
        for psi in (PsiSpec(kind="power", t=0.5), PsiSpec(kind="power", t=2.0),
                    PSI_THIRD, PsiSpec(kind="scaled-base", t=1.5, seq=seq)):
            for family in _TERMS:
                if family == "gcd" and not seq.is_integer():
                    continue
                s = SeriesSpec(seq=seq, psi=psi, family=family)
                exact = _term_descriptors(_growth(s)[0])
                fitted = _term_descriptors(_growth(s, numeric=True)[0])
                for term, e, f in zip(_TERMS[family], exact, fitted):
                    slack = sum(abs(u) for name, u, _ in term if name in ("llb", "llpsi"))
                    tols = (1e-9, 1e-9, 1e-9 + slack * loglog, 1e-9)
                    assert all(abs(x - y) <= tol for x, y, tol in zip(e, f, tols)), \
                        (s, term, e, f)


def test_scaled_base_psi_reads_its_own_sequence():
    # psi(n) = 5^-n over b_n = 3^n: the tail fit reads psi's bound
    # sequence, as the closed form does, and a table bound sequence sets the
    # last index either reads
    other = SequenceSpec(kind="exponential", a=2, b=5)
    s = spec("plain", psi=PsiSpec(kind="scaled-base", t=1.0, seq=other))
    assert compute_tau(s).tau == pytest.approx(math.log(3) / math.log(15), abs=1e-12)
    assert compute_tau(s, numeric=True).tau == pytest.approx(compute_tau(s).tau, abs=1e-6)
    tab = SequenceSpec(kind="explicit-table", a_table=(2.0,) * 10, b_table=(3.0,) * 10)
    s = spec("plain", psi=PsiSpec(kind="scaled-base", t=1.0, seq=tab))
    assert compute_tau(s).diagnostics["n_max"] == 10
    assert converges(s, 0.5).certificate["n_max"] == 10


def test_four_term_matches_two_term_for_exponential():
    # the log-weighted extras have dominated thresholds when a_n grows
    res2 = compute_tau(spec("two-term"))
    res4 = compute_tau(spec("four-term"))
    assert res4.tau == pytest.approx(res2.tau, abs=1e-12)


def test_gcd_family_term():
    seq = SequenceSpec(kind="exponential", a=2, b=6)
    psi = PsiSpec(kind="exponential", lam=1.0)
    got = term_value(SeriesSpec(seq=seq, psi=psi, family="gcd"), 0.5, 3)
    expect = 6 ** 3 * (math.exp(-3) / 6 ** 3) ** 0.5 \
        + 8 * (math.exp(-3) / (8 * 6 ** 3)) ** 0.25
    assert got == pytest.approx(expect, rel=1e-12)


def test_gcd_family_requires_integers():
    with pytest.raises(ValueError):
        SeriesSpec(seq=SequenceSpec(kind="exponential", a=2.5, b=6), psi=PSI_THIRD,
                   family="gcd")


def test_convergence_report_exponential():
    # the hypothesis series of the worked example at s = 0.7: the gcd and
    # four-term series give H^0.7(M(psi)) = 0, the lebesgue one measure 0
    for family in ("gcd", "four-term"):
        assert converges(spec(family), 0.7).verdict is True
    assert converges(spec("lebesgue"), 1.0).verdict is True


def test_single_series_threshold_examples():
    assert single_series_threshold(2, 5) == 0.0
    assert single_series_threshold(2, 3) == pytest.approx(2 - math.log(3) / math.log(2))
    assert single_series_threshold(2, 3) == pytest.approx(0.41504, abs=1e-5)
    with pytest.raises(ValueError):
        single_series_threshold(1.0, 2.0)
    with pytest.raises(ValueError):
        single_series_threshold(3.0, 2.0)


def test_single_series_threshold_boundary():
    b = 7.3
    for eps in (1e-3, 1e-6, 1e-9):
        a = math.sqrt(b) * (1 + eps)
        thr = single_series_threshold(a, b)
        assert 0.0 <= thr < 1e-2


def test_single_series_threshold_zero_iff_square_below():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = float(rng.uniform(1.01, 10))
        b = float(rng.uniform(a * a, a * a * 10))
        assert single_series_threshold(a, b) == 0.0


# the truncated limsup union is streamed by estimate_box_dimension, which
# never builds it; its box counts are what these tests read


def test_truncated_limsup_zero_psi():
    psi0 = PsiSpec(kind="explicit-table", values=(0.0,) * 8)
    with pytest.raises(ValueError, match="truncated set is empty"):
        estimate_box_dimension(EXP23, psi0, 1, 8, [2.0 ** -k for k in range(2, 9)])


def test_truncated_limsup_single_index():
    psi = PsiSpec(kind="scaled-base", t=1.0, seq=EXP23)
    est = estimate_box_dimension(EXP23, psi, 4, 4, [2.0 ** -k for k in range(2, 9)])
    direct = product_set(FracParams(2.0 ** 4, 3.0 ** 4), 3.0 ** -2)
    assert list(est.counts) == [box_count(direct, t) for t in est.scales]


def test_truncated_limsup_monotone_in_range():
    psi = PsiSpec(kind="scaled-base", t=1.0, seq=EXP23)
    scales = [2.0 ** -k for k in range(2, 15)]
    wide = estimate_box_dimension(EXP23, psi, 2, 6, scales).counts
    narrow = estimate_box_dimension(EXP23, psi, 4, 6, scales).counts
    assert all(n <= w for n, w in zip(narrow, wide))
    assert narrow[0] < wide[0]


def test_box_dimension_full_interval():
    seq = SequenceSpec(kind="explicit-table", a_table=(1,), b_table=(1,))
    psi = PsiSpec(kind="explicit-table", values=(1.0,))
    est = estimate_box_dimension(seq, psi, 1, 1, [2.0 ** -k for k in range(2, 9)])
    assert est.slope == pytest.approx(1.0, abs=0.01)


def test_box_dimension_tiny_interval():
    # single solution interval of length 2**-10 centered at 1/2
    seq = SequenceSpec(kind="explicit-table", a_table=(1,), b_table=(1,),
                       c=0.5, d=0.5)
    psi = PsiSpec(kind="explicit-table", values=(2.0 ** -22,))
    est = estimate_box_dimension(seq, psi, 1, 1, [2.0 ** -k for k in range(1, 9)])
    assert abs(est.slope) <= 0.05


def test_box_dimension_never_exceeds_line():
    psi = PsiSpec(kind="scaled-base", t=1.0, seq=EXP23)
    est = estimate_box_dimension(EXP23, psi, 2, 6, [2.0 ** -k for k in range(2, 9)])
    assert est.slope <= 1.02


def test_box_dimension_empty_set_raises():
    psi0 = PsiSpec(kind="explicit-table", values=(0.0,) * 4)
    with pytest.raises(ValueError):
        estimate_box_dimension(EXP23, psi0, 1, 4, [0.5, 0.25, 0.125, 0.0625])


def test_box_dimension_refuses_a_delta_below_2_to_the_minus_511():
    # delta = sqrt(1e-310) < 2**-511: product_set refuses it, and the box
    # counts read (1, 1, 1, 1, 1, 1) from a product threshold of 0
    psi = PsiSpec(kind="explicit-table", values=(1e-310,) * 3)
    with pytest.raises(ValueError, match=r"delta must be in \[2\*\*-511, 1/2\]"):
        estimate_box_dimension(EXP23, psi, 1, 3, [2.0 ** -k for k in range(1, 7)])


@pytest.mark.parametrize("values, counts", [
    # psi(n) = 0 marks nothing
    ((0.0, 0.02, 0.0, 0.003, 0.0), (236, 154, 108, 64, 32, 16, 8, 4)),
    # psi(n) > 1/4, delta > 1/2, marks all of [0, 1]
    ((0.0, 0.3, 0.001), (512, 256, 128, 64, 32, 16, 8, 4)),
])
def test_box_dimension_counts_of_zero_and_large_psi(values, counts):
    psi = PsiSpec(kind="explicit-table", values=values)
    est = estimate_box_dimension(EXP23, psi, 1, len(values), [2.0 ** -k for k in range(2, 10)])
    assert est.counts == counts


def test_box_dimension_refuses_a_finest_scale_over_the_cap():
    # 2^40 boxes would take two 8 TiB arrays; the cap refuses them first
    psi = PsiSpec(kind="scaled-base", t=1.0, seq=EXP23)
    with pytest.raises(CellCapExceeded, match="finest-scale boxes"):
        estimate_box_dimension(EXP23, psi, 2, 3, [2.0 ** -k for k in (2, 3, 4, 40)])


def test_box_dimension_validates_scales():
    psi = PsiSpec(kind="scaled-base", t=1.0, seq=EXP23)
    with pytest.raises(ValueError):
        estimate_box_dimension(EXP23, psi, 2, 4, [0.5, 0.25])
    with pytest.raises(ValueError):
        estimate_box_dimension(EXP23, psi, 2, 4, [0.5, 0.3, 0.25, 0.125])


def test_box_dimension_memory_is_bounded():
    # n = 16 of the worked example has about 3^16 = 4.3e7 cells; they are
    # walked in chunks, never held as one array (its floats alone take
    # 344 MB), so the peak stays far below it
    code = textwrap.dedent("""
        import resource, sys
        from diophlab.dimension import estimate_box_dimension
        from diophlab.sequences import PsiSpec, SequenceSpec
        seq = SequenceSpec(kind="exponential", a=2, b=3)
        psi = PsiSpec(kind="scaled-base", t=1.0, seq=seq)
        estimate_box_dimension(seq, psi, 15, 16, [2.0 ** -k for k in range(6, 17)])
        # ru_maxrss is in bytes on macOS, in KiB elsewhere
        unit = 2 ** 20 if sys.platform == "darwin" else 2 ** 10
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert float(proc.stdout) < 256.0
