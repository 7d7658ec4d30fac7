"""Acceptance criteria, one test per criterion at its stated size and
tolerance.  Each test prints a single PASS/FAIL line; run with -v -s for
the full scoreboard.

Criterion 9b reads the worked example's exponent 1/2 from the per-index
multi-scale covers of product_set_cover_cost: the s-cost stops growing
with n at s* near 1/2.  At the stated truncation and scales it also pins
the equal-scale box count, whose slope is exactly 1: every dyadic box of
width 2^-16 holds a point k/3^16, which lies in the product set at n = 16
because its second distance is 0, so every box is hit and each count is
1/scale.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from diophlab.approx_sets import (FracParams, decompose_product_set,
                                  measure_bound, premeasure_bound,
                                  product_membership, product_set,
                                  product_set_cover_cost)
from diophlab.dimension import (SeriesSpec, compute_tau, single_series_threshold,
                                estimate_box_dimension)
from diophlab.intervals import lebesgue, symmetric_difference
from diophlab.lattice import (SamplePoints, count_near_pairs,
                              count_near_pairs_naive, discrepancies,
                              erdos_turan_rhs_table, large_regime)
from diophlab.planar import mc_planar_product_area, product_rectangle_set
from diophlab.sequences import PsiSpec, SequenceSpec, eval_psi, eval_sequence
from diophlab.verify import planar_unit_area


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] {tag} {name}" + (f" ({detail})" if detail else ""))


def test_criterion_01_count_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(600):
        a = float(rng.uniform(1, 200))
        p = FracParams(a, float(rng.uniform(a, 200)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        eta = float(rng.uniform(0.005, 0.995))
        xi = float(rng.uniform(0.005, 0.995))
        if count_near_pairs(p, eta, xi) != count_near_pairs_naive(p, eta, xi):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report("1 count oracle equivalence", ok,
           f"600 instances, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_02_large_regime_cap():
    rng = np.random.default_rng(1002)
    t0 = time.monotonic()
    violations = 0
    checked = 0
    while checked < 10_000:
        a = float(rng.uniform(1, 100))
        b = float(np.exp(rng.uniform(np.log(a), np.log(3e4))))
        p = FracParams(a, max(b, a), float(rng.uniform(-2, 2)),
                       float(rng.uniform(-2, 2)))
        eta = float(rng.uniform(0.0, 1.0))
        xi = float(rng.uniform(0.0, 1.0))
        if not large_regime(p, eta, xi):
            continue
        checked += 1
        if count_near_pairs(p, eta, xi) > 4.0 * (p.b + 2.0):
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    report("2 large-regime count cap", ok,
           f"10000 instances, {violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_03_erdos_turan_inequality():
    # every (set, interval, K) triple, on the batched kernels: the 100
    # (lo, length) pairs of a set are drawn in the order of one scalar draw
    # each, and violations are counted over the whole (interval x K) table
    rng = np.random.default_rng(1003)
    t0 = time.monotonic()
    violations = 0
    for _ in range(200):
        Q = int(np.exp(rng.uniform(np.log(8), np.log(4096))))
        pts = SamplePoints(points=rng.random(Q), Q=Q)
        los, lengths = rng.uniform([0.0, 1e-6], [1.0, 1.0], size=(100, 2)).T
        his = los + lengths
        d = np.abs(discrepancies(pts, los, his))[:, None]
        rhs = erdos_turan_rhs_table(pts, los, his, 50)
        assert rhs.shape == (100, 50)
        violations += int(np.count_nonzero(d > rhs + 1e-9))
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 300.0
    report("3 Erdos-Turan inequality", ok,
           f"200 sets x 100 intervals x K<=50, {violations} violations, {elapsed:.0f}s")
    assert violations == 0
    assert elapsed < 300.0


def test_criterion_04_integer_exponential_sum_identity():
    rng = np.random.default_rng(1004)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        a = int(rng.integers(1, 501))
        b = int(rng.integers(a, 501))
        g = math.gcd(a, b)
        period = b // g
        q = np.arange(1, b + 1, dtype=np.int64)
        for k in range(1, 3 * period + 1):
            phases = (k * a * q) % b
            total = np.sum(np.exp((2j * np.pi / b) * phases))
            expect = float(b) if k % period == 0 else 0.0
            worst = max(worst, abs(abs(total) - expect))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    report("4 integer exponential-sum identity", ok,
           f"50 pairs, worst error {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_05_membership_cross_validation():
    rng = np.random.default_rng(1005)
    t0 = time.monotonic()
    far_disagreements = 0
    for _ in range(100):
        a = float(rng.uniform(1, 100))
        b = float(np.exp(rng.uniform(np.log(a), np.log(1e4))))
        p = FracParams(a, max(b, a), float(rng.uniform(-2, 2)),
                       float(rng.uniform(-2, 2)))
        delta = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5))))
        e = product_set(p, delta)
        x = rng.random(100_000)
        direct = product_membership(p, delta, x)
        inside = e.contains(x)
        disagree = direct != inside
        if disagree.any():
            near = e.endpoint_distance(x[disagree]) < 1e-9
            far_disagreements += int(np.count_nonzero(~near))
    elapsed = time.monotonic() - t0
    ok = far_disagreements == 0 and elapsed < 120.0
    report("5 membership cross-validation", ok,
           f"100 x 1e5 samples, {far_disagreements} far disagreements, {elapsed:.0f}s")
    assert far_disagreements == 0
    assert elapsed < 120.0


def test_criterion_06_decomposition_reconstruction():
    rng = np.random.default_rng(1006)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(1, 100))
        b = float(np.exp(rng.uniform(np.log(a), np.log(1e6))))
        p = FracParams(a, max(b, a), float(rng.uniform(-2, 2)),
                       float(rng.uniform(-2, 2)))
        delta = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.5))))
        dec = decompose_product_set(p, delta)
        gap = lebesgue(symmetric_difference(dec.reunion(), product_set(p, delta)))
        worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 60.0
    report("6 decomposition reconstruction", ok,
           f"100 instances, worst symdiff {worst:.2e}, {elapsed:.0f}s")
    assert worst < 1e-10
    assert elapsed < 60.0


def test_criterion_07_measure_bound_ratios():
    rng = np.random.default_rng(1007)
    t0 = time.monotonic()
    measure_ratios = []
    premeasure_ratios = []
    for _ in range(1000):
        a = float(rng.uniform(1, 100))
        b = float(np.exp(rng.uniform(np.log(a), np.log(1e6))))
        p = FracParams(a, max(b, a), float(rng.uniform(-2, 2)),
                       float(rng.uniform(-2, 2)))
        delta = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5))))
        measure_ratios.append(
            lebesgue(product_set(p, delta)) / measure_bound(p, delta))
        cost = product_set_cover_cost(p, delta)
        for s in (0.3, 0.5, 0.7, 0.9):
            premeasure_ratios.append(
                cost.premeasure(s) / premeasure_bound(p, delta, s))
    elapsed = time.monotonic() - t0
    stats = {}
    ok = True
    for name, ratios in (("measure", measure_ratios),
                         ("premeasure", premeasure_ratios)):
        arr = np.asarray(ratios)
        mx, p99, med = float(arr.max()), float(np.percentile(arr, 99)), float(np.median(arr))
        stats[name] = (mx, p99, med)
        ok &= math.isfinite(mx) and mx <= 100.0 * med
    detail = "; ".join(
        f"{k}: max={v[0]:.2f} p99={v[1]:.2f} median={v[2]:.2f}"
        for k, v in stats.items())
    report("7 measure-bound ratios", ok, f"{detail}; {elapsed:.0f}s")
    for name, (mx, p99, med) in stats.items():
        assert math.isfinite(mx), name
        assert mx <= 100.0 * med, f"{name} max {mx} exceeds 100x median {med}"


def test_criterion_08_tau_closed_form_vs_numeric():
    rng = np.random.default_rng(1008)
    t0 = time.monotonic()
    worst_gap = 0.0
    threshold_failures = 0
    for _ in range(100):
        a = float(rng.uniform(1.2, 10.0))
        b = float(rng.uniform(a * 1.01, 100.0))
        seq = SequenceSpec(kind="exponential", a=a, b=b)
        if rng.random() < 0.5:
            psi = PsiSpec(kind="scaled-base", t=float(rng.uniform(0.2, 3.0)), seq=seq)
        else:
            psi = PsiSpec(kind="exponential",
                          lam=float(rng.uniform(0.5, 3.0)) * math.log(b))
        spec = SeriesSpec(seq=seq, psi=psi, family="two-term")
        gap = abs(compute_tau(spec).tau - compute_tau(spec, numeric=True).tau)
        worst_gap = max(worst_gap, gap)
        if a * a <= b and single_series_threshold(a, b) != 0.0:
            threshold_failures += 1
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-3 and threshold_failures == 0 and elapsed < 60.0
    report("8 tau closed form vs numeric", ok,
           f"100 instances, worst gap {worst_gap:.2e}, "
           f"{threshold_failures} threshold failures, {elapsed:.0f}s")
    assert worst_gap <= 1e-3
    assert threshold_failures == 0
    assert elapsed < 60.0


def test_criterion_09a_worked_exponent_tau():
    seq = SequenceSpec(kind="exponential", a=2, b=3)
    psi = PsiSpec(kind="scaled-base", t=1.0, seq=seq)
    res = compute_tau(SeriesSpec(seq=seq, psi=psi, family="two-term"))
    thr2 = 2 * math.log(2) / (math.log(3) + math.log(6))
    ok = (res.method == "closed-form"
          and abs(res.tau - 0.5) < 1e-12
          and abs(res.thresholds[0] - 0.5) < 1e-12
          and abs(res.thresholds[1] - thr2) < 1e-12)
    report("9a worked exponent tau = 0.5", ok,
           f"thresholds {res.thresholds[0]:.4f}, {res.thresholds[1]:.4f}")
    assert ok


def test_criterion_09b_worked_exponent_box_dimension():
    # The worked example's exponent 1/2 read from finite data.  The proof
    # covers each index n at its own per-annulus meshes, which is the cover
    # product_set_cover_cost builds; R(s) is the least-squares slope of
    # log premeasure(s) against n, and s* is its zero, where the s-cost
    # stops growing with n.  The range stops at n = 15 because the covers
    # cost O(b) = O(3^n): the last dyadic annulus of each index has its
    # larger threshold at or above 1/2, so its simultaneous set is the whole
    # b-factor, and the annulus below it has about b near window pairs.  The
    # covers for n = 8..15 take about 2.4 s and 0.5 GB on a 2-core host;
    # n = 16 alone takes about 5.6 s and 1.5 GB, held by those pairs.
    #
    # The equal-scale box count at the stated size (n in [8, 16], scales
    # 2^-6..2^-16) saturates instead.  Every x = k/3^n lies in E_n, the
    # product set at index n, because its second distance is 0; every
    # dyadic box of width 2^-16 > 3^-16 holds such a point
    # ceil(j 3^16 / 2^16) / 3^16, so every box at every scale meets the
    # truncated union, each count is exactly 2^k and the slope is exactly
    # 1.  The counts are pinned to that argument, which is checked on its
    # own below at all 2^16 finest boxes.
    seq = SequenceSpec(kind="exponential", a=2, b=3)
    psi = PsiSpec(kind="scaled-base", t=1.0, seq=seq)
    t0 = time.monotonic()
    ns = list(range(8, 16))
    costs = [product_set_cover_cost(FracParams(*eval_sequence(seq, n)),
                                    math.sqrt(eval_psi(psi, n)))
             for n in ns]

    def rate(s):
        logs = [math.log(c.premeasure(s)) for c in costs]
        return float(np.polyfit(ns, logs, 1)[0])

    lo, hi = 0.01, 0.99
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    r_lo, r_hi = rate(0.3), rate(0.7)
    tau = compute_tau(SeriesSpec(seq=seq, psi=psi, family="two-term")).tau

    est = estimate_box_dimension(seq, psi, 8, 16,
                                 [2.0 ** -k for k in range(6, 17)])
    saturated = tuple(2 ** k for k in range(16, 5, -1))  # finest scale first
    j = np.arange(2 ** 16, dtype=np.int64)
    x = -(-j * 3 ** 16 // 2 ** 16) / 3.0 ** 16
    in_box = np.floor(x * 2.0 ** 16) == j
    members = product_membership(FracParams(*eval_sequence(seq, 16)),
                                 math.sqrt(eval_psi(psi, 16)), x)
    elapsed = time.monotonic() - t0
    ok = (abs(s_star - 0.5) <= 0.15 and abs(s_star - tau) <= 0.15
          and r_lo > 0.0 > r_hi and est.counts == saturated
          and abs(est.slope - 1.0) <= 1e-12 and bool(in_box.all())
          and bool(members.all()) and elapsed < 300.0)
    report("9b worked exponent from covers, saturated box count", ok,
           f"s* {s_star:.4f} vs 0.5 +- 0.15 (tau {tau:.4f}), "
           f"R(0.3) {r_lo:+.3f}, R(0.7) {r_hi:+.3f}; box counts "
           f"{est.counts[0]}..{est.counts[-1]} vs 2^16..2^6, "
           f"slope {est.slope:.4f}; "
           f"{elapsed:.0f}s")
    assert elapsed < 300.0
    assert r_lo > 0.0 > r_hi, (r_lo, r_hi)
    assert abs(s_star - 0.5) <= 0.15
    assert abs(s_star - tau) <= 0.15
    assert in_box.all() and members.all(), (
        "some dyadic box of width 2^-16 holds no point k/3^16 of E_16")
    assert est.counts == saturated, (
        f"counts {est.counts}: every dyadic box meets E_16, so each is 2^k")
    assert abs(est.slope - 1.0) <= 1e-12


def test_criterion_10_planar_product_and_mc_oracle():
    rng = np.random.default_rng(1010)
    t0 = time.monotonic()
    worst_gap = 0.0
    for _ in range(200):
        a = float(rng.uniform(1, 50))
        p = FracParams(a, float(rng.uniform(a, 5000)),
                       float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        box = product_rectangle_set(p, float(rng.uniform(1e-3, 0.6)),
                                    float(rng.uniform(1e-3, 0.6)))
        worst_gap = max(worst_gap, abs(box.area() - box.area_by_boxes()))
    delta = 0.2
    est, se = mc_planar_product_area(FracParams(1, 1), delta, 1_000_000, seed=424242)
    mc_gap = abs(est - planar_unit_area(delta))
    elapsed = time.monotonic() - t0
    ok = worst_gap < 1e-12 and mc_gap <= 4 * se and elapsed < 120.0
    report("10 planar product identity and MC oracle", ok,
           f"area gap {worst_gap:.1e}, MC gap {mc_gap:.2e} vs 4se={4*se:.2e}, "
           f"{elapsed:.0f}s")
    assert worst_gap < 1e-12
    assert mc_gap <= 4 * se
    assert elapsed < 120.0


def test_criterion_11_verify_determinism(tmp_path):
    outs = []
    for run in (1, 2):
        out = tmp_path / f"report{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "diophlab.cli", "verify", "--seed", "42",
             "--count", "20", "--checks", "all", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    report("11 verify determinism", ok,
           f"cli verify --seed 42 twice, {len(outs[0])} bytes each")
    assert ok
    doc = json.loads(outs[0])
    assert doc["seed"] == 42


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
