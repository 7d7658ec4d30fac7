"""Randomized verification campaigns over the toolkit's properties.

Each check draws instances from a seeded distribution and either asserts
an exact property (zero violations allowed) or records bound ratios whose
statistics are reported without a pass/fail threshold.  Reports are fully
determined by (seed, config, code version); runtimes are printed, never
written into the report, so repeated runs are byte-identical.

The checks form one table: each row holds a check id, its kind, the
property it is wired to, a sampler that draws one instance from a numpy
Generator, and an evaluator that returns the instance's record.  A campaign
queues every check's instances on one thread pool and reads the results back
in check order, so the first violation in campaign order is the one reported.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .approx_sets import (FracParams, decompose_product_set, dyadic_annuli,
                          measure_bound, premeasure_bound, product_membership,
                          product_set, product_set_cover_cost,
                          cover_simultaneous, simultaneous_set)
from .dimension import SeriesSpec, compute_tau, single_series_threshold
from .intervals import difference, lebesgue, mesh_cover, symmetric_difference
from .lattice import (SamplePoints, count_integer_bound, count_near_pairs,
                      count_near_pairs_naive, default_K, discrepancies,
                      erdos_turan_rhs, erdos_turan_rhs_table, large_regime,
                      lattice_fraction_points)
from .planar import (cover_rectangles, decompose_planar_product_set, index_split,
                     mc_planar_product_area, planar_premeasure,
                     planar_premeasure_bound, product_rectangle_set)
from .sequences import PsiSpec, SequenceSpec, _field

SCHEMA_VERSION = 1

# Sampling ranges.  b is log-uniform over [a, B_MAX] so both the unit-weight
# and the log-heavy regimes are exercised; delta is log-uniform over DELTA.
A_MAX = 100.0
B_MAX = 1e6
SHIFT = (-2.0, 2.0)
DELTA = (1e-4, 0.5)
# exponents at which the premeasure checks compare cover costs with bounds
S_VALUES = (0.3, 0.5, 0.7, 0.9)


class CheckFailure(RuntimeError):
    """An exact check found a violating instance."""

    def __init__(self, check_id: str, instance: dict, detail: dict):
        super().__init__(f"check {check_id!r} failed on {instance}")
        self.check_id = check_id
        self.instance = instance
        self.detail = detail


@dataclass
class InstanceDistribution:
    """Instances drawn per check, and the campaign seed.

    The ranges the instances are drawn from are the module constants
    A_MAX, B_MAX, SHIFT and DELTA.
    """

    count: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")


def _rng_for(dist: InstanceDistribution, check_id: str) -> np.random.Generator:
    idx = sorted(CHECKS).index(check_id)
    return np.random.default_rng([dist.seed, idx])


# -- samplers -----------------------------------------------------------------
# A sampler draws one instance from rng; a check's generator repeats it
# dist.count times.


def _uniform(lo: float, hi: float):
    return lambda rng: float(rng.uniform(lo, hi))


def _log_uniform(lo: float, hi: float):
    return lambda rng: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


_delta = _log_uniform(*DELTA)


def _sample_params(rng, a_max: float, b_max: float) -> dict:
    a = float(rng.uniform(1.0, a_max))
    b = float(np.exp(rng.uniform(np.log(a), np.log(b_max))))
    return {"a": a, "b": max(b, a),
            "c": float(rng.uniform(*SHIFT)), "d": float(rng.uniform(*SHIFT))}


def _draw(a_max: float, b_max: float, **fields):
    """Sampler of (a, b, c, d) followed by `fields`, each drawn in order."""
    def sample(rng) -> dict:
        inst = _sample_params(rng, a_max, b_max)
        for name, draw in fields.items():
            inst[name] = draw(rng)
        return inst
    return sample


def _generate(sample, dist: InstanceDistribution, rng) -> list[dict]:
    return [sample(rng) for _ in range(dist.count)]


# draws shared by more than one check
_COUNT_PAIRS = _draw(A_MAX, 200.0, eta=_uniform(0.01, 0.99), xi=_uniform(0.01, 0.99))
_PRODUCT_DELTA = _draw(A_MAX, B_MAX, delta=_log_uniform(1e-3, DELTA[1]))
_COVER_ETA_XI = _draw(50.0, 5000.0, eta=_uniform(1e-4, 0.5), xi=_uniform(1e-4, 0.5))
_PLANAR_ETA_XI = _draw(50.0, 5000.0, eta=_uniform(1e-3, 0.6), xi=_uniform(1e-3, 0.6))


def _params(inst: dict) -> FracParams:
    return FracParams(inst["a"], inst["b"], inst["c"], inst["d"])


# -- individual checks --------------------------------------------------------
# evaluate returns the instance's record: "ok" (exact checks) or
# "ratio"/"ratios" (ratio checks), plus the values behind them.


def _eval_count_oracle(inst):
    p = _params(inst)
    fast = count_near_pairs(p, inst["eta"], inst["xi"])
    slow = count_near_pairs_naive(p, inst["eta"], inst["xi"])
    return {"ok": fast == slow, "fast": fast, "naive": slow}


def _sample_count_regime(rng):
    # keep b moderate: the regime check is exact and O(b) per instance
    inst = _sample_params(rng, A_MAX, 3e4)
    for _ in range(200):
        eta = float(rng.uniform(0.0, 1.0))
        xi = float(rng.uniform(0.0, 1.0))
        if eta + (inst["a"] / inst["b"]) * xi > 0.5:
            break
    inst["eta"], inst["xi"] = eta, xi
    return inst


def _eval_count_regime(inst):
    p = _params(inst)
    if not large_regime(p, inst["eta"], inst["xi"]):
        return {"ok": True, "skipped": True}
    n = count_near_pairs(p, inst["eta"], inst["xi"])
    cap = 4.0 * (p.b + 2.0)
    return {"ok": n <= cap, "count": n, "cap": cap}


_ET_INTERVALS = 100
_ET_KMAX = 50


def _sample_erdos_turan(rng):
    q = int(np.exp(rng.uniform(np.log(8), np.log(4096))))
    return {"seed": _seed(rng), "Q": q}


def _eval_erdos_turan(inst):
    """Test |D(I)| <= rhs(I, K) + 1e-9 for 100 drawn intervals and K = 1..50.

    The intervals are drawn as (lo, length) pairs in the order of one scalar
    draw each, and I = [lo, lo + length].  All right-hand sides come from one
    `erdos_turan_rhs_table`; a violation reports the first failing
    (interval, K) in row-major order, the one a loop over intervals, then K,
    would find.
    """
    sub = np.random.default_rng(inst["seed"])
    pts = SamplePoints(points=sub.random(inst["Q"]))
    los, lengths = sub.uniform([0.0, 1e-6], [1.0, 1.0], size=(_ET_INTERVALS, 2)).T
    his = los + lengths
    d = np.abs(discrepancies(pts, los, his))[:, None]
    rhs = erdos_turan_rhs_table(pts, los, his, _ET_KMAX)
    bad = np.flatnonzero(d > rhs + 1e-9)
    if bad.size:
        i, col = divmod(int(bad[0]), _ET_KMAX)
        return {"ok": False, "excess": float(d[i, 0] - rhs[i, col]), "K": col + 1,
                "discrepancy": float(d[i, 0]), "rhs": float(rhs[i, col]),
                "interval": [float(los[i]), float(his[i])]}
    return {"ok": True, "worst_excess": float(np.max(d - rhs))}


def _sample_exp_sum(rng):
    a = int(rng.integers(1, 501))
    b = int(rng.integers(a, 501))
    return {"a": a, "b": b}


def _eval_exp_sum_integer(inst):
    """Test |sum_q e(k a q / b)| against b or 0 for every distinct k.

    The phases (k a q) mod b are integers and periodic in k with period
    b / gcd(a, b): k + period gives the same phase array, hence the same
    sum bit for bit.  So k = 1..period, evaluated as one (period x b) array,
    covers every k, and only k = period expects b.
    """
    a, b = inst["a"], inst["b"]
    period = b // math.gcd(a, b)
    k = np.arange(1, period + 1, dtype=np.int64)[:, None]
    q = np.arange(1, b + 1, dtype=np.int64)
    # integer reduction keeps every phase exact before the exponential
    totals = np.abs(np.sum(np.exp((2j * np.pi / b) * ((k * a * q) % b)), axis=1))
    expect = np.where(k[:, 0] == period, float(b), 0.0)
    err = np.abs(totals - expect)
    bad = np.flatnonzero(err > 1e-9)
    if bad.size:
        i = int(bad[0])
        return {"ok": False, "k": i + 1, "error": float(err[i]),
                "abs_sum": float(totals[i]), "expected": float(expect[i])}
    return {"ok": True, "worst_error": float(np.max(err))}


_MEMBERSHIP_SAMPLES = 100_000


def _eval_membership(inst):
    p = _params(inst)
    e = product_set(p, inst["delta"])
    x = np.random.default_rng(inst["seed"]).random(_MEMBERSHIP_SAMPLES)
    direct = product_membership(p, inst["delta"], x)
    inside = e.contains(x)
    disagree = direct != inside
    if not disagree.any():
        return {"ok": True, "disagreements": 0}
    near = e.endpoint_distance(x[disagree]) < 1e-9
    bad = int(np.count_nonzero(~near))
    return {"ok": bad == 0, "disagreements": int(disagree.sum()), "far": bad}


def _eval_decompose(inst):
    dec = decompose_product_set(_params(inst), inst["delta"])
    gap = lebesgue(symmetric_difference(dec.reunion(), dec.product))
    return {"ok": gap < 1e-10, "gap": gap}


def _eval_measure_ratio(inst):
    p = _params(inst)
    ratio = lebesgue(product_set(p, inst["delta"])) / measure_bound(p, inst["delta"])
    return {"ratio": ratio}


def _eval_premeasure_ratio(inst):
    p = _params(inst)
    cost = product_set_cover_cost(p, inst["delta"])
    ratios = [cost.premeasure(s) / premeasure_bound(p, inst["delta"], s)
              for s in S_VALUES]
    return {"ratios": ratios}


def _eval_cover_ratio(inst):
    p = _params(inst)
    pieces, _ = cover_simultaneous(p, inst["eta"], inst["xi"])
    bound = p.count_bound(inst["eta"])
    return {"pieces": pieces, "bound": bound, "ratio": pieces / bound}


def _eval_cover_containment(inst):
    p = _params(inst)
    pieces, mesh = cover_simultaneous(p, inst["eta"], inst["xi"])
    f = simultaneous_set(p, inst["eta"], inst["xi"])
    cov = mesh_cover(f, mesh)
    return {"ok": cov.count == pieces and cov.covers(f)}


def _sample_monotonicity(rng):
    inst = _sample_params(rng, A_MAX, 1e4)
    d1 = _delta(rng)
    d2 = _delta(rng)
    inst["delta1"], inst["delta2"] = min(d1, d2), max(d1, d2)
    return inst


def _eval_monotonicity(inst):
    p = _params(inst)
    small = product_set(p, inst["delta1"])
    big = product_set(p, inst["delta2"])
    leftover = difference(small, big)
    return {"ok": leftover.is_empty(), "leftover": len(leftover)}


def _eval_simultaneous_in_product(inst):
    p = _params(inst)
    f = simultaneous_set(p, inst["eta"], inst["xi"])
    e = product_set(p, math.sqrt(inst["eta"] * inst["xi"]))
    ok = difference(f, e).is_empty()
    return {"ok": ok}


def _eval_shift_invariance(inst):
    p = _params(inst)
    shifted = FracParams(p.a, p.b, p.c + 1.0, p.d)
    n0 = count_near_pairs(p, inst["eta"], inst["xi"])
    n1 = count_near_pairs(shifted, inst["eta"], inst["xi"])
    return {"ok": n0 == n1, "count": n0, "shifted": n1}


def _eval_count_ratio(inst):
    p = _params(inst)
    n = count_near_pairs(p, inst["eta"], inst["xi"])
    ratio = n / p.count_bound(inst["eta"])
    return {"count": n, "ratio": ratio}


def _sample_integer_count(rng):
    a = int(rng.integers(1, 101))
    b = int(rng.integers(a, 10_001))
    return {"a": float(a), "b": float(b),
            "c": float(rng.uniform(*SHIFT)), "d": float(rng.uniform(*SHIFT)),
            "eta": float(rng.uniform(1e-4, 0.5)),
            "xi": float(rng.uniform(1e-4, 0.5))}


def _eval_integer_count_ratio(inst):
    n, bound = count_integer_bound(_params(inst), inst["eta"], inst["xi"])
    return {"count": n, "ratio": n / bound}


def _eval_uq_rhs(inst):
    p = _params(inst)
    pts = lattice_fraction_points(p)
    K = default_K(p)
    rhs = erdos_turan_rhs(pts, (-inst["delta"], inst["delta"]), K)
    ratio = rhs / p.count_bound(inst["delta"])
    return {"Q": pts.Q, "K": K, "rhs": rhs, "ratio": ratio}


def _sample_tau(rng):
    a = float(rng.uniform(1.2, 10.0))
    b = float(rng.uniform(a * 1.01, 100.0))
    if rng.random() < 0.5:
        psi_kind, param = "scaled-base", float(rng.uniform(0.2, 3.0))
    else:
        psi_kind, param = "exponential", float(rng.uniform(0.5, 3.0) * np.log(b))
    return {"a": a, "b": b, "psi_kind": psi_kind, "param": param}


def _series_from(inst) -> SeriesSpec:
    seq = SequenceSpec(kind="exponential", a=inst["a"], b=inst["b"])
    if inst["psi_kind"] == "scaled-base":
        psi = PsiSpec(kind="scaled-base", t=inst["param"], seq=seq)
    else:
        psi = PsiSpec(kind="exponential", lam=inst["param"])
    return SeriesSpec(seq=seq, psi=psi, family="two-term")


def _eval_tau_agreement(inst):
    spec = _series_from(inst)
    closed = compute_tau(spec)
    numeric = compute_tau(spec, numeric=True)
    gap = abs(closed.tau - numeric.tau)
    return {"ok": gap <= 1e-9, "closed": closed.tau, "numeric": numeric.tau,
            "gap": gap}


def _sample_single_series(rng):
    a = float(rng.uniform(1.01, 10.0))
    b = float(rng.uniform(a * a, max(a * a * 10.0, a * a + 1.0)))
    return {"a": a, "b": b}


def _eval_single_series_zero(inst):
    thr = single_series_threshold(inst["a"], inst["b"])
    return {"ok": thr == 0.0, "threshold": thr}


def _eval_planar_product(inst):
    box = product_rectangle_set(_params(inst), inst["eta"], inst["xi"])
    area, by_boxes = box.area(), box.area_by_boxes()
    gap = abs(area - by_boxes)
    return {"ok": gap < 1e-12, "gap": gap, "area": area, "area_by_boxes": by_boxes}


_PLANAR_MC_SAMPLES = 100_000


def _sample_planar_mc(rng):
    return {"delta": float(rng.uniform(0.05, 0.45)), "seed": _seed(rng)}


def planar_unit_area(delta: float) -> float:
    """Closed-form area of the unit-coefficient planar product set.

    With u = ||x||, v = ||y|| uniform as 2*Uniform(0,1/2), the area is
    P(UV < w) = w (1 + log(1/w)) at w = 4 delta^2, capped at 1.
    """
    w = 4.0 * delta * delta
    if w >= 1.0:
        return 1.0
    return w * (1.0 + math.log(1.0 / w))


def _eval_planar_mc(inst):
    p = FracParams(1.0, 1.0)
    est, se = mc_planar_product_area(p, inst["delta"], _PLANAR_MC_SAMPLES,
                                     seed=inst["seed"])
    exact = planar_unit_area(inst["delta"])
    gap = abs(est - exact)
    return {"ok": gap <= 4.0 * max(se, 1e-12), "mc": est, "exact": exact, "se": se}


def _eval_planar_premeasure(inst):
    p, delta = _params(inst), inst["delta"]
    cost = decompose_planar_product_set(p, delta)
    return {"ratios": [planar_premeasure(cost, s) / planar_premeasure_bound(p, delta, s)
                       for s in S_VALUES]}


def _eval_planar_cover_ratio(inst):
    eta = min(inst["eta"], 0.499)
    xi = min(inst["xi"], 0.499)
    cov = cover_rectangles(_params(inst), eta, xi, 0.5)
    return {"squares": cov.squares, "bound": cov.bound, "ratio": cov.ratio}


def _sample_annulus(rng):
    return {"delta": _delta(rng),
            "a": float(rng.uniform(1.0, A_MAX)),
            "b_over_a": float(np.exp(rng.uniform(0.0, np.log(B_MAX))))}


def _eval_annulus_indices(inst):
    delta = inst["delta"]
    J = dyadic_annuli(delta)
    ok = all(2.0 ** (j + 1) * delta < 1.0 for j in J)
    if J:
        ok &= 2.0 ** (max(J) + 2) * delta >= 1.0
    ratio = inst["b_over_a"]
    j1 = [j for j in J if 4.0 ** j <= ratio]
    j2 = [j for j in J if 4.0 ** j >= ratio]
    ok &= sorted(set(j1) | set(j2)) == J and len(set(j1) & set(j2)) <= 1
    p = FracParams(inst["a"], inst["a"] * ratio)
    ok &= index_split(p, delta) == (j1, j2)
    return {"ok": ok, "J": J, "J1": j1, "J2": j2}


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    kind: str                  # "exact" | "ratio"
    property_id: str
    generate: callable = field(compare=False)
    evaluate: callable = field(compare=False)


# (check id, kind, property id, sampler, evaluator), each under its property
_TABLE = [
    # fast count equals the naive double loop
    ("count-oracle", "exact", "lattice.count-oracle-equivalence",
     _COUNT_PAIRS, _eval_count_oracle),
    # count <= 4(b+2) when eta + (a/b) xi > 1/2
    ("count-regime", "exact", "lattice.large-regime-cap",
     _sample_count_regime, _eval_count_regime),
    # discrepancy never exceeds the exponential-sum bound
    ("erdos-turan", "exact", "lattice.erdos-turan",
     _sample_erdos_turan, _eval_erdos_turan),
    # full-period sums are 0 or b by gcd divisibility
    ("exp-sum-orthogonality", "exact", "lattice.integer-orthogonality",
     _sample_exp_sum, _eval_exp_sum_integer),
    # count / ((b eta + a) L) stays bounded
    ("count-bound-ratio", "ratio", "lattice.count-bound-ratio",
     _draw(A_MAX, B_MAX, eta=_uniform(1e-4, 1.0), xi=_uniform(1e-4, 1.0)),
     _eval_count_ratio),
    # count / (b eta + gcd) stays bounded
    ("integer-count-ratio", "ratio", "lattice.integer-count-ratio",
     _sample_integer_count, _eval_integer_count_ratio),
    # integer shifts of c leave the count unchanged
    ("count-shift-invariance", "exact", "lattice.shift-invariance",
     _COUNT_PAIRS, _eval_shift_invariance),
    # discrepancy bound at K = floor(b/a) tracks (a + delta b) L
    ("uq-rhs-bound", "ratio", "lattice.uq-rhs-bound",
     _draw(A_MAX, 500.0, delta=_delta), _eval_uq_rhs),
    # pointwise test matches interval containment
    ("membership-agreement", "exact", "approx.membership-agreement",
     _draw(A_MAX, 1e4, delta=_delta, seed=_seed), _eval_membership),
    # core and remainders reassemble the product set
    ("decompose-exact", "exact", "approx.decompose-reconstruction",
     _PRODUCT_DELTA, _eval_decompose),
    # product-set measure tracks its bound
    ("measure-bound-ratio", "ratio", "approx.measure-bound-ratio",
     _PRODUCT_DELTA, _eval_measure_ratio),
    # multi-scale cover cost tracks the premeasure bound
    ("premeasure-bound-ratio", "ratio", "approx.premeasure-bound-ratio",
     _PRODUCT_DELTA, _eval_premeasure_ratio),
    # cover piece count tracks (b eta + a) L
    ("cover-count-ratio", "ratio", "approx.cover-count-ratio",
     _COVER_ETA_XI, _eval_cover_ratio),
    # the counted cover, laid out at its mesh, has its count and contains its set
    ("cover-containment", "exact", "approx.cover-containment",
     _COVER_ETA_XI, _eval_cover_containment),
    # product sets grow with delta
    ("set-monotonicity", "exact", "approx.monotonicity",
     _sample_monotonicity, _eval_monotonicity),
    # simultaneous set sits inside the product set
    ("simultaneous-in-product", "exact", "approx.simultaneous-in-product",
     _draw(A_MAX, 1e4, eta=_uniform(1e-4, 0.5), xi=_uniform(1e-4, 0.5)),
     _eval_simultaneous_in_product),
    # tail-fit tau matches closed form within 1e-9; perfbench names the id
    ("tau-bisection-agreement", "exact", "dimension.tau-agreement",
     _sample_tau, _eval_tau_agreement),
    # threshold is exactly 0 when a^2 <= b
    ("single-series-threshold-zero", "exact", "dimension.single-series-zero",
     _sample_single_series, _eval_single_series_zero),
    # box-sum area equals the product of 1-D measures
    ("planar-product-area", "exact", "planar.product-area",
     _PLANAR_ETA_XI, _eval_planar_product),
    # Monte Carlo area matches the closed-form oracle
    ("planar-mc-oracle", "exact", "planar.mc-oracle",
     _sample_planar_mc, _eval_planar_mc),
    # annulus premeasure tracks b^(1-s) delta^(2s)
    ("planar-premeasure-ratio", "ratio", "planar.premeasure-ratio",
     _draw(50.0, 5000.0, delta=_delta), _eval_planar_premeasure),
    # square count tracks a b max/min
    ("planar-cover-ratio", "ratio", "planar.cover-count-ratio",
     _PLANAR_ETA_XI, _eval_planar_cover_ratio),
    # planar.index_split equals the direct inequalities
    ("annulus-indices", "exact", "planar.annulus-indices",
     _sample_annulus, _eval_annulus_indices),
]

CHECKS: dict[str, CheckDef] = {
    cid: CheckDef(cid, kind, prop, partial(_generate, sample), evaluate)
    for cid, kind, prop, sample, evaluate in _TABLE}


# -- campaign ------------------------------------------------------------------


def _timed(evaluate, inst) -> tuple[dict, float]:
    t0 = time.perf_counter()
    return evaluate(inst), time.perf_counter() - t0


def run_campaign(dist: InstanceDistribution, checks: list[str] | None = None,
                 threads: int = 1, report_path: str | None = None,
                 echo=print) -> dict:
    """Run the selected checks; abort on the first exact violation.

    One pool of `threads` workers serves the campaign: each check's instances
    are drawn in check order and queued at once, so workers share work across
    checks.  Results are read back in check order, so the first violation in
    campaign order is reported; a violation, error or interrupt cancels the
    queued instances.  A repeated check id runs once.  The returned/persisted
    report is a pure function of (seed, config): each check's summed
    evaluation seconds go to `echo` only.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    selected = (sorted(CHECKS) if not checks or checks == ["all"]
                else list(dict.fromkeys(checks)))
    for cid in selected:
        if cid not in CHECKS:
            raise ValueError(f"unknown check {cid!r}; known: {sorted(CHECKS)}")
    if report_path and (Path(report_path).is_dir()
                        or not Path(report_path).parent.is_dir()):
        raise ValueError(f"cannot write the report {report_path}: "
                         "not a file in an existing directory")
    report = {"schema_version": SCHEMA_VERSION, "seed": dist.seed,
              "count": dist.count, "checks": {}}
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        queued = []
        for cid in selected:
            cdef = CHECKS[cid]
            insts = cdef.generate(dist, _rng_for(dist, cid))
            queued.append((cid, cdef, insts,
                           [pool.submit(_timed, cdef.evaluate, inst) for inst in insts]))
        for cid, cdef, insts, futures in queued:
            results, seconds = zip(*(f.result() for f in futures))
            entry: dict = {"kind": cdef.kind, "property": cdef.property_id,
                           "instances": len(insts)}
            if cdef.kind == "exact":
                bad = [(inst, r) for inst, r in zip(insts, results) if not r["ok"]]
                entry["violations"] = len(bad)
                if bad:
                    inst, detail = bad[0]
                    if report_path:
                        fail_path = Path(report_path).with_suffix(".failing.json")
                        fail_path.write_text(json.dumps(
                            {"check": cid, "instance": inst}, indent=2, sort_keys=True))
                        echo(f"[{cid}] FAILED, instance written to {fail_path}")
                    raise CheckFailure(cid, inst, detail)
            else:
                # a ratio check's record holds one "ratio" or a list of "ratios"
                ratios = [float(x) for r in results
                          for x in r.get("ratios", [r.get("ratio")])]
                entry["ratio_count"] = len(ratios)
                entry["max_ratio"] = float(np.max(ratios))
                entry["p99_ratio"] = float(np.percentile(ratios, 99))
                entry["median_ratio"] = float(np.median(ratios))
            report["checks"][cid] = entry
            echo(f"[{cid}] {cdef.kind}: {len(insts)} instances ok "
                 f"({sum(seconds):.2f}s, not recorded in report)")
    finally:
        # a violation, an error or an interrupt drops the instances still queued
        pool.shutdown(cancel_futures=True)
    if report_path:
        Path(report_path).write_text(serialize_report(report))
    return report


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def replay(instance_path: str, verbose: bool = True) -> dict:
    """Re-run a single serialized instance; when verbose, print its record.

    The file must name a check and hold every key that the check's sampler
    draws; anything less is a ValueError naming the missing key.
    """
    doc = json.loads(Path(instance_path).read_text())
    what = f"replay file {instance_path}"
    cid = _field(doc, "check", what, str)
    if cid not in CHECKS:
        raise ValueError(f"unknown check {cid!r} in {instance_path}")
    inst = _field(doc, "instance", what, lambda v: v)
    drawn = CHECKS[cid].generate(InstanceDistribution(count=1), np.random.default_rng(0))
    for key in drawn[0]:
        _field(inst, key, f"{cid} instance", lambda v: v)
    result = CHECKS[cid].evaluate(inst)
    if verbose:
        print(f"replaying {cid} on {inst}")
        print("result:")
        for key, value in result.items():
            print(f"  {key}={value}")
    return result
