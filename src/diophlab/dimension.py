"""Series convergence analysis and the dimension exponent tau.

A series family assigns to each index n a nonnegative term built from
(a_n, b_n, psi(n)) and an exponent s.  tau is the infimum of s for which
the family's series converges; the dimension of the underlying limsup set
is bounded by min(1, tau).

Families:
  plain      b_n (psi/b_n)^s
  two-term   plain + a_n (psi/(a_n b_n))^(s/2)
  gcd        plain + gcd(a_n, b_n) (psi/(a_n b_n))^(s/2)   (integer sequences)
  four-term  plain * (1 + log(b_n)/a_n) + a_n (psi/(a_n b_n))^(s/2)
             + (psi/(a_n b_n))^(s/2) * log(b_n)
  lebesgue   psi log(1/psi) + (psi/a_n) log(b_n) log(1/psi)
             + (psi a_n/b_n)^(1/2) + (psi/(a_n b_n))^(1/2) log(b_n),
             evaluated at s = 1 over indices with psi > 0

For exponential and linear sequences with power, exponential or
scaled-base psi every term has log t_n = R(s) n + E(s) log n + const with
R, E affine in s, so thresholds are solved in closed form.  Explicit
tables fall back to tail heuristics and numeric bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .approx_sets import FracParams, _product_pieces
from .intervals import _check_dyadic
from .sequences import (PsiSpec, SequenceSpec, eval_psi, eval_sequence,
                        refined_log, sequence_gcd)

FAMILIES = ("plain", "two-term", "gcd", "four-term", "lebesgue")

BISECT_LO = 1e-3
BISECT_HI = 1.0 - 1e-3
N_MAX = 10_000
RATIO_BAND = 1e-3


@dataclass(frozen=True)
class SeriesSpec:
    seq: SequenceSpec
    psi: PsiSpec
    family: str = "two-term"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "gcd" and not self.seq.is_integer():
            raise ValueError("gcd family needs an integer-valued sequence")


def _check_s(spec: SeriesSpec, s: float) -> None:
    if spec.family == "lebesgue":
        if s != 1.0:
            raise ValueError("lebesgue family is evaluated at s = 1")
    elif not 0.0 < s < 1.0:
        raise ValueError(f"s must be in (0, 1), got {s}")


def term_value(spec: SeriesSpec, s: float, n: int) -> float:
    """The n-th term of the selected series; zero wherever psi(n) = 0."""
    _check_s(spec, s)
    an, bn, _, _ = eval_sequence(spec.seq, n)
    psi = eval_psi(spec.psi, n)
    if psi == 0.0:
        return 0.0
    first = bn * (psi / bn) ** s
    if spec.family == "plain":
        return first
    if spec.family == "two-term":
        return first + an * (psi / (an * bn)) ** (s / 2.0)
    if spec.family == "gcd":
        g = sequence_gcd(spec.seq, n)
        return first + g * (psi / (an * bn)) ** (s / 2.0)
    if spec.family == "four-term":
        half = (psi / (an * bn)) ** (s / 2.0)
        return (first * (1.0 + math.log(bn) / an)
                + an * half + half * math.log(bn))
    # lebesgue
    root = (psi / (an * bn)) ** 0.5
    return (psi * refined_log(1.0 / psi)
            + (psi / an) * math.log(bn) * refined_log(1.0 / psi)
            + (psi * an / bn) ** 0.5
            + root * math.log(bn))


# -- closed-form threshold algebra --------------------------------------------


def _growth(seq: SequenceSpec) -> dict | None:
    """(rate, poly, const) descriptors of log a_n, log b_n, log gcd_n."""
    if seq.kind == "exponential":
        out = {"a": (math.log(seq.a), 0.0), "b": (math.log(seq.b), 0.0)}
        if seq.is_integer():
            out["g"] = (math.log(math.gcd(int(seq.a), int(seq.b))), 0.0)
        return out
    if seq.kind == "linear":
        return {"a": (0.0, 1.0), "b": (0.0, 1.0)}
    return None


def _psi_growth(psi: PsiSpec) -> tuple[float, float] | None:
    """(rate, poly) of log psi(n); rate is negative for decaying psi."""
    if psi.kind == "power":
        return (0.0, -psi.t)
    if psi.kind == "exponential":
        return (-psi.lam, 0.0)
    if psi.kind == "scaled-base":
        g = _growth(psi.seq)
        if g is None:
            return None
        gb, pb = g["b"]
        return (-psi.t * gb, -psi.t * pb)
    return None


def _threshold(A: float, B: float, C: float, D: float) -> float:
    """inf{s : series with log-term R(s) n + E(s) log n converges},
    R(s) = A - s B, E(s) = C - s D."""
    if B > 0.0:
        return A / B
    if B < 0.0:
        raise ValueError("psi grows faster than the sequence; no threshold")
    if A > 0.0:
        return math.inf
    if A < 0.0:
        return -math.inf
    # pure p-series: need E(s) < -1
    if D > 0.0:
        return (C + 1.0) / D
    return -math.inf if C < -1.0 else math.inf


def _term_descriptors(spec: SeriesSpec) -> list[tuple[float, float, float, float]] | None:
    """(A, B, C, D) per term, or None when no closed form applies."""
    g = _growth(spec.seq)
    pg = _psi_growth(spec.psi)
    if g is None or pg is None:
        return None
    ga, pa = g["a"]
    gb, pb = g["b"]
    gpsi, ppsi = pg
    logb_poly = 1.0 if gb > 0.0 else 0.0   # log(b_n) factor behaves like n or log n

    first = (gb, gb - gpsi, pb, pb - ppsi)
    second = (ga, (ga + gb - gpsi) / 2.0, pa, (pa + pb - ppsi) / 2.0)
    if spec.family == "plain":
        return [first]
    if spec.family == "two-term":
        return [first, second]
    if spec.family == "gcd":
        gg, pgc = g["g"]
        return [first, (gg, (ga + gb - gpsi) / 2.0, pgc, (pa + pb - ppsi) / 2.0)]
    if spec.family == "four-term":
        first_log = (gb - ga, gb - gpsi, pb + logb_poly - pa, pb - ppsi)
        fourth = (0.0, (ga + gb - gpsi) / 2.0, logb_poly, (pa + pb - ppsi) / 2.0)
        return [first, first_log, second, fourth]
    return None  # lebesgue has no s-threshold


def _lebesgue_rates(seq: SequenceSpec, psi: PsiSpec) -> list[tuple[float, float]] | None:
    """(rate, poly exponent) of each lebesgue-family term, or None.

    Log factors such as log(1/psi) and log(b_n) contribute one power of n
    when their argument grows geometrically, else only log n (which never
    moves a p-series verdict off criticality).
    """
    g = _growth(seq)
    pg = _psi_growth(psi)
    if g is None or pg is None:
        return None
    ga, pa = g["a"]
    gb, pb = g["b"]
    gpsi, ppsi = pg
    log_psi_poly = 1.0 if gpsi != 0.0 else 0.0
    log_b_poly = 1.0 if gb != 0.0 else 0.0
    return [
        (gpsi, ppsi + log_psi_poly),
        (gpsi - ga, ppsi - pa + log_psi_poly + log_b_poly),
        ((gpsi + ga - gb) / 2.0, (ppsi + pa - pb) / 2.0),
        ((gpsi - ga - gb) / 2.0, (ppsi - pa - pb) / 2.0 + log_b_poly),
    ]


# -- numeric tail analysis -----------------------------------------------------


def _log_seq(seq: SequenceSpec, ns: np.ndarray):
    """log a_n, log b_n, log gcd_n (or None) over an index array."""
    nf = ns.astype(float)
    if seq.kind == "exponential":
        la, lb = nf * math.log(seq.a), nf * math.log(seq.b)
        lg = nf * math.log(math.gcd(int(seq.a), int(seq.b))) if seq.is_integer() else None
        return la, lb, lg
    if seq.kind == "linear":
        return (math.log(seq.a) + np.log(nf), math.log(seq.b) + np.log(nf), None)
    la = np.log([seq.a_table[n - 1] for n in ns])
    lb = np.log([seq.b_table[n - 1] for n in ns])
    lg = None
    if seq.kind == "integer-table":
        lg = np.log([float(sequence_gcd(seq, int(n))) for n in ns])
    return la, lb, lg


def _log_psi(psi: PsiSpec, ns: np.ndarray, lb: np.ndarray):
    nf = ns.astype(float)
    if psi.kind == "power":
        return -psi.t * np.log(nf)
    if psi.kind == "exponential":
        return -psi.lam * nf
    if psi.kind == "scaled-base":
        return -psi.t * lb
    with np.errstate(divide="ignore"):
        return np.log([psi.values[n - 1] for n in ns])


def _log_terms(spec: SeriesSpec, s: float, ns: np.ndarray) -> np.ndarray:
    """log of the family's terms, safe for huge n (never forms b_n itself)."""
    la, lb, lg = _log_seq(spec.seq, ns)
    lpsi = _log_psi(spec.psi, ns, lb)
    first = (1.0 - s) * lb + s * lpsi
    if spec.family == "plain":
        return first
    half = (s / 2.0) * (lpsi - la - lb)
    if spec.family == "two-term":
        return np.logaddexp(first, la + half)
    if spec.family == "gcd":
        return np.logaddexp(first, lg + half)
    if spec.family == "four-term":
        with np.errstate(divide="ignore"):
            llb = np.log(lb)  # -inf when b_n <= 1, dropping that term
        parts = np.stack([first, first + llb - la, la + half, half + llb])
        return np.logaddexp.reduce(parts, axis=0)
    raise ValueError(f"no log-term form for family {spec.family!r}")


def _tail_fit(spec: SeriesSpec, s: float, n_max: int) -> tuple[float, float]:
    """Fit log t_n ~ R n + E log n + c on the tail; returns (R, E)."""
    lo = max(2, n_max // 2)
    ns = np.unique(np.round(np.geomspace(lo, n_max, 48)).astype(int))
    logs = _log_terms(spec, s, ns)
    keep = np.isfinite(logs)
    if int(np.count_nonzero(keep)) < 4:
        raise ValueError("tail is all zero or non-finite; cannot fit")
    x = ns[keep].astype(float)
    M = np.column_stack([x, np.log(x), np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(M, logs[keep], rcond=None)
    return float(coef[0]), float(coef[1])


def _tail_converges(spec: SeriesSpec, s: float, n_max: int) -> bool:
    R, E = _tail_fit(spec, s, n_max)
    if R < -1e-9:
        return True
    if R > 1e-9:
        return False
    return E < -1.0


@dataclass
class ConvergenceVerdict:
    """Convergence decision with its certificate.

    verdict is True, False, or None (inconclusive, table tails only).
    """

    verdict: bool | None
    certificate: dict = field(default_factory=dict)


def converges(spec: SeriesSpec, s: float) -> ConvergenceVerdict:
    """Decide convergence of the family's series at exponent s."""
    _check_s(spec, s)
    if spec.family == "lebesgue":
        pairs = _lebesgue_rates(spec.seq, spec.psi)
        if pairs is not None:
            verdict = all(r < 0.0 or (r == 0.0 and e < -1.0) for r, e in pairs)
            return ConvergenceVerdict(verdict, {
                "method": "closed-form",
                "rates": [r for r, _ in pairs],
                "poly_exponents": [e for _, e in pairs]})
        desc = None
    else:
        desc = _term_descriptors(spec)
    if desc is not None:
        rates = [A - s * B for A, B, _, _ in desc]
        polys = [C - s * D for _, _, C, D in desc]
        verdict = all(r < 0.0 or (r == 0.0 and e < -1.0)
                      for r, e in zip(rates, polys))
        return ConvergenceVerdict(verdict, {
            "method": "closed-form", "rates": rates, "poly_exponents": polys})
    # table (or lebesgue) input: ratio heuristic on the available tail
    length = spec.seq.length or spec.psi.length or N_MAX
    if spec.psi.length is not None:
        length = min(length, spec.psi.length)
    if spec.seq.length is not None:
        length = min(length, spec.seq.length)
    terms = [term_value(spec, s, n) for n in range(1, length + 1)]
    nz = [t for t in terms if t > 0.0]
    if not nz:
        return ConvergenceVerdict(True, {"method": "all-zero"})
    tail = nz[-min(10, len(nz)):]
    if len(tail) < 2:
        return ConvergenceVerdict(None, {"method": "ratio-test", "reason": "tail too short"})
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
    r = float(np.mean(ratios))
    cert = {"method": "ratio-test", "tail_ratio": r, "terms_used": len(nz)}
    # terms settling on a positive value cannot sum to a finite series
    if max(tail) <= 1.001 * min(tail) and min(tail) > 0.0:
        cert["reason"] = "terms do not vanish"
        return ConvergenceVerdict(False, cert)
    if r < 1.0 - RATIO_BAND:
        return ConvergenceVerdict(True, cert)
    if r > 1.0 + RATIO_BAND:
        return ConvergenceVerdict(False, cert)
    return ConvergenceVerdict(None, cert)


@dataclass
class TauResult:
    """Convergence exponent with provenance.

    tau is clamped to [0, 1]; thresholds holds the raw per-term values
    (closed form) or the bisection bracket (numeric).
    """

    tau: float
    method: str
    thresholds: tuple[float, ...] = ()
    diagnostics: dict = field(default_factory=dict)


def compute_tau(spec: SeriesSpec, numeric: bool = False,
                n_max: int = N_MAX) -> TauResult:
    """inf{s > 0 : the family's series converges}, clamped to [0, 1]."""
    if spec.family == "lebesgue":
        raise ValueError("lebesgue family has no s-threshold")
    desc = None if numeric else _term_descriptors(spec)
    if desc is not None:
        thresholds = [_threshold(*d) for d in desc]
        raw = max(thresholds)
        return TauResult(tau=min(max(raw, 0.0), 1.0), method="closed-form",
                         thresholds=tuple(thresholds), diagnostics={"raw_max": raw})
    # bisection on the tail-fit convergence predicate
    limit = n_max
    for length in (spec.seq.length, spec.psi.length):
        if length is not None:
            limit = min(limit, length)
    if limit < 8:
        raise ValueError("table too short for numeric tau")
    lo, hi = BISECT_LO, BISECT_HI
    if _tail_converges(spec, lo, limit):
        return TauResult(tau=lo, method="numeric-bisection", thresholds=(lo, lo),
                         diagnostics={"note": "converges at bracket floor"})
    if not _tail_converges(spec, hi, limit):
        return TauResult(tau=hi, method="numeric-bisection", thresholds=(hi, hi),
                         diagnostics={"note": "diverges at bracket ceiling"})
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _tail_converges(spec, mid, limit):
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-9:
            break
    tau = 0.5 * (lo + hi)
    return TauResult(tau=tau, method="numeric-bisection", thresholds=(lo, hi),
                     diagnostics={"n_max": limit})


def single_series_threshold(a: float, b: float) -> float:
    """max(2 - log(b)/log(a), 0) for exponential bases 1 < a < b.

    Exponents s above this value keep the single-series bound sufficient;
    the value is exactly 0 whenever a**2 <= b.
    """
    if a <= 1.0 or b <= a:
        raise ValueError(f"need 1 < a < b, got a={a}, b={b}")
    if b >= a * a:
        return 0.0
    return 2.0 - math.log(b) / math.log(a)


# -- box-counting experiments ------------------------------------------------


@dataclass
class BoxDimEstimate:
    """Least-squares slope of log box_count against log(1/scale).

    Exploratory upper indication only: box counts of interval unions can
    exceed the covering behavior the dimension exponent tau describes.
    They saturate when the pieces of one index lie closer together than the
    finest scale: every box is hit, each count is 1/scale and the slope is
    1.  The covering exponent is read from the per-index multi-scale covers
    instead (approx_sets.product_set_cover_cost and
    AnnulusCoverCost.premeasure).
    """

    slope: float
    stderr: float
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    note: str = "exploratory box-count slope, not a Hausdorff computation"


def _fit_slope(scales, counts) -> tuple[float, float]:
    x = np.log(1.0 / np.asarray(scales))
    y = np.log(np.asarray(counts, dtype=float))
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * xc)
    dof = max(len(x) - 2, 1)
    stderr = math.sqrt(float(np.sum(resid * resid)) / dof / sxx)
    return slope, stderr


def estimate_box_dimension(seq: SequenceSpec, psi: PsiSpec, n_lo: int, n_hi: int,
                           scales, cap: int | None = None) -> BoxDimEstimate:
    """Box-count slope of the truncated union, streamed without materializing it.

    Dyadic boxes are marked at the finest scale while the per-n solution
    pieces stream out of the cell solver; coarser counts roll up from the
    finest occupancy bitmap, which is exact for nested dyadic scales.

    When the pieces of one index lie closer together than the finest scale
    (for a_n = 2^n, b_n = 3^n, psi(n) = 3^-n every point k/3^n is a
    solution, so n = 16 at scale 2^-16), every box is hit: the counts equal
    1/scale and the slope is exactly 1, whatever the covering exponent.
    Use product_set_cover_cost and AnnulusCoverCost.premeasure, which cover
    each index at its own meshes, for that exponent.
    """
    scales = sorted(float(t) for t in scales)
    if len(scales) < 4:
        raise ValueError("need at least 4 scales")
    for t in scales:
        _check_dyadic(t)
    finest = scales[0]
    nbox = round(1.0 / finest)
    diff = np.zeros(nbox + 1, dtype=np.int64)

    def mark(lo_arr, hi_arr):
        jlo = np.floor(lo_arr / finest).astype(np.int64)
        jhi = (np.ceil(hi_arr / finest) - 1.0).astype(np.int64)
        np.add.at(diff, jlo, 1)
        np.add.at(diff, jhi + 1, -1)

    for n in range(n_lo, n_hi + 1):
        pval = eval_psi(psi, n)
        if pval == 0.0:
            continue
        delta = math.sqrt(pval)
        an, bn, cn, dn = eval_sequence(seq, n)
        params = FracParams(an, bn, cn, dn)
        if delta > 0.5:
            mark(np.array([0.0]), np.array([1.0]))
            continue
        for plo, phi in _product_pieces(params, delta, cap=cap):
            if plo.size:
                mark(plo, phi)

    hit = np.cumsum(diff)[:nbox] > 0
    if not hit.any():
        raise ValueError("degenerate fit: truncated set is empty")
    counts = []
    for t in scales:
        factor = round(t / finest)
        counts.append(int(hit.reshape(nbox // factor, factor).any(axis=1).sum()))
    slope, stderr = _fit_slope(scales, counts)
    return BoxDimEstimate(slope=slope, stderr=stderr,
                          scales=tuple(scales), counts=tuple(counts))
