"""Series convergence analysis and the dimension exponent tau.

A series family assigns to each index n a nonnegative term built from
(a_n, b_n, psi(n)) and an exponent s.  tau is the infimum of s for which
the family's series converges; the dimension of the underlying limsup set
is bounded by min(1, tau).

`_TERMS` is the one definition of the families (plain, two-term, gcd,
four-term, lebesgue): each is a list of terms, each term a weighted sum
of log features such as log b_n and log psi(n).  Exact feature growth
gives the closed-form rates, sampled feature logs give the tail fits,
term values and ratio tests.

For exponential and linear sequences with power, exponential or
scaled-base psi every feature grows as rate * n + poly * log n, so every
term has log t_n = R(s) n + E(s) log n + const with R, E affine in s,
and thresholds are solved in closed form.  Explicit tables fall back to
tail heuristics and numeric bisection.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .approx_sets import FracParams, _product_pieces
from .intervals import _check_dyadic, check_size
from .sequences import PsiSpec, SequenceSpec, eval_psi, eval_sequence, sequence_gcd

BISECT_LO = 1e-3
BISECT_HI = 1.0 - 1e-3
N_MAX = 10_000
RAABE_BAND = 0.1

# family -> terms; the rows (f, u, v) of a term give log t_n as the sum of
# (u + s v) * f_n in row order, over the log features f
#   a = log a_n, b = log b_n, g = log gcd(a_n, b_n), psi = log psi(n),
#   q = log(psi/(a_n b_n)), llb = log log b_n, llpsi = log refined_log(1/psi)
_FIRST = (("b", 1.0, -1.0), ("psi", 0.0, 1.0))        # b_n (psi/b_n)^s
_HALF = ("q", 0.0, 0.5)                                # (psi/(a_n b_n))^(s/2)
_TERMS = {
    "plain": (_FIRST,),
    "two-term": (_FIRST, (("a", 1.0, 0.0), _HALF)),    # + a_n (psi/(a_n b_n))^(s/2)
    "gcd": (_FIRST, (("g", 1.0, 0.0), _HALF)),         # + gcd(a_n, b_n) (...)^(s/2)
    "four-term": (_FIRST,
                  # b_n (psi/b_n)^s log(b_n)/a_n
                  _FIRST + (("llb", 1.0, 0.0), ("a", -1.0, 0.0)),
                  (("a", 1.0, 0.0), _HALF),          # a_n (psi/(a_n b_n))^(s/2)
                  (_HALF, ("llb", 1.0, 0.0))),       # (psi/(a_n b_n))^(s/2) log b_n
    # at s = 1 only, over the indices with psi > 0
    "lebesgue": ((("psi", 1.0, 0.0), ("llpsi", 1.0, 0.0)),      # psi log(1/psi)
                 (("psi", 1.0, 0.0), ("a", -1.0, 0.0),           # (psi/a_n) log(b_n)
                  ("llpsi", 1.0, 0.0), ("llb", 1.0, 0.0)),       #   * log(1/psi)
                 (("psi", 0.5, 0.0), ("a", 0.5, 0.0),            # (psi a_n/b_n)^(1/2)
                  ("b", -0.5, 0.0)),
                 (("psi", 0.5, 0.0), ("a", -0.5, 0.0),           # (psi/(a_n b_n))^(1/2)
                  ("b", -0.5, 0.0), ("llb", 1.0, 0.0))),         #   * log b_n
}


@dataclass(frozen=True)
class SeriesSpec:
    seq: SequenceSpec
    psi: PsiSpec
    family: str = "two-term"

    def __post_init__(self):
        if self.family not in _TERMS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "gcd" and not self.seq.is_integer():
            raise ValueError("gcd family needs an integer-valued sequence")


def _check_s(spec: SeriesSpec, s: float) -> None:
    if spec.family == "lebesgue":
        if s != 1.0:
            raise ValueError("lebesgue family is evaluated at s = 1")
    elif not 0.0 < s < 1.0:
        raise ValueError(f"s must be in (0, 1), got {s}")


class _Features(dict):
    """Feature name -> value for one spec (and index array), each computed
    on its first lookup as make[name](self) and kept."""

    def __init__(self, make: dict, spec: SeriesSpec, ns: np.ndarray | None = None):
        super().__init__()
        self.make, self.spec, self.ns = make, spec, ns

    def __missing__(self, name):
        value = self[name] = self.make[name](self)
        return value


def _ab_growth(seq: SequenceSpec, i: int) -> tuple[float, float]:
    if seq.kind == "exponential":
        return (math.log((seq.a, seq.b)[i]), 0.0)
    return (0.0, 1.0)


def _psi_growth(psi: PsiSpec) -> tuple[float, float]:
    if psi.kind == "power":
        return (0.0, -psi.t)
    if psi.kind == "exponential":
        return (-psi.lam, 0.0)
    gb, pb = _ab_growth(psi.seq, 1)
    return (-psi.t * gb, -psi.t * pb)


# exact (rate, poly) with f_n = rate n + poly log n + O(1); the log log
# features have no rate, and one power of log n when their argument grows
# geometrically
_EXACT = {
    "a": lambda f: _ab_growth(f.spec.seq, 0),
    "b": lambda f: _ab_growth(f.spec.seq, 1),
    "g": lambda f: (math.log(math.gcd(int(f.spec.seq.a), int(f.spec.seq.b))), 0.0),
    "psi": lambda f: _psi_growth(f.spec.psi),
    "q": lambda f: tuple(p - (a + b) for p, a, b in zip(f["psi"], f["a"], f["b"])),
    "llb": lambda f: (None, 1.0 if f["b"][0] > 0.0 else 0.0),
    "llpsi": lambda f: (None, 1.0 if f["psi"][0] != 0.0 else 0.0),
}


def _exact_features(spec: SeriesSpec) -> _Features | None:
    """The exact feature map, or None unless both sequences are exponential
    or linear and psi is not a table."""
    base = spec.psi.seq if spec.psi.kind == "scaled-base" else spec.seq
    if (spec.psi.kind == "explicit-table"
            or not {spec.seq.kind, base.kind} <= {"exponential", "linear"}):
        return None
    return _Features(_EXACT, spec)


def _log0(x) -> np.ndarray:
    """np.log, with log 0 = -inf and no warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def _log_ab(seq: SequenceSpec, i: int, ns: np.ndarray) -> np.ndarray:
    if seq.kind == "exponential":
        return ns * math.log((seq.a, seq.b)[i])
    if seq.kind == "linear":
        return math.log((seq.a, seq.b)[i]) + np.log(ns)
    return np.log([(seq.a_table, seq.b_table)[i][n - 1] for n in ns])


def _log_psi(psi: PsiSpec, ns: np.ndarray) -> np.ndarray:
    if psi.kind == "power":
        return -psi.t * np.log(ns)
    if psi.kind == "exponential":
        return -psi.lam * ns
    if psi.kind == "scaled-base":
        return -psi.t * _log_ab(psi.seq, 1, ns)
    return _log0([psi.values[n - 1] for n in ns])


def _log_gcd(seq: SequenceSpec, ns: np.ndarray) -> np.ndarray:
    if seq.kind == "exponential":
        return ns * math.log(math.gcd(int(seq.a), int(seq.b)))
    return np.log([float(sequence_gcd(seq, int(n))) for n in ns])


# sampled values over an index array, never forming b_n itself
_SAMPLED = {
    "a": lambda f: _log_ab(f.spec.seq, 0, f.ns),
    "b": lambda f: _log_ab(f.spec.seq, 1, f.ns),
    "g": lambda f: _log_gcd(f.spec.seq, f.ns),
    "psi": lambda f: _log_psi(f.spec.psi, f.ns),
    "q": lambda f: f["psi"] - f["a"] - f["b"],
    "llb": lambda f: _log0(f["b"]),  # -inf where b_n = 1, dropping the term
    # finite where psi = 0, so that the psi factor's -inf drops the term
    "llpsi": lambda f: np.log(np.clip(-f["psi"], 1.0, np.finfo(float).max)),
}


def _log_terms(f: _Features, s: float) -> np.ndarray:
    """log of the family's series term at each index of the sampled map f."""
    logs = [reduce(operator.add, ((u + s * v) * f[name] for name, u, v in term))
            for term in _TERMS[f.spec.family]]
    return reduce(np.logaddexp, logs)


def term_value(spec: SeriesSpec, s: float, n: int) -> float:
    """The n-th term of the selected series; zero wherever psi(n) = 0."""
    _check_s(spec, s)
    if n < 1:
        raise IndexError(f"series index must be >= 1, got {n}")
    return float(np.exp(_log_terms(_Features(_SAMPLED, spec, np.array([n])), s)[0]))


# -- closed-form threshold algebra --------------------------------------------


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


def _sum(parts) -> float:
    """Left-to-right sum with no 0.0 start, so a lone -0.0 keeps its sign."""
    parts = list(parts)
    return reduce(operator.add, parts) if parts else 0.0


def _term_descriptors(spec: SeriesSpec) -> list[tuple[float, float, float, float]] | None:
    """(A, B, C, D) per term, R(s) = A - s B and E(s) = C - s D, or None
    when no closed form applies."""
    grow = _exact_features(spec)
    if grow is None:
        return None
    out = []
    for term in _TERMS[spec.family]:
        rows = [(grow[name], u, v) for name, u, v in term]
        out.append((_sum(u * r for (r, _), u, _ in rows if u and r is not None),
                    _sum(-v * r for (r, _), _, v in rows if v and r is not None),
                    _sum(u * p for (_, p), u, _ in rows if u),
                    _sum(-v * p for (_, p), _, v in rows if v)))
    return out


# -- numeric tail analysis -----------------------------------------------------


def _table_limit(spec: SeriesSpec) -> int:
    """The last index every table of the spec covers, at most N_MAX."""
    base = spec.psi.seq if spec.psi.kind == "scaled-base" else spec.seq
    lengths = (spec.seq.length, spec.psi.length, base.length)
    return min([N_MAX] + [n for n in lengths if n is not None])


def _tail_fit(tail: _Features, s: float) -> tuple[float, float]:
    """Fit log t_n ~ R n + E log n + c on the sampled tail; returns (R, E)."""
    logs = _log_terms(tail, s)
    keep = np.isfinite(logs)
    if int(np.count_nonzero(keep)) < 4:
        raise ValueError("tail is all zero or non-finite; cannot fit")
    x = tail.ns[keep].astype(float)
    M = np.column_stack([x, np.log(x), np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(M, logs[keep], rcond=None)
    return float(coef[0]), float(coef[1])


def _tail_converges(tail: _Features, s: float) -> bool:
    R, E = _tail_fit(tail, s)
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
    desc = _term_descriptors(spec)
    if desc is not None:
        rates = [A - s * B for A, B, _, _ in desc]
        polys = [C - s * D for _, _, C, D in desc]
        verdict = all(r < 0.0 or (r == 0.0 and e < -1.0)
                      for r, e in zip(rates, polys))
        return ConvergenceVerdict(verdict, {
            "method": "closed-form", "rates": rates, "poly_exponents": polys})
    # table input: Raabe's test n (1 - r) against 1, r the tail's mean ratio per
    # index step; a p-series has r = 1 - p/n + O(n**-2) < 1, a flat tail n (1 - r) = 0
    ns = np.arange(1, _table_limit(spec) + 1)
    logs = _log_terms(_Features(_SAMPLED, spec, ns), s)
    nonzero = logs > -np.inf
    nz = logs[nonzero]
    if not nz.size:
        return ConvergenceVerdict(True, {"method": "all-zero"})
    tail = nz[-10:]
    if len(tail) < 2:
        return ConvergenceVerdict(None, {"method": "ratio-test", "reason": "tail too short"})
    at = ns[nonzero][-10:]
    r = float(np.mean(np.exp(np.diff(tail) / np.diff(at))))
    raabe = float(at[-1]) * (1.0 - r)
    cert = {"method": "ratio-test", "tail_ratio": r, "raabe": raabe,
            "terms_used": int(nz.size)}
    if raabe > 1.0 + RAABE_BAND:
        return ConvergenceVerdict(True, cert)
    if raabe < 1.0 - RAABE_BAND:
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


def compute_tau(spec: SeriesSpec, numeric: bool = False) -> TauResult:
    """inf{s > 0 : the family's series converges}, clamped to [0, 1]."""
    if spec.family == "lebesgue":
        raise ValueError("lebesgue family has no s-threshold")
    desc = None if numeric else _term_descriptors(spec)
    if desc is not None:
        thresholds = [_threshold(*d) for d in desc]
        raw = max(thresholds)
        return TauResult(tau=min(max(raw, 0.0), 1.0), method="closed-form",
                         thresholds=tuple(thresholds), diagnostics={"raw_max": raw})
    # bisection on the tail-fit convergence predicate; the features are
    # sampled once and only re-weighted for each s
    limit = _table_limit(spec)
    if limit < 8:
        raise ValueError("table too short for numeric tau")
    ns = np.unique(np.round(np.geomspace(max(2, limit // 2), limit, 48)).astype(int))
    tail = _Features(_SAMPLED, spec, ns)
    lo, hi = BISECT_LO, BISECT_HI
    if _tail_converges(tail, lo):
        return TauResult(tau=lo, method="numeric-bisection", thresholds=(lo, lo),
                         diagnostics={"note": "converges at bracket floor"})
    if not _tail_converges(tail, hi):
        return TauResult(tau=hi, method="numeric-bisection", thresholds=(hi, hi),
                         diagnostics={"note": "diverges at bracket ceiling"})
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _tail_converges(tail, mid):
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
                           scales) -> BoxDimEstimate:
    """Box-count slope of the truncated union, streamed without materializing it.

    Dyadic boxes are marked at the finest scale while the per-n solution
    pieces stream out of `_product_pieces` at delta = sqrt(psi(n)), which
    refuses psi(n) in (0, 2**-1022) as `product_set` does; coarser counts
    roll up from the finest occupancy bitmap, exact for nested dyadic scales.

    When the pieces of one index lie closer together than the finest scale
    (for a_n = 2^n, b_n = 3^n, psi(n) = 3^-n every point k/3^n is a
    solution, so n = 16 at scale 2^-16), every box is hit: the counts equal
    1/scale and the slope is exactly 1, whatever the covering exponent.
    Use product_set_cover_cost and AnnulusCoverCost.premeasure, which cover
    each index at its own meshes, for that exponent.
    """
    if n_hi < n_lo:
        raise ValueError(f"need n_lo <= n_hi, got n_lo={n_lo}, n_hi={n_hi}")
    scales = sorted(float(t) for t in scales)
    if len(scales) < 4:
        raise ValueError("need at least 4 scales")
    for t in scales:
        _check_dyadic(t)
    finest = scales[0]
    nbox = round(1.0 / finest)
    check_size(nbox, "finest-scale boxes")
    # a piece adds 1 at its first finest box and -1 just past its last
    diff = np.zeros(nbox + 1, dtype=np.int64)
    for n in range(n_lo, n_hi + 1):
        delta = math.sqrt(eval_psi(psi, n))
        for plo, phi in _product_pieces(FracParams(*eval_sequence(seq, n)), delta):
            np.add.at(diff, np.floor(plo / finest).astype(np.int64), 1)
            np.add.at(diff, np.ceil(phi / finest).astype(np.int64), -1)
    hit = np.cumsum(diff)[:nbox] > 0
    if not hit.any():
        raise ValueError("degenerate fit: truncated set is empty")
    counts = [int(hit.reshape(-1, round(t / finest)).any(axis=1).sum()) for t in scales]
    slope, stderr = _fit_slope(scales, counts)
    return BoxDimEstimate(slope=slope, stderr=stderr,
                          scales=tuple(scales), counts=tuple(counts))
