"""Series convergence analysis and the dimension exponent tau.

A series family assigns to each index n a nonnegative term built from
(a_n, b_n, psi(n)) and an exponent s.  tau is the infimum of s for which
the family's series converges; the dimension of the underlying limsup set
is bounded by min(1, tau).

`_TERMS` is the one definition of the families (plain, two-term, gcd,
four-term, lebesgue): each is a list of terms, each term a weighted sum
of log features such as log b_n and log psi(n).

Each feature grows as rate * n + poly * log n + const, so every term has
log t_n = R(s) n + E(s) log n + const with R, E affine in s, and one
threshold algebra solves tau and the convergence verdicts.  For
exponential and linear sequences with power, exponential or scaled-base
psi the feature growth is exact (the closed form); for tables, or on
request, each feature's sampled logs are least-squares fitted on the tail
(the tail fit).  Sampled feature logs also give the term values.
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

N_MAX = 10_000
# a fitted term on the p-series boundary, R(s) = 0 and |E(s) + 1| below
# this, gets no verdict: the fit cannot tell its side
POLY_BAND = 0.1

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
    """Feature name -> value for one spec (and the indices sampled or
    fitted), each computed on its first lookup as make[name](self) and kept."""

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


def term_value(spec: SeriesSpec, s: float, n: int) -> float:
    """The n-th term of the selected series; zero wherever psi(n) = 0."""
    _check_s(spec, s)
    if n < 1:
        raise IndexError(f"series index must be >= 1, got {n}")
    f = _Features(_SAMPLED, spec, np.array([n]))
    logs = [reduce(operator.add, ((u + s * v) * f[name] for name, u, v in term))
            for term in _TERMS[spec.family]]
    return float(np.exp(reduce(np.logaddexp, logs)[0]))


# -- feature growth, exact or fitted on the tail -------------------------------


def _table_limit(spec: SeriesSpec) -> int:
    """The last index every table of the spec covers, at most N_MAX."""
    base = spec.psi.seq if spec.psi.kind == "scaled-base" else spec.seq
    lengths = (spec.seq.length, spec.psi.length, base.length)
    return min([N_MAX] + [n for n in lengths if n is not None])


def _fitted_features(spec: SeriesSpec) -> _Features:
    """(rate, poly) per feature, least-squares fitted to its sampled logs as
    rate * n + poly * log n + c on 48 geometric indices in [N/2, N], N the
    table limit, where psi > 0.  The log log features have no rate, as in
    _EXACT, and a |rate| below 1e-9 is 0.  A fit is linear in its data, so
    a term's fitted features sum to the fit of its log; fitting features,
    not the logaddexp of the terms, keeps each term's own growth.  The
    map's ns are the indices fitted.
    """
    limit = _table_limit(spec)
    if limit < 8:
        raise ValueError("table too short for numeric tau")
    ns = np.unique(np.round(np.geomspace(max(2, limit // 2), limit, 48)).astype(int))
    sampled = _Features(_SAMPLED, spec, ns)
    keep = sampled["psi"] > -np.inf
    if np.count_nonzero(keep) < 4:
        raise ValueError("tail is all zero or non-finite; cannot fit")
    x = ns[keep].astype(float)
    basis = np.column_stack([x, np.log(x), np.ones_like(x)])

    def fit(name):
        y = sampled[name][keep]
        if name not in ("llb", "llpsi"):
            (rate, poly, _), *_ = np.linalg.lstsq(basis, y, rcond=None)
            return (0.0 if abs(rate) < 1e-9 else float(rate)), float(poly)
        # log log b_n is -inf where b_n = 1, and so is every term it enters
        finite = y > -np.inf
        if not finite.any():
            return None, -math.inf
        (poly, _), *_ = np.linalg.lstsq(basis[finite, 1:], y[finite], rcond=None)
        return None, float(poly)
    return _Features({name: lambda f, name=name: fit(name) for name in _SAMPLED},
                     spec, ns[keep])


def _growth(spec: SeriesSpec, numeric: bool = False) -> tuple[_Features, str, dict]:
    """The (rate, poly) feature map, its method and what it was fitted on:
    exact when both sequences are exponential or linear, psi is not a table
    and numeric is not set, else fitted."""
    base = spec.psi.seq if spec.psi.kind == "scaled-base" else spec.seq
    if (numeric or spec.psi.kind == "explicit-table"
            or not {spec.seq.kind, base.kind} <= {"exponential", "linear"}):
        grow = _fitted_features(spec)
        return grow, "tail-fit", {"n_max": int(grow.ns[-1]), "indices": int(grow.ns.size)}
    return _Features(_EXACT, spec), "closed-form", {}


# -- threshold algebra ---------------------------------------------------------


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


def _term_descriptors(grow: _Features) -> list[tuple[float, float, float, float]]:
    """(A, B, C, D) per term, R(s) = A - s B and E(s) = C - s D, from the
    feature growth map grow."""
    out = []
    for term in _TERMS[grow.spec.family]:
        rows = [(grow[name], u, v) for name, u, v in term]
        out.append((_sum(u * r for (r, _), u, _ in rows if u and r is not None),
                    _sum(-v * r for (r, _), _, v in rows if v and r is not None),
                    _sum(u * p for (_, p), u, _ in rows if u),
                    _sum(-v * p for (_, p), _, v in rows if v)))
    return out


@dataclass
class ConvergenceVerdict:
    """Convergence decision with its certificate.

    verdict is True, False, or None (inconclusive, tail fits only: a term
    with R(s) = 0 and E(s) within POLY_BAND of -1 and none diverging, or a
    table too short to fit, the certificate's reason).  The certificate
    holds the method and each term's R(s) and E(s).
    """

    verdict: bool | None
    certificate: dict = field(default_factory=dict)


def converges(spec: SeriesSpec, s: float) -> ConvergenceVerdict:
    """Decide convergence of the family's series at exponent s.

    A term converges when R(s) < 0, or R(s) = 0 and E(s) < -1, read from
    the exact feature growth or, for tables, the tail fit; the series
    converges when every term does.  A psi table that is 0 at every index
    converges.
    """
    _check_s(spec, s)
    if spec.psi.kind == "explicit-table" and not any(spec.psi.values[:_table_limit(spec)]):
        return ConvergenceVerdict(True, {"method": "all-zero"})
    try:
        grow, method, facts = _growth(spec)
    except ValueError as exc:  # a table too short to fit
        return ConvergenceVerdict(None, {"method": "tail-fit", "reason": str(exc)})
    desc = _term_descriptors(grow)
    rates = [A - s * B for A, B, _, _ in desc]
    polys = [C - s * D for _, _, C, D in desc]
    band = POLY_BAND if method == "tail-fit" else 0.0
    each = [None if r == 0.0 and abs(e + 1.0) < band
            else r < 0.0 or (r == 0.0 and e < -1.0) for r, e in zip(rates, polys)]
    verdict = False if False in each else None if None in each else True
    return ConvergenceVerdict(verdict, {
        "method": method, "rates": rates, "poly_exponents": polys, **facts})


@dataclass
class TauResult:
    """Convergence exponent with provenance.

    tau is clamped to [0, 1]; thresholds holds the raw per-term values, and
    method says whether they come from the exact feature growth
    ("closed-form") or the tail fit ("tail-fit", whose diagnostics give
    n_max and the number of indices fitted).
    """

    tau: float
    method: str
    thresholds: tuple[float, ...] = ()
    diagnostics: dict = field(default_factory=dict)


def compute_tau(spec: SeriesSpec, numeric: bool = False) -> TauResult:
    """inf{s > 0 : the family's series converges}, clamped to [0, 1].

    The largest per-term threshold, from the exact feature growth, or from
    the tail fit for tables and when numeric is set; ValueError when the
    table is too short to fit.
    """
    if spec.family == "lebesgue":
        raise ValueError("lebesgue family has no s-threshold")
    grow, method, facts = _growth(spec, numeric)
    thresholds = [_threshold(*d) for d in _term_descriptors(grow)]
    raw = max(thresholds)
    return TauResult(tau=min(max(raw, 0.0), 1.0), method=method,
                     thresholds=tuple(thresholds), diagnostics={"raw_max": raw, **facts})


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
    refuses psi(n) in (0, 2**-1022) as `product_set` does, here with n and
    psi(n) named; coarser counts roll up from the finest occupancy bitmap,
    exact for nested dyadic scales.

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
        p, psi_n = FracParams(*eval_sequence(seq, n)), eval_psi(psi, n)
        try:
            for plo, phi in _product_pieces(p, math.sqrt(psi_n)):
                np.add.at(diff, np.floor(plo / finest).astype(np.int64), 1)
                np.add.at(diff, np.ceil(phi / finest).astype(np.int64), -1)
        except ValueError as exc:  # sqrt(psi(n)) outside the stream's delta domain
            raise ValueError(f"psi({n}) = {psi_n!r}: {exc}") from None
    hit = np.cumsum(diff)[:nbox] > 0
    if not hit.any():
        raise ValueError("degenerate fit: truncated set is empty")
    counts = [int(hit.reshape(-1, round(t / finest)).any(axis=1).sum()) for t in scales]
    slope, stderr = _fit_slope(scales, counts)
    return BoxDimEstimate(slope=slope, stderr=stderr,
                          scales=tuple(scales), counts=tuple(counts))
