"""Coefficient sequences (a_n, b_n, c_n, d_n) and approximation functions psi.

Families are described by small frozen dataclasses readable from JSON
config documents.  Every evaluated quadruple is checked against the
standing requirement 1 <= a_n <= b_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SEQ_KINDS = ("exponential", "linear", "explicit-table", "integer-table")
PSI_KINDS = ("power", "exponential", "scaled-base", "explicit-table")


def refined_log(x: float) -> float:
    """Natural log clamped to 1 for arguments at or below e.

    Used for the counting weight L and the log(1/delta), log(1/psi)
    factors in measure bounds, where the formulas assume the log term is
    at least 1.
    """
    return 1.0 if x <= math.e else math.log(x)


def log_weight(a: float, b: float) -> float:
    """The counting weight max(1, log(b)/a), with the refined log."""
    if a < 1.0 or b < a:
        raise ValueError(f"need 1 <= a <= b, got a={a}, b={b}")
    return max(1.0, refined_log(b) / a)


def require_finite(obj, names: tuple) -> None:
    """Reject a NaN or infinite field of obj, or entry of a tuple field, by name."""
    for name in names:
        value = getattr(obj, name)
        for v in value if isinstance(value, tuple) else (value,):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v}")


@dataclass(frozen=True)
class SequenceSpec:
    """One of the supported (a_n, b_n, c_n, d_n) families.

    kind:
      exponential    a_n = a**n, b_n = b**n with 1 < a < b
      linear         a_n = a*n,  b_n = b*n  with 1 <= a <= b
      explicit-table per-n values from a_table/b_table
      integer-table  as explicit-table, entries restricted to integers

    Shifts c, d are constants unless c_table/d_table is given.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    a_table: tuple = ()
    b_table: tuple = ()
    c_table: tuple = ()
    d_table: tuple = ()

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, float(getattr(self, name)))
        require_finite(self, ("a", "b", "c", "d", "a_table", "b_table",
                              "c_table", "d_table"))
        if self.kind not in SEQ_KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "exponential":
            if not (1.0 < self.a < self.b):
                raise ValueError(
                    f"exponential kind needs 1 < a < b, got a={self.a}, b={self.b}")
        elif self.kind == "linear":
            if not (1.0 <= self.a <= self.b):
                raise ValueError(
                    f"linear kind needs 1 <= a <= b, got a={self.a}, b={self.b}")
        else:
            if len(self.a_table) != len(self.b_table) or not self.a_table:
                raise ValueError("table kinds need a_table and b_table of equal length")
            for n0, (an, bn) in enumerate(zip(self.a_table, self.b_table)):
                if not (1.0 <= an <= bn):
                    raise ValueError(
                        f"table row {n0 + 1} violates 1 <= a_n <= b_n: ({an}, {bn})")
                if self.kind == "integer-table" and (an != int(an) or bn != int(bn)):
                    raise ValueError(
                        f"integer-table row {n0 + 1} has non-integer entries")

    @property
    def length(self) -> int | None:
        """Table length, or None for unbounded kinds."""
        return len(self.a_table) if self.a_table else None

    def is_integer(self) -> bool:
        """Whether a_n, b_n are integer-valued for all n."""
        if self.kind == "integer-table":
            return True
        if self.kind == "exponential":
            return self.a == int(self.a) and self.b == int(self.b)
        return False


def _table_at(table: tuple, n: int, what: str) -> float:
    if n < 1 or n > len(table):
        raise IndexError(f"{what} index {n} outside table range 1..{len(table)}")
    return float(table[n - 1])


def eval_sequence(spec: SequenceSpec, n: int) -> tuple[float, float, float, float]:
    """(a_n, b_n, c_n, d_n) at index n >= 1."""
    if n < 1:
        raise IndexError(f"sequence index must be >= 1, got {n}")
    if spec.kind == "exponential":
        an, bn = spec.a ** n, spec.b ** n
    elif spec.kind == "linear":
        an, bn = spec.a * n, spec.b * n
    else:
        an = _table_at(spec.a_table, n, "a_n")
        bn = _table_at(spec.b_table, n, "b_n")
    cn = _table_at(spec.c_table, n, "c_n") if spec.c_table else spec.c
    dn = _table_at(spec.d_table, n, "d_n") if spec.d_table else spec.d
    if not (1.0 <= an <= bn):
        raise ValueError(f"sequence violates 1 <= a_n <= b_n at n={n}: ({an}, {bn})")
    return an, bn, cn, dn


def sequence_gcd(spec: SequenceSpec, n: int) -> int:
    """gcd(a_n, b_n) for integer-valued kinds.

    For integer exponential bases gcd(a**n, b**n) = gcd(a, b)**n, which
    avoids huge intermediate integers.
    """
    if not spec.is_integer():
        raise ValueError("gcd is only defined for integer-valued sequences")
    if spec.kind == "exponential":
        return math.gcd(int(spec.a), int(spec.b)) ** n
    an, bn, _, _ = eval_sequence(spec, n)
    return math.gcd(int(an), int(bn))


@dataclass(frozen=True)
class PsiSpec:
    """Approximation function family.

    kind:
      power          psi(n) = n**-t
      exponential    psi(n) = exp(-lam * n)
      scaled-base    psi(n) = b_n**-t for the bound sequence `seq`
      explicit-table per-n values
    """

    kind: str
    t: float = 0.0
    lam: float = 0.0
    values: tuple = ()
    seq: SequenceSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "lam", float(self.lam))
        require_finite(self, ("t", "lam", "values"))
        if self.kind not in PSI_KINDS:
            raise ValueError(f"unknown psi kind {self.kind!r}")
        if self.kind == "explicit-table":
            if not self.values:
                raise ValueError("explicit-table psi needs values")
            if any(v < 0 for v in self.values):
                raise ValueError("psi values must be nonnegative")
        if self.kind == "scaled-base" and self.seq is None:
            raise ValueError("scaled-base psi needs a bound sequence")

    @property
    def length(self) -> int | None:
        return len(self.values) if self.kind == "explicit-table" else None


def eval_psi(spec: PsiSpec, n: int) -> float:
    """psi(n) >= 0 at index n >= 1."""
    if n < 1:
        raise IndexError(f"psi index must be >= 1, got {n}")
    if spec.kind == "power":
        return float(n) ** (-spec.t)
    if spec.kind == "exponential":
        return math.exp(-spec.lam * n)
    if spec.kind == "scaled-base":
        _, bn, _, _ = eval_sequence(spec.seq, n)
        return bn ** (-spec.t)
    return _table_at(spec.values, n, "psi")


# -- JSON config ------------------------------------------------------------


def _floats(value) -> tuple:
    """A JSON list of numbers as a tuple of floats."""
    if not isinstance(value, list):
        raise TypeError("not a list")
    return tuple(float(x) for x in value)


def _field(doc, key: str, what: str, convert=float, default=None):
    """convert(doc[key]), or convert(default) when the key is absent.

    A document that is not an object, a missing key without a default, or a
    value that convert refuses is a ValueError naming the key, so that bad
    JSON ends in a message rather than a KeyError or TypeError.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc and default is None:
        raise ValueError(f"{what} needs the key {key!r}")
    value = doc.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} key {key!r} has a bad value {value!r}") from None


def parse_sequence(doc: dict) -> SequenceSpec:
    """Build a SequenceSpec from its JSON form.

    Examples: {"kind": "exponential", "a": 2, "b": 3, "c": 0, "d": 0}
              {"kind": "explicit-table", "a": [1.5], "b": [4.2], "c": 0.3, "d": -0.7}
    """
    kind = _field(doc, "kind", "sequence", str)
    what = f"sequence {kind}"
    if kind in ("exponential", "linear"):
        return SequenceSpec(kind=kind, a=_field(doc, "a", what), b=_field(doc, "b", what),
                            c=_field(doc, "c", what, default=0.0),
                            d=_field(doc, "d", what, default=0.0))
    if kind in ("explicit-table", "integer-table"):
        def shift(v):
            return (0.0, _floats(v)) if isinstance(v, list) else (float(v), ())
        c, c_table = _field(doc, "c", what, shift, 0.0)
        d, d_table = _field(doc, "d", what, shift, 0.0)
        return SequenceSpec(kind=kind, a_table=_field(doc, "a", what, _floats),
                            b_table=_field(doc, "b", what, _floats),
                            c=c, c_table=c_table, d=d, d_table=d_table)
    raise ValueError(f"unknown sequence kind {kind!r}")


def parse_psi(doc: dict, seq: SequenceSpec | None = None) -> PsiSpec:
    """Build a PsiSpec from its JSON form, e.g. {"kind": "exponential", "lambda": 1.1}."""
    kind = _field(doc, "kind", "psi", str)
    what = f"psi {kind}"
    if kind == "power":
        return PsiSpec(kind=kind, t=_field(doc, "t", what))
    if kind == "exponential":
        return PsiSpec(kind=kind, lam=_field(doc, "lambda", what))
    if kind == "scaled-base":
        return PsiSpec(kind=kind, t=_field(doc, "t", what), seq=seq)
    if kind == "explicit-table":
        return PsiSpec(kind=kind, values=_field(doc, "values", what, _floats))
    raise ValueError(f"unknown psi kind {kind!r}")

