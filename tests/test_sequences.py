import json
import math
import re

import pytest

from diophlab.sequences import (PsiSpec, SequenceSpec, eval_psi, eval_sequence,
                                log_weight, parse_psi, parse_sequence, refined_log,
                                sequence_gcd)


def test_eval_exponential():
    spec = SequenceSpec(kind="exponential", a=2, b=3)
    assert eval_sequence(spec, 3) == (8, 27, 0, 0)


def test_eval_linear_identity_case():
    spec = SequenceSpec(kind="linear", a=1, b=1)
    assert eval_sequence(spec, 5) == (5, 5, 0, 0)


def test_eval_table_readback():
    spec = SequenceSpec(kind="explicit-table", a_table=(1.5,), b_table=(4.2,),
                        c=0.3, d=-0.7)
    assert eval_sequence(spec, 1) == (1.5, 4.2, 0.3, -0.7)


def test_table_out_of_range():
    spec = SequenceSpec(kind="explicit-table", a_table=(1.0, 2.0), b_table=(1.0, 2.0))
    with pytest.raises(IndexError):
        eval_sequence(spec, 3)
    with pytest.raises(IndexError):
        eval_sequence(spec, 0)


def test_table_invariant_violation():
    with pytest.raises(ValueError):
        SequenceSpec(kind="explicit-table", a_table=(0.5,), b_table=(2.0,))
    with pytest.raises(ValueError):
        SequenceSpec(kind="explicit-table", a_table=(3.0,), b_table=(2.0,))


def test_exponential_requires_strict_bases():
    with pytest.raises(ValueError):
        SequenceSpec(kind="exponential", a=1.0, b=3.0)
    with pytest.raises(ValueError):
        SequenceSpec(kind="exponential", a=3.0, b=3.0)


def test_ordering_invariant_randomized():
    import numpy as np
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = float(rng.uniform(1, 5))
        b = float(rng.uniform(a, 10))
        spec = SequenceSpec(kind="exponential", a=max(a, 1.01), b=b + 5.01)
        for n in range(1, 8):
            an, bn, _, _ = eval_sequence(spec, n)
            assert 1.0 <= an <= bn


def test_eval_psi_power():
    assert eval_psi(PsiSpec(kind="power", t=2), 10) == pytest.approx(0.01)


def test_eval_psi_exponential():
    assert eval_psi(PsiSpec(kind="exponential", lam=math.log(3)), 2) == \
        pytest.approx(1 / 9)


def test_eval_psi_table():
    spec = PsiSpec(kind="explicit-table", values=(0.5, 0.0, 0.25))
    assert eval_psi(spec, 2) == 0.0
    with pytest.raises(IndexError):
        eval_psi(spec, 4)


def test_overflowing_values_are_refused_with_their_index():
    # float ** int and math.exp raise OverflowError; the ValueError names n
    with pytest.raises(ValueError, match=r"b_n = 3\*\*700 overflows a float at n=700"):
        eval_sequence(SequenceSpec(kind="exponential", a=2, b=3), 700)
    for psi in (PsiSpec(kind="power", t=-200), PsiSpec(kind="exponential", lam=-1),
                PsiSpec(kind="scaled-base", t=-2,
                        seq=SequenceSpec(kind="exponential", a=1.5, b=2))):
        with pytest.raises(ValueError, match="psi overflows a float at n=800"):
            eval_psi(psi, 800)
    assert eval_sequence(SequenceSpec(kind="exponential", a=2, b=3), 600)[1] == 3.0 ** 600


def test_psi_rejects_negative_values():
    with pytest.raises(ValueError):
        PsiSpec(kind="explicit-table", values=(0.1, -0.2))


@pytest.mark.parametrize("make, name", [
    (lambda: PsiSpec(kind="explicit-table", values=(0.1, math.nan)), "values"),
    (lambda: SequenceSpec(kind="explicit-table", a_table=(1.5,), b_table=(4.2,),
                          d_table=(math.inf,)), "d_table"),
])
def test_table_entries_must_be_finite(make, name):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        make()


def test_log_weight_examples():
    assert log_weight(1.0, math.e ** 3) == pytest.approx(3.0)
    assert log_weight(10.0, 20.0) == 1.0
    assert log_weight(2.0, 2.0) == 1.0  # b <= e clamps the log to 1
    with pytest.raises(ValueError):
        log_weight(0.5, 2.0)
    with pytest.raises(ValueError):
        log_weight(3.0, 2.0)


def test_log_weight_is_one_when_a_dominates():
    for a, b in ((5.0, 100.0), (10.0, 10000.0), (100.0, 1e6)):
        if a >= math.log(b):
            assert log_weight(a, b) == 1.0


def test_refined_log():
    assert refined_log(1.0) == 1.0
    assert refined_log(math.e) == 1.0
    assert refined_log(math.e ** 2) == pytest.approx(2.0)


def test_sequence_gcd():
    assert sequence_gcd(SequenceSpec(kind="exponential", a=2, b=6), 3) == 8
    table = SequenceSpec(kind="integer-table", a_table=(4, 9), b_table=(6, 12))
    assert sequence_gcd(table, 1) == 2
    assert sequence_gcd(table, 2) == 3
    with pytest.raises(ValueError):
        sequence_gcd(SequenceSpec(kind="linear", a=1, b=2), 1)


def test_single_series_series_partial_sums_bounded():
    # for a**2 <= b the ratio-power terms decay geometrically, so partial
    # sums to n = 200 stay under the geometric tail bound; log space keeps
    # the deep tail from underflowing before the ratio is measured
    import numpy as np
    for a, b, s in ((2.0, 5.0, 0.5), (1.5, 3.0, 0.3), (3.0, 9.5, 0.7)):
        assert a * a <= b
        n = np.arange(1, 201, dtype=float)
        log_terms = ((2 - s) / s) * n * (math.log(a) - math.log(b)) \
            + (1 - s) * n * math.log(b)
        diffs = np.diff(log_terms)
        r = math.exp(float(diffs.max()))
        assert r < 1.0
        terms = np.exp(log_terms)
        assert float(np.max(np.cumsum(terms))) <= terms[0] / (1.0 - r) + 1e-9


def test_config_roundtrip():
    doc = json.loads(json.dumps(
        {"seq": {"kind": "exponential", "a": 2, "b": 3, "c": 0, "d": 0},
         "psi": {"kind": "exponential", "lambda": 1.0986}}))
    seq = parse_sequence(doc["seq"])
    psi = parse_psi(doc["psi"], seq=seq)
    assert seq.kind == "exponential" and seq.a == 2.0 and seq.b == 3.0
    assert psi.kind == "exponential" and psi.lam == pytest.approx(1.0986)


def test_parse_table_config_with_per_n_shifts():
    seq = parse_sequence({"kind": "explicit-table", "a": [1, 2], "b": [2, 4],
                          "c": [0.1, 0.2], "d": 0.5})
    assert eval_sequence(seq, 2) == (2.0, 4.0, 0.2, 0.5)


def test_parse_psi_scaled_base_binds_sequence():
    seq = parse_sequence({"kind": "exponential", "a": 2, "b": 4})
    psi = parse_psi({"kind": "scaled-base", "t": 1.0}, seq=seq)
    assert eval_psi(psi, 2) == pytest.approx(1 / 16)


def test_parse_unknown_kinds():
    with pytest.raises(ValueError):
        parse_sequence({"kind": "mystery"})
    with pytest.raises(ValueError):
        parse_psi({"kind": "mystery"})


@pytest.mark.parametrize("parse, doc, message", [
    (parse_psi, [1], "psi must be a JSON object, got list"),
    (parse_psi, {"kind": "power"}, "psi power needs the key 't'"),
    (parse_psi, {"kind": "power", "t": [1]}, "psi power key 't' has a bad value [1]"),
    (parse_sequence, {"kind": "exponential", "a": 2}, "sequence exponential needs the key 'b'"),
    (parse_sequence, {"kind": "explicit-table", "a": 3, "b": [4]},
     "sequence explicit-table key 'a' has a bad value 3"),
    (parse_sequence, {"a": 2, "b": 3}, "sequence needs the key 'kind'"),
])
def test_parse_malformed_json_names_the_key(parse, doc, message):
    # a KeyError, TypeError or AttributeError before, which the CLI reports
    # as a traceback
    with pytest.raises(ValueError, match=re.escape(message)):
        parse(doc)
