import hashlib
import json
import math
import time
from unittest import mock

import numpy as np
import pytest

import diophlab.lattice as L
import diophlab.verify as V
from diophlab.lattice import SamplePoints, discrepancy, erdos_turan_rhs
from diophlab.verify import (CHECKS, CheckFailure, InstanceDistribution,
                             _rng_for, replay, run_campaign, serialize_report)


def quiet(*args, **kwargs):
    pass


def test_every_check_has_a_known_property():
    # one property per check, named after the module it holds for
    props = [cdef.property_id for cdef in CHECKS.values()]
    assert len(set(props)) == len(props)
    for cdef in CHECKS.values():
        module, _, name = cdef.property_id.partition(".")
        assert module in ("lattice", "approx", "dimension", "planar") and name
        assert cdef.kind in ("exact", "ratio")


def test_campaign_small_run_all_checks(tmp_path):
    dist = InstanceDistribution(count=5, seed=7)
    report = run_campaign(dist, checks=["all"],
                          report_path=str(tmp_path / "r.json"), echo=quiet)
    assert set(report["checks"]) == set(CHECKS)
    for entry in report["checks"].values():
        if entry["kind"] == "exact":
            assert entry["violations"] == 0
        else:
            assert entry["max_ratio"] >= entry["median_ratio"] > 0


def test_campaign_deterministic_reports(tmp_path):
    dist = InstanceDistribution(count=8, seed=42)
    r1 = run_campaign(dist, checks=["all"], echo=quiet)
    r2 = run_campaign(dist, checks=["all"], echo=quiet)
    assert serialize_report(r1) == serialize_report(r2)


def test_campaign_threads_match_sequential():
    dist = InstanceDistribution(count=6, seed=3)
    checks = ["count-oracle", "measure-bound-ratio", "decompose-exact"]
    r1 = run_campaign(dist, checks=checks, threads=1, echo=quiet)
    r2 = run_campaign(dist, checks=checks, threads=4, echo=quiet)
    assert serialize_report(r1) == serialize_report(r2)
    # every check at once: the workers take instances across checks
    dist = InstanceDistribution(count=3, seed=3)
    reports = {serialize_report(run_campaign(dist, checks=["all"], threads=t, echo=quiet))
               for t in (1, 2, 3)}
    assert len(reports) == 1


def _patched(monkeypatch, cid, evaluate):
    cdef = V.CHECKS[cid]
    monkeypatch.setitem(V.CHECKS, cid, V.CheckDef(cdef.check_id, cdef.kind,
                                                  cdef.property_id, cdef.generate, evaluate))


@pytest.mark.parametrize("later_ok", [True, False], ids=["later-ok", "later-fails"])
def test_first_violation_in_campaign_order_wins(tmp_path, monkeypatch, later_ok):
    # the earlier check's instances are slow, the later check's fast, so on
    # two threads the later check finishes first; the earlier one is reported
    def slow_failure(inst):
        time.sleep(0.01)
        return {"ok": False}

    _patched(monkeypatch, "count-oracle", slow_failure)
    _patched(monkeypatch, "annulus-indices", lambda inst: {"ok": later_ok})
    dist = InstanceDistribution(count=4, seed=5)
    path = tmp_path / "report.json"
    with pytest.raises(CheckFailure) as info:
        run_campaign(dist, checks=["count-oracle", "annulus-indices"], threads=2,
                     report_path=str(path), echo=quiet)
    first = CHECKS["count-oracle"].generate(dist, _rng_for(dist, "count-oracle"))[0]
    assert info.value.check_id == "count-oracle" and info.value.instance == first
    doc = json.loads((tmp_path / "report.failing.json").read_text())
    assert doc == {"check": "count-oracle", "instance": first}
    assert not path.exists()


def test_evaluator_error_cancels_queued_instances(monkeypatch):
    # an error in one check propagates; of the instances queued behind it,
    # at most one per thread starts before the rest are cancelled
    def broken(inst):
        time.sleep(0.02)
        raise RuntimeError("evaluator broke")

    later = []
    _patched(monkeypatch, "count-oracle", broken)
    _patched(monkeypatch, "count-regime", lambda inst: later.append(inst) or {"ok": True})
    threads = 2
    with pytest.raises(RuntimeError, match="evaluator broke"):
        run_campaign(InstanceDistribution(count=20, seed=1),
                     checks=["count-oracle", "count-regime"], threads=threads, echo=quiet)
    assert len(later) <= threads


def test_repeated_check_id_runs_once(monkeypatch):
    calls = []
    evaluate = CHECKS["count-oracle"].evaluate
    _patched(monkeypatch, "count-oracle", lambda inst: calls.append(inst) or evaluate(inst))
    dist = InstanceDistribution(count=4, seed=2)
    twice = run_campaign(dist, checks=["count-oracle", "count-oracle"], echo=quiet)
    assert len(calls) == 4
    once = run_campaign(dist, checks=["count-oracle"], echo=quiet)
    assert serialize_report(twice) == serialize_report(once)


def test_campaign_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown check"):
        run_campaign(InstanceDistribution(count=2), checks=["no-such"], echo=quiet)


def test_distribution_validation():
    with pytest.raises(ValueError):
        InstanceDistribution(count=0)


@pytest.mark.parametrize("seed, digest", [
    (0, "29d9926e5a126842ebf71fbcb96af3957edb05ce5fa1ba99545031b717879a09"),
    (42, "6c0b040373f6e26396b674231612d67fb462f9e8d9f603d13b9bc76b7f40dbc3"),
])
def test_generated_instances_are_pinned(seed, digest):
    # exact checks report only violation counts, so a changed draw in an
    # exact check's sampler leaves the report bytes alone; pin the draws
    d = InstanceDistribution(count=5, seed=seed)
    doc = json.dumps({cid: CHECKS[cid].generate(d, _rng_for(d, cid))
                      for cid in sorted(CHECKS)}, sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


_SEED0_COUNT10 = "9fb32344a2170d4cf04cb2ff3eef2be8bbbf3974c3806f155a5d67994bcd03cb"
_SEED7_COUNT5 = "069e99943a424e72bef53a3c4593fe1afaaee590211312e808068ea874334d9b"


@pytest.mark.parametrize("seed, count, threads, digest", [
    pytest.param(0, 10, 1, _SEED0_COUNT10, id="seed0-count10"),
    pytest.param(7, 5, 1, _SEED7_COUNT5, id="seed7-count5"),
    pytest.param(0, 10, 2, _SEED0_COUNT10, id="seed0-count10-threads2"),
    pytest.param(7, 5, 2, _SEED7_COUNT5, id="seed7-count5-threads2"),
])
def test_report_bytes_are_pinned(seed, count, threads, digest):
    # the serialized report of every check, not only its self-consistency,
    # at any thread count
    report = run_campaign(InstanceDistribution(count=count, seed=seed),
                          checks=["all"], threads=threads, echo=quiet)
    text = serialize_report(report)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- oracles: the per-(interval, K) and per-k loops the batched evaluators
# replaced, kept verbatim apart from looking up exp_sums through the lattice
# module, so that a monkeypatch reaches both, and from sharing one exp_sums
# sweep across K


def erdos_turan_oracle(inst):
    sub = np.random.default_rng(inst["seed"])
    pts = SamplePoints(points=sub.random(inst["Q"]))
    sums = L.exp_sums(pts, V._ET_KMAX)
    worst = -math.inf
    # exp_sums(pts, K) is sums[:K] bit for bit (the same loop), so the scalar
    # reads the one sweep rather than redoing it for every K
    with mock.patch.object(L, "exp_sums", lambda points, kmax: sums[:kmax]):
        for _ in range(V._ET_INTERVALS):
            lo = float(sub.uniform(0.0, 1.0))
            length = float(sub.uniform(1e-6, 1.0))
            d = abs(discrepancy(pts, (lo, lo + length)))
            for K in range(1, V._ET_KMAX + 1):
                rhs = erdos_turan_rhs(pts, (lo, lo + length), K)
                worst = max(worst, d - rhs)
                if d > rhs + 1e-9:
                    return {"ok": False, "excess": d - rhs, "K": K, "discrepancy": d,
                            "rhs": rhs, "interval": [lo, lo + length]}
    return {"ok": True, "worst_excess": worst}


def exp_sum_oracle(inst):
    a, b = inst["a"], inst["b"]
    g = math.gcd(a, b)
    period = b // g
    q = np.arange(1, b + 1, dtype=np.int64)
    worst = 0.0
    for k in range(1, 3 * period + 1):
        phases = (k * a * q) % b
        total = np.sum(np.exp((2j * np.pi / b) * phases))
        expect = float(b) if k % period == 0 else 0.0
        err = abs(abs(total) - expect)
        worst = max(worst, err)
        if err > 1e-9:
            return {"ok": False, "k": k, "error": err,
                    "abs_sum": float(abs(total)), "expected": expect}
    return {"ok": True, "worst_error": worst}


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("cid, oracle, worst", [
    pytest.param("erdos-turan", erdos_turan_oracle, "worst_excess",
                 id="erdos-turan"),
    pytest.param("exp-sum-orthogonality", exp_sum_oracle, "worst_error",
                 id="exp-sum-orthogonality"),
])
def test_batched_evaluator_matches_loop_oracle(seed, cid, oracle, worst):
    d = InstanceDistribution(count=20, seed=seed)
    for inst in CHECKS[cid].generate(d, _rng_for(d, cid)):
        new, old = CHECKS[cid].evaluate(inst), oracle(inst)
        assert new["ok"] is old["ok"] is True
        assert abs(new[worst] - old[worst]) <= 1e-12


def test_erdos_turan_violation_matches_oracle(monkeypatch):
    # with every exponential sum 0 the bound is Q/(K+1), which the
    # discrepancy of some interval exceeds at large enough K
    monkeypatch.setattr(L, "exp_sums", lambda pts, kmax: np.zeros(kmax))
    d = InstanceDistribution(count=5, seed=0)
    insts = CHECKS["erdos-turan"].generate(d, _rng_for(d, "erdos-turan"))
    for inst in insts:
        new, old = V._eval_erdos_turan(inst), erdos_turan_oracle(inst)
        assert new["ok"] is old["ok"] is False
        assert new["K"] == old["K"] and new["interval"] == old["interval"]
        for key in ("excess", "discrepancy", "rhs"):
            assert new[key] == pytest.approx(old[key], rel=1e-12)


def test_failure_serializes_instance_for_replay(tmp_path, monkeypatch):
    # force a failing exact check and confirm the replay round trip
    import diophlab.verify as V

    def broken_eval(inst, verbose=False):
        return {"ok": False, "why": "forced"}

    cdef = V.CHECKS["count-oracle"]
    monkeypatch.setitem(
        V.CHECKS, "count-oracle",
        V.CheckDef(cdef.check_id, cdef.kind, cdef.property_id,
                   cdef.generate, broken_eval))
    path = tmp_path / "report.json"
    with pytest.raises(CheckFailure):
        run_campaign(InstanceDistribution(count=3, seed=1),
                     checks=["count-oracle"], report_path=str(path), echo=quiet)
    fail_file = tmp_path / "report.failing.json"
    assert fail_file.exists()
    doc = json.loads(fail_file.read_text())
    assert doc["check"] == "count-oracle"
    assert set(doc["instance"]) >= {"a", "b", "c", "d", "eta", "xi"}


def test_replay_passing_instance(tmp_path):
    inst = {"check": "count-oracle",
            "instance": {"a": 2.0, "b": 6.0, "c": 0.0, "d": 0.0,
                         "eta": 0.1, "xi": 0.1}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    result = replay(str(path), verbose=False)
    assert result["ok"] is True
    again = replay(str(path), verbose=False)
    assert result == again


def test_replay_verbose_dumps_intermediates(tmp_path, capsys):
    inst = {"check": "count-oracle",
            "instance": {"a": 1.0, "b": 1.0, "c": 0.0, "d": 0.0,
                         "eta": 0.25, "xi": 0.25}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    replay(str(path), verbose=True)
    out = capsys.readouterr().out
    assert "fast=2" in out and "replaying" in out
    # every value the evaluator computes is in its record and printed
    path.write_text(json.dumps(
        {"check": "uq-rhs-bound",
         "instance": {"a": 2.0, "b": 7.0, "c": 0.0, "d": 0.0, "delta": 0.1}}))
    result = replay(str(path), verbose=True)
    out = capsys.readouterr().out
    assert result["K"] == 3 and result["Q"] == 8
    for key in ("Q", "K", "rhs", "ratio"):
        assert f"  {key}={result[key]}\n" in out


def test_replay_rejects_malformed_file(tmp_path):
    # an unknown check, a file that is not an object, a missing key in the
    # file or in its instance, and a wrongly typed instance value (a
    # KeyError or TypeError before)
    path = tmp_path / "bad.json"
    for doc, message in [
            ({"check": "not-a-check", "instance": {}}, "unknown check"),
            ({"check": "count-oracle"}, "needs the key 'instance'"),
            ([1], "must be a JSON object, got list"),
            ({"check": "count-oracle", "instance": [1]}, "must be a JSON object"),
            ({"check": "count-oracle", "instance": {"a": 2}},
             "count-oracle instance needs the key 'b'"),
            # a value of another kind than the sampler draws
            ({"check": "count-oracle", "instance": {**dict.fromkeys("abcd", 2.0),
                                                   "eta": True, "xi": 0.1}},
             "key 'eta' has a bad value True"),
            ({"check": "exp-sum-orthogonality", "instance": {"a": 2, "b": 7.0}},
             "key 'b' has a bad value 7.0"),
            ({"check": "tau-bisection-agreement",
              "instance": {"a": 2, "b": 3, "psi_kind": 1, "param": 1}},
             "key 'psi_kind' has a bad value 1")]:
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            replay(str(path), verbose=False)
