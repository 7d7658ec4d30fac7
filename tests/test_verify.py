import hashlib
import json

import pytest

from diophlab.verify import (CHECKS, CheckFailure, InstanceDistribution,
                             PROPERTIES, _rng_for, replay, run_campaign,
                             serialize_report, verify_coverage)


def quiet(*args, **kwargs):
    pass


def test_coverage_guard_passes():
    verify_coverage()


def test_coverage_guard_catches_unwired_property(monkeypatch):
    patched = dict(PROPERTIES)
    patched["phantom.untested-invariant"] = "nothing checks this"
    monkeypatch.setattr("diophlab.verify.PROPERTIES", patched)
    with pytest.raises(RuntimeError, match="phantom.untested-invariant"):
        verify_coverage()


def test_every_check_has_a_known_property():
    for cdef in CHECKS.values():
        assert cdef.property_id in PROPERTIES
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
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"check": "not-a-check", "instance": {}}))
    with pytest.raises(ValueError, match="unknown check"):
        replay(str(path), verbose=False)
