"""Tests of the benchmark itself; run with `python3 -m pytest perfbench -q`.

They are not part of tier-1 (pyproject's testpaths names tests/ only).
The work-count test traces every workload twice and takes over a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time

import pytest

import run
import spans
import steal
import workloads as wl

sys.path.insert(0, str(run.SRC))


def test_self_time_subtracts_children_per_thread():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        tok = tracer.begin()
        time.sleep(0.02)
        tracer.wrap(leaf, "leaf")()
        tracer.end("outer", tok)

    worker = threading.Thread(target=outer)
    worker.start()
    outer()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert len(tracer.spans) == 4
    parents = {sid: parent for sid, _, _, _, parent in tracer.spans}
    names = {sid: name for sid, name, _, _, _ in tracer.spans}
    # each leaf's parent is the outer span of its own thread
    assert sorted(names[parents[s]] for s in parents if names[s] == "leaf") == ["outer"] * 2
    assert all(parents[s] is None for s in parents if names[s] == "outer")
    self_s = tracer.self_times()
    assert 0.035 < self_s["outer"] < 0.2
    assert 0.035 < self_s["leaf"] < 0.2


def test_install_wraps_every_importer_and_restores():
    from diophlab import approx_sets, cli, verify
    original = approx_sets.product_set
    checks = dict(verify.CHECKS)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for mod in (approx_sets, cli, verify):
            assert mod.product_set is not original
            assert mod.product_set.__wrapped__ is original
        assert (verify.CHECKS["decompose-exact"].evaluate.__wrapped__
                is checks["decompose-exact"].evaluate)
        p, delta = wl.ratio_stream_params(1)[0]
        traced = wl.ratio_instance(p, delta)
    finally:
        restore()
    assert approx_sets.product_set is original and cli.product_set is original
    assert all(verify.CHECKS[c].evaluate is checks[c].evaluate for c in checks)
    assert traced == wl.ratio_instance(p, delta)
    assert tracer.counts["approx.product_set_calls"] == 1
    assert tracer.counts["approx.cells"] == spans.cells(p)


def test_ratio_stream_summarizes_the_passes_of_one_worker():
    passes = [[1.0, 2.0], [3.0, 1.5], [0.5, 4.0]]
    unit = {"instance_s": passes, "instance_cpu_s": passes, "first_pass_rss_mb": 50.0,
            "pass_stolen_share": [0.0, 0.5, 0.0], "errors": []}
    metrics, extra = run.end_to_end("ratio-stream", {"units": [unit], "setup_s": [0.5]})
    # pass walls less steal: 3.0, 2.25, 4.5
    assert metrics["wall_s"]["value"] == 3.0 and metrics["wall_s"]["n"] == 3
    assert metrics["cpu_s"]["value"] == 4.5
    assert extra["raw_wall_s"]["value"] == 4.5
    assert metrics["peak_rss_mb"]["value"] == 50.0
    assert extra["instances_per_s"]["value"] == 6 / 9.75


def test_stolen_share_counts_steal_by_how_busy_each_vcpu_was():
    zero = dict.fromkeys(steal.FIELDS, 0)
    before = {"cpu0": zero, "cpu1": zero}
    # cpu0 ran the unit: 80 busy, 20 stolen; cpu1 idled: 1 busy, 99 idle, 10 stolen
    after = {"cpu0": dict(zero, user=70, system=10, steal=20),
             "cpu1": dict(zero, user=1, idle=99, steal=10)}
    share = (20 + 10 * 0.01) / (81 + 20 + 10 * 0.01)
    assert steal.stolen_share(before, after) == pytest.approx(share)
    assert steal.unstolen(5.0, before, after) == pytest.approx(5.0 * (1 - share))
    assert steal.stolen_share({}, after) == 0.0
    assert steal.stolen_share(before, before) == 0.0
    assert set(steal.jiffies()) >= {"cpu0"}


def test_per_layer_names_cover_every_verify_check():
    from diophlab import verify
    assert sorted(run.VERIFY_CHECKS) == sorted(verify.CHECKS)
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == run.PER_LAYER
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    # set-json-1e6 and boxdim-stream run by name but are not in BENCHMARK.json
    assert {w["name"] for w in doc["workloads"]} == set(wl.KIND) - {"set-json-1e6", "boxdim-stream"}


@pytest.mark.parametrize("name", sorted(wl.KIND))
def test_work_counts_repeat_exactly(name, tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 170.0)
    units = [runner.worker(name, "traced") for _ in range(2)]
    for unit in units:
        assert unit["errors"] == []
    first, second = (dict(u["counts"], output_bytes=u.get("output_bytes", 0))
                     for u in units)
    assert first == second
    assert first.get("intervals.normalize_calls", 0) > 0 or name == "boxdim-stream"
    assert set(units[0]["layers"]) <= set(run.SPAN_METRICS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "ratio-stream", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
