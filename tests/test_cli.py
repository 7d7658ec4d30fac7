import json
import os
import subprocess
import sys

import pytest

from diophlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tau_worked_example(capsys):
    code, out, _ = run_cli(capsys, "tau", "--family", "two-term",
                           "--a", "2", "--b", "3", "--psi", "exp:1.0986")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["tau"] - 0.5) < 1e-3
    assert len(doc["thresholds"]) == 2


def test_count_example(capsys):
    code, out, _ = run_cli(capsys, "count", "--a", "2", "--b", "6",
                           "--eta", "0.1", "--xi", "0.1")
    assert code == 0
    assert "count:  3" in out


def test_count_integer_bound_flag(capsys, monkeypatch):
    from diophlab import cli, lattice
    count, calls = lattice.count_near_pairs, []

    def counted(*args):
        calls.append(args)
        return count(*args)

    for mod in (cli, lattice):
        monkeypatch.setattr(mod, "count_near_pairs", counted)
    code, out, _ = run_cli(capsys, "count", "--a", "4", "--b", "6",
                           "--eta", "0.2", "--xi", "0.2", "--integer-bound")
    assert code == 0
    assert out == "count:  4\nbound:  3.2\nratio:  1.25\n"
    assert len(calls) == 1


def test_set_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "set", "--a", "1", "--b", "2",
                           "--eta", "0.1", "--xi", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["intervals"] == [[0.0, 0.05], [0.95, 1.0]]
    assert doc["summary"]["components"] == 2


def test_set_product_condition(capsys):
    code, out, _ = run_cli(capsys, "set", "--a", "1", "--b", "1",
                           "--delta", "0.2")
    doc = json.loads(out)
    assert code == 0 and doc["condition"] == "product"
    assert doc["summary"]["measure"] == pytest.approx(0.4)


def test_cover_csv_headers(capsys):
    code, out, _ = run_cli(capsys, "cover", "--a", "2", "--b", "9",
                           "--eta", "0.2", "--xi", "0.3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "a,b,c,d,eta,xi,pieces,bound,ratio"


def test_discrepancy_reports_pass(capsys):
    code, out, _ = run_cli(capsys, "discrepancy", "--a", "3", "--b", "17",
                           "--c", "0.4", "--d", "0.2")
    assert code == 0
    assert out == "Q:    19\nD:    -0.8\nRHS:  6.93771\nK:    5\npass: True\n"


def test_measure_payload(capsys):
    code, out, _ = run_cli(capsys, "measure", "--a", "2", "--b", "11",
                           "--delta", "0.1", "--s", "0.5")
    doc = json.loads(out)
    assert code == 0
    assert doc["measure_ratio"] > 0
    assert "0.5" in doc["premeasure"]


def test_scan_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "scan", "--a", "2:3:2", "--b", "4:9:2",
                           "--t", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("a,b,t,tau_plain,tau_two_term,"
                        "single_series_threshold,boxdim_estimate")
    assert len(lines) == 1 + 4


def test_planar_area(capsys):
    code, out, _ = run_cli(capsys, "planar", "area", "--a", "1", "--b", "1",
                           "--eta", "0.1", "--xi", "0.1")
    doc = json.loads(out)
    assert code == 0 and doc["area"] == pytest.approx(0.04)


def test_planar_decompose(capsys):
    code, out, _ = run_cli(capsys, "planar", "decompose", "--a", "2", "--b", "5",
                           "--delta", "0.1", "--s", "0.5")
    doc = json.loads(out)
    assert code == 0 and doc["J"] == [0, 1, 2]


def test_config_merges_under_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 2, "b": 6, "eta": 0.1, "xi": 0.1}))
    code, out, _ = run_cli(capsys, "count", "--config", str(cfg))
    assert code == 0 and "count:  3" in out
    # explicit flag wins over the config value
    code, out, _ = run_cli(capsys, "count", "--config", str(cfg),
                           "--eta", "0.25", "--xi", "0.25", "--a", "1",
                           "--b", "1")
    assert code == 0 and "count:  2" in out


def test_tau_reads_seq_psi_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"seq": {"kind": "exponential", "a": 2, "b": 3, "c": 0, "d": 0},
         "psi": {"kind": "exponential", "lambda": 1.0986}}))
    code, out, _ = run_cli(capsys, "tau", "--family", "plain",
                           "--config", str(cfg))
    doc = json.loads(out)
    assert code == 0 and abs(doc["tau"] - 0.5) < 1e-3


def test_missing_required_flag_is_computation_error(capsys):
    code, _, err = run_cli(capsys, "count", "--a", "2", "--b", "6")
    assert code == 1
    assert "required" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "--a", "5", "--b", "2",
                           "--eta", "0.1", "--xi", "0.1")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv", [
    ("set", "--a", "2", "--b", "11", "--delta", "nan"),
    ("set", "--a", "2", "--b", "11", "--eta", "nan", "--xi", "0.1"),
    ("planar", "area", "--a", "2", "--b", "11", "--eta", "nan", "--xi", "0.1"),
    ("measure", "--a", "2", "--b", "11", "--delta", "0.1", "--s", "1.5"),
    ("measure", "--a", "3", "--b", "7", "--delta", "0.05", "--s", "0.5", "--mesh", "nan"),
    ("measure", "--a", "3", "--b", "7", "--delta", "0.6", "--s", "nan", "--mesh", "0.01"),
])
def test_bad_threshold_or_exponent_is_computation_error(capsys, argv):
    # a NaN threshold, mesh or s, or s > 1, is bad input, not an empty set or a value
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "error" in err


@pytest.mark.parametrize("argv, message", [
    (("set", "--a", "2", "--b", "11", "--c", "nan", "--delta", "0.1"),
     "c must be a finite number"),
    (("set", "--a", "2", "--b", "inf", "--delta", "0.1"),
     "b must be a finite number"),
    (("count", "--a", "2", "--b", "11", "--eta", "nan", "--xi", "0.1"),
     "thresholds must be numbers"),
    (("count", "--a", "2", "--b", "6", "--eta", "inf", "--xi", "0.1"),
     "not inf or NaN"),
    (("tau", "--a", "2", "--b", "3", "--psi", "pow:nan"), "t must be a finite number"),
    (("tau", "--a", "2", "--b", "3", "--psi", "exp:inf"), "lam must be a finite number"),
    (("tau", "--a", "2", "--b", "3", "--psi", "sb:inf"), "t must be a finite number"),
    (("tau", "--a", "2", "--b", "inf", "--psi", "pow:1"), "b must be a finite number"),
    (("scan", "--a", "2", "--b", "3", "--t", "nan"), "t must be a finite number"),
])
def test_non_finite_input_exits_with_message(argv, message):
    # a NaN or infinite coefficient, count threshold or psi parameter is bad
    # input: exit 1 with a message that names it, not a traceback, a count
    # of 0 or a tau
    proc = subprocess.run([sys.executable, "-m", "diophlab.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr


_BIG = ("--a", "2", "--b", "1000")


@pytest.mark.parametrize("argv, message", [
    pytest.param(("count", *_BIG, "--eta", "0.1", "--xi", "0.1"),
                 "1001 q values exceed the cap 100", id="count"),
    pytest.param(("count", *_BIG, "--eta", "0.1", "--xi", "0.1",
                  "--integer-bound"),
                 "1001 q values exceed the cap 100", id="count-integer-bound"),
    pytest.param(("cover", *_BIG, "--eta", "0.1", "--xi", "0.1"),
                 "windows exceed the cap 100", id="cover"),
    pytest.param(("set", *_BIG, "--eta", "0.6", "--xi", "0.1"),
                 "1001 windows exceed the cap 100", id="set-simultaneous"),
    pytest.param(("discrepancy", *_BIG),
                 "1001 lattice points exceed the cap 100", id="discrepancy"),
    pytest.param(("set", *_BIG, "--delta", "0.1"),
                 "cell cuts exceed the cap 100", id="set-product"),
    # 91 windows are under the cap, their cover's pieces are not
    pytest.param(("cover", "--a", "1", "--b", "90", "--eta", "0.45", "--xi", "0.45"),
                 "cover pieces exceed the cap 100", id="cover-pieces"),
])
def test_size_cap_exits_with_message(argv, message):
    # an array above DIOPHLAB_CELL_CAP is refused before it is allocated:
    # exit 1 with the size and the cap, not a traceback
    env = {**os.environ, "DIOPHLAB_CELL_CAP": "100"}
    proc = subprocess.run([sys.executable, "-m", "diophlab.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("K, message", [
    ("0", "K must be >= 1, got 0"),
    ("30000000", "360000000 exponential-sum terms exceed the cap 100000000"),
])
def test_discrepancy_bad_K_exits_with_message(K, message):
    # K = 0 used to fall back to floor(b/a), and K = 3e7 to loop for minutes;
    # both now end at once, under the default cap
    env = {k: v for k, v in os.environ.items() if k != "DIOPHLAB_CELL_CAP"}
    proc = subprocess.run([sys.executable, "-m", "diophlab.cli", "discrepancy",
                           "--a", "2", "--b", "11", "--K", K],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_memory_error_exits_with_message(capsys, monkeypatch):
    from diophlab import cli

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli, "count_near_pairs", out_of_memory)
    code, out, err = run_cli(capsys, "count", "--a", "2", "--b", "11",
                             "--eta", "0.1", "--xi", "0.1")
    assert code == 1 and out == ""
    assert err == "error: Unable to allocate 745. GiB\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["count", "--bogus-flag", "1"], id="bogus-flag"),
    # --s with no value: an empty premeasure, or an IndexError, before
    pytest.param(["planar", "cover", "--a", "2", "--b", "5", "--eta", "0.1",
                  "--xi", "0.1", "--s"], id="planar-cover-empty-s"),
    pytest.param(["measure", "--a", "3", "--b", "7", "--delta", "0.05", "--s"],
                 id="measure-empty-s"),
    pytest.param(["planar", "decompose", "--a", "2", "--b", "5", "--delta", "0.1",
                  "--s"], id="planar-decompose-empty-s"),
])
def test_usage_error_exit_code(argv):
    proc = subprocess.run([sys.executable, "-m", "diophlab.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_verify_subcommand_and_exit_zero(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, *_ = run_cli(capsys, "verify", "--seed", "42", "--count", "4",
                       "--checks", "count-oracle,erdos-turan,count-regime",
                       "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["seed"] == 42 and len(doc["checks"]) == 3


def test_replay_subcommand(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(
        {"check": "count-oracle",
         "instance": {"a": 2.0, "b": 6.0, "c": 0.0, "d": 0.0,
                      "eta": 0.1, "xi": 0.1}}))
    code, out, _ = run_cli(capsys, "replay", str(inst))
    assert code == 0 and "result" in out


def test_psi_table_syntax(capsys, tmp_path):
    table = tmp_path / "psi.json"
    table.write_text(json.dumps({"kind": "explicit-table",
                                 "values": [0.5, 0.25, 0.125, 0.0625] * 4}))
    code, out, _ = run_cli(capsys, "tau", "--family", "plain", "--a", "2",
                           "--b", "3", "--psi", f"table:@{table}", "--numeric")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "numeric-bisection"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "set.json"
    code, out, _ = run_cli(capsys, "set", "--a", "1", "--b", "2",
                           "--eta", "0.1", "--xi", "0.1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["summary"]["components"] == 2
