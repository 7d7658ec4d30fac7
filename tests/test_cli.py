import hashlib
import json
import os
import subprocess
import sys

import pytest

from diophlab.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
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


def test_cover_takes_a_vacuous_threshold(capsys):
    # a threshold at or above 1/2 is vacuous, as in planar cover: eta = 1.5
    # was refused with "cover needs 0 < eta, xi < 1"
    code, out, err = run_cli(capsys, "cover", "--a", "2", "--b", "9",
                             "--eta", "1.5", "--xi", "0.3")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["pieces"], doc["mesh"]) == (20, 0.3 / 9)
    # the same set and mesh as at eta = 1/2, the first vacuous threshold
    _, half, _ = run_cli(capsys, "cover", "--a", "2", "--b", "9", "--eta", "0.5", "--xi", "0.3")
    assert json.loads(half)["pieces"] == 20


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


def run_with_config(capsys, tmp_path, config, *argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return run_cli(capsys, *argv, "--config", str(cfg))


def test_config_merges_under_flags(capsys, tmp_path):
    cfg = {"a": 2, "b": 6, "eta": 0.1, "xi": 0.1}
    code, out, _ = run_with_config(capsys, tmp_path, cfg, "count")
    assert code == 0 and "count:  3" in out
    # explicit flags win over the config values
    code, out, _ = run_with_config(capsys, tmp_path, cfg, "count",
                                   "--eta", "0.25", "--xi", "0.25", "--a", "1",
                                   "--b", "1")
    assert code == 0 and "count:  2" in out
    # one config can serve several subcommands: keys that are not flags of
    # this one (delta, family) are ignored
    code, out, _ = run_with_config(capsys, tmp_path,
                                   {**cfg, "delta": 0.1, "family": "plain"}, "count")
    assert code == 0 and "count:  3" in out
    # false (or null) sets no switch
    code, out, _ = run_with_config(capsys, tmp_path,
                                   {"a": 4, "b": 6, "eta": 0.2, "xi": 0.2,
                                    "integer-bound": False, "K": None}, "count")
    assert code == 0 and "bound:  5.2\n" in out
    # a negative value in scientific notation is a value, not a flag
    code, out, _ = run_with_config(capsys, tmp_path, {"c": -1e-05}, "cover", "--a", "2",
                                   "--b", "9", "--eta", "0.2", "--xi", "0.3")
    assert code == 0 and json.loads(out)["c"] == -1e-05


def _reads(key, value):
    return lambda out: json.loads(out)[key] == value


# Each case fails at a parent whose config reached only some flags, untyped
@pytest.mark.parametrize("argv, config, code, check", [
    pytest.param(("tau", "--a", "2", "--b", "3", "--psi", "sb:1"),
                 {"family": "plain"}, 0,
                 lambda out: json.loads(out)["family"] == "plain"
                 and json.loads(out)["tau"] == pytest.approx(0.5),
                 id="tau-family"),
    pytest.param(("tau", "--family", "plain"),
                 {"a": 2, "b": 3, "psi": {"kind": "exponential", "lambda": 1.0986}}, 0,
                 lambda out: abs(json.loads(out)["tau"] - 0.5) < 1e-3,
                 id="tau-psi-object-without-seq"),
    pytest.param(("tau", "--a", "2", "--b", "3", "--psi", "sb:1"),
                 {"numeric": True}, 0, _reads("method", "tail-fit"),
                 id="tau-numeric"),
    pytest.param(("discrepancy", "--a", "3", "--b", "17"), {"K": 2}, 0,
                 lambda out: "K:    2\n" in out, id="discrepancy-K"),
    pytest.param(("discrepancy", "--a", "3", "--b", "17"), {"lo": -0.2, "hi": 0.3}, 0,
                 lambda out: "D:    1\n" in out, id="discrepancy-lo-hi"),
    pytest.param(("count", "--a", "4", "--b", "6", "--eta", "0.2", "--xi", "0.2"),
                 {"integer_bound": True}, 0, lambda out: "bound:  3.2\n" in out,
                 id="count-integer-bound"),
    pytest.param(("measure", "--a", "3", "--b", "7", "--delta", "0.05"),
                 {"s": [0.5, 0.7], "mesh": 0.01}, 0,
                 lambda out: sorted(json.loads(out)["premeasure"]) == ["0.5", "0.7"]
                 and sorted(json.loads(out)["canonical_premeasure"]) == ["0.5", "0.7"],
                 id="measure-s-mesh"),
    # the list goes in before planar's positional op, which it must not take
    pytest.param(("planar", "decompose", "--a", "2", "--b", "5", "--delta", "0.1"),
                 {"s": [0.3, 0.7]}, 0,
                 lambda out: sorted(json.loads(out)["premeasure"]) == ["0.3", "0.7"],
                 id="list-before-positional"),
    pytest.param(("planar", "mc", "--a", "1", "--b", "1", "--delta", "0.2"),
                 {"samples": 20000, "seed": 7}, 0,
                 lambda out: json.loads(out)["samples"] == 20000
                 and json.loads(out)["seed"] == 7, id="planar-samples-seed"),
    pytest.param(("cover", "--a", "2", "--b", "9", "--eta", "0.2", "--xi", "0.3"),
                 {"format": "csv"}, 0,
                 lambda out: out.startswith("a,b,c,d,eta,xi,pieces"), id="format"),
    # measure and tau have no --format, so the key is ignored, as any key
    # that is not a flag of the subcommand
    pytest.param(("measure", "--a", "3", "--b", "7", "--delta", "0.05"),
                 {"format": "csv"}, 0, _reads("delta", 0.05), id="measure-format-ignored"),
    pytest.param(("tau", "--a", "2", "--b", "3", "--psi", "pow:2"),
                 {"format": "csv"}, 0, lambda out: "tau" in json.loads(out),
                 id="tau-format-ignored"),
    pytest.param(("set", "--a", "1", "--b", "2", "--eta", "0.1"), {"xi": [0.1]}, 0,
                 _reads("xi", 0.1), id="one-element-list"),
    pytest.param(("set", "--a", "1", "--b", "2", "--xi", "0.1"), {"eta": [0.1, 0.2]}, 2,
                 lambda out: out == "", id="list-for-one-value"),
    pytest.param(("tau", "--a", "2", "--b", "3", "--psi", "sb:1"),
                 {"family": "three-term"}, 2, lambda out: out == "",
                 id="choice-outside-choices"),
])
def test_config_reaches_every_flag(capsys, tmp_path, argv, config, code, check):
    got, out, err = run_with_config(capsys, tmp_path, config, *argv)
    assert got == code and check(out)
    assert "Traceback" not in err


def test_config_out_key_writes_file(capsys, tmp_path):
    target = tmp_path / "set.json"
    code, out, _ = run_with_config(capsys, tmp_path, {"out": str(target)}, "set",
                                   "--a", "1", "--b", "2", "--eta", "0.1", "--xi", "0.1")
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["summary"]["components"] == 2


def test_config_wrong_type_is_usage_error(capsys, tmp_path):
    code, out, err = run_with_config(capsys, tmp_path,
                                     {"a": 1, "b": 2, "eta": "abc", "xi": 0.1}, "set")
    assert code == 2 and out == ""
    assert "argument --eta: invalid float value: 'abc'" in err


@pytest.mark.parametrize("text", ["[1, 2]", "0.5", "not json"])
def test_config_not_an_object_exits_with_message(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "count", "--a", "2", "--b", "6", "--eta", "0.1",
                             "--xi", "0.1", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and ("JSON object" in err or "Expecting" in err)


# stdout of the README examples (all but verify and replay), CSV variants
# and configs, measured before --config entries were parsed as flags:
# (argv, config or None, sha256 of stdout)
PINNED = {
    "set-simultaneous": ("set --a 1 --b 2 --eta 0.1 --xi 0.1",
        None,
        "0c7f945f5d3114fba13c08a896ff640e164af9a36ff51d2e8b5639019a4885da"),
    "set-product": ("set --a 3 --b 7 --c 0.3 --d 0.6 --delta 0.1",
        None,
        "accae25f63a7fa4f41cf62e00a0ee898aba6737ddd285d3a0ec91102cacbbc14"),
    "set-product-csv": ("set --a 3 --b 7 --c 0.3 --d 0.6 --delta 0.1 --format csv",
        None,
        "420b234f99023a1fd440f00934a2851520adfbb48005f47027c0cd41c423e43e"),
    "count": ("count --a 2 --b 6 --eta 0.1 --xi 0.1",
        None,
        "9d143e4c1ede398e142cfd88ab26d48c8a032333b3a6f14e879a3498e6e7a7d3"),
    "count-integer-bound": ("count --a 4 --b 6 --eta 0.2 --xi 0.2 --integer-bound",
        None,
        "3ea0be4ce35e00c78436e926e5665db4d3e54204ec6da1e316fd4d10ce657408"),
    "cover-csv": ("cover --a 2 --b 9 --eta 0.2 --xi 0.3 --format csv",
        None,
        "4cfb646755e1780b2efdffad7b6c6304b874303ae6fb4c6278bbdf73c71ac1c4"),
    "cover": ("cover --a 2 --b 9 --eta 0.2 --xi 0.3",
        None,
        "d0f05cc679525c08f3f180ac3b9a7b036989be4b6b21ceaf83f6e09dd78394d9"),
    "discrepancy": ("discrepancy --a 3 --b 17 --c 0.4 --d 0.2",
        None,
        "56baf0494df9088b361a07cee07f0720ebe976ec1930693f76df3129f0833e20"),
    "measure": ("measure --a 3 --b 7 --delta 0.05 --s 0.3 0.5 0.7 0.9",
        None,
        "54dcfc577f17d3f20257260924bdc1818180d4883465c5de7cae5b8af64b3806"),
    "measure-mesh": ("measure --a 3 --b 7 --delta 0.05 --s 0.5 --mesh 0.01",
        None,
        "51fdc3c308eed42c573c7ddc3c14d02e045387101f427363da1620b1349e51ed"),
    "tau-two-term": ("tau --family two-term --a 2 --b 3 --psi exp:1.0986",
        None,
        "bcb3bf60569b75af9225b3fbe9715d8006efa254396ab1f1ee558ff06eed38d4"),
    "tau-plain-numeric": ("tau --family plain --a 2 --b 3 --psi sb:1 --numeric",
        None,
        "ac5dff3df4e601a7dce4e30256b1d89a072b900fdfa4c26d6b6d32ad06608606"),
    "tau-pow": ("tau --a 2 --b 3 --psi pow:2",
        None,
        "616e09e60048deafa4072dcf4499ce8983f094e7e5d3016c18548453abbcd4c0"),
    "scan": ("scan --a 2:4:3 --b 5:30:4 --t 0.5:2:4",
        None,
        "b293e13f57a0f5bfb4fd69dc3b7a3944cfe0c89da6a42c94cbf91fc74d50cd3c"),
    "planar-area": ("planar area --a 1 --b 2 --eta 0.1 --xi 0.1",
        None,
        "a7470edcf5b0e794b6a3db55d7209398da3c6b6c9bb7e7ff9083daa37a6cb7b5"),
    "planar-area-csv": ("planar area --a 1 --b 2 --eta 0.1 --xi 0.1 --format csv",
        None,
        "0e2ebf95178cd28d1026fc830b6f5cb0e42ce99ece9fe066385e31ccaa2c495f"),
    "planar-cover-csv": (
        "planar cover --a 2 --b 5 --eta 0.1 --xi 0.1 --s 0.7 --format csv",
        None,
        "615227233763b69cdae2e540db8cf7381e2d5bd6e37130629dca0baec28f1b82"),
    "planar-mc": ("planar mc --a 1 --b 1 --delta 0.2 --samples 1000000 --seed 7",
        None,
        "865bb4ef02da32ddd84e4b399add6e418b0dec48f8969c2182d8d4950d2d4fdf"),
    "planar-decompose": ("planar decompose --a 2 --b 5 --delta 0.1 --s 0.5",
        None,
        "646e57aa9c5a4b335bb004fb77a656a7f9904eecb49f766a9c2f779333b79072"),
    "planar-decompose-four-s": ("planar decompose --a 7.5 --b 4000 --c 0.3 "
                                "--d -0.2 --delta 0.01 --s 0.3 0.5 0.7 0.9",
        None,
        "a2c87bfa8f141a76f0978188daa379913eb4ae3ba8034acdaa98d04875d4196b"),
    "config-set": ("set",
        {"a": 3, "b": 7, "c": 0.3, "d": 0.6, "delta": 0.1},
        "accae25f63a7fa4f41cf62e00a0ee898aba6737ddd285d3a0ec91102cacbbc14"),
    "config-count": ("count",
        {"a": 2, "b": 6, "eta": 0.1, "xi": 0.1},
        "9d143e4c1ede398e142cfd88ab26d48c8a032333b3a6f14e879a3498e6e7a7d3"),
    "config-count-flags-win": ("count --eta 0.25 --xi 0.25 --a 1 --b 1",
        {"a": 2, "b": 6, "eta": 0.1, "xi": 0.1},
        "223ee8e2694129fc811c36affdbe022a19dfcb3b606563da3f501f62cbe1d5f5"),
    "config-cover": ("cover --format csv",
        {"a": 2, "b": 9, "eta": 0.2, "xi": 0.3},
        "4cfb646755e1780b2efdffad7b6c6304b874303ae6fb4c6278bbdf73c71ac1c4"),
    "config-discrepancy": ("discrepancy",
        {"a": 3, "b": 17, "c": 0.4, "d": 0.2},
        "56baf0494df9088b361a07cee07f0720ebe976ec1930693f76df3129f0833e20"),
    "config-measure": ("measure --s 0.3 0.7",
        {"a": 3, "b": 7, "delta": 0.05, "eta": 0.1},
        "b8ee48f33ba54fff675d007f3d1138c39fb843276bab1cbde782fbc833b98423"),
    "config-tau-psi-string": ("tau",
        {"a": 2, "b": 3, "psi": "exp:1.0986"},
        "bcb3bf60569b75af9225b3fbe9715d8006efa254396ab1f1ee558ff06eed38d4"),
    "config-tau-seq-psi": ("tau --family plain",
        {"seq": {"kind": "exponential", "a": 2, "b": 3},
         "psi": {"kind": "exponential", "lambda": 1.0986}},
        "c530c29ac561b78364f93bf2b164df72b6751607b3f384123a7ac4d073fa183c"),
    "config-planar-area": ("planar area",
        {"a": 1, "b": 2, "eta": 0.1, "xi": 0.1},
        "a7470edcf5b0e794b6a3db55d7209398da3c6b6c9bb7e7ff9083daa37a6cb7b5"),
    "config-planar-decompose": ("planar decompose --s 0.5",
        {"a": 2, "b": 5, "delta": 0.1},
        "646e57aa9c5a4b335bb004fb77a656a7f9904eecb49f766a9c2f779333b79072"),
}


def stdout_digest(capsys, tmp_path, argv, config):
    argv = argv.split()
    if config is not None:
        code, out, _ = run_with_config(capsys, tmp_path, config, *argv)
    else:
        code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_cli_outputs_are_pinned(capsys, tmp_path, case):
    argv, config, digest = PINNED[case]
    assert stdout_digest(capsys, tmp_path, argv, config) == digest


def test_planar_decompose_counts_each_box_once(capsys, monkeypatch):
    # one square count for the core and one per annulus and side, 2|J| + 1
    # in all, in one call, however many s values read them; no box set is
    # built
    from diophlab import planar
    count, calls = planar._square_counts, []

    def counted(p, pairs):
        calls.append(pairs)
        return count(p, pairs)

    def refuse(*args):
        raise AssertionError("box set built")

    monkeypatch.setattr(planar, "_square_counts", counted)
    monkeypatch.setattr(planar, "product_rectangle_set", refuse)
    code, out, _ = run_cli(capsys, "planar", "decompose", "--a", "7.5", "--b", "4000",
                           "--delta", "0.01", "--s", "0.3", "0.5", "0.7", "0.9")
    doc = json.loads(out)
    assert code == 0 and len(doc["premeasure"]) == 4
    assert len(calls) == 1 and len(calls[0]) == 2 * len(doc["J"]) + 1


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
    ("measure", "--a", "3", "--b", "7", "--delta", "0.05", "--s", "0.5", "--mesh", "0"),
    ("planar", "cover", "--a", "2", "--b", "5", "--eta", "0.1", "--xi", "0.1",
     "--s", "0.3", "0.7"),
    ("planar", "mc", "--a", "2", "--b", "9", "--delta", "nan"),
    ("planar", "mc", "--a", "2", "--b", "9", "--delta", "-1"),
    ("count", "--a", "2", "--b", "9", "--eta", "0.1", "--xi", "-0.3"),
    ("count", "--a", "2", "--b", "9", "--eta", "-1", "--xi", "0.3"),
    ("count", "--a", "2", "--b", "9", "--eta", "-1", "--xi", "0.3", "--integer-bound"),
    ("cover", "--a", "2", "--b", "3", "--eta", "5e-324", "--xi", "0.1"),
    ("verify", "--count", "1", "--threads", "0"),
    ("verify", "--count", "1", "--threads", "-3"),
    ("set", "--a", "1", "--b", "5", "--eta", "0.2", "--xi", "-1"),
    ("planar", "area", "--a", "2", "--b", "11", "--eta", "-0.1", "--xi", "0.1"),
    ("planar", "cover", "--a", "2", "--b", "11", "--eta", "-0.1", "--xi", "0.1"),
    ("measure", "--a", "2", "--b", "3", "--delta", "0.1", "--mesh", "inf"),
])
def test_bad_threshold_or_exponent_is_computation_error(capsys, argv):
    # a NaN or negative threshold, delta, mesh or s, s > 1, mesh 0 or inf, a
    # second s where one is used, or fewer than one thread, is bad input, not
    # an empty set, a value, a dropped value or a silent serial run
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
    (("measure", "--a", "2", "--b", "3", "--delta", "0"), "delta must be positive, got 0.0"),
    (("measure", "--a", "2", "--b", "3", "--delta", "1e-200"), "delta must be in [2**-511"),
    (("measure", "--a", "2", "--b", "3", "--delta", "1e-320"), "got 1e-320"),
    (("planar", "decompose", "--a", "2", "--b", "5", "--delta", "1e-200"), "got 1e-200"),
    # delta**2 is subnormal or 0: no components, or a wrong one, before
    (("set", "--a", "2", "--b", "3", "--delta", "1e-200"), "delta must be in [2**-511"),
    (("set", "--a", "2", "--b", "3", "--delta", "1e-160"), "delta must be in [2**-511"),
    # a grid is one value or lo:hi:n with n >= 1: not an index error or an
    # empty CSV
    (("scan", "--a", "1:2", "--b", "3", "--t", "1"), "--a '1:2': expected"),
    (("scan", "--a", "1", "--b", "1:3:0", "--t", "1"), "--b '1:3:0': expected"),
    (("scan", "--a", "1", "--b", "3", "--t", "0:1:x"), "--t '0:1:x': expected"),
    # a report that cannot be written, in a missing directory or onto a
    # directory, is refused before any check runs (an empty stdout holds no
    # [check] line), not after the whole campaign
    (("verify", "--count", "2", "--checks", "count-oracle",
      "--out", "/nonexistent/dir/o.json"),
     "cannot write the report /nonexistent/dir/o.json"),
    (("verify", "--count", "2", "--checks", "count-oracle", "--out", "."),
     "cannot write the report ."),
    # an infinite set or planar threshold would be written as Infinity,
    # which is not JSON
    (("set", "--a", "2", "--b", "3", "--eta", "0.2", "--xi", "inf"),
     "thresholds must be numbers, not inf or NaN: 0.2, inf"),
    (("planar", "cover", "--a", "2", "--b", "3", "--eta", "inf", "--xi", "0.1"),
     "thresholds must be numbers, not inf or NaN: inf, 0.1"),
    # an empty index range is named, not blamed on the set
    (("scan", "--a", "2", "--b", "3", "--t", "0.5", "--with-boxdim",
      "--boxdim-n-lo", "5", "--boxdim-n-hi", "4"),
     "need n_lo <= n_hi, got n_lo=5, n_hi=4"),
    # psi(6) = 3^-660 is subnormal: its index and value are named, not only
    # delta = sqrt(psi(6))
    (("scan", "--a", "2", "--b", "3", "--t", "110", "--with-boxdim",
      "--boxdim-n-lo", "4", "--boxdim-n-hi", "6"),
     "psi(6) = 1.258843915e-315: delta must be in [2**-511, inf) or be 0"),
    # b_700 = 3^700 overflows a float
    (("scan", "--a", "2", "--b", "3", "--t", "1", "--with-boxdim",
      "--boxdim-n-lo", "700", "--boxdim-n-hi", "701"),
     "b_n = 3**700 overflows a float at n=700"),
    # a cover needs a positive mesh: a threshold of 0 gave a planar cover of
    # 0 squares with exit 0; the line's cover already refused it
    (("planar", "cover", "--a", "2", "--b", "5", "--eta", "0", "--xi", "0.1"),
     "mesh must be positive and finite, got 0.0"),
    (("cover", "--a", "2", "--b", "5", "--eta", "0.1", "--xi", "0"),
     "mesh must be positive and finite, got 0.0"),
    (("cover", "--a", "2", "--b", "9", "--eta", "nan", "--xi", "0.3"),
     "thresholds must be numbers, not inf or NaN: nan, 0.3"),
    # an infinite delta was printed as Infinity, which is not JSON, and so
    # was the measure bound that a finite delta overflows
    (("set", "--a", "2", "--b", "3", "--delta", "inf"),
     "delta must be in [2**-511, inf) or be 0, got inf"),
    (("measure", "--a", "2", "--b", "3", "--delta", "1e200", "--s", "0.5"),
     "the measure bound at delta 1e+200 is not a finite number"),
])
def test_non_finite_input_exits_with_message(argv, message):
    # a NaN or infinite coefficient, threshold or psi parameter, a delta
    # whose square underflows, a b_n that overflows, a malformed scan grid
    # or box-dimension index range, or a verify report path without its
    # directory, is bad input: exit 1 with a message that names it, not a
    # traceback, a count of 0, a tau, a division by zero or an empty CSV
    proc = subprocess.run([sys.executable, "-m", "diophlab.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr


_BIG = ("--a", "2", "--b", "1000")


@pytest.mark.parametrize("argv, message", [
    pytest.param(("count", *_BIG, "--eta", "0.1", "--xi", "0.1"),
                 "215 windows exceed the cap 100", id="count"),
    pytest.param(("count", *_BIG, "--eta", "0.1", "--xi", "0.1",
                  "--integer-bound"),
                 "215 windows exceed the cap 100", id="count-integer-bound"),
    pytest.param(("cover", *_BIG, "--eta", "0.1", "--xi", "0.1"),
                 "windows exceed the cap 100", id="cover"),
    pytest.param(("set", *_BIG, "--eta", "0.6", "--xi", "0.1"),
                 "1001 windows exceed the cap 100", id="set-simultaneous"),
    pytest.param(("discrepancy", *_BIG),
                 "1001 lattice points exceed the cap 100", id="discrepancy"),
    pytest.param(("set", *_BIG, "--delta", "0.1"),
                 "cell cuts exceed the cap 100", id="set-product"),
    # window runs whose lengths pass 2**63: cast to int64 before the cap
    # check, 3e19 gave a negative array size and 1e20 a numpy warning
    *(pytest.param(("cover", "--a", "2", "--b", b, "--eta", "0.2", "--xi", "0.3"),
                   f"{count} windows exceed the cap 100", id=f"cover-runs-{b}")
      for b, count in (("2e19", 8 * 10 ** 18), ("3e19", 12 * 10 ** 18),
                       ("1e20", 4 * 10 ** 19))),
    # product sets under the cap whose annulus covers are not: the core's
    # b-walk, then the first b-walk over the cap in pair order, that of
    # annulus j = 1 on the first side
    pytest.param(("measure", "--a", "40", "--b", "50", "--delta", "0.3"),
                 "285 windows exceed the cap 100", id="measure-core"),
    pytest.param(("measure", "--a", "2", "--b", "92", "--delta", "0.12"),
                 "103 windows exceed the cap 100", id="measure-annulus"),
    # the plane's factor walks: the b-walk, and the a-walk that comes first
    pytest.param(("planar", "decompose", "--a", "3", "--b", "150", "--delta", "0.1"),
                 "151 windows exceed the cap 100", id="planar-decompose-b"),
    pytest.param(("planar", "decompose", "--a", "150.5", "--b", "200", "--delta", "0.1"),
                 "152 windows exceed the cap 100", id="planar-decompose-a"),
])
def test_size_cap_exits_with_message(argv, message):
    # an array above DIOPHLAB_CELL_CAP is refused before it is allocated:
    # exit 1 with the size and the cap, not a traceback or a warning
    env = {**os.environ, "DIOPHLAB_CELL_CAP": "100"}
    proc = subprocess.run([sys.executable, "-m", "diophlab.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


_TOO_FINE = "is too fine: its piece count overflows a float"


@pytest.mark.parametrize("argv, code, text", [
    # the canonical premeasure was Infinity, which is not JSON
    pytest.param(("measure", "--a", "2", "--b", "11", "--delta", "0.1", "--mesh", "1e-320"),
                 1, f"error: mesh 1e-320 {_TOO_FINE}\n", id="measure-mesh"),
    # the factor (0.3, 1/2) overflows its count: int(inf) was a traceback
    pytest.param(("planar", "cover", "--a", "1", "--b", "1", "--eta", "0.3", "--xi", "1e-320"),
                 1, f"error: mesh 1e-320 {_TOO_FINE}\n", id="planar-cover"),
    pytest.param(("planar", "decompose", "--a", "1", "--b", "1000000",
                  "--delta", repr(2.0 ** -511)),
                 1, f"error: mesh 1.139237815556e-311 {_TOO_FINE}\n", id="planar-decompose"),
    # the simultaneous set's components are as narrow as the mesh: finite
    pytest.param(("cover", "--a", "1", "--b", "1", "--eta", "0.3", "--xi", "1e-320"),
                 0, {"a": 1.0, "b": 1.0, "bound": 1.3, "c": 0.0, "d": 0.0, "eta": 0.3,
                     "mesh": 1e-320, "pieces": 1, "ratio": 0.7692307692307692,
                     "xi": 1e-320}, id="cover"),
])
def test_subnormal_mesh_counts(argv, code, text):
    # a piece count past the largest float is refused with its mesh, with no
    # overflow warning; a finite one is still counted
    proc = subprocess.run([sys.executable, "-m", "diophlab.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code
    if code:
        assert (proc.stdout, proc.stderr) == ("", text)
    else:
        assert (json.loads(proc.stdout), proc.stderr) == (text, "")


def test_planar_cover_refuses_an_overflowing_bound():
    # a * b * max(eta/a, xi/b) / mesh passes the largest float at a finite
    # square count: the bound was printed as Infinity, which is not JSON
    proc = subprocess.run([sys.executable, "-m", "diophlab.cli", "planar", "cover",
                           "--a", "1", "--b", "1e7", "--eta", "0.3", "--xi", "1e-295",
                           "--s", "0.5"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: mesh 1.0000000000000001e-302 {_TOO_FINE}\n")


@pytest.mark.parametrize("delta", ["0.7", "0.1"])
@pytest.mark.parametrize("s", ["2", "0"])
def test_measure_checks_every_s_first(capsys, delta, s):
    # at delta > 1/2 no premeasure reads s, so s = 2 was ignored with exit 0
    code, out, err = run_cli(capsys, "measure", "--a", "2", "--b", "11",
                             "--delta", delta, "--s", "0.5", s)
    assert code == 1 and out == ""
    assert "s must be in (0, 1]" in err


@pytest.mark.parametrize("b", ["20", "40"])
def test_cell_walk_margin_is_under_no_cap(b):
    # the cap counts the cell cuts (46 and 66), not the walk's pairs (135
    # and 177, most of them rounding margin), which were refused at 100
    argv = [sys.executable, "-m", "diophlab.cli", "set", "--a", "20", "--b", b,
            "--delta", "0.1"]
    capped = subprocess.run(argv, capture_output=True, text=True,
                            env={**os.environ, "DIOPHLAB_CELL_CAP": "100"})
    assert capped.returncode == 0, capped.stderr
    env = {k: v for k, v in os.environ.items() if k != "DIOPHLAB_CELL_CAP"}
    assert capped.stdout == subprocess.run(argv, capture_output=True, text=True,
                                           env=env, check=True).stdout


@pytest.mark.parametrize("cap", ["inf", "abc", "-5", "0", "nan"])
def test_bad_cell_cap_exits_with_message(cap):
    # a cap that is not a finite number >= 1 is refused by name: inf ended
    # in an OverflowError traceback, abc in a message without the name, and
    # -5 refused every size
    env = {**os.environ, "DIOPHLAB_CELL_CAP": cap}
    proc = subprocess.run([sys.executable, "-m", "diophlab.cli", "set", "--a", "2",
                           "--b", "11", "--delta", "0.1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: DIOPHLAB_CELL_CAP must be a finite number >= 1, "
                           f"got {cap!r}\n")


def test_cover_counts_pieces_past_the_cap():
    # 91 windows are under the cap; the 224 pieces are counted, not built,
    # so the cap does not bound them
    env = {**os.environ, "DIOPHLAB_CELL_CAP": "100"}
    proc = subprocess.run([sys.executable, "-m", "diophlab.cli", "cover", "--a", "1",
                           "--b", "90", "--eta", "0.45", "--xi", "0.45"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert '"pieces": 224' in proc.stdout


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
    # JSON-only outputs: --format csv wrote JSON before
    pytest.param(["measure", "--a", "3", "--b", "7", "--delta", "0.05", "--format", "csv"],
                 id="measure-csv"),
    pytest.param(["tau", "--a", "2", "--b", "3", "--psi", "pow:2", "--format", "csv"],
                 id="tau-csv"),
    pytest.param(["planar", "decompose", "--a", "2", "--b", "5", "--delta", "0.1",
                  "--format", "csv"], id="planar-decompose-csv"),
    pytest.param(["planar", "mc", "--a", "1", "--b", "1", "--delta", "0.2",
                  "--format", "csv"], id="planar-mc-csv"),
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


def test_replay_of_malformed_file_exits_with_message(tmp_path):
    # a missing key, a string where the sampler draws a float and a float
    # where it draws an int
    inst = tmp_path / "inst.json"
    pairs = {"a": 2.0, "b": 6.0, "c": 0.0, "d": 0.0, "eta": 0.1, "xi": 0.1}
    for doc, message in [
            ({"check": "count-oracle", "instance": {"a": 2}}, "needs the key 'b'"),
            ({"check": "count-oracle", "instance": {**pairs, "a": "x"}},
             "count-oracle instance key 'a' has a bad value 'x'"),
            ({"check": "exp-sum-orthogonality", "instance": {"a": 2.5, "b": 7}},
             "exp-sum-orthogonality instance key 'a' has a bad value 2.5")]:
        inst.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "diophlab.cli", "replay", str(inst)],
                              capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr


def test_psi_table_syntax(capsys, tmp_path):
    table = tmp_path / "psi.json"
    table.write_text(json.dumps({"kind": "explicit-table",
                                 "values": [0.5, 0.25, 0.125, 0.0625] * 4}))
    code, out, _ = run_cli(capsys, "tau", "--family", "plain", "--a", "2",
                           "--b", "3", "--psi", f"table:@{table}", "--numeric")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "tail-fit"


def test_tau_of_a_zero_psi_table_is_zero(capsys, tmp_path):
    # psi = 0 on the whole tail: every term vanishes, so the series converges
    # at every s and tau is 0, printed as 0.0, not -0.0
    table = tmp_path / "psi.json"
    table.write_text(json.dumps({"kind": "explicit-table", "values": [0] * 12}))
    code, out, err = run_cli(capsys, "tau", "--family", "plain", "--a", "2",
                             "--b", "3", "--psi", f"table:@{table}")
    assert code == 0, err
    assert '"tau": 0.0,' in out and json.loads(out)["method"] == "tail-fit"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "set.json"
    code, out, _ = run_cli(capsys, "set", "--a", "1", "--b", "2",
                           "--eta", "0.1", "--xi", "0.1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["summary"]["components"] == 2


@pytest.mark.parametrize("config, argv, message", [
    pytest.param({"a": 2, "b": 3, "psi": {"kind": "power"}}, [],
                 "psi power needs the key 't'", id="psi-missing-key"),
    pytest.param({"seq": {"kind": "exponential", "a": 2}, "psi": "pow:1"}, [],
                 "sequence exponential needs the key 'b'", id="seq-missing-key"),
    pytest.param([1], ["--a", "2", "--b", "3"],
                 "psi must be a JSON object, got list", id="psi-table-not-object"),
    # a seq that is not an object used to be skipped for --a/--b
    pytest.param({"seq": [1], "a": 2, "b": 3, "psi": "pow:1"}, [],
                 "sequence must be a JSON object, got list", id="seq-not-object"),
])
def test_malformed_seq_psi_json_exits_with_message(tmp_path, config, argv, message):
    # a missing key or a non-object used to end in a KeyError or an
    # AttributeError traceback; the last case is read through --psi table:@F
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(config))
    source = ["--config", str(path)] if isinstance(config, dict) \
        else ["--psi", f"table:@{path}"]
    proc = subprocess.run([sys.executable, "-m", "diophlab.cli", "tau", *argv, *source],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_negative_scientific_value_follows_flag(capsys):
    # -1e-05 after a flag is a value, as -0.5 is, not an unknown option
    code, out, err = run_cli(capsys, "set", "--a", "3", "--b", "7", "--c", "-1e-05",
                             "--delta", "0.1")
    assert code == 0, err
    assert (0, out, "") == run_cli(capsys, "set", "--a", "3", "--b", "7",
                                   "--c=-1e-05", "--delta", "0.1")
    assert json.loads(out)["summary"]["components"] > 0


def test_negative_scientific_value_in_config_list(capsys, tmp_path):
    # the list becomes "--s -1e-05 0.5"; -1e-05 reaches the measure as a
    # number and is refused there, where it used to be a usage error
    code, out, err = run_with_config(capsys, tmp_path, {"s": [-1e-05, 0.5]}, "measure",
                                     "--a", "3", "--b", "7", "--delta", "0.1")
    assert code == 1 and out == ""
    assert "s must be in (0, 1], got -1e-05" in err
