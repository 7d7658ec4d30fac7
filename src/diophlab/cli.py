"""Command-line entry point.

Subcommands map one-to-one onto the library surface: set construction,
covers, counting, discrepancy, measures, tau, grid scans, planar sets,
verification campaigns and replay.  Exit codes: 0 success, 1 computation
error, 2 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

import numpy as np

from . import __version__
from .approx_sets import (FracParams, dyadic_annuli, measure_bound,
                          premeasure_bound, product_set, product_set_cover_cost,
                          cover_simultaneous, simultaneous_set)
from .dimension import (SeriesSpec, compute_tau, single_series_threshold,
                        estimate_box_dimension)
from .intervals import (CellCapExceeded, check_s, lebesgue, premeasure_upper,
                        to_json_pairs)
from .lattice import (count_integer_bound, count_near_pairs, default_K,
                      discrepancy, erdos_turan_rhs, lattice_fraction_points)
from .planar import (cover_rectangles, decompose_planar_product_set, index_split,
                     mc_planar_product_area, planar_premeasure,
                     planar_premeasure_bound, product_rectangle_set)
from .sequences import PsiSpec, SequenceSpec, parse_psi, parse_sequence
from .verify import CheckFailure, InstanceDistribution, replay, run_campaign

EXIT_OK, EXIT_ERROR, EXIT_USAGE, EXIT_CHECK = 0, 1, 2, 3


# psi mini-syntax kind -> (JSON kind, JSON parameter key)
_PSI_SYNTAX = {"pow": ("power", "t"), "power": ("power", "t"),
               "exp": ("exponential", "lambda"),
               "sb": ("scaled-base", "t"), "scaled-base": ("scaled-base", "t")}


def _parse_psi_flag(text: str, seq: SequenceSpec | None = None) -> PsiSpec:
    """Mini-syntax kind:param, e.g. pow:2, exp:0.5, sb:1.2, table:@file.json."""
    kind, _, param = text.partition(":")
    if kind == "table" and param.startswith("@"):
        with open(param[1:], encoding="utf-8") as fh:
            return parse_psi(json.load(fh), seq=seq)
    if kind not in _PSI_SYNTAX:
        raise ValueError(f"unknown psi syntax {text!r} (pow:T, exp:L, sb:T, table:@file)")
    json_kind, key = _PSI_SYNTAX[kind]
    return parse_psi({"kind": json_kind, key: param}, seq=seq)


def _grid(args, name: str) -> list[float]:
    """The flag --name as one value, or as the inclusive grid lo:hi:n of
    n >= 1 values; anything else is refused with the flag and its text."""
    text = getattr(args, name)
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(text)]
        if len(parts) == 3 and int(parts[2]) >= 1:
            return list(np.linspace(float(parts[0]), float(parts[1]), int(parts[2])))
    except ValueError:
        pass
    raise ValueError(f"--{name} {text!r}: expected a value or lo:hi:n with n >= 1")


def _emit(args, payload, csv_rows=None, csv_header=None) -> None:
    """Write JSON, or the CSV rows under --format csv, to stdout or --out."""
    if csv_rows is not None and args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(csv_header)
        w.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"--config {path}: expected a JSON object, "
                         f"got {type(doc).__name__}")
    return doc


def _config_argv(doc: dict, flags) -> list[str]:
    """The entries of a config document that name one of `flags`, as argv.

    A list gives several values, true a bare switch, and false or null
    nothing; objects are not flags (they are tau's seq/psi schema).
    """
    argv = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if key.replace("-", "_") not in flags or value is False or value is None \
                or isinstance(value, dict):
            continue
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, *map(str, value)]
        else:
            argv.append(f"{flag}={value}")  # "=" keeps a value like "-x" a value
    return argv


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required (flag or config)")


def _frac_params(args) -> FracParams:
    _require(args, "a", "b")
    return FracParams(args.a, args.b, args.c, args.d)


# -- subcommand handlers --------------------------------------------------------


def _cmd_set(args) -> int:
    p = _frac_params(args)
    if args.delta is not None:
        x = product_set(p, args.delta)
        label = {"condition": "product", "delta": args.delta}
    else:
        _require(args, "eta", "xi")
        x = simultaneous_set(p, args.eta, args.xi)
        label = {"condition": "simultaneous", "eta": args.eta, "xi": args.xi}
    pairs = to_json_pairs(x)
    payload = {**label, "intervals": pairs,
               "summary": {"measure": lebesgue(x), "components": len(x)}}
    _emit(args, payload, csv_rows=pairs, csv_header=["lo", "hi"])
    return EXIT_OK


def _cmd_cover(args) -> int:
    p = _frac_params(args)
    _require(args, "eta", "xi")
    pieces, mesh = cover_simultaneous(p, args.eta, args.xi)
    bound = p.count_bound(args.eta)
    row = {"a": p.a, "b": p.b, "c": p.c, "d": p.d, "eta": args.eta, "xi": args.xi,
           "pieces": pieces, "bound": bound, "ratio": pieces / bound}
    _emit(args, {**row, "mesh": mesh}, [list(row.values())], list(row))
    return EXIT_OK


def _cmd_count(args) -> int:
    p = _frac_params(args)
    _require(args, "eta", "xi")
    if args.integer_bound:
        n, bound = count_integer_bound(p, args.eta, args.xi)
    else:
        n, bound = count_near_pairs(p, args.eta, args.xi), p.count_bound(args.eta)
    print(f"count:  {n}\nbound:  {bound:.6g}\nratio:  {n / bound:.6g}")
    return EXIT_OK


def _cmd_discrepancy(args) -> int:
    p = _frac_params(args)
    pts = lattice_fraction_points(p)
    K = args.K if args.K is not None else default_K(p)
    interval = (args.lo, args.hi)
    d = discrepancy(pts, interval)
    rhs = erdos_turan_rhs(pts, interval, K)
    ok = abs(d) <= rhs + 1e-9
    print(f"Q:    {pts.Q}\nD:    {d:.6g}\nRHS:  {rhs:.6g}\nK:    {K}\npass: {ok}")
    return EXIT_OK if ok else EXIT_CHECK


def _cmd_measure(args) -> int:
    p = _frac_params(args)
    _require(args, "delta")
    for s in args.s:
        check_s(s)
    delta = args.delta
    e = product_set(p, delta)
    leb = lebesgue(e)
    mbound = measure_bound(p, delta)
    payload = {"a": p.a, "b": p.b, "c": p.c, "d": p.d, "delta": delta,
               "components": len(e), "lebesgue": leb,
               "measure_bound": mbound, "measure_ratio": leb / mbound,
               "premeasure": {}}
    if delta <= 0.5:
        cost = product_set_cover_cost(p, delta)
        for s in args.s:
            pm, pb = cost.premeasure(s), premeasure_bound(p, delta, s)
            payload["premeasure"][str(s)] = {"value": pm, "bound": pb, "ratio": pm / pb}
    if args.mesh is not None:
        payload["canonical_premeasure"] = {
            str(s): premeasure_upper(e, s, args.mesh) for s in args.s}
    _emit(args, payload)
    return EXIT_OK


def _cmd_tau(args) -> int:
    doc = args.config_doc
    if "seq" in doc:
        seq = parse_sequence(doc["seq"])
    else:
        _require(args, "a", "b")
        seq = SequenceSpec(kind="exponential", a=args.a, b=args.b)
    if args.psi is None and isinstance(doc.get("psi"), dict):
        psi = parse_psi(doc["psi"], seq=seq)
    else:
        _require(args, "psi")
        psi = _parse_psi_flag(args.psi, seq=seq)
    res = compute_tau(SeriesSpec(seq=seq, psi=psi, family=args.family),
                      numeric=args.numeric)
    _emit(args, {"family": args.family, "tau": res.tau, "method": res.method,
                 "thresholds": list(res.thresholds), "diagnostics": res.diagnostics})
    return EXIT_OK


def _cmd_scan(args) -> int:
    header = ["a", "b", "t", "tau_plain", "tau_two_term",
              "single_series_threshold", "boxdim_estimate"]
    rows = []
    a_grid, b_grid, t_grid = (_grid(args, name) for name in ("a", "b", "t"))
    for a in a_grid:
        for b in b_grid:
            if b <= a:
                continue
            for t in t_grid:
                seq = SequenceSpec(kind="exponential", a=a, b=b)
                psi = PsiSpec(kind="scaled-base", t=t, seq=seq)
                plain = compute_tau(SeriesSpec(seq=seq, psi=psi, family="plain"))
                two = compute_tau(SeriesSpec(seq=seq, psi=psi, family="two-term"))
                boxdim = ""
                if args.with_boxdim:
                    est = estimate_box_dimension(
                        seq, psi, args.boxdim_n_lo, args.boxdim_n_hi,
                        [2.0 ** -k for k in range(4, 13)])
                    boxdim = f"{est.slope:.4f}"
                rows.append([f"{a:.6g}", f"{b:.6g}", f"{t:.6g}",
                             f"{plain.tau:.6g}", f"{two.tau:.6g}",
                             f"{single_series_threshold(a, b):.6g}", boxdim])
    _emit(args, None, csv_rows=rows, csv_header=header)
    return EXIT_OK


def _cmd_planar(args) -> int:
    p = _frac_params(args)
    if args.op == "area":
        _require(args, "eta", "xi")
        box = product_rectangle_set(p, args.eta, args.xi)
        area = {"area": box.area(), "area_by_boxes": box.area_by_boxes()}
        row = {"a": p.a, "b": p.b, "c": p.c, "d": p.d, "eta": args.eta, "xi": args.xi,
               **area}
        _emit(args, {**area, "x_components": len(box.x_set),
                     "y_components": len(box.y_set)}, [list(row.values())], list(row))
    elif args.op == "cover":
        _require(args, "eta", "xi")
        if len(args.s) != 1:
            raise ValueError(f"planar cover takes one --s value, got {len(args.s)}")
        s = args.s[0]
        cov = cover_rectangles(p, args.eta, args.xi, s)
        result = {"squares": cov.squares, "mesh": cov.mesh, "premeasure": cov.premeasure,
                  "bound": cov.bound, "ratio": cov.ratio}
        row = {"a": p.a, "b": p.b, "eta": args.eta, "xi": args.xi, "s": s, **result}
        _emit(args, result, [list(row.values())], list(row))
    elif args.op == "decompose":
        _require(args, "delta")
        cost = decompose_planar_product_set(p, args.delta)
        j1, j2 = index_split(p, args.delta)
        per_s = {}
        for s in args.s:
            total = planar_premeasure(cost, s)
            bound = planar_premeasure_bound(p, args.delta, s)
            per_s[str(s)] = {"total": total, "bound": bound, "ratio": total / bound}
        _emit(args, {"delta": args.delta, "J": dyadic_annuli(args.delta),
                     "J1": j1, "J2": j2, "premeasure": per_s})
    else:  # mc
        _require(args, "delta")
        est, se = mc_planar_product_area(p, args.delta, args.samples, seed=args.seed)
        _emit(args, {"estimate": est, "stderr": se, "samples": args.samples,
                     "seed": args.seed})
    return EXIT_OK


def _cmd_verify(args) -> int:
    dist = InstanceDistribution(count=args.count, seed=args.seed)
    checks = args.checks.split(",") if args.checks else ["all"]
    try:
        run_campaign(dist, checks=checks, threads=args.threads,
                     report_path=args.out)
    except CheckFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _cmd_replay(args) -> int:
    result = replay(args.instance_file, verbose=not args.quiet)
    return EXIT_OK if result.get("ok", True) else EXIT_CHECK


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e-05, like -0.5, as a negative number
    rather than an unknown option, so it can follow a flag without "="."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_params(sp, *, shifts=True, eta_xi=False, delta=False) -> None:
    sp.add_argument("--config", default=None,
                    help="JSON object of flag values; command-line flags win")
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    if shifts:
        sp.add_argument("--c", type=float, default=0.0)
        sp.add_argument("--d", type=float, default=0.0)
    if eta_xi:
        sp.add_argument("--eta", type=float, default=None)
        sp.add_argument("--xi", type=float, default=None)
    if delta:
        sp.add_argument("--delta", type=float, default=None)


def _add_io(sp) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="diophlab",
        description="Exact sets, counting, discrepancy and dimension "
                    "experiments for multiplicative approximation conditions")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("set", help="emit a solution set as intervals")
    _add_params(sp, eta_xi=True, delta=True)
    _add_io(sp)
    sp.set_defaults(fn=_cmd_set)

    sp = sub.add_parser("cover", help="equal-mesh cover with count diagnostics")
    _add_params(sp, eta_xi=True)
    _add_io(sp)
    sp.set_defaults(fn=_cmd_cover)

    sp = sub.add_parser("count", help="exact near-pair count and bound ratio")
    _add_params(sp, eta_xi=True)
    sp.add_argument("--integer-bound", action="store_true",
                    help="use the gcd bound (integer a, b)")
    sp.set_defaults(fn=_cmd_count)

    sp = sub.add_parser("discrepancy", help="discrepancy against its bound")
    _add_params(sp)
    sp.add_argument("--K", type=int, default=None, help="default floor(b/a)")
    sp.add_argument("--lo", type=float, default=-0.1)
    sp.add_argument("--hi", type=float, default=0.1)
    sp.set_defaults(fn=_cmd_discrepancy)

    sp = sub.add_parser("measure", help="product-set measure and premeasures")
    _add_params(sp, delta=True)
    sp.add_argument("--s", type=float, nargs="+", default=[0.3, 0.5, 0.7, 0.9])
    sp.add_argument("--mesh", type=float, default=None,
                    help="also report the canonical equal-mesh premeasure")
    sp.add_argument("--out", default=None, help="write output to this path")
    sp.set_defaults(fn=_cmd_measure)

    sp = sub.add_parser("tau", help="convergence exponent of a series family")
    _add_params(sp, shifts=False)
    sp.add_argument("--family", default="two-term",
                    choices=("plain", "two-term", "gcd", "four-term"))
    sp.add_argument("--psi", default=None, help="pow:T | exp:L | sb:T | table:@f")
    sp.add_argument("--numeric", action="store_true", help="force the tail fit")
    sp.add_argument("--out", default=None, help="write output to this path")
    sp.set_defaults(fn=_cmd_tau)

    sp = sub.add_parser("scan", help="sweep (a, b, t) grids to CSV")
    sp.add_argument("--a", required=True, help="grid lo:hi:n or value")
    sp.add_argument("--b", required=True)
    sp.add_argument("--t", required=True, help="psi decay grid (psi = b_n**-t)")
    sp.add_argument("--with-boxdim", action="store_true")
    sp.add_argument("--boxdim-n-lo", type=int, default=4)
    sp.add_argument("--boxdim-n-hi", type=int, default=8)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_scan, format="csv")

    sp = sub.add_parser("planar", help="planar product-set operations")
    sp.add_argument("op", choices=("area", "cover", "decompose", "mc"))
    _add_params(sp, eta_xi=True, delta=True)
    sp.add_argument("--s", type=float, nargs="+", default=[0.5])
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    _add_io(sp)
    sp.set_defaults(fn=_cmd_planar)

    sp = sub.add_parser("verify", help="run randomized verification checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--checks", default="all", help="comma list or 'all'")
    sp.add_argument("--out", default="verify_report.json")
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("replay", help="re-run a serialized failing instance")
    sp.add_argument("instance_file")
    sp.add_argument("--quiet", action="store_true")
    sp.set_defaults(fn=_cmd_replay)

    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _read_config(args.config) if getattr(args, "config", None) else {}
        if doc:
            # config entries go in right after the subcommand name, so the
            # command line's own flags, parsed later, win; `op` is planar's
            # positional, and the trailing --config keeps a list flag from
            # taking it
            flags = vars(args).keys() - {"fn", "command", "config", "op"}
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_argv(doc, flags)
                                     + ["--config", args.config] + argv[at:])
        if getattr(args, "op", None) in ("decompose", "mc") and args.format == "csv":
            parser.error(f"planar {args.op} writes JSON only, not --format csv")
        args.config_doc = doc
        return args.fn(args)
    except (ValueError, OSError, IndexError, CellCapExceeded, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
