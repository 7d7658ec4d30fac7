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
import math
import sys

import numpy as np

from . import __version__
from .approx_sets import (FracParams, measure_bound, premeasure_bound,
                          product_set, product_set_cover_cost,
                          cover_simultaneous, simultaneous_set)
from .dimension import (SeriesSpec, compute_tau, single_series_threshold,
                        estimate_box_dimension)
from .intervals import (CellCapExceeded, lebesgue, premeasure_upper,
                        to_json_pairs)
from .lattice import (count_integer_bound, count_near_pairs, default_K,
                      discrepancy, erdos_turan_rhs, lattice_fraction_points)
from .planar import (cover_rectangles, decompose_planar_product_set,
                     mc_planar_product_area, planar_premeasure_bound,
                     product_rectangle_set)
from .sequences import PsiSpec, SequenceSpec, load_config, parse_psi
from .verify import CheckFailure, InstanceDistribution, replay, run_campaign

EXIT_OK, EXIT_ERROR, EXIT_USAGE, EXIT_CHECK = 0, 1, 2, 3


def _parse_psi_flag(text: str, seq: SequenceSpec | None = None) -> PsiSpec:
    """Mini-syntax kind:param, e.g. pow:2, exp:0.5, sb:1.2, table:@file.json."""
    kind, _, param = text.partition(":")
    if kind in ("pow", "power"):
        return PsiSpec(kind="power", t=float(param))
    if kind == "exp":
        return PsiSpec(kind="exponential", lam=float(param))
    if kind in ("sb", "scaled-base"):
        return PsiSpec(kind="scaled-base", t=float(param), seq=seq)
    if kind == "table":
        if not param.startswith("@"):
            raise ValueError("table psi expects table:@file.json")
        with open(param[1:], encoding="utf-8") as fh:
            return parse_psi(json.load(fh), seq=seq)
    raise ValueError(f"unknown psi syntax {text!r} (pow:T, exp:L, sb:T, table:@file)")


def _grid(text: str) -> list[float]:
    """lo:hi:count inclusive grid, or a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    return list(np.linspace(lo, hi, n))


def _emit(args, payload, csv_rows=None, csv_header=None) -> None:
    """Write JSON (default) or CSV to stdout or --out."""
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(csv_header)
        w.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _merge_config(args, keys) -> None:
    """Fill unset flags from a --config JSON document; flags win."""
    if not getattr(args, "config", None):
        return
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in keys:
        if getattr(args, key, None) is None and key in doc:
            setattr(args, key, doc[key])
    args.config_doc = doc


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required "
                             "(flag or config)")


def _frac_params(args) -> FracParams:
    _require(args, "a", "b")
    return FracParams(float(args.a), float(args.b),
                      float(args.c or 0.0), float(args.d or 0.0))


# -- subcommand handlers --------------------------------------------------------


def _cmd_set(args) -> int:
    _merge_config(args, ("a", "b", "c", "d", "eta", "xi", "delta"))
    p = _frac_params(args)
    if args.delta is not None:
        x = product_set(p, float(args.delta))
        label = {"condition": "product", "delta": float(args.delta)}
    else:
        _require(args, "eta", "xi")
        x = simultaneous_set(p, float(args.eta), float(args.xi))
        label = {"condition": "simultaneous", "eta": float(args.eta),
                 "xi": float(args.xi)}
    payload = {**label, "intervals": to_json_pairs(x),
               "summary": {"measure": lebesgue(x), "components": len(x)}}
    _emit(args, payload, csv_rows=to_json_pairs(x), csv_header=["lo", "hi"])
    return EXIT_OK


def _cmd_cover(args) -> int:
    _merge_config(args, ("a", "b", "c", "d", "eta", "xi"))
    p = _frac_params(args)
    _require(args, "eta", "xi")
    cov = cover_simultaneous(p, float(args.eta), float(args.xi))
    row = [p.a, p.b, p.c, p.d, float(args.eta), float(args.xi),
           cov.count, cov.bound, cov.ratio]
    payload = {"a": p.a, "b": p.b, "c": p.c, "d": p.d,
               "eta": float(args.eta), "xi": float(args.xi),
               "mesh": cov.mesh, "pieces": cov.count,
               "bound": cov.bound, "ratio": cov.ratio}
    _emit(args, payload, csv_rows=[row],
          csv_header=["a", "b", "c", "d", "eta", "xi", "pieces", "bound", "ratio"])
    return EXIT_OK


def _cmd_count(args) -> int:
    _merge_config(args, ("a", "b", "c", "d", "eta", "xi"))
    p = _frac_params(args)
    _require(args, "eta", "xi")
    eta, xi = float(args.eta), float(args.xi)
    if args.integer_bound:
        n, ratio = count_integer_bound(p, eta, xi)
        bound = p.b * eta + math.gcd(int(p.a), int(p.b))
    else:
        n = count_near_pairs(p, eta, xi)
        bound = (p.b * eta + p.a) * p.weight()
        ratio = n / bound
    print(f"count:  {n}")
    print(f"bound:  {bound:.6g}")
    print(f"ratio:  {ratio:.6g}")
    return EXIT_OK


def _cmd_discrepancy(args) -> int:
    _merge_config(args, ("a", "b", "c", "d"))
    p = _frac_params(args)
    pts = lattice_fraction_points(p)
    K = args.K if args.K is not None else default_K(p)
    interval = (float(args.lo), float(args.hi))
    d = discrepancy(pts, interval)
    rhs = erdos_turan_rhs(pts, interval, K)
    ok = abs(d) <= rhs + 1e-9
    print(f"Q:    {pts.Q}")
    print(f"D:    {d:.6g}")
    print(f"RHS:  {rhs:.6g}")
    print(f"K:    {K}")
    print(f"pass: {ok}")
    return EXIT_OK if ok else EXIT_CHECK


def _cmd_measure(args) -> int:
    _merge_config(args, ("a", "b", "c", "d", "delta"))
    p = _frac_params(args)
    _require(args, "delta")
    delta = float(args.delta)
    e = product_set(p, delta)
    leb = lebesgue(e)
    mbound = measure_bound(p, delta)
    payload = {"a": p.a, "b": p.b, "c": p.c, "d": p.d, "delta": delta,
               "components": len(e), "lebesgue": leb,
               "measure_bound": mbound, "measure_ratio": leb / mbound,
               "premeasure": {}}
    if 0.0 < delta <= 0.5:
        cost = product_set_cover_cost(p, delta)
        for s in args.s:
            pm = cost.premeasure(float(s))
            pb = premeasure_bound(p, delta, float(s))
            payload["premeasure"][str(s)] = {
                "value": pm, "bound": pb, "ratio": pm / pb}
    if args.mesh:
        payload["canonical_premeasure"] = {
            str(s): premeasure_upper(e, float(s), float(args.mesh))
            for s in args.s}
    _emit(args, payload)
    return EXIT_OK


def _cmd_tau(args) -> int:
    _merge_config(args, ("a", "b", "family", "psi"))
    seq = None
    if getattr(args, "config_doc", None) and "seq" in args.config_doc:
        seq, psi = load_config(args.config_doc)
    else:
        _require(args, "a", "b")
        seq = SequenceSpec(kind="exponential", a=float(args.a), b=float(args.b))
        _require(args, "psi")
        psi = _parse_psi_flag(args.psi, seq=seq)
    spec = SeriesSpec(seq=seq, psi=psi, family=args.family)
    res = compute_tau(spec, numeric=args.numeric)
    payload = {"family": args.family, "tau": res.tau, "method": res.method,
               "thresholds": list(res.thresholds), "diagnostics": res.diagnostics}
    _emit(args, payload)
    return EXIT_OK


def _cmd_scan(args) -> int:
    header = ["a", "b", "t", "tau_plain", "tau_two_term",
              "single_series_threshold", "boxdim_estimate"]
    rows = []
    for a in _grid(args.a):
        for b in _grid(args.b):
            if b <= a:
                continue
            for t in _grid(args.t):
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
    args.format = "csv"
    _emit(args, None, csv_rows=rows, csv_header=header)
    return EXIT_OK


def _cmd_planar(args) -> int:
    _merge_config(args, ("a", "b", "c", "d", "eta", "xi", "delta"))
    p = _frac_params(args)
    if args.op == "area":
        _require(args, "eta", "xi")
        box = product_rectangle_set(p, float(args.eta), float(args.xi))
        row = [p.a, p.b, p.c, p.d, float(args.eta), float(args.xi),
               box.area(), box.area_by_boxes()]
        _emit(args, {"area": box.area(), "area_by_boxes": box.area_by_boxes(),
                     "x_components": len(box.x_set), "y_components": len(box.y_set)},
              csv_rows=[row],
              csv_header=["a", "b", "c", "d", "eta", "xi", "area", "area_by_boxes"])
    elif args.op == "cover":
        _require(args, "eta", "xi")
        cov = cover_rectangles(p, float(args.eta), float(args.xi), float(args.s[0]))
        row = [p.a, p.b, float(args.eta), float(args.xi), float(args.s[0]),
               cov.squares, cov.mesh, cov.premeasure, cov.bound, cov.ratio]
        _emit(args, {"squares": cov.squares, "mesh": cov.mesh,
                     "premeasure": cov.premeasure, "bound": cov.bound,
                     "ratio": cov.ratio},
              csv_rows=[row],
              csv_header=["a", "b", "eta", "xi", "s", "squares", "mesh",
                          "premeasure", "bound", "ratio"])
    elif args.op == "decompose":
        _require(args, "delta")
        delta = float(args.delta)
        dec = decompose_planar_product_set(p, delta)
        j1, j2 = dec.index_split()
        per_s = {}
        for s in args.s:
            pm = dec.premeasure(float(s))
            per_s[str(s)] = {"total": pm["total"],
                             "bound": planar_premeasure_bound(p, delta, float(s)),
                             "ratio": pm["total"] / planar_premeasure_bound(p, delta, float(s))}
        _emit(args, {"delta": delta, "J": dec.annulus_indices(),
                     "J1": j1, "J2": j2, "premeasure": per_s})
    else:  # mc
        _require(args, "delta")
        est, se = mc_planar_product_area(p, float(args.delta),
                                         int(args.samples), seed=int(args.seed))
        _emit(args, {"estimate": est, "stderr": se, "samples": int(args.samples),
                     "seed": int(args.seed)})
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
    if result.get("ok", True):
        return EXIT_OK
    return EXIT_CHECK


# -- parser ----------------------------------------------------------------------


def _add_params(sp, *, eta_xi=False, delta=False) -> None:
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--d", type=float, default=None)
    if eta_xi:
        sp.add_argument("--eta", type=float, default=None)
        sp.add_argument("--xi", type=float, default=None)
    if delta:
        sp.add_argument("--delta", type=float, default=None)


def _add_io(sp) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, help="write output to this path")
    sp.add_argument("--config", default=None,
                    help="JSON config; explicit flags take precedence")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    sp.add_argument("--config", default=None)
    sp.set_defaults(fn=_cmd_count)

    sp = sub.add_parser("discrepancy", help="discrepancy against its bound")
    _add_params(sp)
    sp.add_argument("--K", type=int, default=None, help="default floor(b/a)")
    sp.add_argument("--lo", type=float, default=-0.1)
    sp.add_argument("--hi", type=float, default=0.1)
    sp.add_argument("--config", default=None)
    sp.set_defaults(fn=_cmd_discrepancy)

    sp = sub.add_parser("measure", help="product-set measure and premeasures")
    _add_params(sp, delta=True)
    sp.add_argument("--s", type=float, nargs="+", default=[0.3, 0.5, 0.7, 0.9])
    sp.add_argument("--mesh", type=float, default=None,
                    help="also report the canonical equal-mesh premeasure")
    _add_io(sp)
    sp.set_defaults(fn=_cmd_measure)

    sp = sub.add_parser("tau", help="convergence exponent of a series family")
    sp.add_argument("--family", default="two-term",
                    choices=("plain", "two-term", "gcd", "four-term"))
    sp.add_argument("--a", type=float, default=None, help="exponential base of a_n")
    sp.add_argument("--b", type=float, default=None, help="exponential base of b_n")
    sp.add_argument("--psi", default=None, help="pow:T | exp:L | sb:T | table:@f")
    sp.add_argument("--numeric", action="store_true", help="force bisection")
    _add_io(sp)
    sp.set_defaults(fn=_cmd_tau)

    sp = sub.add_parser("scan", help="sweep (a, b, t) grids to CSV")
    sp.add_argument("--a", required=True, help="grid lo:hi:n or value")
    sp.add_argument("--b", required=True)
    sp.add_argument("--t", required=True, help="psi decay grid (psi = b_n**-t)")
    sp.add_argument("--with-boxdim", action="store_true")
    sp.add_argument("--boxdim-n-lo", type=int, default=4)
    sp.add_argument("--boxdim-n-hi", type=int, default=8)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_scan, format="csv", config=None)

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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (ValueError, OSError, IndexError, CellCapExceeded, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
