"""diophlab benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src, never
from an installed copy.  Every unit runs in a child process, timed from
spawn to exit and reaped with os.wait4, so its CPU time and peak RSS are
its own.  Units run back to back until the next one would end after
--seconds, and at least one runs.  The workloads' inputs are pinned, so
that their outputs can be pinned; --seed is recorded and selects nothing.

--trace 0 reports the end-to-end metrics, medians over the run's units
(ratio-stream: over the passes of one worker) and over set-up samples
spread through the run.
--trace 1 alternates untraced and traced in-process units and reports the
per-layer self times and work counts of the traced ones, with the
tracing overhead.  The last line of stdout is one JSON object; the full
record, environment included, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import steal
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HARD_LIMIT_S = 170.0
SETUP_SAMPLES = 5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# ids of the 23 checks in diophlab.verify.CHECKS, one span each
VERIFY_CHECKS = (
    "annulus-indices", "count-bound-ratio", "count-oracle", "count-regime",
    "count-shift-invariance", "cover-containment", "cover-count-ratio",
    "decompose-exact", "erdos-turan", "exp-sum-orthogonality",
    "integer-count-ratio", "measure-bound-ratio", "membership-agreement",
    "planar-cover-ratio", "planar-mc-oracle", "planar-premeasure-ratio",
    "planar-product-area", "premeasure-bound-ratio", "set-monotonicity",
    "simultaneous-in-product", "single-series-threshold-zero",
    "tau-bisection-agreement", "uq-rhs-bound")
SPANS = (list(dict.fromkeys(name for _, _, name in spans.LAYERS))
         + [spans.STREAM, spans.GENERATE] + [f"verify.{c}" for c in VERIFY_CHECKS]
         + [spans.ROOT])
# span name -> metric name; the planar layer is one span named after its module
SPAN_METRICS = {span: "planar.s" if span == "planar" else f"{span}_s" for span in SPANS}
COUNT_METRICS = [
    "cli.output_bytes", "intervals.normalize_calls",
    "intervals.normalize_pieces_in", "intervals.normalize_components_out",
    "intervals.mesh_cover_pieces", "approx.product_set_calls", "approx.cells",
    "approx.cover_simultaneous_calls", "lattice.erdos_turan_rhs_calls",
]
TRACE_METRICS = ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
PER_LAYER = list(SPAN_METRICS.values()) + COUNT_METRICS + TRACE_METRICS


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


# -- environment ------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError:
        return ""


def system_snapshot() -> dict:
    """Per-vCPU jiffies (steal included) and load average; reads only."""
    load = _read("/proc/loadavg").split()[:3]
    return {"monotonic": time.monotonic(), "jiffies": steal.jiffies(),
            "loadavg": [float(x) for x in load]}


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "git_commit": _git_commit(),
            "DIOPHLAB_CELL_CAP": os.environ.get("DIOPHLAB_CELL_CAP")}


# -- child processes -----------------------------------------------------------------


class Runner:
    """Spawns children from the checkout and reaps each one with wait4."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.spawned = 0

    def spawn(self, args: list[str]) -> dict:
        """Run `python3 args...`; returns start time, wall (as measured and less
        host steal, see steal.py), exit code and rusage."""
        self.spawned += 1
        log = self.workdir / f"child-{self.spawned}.log"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Timeout
        with open(log, "wb") as fh, open(os.devnull, "rb") as null:
            actions = [(os.POSIX_SPAWN_DUP2, null.fileno(), 0),
                       (os.POSIX_SPAWN_DUP2, fh.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, fh.fileno(), 2)]
            old = signal.signal(signal.SIGALRM, _on_alarm)
            jiffies = steal.jiffies()
            started = time.monotonic()
            pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                                 file_actions=actions)
            reaped = False
            try:
                signal.setitimer(signal.ITIMER_REAL, remaining)
                _, status, ru = os.wait4(pid, 0)
                reaped = True
                wall = time.monotonic() - started
                stolen = steal.stolen_share(jiffies, steal.jiffies())
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
                if not reaped:
                    _kill(pid)
        return {"started": started, "jiffies": jiffies, "raw_wall_s": wall,
                "stolen_share": stolen, "wall_s": wall * (1.0 - stolen),
                "exit": os.waitstatus_to_exitcode(status),
                "cpu_s": ru.ru_utime + ru.ru_stime,
                "peak_rss_mb": ru.ru_maxrss / 1024.0, "log": str(log)}

    def cli(self, args: list[str]) -> dict:
        return self.spawn(["-m", "diophlab.cli", *args])

    def worker(self, name: str, mode: str) -> dict:
        """Run worker.py; merges its own result (timings inside the unit) in."""
        result = self.workdir / f"worker-{self.spawned + 1}-{mode}.json"
        out = self.workdir / f"out-{self.spawned + 1}.json"
        proc = self.spawn([str(HERE / "worker.py"), name, mode, str(out), str(result)])
        if proc["exit"] != 0:
            return {**proc, "errors": [f"worker exit {proc['exit']}, see {proc['log']}"]}
        inner = json.loads(result.read_text())
        inner["setup_s"] = steal.unstolen(inner.pop("ready_at") - proc["started"],
                                          proc["jiffies"], inner.pop("ready_jiffies"))
        out.unlink(missing_ok=True)
        return {**proc, **inner}


# -- runs ---------------------------------------------------------------------------


def _more(t0: float, walls: list[float], seconds: float, done: int, least: int) -> bool:
    """Whether another unit still ends within the run's measuring time."""
    if done < least:
        return True
    return time.monotonic() - t0 + statistics.median(walls) <= seconds


def setup_sample(name: str, runner: Runner) -> float:
    """Set-up time: `diophlab --version`, or a worker's import and warm-up."""
    if wl.KIND[name] == wl.CLI:
        proc = runner.cli(["--version"])
        if proc["exit"] == 0:
            return proc["wall_s"]
    else:
        proc = runner.worker(name, "setup")
        if "setup_s" in proc:
            return proc["setup_s"]
    raise BenchError(f"set-up failed, see {proc['log']}")


def timed_run(name: str, seconds: float, runner: Runner) -> dict:
    """Units back to back, each after one set-up sample.

    The host's speed changes between phases a few seconds to minutes long;
    spreading the set-up samples over the run keeps them out of a single one.
    """
    setup_sample(name, runner)        # fills bytecode caches; not counted
    if name == "ratio-stream":
        return ratio_run(seconds, runner)
    cli = wl.KIND[name] == wl.CLI
    setup: list[float] = []
    units = []
    t0 = time.monotonic()
    elapsed: list[float] = []
    while _more(t0, elapsed, seconds, len(units), 1):
        u0 = time.monotonic()
        setup.append(setup_sample(name, runner))
        index = len(units)
        if cli:
            out = runner.workdir / f"out-{index}.json"
            unit = runner.cli(wl.cli_args(name, str(out)))
            err = (f"exit code {unit['exit']}, see {unit['log']}" if unit["exit"]
                   else wl.check_cli_output(name, str(out)))
            unit["errors"] = [err] if err else []
            unit["output_bytes"] = out.stat().st_size if out.exists() else 0
            out.unlink(missing_ok=True)
        else:
            # a worker's own import and warm-up is one more set-up sample
            unit = runner.worker(name, "plain")
            if "setup_s" in unit:
                setup.append(unit["setup_s"])
        units.append(unit)
        elapsed.append(time.monotonic() - u0)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(name, runner))
    return {"units": units, "setup_s": setup}


def ratio_run(seconds: float, runner: Runner) -> dict:
    """One worker makes every ratio-stream pass of the run.

    A pass takes about 5 s.  In a fresh process the first pass is about
    10 % slower than later ones, while the heap grows; with one pass per
    process every unit would be such a first pass.
    """
    setup = [setup_sample("ratio-stream", runner) for _ in range(2)]
    unit = runner.worker("ratio-stream", f"passes:{max(seconds - 2.0, 1.0)}")
    if "setup_s" in unit:
        setup.append(unit["setup_s"])
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample("ratio-stream", runner))
    return {"units": [unit], "setup_s": setup}


def traced_run(name: str, seconds: float, runner: Runner) -> dict:
    plain, traced = [], []
    t0 = time.monotonic()
    elapsed: list[float] = []
    while _more(t0, elapsed, seconds, len(plain) + len(traced), 2):
        u0 = time.monotonic()
        index = len(plain) + len(traced)
        mode = "plain" if index % 2 == 0 else "traced"
        (plain if mode == "plain" else traced).append(
            runner.worker(name, mode))
        elapsed.append(time.monotonic() - u0)
    return {"units": plain + traced, "plain": plain, "traced": traced}


# -- summaries ----------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(values: list[float], unit: str) -> dict:
    q1, q3 = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "q1": q1, "q3": q3}


def pass_walls(unit: dict) -> list[float]:
    """Wall time of each ratio-stream pass, less host steal."""
    return [sum(p) * (1.0 - stolen)
            for p, stolen in zip(unit["instance_s"], unit["pass_stolen_share"])]


def pass_metrics(unit: dict) -> dict:
    """ratio-stream's wall_s, cpu_s and peak_rss_mb, from a worker's passes."""
    return {"wall_s": summarize(pass_walls(unit), "s"),
            "cpu_s": summarize([sum(p) for p in unit["instance_cpu_s"]], "s"),
            "peak_rss_mb": summarize([unit["first_pass_rss_mb"]], "MB")}


def end_to_end(name: str, run: dict) -> tuple[dict, dict]:
    """(metrics of BENCHMARK.json, further metrics that apply to this workload)."""
    ok = [u for u in run["units"] if not u["errors"]]
    metrics = {}
    if ok and name == "ratio-stream":
        metrics.update(pass_metrics(ok[0]))
    elif ok:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = summarize([u[key] for u in ok], END_TO_END[key])
    metrics["setup_s"] = summarize(run["setup_s"], "s")
    extra = {"error_rate": {"value": (len(run["units"]) - len(ok)) / len(run["units"]),
                            "unit": "ratio", "n": len(run["units"])}}
    if ok and name == "ratio-stream":
        passes = ok[0]["instance_s"]
        times = [t for p in passes for t in p]
        extra["raw_wall_s"] = summarize([sum(p) for p in passes], "s")
        extra["stolen_share"] = summarize(ok[0]["pass_stolen_share"], "ratio")
        extra["instances_per_s"] = {"value": len(times) / sum(pass_walls(ok[0])),
                                    "unit": "1/s", "n": len(passes)}
        cuts = statistics.quantiles(times, n=10, method="inclusive")
        extra["instance_p50_ms"] = {"value": 1e3 * statistics.median(times),
                                    "unit": "ms", "n": len(times)}
        extra["instance_p90_ms"] = {"value": 1e3 * cuts[8], "unit": "ms",
                                    "n": len(times)}
    elif ok:
        extra["raw_wall_s"] = summarize([u["raw_wall_s"] for u in ok], "s")
        extra["stolen_share"] = summarize([u["stolen_share"] for u in ok], "ratio")
    if ok and name == "verify-campaign":
        extra["instances_per_s"] = {
            "value": len(VERIFY_CHECKS) * wl.VERIFY_COUNT / statistics.median(u["wall_s"] for u in ok),
            "unit": "1/s", "n": len(ok)}
    if ok and wl.KIND[name] == wl.CLI:
        extra["output_bytes"] = {"value": ok[0]["output_bytes"], "unit": "bytes",
                                 "n": len(ok)}
    return metrics, extra


def per_layer(run: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced units, and any work count that differed."""
    traced = [u for u in run["traced"] if not u["errors"]]
    plain = [u for u in run["plain"] if not u["errors"]]
    metrics: dict = {}
    problems = []
    if not traced or not plain:
        return metrics, ["no successful traced/untraced pair"]
    for span, name in SPAN_METRICS.items():
        metrics[name] = summarize([u["layers"].get(span, 0.0) for u in traced], "s")
    counts = [dict(u["counts"], **{"cli.output_bytes": u.get("output_bytes", 0)})
              for u in traced]
    for name in COUNT_METRICS:
        seen = {c.get(name, 0) for c in counts}
        if len(seen) > 1:
            problems.append(f"work count {name} differs between traced units: {sorted(seen)}")
        metrics[name] = {"value": counts[0].get(name, 0), "unit": "count",
                         "n": len(counts)}
    metrics["cli.output_bytes"]["unit"] = "bytes"
    traced_wall = statistics.median(u["wall_s"] for u in traced)
    plain_wall = statistics.median(u["wall_s"] for u in plain)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s", "n": len(traced)}
    metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s", "n": len(plain)}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s",
                                   "n": min(len(traced), len(plain))}
    return metrics, problems


# -- main -----------------------------------------------------------------------------


def preflight() -> None:
    if not (SRC / "diophlab" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}/diophlab; run from a checkout")
    if os.environ.get("DIOPHLAB_CELL_CAP"):
        raise BenchError("DIOPHLAB_CELL_CAP is set; the workloads assume the default cap")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.KIND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    try:
        preflight()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, started + HARD_LIMIT_S)
    before = system_snapshot()
    try:
        run = (traced_run if args.trace else timed_run)(
            args.workload, args.seconds, runner)
    except Timeout:
        print(f"perfbench: a child ran past {HARD_LIMIT_S:.0f} s; see {workdir}",
              file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    after = system_snapshot()

    errors = [e for u in run["units"] for e in u["errors"]]
    if args.trace:
        metrics, problems = per_layer(run)
        errors += problems
        extra = {}
    else:
        metrics, extra = end_to_end(args.workload, run)
    failed = sum(1 for u in run["units"] if u["errors"])
    wanted = PER_LAYER if args.trace else list(END_TO_END)
    correct = not errors and all(k in metrics for k in wanted)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "system_before": before, "system_after": after,
              "steal_share": steal.stolen_share(before["jiffies"], after["jiffies"]),
              "correct": correct, "errors": errors, "metrics": metrics,
              "other_metrics": extra, "units": run["units"]}
    if not args.trace:
        record["setup_samples_s"] = run["setup_s"]
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {len(run['units'])}  failed {failed}  "
          f"steal {record['steal_share']}  load {after['loadavg']}")
    for key, m in {**metrics, **extra}.items():
        quartiles = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if "q1" in m else ""
        v = m["value"]
        shown = f"{v:>14d}" if isinstance(v, int) else f"{v:>14.6g}"
        print(f"  {key:42s} {shown} {m['unit']:6s} n={m['n']}{quartiles}")
    for err in errors:
        print(f"  ERROR {err}")
    print(json.dumps({"correct": correct, "attempted": len(run["units"]),
                      "failed": failed,
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
