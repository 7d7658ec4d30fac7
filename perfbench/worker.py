"""One unit of a workload, run inside this process.

    python3 perfbench/worker.py WORKLOAD MODE OUT RESULT

MODE is `setup` (import and warm up, then exit), `plain` (run one unit),
`traced` (run one unit with every layer wrapped by spans.install) or
`passes:S` (ratio-stream only: passes for about S seconds, at least two).  CLI
workloads run `diophlab.cli.main(argv)` in-process here; run.py uses that
only for the traced run and its untraced twin, and times real `diophlab`
processes otherwise.  The result is written as JSON to RESULT:

  ready_at   time.monotonic() when import and warm-up finished, so the
             parent can time set-up from the moment it spawned us;
             ready_jiffies the /proc/stat reading at that moment
  wall_s     wall time of the unit less host steal (see steal.py),
             raw_wall_s as measured, cpu_s its user+system CPU time
  instance_s per-instance wall times (ratio-stream); in `passes:S` mode
             one list per pass, with instance_cpu_s alongside,
             pass_stolen_share each pass's share of host steal, and
             first_pass_rss_mb the peak RSS up to the end of the first pass
  errors     output checks that failed, checked after timing
  output_bytes  size of the file a CLI unit wrote
  layers     self time per span name, counts: work counters (traced only)

PYTHONPATH must name the checkout's src directory.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import spans
import steal
import workloads as wl


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _passes(params, seconds: float) -> dict:
    """ratio-stream passes while the next one is expected to end within `seconds`.

    At least two passes run.  Instances are timed one by one, in wall and
    in CPU time, and every pass is checked.
    """
    walls, cpus, stolen, errors = [], [], [], []
    rss = None
    t0 = time.perf_counter()
    while len(walls) < 2 or (time.perf_counter() - t0) * (len(walls) + 1) / len(walls) <= seconds:
        ratios, wall, cpu = [], [], []
        jiffies = steal.jiffies()
        for p, delta in params:
            c0, t1 = _cpu(), time.perf_counter()
            ratios.append(wl.ratio_instance(p, delta))
            wall.append(time.perf_counter() - t1)
            cpu.append(_cpu() - c0)
        stolen.append(steal.stolen_share(jiffies, steal.jiffies()))
        if rss is None:
            rss = _rss_mb()
        walls.append(wall)
        cpus.append(cpu)
        err = wl.check_ratios(ratios)
        if err:
            errors.append(f"pass {len(walls)}: {err}")
    return {"instance_s": walls, "instance_cpu_s": cpus, "pass_stolen_share": stolen,
            "first_pass_rss_mb": rss, "errors": errors}


def _prepare(name: str, mode: str):
    """Import the program and, for worker workloads, warm it up on the first instance.

    Returns the unit function.  Inputs are built here, so that generating
    them stays outside the timed region.
    """
    if wl.KIND[name] == wl.CLI:
        from diophlab import cli

        def unit(out):
            rc = cli.main(wl.cli_args(name, out))
            return {"errors": [] if rc == 0 else [f"exit code {rc}"],
                    "output_bytes": os.path.getsize(out) if rc == 0 else 0}
        return unit

    if name == "ratio-stream":
        params = wl.ratio_stream_params(wl.RATIO_INSTANCES)
        wl.ratio_instance(*params[0])
        if mode.startswith("passes:"):
            seconds = float(mode.split(":", 1)[1])
            return lambda out: _passes(params, seconds)

        def unit(out):
            ratios, times = [], []
            for p, delta in params:
                t0 = time.perf_counter()
                ratios.append(wl.ratio_instance(p, delta))
                times.append(time.perf_counter() - t0)
            return {"instance_s": times, "ratios": ratios}
        return unit

    wl.boxdim_counts(wl.BOXDIM_N[0], wl.BOXDIM_N[0])

    def unit(out):
        return {"counts": wl.boxdim_counts()}
    return unit


def _check(name: str, body: dict, out: str) -> list[str]:
    errors = list(body.pop("errors", []))
    if wl.KIND[name] == wl.CLI:
        err = wl.check_cli_output(name, out)
    elif name == "ratio-stream":
        err = wl.check_ratios(body.pop("ratios")) if "ratios" in body else None
    else:
        err = wl.check_boxdim(body["counts"])
    return errors + ([err] if err else [])


def main(argv: list[str]) -> int:
    name, mode, out, result_path = argv
    unit = _prepare(name, mode)
    result: dict = {"ready_at": time.monotonic(), "ready_jiffies": steal.jiffies()}
    if mode != "setup":
        tracer = spans.Tracer() if mode == "traced" else None
        restore = spans.install(tracer) if tracer else None
        try:
            jiffies, cpu0, t0 = steal.jiffies(), _cpu(), time.perf_counter()
            token = tracer.begin() if tracer else None
            body = unit(out)
            if tracer:
                tracer.end(spans.ROOT, token)
            result["raw_wall_s"] = time.perf_counter() - t0
            result["cpu_s"] = _cpu() - cpu0
            result["stolen_share"] = steal.stolen_share(jiffies, steal.jiffies())
            result["wall_s"] = result["raw_wall_s"] * (1.0 - result["stolen_share"])
        finally:
            if restore:
                restore()
        result["errors"] = _check(name, body, out)
        result.update(body)
        if tracer:
            result["layers"] = tracer.self_times()
            result["counts"] = dict(tracer.counts)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
