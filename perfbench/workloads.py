"""The four benchmark workloads: their inputs, their units and their output checks.

Why each workload exists (see README.md for the longer version):

  set-json-1e6     one large `diophlab set`; dominated by JSON encoding
  ratio-stream     many small-to-medium product sets and cover costs
  verify-campaign  the broad mix, the only real lattice work and thread pool
  boxdim-stream    the largest solve, streamed through `dimension`

Only ratio-stream and verify-campaign are in BENCHMARK.json.  On a
2-vCPU shared host the other two spread too much from run to run to
gate a change on (README.md, "Bounds and noise"); they stay runnable by
name for a change that targets their layers.

Importing this module does not import diophlab; the functions that run
library code import it when called, inside a worker process.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_FILE = HERE / "pinned.json"

CLI = "cli"          # unit is one `diophlab` process
INPROC = "inproc"    # unit is a library call inside a worker process

KIND = {
    "set-json-1e6": CLI,
    "ratio-stream": INPROC,
    "verify-campaign": CLI,
    "boxdim-stream": INPROC,
}

SET_ARGS = ["set", "--a", "3", "--b", "1000003", "--c", "0.3", "--d", "0.6",
            "--delta", "0.001"]
# count 20 keeps one unit near 7 s, so a run holds several units
VERIFY_COUNT = 20
VERIFY_ARGS = ["verify", "--seed", "42", "--count", str(VERIFY_COUNT),
               "--checks", "all", "--threads", "2"]

# the criterion-7 generator (tests/test_acceptance.py) and its first 60
# instances, about 5 s per pass.  Every pass visits them in stream order:
# the peak RSS of a pass depends on the order (allocator reuse), so a
# seed-dependent order would add noise and no coverage.
RATIO_SEED = 1007
RATIO_INSTANCES = 60
# pinned ratios must repeat to this relative tolerance; it allows a change
# of summation order in numpy, not a change of the computed set
RATIO_REL_TOL = 1e-9
S_VALUES = (0.3, 0.5, 0.7, 0.9)

BOXDIM_N = (8, 16)
BOXDIM_SCALES = [2.0 ** -k for k in range(6, 17)]


def pinned() -> dict:
    """Expected outputs, written by pin.py from the program as it stood."""
    return json.loads(PINNED_FILE.read_text())


def cli_args(name: str, out: str) -> list[str]:
    """Arguments after `python -m diophlab.cli` for one unit of a CLI workload."""
    return (SET_ARGS if name == "set-json-1e6" else VERIFY_ARGS) + ["--out", out]


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_cli_output(name: str, out: str) -> str | None:
    """None when the output file has its pinned digest, else the reason."""
    try:
        digest = sha256_file(out)
    except OSError as exc:
        return f"no output: {exc}"
    want = pinned()[name]["sha256"]
    return None if digest == want else f"sha256 {digest} != pinned {want}"


# -- ratio-stream ---------------------------------------------------------------


def ratio_stream_params(count: int):
    """The first `count` instances (FracParams, delta) of the criterion-7 stream."""
    import numpy as np
    from diophlab.approx_sets import FracParams
    rng = np.random.default_rng(RATIO_SEED)
    out = []
    for _ in range(count):
        a = float(rng.uniform(1, 100))
        b = float(np.exp(rng.uniform(np.log(a), np.log(1e6))))
        p = FracParams(a, max(b, a), float(rng.uniform(-2, 2)),
                       float(rng.uniform(-2, 2)))
        delta = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5))))
        out.append((p, delta))
    return out


def ratio_instance(p, delta) -> list[float]:
    """Measure ratio, then the premeasure ratio at each s, for one instance.

    Functions are looked up on their modules at call time, so the traced
    run sees the wrapped versions.
    """
    from diophlab import approx_sets, intervals
    measure = (intervals.lebesgue(approx_sets.product_set(p, delta))
               / approx_sets.measure_bound(p, delta))
    cost = approx_sets.product_set_cover_cost(p, delta)
    return [measure] + [cost.premeasure(s) / approx_sets.premeasure_bound(p, delta, s)
                        for s in S_VALUES]


def check_ratios(got: list[list[float]]) -> str | None:
    """None when every instance's ratios match the pinned ones, else the first miss."""
    want = pinned()["ratio-stream"]["ratios"]
    if len(got) != len(want):
        return f"{len(got)} instances, pinned {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if len(g) != len(w) or not all(
                math.isclose(x, y, rel_tol=RATIO_REL_TOL, abs_tol=0.0)
                for x, y in zip(g, w)):
            return f"instance {i}: ratios {g} != pinned {w}"
    return None


# -- boxdim-stream --------------------------------------------------------------


def boxdim_counts(n_lo: int = BOXDIM_N[0], n_hi: int = BOXDIM_N[1]) -> list[int]:
    from diophlab import dimension
    from diophlab.sequences import PsiSpec, SequenceSpec
    seq = SequenceSpec(kind="exponential", a=2, b=3)
    psi = PsiSpec(kind="scaled-base", t=1.0, seq=seq)
    est = dimension.estimate_box_dimension(seq, psi, n_lo, n_hi, BOXDIM_SCALES)
    return list(est.counts)


def check_boxdim(counts: list[int]) -> str | None:
    want = pinned()["boxdim-stream"]["counts"]
    return None if counts == want else f"box counts {counts} != pinned {want}"
