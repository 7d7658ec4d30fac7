"""Write pinned.json, the expected output of every workload, from ./src.

    python3 perfbench/pin.py

Run it only for a change that is meant to alter outputs; the diff of
pinned.json then shows what changed.  CLI outputs are produced through
diophlab.cli.main in this process, which writes the same bytes as the
`diophlab` command.
"""

from __future__ import annotations

import json
import sys

import workloads as wl

ROOT = wl.HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    from diophlab import cli
    work = ROOT / ".bench_out" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    pins = {}
    for name in ("set-json-1e6", "verify-campaign"):
        out = work / f"{name}.json"
        if cli.main(wl.cli_args(name, str(out))) != 0:
            print(f"{name} failed", file=sys.stderr)
            return 1
        pins[name] = {"sha256": wl.sha256_file(str(out))}
        out.unlink()
    pins["ratio-stream"] = {"ratios": [
        wl.ratio_instance(p, delta)
        for p, delta in wl.ratio_stream_params(wl.RATIO_INSTANCES)]}
    pins["boxdim-stream"] = {"counts": wl.boxdim_counts()}
    # one line per ratio row keeps the file short and its diffs readable
    rows = ",\n  ".join(json.dumps(r) for r in pins["ratio-stream"]["ratios"])
    pins["ratio-stream"]["ratios"] = "@ROWS@"
    text = json.dumps(pins, indent=1).replace('"@ROWS@"', f"[\n  {rows}\n ]")
    wl.PINNED_FILE.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
