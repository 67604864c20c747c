#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload deform

runs `perfbench/run.py --trace 0` once for each of the seeds 1-10, one run
at a time, and prints each run's metrics and duration.  Then it prints, per
end-to-end metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to a third of the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list] = {}
    for seed in SEEDS:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=600).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed jobs", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({time.perf_counter() - start:.0f} s): " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{metric['name']:14s} median {med:.5g} {metric['unit']:8s} spread {spread:.4f}"
              f"  (bound/3 {metric['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
