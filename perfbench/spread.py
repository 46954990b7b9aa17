"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload curve-zoo --seeds 0 1 2 3 4 [--seconds 25]

Runs perfbench/run.py once per seed, one run at a time, and prints for
each end-to-end metric its median and the distance between the first and
third quartile as a share of the median, next to a third of the metric's
bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])

    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        print(f"{metric['name']}: median {median:.6g} spread {(q3 - q1) / median:.4f} "
              f"(a third of the bound: {metric['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
