"""Run a workload on several seeds and print each metric's spread.

    python3 bench/spread.py --workload constructions --seeds 1-10

Every run is untraced and lasts run_seconds of BENCHMARK.json, as the
benchmark's bounds assume.

Spread is the distance between the first and third quartiles of the values,
as statistics.quantiles(values, n=4) gives them, as a share of their median.
Also prints the share of failed operations per run, which must not vary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="a range lo-hi, inclusive")
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.splitlines()[-1])
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        row = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed/attempted="
              f"{result['failed']}/{result['attempted']} {row}", flush=True)
    for k, v in values.items():
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{k}: median {med:.6g} spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
