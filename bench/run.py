"""Benchmark of cxlab's verdicts.

    python3 bench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from src/.
Each run starts the workload in a fresh single-threaded interpreter
(worker.py) and, with --trace 0, times set-up over several more fresh
starts.  The last stdout line is {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1, named and with units as in BENCHMARK.json.  A copy with run details goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 5        # timed fresh starts per run, after one untimed warm-up
CHILD_TIMEOUT_S = 170


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"         # set and dict orders repeat run to run
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, env: dict, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start worker.py; return it and the seconds until it printed READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.toy:
        cmd.append("--toy")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line!r}")
    return proc, ready


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="tiny rounds, for the self-test only")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = Path.cwd() / "src"
    if not (src / "cxlab" / "__init__.py").is_file():
        print(f"error: no cxlab sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = child_env(src)

    setup = []
    try:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        if not args.trace:
            for i in range(SETUP_STARTS + 1):
                proc, ready = start_worker(args, env, "--setup-only")
                finish(proc)
                if i:           # the first start writes the bytecode caches
                    setup.append(ready)
        proc, ready = start_worker(args, env)
        setup.append(ready)
        result = json.loads(finish(proc).splitlines()[-1])
        values = result["values"]
        if not args.trace:
            values["setup_s"] = statistics.median(setup)
        result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                             for m in spec["per_layer" if args.trace else "end_to_end"]}
    except (RuntimeError, OSError, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1

    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    rounds = len(result["round_walls_s"])
    detail = {**vars(args), "round_ops": result["round_ops"],
              "round_walls_s": result["round_walls_s"], "setup_samples_s": setup, **final}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of "
          f"{result['round_ops']} operations, {result['attempted']} latency samples, "
          f"{result['failed']} failed", file=sys.stderr)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
