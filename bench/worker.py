"""One workload in a fresh single-threaded process.

Started by run.py.  It imports cxlab, builds the round, prints READY (the
end of set-up), then runs whole rounds of operations back to back until
--seconds have passed, checking each output outside its timed span.  With
--trace 1 each round runs every operation untraced and traced back to back,
and the per-layer metrics are those of the traced runs.  The last stdout line
is one JSON object of metric values; run.py adds their units.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import cxlab
from cxlab import (capacity, cli, counterexamples, experiments, hardy, lemmas,
                   randgen, structure, trees)

import checks
import workloads
from tracing import Tracer

MODULES = (trees, hardy, structure, randgen, lemmas, experiments,
           counterexamples, capacity, cli)

# Per-layer metric keys; BENCHMARK.json holds their units.
_CALLS = ("trees.SparseFn", "trees.lcp_len", "hardy.kernel", "hardy.hardy_up_table")
_SELF_MS = (
    "trees.SparseFn", "trees.lcp_len", "hardy.kernel", "hardy.hardy_up_table",
    "structure.is_superadditive", "structure.is_increasing", "structure.special_form_g",
    "randgen", "experiments.run_verify_suite", "lemmas.build_phi",
    "lemmas.verify_supadditive_l1linf", "lemmas.verify_I2_positive", "lemmas.verify_inter",
    "lemmas.verify_linf", "lemmas.verify_new23", "lemmas.verify_gest",
    "counterexamples.sum_ifg_p_direct", "counterexamples.sum_gp_levels",
    "counterexamples.build_cex_p_less_2_functions", "counterexamples.gen_cex_p_less_2",
    "counterexamples.gen_cex_new23", "capacity.build_instance", "capacity.check_lemma_g",
    "capacity.capacity_qp_instance", "capacity.capacity_qp", "capacity.capacity_bruteforce",
    "capacity.report_d2", "cli.main",
)


SWITCH_NS = 1_000_000_000


class Tally:
    """Outcome counts and latencies over the rounds of one run.

    Between operations, once a second, the process moves to the next CPU it
    may use.  The speed of each CPU of a shared virtual machine drifts by up
    to 20% over seconds, independently of the other; taking turns averages
    the CPUs instead of riding one."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        self.next_switch = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.latencies_ns: list[int] = []
        self.round_walls: list[float] = []
        # output-derived per-layer counts, gathered in traced rounds
        self.verify_bits = 0
        self.cex_bits = 0
        self.stdout_bytes = 0

    def _turn(self) -> None:
        if time.perf_counter_ns() >= self.next_switch:
            self.turn += 1
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.next_switch = time.perf_counter_ns() + SWITCH_NS

    def _run_op(self, op, gather: bool = False) -> int:
        """Run, time and check one operation; return its duration in ns."""
        t0 = time.perf_counter_ns()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises has failed
            out, why = None, f"{op.label}: raised {exc!r}"
        else:
            why = None
        dt = time.perf_counter_ns() - t0
        self.latencies_ns.append(dt)
        self.attempted += 1
        if out is not None:
            try:
                why = op.check(out)
                if gather:
                    self._gather(op, out)
            except Exception as exc:  # output the check cannot read has failed
                why = f"{op.label}: check raised {exc!r}"
        if why is not None:
            self.failed += 1
            if why != checks.KNOWN_FAILURE:
                self.unexpected.append(why)
        return dt

    def run_round(self, ops) -> None:
        wall = 0
        for op in ops:
            self._turn()
            wall += self._run_op(op)
        self.round_walls.append(wall / 1e9)

    def run_paired_round(self, ops, tracer: Tracer) -> float:
        """Run each operation untraced and traced back to back, in turns of
        order, and return the round's traced minus untraced seconds.  Pairs
        this close cancel the machine's drift, which whole rounds do not."""
        plain = traced = 0
        for i, op in enumerate(ops):
            self._turn()
            if i % 2:
                plain += self._run_op(op)
            tracer.install()
            try:
                traced += self._run_op(op, gather=True)
            finally:
                tracer.uninstall()
            if not i % 2:
                plain += self._run_op(op)
        self.round_walls.append(traced / 1e9)
        return (traced - plain) / 1e9

    def _gather(self, op, out) -> None:
        if op.layer == "verify":
            r = out[0]
            self.verify_bits = max(self.verify_bits,
                                   checks.fraction_bits([r.lhs, r.rhs, r.params, r.extra]))
            return
        _, text = out
        self.stdout_bytes += len(text.encode())
        if op.layer == "cex":
            self.cex_bits = max(self.cex_bits, checks.fraction_bits(json.loads(text)))


def end_to_end(tally: Tally, round_ops: int) -> dict:
    """Each operation's time is the median of its times over the run's
    rounds: the machine's slow spells last seconds and hit a given operation
    in only some rounds.  wall_s is the sum of these times and the
    percentiles are taken over them, one sample per operation of a round."""
    op_ms = [statistics.median(tally.latencies_ns[i::round_ops]) / 1e6
             for i in range(round_ops)]
    q = statistics.quantiles(op_ms, n=100, method="inclusive")
    return {
        "wall_s": sum(op_ms) / 1e3,
        "op_p50_ms": q[49],
        "op_p90_ms": q[89],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_round(total: int, rounds: int):
    # counts repeat exactly from round to round, so this is a whole number
    return total // rounds if total % rounds == 0 else total / rounds


def per_layer(tracer: Tracer, tally: Tally, overheads: list[float]) -> dict:
    rounds = len(overheads)
    self_ns = dict(tracer.self_ns)
    self_ns["randgen"] = sum(v for k, v in self_ns.items() if k.startswith("randgen."))
    search_s = tracer.incl_ns.get("counterexamples.search_new23", 0) / 1e9
    out = {f"{k}.calls": _per_round(tracer.calls.get(k, 0), rounds) for k in _CALLS}
    out["hardy.hardy_up_table.nodes"] = _per_round(tracer.nodes, rounds)
    out.update({f"{k}.self_ms": self_ns.get(k, 0) / 1e6 / rounds for k in _SELF_MS})
    out["lemmas.fraction_bits_max"] = tally.verify_bits
    out["counterexamples.fraction_bits_max"] = tally.cex_bits
    out["counterexamples.search_new23.trials_per_s"] = (
        tracer.search_trials / search_s if search_s else 0.0)
    out["capacity.qp_iterations"] = _per_round(tracer.qp_iterations, rounds)
    out["cli.stdout_bytes"] = _per_round(tally.stdout_bytes, rounds)
    out["trace.overhead_s"] = statistics.median(overheads)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.build_ops(args.workload, args.seed, args.toy)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    start = time.perf_counter()
    if not args.trace:
        while True:
            tally.run_round(ops)
            if time.perf_counter() - start >= args.seconds:
                break
        values = end_to_end(tally, len(ops))
    else:
        tracer = Tracer(MODULES, cxlab)
        overheads = []
        while True:
            overheads.append(tally.run_paired_round(ops, tracer))
            if time.perf_counter() - start >= args.seconds:
                break
        values = per_layer(tracer, tally, overheads)
    for why in tally.unexpected[:5]:
        print(f"check failed: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "round_walls_s": tally.round_walls,
        "round_ops": len(ops),
        "values": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
