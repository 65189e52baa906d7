"""The benchmark's workloads: seeded operation lists, how to run one
operation and how to check its output.

A workload is a fixed list of operations (one round).  The worker runs
whole rounds back to back, one client in a closed loop, and checks each
output outside the timed span.  See README.md for the make-up and the
reasons behind each list.  cxlab is imported inside the functions, so run.py
can load this module before it has found the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import checks

WORKLOADS = ("verify-exact", "verify-float", "constructions")

DEPTH = 8             # verify domain: the 8-level tree, 255 nodes
TRIALS = 300          # seeded trials per verify suite per round
POOL = 5000           # verify trial seeds are drawn from range(POOL)

# Trial seeds whose `inter` trial is an exact equality that verify_inter
# flags as a violation after comparing float p-th roots, in both modes:
# the only inter seeds in range(POOL) that fail.  They run as fixed
# operations in every round and are never drawn as seeded trials, so the
# share of failed operations is the same on every seed.  bench/screen.py
# recomputes the list.
KNOWN_FALSE_INTER = (773, 1447, 3087)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    layer: str = ""       # which per-layer count the output feeds


# ---------------------------------------------------------------------------
# verify-exact / verify-float
# ---------------------------------------------------------------------------

def _verify_op(experiments, suite: str, trial_seed: int, mode: str) -> Op:
    def run():
        return experiments.run_verify_suite(suite, trials=1, depth=DEPTH,
                                            seed=trial_seed, mode=mode)

    def check(reports):
        if len(reports) != 1:
            return f"verify {suite}: {len(reports)} reports for one trial"
        return checks.check_verify(reports[0], suite)

    return Op(f"verify {suite} seed={trial_seed} {mode}", run, check, "verify")


def verify_ops(seed: int, mode: str, trials: int = TRIALS) -> list[Op]:
    from cxlab import experiments

    rng = random.Random(f"bench:verify:{seed}")
    ops = []
    for suite in experiments.VERIFY_NAMES:
        pool = range(POOL)
        if suite == "inter":
            pool = [s for s in pool if s not in KNOWN_FALSE_INTER]
        ops += [_verify_op(experiments, suite, s, mode) for s in rng.sample(pool, trials)]
    ops += [_verify_op(experiments, "inter", s, mode) for s in KNOWN_FALSE_INTER]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# constructions: CLI commands run in-process
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """cxlab.cli.main(argv) with stdout captured; returns (exit code, text)."""
    from cxlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _cli_op(argv: list[str], check: Callable[[dict], Optional[str]], layer: str) -> Op:
    def run():
        return run_cli(argv)

    def check_output(result):
        rc, text = result
        if rc != 0:
            return f"{' '.join(argv)}: exit code {rc}"
        return check(json.loads(text))

    return Op(" ".join(argv), run, check_output, layer)


def _cex(which: str, check, **params) -> Op:
    argv = ["cex", which]
    for k, v in params.items():
        argv += [f"--{k}", str(v)]
    return _cli_op(argv, check, "cex")


def _direct(N, p):
    return _cex("direct", lambda o: checks.check_cex_direct(o, N, p), N=N, p=p)


def _increasing(N, p):
    return _cex("increasing", lambda o: checks.check_cex_increasing(o, N, p), N=N, p=p)


def _p_less_2(k, p):
    return _cex("p-less-2", lambda o: checks.check_cex_p_less_2(o, k, p), k=k, p=p)


def _new23(N, p):
    return _cex("new23", lambda o: checks.check_cex_new23(o, N, p), N=N, p=p)


def _search(p, budget, seed):
    return _cex("search-new23", lambda o: checks.check_search_new23(o, p),
                p=p, budget=budget, seed=seed)


def _capacity(n, *flags):
    argv = ["capacity", "--n", str(n), *flags]
    if "--oracle" in flags:
        return _cli_op(argv, lambda o: checks.check_oracle(o, n), "capacity")
    symmetric = "--no-symmetry" not in flags
    return _cli_op(argv, lambda o: checks.check_capacity(o, n, symmetric), "capacity")


def _report_d2():
    return _cli_op(["report", "d2"], lambda o: checks.check_report_d2(o, [16, 256]),
                   "capacity")


def constructions_ops(seed: int) -> list[Op]:
    """Tiers of fixed size whose costs do not overlap; the seed picks
    parameters inside each tier (N within a tier's range, p among values of
    like cost, search seeds) and the order.  The median falls in the middle
    of the ~10 ms tier of parameter-free capacity commands and the 90th
    percentile in the middle of the ~150 ms tier, so neither moves with the
    seed.  Costs are as measured on a 2-CPU machine."""
    rng = random.Random(f"bench:constructions:{seed}")
    jit = rng.randint
    ops = []
    # above the 90th percentile, 0.2 - 2 s each
    ops += [_capacity(65536) for _ in range(3)]
    ops += [_direct(jit(246, 250), 2), _direct(jit(196, 200), 2),
            _direct(jit(146, 150), 3), _p_less_2(7, rng.choice((1.2, 1.3, 1.4, 1.5)))]
    # the 90th-percentile tier, 120 - 180 ms
    ops += [_capacity(256, "--no-symmetry") for _ in range(8)]
    ops += [_new23(jit(990, 1000), rng.choice((3, 4, 5))) for _ in range(2)]
    ops += [_p_less_2(6, rng.choice((1.2, 1.3, 1.4)))]
    # between the tiers, 15 - 100 ms
    ops += [_search(rng.choice((1.25, 1.5, 1.75, 2, 3, 4)), jit(200, 300), jit(0, 10 ** 6))
            for _ in range(8)]
    ops += [_new23(jit(300, 500), rng.choice((2.5, 3, 4.5))) for _ in range(6)]
    ops += [_new23(jit(990, 1000), rng.choice((2.5, 3.5))) for _ in range(2)]
    ops += [_direct(jit(60, 90), 2) for _ in range(5)]
    ops += [_direct(jit(50, 70), 3) for _ in range(3)]
    ops += [_increasing(jit(900, 1000), rng.choice((3, 4))) for _ in range(4)]
    ops += [_p_less_2(5, rng.choice((1.2, 1.3, 1.4))) for _ in range(2)]
    # the median tier, 8 - 14 ms
    ops += [_capacity(256) for _ in range(12)]
    ops += [_report_d2() for _ in range(6)]
    ops += [_capacity(16, "--oracle") for _ in range(4)]
    ops += [_p_less_2(4, rng.choice((1.1, 1.2))) for _ in range(2)]
    # below the median, under 8 ms
    ops += [_capacity(4) for _ in range(8)]
    ops += [_capacity(16) for _ in range(8)]
    ops += [_increasing(jit(10, 150), rng.choice((2, 3, 4))) for _ in range(10)]
    ops += [_new23(jit(10, 60), rng.choice((2.5, 3, 4))) for _ in range(10)]
    ops += [_p_less_2(3, rng.choice((1.1, 1.2))) for _ in range(6)]
    ops += [_direct(jit(10, 20), rng.choice((2, 3, 4))) for _ in range(6)]
    rng.shuffle(ops)
    return ops


def toy_constructions_ops(seed: int) -> list[Op]:
    """One cheap command of each kind, for the self-test."""
    rng = random.Random(f"bench:toy:{seed}")
    return [_direct(rng.randint(10, 20), 2), _increasing(rng.randint(5, 50), 3),
            _p_less_2(3, 1.2), _new23(rng.randint(10, 30), 4), _new23(20, 2.5),
            _search(1.5, 20, seed), _search(4, 20, seed), _capacity(4), _capacity(16),
            _capacity(16, "--oracle"), _capacity(16, "--no-symmetry"), _report_d2()]


def build_ops(workload: str, seed: int, toy: bool = False) -> list[Op]:
    """The round for a workload; toy=True gives the self-test's small round."""
    if workload in ("verify-exact", "verify-float"):
        return verify_ops(seed, workload[len("verify-"):], 2 if toy else TRIALS)
    if workload == "constructions":
        return toy_constructions_ops(seed) if toy else constructions_ops(seed)
    raise ValueError(f"unknown workload {workload!r} (one of {WORKLOADS})")
