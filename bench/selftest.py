"""Self-test of the benchmark at toy sizes.

    python3 bench/selftest.py        (from the root of a source checkout)

Checks the output schema of run.py on every workload with and without
tracing, that run.py refuses to run without the program's sources, that
every correctness check rejects a perturbed output, and that the tracer
replaces and restores every binding and counts the same work each round.
Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        FAILURES.append(what)
        print(f"FAIL {what}", flush=True)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_schema() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            tag = f"{workload} trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit code {proc.returncode}: {proc.stderr}")
            if proc.returncode:
                continue
            out = json.loads(proc.stdout.splitlines()[-1])
            expect(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys")
            expect(out["correct"] is True, f"{tag}: correct is {out['correct']}")
            expect(type(out["attempted"]) is int and out["attempted"] >= 1, f"{tag}: attempted")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: m["unit"] for k, m in out["metrics"].items()}
            expect(got == want, f"{tag}: metrics {sorted(got)} != {sorted(want)}")
            expect(all(type(m["value"]) in (int, float) for m in out["metrics"].values()),
                   f"{tag}: non-numeric value")
            ops = len(workloads.build_ops(workload, 3, toy=True))
            known = len(workloads.KNOWN_FALSE_INTER) if workload.startswith("verify") else 0
            expect(out["attempted"] % ops == 0 and out["failed"] * ops == known * out["attempted"],
                   f"{tag}: failed {out['failed']} of {out['attempted']}, want {known} per round")


def test_refuses_without_sources() -> None:
    bare = HERE / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "bench")
    try:
        proc = run_bench("constructions", 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py without sources must fail and print no result")
    finally:
        shutil.rmtree(bare)


def _bump(s: str) -> str:
    return str(Fraction(s) + Fraction(1, 10 ** 9))


def _scale(x: float) -> float:
    return x * (1 + 1e-6)


def _negate_last(xs: list) -> list:
    return xs[:-1] + [-1e-3]


def _ratio_above_one(o: dict) -> None:
    o["lhs"] = o["rhs"] * 1.01
    o["ratio"] = o["params"]["best_fast_ratio"] = 1.01


# perturbations per command kind: (description, in-place edit of the parsed output)
PERTURB = {
    ("cex", "direct"): [("lhs", lambda o: o.update(lhs=_bump(o["lhs"]))),
                        ("holds", lambda o: o.update(holds=not o["holds"]))],
    ("cex", "increasing"): [("lhs", lambda o: o.update(lhs=_bump(o["lhs"]))),
                            ("rhs", lambda o: o.update(rhs=o["rhs"] + 1))],
    ("cex", "p-less-2"): [("lhs", lambda o: o.update(lhs=_scale(o["lhs"]))),
                          ("rhs", lambda o: o.update(rhs=_scale(o["rhs"]))),
                          ("holds", lambda o: o.update(holds=True))],
    ("cex", "new23"): [("ones total", lambda o: o["ones"].update(
                           total_ifp_g=_scale(o["ones"]["total_ifp_g"])
                           if isinstance(o["ones"]["total_ifp_g"], float)
                           else _bump(o["ones"]["total_ifp_g"]))),
                       ("argmax", lambda o: o["halving"].update(boundary_argmax_ok=False))],
    ("cex", "search-new23"): [("ratio", lambda o: o.update(ratio=_scale(o["ratio"]))),
                              ("p <= 2 bound", _ratio_above_one)],
    ("capacity", "--n"): [("rho", lambda o: o.update(rho=[_scale(o["rho"][0])] + o["rho"][1:])),
                          ("rho >= 0", lambda o: o.update(rho=_negate_last(o["rho"]))),
                          ("cap", lambda o: o.update(cap=_scale(o["cap"]))),
                          ("delta", lambda o: o["d2"].update(delta=_bump(o["d2"]["delta"]))),
                          ("potential", lambda o: o["lemma_g"]["values"].__setitem__(
                              0, _bump(o["lemma_g"]["values"][0])))],
    ("report", "d2"): [("cap", lambda o: o["table"][0].update(cap=_scale(o["table"][0]["cap"]))),
                       ("lambda", lambda o: o["table"][1].update(
                           **{"lambda": _bump(o["table"][1]["lambda"])}))],
}
ORACLE = [("bruteforce", lambda o: o["oracle"].update(
              bruteforce=_bump(o["oracle"]["bruteforce"]))),
          ("qp", lambda o: o["oracle"].update(qp=o["oracle"]["qp"] * 1.001))]


def test_checks_reject_perturbed_outputs() -> None:
    for op in workloads.build_ops("constructions", 3, toy=True):
        rc, text = op.run()
        expect(op.check((rc, text)) is None, f"{op.label}: real output rejected")
        expect(op.check((1, text)) is not None, f"{op.label}: exit code 1 accepted")
        argv = op.label.split()
        cases = list(PERTURB[tuple(argv[:2])])
        if "--oracle" in argv:
            cases += ORACLE
        if argv[0] == "capacity" and "--no-symmetry" in argv:
            cases = cases[:3]           # its d2 row and potentials are the symmetric ones
        if argv[1] == "search-new23" and float(argv[argv.index("--p") + 1]) > 2:
            cases = cases[:1]           # the ratio bound holds only for p <= 2
        for what, edit in cases:
            out = copy.deepcopy(json.loads(text))
            edit(out)
            expect(op.check((0, json.dumps(out))) is not None,
                   f"{op.label}: perturbed {what} accepted")

    for mode in ("exact", "float"):
        for op in workloads.build_ops(f"verify-{mode}", 3, toy=True):
            reports = op.run()
            suite = op.label.split()[1]
            is_known = suite == "inter" and int(op.label.split("=")[1].split()[0]) in \
                workloads.KNOWN_FALSE_INTER
            verdict = op.check(reports)
            expect(verdict == (checks.KNOWN_FAILURE if is_known else None),
                   f"{op.label}: verdict {verdict!r}")
            r = copy.deepcopy(reports[0])
            if r.degenerate:
                continue
            r.holds = False
            why = checks.check_verify(r, suite)
            expect(why is not None, f"{op.label}: a violation was accepted")
            if suite == "inter":
                bound = r.params["delta"] * r.params["lambda"] * r.extra["sum_fp"]
                r.extra["sum_ifg_p"] = bound * 2 + 1
                expect(checks.check_verify(r, suite) not in (None, checks.KNOWN_FAILURE),
                       f"{op.label}: a true inter violation was taken for the known one")
            elif mode == "exact" and isinstance(r.lhs, Fraction):
                r.holds, r.lhs = True, r.rhs + 1
                expect(checks.check_verify(r, suite) is not None,
                       f"{op.label}: holds with lhs > rhs accepted")


def test_tracer() -> None:
    import inspect

    import cxlab
    from tracing import Tracer
    from worker import MODULES, Tally

    def bindings():
        return {(m.__name__, k): v for m in MODULES + (cxlab,)
                for k, v in vars(m).items() if inspect.isfunction(v)}

    before = bindings()
    tracer = Tracer(MODULES, cxlab)
    tracer.install()
    during = bindings()
    changed = {k for k in before if before[k] is not during[k]}
    for ns, name in [("cxlab.lemmas", "hardy_up_table"), ("cxlab.experiments", "verify_inter"),
                     ("cxlab.counterexamples", "hardy_up_table"), ("cxlab.hardy", "lcp_len"),
                     ("cxlab.capacity", "kernel"), ("cxlab.cli", "main")]:
        expect((ns, name) in changed, f"tracer left {ns}.{name} unwrapped")
    tracer.uninstall()
    expect(bindings() == before, "tracer did not restore every binding")

    real = workloads._cli_op(["cex", "direct", "--N", "5"],
                             lambda o: checks.check_cex_direct(o, 5, 2), "cex")
    tally = Tally()
    tally.run_round([workloads.Op("garbled", lambda: (0, "not json"), real.check, "cex")])
    expect(tally.failed == 1 and tally.unexpected,
           "an output its check cannot read was not counted as an unexpected failure")

    for workload in workloads.WORKLOADS:
        ops = workloads.build_ops(workload, 3, toy=True)
        counts = []
        for _ in range(2):
            tracer = Tracer(MODULES, cxlab)
            tracer.install()
            try:
                Tally().run_round(ops)
            finally:
                tracer.uninstall()
            counts.append((dict(tracer.calls), tracer.nodes, tracer.qp_iterations))
        expect(counts[0] == counts[1], f"{workload}: traced counts differ between rounds")


def main() -> int:
    if not (ROOT / "src" / "cxlab").is_dir():
        print("run from the root of a source checkout", file=sys.stderr)
        return 2
    for test in (test_checks_reject_perturbed_outputs, test_tracer,
                 test_refuses_without_sources, test_schema):
        test()
        print(f"{test.__name__}: done", flush=True)
    print("selftest:", "FAILED" if FAILURES else "ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
