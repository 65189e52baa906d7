"""Command-line front end.

Exit status encodes the expected outcome of each command (0 = everything
behaved as the theory predicts, 1 = an unexpected result, 2 = usage error,
3 = a resource bound was exceeded), so a full reproduction run can be a
single scripted invocation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .trees import EXACT, FLOAT, PreconditionError, ResourceError
from .lemmas import scalar_repr
from . import capacity as cap
from . import counterexamples as cex
from . import experiments

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _json_default(v):
    r = scalar_repr(v)
    if r is v:  # not a scalar the report layer knows; try plain casts
        try:
            return float(v)
        except (TypeError, ValueError):
            return str(v)
    return r


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _cmd_verify(args) -> int:
    reports = experiments.run_verify_suite(
        args.which, trials=args.trials, depth=args.depth, seed=args.seed,
        mode=args.mode)
    failures = experiments.suite_failures(reports)
    payload = {
        "suite": args.which, "trials": len(reports), "failures": len(failures),
        "params": {"depth": args.depth, "seed": args.seed, "mode": args.mode},
        "reports": [r.to_dict() for r in (failures or reports[:1])],
    }
    _emit(payload, args.out)
    return EXIT_OK if not failures else EXIT_UNEXPECTED


def _cmd_cex(args) -> int:
    which = args.which
    if which == "p-less-2":
        _, report = cex.gen_cex_p_less_2(args.k, args.p, seed=args.seed)
        ok = float(report.lhs) >= float(report.extra["lower_bound"])
        _emit(report.to_dict(), args.out)
        return EXIT_OK if ok else EXIT_UNEXPECTED
    if which == "increasing":
        _, report = cex.gen_cex_increasing(args.N, args.p, seed=args.seed)
        _emit(report.to_dict(), args.out)
        return EXIT_OK
    if which == "direct":
        _, report = cex.gen_cex_direct(args.N, args.p, seed=args.seed)
        _emit(report.to_dict(), args.out)
        return EXIT_OK
    if which == "new23":
        audits = cex.gen_cex_new23(args.N, args.p, seed=args.seed)
        _emit({k: a.to_dict() for k, a in audits.items()}, args.out)
        ok = all(a.boundary_argmax_ok for a in audits.values())
        return EXIT_OK if ok else EXIT_UNEXPECTED
    if which == "search-new23":
        report = cex.search_new23(args.p, args.depth, args.budget, args.seed)
        _emit(report.to_dict(), args.out)
        if args.p <= 2 and report.ratio is not None:
            return EXIT_OK if float(report.ratio) <= 1 + 1e-9 else EXIT_UNEXPECTED
        return EXIT_OK
    raise ValueError(which)


def _cmd_capacity(args) -> int:
    if args.oracle and args.n.bit_length() > 12:  # the j = 1 subfamily has s + 1 members
        raise ResourceError("oracle comparison limited to families of 12")
    inst = cap.build_instance(args.n)
    eq = cap.capacity_qp_instance(
        inst, tol=args.tol, max_iters=args.max_iters,
        use_symmetry=not args.no_symmetry)
    lemma = cap.check_lemma_g(inst)
    payload = {
        "n": args.n,
        "lemma_g": lemma,
        "converged": eq.converged,
        "kkt_max_violation": eq.kkt_max_violation,
        "iterations": eq.iterations,
        "cap": eq.cap,
        "rho": list(eq.rho),
    }
    ok = eq.converged
    if eq.converged:
        payload["d2"] = cap.report_d2(inst, eq)
    if args.oracle:
        family = inst.family[: inst.s + 1]
        exact = cap.capacity_bruteforce(family)
        approx = cap.capacity_qp(family, tol=args.tol, max_iters=args.max_iters)
        rel = abs(approx.cap - float(exact)) / float(exact)
        payload["oracle"] = {"bruteforce": exact, "qp": approx.cap, "rel_error": rel}
        ok = ok and rel <= 1e-6
    _emit(payload, args.out)
    return EXIT_OK if ok else EXIT_UNEXPECTED


def _cmd_report(args) -> int:
    rows = []
    ok = True
    for n in args.n:
        inst = cap.build_instance(n)
        eq = cap.capacity_qp_instance(inst, tol=args.tol, max_iters=args.max_iters)
        ok = ok and eq.converged
        if not eq.converged:
            rows.append({"n": n, "converged": False,
                         "kkt_max_violation": eq.kkt_max_violation})
            continue
        row = cap.report_d2(inst, eq)
        row["converged"] = True
        rows.append(row)
    payload = {"table": rows}
    caps = [r["cap"] for r in rows if r.get("converged")]
    ratios = [float(r["delta_over_lambda"]) for r in rows if r.get("converged")]
    if len(caps) >= 2:
        payload["cap_spread"] = max(caps) / min(caps)
        payload["ratio_spread"] = max(ratios) / min(ratios)
    _emit(payload, args.out)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=sorted({k for r in rows for k in r}))
            writer.writeheader()
            for r in rows:
                writer.writerow({k: scalar_repr(v) for k, v in r.items()})
    return EXIT_OK if ok else EXIT_UNEXPECTED


def _iter_grid(grid: dict):
    keys = sorted(grid)
    def rec(i, acc):
        if i == len(keys):
            yield dict(acc)
            return
        k = keys[i]
        for v in grid[k]:
            acc[k] = v
            yield from rec(i + 1, acc)
    yield from rec(0, {})


def _cmd_run(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for key in ("experiment", "grid"):
        if key not in config:
            print(f"error: config missing {key!r}", file=sys.stderr)
            return EXIT_USAGE
    experiment = config["experiment"]
    grid = config["grid"]
    if not grid or any(not v for v in grid.values()):
        print("error: grid must be nonempty", file=sys.stderr)
        return EXIT_USAGE
    mode = config.get("mode", EXACT)
    if mode not in (EXACT, FLOAT):
        print(f"error: invalid mode {mode!r}", file=sys.stderr)
        return EXIT_USAGE
    seed = int(config.get("seed", 0))
    tol = config.get("tol")
    out_dir = Path(config.get("out", "reports"))
    out_dir.mkdir(parents=True, exist_ok=True)

    rows, all_ok = [], True
    for i, params in enumerate(_iter_grid(grid)):
        result = experiments.run_cell(experiment, params, mode, seed, tol)
        all_ok = all_ok and result.expected_ok
        cell_payload = {
            "experiment": experiment, "cell": params,
            "runtime_ms": result.runtime_ms, "expected_ok": result.expected_ok,
            "result": result.payload,
        }
        name = "-".join(f"{k}={params[k]}" for k in sorted(params)) or f"cell{i}"
        (out_dir / f"{experiment}-{name}.json").write_text(
            json.dumps(cell_payload, indent=2, sort_keys=True, default=_json_default) + "\n")
        rows.append(result.row)
    fieldnames = sorted({k for r in rows for k in r})
    with open(out_dir / f"{experiment}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
    print(f"{experiment}: {len(rows)} cells, expected outcomes "
          f"{'all met' if all_ok else 'NOT met'}; reports in {out_dir}")
    return EXIT_OK if all_ok else EXIT_UNEXPECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxlab",
        description="Verification laboratory for Carleson embedding lemmas "
                    "on dyadic trees and bi-trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a seeded property suite")
    p_verify.add_argument("which", choices=experiments.VERIFY_NAMES)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--depth", type=int, default=8)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    p_verify.add_argument("--out")
    p_verify.set_defaults(fn=_cmd_verify)

    p_cex = sub.add_parser("cex", help="generate a counterexample report")
    p_cex.add_argument("which", choices=(
        "p-less-2", "increasing", "direct", "new23", "search-new23"))
    p_cex.add_argument("--k", type=int, default=4)
    p_cex.add_argument("--N", type=int, default=10)
    p_cex.add_argument("--p", type=float, default=2.0)
    p_cex.add_argument("--depth", type=int, default=10)
    p_cex.add_argument("--budget", type=int, default=1000)
    p_cex.add_argument("--seed", type=int, default=0)
    p_cex.add_argument("--out")
    p_cex.set_defaults(fn=_cmd_cex)

    p_cap = sub.add_parser("capacity", help="solve the capacity QP for one n")
    p_cap.add_argument("--n", type=int, required=True, choices=cap.ADMISSIBLE_N)
    p_cap.add_argument("--tol", type=float, default=1e-10)
    p_cap.add_argument("--max-iters", type=int, default=200000)
    p_cap.add_argument("--no-symmetry", action="store_true")
    p_cap.add_argument("--oracle", action="store_true",
                       help="cross-check against the exact brute-force oracle "
                            "on the j=1 subfamily")
    p_cap.add_argument("--out")
    p_cap.set_defaults(fn=_cmd_capacity)

    p_rep = sub.add_parser("report", help="emit aggregate report tables")
    rep_sub = p_rep.add_subparsers(dest="report_kind", required=True)
    p_d2 = rep_sub.add_parser("d2", help="the capacity refutation table")
    p_d2.add_argument("--n", type=int, action="append", choices=cap.ADMISSIBLE_N,
                      help="instance sizes (default: 16 256)")
    p_d2.add_argument("--tol", type=float, default=1e-10)
    p_d2.add_argument("--max-iters", type=int, default=200000)
    p_d2.add_argument("--csv")
    p_d2.add_argument("--out")
    p_d2.set_defaults(fn=_cmd_report)

    p_run = sub.add_parser("run", help="run an experiment grid from a JSON config")
    p_run.add_argument("config")
    p_run.set_defaults(fn=_cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "cex":
        # integer p stays exact
        if args.p == int(args.p):
            args.p = int(args.p)
    if getattr(args, "report_kind", None) == "d2" and not args.n:
        args.n = [16, 256]
    try:
        return args.fn(args)
    except ResourceError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
