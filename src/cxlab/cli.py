"""Command-line front end.

Exit status encodes the expected outcome of each command (0 = everything
behaved as the theory predicts, 1 = an unexpected result, 2 = usage error
or an output that cannot be written, 3 = a resource bound was exceeded),
so a full reproduction run can be a single scripted invocation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys
from pathlib import Path

from .trees import PreconditionError, ResourceError
from .lemmas import EXACT, FLOAT, scalar_repr
from . import capacity as cap
from . import experiments

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _json_default(v):
    r = scalar_repr(v)
    if r is v:  # not a scalar the report layer knows
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    return r


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def _emit(payload: dict, out: str | None) -> None:
    text = _dumps(payload)
    if out:
        Path(out).write_text(text)
    print(text, end="")


def _write_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=sorted({k for r in rows for k in r}))
        writer.writeheader()
        writer.writerows({k: scalar_repr(v) for k, v in r.items()} for r in rows)


def _experiment(args) -> str:
    """The registry entry that a verify, cex or capacity command runs."""
    if args.command == "capacity":
        return "capacity"
    return args.which if args.which == "search-new23" else f"{args.command}-{args.which}"


# parsed arguments that name the command or its output files, not a parameter
_NOT_PARAMETERS = frozenset({"command", "which", "report_kind", "fn", "out", "csv"})


def _flags(args) -> dict:
    """Every given flag but the outputs; run_cell rejects a flag that is not
    a parameter of the experiment."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}


def _cmd_cell(args) -> int:
    name = _experiment(args)
    result = experiments.run_cell(name, _flags(args))
    _emit(result.payload, getattr(args, "out", None))
    return EXIT_OK if result.expected_ok else EXIT_UNEXPECTED


def _cmd_report(args) -> int:
    flags = _flags(args)
    sizes = flags.pop("n", None) or (16, 256)  # a list of sizes, not one n
    results = [experiments.run_cell("capacity", {**flags, "n": n}) for n in sizes]
    rows = [{**r["d2"], "converged": True} if r["converged"] else
            {"n": r["n"], "converged": False, "failed_check": r["failed_check"],
             "kkt_max_violation": r["kkt_max_violation"]}
            for r in (result.payload for result in results)]
    payload = {"table": rows}
    caps = [r["cap"] for r in rows if r.get("converged")]
    ratios = [float(r["delta_over_lambda"]) for r in rows if r.get("converged")]
    if len(caps) >= 2:
        payload["cap_spread"] = max(caps) / min(caps)
        payload["ratio_spread"] = max(ratios) / min(ratios)
    # the CSV is written first, so an unwritable path leaves stdout empty
    if getattr(args, "csv", None):
        _write_csv(args.csv, rows)
    _emit(payload, getattr(args, "out", None))
    return EXIT_OK if all(result.expected_ok for result in results) else EXIT_UNEXPECTED


def _cmd_run(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(config) - {"experiment", "grid", "out", "mode", "seed", "tol"})
    if unknown:
        raise ValueError(f"config has unknown key(s) {', '.join(map(repr, unknown))}")
    for key in ("experiment", "grid"):
        if key not in config:
            raise ValueError(f"config missing {key!r}")
    for key in ("experiment", "out"):
        if not isinstance(config.get(key, ""), str):
            raise ValueError(f"config {key!r} must be a string")
    experiment = config["experiment"]
    grid = config["grid"]
    if not (isinstance(grid, dict) and grid
            and all(isinstance(v, list) and v for v in grid.values())):
        raise ValueError("grid must map parameter names to nonempty lists")
    # a null shared key is left out; one the experiment does not take is a
    # usage error, as its flag is on the command line (no experiment takes tol)
    shared = {k: config[k] for k in ("mode", "seed", "tol") if config.get(k) is not None}
    keys = sorted(grid)
    cells = [dict(zip(keys, values)) for values in itertools.product(*(grid[k] for k in keys))]
    for cell in cells:  # reject a bad parameter before any cell runs
        experiments.cell_params(experiment, {**shared, **cell})
    out_dir = Path(config.get("out", "reports"))
    out_dir.mkdir(parents=True, exist_ok=True)

    rows, all_ok = [], True
    for cell in cells:
        result = experiments.run_cell(experiment, {**shared, **cell})
        all_ok = all_ok and result.expected_ok
        name = "-".join(f"{k}={cell[k]}" for k in keys)
        (out_dir / f"{experiment}-{name}.json").write_text(_dumps({
            "experiment": experiment, "cell": cell,
            "runtime_ms": result.runtime_ms, "expected_ok": result.expected_ok,
            "result": result.payload,
        }))
        rows.append({**cell, **result.row})
    _write_csv(out_dir / f"{experiment}.csv", rows)
    print(f"{experiment}: {len(rows)} cells, expected outcomes "
          f"{'all met' if all_ok else 'NOT met'}; reports in {out_dir}")
    return EXIT_OK if all_ok else EXIT_UNEXPECTED


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxlab",
        description="Verification laboratory for Carleson embedding lemmas "
                    "on dyadic trees and bi-trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag not given is left out, so the registry entry's default applies
    unset = {"argument_default": argparse.SUPPRESS}

    p_verify = sub.add_parser("verify", help="run a seeded property suite", **unset)
    p_verify.add_argument("which", choices=experiments.VERIFY_NAMES)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--depth", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--mode", choices=(EXACT, FLOAT))
    p_verify.add_argument("--out")
    p_verify.set_defaults(fn=_cmd_cell)

    p_cex = sub.add_parser("cex", help="generate a counterexample report", **unset)
    p_cex.add_argument("which", choices=(
        "p-less-2", "increasing", "direct", "new23", "search-new23"))
    p_cex.add_argument("--k", type=int)
    p_cex.add_argument("--N", type=int)
    p_cex.add_argument("--p", type=float)
    p_cex.add_argument("--depth", type=int)
    p_cex.add_argument("--budget", type=int)
    p_cex.add_argument("--seed", type=int)
    p_cex.add_argument("--out")
    p_cex.set_defaults(fn=_cmd_cell)

    p_cap = sub.add_parser("capacity", help="the certified capacity of F_n for one n", **unset)
    p_cap.add_argument("--n", type=int, required=True, choices=cap.ADMISSIBLE_N)
    p_cap.add_argument("--no-symmetry", action="store_true",
                       help="certify against the member-by-member kernel")
    p_cap.add_argument("--oracle", action="store_true",
                       help="cross-check against the exact brute-force oracle "
                            "on the j=1 subfamily")
    p_cap.add_argument("--out")
    p_cap.set_defaults(fn=_cmd_cell)

    p_rep = sub.add_parser("report", help="emit aggregate report tables")
    rep_sub = p_rep.add_subparsers(dest="report_kind", required=True)
    p_d2 = rep_sub.add_parser("d2", help="the capacity refutation table", **unset)
    p_d2.add_argument("--n", type=int, action="append", choices=cap.ADMISSIBLE_N,
                      help="instance sizes (default: 16 256)")
    p_d2.add_argument("--csv")
    p_d2.add_argument("--out")
    p_d2.set_defaults(fn=_cmd_report)

    p_run = sub.add_parser("run", help="run an experiment grid from a JSON config")
    p_run.add_argument("config")
    p_run.set_defaults(fn=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResourceError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED
    except (ValueError, OSError) as exc:  # OSError: an output path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
