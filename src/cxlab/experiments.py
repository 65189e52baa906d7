"""Seeded experiment drivers shared by the CLI and the test suite.

Each verify suite draws instances from the generators in randgen, runs one
lemma verifier per trial, and returns the reports; a suite "passes" when
every non-degenerate report holds.  Counterexample and capacity experiments
are wrapped with the expected-outcome flag used for exit-status semantics.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .trees import EXACT, SparseFn, TreeDomain
from .structure import ExponentPair, special_form_g
from .lemmas import (
    LemmaReport,
    build_phi,
    verify_I2_positive,
    verify_gest,
    verify_inter,
    verify_linf,
    verify_new23,
    verify_supadditive_l1linf,
)
from . import randgen
from . import counterexamples as cex
from . import capacity as cap

VERIFY_NAMES = ("l1linf", "i2pos", "phi", "inter", "linf", "new23", "gest")
_NEW23_PS = (1, 1.5, 2)


def _pick(rng: random.Random, items):
    items = sorted(items, key=str)
    return items[rng.randrange(len(items))]


def _trial_l1linf(rng, d, mode, seed) -> LemmaReport:
    g = randgen.random_superadditive(rng, d, mode=mode)
    h = randgen.random_sparse(rng, d, mode=mode)
    gamma = _pick(rng, g.support())
    return verify_supadditive_l1linf(g, h, gamma, d, seed=seed)


def _trial_i2pos(rng, d, mode, seed) -> LemmaReport:
    f = randgen.random_sparse(rng, d, mode=mode)
    g = randgen.random_sparse(rng, d, mode=mode)
    return verify_I2_positive(f, g, d, seed=seed)


def _trial_phi(rng, d, mode, seed) -> LemmaReport:
    g = randgen.random_superadditive(rng, d, mode=mode)
    w = randgen.random_weight(rng, d.nodes(), mode=mode)
    from .hardy import hardy_up_table
    iwg = hardy_up_table(w.mul(g), d.nodes())
    values = sorted(iwg.values())
    delta = values[len(values) * 2 // 5]
    lam = 4 * delta
    candidates = [n for n, v in iwg.items() if v <= delta]
    entries = {}
    for n in rng.sample(candidates, k=min(len(candidates), rng.randint(1, 6))):
        v = randgen.dyadic(rng)
        if v > 0:
            entries[n] = v
    f = SparseFn.tree(entries, EXACT)
    if mode != EXACT:
        f = f.to_float()
    _, report = build_phi(w, g, f, lam, delta, d, seed=seed)
    return report


def _trial_inter(rng, d, mode, seed) -> LemmaReport:
    g = randgen.random_superadditive(rng, d, mode=mode)
    f = randgen.random_sparse(rng, d, mode=mode)
    return verify_inter(f, g, 2, d, seed=seed)


def _trial_linf(rng, d, mode, seed) -> LemmaReport:
    g = randgen.random_increasing(rng, d, mode=mode)
    f = randgen.random_sparse(rng, d, mode=mode)
    return verify_linf(f, g, d, seed=seed)


def _trial_new23(rng, d, mode, seed) -> LemmaReport:
    g = randgen.random_increasing(rng, d, mode=mode)
    f = randgen.random_sparse(rng, d, mode=mode)
    p = _NEW23_PS[rng.randrange(len(_NEW23_PS))]
    return verify_new23(f, g, p, d, seed=seed)


def _trial_gest(rng, d, mode, seed) -> LemmaReport:
    levels = min(d.levels, 6)
    m = randgen.random_special_form_measure(rng, levels, levels)
    beta = _pick(rng, (n.y for n in m.support()))
    g = special_form_g(m, beta, ExponentPair(2))
    if mode != EXACT:
        g = g.to_float()
    gamma = _pick(rng, g.support())
    return verify_gest(g, gamma, 2, d, seed=seed)


_TRIALS: dict[str, Callable] = {
    "l1linf": _trial_l1linf,
    "i2pos": _trial_i2pos,
    "phi": _trial_phi,
    "inter": _trial_inter,
    "linf": _trial_linf,
    "new23": _trial_new23,
    "gest": _trial_gest,
}


def run_verify_suite(
    name: str, trials: int, depth: int, seed: int, mode: str = EXACT,
) -> list[LemmaReport]:
    if name not in _TRIALS:
        raise ValueError(f"unknown verify suite {name!r} (one of {VERIFY_NAMES})")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    d = TreeDomain(depth)
    fn = _TRIALS[name]
    out = []
    for i in range(trials):
        rng = random.Random(f"{seed}:{name}:{i}")
        out.append(fn(rng, d, mode, seed))
    return out


def suite_failures(reports: list[LemmaReport]) -> list[LemmaReport]:
    return [r for r in reports if not r.holds and not r.degenerate]


@dataclass
class CellResult:
    """One experiment-grid cell: parameters, the emitted payload, a flat CSV
    row, and whether the outcome matched the expectation."""

    params: dict
    payload: dict
    row: dict
    expected_ok: bool
    runtime_ms: float = 0.0


def _report_row(params: dict, report: LemmaReport) -> dict:
    from .lemmas import scalar_repr
    row = {k: scalar_repr(v) for k, v in params.items()}
    row.update(lhs=scalar_repr(report.lhs), rhs=scalar_repr(report.rhs),
               ratio=scalar_repr(report.ratio), holds=report.holds)
    return row


def run_cell(experiment: str, params: dict, mode: str, seed: int,
             tol: Optional[float] = None) -> CellResult:
    """Execute one grid cell of a named experiment."""
    t0 = time.perf_counter()
    if experiment.startswith("verify-"):
        name = experiment[len("verify-"):]
        reports = run_verify_suite(
            name, trials=int(params.get("trials", 100)),
            depth=int(params.get("depth", 8)), seed=seed, mode=mode)
        failures = suite_failures(reports)
        worst = failures[0] if failures else reports[0]
        payload = {"trials": len(reports), "failures": len(failures),
                   "sample": worst.to_dict()}
        result = CellResult(params, payload, _report_row(params, worst),
                            expected_ok=not failures)
    elif experiment == "cex-p-less-2":
        k, p = int(params["k"]), params["p"]
        _, report = cex.gen_cex_p_less_2(k, p, seed=seed)
        bound_ok = float(report.lhs) >= float(report.extra["lower_bound"])
        payload = report.to_dict()
        result = CellResult(params, payload, _report_row(params, report), bound_ok)
    elif experiment == "cex-increasing":
        _, report = cex.gen_cex_increasing(int(params["N"]), params.get("p", 2), seed=seed)
        result = CellResult(params, report.to_dict(), _report_row(params, report), True)
    elif experiment == "cex-direct":
        _, report = cex.gen_cex_direct(int(params["N"]), params.get("p", 2), seed=seed)
        result = CellResult(params, report.to_dict(), _report_row(params, report), True)
    elif experiment == "cex-new23":
        audits = cex.gen_cex_new23(int(params["N"]), params["p"], seed=seed)
        payload = {name: audit.to_dict() for name, audit in audits.items()}
        first = audits["halving"]
        row = {**{k: str(v) for k, v in params.items()},
               "lhs": float(first.total_ifp_g), "rhs": float(first.lemma_rhs),
               "ratio": float(first.total_ifp_g) / float(first.lemma_rhs),
               "holds": first.lemma_holds}
        ok = all(a.boundary_argmax_ok for a in audits.values())
        result = CellResult(params, payload, row, ok)
    elif experiment == "search-new23":
        p = params["p"]
        report = cex.search_new23(
            p, int(params.get("depth", 10)), int(params.get("budget", 1000)), seed)
        ok = True
        if float(p) <= 2 and report.ratio is not None:
            ok = float(report.ratio) <= 1 + 1e-9
        result = CellResult(params, report.to_dict(), _report_row(params, report), ok)
    elif experiment == "capacity":
        n = int(params["n"])
        inst = cap.build_instance(n)
        eq = cap.capacity_qp_instance(inst, tol=tol or 1e-10,
                                      max_iters=int(params.get("max_iters", 200000)))
        lemma = cap.check_lemma_g(inst)
        payload = {
            "lemma_g": {k: _scalar(v) for k, v in lemma.items()},
            "d2": {k: _scalar(v) for k, v in cap.report_d2(inst, eq).items()}
            if eq.converged else None,
            "converged": eq.converged,
            "kkt_max_violation": eq.kkt_max_violation,
        }
        row = {"n": n, "lhs": eq.cap, "rhs": float(inst.delta / inst.lam),
               "ratio": eq.cap / float(inst.delta / inst.lam), "holds": eq.converged}
        result = CellResult(params, payload, row, eq.converged)
    else:
        raise ValueError(f"unknown experiment {experiment!r}")
    result.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return result


def _scalar(v):
    from .lemmas import scalar_repr
    if isinstance(v, (list, tuple)):
        return [scalar_repr(x) for x in v]
    return scalar_repr(v)
