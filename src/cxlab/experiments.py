"""Seeded experiment drivers shared by the CLI and the test suite.

Each verify suite draws instances from the generators in randgen, runs one
lemma verifier per trial, and returns the reports; a suite "passes" when
every non-degenerate report holds.

EXPERIMENTS is the one registry behind the verify, cex and capacity
commands, report d2 and `cxlab run`.  It maps each experiment name to a
runner whose keyword parameters and defaults are the experiment's, and
which returns the payload the command prints, a CSV row and whether the
outcome matched the theory.  Every expected-outcome rule lives in a runner
here.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .trees import ResourceError, Scalar, SparseFn, TreeDomain
from .structure import special_form_g
from .hardy import _heap_values, _up_heap
from .lemmas import (
    EXACT,
    FLOAT,
    LemmaReport,
    build_phi,
    scalar_repr,
    verify_I2_positive,
    verify_gest,
    verify_inter,
    verify_linf,
    verify_new23,
    verify_supadditive_l1linf,
)
from . import randgen
from .randgen import _below
from . import counterexamples as cex
from . import capacity as cap

VERIFY_NAMES = ("l1linf", "i2pos", "phi", "inter", "linf", "new23", "gest")
_NEW23_PS = (1, 1.5, 2)


def _pick(rng: random.Random, paths) -> str:
    paths = sorted(paths)
    return paths[_below(rng.getrandbits, len(paths))]


def _trial_l1linf(rng, d, mode, seed) -> LemmaReport:
    g = randgen.random_superadditive(rng, d)
    h = randgen.random_sparse(rng, d)
    gamma = _pick(rng, g.values)
    return verify_supadditive_l1linf(g, h, gamma, d, seed=seed, mode=mode)


def _trial_i2pos(rng, d, mode, seed) -> LemmaReport:
    f = randgen.random_sparse(rng, d)
    g = randgen.random_sparse(rng, d)
    return verify_I2_positive(f, g, d, seed=seed, mode=mode)


def _phi_instance(rng, d):
    """The phi trial's instance: w, g, f, lambda, delta, and I(wg) at every
    node of d as a heap list and the denominator of its entries.

    The node at heap position k has weight quarters[k - 1]/4, so I(wg) is
    swept over g's int numerators times quarters[k - 1], over 4 times their
    denominator.  f is drawn on heap positions.  A weight is drawn for
    every node, but w holds only those on supp g, in g's order, then on the
    rest of supp f: the nodes build_phi reads it on.  A domain of more than 20
    levels raises ResourceError before any draw.
    """
    d.require_enumerable()
    g = randgen.random_superadditive(rng, d)
    quarters = randgen.random_quarters(rng, d.node_count)
    up, den = _heap_values(g, d)
    up[1:] = [q * v for q, v in zip(quarters, up[1:])]
    den *= 4
    _up_heap(up)
    # rank by integer numerators, not by Fraction compares
    keys = up[1:]
    cut = sorted(keys)[len(keys) * 2 // 5]
    delta = Fraction(cut, den)
    candidates = [k for k, key in enumerate(keys, 1) if key <= cut]
    lam = 4 * delta
    # f's values k/16, k drawn as randint(0, 16) draws it, at heap positions
    bits = rng.getrandbits
    draws = {}
    for k in rng.sample(candidates, k=min(len(candidates), 1 + _below(bits, 6))):
        num = _below(bits, 17)
        if num:
            draws[bin(k)[3:]] = num
    f = SparseFn(draws, 16)
    w = SparseFn({path: quarters[int("1" + path, 2) - 1]
                  for path in itertools.chain(g.values, f.values)}, 4)
    return w, g, f, lam, delta, (up, den)


def _trial_phi(rng, d, mode, seed) -> LemmaReport:
    w, g, f, lam, delta, iwg = _phi_instance(rng, d)
    _, report = build_phi(w, g, f, lam, delta, d, seed=seed, mode=mode, iwg=iwg)
    return report


def _trial_inter(rng, d, mode, seed) -> LemmaReport:
    g = randgen.random_superadditive(rng, d)
    f = randgen.random_sparse(rng, d)
    return verify_inter(f, g, 2, d, seed=seed, mode=mode)


def _trial_linf(rng, d, mode, seed) -> LemmaReport:
    g = randgen.random_increasing(rng, d)
    f = randgen.random_sparse(rng, d)
    return verify_linf(f, g, d, seed=seed, mode=mode)


def _trial_new23(rng, d, mode, seed) -> LemmaReport:
    g = randgen.random_increasing(rng, d)
    f = randgen.random_sparse(rng, d)
    p = _NEW23_PS[_below(rng.getrandbits, len(_NEW23_PS))]
    return verify_new23(f, g, p, d, seed=seed, mode=mode)


def _trial_gest(rng, d, mode, seed) -> LemmaReport:
    levels = min(d.levels, 6)
    m = randgen.random_special_form_measure(rng, levels, levels)
    beta = _pick(rng, (y for _, y in m[0]))
    g = special_form_g(m, beta, 2)
    gamma = _pick(rng, g.values)
    return verify_gest(g, gamma, 2, d, seed=seed, mode=mode)


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
    """One experiment cell: the payload its single command prints, a flat
    CSV row of the verdict, and whether the outcome matched the expectation."""

    payload: dict
    row: dict
    expected_ok: bool
    runtime_ms: float = 0.0


def _exponent(p: float) -> Scalar:
    """p, as an int when integral so that the construction stays exact."""
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    return int(p) if p.is_integer() else p


def _row(report: LemmaReport) -> dict:
    return {"lhs": scalar_repr(report.lhs), "rhs": scalar_repr(report.rhs),
            "ratio": scalar_repr(report.ratio), "holds": report.holds}


def _report_cell(report: LemmaReport, expected_ok: bool = True) -> CellResult:
    return CellResult(report.to_dict(), _row(report), expected_ok)


def _verify(suite: str, trials: int = 100, depth: int = 8, seed: int = 0,
            mode: str = EXACT) -> CellResult:
    reports = run_verify_suite(suite, trials=trials, depth=depth, seed=seed, mode=mode)
    failures = suite_failures(reports)
    payload = {
        "suite": suite, "trials": len(reports), "failures": len(failures),
        "params": {"depth": depth, "seed": seed, "mode": mode},
        "reports": [r.to_dict() for r in (failures or reports[:1])],
    }
    return CellResult(payload, _row((failures or reports)[0]), not failures)


def _cex_p_less_2(k: int = 4, p: float = 1.5, seed: int = 0) -> CellResult:
    report = cex.gen_cex_p_less_2(k, _exponent(p), seed=seed)
    return _report_cell(report, float(report.lhs) >= float(report.extra["lower_bound"]))


def _cex_increasing(N: int = 10, p: float = 2.0, seed: int = 0) -> CellResult:
    return _report_cell(cex.gen_cex_increasing(N, _exponent(p), seed=seed))


def _cex_direct(N: int = 10, p: float = 2.0, seed: int = 0) -> CellResult:
    return _report_cell(cex.gen_cex_direct(N, _exponent(p), seed=seed))


def _cex_new23(N: int = 10, p: float = 4.0) -> CellResult:
    audits = cex.gen_cex_new23(N, _exponent(p))
    first = audits["halving"]
    row = {"lhs": float(first.total_ifp_g), "rhs": float(first.lemma_rhs),
           "ratio": float(first.total_ifp_g) / float(first.lemma_rhs),
           "holds": first.lemma_holds}
    return CellResult({name: audit.to_dict() for name, audit in audits.items()}, row,
                      all(audit.boundary_argmax_ok for audit in audits.values()))


def _search_new23(p: float = 2.0, depth: int = 10, budget: int = 1000,
                  seed: int = 0) -> CellResult:
    p = _exponent(p)
    report = cex.search_new23(p, depth, budget, seed)
    # no violation exists for p <= 2
    return _report_cell(report, p > 2 or report.ratio is None
                        or float(report.ratio) <= 1 + 1e-9)


def _capacity(n: int = 16, no_symmetry: bool = False, oracle: bool = False) -> CellResult:
    if oracle and n.bit_length() > cap._BRUTEFORCE_MAX:  # the j = 1 subfamily has s + 1 members
        raise ResourceError(f"oracle comparison limited to families of {cap._BRUTEFORCE_MAX}")
    inst = cap.build_instance(n)
    eq = cap.equilibrium(inst, use_symmetry=not no_symmetry)
    payload = {
        "n": n,
        "lemma_g": cap.check_lemma_g(inst),
        "converged": eq.certified,
        "kkt_max_violation": eq.kkt_max_violation,
        "cap": float(eq.cap),
        "cap_exact": eq.cap,
        # one mass per member in j-major order without symmetry
        "rho": [float(r) for r in eq.rho] * (inst.count if no_symmetry else 1),
    }
    if eq.certified:
        payload["d2"] = cap.report_d2(inst, eq)
    else:
        payload["failed_check"] = eq.failed_check
    ok = eq.certified
    if oracle:
        exact = cap.capacity_bruteforce(cap.prefix_members(inst, 0))
        closed = cap.prefix_capacity(inst)
        # "qp" is the closed form's value; the key keeps the benchmark's name
        payload["oracle"] = {"bruteforce": exact, "qp": float(closed),
                             "rel_error": float(abs(closed - exact) / exact)}
        ok = ok and closed == exact
    ratio = inst.delta / inst.lam
    row = {"lhs": float(eq.cap), "rhs": float(ratio), "ratio": float(eq.cap / ratio),
           "holds": eq.certified}
    return CellResult(payload, row, ok)


# An experiment's parameters and their defaults are its runner's keyword parameters.
EXPERIMENTS: dict[str, Callable[..., CellResult]] = {
    **{f"verify-{suite}": functools.partial(_verify, suite) for suite in VERIFY_NAMES},
    "cex-p-less-2": _cex_p_less_2,
    "cex-increasing": _cex_increasing,
    "cex-direct": _cex_direct,
    "cex-new23": _cex_new23,
    "search-new23": _search_new23,
    "capacity": _capacity,
}
_DEFAULTS = {name: {k: v.default for k, v in inspect.signature(run).parameters.items()}
             for name, run in EXPERIMENTS.items()}


def cell_params(experiment: str, params: dict) -> dict:
    """The runner's defaults overridden by params, each value cast to the
    type of its default; ValueError for an unknown experiment, an unknown
    parameter, a value that does not cast (a fractional int included) or a
    mode other than exact and float.  A bool parameter takes only a bool,
    and no other parameter takes one."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r} (one of {', '.join(EXPERIMENTS)})")
    out = dict(_DEFAULTS[experiment])
    unknown = sorted(set(params) - set(out))
    if unknown:
        raise ValueError(f"{experiment} has no parameter {', '.join(unknown)} "
                         f"(its parameters: {', '.join(out)})")
    for k, v in params.items():
        want = type(out[k])
        try:
            if (want is bool) != (type(v) is bool):
                raise ValueError  # bool("false") is True, and int(True) is 1
            if want is int and isinstance(v, float) and not v.is_integer():
                raise ValueError  # int() would truncate it
            out[k] = want(v)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{experiment}: {k} must be {want.__name__}, "
                             f"got {v!r}") from None
    if out.get("mode", EXACT) not in (EXACT, FLOAT):
        raise ValueError(f"invalid mode {out['mode']!r}")
    return out


def run_cell(experiment: str, params: dict) -> CellResult:
    """Run one cell of a registered experiment; parameters not given take
    the runner's defaults."""
    full = cell_params(experiment, params)
    t0 = time.perf_counter()
    result = EXPERIMENTS[experiment](**full)
    result.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return result
