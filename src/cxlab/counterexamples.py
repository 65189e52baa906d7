"""Exact generators for the single-tree counterexamples, plus a randomized
search for further witnesses.

No construction is materialized; each report is a sum over generations
and levels.  The p < 2 terms depend only on a node's generation or on its
step along a tail.  The large-N sums collapse to per-level aggregates
(binomial counts over the number of zero bits in a path).  For integer
exponents they are exact: each sum runs over int numerators above one
power-of-two denominator, and the reported Fraction is built once at the
end, so no addition pays for a gcd of 1000- to 4000-bit integers.  Float
mode rounds the same numerators once, as float(Fraction) would.
tests/helpers.py builds the instances node by node, and keeps the
step-by-step Fraction sums, as the oracles for these sums.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .trees import (
    EXACT,
    FLOAT,
    NodeAddress,
    ResourceError,
    Scalar,
    SparseFn,
    TreeDomain,
    _as_int,
    _pow,
)
# hardy_up_table is not called here; the binding stays because the bench's
# self-test checks that its tracer wraps it in this module too.
from .hardy import hardy_up_table  # noqa: F401
from .lemmas import LemmaReport, verify_new23
from .randgen import _below, _random_bits

_MAX_CEX_K = 8          # the p<2 sums take ~4^k terms
_MAX_SEARCH_DEPTH = 14
_MAX_SEARCH_BUDGET = 10 ** 6  # tens of seconds at ~40 us per trial
_MAX_NEW23_FLOAT_N = 1024   # the ones variant rounds 2^(N-1) to a float


def _half_pow(i: int) -> Fraction:
    return Fraction(1, 2 ** i)


# ---------------------------------------------------------------------------
# The p < 2 counterexample: diagonal decay then single-path propagation.
# ---------------------------------------------------------------------------

def _p_less_2_terms(k: int, at_generation: Callable[[int], float],
                    at_tail_step: Callable[[int], float]) -> Iterator[float]:
    """One term per node of the p < 2 instance, in the order its nodes are
    built: generation i = 0..k (2^i nodes each), then the tail steps
    t = 1..2^k below each of the 2^k generation-k nodes."""
    tail = [at_tail_step(t) for t in range(1, 2 ** k + 1)]
    for i in range(k + 1):
        yield from itertools.repeat(at_generation(i), 2 ** i)
    for _ in range(2 ** k):
        yield from tail


def gen_cex_p_less_2(k: int, p: Scalar, seed: Optional[int] = None) -> LemmaReport:
    """g = 2^-i on all of generation i <= k, then 2^-k pushed t = 1..2^k
    steps down the left children of each generation-k node; f = 2^-i on
    generation i and 2^-(k+t) on the tail.  So If = 2 - 2^-depth on supp g,
    and I g peaks at 3 - 2^-k at the ends of the tails."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if not 1 < p < 2:
        raise ValueError("this construction targets 1 < p < 2")
    if k > _MAX_CEX_K:
        raise ResourceError(
            f"the float sums take ~4^{k} = {4 ** k} terms, beyond the budget "
            f"(k <= {_MAX_CEX_K})")
    pf = float(p)
    # one term at a time, in node order, so the totals round as over the built instance
    sum_ifg_p = sum(_p_less_2_terms(
        k, lambda i: ((2 - 2.0 ** -i) * 2.0 ** -i) ** pf,
        lambda t: ((2 - 2.0 ** -(k + t)) * 2.0 ** -k) ** pf))
    sum_fp = sum(_p_less_2_terms(
        k, lambda i: (2.0 ** -i) ** pf, lambda t: (2.0 ** -(k + t)) ** pf))
    delta = lam = 3
    rhs = _pow(delta, p - 1) * lam * sum_fp
    return LemmaReport(
        name="cex_p_less_2",
        params={"k": k, "p": p, "delta": delta, "lambda": lam},
        lhs=sum_ifg_p, rhs=rhs, holds=sum_ifg_p <= rhs,
        mode=FLOAT if _as_int(p) is None else EXACT, seed=seed,
        extra={
            "lower_bound": 2.0 ** ((2 - float(p)) * k),
            "sum_fp": sum_fp,
            "max_Ig": 3 - _half_pow(k),
        },
    )


# ---------------------------------------------------------------------------
# The increasing-but-subadditive construction: halve left, keep right.
# ---------------------------------------------------------------------------

def sum_gp_levels(N: int, p: Scalar) -> Scalar:
    """Sum over levels 0..N-1 of g^p via the per-level ratio (2^p+1)/2^p.

    Exact for integral p; equals 2^p(r^N - 1) with r the per-level ratio.
    """
    pi = _as_int(p)
    if pi is not None:
        # sum_m (2^p+1)^m / 2^(pm) as one numerator over 2^(pN)
        two_p, total, level = 2 ** pi, 0, 1
        for _ in range(N):
            total = (total + level) * two_p
            level *= two_p + 1
        return Fraction(total, two_p ** N)
    r = (2.0 ** float(p) + 1.0) / 2.0 ** float(p)
    level, total = 1.0, 0.0
    for _ in range(N):
        total += level
        level *= r
    return total


def gen_cex_increasing(N: int, p: Scalar = 2, seed: Optional[int] = None) -> LemmaReport:
    """The children-power-sum inequality at the root for the doubling g:
    lhs is the full-tree sum of g^p, rhs = N * g^(p-1)(root) = N."""
    if N < 1:
        raise ValueError("N must be positive")
    if p < 1:
        raise ValueError("p must be at least 1")
    lhs = sum_gp_levels(N, p)
    # 2^p (r^N - 1) with r = (2^p + 1)/2^p is exact for integral p only;
    # non-integral p repeats the level sum.
    pi = _as_int(p)
    closed = lhs if pi is None else 2 ** pi * (Fraction(2 ** pi + 1, 2 ** pi) ** N - 1)
    lam = N
    rhs = lam  # g(root) = 1
    return LemmaReport(
        name="cex_increasing",
        params={"N": N, "p": p, "lambda": lam, "gamma": ""},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        witness=None if lhs <= rhs else NodeAddress(""),
        mode=EXACT if _as_int(p) is not None else FLOAT, seed=seed,
        extra={"closed_form_check": closed},
    )


def sum_ifg_p_direct(N: int, p: Scalar) -> Scalar:
    """Full-tree sum of (If g)^p for f = 1 on the leftmost path and the
    doubling g, aggregated over (level, leading-zero count).

    A node at level i with leading-zero count a < i contributes
    (a+1)^p 2^(-ap) (1 + 2^-p)^(i-a-1) in total over its zero-bit counts;
    the all-zero node contributes (i+1)^p 2^(-ip).  With the order of
    summation swapped, leading-zero count a carries the weight
    1 + sum_{e < N-a-1} r^e with r = 1 + 2^-p, which grows by one geometric
    term per step of a downward.
    """
    pi = _as_int(p)
    if pi is not None:
        # one numerator over 2^(p(N-1)): at step a the weight and the term
        # carry the factor 2^(p(N-1-a)), and term = (2^p+1)^(N-1-a)
        two_p, total, weight, term = 2 ** pi, 0, 1, 1
        for a in range(N - 1, -1, -1):
            total += (a + 1) ** pi * weight
            weight = (weight + term) * two_p
            term *= two_p + 1
        return Fraction(total, two_p ** (N - 1)) if N else 0
    r = 1 + _pow(_half_pow(1), p)
    total, weight, term = 0, 1, 1
    for a in range(N - 1, -1, -1):
        total += _pow(a + 1, p) * _pow(_half_pow(a), p) * weight
        weight += term
        term *= r
    return total


def gen_cex_direct(N: int, p: Scalar = 2, seed: Optional[int] = None) -> LemmaReport:
    """The direct violation with f = 1 on the leftmost path: compares the
    full-tree sum of (If g)^p with delta^(p-1) lambda sum f^p, delta = 2."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if p < 1:
        raise ValueError("p must be at least 1")
    lhs = sum_ifg_p_direct(N, p)
    delta, lam, sum_fp = 2, N, N
    rhs = _pow(delta, p - 1) * lam * sum_fp
    return LemmaReport(
        name="cex_direct",
        params={"N": N, "p": p, "delta": delta, "lambda": lam},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        mode=EXACT if _as_int(p) is not None else FLOAT, seed=seed,
        extra={
            "sum_fp": sum_fp,
            "sum_gp": sum_gp_levels(N, p),
            "delta_measured": 2 - _half_pow(N - 1),
        },
    )


# ---------------------------------------------------------------------------
# Audit of the p > 2 chain against the power-sum lemma.
# ---------------------------------------------------------------------------

@dataclass
class AuditStep:
    step: str
    lhs: Scalar
    rhs: Scalar
    ok: bool
    note: str = ""

    def to_dict(self) -> dict:
        from .lemmas import scalar_repr
        return {"step": self.step, "lhs": scalar_repr(self.lhs),
                "rhs": scalar_repr(self.rhs), "ok": self.ok, "note": self.note}


@dataclass
class VariantAudit:
    variant: str
    N: int
    p: Scalar
    total_ifp_g: Scalar          # L = sum over the tree of (If)^p g
    sup_iistar: Scalar           # ||II*g||_inf, attained on the boundary
    sum_fp: Scalar               # = N
    lemma_rhs: Scalar            # sup * sum f^p
    lemma_holds: bool
    boundary_argmax_ok: bool
    steps: list[AuditStep] = field(default_factory=list)

    @property
    def first_failed_step(self) -> Optional[str]:
        for s in self.steps:
            if not s.ok:
                return s.step
        return None

    def to_dict(self) -> dict:
        from .lemmas import scalar_repr
        return {
            "variant": self.variant, "N": self.N, "p": scalar_repr(self.p),
            "total_ifp_g": scalar_repr(self.total_ifp_g),
            "sup_iistar": scalar_repr(self.sup_iistar),
            "sum_fp": scalar_repr(self.sum_fp),
            "lemma_rhs": scalar_repr(self.lemma_rhs),
            "lemma_holds": self.lemma_holds,
            "boundary_argmax_ok": self.boundary_argmax_ok,
            "first_failed_step": self.first_failed_step,
            "steps": [s.to_dict() for s in self.steps],
        }


def _power_tables(N: int, p: Scalar) -> list[list]:
    """k^p, k^(p-1) and k^(p-2) for k = 0..N, as _pow gives them: ints for
    integral p, else float(k) ** float(e)."""
    pi = _as_int(p)
    if pi is not None:
        return [[k ** e for k in range(N + 1)] for e in (pi, pi - 1, pi - 2)]
    return [[float(k) ** float(e) for k in range(N + 1)] for e in (p, p - 1, p - 2)]


def _audit_variant(variant: str, N: int, p: Scalar, tables: list[list]) -> VariantAudit:
    """One variant's audit; tables are _power_tables(N, p)."""
    exact = _as_int(p) is not None
    pi = _as_int(p)

    # Path quantities at u_k, k = 1..N (u_1 = root, u_N = the left-most
    # boundary node), as integer numerators over one denominator den:
    # g = 2^-k and I*g = 2^-(k-1) - 2^-N for halving (den = 2^N); g = 1 and
    # I*g = 2^(N-k+1) - 1 for ones (den = 1).  L sums k^p against lw: g on
    # the path for halving (off-path values vanish), and for ones the
    # 2^(N-k) nodes of leading-zero count k - 1 in the whole tree.
    lw = [2 ** (N - k) for k in range(1, N + 1)]
    istar = [2 * w - 1 for w in lw]
    if variant == "halving":
        g_path, den = lw, 2 ** N
    elif variant == "ones":
        g_path, den = [1] * N, 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    iistar = list(itertools.accumulate(istar))
    # II* along the path is a running sum of non-negative I* values, so the
    # maximum sits at the boundary node u_N, where g is non-zero.
    boundary_ok = all(iistar[i] <= iistar[i + 1] for i in range(N - 1)) and g_path[-1] > 0

    pw, pw1, pw2 = tables

    if exact:
        def q(num):
            return Fraction(num, den)

        L = q(sum(pw[k] * lw[k - 1] for k in range(1, N + 1)))
    else:
        def q(num):
            return num

        def fl(num):
            # float(Fraction(num, den)), with overflow read as inf
            try:
                return num / den
            except OverflowError:
                return math.inf
        g_path = [fl(x) for x in g_path]
        istar = [fl(x) for x in istar]
        iistar = [fl(x) for x in iistar]
        L = sum(pw[k] * fl(lw[k - 1]) for k in range(1, N + 1))

    # The steps below take the numerators in exact mode and q() puts them
    # over den; float mode runs the same expressions on the rounded values.
    sup = q(iistar[-1])
    steps: list[AuditStep] = []

    S1 = q(sum(pw[k] * g_path[k - 1] for k in range(2, N + 1)))
    steps.append(AuditStep("series_lower_bound", L, S1, L >= S1,
                           "L >= sum_{k>=2} k^p g(u_k)"))

    dev = q(max(abs(g_path[k - 1] - (istar[k - 1] - istar[k - 2])) for k in range(2, N + 1)))
    steps.append(AuditStep("g_telescope", dev, 0, dev == 0,
                           "printed identity g(u_k) = I*g(u_k) - I*g(u_{k-1})"))

    S2 = q(sum(istar[k - 1] * (pw[k] - pw[k - 1]) for k in range(2, N + 1)))
    steps.append(AuditStep("abel_1", S1, S2, S1 == S2,
                           "printed Abel summation (equality claim)"))

    const = Fraction(pi, 2 ** (pi - 1)) if exact else float(p) / 2.0 ** (float(p) - 1.0)
    S3 = q(sum(istar[k - 1] * pw1[k] for k in range(2, N + 1)))
    steps.append(AuditStep("power_diff_bound", S2, const * S3, S2 >= const * S3,
                           "k^p - (k-1)^p >= (p/2^(p-1)) k^(p-1)"))

    dev2 = q(max(abs(istar[k - 1] - (iistar[k - 1] - iistar[k - 2])) for k in range(2, N + 1)))
    steps.append(AuditStep("istar_telescope", dev2, 0, dev2 == 0,
                           "I*g(u_k) = II*g(u_k) - II*g(u_{k-1})"))

    star = q(iistar[N - 1] * pw1[N] - iistar[0] - sum(
        iistar[k - 1] * (pw1[k + 1] - pw1[k]) for k in range(1, N)))
    steps.append(AuditStep("abel_2_star", S3, star, S3 == star,
                           "the (*) expression"))

    tele = sum(pw1[k + 1] - pw1[k] for k in range(1, N))
    star_lb = q(iistar[-1] * pw1[N] - iistar[0] - iistar[-1] * tele)
    steps.append(AuditStep("star_bound", star, star_lb, star >= star_lb,
                           "(*) bounded below via ||II*g||_inf (m taken as 1)"))

    pow_sum = sum(pw2[k] for k in range(1, N))
    deriv_rhs = ((pi - 1) if exact else (float(p) - 1.0)) * pow_sum
    steps.append(AuditStep("derivative_bound", tele, deriv_rhs, tele <= deriv_rhs,
                           "printed (k+1)^(p-1) - k^(p-1) <= (p-1) k^(p-2)"))

    integral_rhs = (Fraction(pw1[N - 1] - 1, pi - 1) if exact
                    else (pw1[N - 1] - 1) / (float(p) - 1.0))
    steps.append(AuditStep("integral_bound", pow_sum, integral_rhs,
                           pow_sum <= integral_rhs,
                           "printed sum k^(p-2) <= ((N-1)^(p-1) - 1)/(p-1)"))

    final_rhs = const * sup * (pw1[N] - pw1[N - 1])
    steps.append(AuditStep("final_claim", L, final_rhs, L >= final_rhs,
                           "the chain's asserted lower bound on L"))

    lemma_rhs = sup * N
    return VariantAudit(
        variant=variant, N=N, p=p,
        total_ifp_g=L, sup_iistar=sup, sum_fp=N, lemma_rhs=lemma_rhs,
        lemma_holds=L <= lemma_rhs, boundary_argmax_ok=boundary_ok,
        steps=steps,
    )


def gen_cex_new23(N: int, p: Scalar) -> dict[str, VariantAudit]:
    """Audit both constructions (half-on-left-path g and g = 1) against the
    power-sum lemma, checking every printed chain step numerically."""
    if N < 3:
        raise ValueError("N must be at least 3")
    if p <= 2:
        raise ValueError("the audited chain targets p > 2")
    if _as_int(p) is None and N > _MAX_NEW23_FLOAT_N:
        raise ResourceError(
            f"a non-integral p rounds the weight 2^(N-1) to a float, which "
            f"overflows beyond N = {_MAX_NEW23_FLOAT_N}")
    tables = _power_tables(N, p)
    return {v: _audit_variant(v, N, p, tables) for v in ("halving", "ones")}


# ---------------------------------------------------------------------------
# Randomized search for power-sum lemma violations.
# ---------------------------------------------------------------------------

def _random_increasing_paths(rng: random.Random, depth: int, cap: int) -> dict[str, float]:
    """Up to cap values of a random increasing g, keyed by path.  A node
    enters after its parent, so supp g is ancestor-closed and listed parents
    first."""
    bits, rand = rng.getrandbits, rng.random
    out: dict[str, float] = {}
    frontier = [("", 0.5 + 0.5 * rand())]  # uniform(0.5, 1.0)
    while frontier and len(out) < cap:
        path, value = frontier.pop(_below(bits, len(frontier)))
        out[path] = value
        if len(path) < depth:
            for bit in "01":
                if rand() < 0.7:
                    frontier.append((path + bit, value * rand()))
    return out


def _random_f_paths(rng: random.Random, depth: int, g_paths: list[str]) -> dict[str, float]:
    bits, rand = rng.getrandbits, rng.random
    out: dict[str, float] = {}
    for _ in range(1 + _below(bits, 8)):  # randint(1, 8)
        if g_paths and rand() < 0.5:
            base = g_paths[_below(bits, len(g_paths))]
            room = depth - len(base)
            path = base + _random_bits(bits, _below(bits, room + 1)) if room > 0 else base
        else:
            path = _random_bits(bits, _below(bits, depth + 1))
        out[path] = 0.05 + 0.95 * rand()  # uniform(0.05, 1.0)
    return out


def _fast_new23_ratio(gv: dict[str, float], fv: dict[str, float], p: float):
    """(lhs, rhs) of the power-sum inequality on plain path dicts, for supp g
    ancestor-closed and listed parents first; (0.0, 0.0) when supp f and
    supp g are disjoint.

    Only f's values on the intersection reach If on supp g, and II*g is
    taken only on the intersection, so I*g is needed only at its prefixes.
    Each sum makes the additions of hardy._up_paths and _down_paths in their
    order (If and II*g root first, I*g in supp g order), so every float
    rounds as in those sweeps."""
    inter = gv.keys() & fv.keys()
    if not inter:
        return 0.0, 0.0
    i_f: dict[str, float] = {}
    for path in gv:
        acc = i_f[path[:-1]] if path else 0.0
        if path in inter:
            acc += fv[path]
        i_f[path] = acc
    # a node with no f above it adds 0.0, which changes no sum
    lhs = sum(a ** p * val for a, val in zip(i_f.values(), gv.values()) if a)
    # I*g at the intersection's prefixes, a prefix-closed set: a path's
    # prefixes leave it at the first one outside
    down = {b[:i]: 0.0 for b in inter for i in range(len(b) + 1)}
    for path, val in gv.items():
        for i in range(len(path) + 1):
            q = path[:i]
            if q not in down:
                break
            down[q] += val
    sup = 0.0
    for b in inter:
        acc = 0.0
        for i in range(len(b) + 1):
            acc += down[b[:i]]
        sup = max(sup, acc)
    rhs = sup * sum(v ** p for v in fv.values())
    return lhs, rhs


def search_new23(p: Scalar, depth: int, budget: int, seed: int) -> LemmaReport:
    """Sample random increasing g and random f; return the instance with the
    largest lhs/rhs, re-evaluated through the full verifier."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth > _MAX_SEARCH_DEPTH:
        raise ResourceError(f"search depth capped at {_MAX_SEARCH_DEPTH}")
    if budget < 1:
        raise ValueError("budget must be positive")
    if budget > _MAX_SEARCH_BUDGET:
        raise ResourceError(f"search budget capped at {_MAX_SEARCH_BUDGET}")
    pf = float(p)
    # each trial reseeds one generator, so trial t draws as Random(f"{seed}:{t}")
    rng = random.Random()
    best_ratio, best_trial = -1.0, None
    for trial in range(budget):
        rng.seed(f"{seed}:{trial}")
        gv = _random_increasing_paths(rng, depth, cap=12)
        fv = _random_f_paths(rng, depth, list(gv))
        lhs, rhs = _fast_new23_ratio(gv, fv, pf)
        if rhs <= 0.0:
            continue
        ratio = lhs / rhs
        if ratio > best_ratio:
            best_ratio, best_trial = ratio, trial

    if best_trial is None:
        return LemmaReport(
            name="search_new23", params={"p": p, "depth": depth, "budget": budget},
            lhs=0.0, rhs=0.0, holds=True, mode=FLOAT, seed=seed, degenerate=True,
        )
    rng.seed(f"{seed}:{best_trial}")
    gv = _random_increasing_paths(rng, depth, cap=12)
    fv = _random_f_paths(rng, depth, list(gv))
    d = TreeDomain(depth + 1)
    g = SparseFn.tree({NodeAddress(k): v for k, v in gv.items()}, FLOAT)
    f = SparseFn.tree({NodeAddress(k): v for k, v in fv.items()}, FLOAT)
    report = verify_new23(f, g, float(p), d, seed=seed)
    report.name = "search_new23"
    report.params.update({"depth": depth, "budget": budget, "best_trial": best_trial,
                          "best_fast_ratio": best_ratio})
    return report
