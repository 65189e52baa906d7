"""Exact generators for the single-tree counterexamples, plus a randomized
search for further witnesses.

No construction is materialized; each report is a sum over generations
and levels.  The p < 2 terms are floats that depend only on a node's
generation or on its step along a tail, so each is taken once, exactly,
and weighted by its node count.  The large-N sums collapse to per-level
aggregates (binomial counts over the number of zero bits in a path).
Every family decides every verdict at every p on int numerators over one
denominator, and builds each reported value once at the end, so no
addition pays for a gcd of 1000- to 4000-bit integers.  A non-integral p
takes 2^p and each power k^e as the exact values of the floats 2.0 ** p
and k ** e (the latter as int numerators over 2^52).  Each generator
renders its report once, at its output, through lemmas.render: exact
values at integral p, and otherwise the correctly rounded float of each
exact value (inf beyond the float range).
tests/helpers.py builds the instances node by node, and keeps
step-by-step Fraction sums, as the oracles for these sums.
"""

from __future__ import annotations

import itertools
import random
import sys
from operator import le, mul, sub
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .trees import (
    ResourceError,
    Scalar,
    SparseFn,
    TreeDomain,
    _as_int,
)
# hardy_up_table is not called here; the binding stays because the bench's
# self-test checks that its tracer wraps it in this module too.
from .hardy import hardy_up_table  # noqa: F401
from .lemmas import (EXACT, FLOAT, Exact, LemmaReport, render, render_value, scalar_repr,
                     verify_new23)
from .randgen import _below, _random_bits

_MAX_CEX_K = 8          # the p<2 sums take ~2^k terms of ints that grow with k
_MAX_SEARCH_DEPTH = 14
_MAX_SEARCH_BUDGET = 10 ** 6  # tens of seconds at ~40 us per trial
_MAX_FLOAT_N = 1024   # the largest N summed at a non-integral p


def _two_pow(p: Scalar) -> tuple[int, int]:
    """2^p as ints (A, D): (2^p, 1) at integral p, else the exact value of
    the float 2.0 ** p, D a power of two."""
    pi = _as_int(p)
    return (2 ** pi, 1) if pi is not None else (2.0 ** float(p)).as_integer_ratio()


def _dyadic(values: Iterable[float]) -> tuple[list[int], int]:
    """The exact values of the given floats as int numerators over the one
    power of two the finest value needs."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max((b for _, b in ratios), default=1)
    return [a * (den // b) for a, b in ratios], den


def _power_table(N: int, e: Scalar) -> tuple[list[int], int]:
    """k^e for k = 0..N as int numerators over one denominator: the ints
    themselves over 1 for integral e, else the exact values of
    float(k) ** float(e) over 2^52.  For e > 0 each float power is 0 or at
    least 1, a multiple of 2^-52."""
    ei = _as_int(e)
    if ei is not None:
        return [k ** ei for k in range(N + 1)], 1
    # x * 2^52 is exact; from 2^52 up x is an int, and x * 2^52 might overflow
    return [int(x * 2.0 ** 52) if x < 2.0 ** 52 else int(x) << 52
            for x in (float(k) ** float(e) for k in range(N + 1))], 1 << 52


def _check_bounds(N: int, p: Scalar, bits: Callable[[int], int]) -> None:
    """Check the bounds of a p >= 1 family before any sum; bits(p) bounds
    the bit length of the ints its exact report prints at integral p."""
    pi = _as_int(p)
    if pi is not None:
        limit, digits = sys.get_int_max_str_digits(), bits(pi) * 30103 // 100000 + 1
        if limit and digits > limit:  # 0.30103 > log10(2)
            raise ResourceError(f"the exact report prints ints of up to {digits} digits, "
                                f"beyond Python's {limit}-digit limit on int to str conversion")
        return
    if N > _MAX_FLOAT_N:
        raise ResourceError(f"a non-integral p sums the exact values of float powers, "
                            f"whose ints grow with N, up to N = {_MAX_FLOAT_N}")
    try:
        float(max(N, 2)) ** float(p)
    except OverflowError:
        raise ResourceError(f"a non-integral p takes 2^p and k^p, k <= N, as floats, and "
                            f"{max(N, 2)}^{p} is beyond their range (N^p < 2^1024)") from None


def _report(p: Scalar, lhs: tuple[int, int], rhs: tuple[int, int], **fields) -> LemmaReport:
    """A family's report from sides given as int ratios, holds decided on
    the ints, rendered at its output: exact at integral p, where the rhs is
    an integer and reported as the int, and float otherwise."""
    (a, b), (c, d) = lhs, rhs
    exact = _as_int(p) is not None
    report = LemmaReport(lhs=Exact(a, b), rhs=c // d if exact else Exact(c, d),
                         holds=a * d <= c * b, **fields)
    return render(report, EXACT if exact else FLOAT)


# ---------------------------------------------------------------------------
# The p < 2 counterexample: diagonal decay then single-path propagation.
# ---------------------------------------------------------------------------

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
            f"the exact sums take 2^{k} + {k + 1} float terms, whose ints grow "
            f"with k, beyond the budget (k <= {_MAX_CEX_K})")
    pf = float(p)
    # depth d = 0..k+2^k holds 2^min(d, k) nodes, each with f = 2^-d,
    # g = 2^-min(d, k) and If = 2 - 2^-d: one float term per depth, exactly
    depths = range(k + 2 ** k + 1)
    ifg, den = _dyadic([((2 - 2.0 ** -d) * 2.0 ** -(d if d < k else k)) ** pf for d in depths])
    fp, fp_den = _dyadic([(2.0 ** -d) ** pf for d in depths])
    lhs, sum_fp = (sum(a << d for d, a in enumerate(nums[:k])) + (sum(nums[k:]) << k)
                   for nums in (ifg, fp))
    delta = lam = 3
    # delta^(p-1) as the exact value of its float
    dp, dp_den = (float(delta) ** float(p - 1)).as_integer_ratio()
    report = _report(p, (lhs, den), (dp * lam * sum_fp, dp_den * fp_den),
                     name="cex_p_less_2", params={"k": k, "p": p, "delta": delta, "lambda": lam},
                     seed=seed, extra={"lower_bound": 2.0 ** ((2 - pf) * k),
                                       "sum_fp": Exact(sum_fp, fp_den)})
    report.extra["max_Ig"] = 3 - Fraction(1, 2 ** k)  # exact in the float report
    return report


# ---------------------------------------------------------------------------
# The increasing-but-subadditive construction: halve left, keep right.
# ---------------------------------------------------------------------------

def sum_gp_levels(N: int, p: Scalar) -> tuple[int, int]:
    """Sum over levels 0..N-1 of g^p via the per-level ratio (A+D)/A,
    (A, D) = _two_pow(p), as ints (numerator, denominator).

    Equals 2^p(r^N - 1) with r the per-level ratio.
    """
    A, D = _two_pow(p)
    # sum_m (A+D)^m / A^m as one numerator over A^N
    total, level = 0, 1
    for _ in range(N):
        total = (total + level) * A
        level *= A + D
    return total, A ** N


def gen_cex_increasing(N: int, p: Scalar = 2, seed: Optional[int] = None) -> LemmaReport:
    """The children-power-sum inequality at the root for the doubling g:
    lhs is the full-tree sum of g^p, rhs = N * g^(p-1)(root) = N."""
    if N < 1:
        raise ValueError("N must be positive")
    if p < 1:
        raise ValueError("p must be at least 1")
    # the reduced lhs is below N (2^p+1)^(N-1) over 2^(p(N-1))
    _check_bounds(N, p, lambda e: (e + 1) * (N - 1) + N.bit_length())
    # 2^p (r^N - 1) with r = (A + D)/A, a cross-check of the level sum
    A, D = _two_pow(p)
    closed = Exact((A + D) ** N - A ** N, A ** (N - 1) * D)
    lam = N  # g(root) = 1
    report = _report(p, sum_gp_levels(N, p), (N, 1),
                     name="cex_increasing", params={"N": N, "p": p, "lambda": lam, "gamma": ""},
                     seed=seed, extra={"closed_form_check": closed})
    report.witness = None if report.holds else ""
    return report


def sum_ifg_p_direct(N: int, p: Scalar) -> tuple[int, int]:
    """Full-tree sum of (If g)^p for f = 1 on the leftmost path and the
    doubling g, aggregated over (level, leading-zero count), as ints.

    A node at level i with leading-zero count a < i contributes
    (a+1)^p 2^(-ap) (1 + 2^-p)^(i-a-1) in total over its zero-bit counts;
    the all-zero node contributes (i+1)^p 2^(-ip).  With the order of
    summation swapped, leading-zero count a carries the weight
    1 + sum_{e < N-a-1} r^e with r = 1 + 2^-p, which grows by one geometric
    term per step of a downward.
    """
    A, D = _two_pow(p)
    pw, den = _power_table(N, p)
    shift = D.bit_length() - 1
    # one numerator over den A^(N-1), 2^p = A/D: at step a the weight carries
    # A^(N-1-a), term = (A+D)^(N-1-a), and 2^(-ap) leaves D^a, a shift (none
    # at integral p, whose loop makes only the multiplications and additions)
    total, weight, term = 0, 1, 1
    for a in range(N - 1, -1, -1):
        total += pw[a + 1] * (weight << a * shift if shift else weight)
        weight = (weight + term) * A
        term *= A + D
    return total, den * A ** (N - 1) if N else den


def gen_cex_direct(N: int, p: Scalar = 2, seed: Optional[int] = None) -> LemmaReport:
    """The direct violation with f = 1 on the leftmost path: compares the
    full-tree sum of (If g)^p with delta^(p-1) lambda sum f^p, delta = 2."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if p < 1:
        raise ValueError("p must be at least 1")
    # the reduced lhs, below N^(p+2) (2^p+1)^(N-1) over 2^(p(N-1)), bounds all
    _check_bounds(N, p, lambda e: (e + 1) * (N - 1) + (e + 2) * N.bit_length())
    delta, lam, sum_fp = 2, N, N
    A, D = _two_pow(p)
    # delta^(p-1) = 2^p / 2
    return _report(p, sum_ifg_p_direct(N, p), (A * lam * sum_fp, 2 * D),
                   name="cex_direct", params={"N": N, "p": p, "delta": delta, "lambda": lam},
                   seed=seed, extra={
                       "sum_fp": sum_fp,
                       "sum_gp": Exact(*sum_gp_levels(N, p)),
                       "delta_measured": Exact(2 ** N - 1, 2 ** (N - 1)),
                   })


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


def _path_numerators(N: int) -> tuple[list[int], list[int], list[int]]:
    """lw, I*g and II*g at u_k, k = 1..N (u_1 = root, u_N = the left-most
    boundary node), as int numerators shared by both variants: each puts
    them over its own denominator den.  g = 2^-k and I*g = 2^-(k-1) - 2^-N
    for halving (den = 2^N); g = 1 and I*g = 2^(N-k+1) - 1 for ones
    (den = 1).  L sums k^p against lw: g on the path for halving (off-path
    values vanish), and for ones the 2^(N-k) nodes of leading-zero count
    k - 1 in the whole tree."""
    lw = [1 << (N - k) for k in range(1, N + 1)]
    istar = [2 * w - 1 for w in lw]
    return lw, istar, list(itertools.accumulate(istar))


def _audit_variant(variant: str, N: int, p: Scalar, powers: list[tuple[list[int], int]],
                   path: tuple[list[int], list[int], list[int]]) -> VariantAudit:
    """One variant's audit; powers is _power_table(N, e) for e = p, p - 1
    and p - 2, and path is _path_numerators(N).  Every step is decided
    exactly, and the audit renders its values once: exact at integral p,
    float otherwise."""
    lw, istar, iistar = path
    if variant == "halving":
        g_path, den = lw, 1 << N
    elif variant == "ones":
        g_path, den = [1] * N, 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # II* along the path is a running sum of non-negative I* values, so the
    # maximum sits at the boundary node u_N, where g is non-zero.
    boundary_ok = all(map(le, iistar, iistar[1:])) and g_path[-1] > 0

    (pw, tden), (pw1, _), (pw2, _) = powers
    # p exactly (a float p is a dyadic rational), an int when integral
    pe = _as_int(p)
    pe = Fraction(p) if pe is None else pe

    def q(num, over=tden):
        """A path value: num over den * over."""
        return Fraction(num, den * over)

    def t(num):
        """A sum of table entries: num over tden, an int at integral p."""
        return num if tden == 1 else Fraction(num, tden)

    # each sum over k runs on slices: a path list at k - 1, a table at k
    L = q(sum(map(mul, pw[1:], lw)))
    sup = q(iistar[-1], 1)
    steps: list[tuple] = []

    S1 = q(sum(map(mul, pw[2:], g_path[1:])))  # k = 2..N
    steps.append(("series_lower_bound", L, S1, L >= S1,
                  "L >= sum_{k>=2} k^p g(u_k)"))

    # k = 2..N: |g(u_k) - (I*g(u_k) - I*g(u_{k-1}))|
    dev = q(max(map(abs, map(sub, g_path[1:], map(sub, istar[1:], istar)))), 1)
    steps.append(("g_telescope", dev, 0, dev == 0,
                  "printed identity g(u_k) = I*g(u_k) - I*g(u_{k-1})"))

    S2 = q(sum(map(mul, istar[1:], map(sub, pw[2:], pw[1:]))))  # k = 2..N
    steps.append(("abel_1", S1, S2, S1 == S2,
                  "printed Abel summation (equality claim)"))

    # p / 2^(p-1), with 2^(p-1) the table's entry
    const = Fraction(pe * tden, pw1[2])
    S3 = q(sum(map(mul, istar[1:], pw1[2:])))  # k = 2..N
    steps.append(("power_diff_bound", S2, const * S3, S2 >= const * S3,
                  "k^p - (k-1)^p >= (p/2^(p-1)) k^(p-1)"))

    dev2 = q(max(map(abs, map(sub, istar[1:], map(sub, iistar[1:], iistar)))), 1)
    steps.append(("istar_telescope", dev2, 0, dev2 == 0,
                  "I*g(u_k) = II*g(u_k) - II*g(u_{k-1})"))

    rises = list(map(sub, pw1[2:], pw1[1:]))  # (k+1)^(p-1) - k^(p-1), k = 1..N-1
    star = q(iistar[N - 1] * pw1[N] - iistar[0] * tden - sum(map(mul, iistar, rises)))
    steps.append(("abel_2_star", S3, star, S3 == star,
                  "the (*) expression"))

    tele_num = sum(rises)
    tele = t(tele_num)
    star_lb = q(iistar[-1] * pw1[N] - iistar[0] * tden - iistar[-1] * tele_num)
    steps.append(("star_bound", star, star_lb, star >= star_lb,
                  "(*) bounded below via ||II*g||_inf (m taken as 1)"))

    pow_sum = t(sum(pw2[1:N]))
    deriv_rhs = (pe - 1) * pow_sum
    steps.append(("derivative_bound", tele, deriv_rhs, tele <= deriv_rhs,
                  "printed (k+1)^(p-1) - k^(p-1) <= (p-1) k^(p-2)"))

    integral_rhs = Fraction(pw1[N - 1] - tden, tden) / (pe - 1)
    steps.append(("integral_bound", pow_sum, integral_rhs, pow_sum <= integral_rhs,
                  "printed sum k^(p-2) <= ((N-1)^(p-1) - 1)/(p-1)"))

    final_rhs = const * sup * t(pw1[N] - pw1[N - 1])
    steps.append(("final_claim", L, final_rhs, L >= final_rhs,
                  "the chain's asserted lower bound on L"))

    lemma_rhs = sup * N
    mode = EXACT if tden == 1 else FLOAT
    return VariantAudit(
        variant=variant, N=N, p=p, total_ifp_g=render_value(L, mode),
        sup_iistar=render_value(sup, mode), sum_fp=N, lemma_rhs=render_value(lemma_rhs, mode),
        lemma_holds=L <= lemma_rhs, boundary_argmax_ok=boundary_ok,
        steps=[AuditStep(name, render_value(lhs, mode), render_value(rhs, mode), ok, note)
               for name, lhs, rhs, ok, note in steps],
    )


def gen_cex_new23(N: int, p: Scalar) -> dict[str, VariantAudit]:
    """Audit both constructions (half-on-left-path g and g = 1) against the
    power-sum lemma, checking every printed chain step exactly."""
    if N < 3:
        raise ValueError("N must be at least 3")
    if p <= 2:
        raise ValueError("the audited chain targets p > 2")
    # every printed value is below 2^(N+2) p N^p, over at most 2^(N+p-1)
    _check_bounds(N, p, lambda e: N + e * (N.bit_length() + 1) + 2)
    powers, path = [_power_table(N, e) for e in (p, p - 1, p - 2)], _path_numerators(N)
    return {v: _audit_variant(v, N, p, powers, path) for v in ("halving", "ones")}


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


def _dyadic_fn(values: dict[str, float]) -> SparseFn:
    """The function of the given float values, each exactly.  A draw of 0.0
    (rand() can return it) leaves the support."""
    kept = {path: v for path, v in values.items() if v}
    nums, den = _dyadic(kept.values())
    return SparseFn(dict(zip(kept, nums)), den)


def search_new23(p: Scalar, depth: int, budget: int, seed: int) -> LemmaReport:
    """Sample random increasing g and random f, scored in floats; return the
    instance with the largest lhs/rhs, re-evaluated through the full
    verifier on the exact values of its float draws, rendered in float mode."""
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
    report = verify_new23(_dyadic_fn(fv), _dyadic_fn(gv), float(p), d, seed=seed)
    report.name = "search_new23"
    report.params.update({"depth": depth, "budget": budget, "best_trial": best_trial,
                          "best_fast_ratio": best_ratio})
    return render(report, FLOAT)
