"""Executable verifiers for the embedding lemmas.

Every verifier returns a LemmaReport carrying both sides of the inequality,
their ratio and a witness node, so the same code confirms the true
statements and quantifies the violations.  The thresholds lambda and delta
are always computed as the least admissible values from the instance, which
makes reports canonical and comparable across instance sizes.

The verifiers compute on sweep values: the values trees._path_values gives
and the If and II*g tables of hardy take, int numerators over one
denominator per function in exact mode, the floats themselves in float
mode.  In exact mode at integral p every max, sum and power is taken on the
ints, both sides of an inequality end over one denominator, and the verdict
compares their numerators; a Fraction is built only for each value a report
carries.  Float mode evaluates each float expression in its own order, and
a non-integral p rounds each exact value once, where _pow did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .trees import (
    EXACT,
    FLOAT,
    ROOT,
    NodeAddress,
    PreconditionError,
    Scalar,
    SparseFn,
    TreeDomain,
    format_node,
    heap_node,
    _as_int,
    _path_values,
    _pow,
    _zero,
)
from .hardy import _heap_values, _iistar_paths, _up_heap, hardy_up_table
from .structure import check_power_superadditive, is_increasing, is_superadditive

# Explicit constants traced through the proof of the phi-construction lemma:
# (lambda/2 - delta)/lambda >= 1/4 once lambda >= 4 delta, and the energy
# chain closes with 2*lambda*delta/lambda^2.
PHI_LOWER_CONST = Fraction(1, 4)
PHI_ENERGY_CONST = 2

@dataclass
class LemmaReport:
    """One inequality evaluation: LHS, RHS, their ratio and a witness."""

    name: str
    params: dict
    lhs: Scalar
    rhs: Scalar
    holds: bool
    witness: Optional[NodeAddress] = None
    mode: str = EXACT
    seed: Optional[int] = None
    degenerate: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def ratio(self) -> Optional[Scalar]:
        if self.rhs == 0:
            return None
        return self.lhs / self.rhs

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": {k: scalar_repr(v) for k, v in self.params.items()},
            "lhs": scalar_repr(self.lhs),
            "rhs": scalar_repr(self.rhs),
            "ratio": scalar_repr(self.ratio),
            "holds": self.holds,
            "witness": None if self.witness is None else format_node(self.witness),
            "mode": self.mode,
            "seed": self.seed,
            "degenerate": self.degenerate,
            "extra": {k: scalar_repr(v) for k, v in self.extra.items()},
        }


def scalar_repr(v):
    """Exact scalars as fraction strings, floats at 17 significant digits."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, float):
        return float(repr(v))
    if isinstance(v, (list, tuple)):
        return [scalar_repr(x) for x in v]
    return v


def _holds(lhs: Scalar, rhs: Scalar) -> bool:
    """lhs <= rhs, exactly unless a side is a float; then with a relative
    tolerance of 1e-12."""
    if isinstance(lhs, float) or isinstance(rhs, float):
        return float(lhs) <= float(rhs) * (1 + 1e-12)
    return lhs <= rhs


def _value(num: Scalar, den: int, mode: str) -> Scalar:
    """A sweep value as a report carries it: the Fraction num/den in exact
    mode, the float num in float mode."""
    return Fraction(num, den) if mode == EXACT else num


def _witness(path: Optional[str]) -> Optional[NodeAddress]:
    return None if path is None else NodeAddress(path)


def _sup_iistar(g: SparseFn, *path_lists) -> list[tuple[Scalar, Optional[str]]]:
    """For each given list of paths of g's tree, the max of II*g over it, a
    sweep value over g's denominator, and the first path attaining it;
    (0, None) for an empty list.  One sweep serves every list.
    """
    up, _ = _iistar_paths(g, (x for paths in path_lists for x in paths))
    out = []
    for paths in path_lists:
        best, arg = (0 if g.mode == EXACT else 0.0), None
        for x in paths:
            v = up[x]
            if v > best:
                best, arg = v, x
        out.append((best, arg))
    return out


def _refined_paths(g_paths, f_paths) -> list[str]:
    """The paths of the refined sup: for every path of supp g the path of
    its deepest f-supported ancestor, skipping those with none."""
    out = []
    for x in g_paths:
        for i in range(len(x), -1, -1):
            if x[:i] in f_paths:
                out.append(x[:i])
                break
    return out


def verify_supadditive_l1linf(
    g: SparseFn, h: SparseFn, gamma: NodeAddress, d: TreeDomain,
    seed: Optional[int] = None,
) -> LemmaReport:
    """sum_{alpha <= gamma} g h <= lambda g(gamma), lambda = max Ih on supp g."""
    gv, gden = _path_values(g)
    hv, hden = _path_values(h)
    zero = 0 if g.mode == EXACT else 0.0
    lam = max(hardy_up_table(h, g.support()).values(), default=zero)
    top = gamma.path
    lhs = zero
    for x, v in gv.items():
        if x.startswith(top):
            lhs += v * hv.get(x, zero)
    # both sides over gden hden
    rhs = lam * gv.get(top, zero)
    holds = lhs <= rhs
    den = gden * hden
    return LemmaReport(
        name="supadditive_l1linf",
        params={"lambda": _value(lam, hden, g.mode), "gamma": format_node(gamma)},
        lhs=_value(lhs, den, g.mode), rhs=_value(rhs, den, g.mode), holds=holds,
        witness=None if holds else gamma,
        mode=g.mode, seed=seed, degenerate=rhs == 0 and lhs > 0,
        extra={"superadditive": is_superadditive(g, d)[0]},
    )


def verify_I2_positive(
    f: SparseFn, g: SparseFn, d: TreeDomain, seed: Optional[int] = None,
) -> LemmaReport:
    """sum (If)^2 g <= (refined sup of II*g) * sum f^2; unconditional.
    A node of supp f or supp g outside d raises DomainError."""
    fv, fden = _path_values(f)
    gv, gden = _path_values(g)
    max_depth = d.max_depth
    for x in (*fv, *gv):
        if len(x) > max_depth:
            d.require(NodeAddress(x))
    zero = 0 if g.mode == EXACT else 0.0
    up = hardy_up_table(f, g.support())
    lhs = sum((up[x] ** 2 * v for x, v in gv.items()), zero)
    (sup, arg), (coarse, _) = _sup_iistar(g, _refined_paths(gv, fv), gv)
    # both sides over fden^2 gden
    rhs = sup * sum((v * v for v in fv.values()), zero)
    den = fden * fden * gden
    return LemmaReport(
        name="I2_positive",
        params={"sup_iistar": _value(sup, gden, g.mode)},
        lhs=_value(lhs, den, g.mode), rhs=_value(rhs, den, g.mode), holds=lhs <= rhs,
        witness=_witness(arg), mode=g.mode, seed=seed,
        extra={"coarse_sup": _value(coarse, gden, g.mode)},
    )


def build_phi(
    w: SparseFn, g: SparseFn, f: SparseFn, lam: Scalar, delta: Scalar,
    d: TreeDomain, seed: Optional[int] = None, iwg: Optional[tuple[list, int]] = None,
) -> tuple[SparseFn, LemmaReport]:
    """The indicator-weighted majorant phi and its two proof-traced checks.

    phi(a) = (1/lambda) [delta < I(wg)(a) <= 2 lambda] I(wf)(a) g(a);
    check (a): I(w phi) >= (1/4) I(wf) on {lambda/2 < I(wg) <= 2 lambda};
    check (b): sum w phi^2 <= 2 (delta/lambda) sum w f^2.

    w, g and f share one scalar mode.  w is read only on supp g and supp f
    (phi lies inside supp g), so a w that holds no other node gives the same
    phi and report.  The three I sweeps run over lists in heap order and
    check (a) visits every node, so a domain of more than 20 levels raises
    ResourceError.  iwg, when the caller has already swept I(wg), is that
    list and the denominator of its entries, as hardy._heap_values and
    _up_heap give them; swept here when None.  A list of the wrong length
    raises ValueError.
    """
    if not w.mode == g.mode == f.mode:
        raise ValueError(f"w, g and f must share one scalar mode "
                         f"(got {w.mode}, {g.mode}, {f.mode})")
    ok, witness = is_superadditive(g, d)
    if not ok:
        raise PreconditionError("g is not superadditive", witness)
    if lam < 4 * delta:
        raise PreconditionError(f"lambda >= 4*delta required (lambda={lam}, delta={delta})")
    phi, a_ok, a_witness, worst_a = _phi_heap(w, g, f, lam, delta, d, iwg)

    sum_wphi2 = _weighted_square_sum(w, phi)
    sum_wf2 = _weighted_square_sum(w, f)
    b_rhs = PHI_ENERGY_CONST * delta * sum_wf2 / lam
    b_ok = sum_wphi2 <= b_rhs

    report = LemmaReport(
        name="build_phi",
        params={"lambda": lam, "delta": delta},
        lhs=sum_wphi2, rhs=b_rhs, holds=a_ok and b_ok,
        witness=a_witness, mode=g.mode, seed=seed,
        extra={
            "lower_check_ok": a_ok,
            "energy_check_ok": b_ok,
            "worst_lower_ratio": worst_a,
            "lower_const": PHI_LOWER_CONST,
            "energy_const": PHI_ENERGY_CONST,
        },
    )
    return phi, report


def _weighted_square_sum(w: SparseFn, fn: SparseFn) -> Scalar:
    """sum over supp fn of w fn^2, in fn's order.  In exact mode it is
    summed over int numerators, over fn's denominator squared times the lcm
    of w's denominators on supp fn, and handed out as one Fraction."""
    values, den = _path_values(fn)
    weights = [w.get(n) for n in fn.support()]
    if fn.mode != EXACT:
        return sum((x * v * v for x, v in zip(weights, values.values())), 0.0)
    wden = 1
    for x in weights:
        wden = math.lcm(wden, x.denominator)
    total = sum(x.numerator * (wden // x.denominator) * v * v
                for x, v in zip(weights, values.values()))
    return Fraction(total, wden * den * den)


def _phi_heap(w, g, f, lam, delta, d, iwg):
    """phi and check (a) over every node of d: phi, whether check (a)
    holds, its last failing node in heap order and its least ratio.

    Each I is one _up_heap sweep.  In exact mode the entries are int
    numerators, each table over its own denominator; a threshold t is read
    as floor(t den), since an integer n exceeds t iff it exceeds floor(t),
    and ratios are compared by cross-multiplying.
    """
    size = 1 << d.levels
    if iwg is None:
        iwg = _heap_values(w.mul(g), d)
        _up_heap(iwg[0])
    elif len(iwg[0]) != size:
        raise ValueError(f"iwg holds {len(iwg[0])} heap entries, the domain needs {size}")
    up_wg, den_wg = iwg
    exact = g.mode == EXACT
    if exact:
        delta_t, half_t, two_t = (math.floor(Fraction(t) * den_wg)
                                  for t in (delta, lam / 2, 2 * lam))
    else:
        delta_t, half_t, two_t = delta, lam / 2, 2 * lam
    for node in f.support():
        if up_wg[d.heap_index(node)] > delta_t:
            raise PreconditionError("supp f must lie inside {I(wg) <= delta}", node)

    up_wf, den_wf = _heap_values(w.mul(f), d)
    _up_heap(up_wf)
    inv_lam = Fraction(1, 1) / lam if exact else 1.0 / float(lam)
    phi_entries = {}
    for node, gv in g.items():
        k = d.heap_index(node)
        # phi is zero where I(wf) is
        if up_wf[k] and delta_t < up_wg[k] <= two_t:
            val = inv_lam * (Fraction(up_wf[k], den_wf) if exact else up_wf[k]) * gv
            if val != 0:
                phi_entries[node] = val
    phi = SparseFn(phi_entries, g.mode)

    up_wphi, den_wphi = _heap_values(w.mul(phi), d)
    _up_heap(up_wphi)
    a_ok, a_k, worst_k, worst_a = True, None, None, None
    if exact:
        # the ratio at k is (up_wphi[k] / den_wphi) / (up_wf[k] / den_wf)
        lower_wphi = PHI_LOWER_CONST.denominator * den_wf
        lower_wf = PHI_LOWER_CONST.numerator * den_wphi
        for k, wf_k in enumerate(up_wf):
            # I(wf) >= 0, so its truth is "> 0", and it is zero at most nodes
            if wf_k and half_t < up_wg[k] <= two_t:
                wphi_k = up_wphi[k]
                if worst_k is None or wphi_k * up_wf[worst_k] < up_wphi[worst_k] * wf_k:
                    worst_k = k
                if wphi_k * lower_wphi < lower_wf * wf_k:
                    a_ok, a_k = False, k
        if worst_k is not None:
            worst_a = Fraction(up_wphi[worst_k] * den_wf, up_wf[worst_k] * den_wphi)
    else:
        lower = float(PHI_LOWER_CONST)
        for k, wf_k in enumerate(up_wf):
            if wf_k and half_t < up_wg[k] <= two_t:
                r = up_wphi[k] / wf_k
                if worst_a is None or r < worst_a:
                    worst_a = r
                if r < lower:
                    a_ok, a_k = False, k
    a_witness = None if a_k is None else heap_node(a_k)
    return phi, a_ok, a_witness, worst_a


def verify_inter(
    f: SparseFn, g: SparseFn, p: Scalar, d: TreeDomain, seed: Optional[int] = None,
) -> LemmaReport:
    """||If . g||_p <= delta^((p-1)/p) lambda^(1/p) ||f||_p with least delta, lambda.

    The sums are exact at integral p in exact mode, but both sides are
    compared as float p-th roots, in every mode.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    fv, fden = _path_values(f)
    gv, gden = _path_values(g)
    mode = f.mode
    zero = 0 if mode == EXACT else 0.0
    # Ig is constant below the deepest supported ancestor, so its max over
    # the tree is its max over supp g and the root
    ig = hardy_up_table(g, [*f.support(), *g.support(), ROOT])
    delta = _value(max((ig[x] for x in fv), default=zero), gden, mode)
    lam = _value(max(ig[x] for x in (*gv, ROOT.path)), gden, mode)
    e = _as_int(p)
    exact = mode == EXACT and e is not None
    if exact:
        sum_fp = Fraction(sum(v ** e for v in fv.values()), fden ** e)
    else:
        sum_fp = sum((_pow(v / fden, p) for v in fv.values()), _zero(mode))
    if sum_fp == 0:
        return LemmaReport(
            name="inter", params={"p": p, "delta": delta, "lambda": lam},
            lhs=_zero(mode), rhs=_zero(mode), holds=True,
            mode=mode, seed=seed, degenerate=True,
        )
    up = hardy_up_table(f, g.support())
    den = fden * gden
    if exact:
        sum_ifg_p = Fraction(sum((up[x] * v) ** e for x, v in gv.items()), den ** e)
    else:
        sum_ifg_p = sum((_pow(up[x] * v / den, p) for x, v in gv.items()), _zero(mode))
    pf = float(p)
    lhs = float(sum_ifg_p) ** (1.0 / pf)
    rhs = float(delta) ** ((pf - 1.0) / pf) * float(lam) ** (1.0 / pf) * float(sum_fp) ** (1.0 / pf)
    return LemmaReport(
        name="inter",
        params={"p": p, "delta": delta, "lambda": lam},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        mode=FLOAT, seed=seed,
        extra={
            "sum_ifg_p": sum_ifg_p,
            "sum_fp": sum_fp,
            "superadditive": is_superadditive(g, d)[0],
        },
    )


def verify_linf(f: SparseFn, g: SparseFn, d: TreeDomain, seed: Optional[int] = None) -> LemmaReport:
    """||If . g||_inf <= (sup over supp g & supp f of II*g) ||f||_inf for increasing g."""
    fv, fden = _path_values(f)
    gv, gden = _path_values(g)
    zero = 0 if g.mode == EXACT else 0.0
    up = hardy_up_table(f, g.support())
    lhs, arg = zero, None
    for x, v in gv.items():
        val = up[x] * v
        if val > lhs:
            lhs, arg = val, x
    (sup, sup_arg), = _sup_iistar(g, [x for x in gv if x in fv])
    # both sides over fden gden
    rhs = sup * max(fv.values(), default=zero)
    den = fden * gden
    return LemmaReport(
        name="linf",
        params={"sup_iistar": _value(sup, gden, g.mode)},
        lhs=_value(lhs, den, g.mode), rhs=_value(rhs, den, g.mode), holds=lhs <= rhs,
        witness=_witness(arg if lhs > rhs else sup_arg),
        mode=g.mode, seed=seed,
        extra={"increasing": is_increasing(g, d)[0]},
    )


def verify_new23(
    f: SparseFn, g: SparseFn, p: Scalar, d: TreeDomain, seed: Optional[int] = None,
) -> LemmaReport:
    """sum (If)^p g <= (sup over supp g & supp f of II*g) sum f^p."""
    if p < 1:
        raise ValueError("p must be at least 1")
    fv, fden = _path_values(f)
    gv, gden = _path_values(g)
    mode = g.mode
    up = hardy_up_table(f, g.support())
    (sup, arg), (coarse, _) = _sup_iistar(g, [x for x in gv if x in fv], gv)
    sup_v = _value(sup, gden, mode)
    e = _as_int(p)
    if mode == EXACT and e is not None:
        # both sides over fden^e gden
        lhs = sum(up[x] ** e * v for x, v in gv.items())
        rhs = sup * sum(v ** e for v in fv.values())
        holds = lhs <= rhs
        den = fden ** e * gden
        lhs, rhs = Fraction(lhs, den), Fraction(rhs, den)
    else:
        lhs = sum((_pow(up[x] / fden, p) * (v / gden) for x, v in gv.items()), _zero(mode))
        rhs = sup_v * sum((_pow(v / fden, p) for v in fv.values()), _zero(f.mode))
        holds = _holds(lhs, rhs)
    return LemmaReport(
        name="new23",
        params={"p": p, "sup_iistar": sup_v},
        lhs=lhs, rhs=rhs, holds=holds,
        witness=_witness(arg), mode=mode if e is not None else FLOAT, seed=seed,
        extra={
            "coarse_sup": _value(coarse, gden, mode),
            "increasing": is_increasing(g, d)[0],
            "superadditive": is_superadditive(g, d)[0],
        },
    )


def verify_gest(
    g: SparseFn, gamma: NodeAddress, p: Scalar, d: TreeDomain,
    seed: Optional[int] = None,
) -> LemmaReport:
    """sum_{alpha <= gamma} g^p <= lambda g^(p-1)(gamma), lambda = max Ig on supp g."""
    pre_ok, pre_witness = check_power_superadditive(g, d, p)
    if not pre_ok:
        raise PreconditionError("g^(p-1) is not superadditive", pre_witness)
    gv, gden = _path_values(g)
    mode = g.mode
    zero = 0 if mode == EXACT else 0.0
    lam = max(hardy_up_table(g, g.support()).values(), default=zero)
    lam_v = _value(lam, gden, mode)
    top = gamma.path
    e = _as_int(p)
    if mode == EXACT and e is not None:
        # both sides over gden^e; p > 1, so e - 1 >= 1
        lhs = sum(v ** e for x, v in gv.items() if x.startswith(top))
        rhs = lam * gv.get(top, zero) ** (e - 1)
        holds = lhs <= rhs
        lhs, rhs = Fraction(lhs, gden ** e), Fraction(rhs, gden ** e)
    else:
        lhs = sum((_pow(v / gden, p) for x, v in gv.items() if x.startswith(top)), _zero(mode))
        rhs = lam_v * _pow(g.get(gamma), p - 1)
        holds = _holds(lhs, rhs)
    return LemmaReport(
        name="gest",
        params={"p": p, "lambda": lam_v, "gamma": format_node(gamma)},
        lhs=lhs, rhs=rhs, holds=holds,
        witness=None if holds else gamma,
        mode=mode if e is not None else FLOAT, seed=seed,
        degenerate=rhs == 0 and lhs > 0,
        extra={"power_superadditive": pre_ok},
    )
