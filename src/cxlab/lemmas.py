"""Executable verifiers for the embedding lemmas.

Every verifier returns a LemmaReport carrying both sides of the inequality,
their ratio and a witness node, so the same code confirms the true
statements and quantifies the violations.  The thresholds lambda and delta
are always computed as the least admissible values from the instance, which
makes reports canonical and comparable across instance sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .trees import (
    ENUM_LEVELS,
    EXACT,
    FLOAT,
    Node,
    NodeAddress,
    PreconditionError,
    Scalar,
    SparseFn,
    TreeDomain,
    format_node,
    _as_int,
    _pow,
    _zero,
)
from .hardy import (
    _heap_values,
    _iistar_at,
    _iistar_paths,
    _up_heap,
    ancestor_closure,
    eval_hardy_up,
    hardy_up_table,
)
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
    witness: Optional[Node] = None
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


def max_hardy_up_on(f: SparseFn, nodes) -> Scalar:
    """max of If over the given tree nodes (0 for an empty collection)."""
    nodes = list(nodes)
    if not nodes:
        return _zero(f.mode)
    table = hardy_up_table(f, nodes)
    return max(table.values())


def max_hardy_up_tree(f: SparseFn) -> Scalar:
    """max of If over the whole tree.

    If is constant below the deepest supported ancestor, so the max over the
    tree equals the max over supp f plus the root.
    """
    return max_hardy_up_on(f, list(f.support()) + [NodeAddress("")])


def _sup_iistar(g: SparseFn, *node_lists) -> list[tuple[Scalar, Optional[Node]]]:
    """For each given collection of nodes, the max of II*g over it and the
    first node attaining it; (0, None) for an empty collection.

    One sweep serves every collection.  On the tree the max is taken on the
    swept values, int numerators in exact mode, and one Fraction is built
    for it.
    """
    node_lists = [list(nodes) for nodes in node_lists]
    if g.kind == "tree":
        up, den = _iistar_paths(g, (x.path for nodes in node_lists for x in nodes))
        values = [[up[x.path] for x in nodes] for nodes in node_lists]
    else:
        up, den = _iistar_at(g, {x: None for nodes in node_lists for x in nodes}), 1
        values = [[up[x] for x in nodes] for nodes in node_lists]
    exact = g.mode == EXACT
    out = []
    for nodes, vals in zip(node_lists, values):
        best, arg = (0 if exact else 0.0), None
        for x, v in zip(nodes, vals):
            if v > best:
                best, arg = v, x
        out.append((Fraction(best, den) if exact else best, arg))
    return out


def _refined_nodes(g: SparseFn, f: SparseFn) -> list[Node]:
    """The nodes of the refined sup: for every support node of g its deepest
    f-supported ancestor, skipping support nodes with none.  On the bi-tree,
    which has no maximum principle, supp g itself."""
    if g.kind != "tree":
        return g.support()
    f_paths = {n.path for n in f.support()}
    ancestors = []
    for x in g.support():
        p = x.path
        for i in range(len(p), -1, -1):
            if p[:i] in f_paths:
                ancestors.append(NodeAddress(p[:i]))
                break
    return ancestors


def _intersection_nodes(g: SparseFn, f: SparseFn) -> list[Node]:
    """supp g intersected with supp f, in supp g order."""
    f_support = set(f.support())
    return [x for x in g.support() if x in f_support]


def sup_iistar_refined(g: SparseFn, f: SparseFn) -> tuple[Scalar, Optional[Node]]:
    """sup of II*g with the ancestor-walk refinement toward supp f.

    For every support node of g the deepest f-supported ancestor carries the
    same value of I(I*g 1_{supp f}), which the proof bounds by II*g there;
    support points of g with no f-supported ancestor contribute zero.  On
    the bi-tree this is the plain support sup of II*g.
    """
    return _sup_iistar(g, _refined_nodes(g, f))[0]


def sup_iistar_intersection(g: SparseFn, f: SparseFn) -> tuple[Scalar, Optional[Node]]:
    """sup of II*g over supp g intersected with supp f (tree only); nodes
    are visited in supp g order, so a tie keeps the first in that order."""
    return _sup_iistar(g, _intersection_nodes(g, f))[0]


def sup_iistar_support(g: SparseFn) -> Scalar:
    """The coarser sup of II*g over supp g, reported for comparison."""
    return _sup_iistar(g, g.support())[0][0]


def verify_supadditive_l1linf(
    g: SparseFn, h: SparseFn, gamma: NodeAddress, d: TreeDomain,
    seed: Optional[int] = None,
) -> LemmaReport:
    """sum_{alpha <= gamma} g h <= lambda g(gamma), lambda = max Ih on supp g."""
    lam = max_hardy_up_on(h, g.support())
    lhs = _zero(g.mode)
    for node, v in g.items():
        if gamma.contains(node):
            lhs += v * h.get(node)
    rhs = lam * g.get(gamma)
    degenerate = rhs == 0 and lhs > 0
    holds = lhs <= rhs
    return LemmaReport(
        name="supadditive_l1linf",
        params={"lambda": lam, "gamma": format_node(gamma)},
        lhs=lhs, rhs=rhs, holds=holds,
        witness=None if holds else gamma,
        mode=g.mode, seed=seed, degenerate=degenerate,
        extra={"superadditive": is_superadditive(g, d)[0]},
    )


def verify_I2_positive(f: SparseFn, g: SparseFn, d, seed: Optional[int] = None) -> LemmaReport:
    """sum (If)^2 g <= (refined sup of II*g) * sum f^2; unconditional."""
    if f.kind != g.kind:
        raise ValueError("f and g must live on the same domain")
    if g.kind == "tree":
        table = hardy_up_table(f, g.support())
        lhs = sum((table[n] ** 2 * v for n, v in g.items()), _zero(g.mode))
    else:
        lhs = sum((eval_hardy_up(f, n) ** 2 * v for n, v in g.items()), _zero(g.mode))
    (sup, arg), (coarse, _) = _sup_iistar(g, _refined_nodes(g, f), g.support())
    sum_f2 = sum((v * v for _, v in f.items()), _zero(f.mode))
    rhs = sup * sum_f2
    return LemmaReport(
        name="I2_positive",
        params={"sup_iistar": sup},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        witness=arg, mode=g.mode, seed=seed,
        extra={"coarse_sup": coarse},
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
    phi and report.  On a domain of at most ENUM_LEVELS levels check (a)
    visits every node and the three I sweeps run over lists in heap
    order.  There iwg, when the caller has already swept
    I(wg), is that list and the denominator of its entries, as
    hardy._heap_values and _up_heap give them; swept here when None.  A
    list of the wrong length raises ValueError, and so does a table for a
    larger domain, where check (a) visits the support closure instead.
    """
    if not w.mode == g.mode == f.mode:
        raise ValueError(f"w, g and f must share one scalar mode "
                         f"(got {w.mode}, {g.mode}, {f.mode})")
    ok, witness = is_superadditive(g, d)
    if not ok:
        raise PreconditionError("g is not superadditive", witness)
    if lam < 4 * delta:
        raise PreconditionError(f"lambda >= 4*delta required (lambda={lam}, delta={delta})")
    if d.levels <= ENUM_LEVELS:
        phi, a_ok, a_witness, worst_a = _phi_heap(w, g, f, lam, delta, d, iwg)
    elif iwg is not None:
        raise ValueError(f"iwg is taken on domains of at most {ENUM_LEVELS} levels")
    else:
        phi, a_ok, a_witness, worst_a = _phi_closure(w, g, f, lam, delta, d)

    sum_wphi2 = sum((w.get(n) * v * v for n, v in phi.items()), _zero(g.mode))
    sum_wf2 = sum((w.get(n) * v * v for n, v in f.items()), _zero(g.mode))
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


def _phi_heap(w, g, f, lam, delta, d, iwg):
    """phi and check (a) over every node of an enumerated domain: phi, whether
    check (a) holds, its last failing node and its least ratio.

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
    phi = SparseFn.tree(phi_entries, g.mode)

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
    # a heap position's binary digits after the leading 1 are its path
    a_witness = None if a_k is None else NodeAddress(bin(a_k)[3:])
    return phi, a_ok, a_witness, worst_a


def _phi_closure(w, g, f, lam, delta, d):
    """phi and check (a) beyond the enumeration cutoff, where check (a)
    visits the ancestor closure of supp wg and supp wf and its children;
    returned as _phi_heap returns them."""
    wf = w.mul(f)
    base = list(w.mul(g).support()) + list(wf.support())
    check_nodes = ancestor_closure(base)
    check_nodes += [c for n in check_nodes for c in d.children(n)]
    check_nodes = list(dict.fromkeys(check_nodes))
    wf_nodes = set(check_nodes) | set(g.support())
    iwg = hardy_up_table(w.mul(g), set(check_nodes) | set(f.support()) | set(g.support()))
    for node in f.support():
        if iwg[node] > delta:
            raise PreconditionError("supp f must lie inside {I(wg) <= delta}", node)

    iwf = hardy_up_table(wf, wf_nodes)
    inv_lam = Fraction(1, 1) / lam if g.mode == EXACT else 1.0 / float(lam)
    two_lam, half_lam = 2 * lam, lam / 2
    phi_entries = {}
    for node, gv in g.items():
        if delta < iwg[node] <= two_lam:
            val = inv_lam * iwf[node] * gv
            if val != 0:
                phi_entries[node] = val
    phi = SparseFn.tree(phi_entries, g.mode)

    wphi = w.mul(phi)
    iwphi = hardy_up_table(wphi, check_nodes)

    # a float ratio is compared with a float: 1/4 is exact in binary, and a
    # Fraction compared with a float first converts the float to a Fraction
    lower = PHI_LOWER_CONST if g.mode == EXACT else float(PHI_LOWER_CONST)
    a_ok, a_witness = True, None
    worst_a = None
    for node in check_nodes:
        # I(wf) >= 0, so its truth is "> 0", and it is zero at most nodes
        wf_v = iwf[node]
        if wf_v and half_lam < iwg[node] <= two_lam:
            r = iwphi[node] / wf_v
            if worst_a is None or r < worst_a:
                worst_a = r
            if r < lower:
                a_ok, a_witness = False, node
    return phi, a_ok, a_witness, worst_a


def verify_inter(
    f: SparseFn, g: SparseFn, p: Scalar, d: TreeDomain, seed: Optional[int] = None,
) -> LemmaReport:
    """||If . g||_p <= delta^((p-1)/p) lambda^(1/p) ||f||_p with least delta, lambda."""
    if p < 1:
        raise ValueError("p must be at least 1")
    delta = max_hardy_up_on(g, f.support())
    lam = max_hardy_up_tree(g)
    sum_fp = sum((_pow(v, p) for _, v in f.items()), _zero(f.mode))
    if sum_fp == 0:
        return LemmaReport(
            name="inter", params={"p": p, "delta": delta, "lambda": lam},
            lhs=_zero(f.mode), rhs=_zero(f.mode), holds=True,
            mode=f.mode, seed=seed, degenerate=True,
        )
    table = hardy_up_table(f, g.support())
    sum_ifg_p = sum((_pow(table[n] * v, p) for n, v in g.items()), _zero(g.mode))
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
    table = hardy_up_table(f, g.support())
    lhs = _zero(g.mode)
    arg = None
    for node, v in g.items():
        val = table[node] * v
        if val > lhs:
            lhs, arg = val, node
    sup, sup_arg = sup_iistar_intersection(g, f)
    f_max = max((v for _, v in f.items()), default=_zero(f.mode))
    rhs = sup * f_max
    return LemmaReport(
        name="linf",
        params={"sup_iistar": sup},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        witness=arg if lhs > rhs else sup_arg,
        mode=g.mode, seed=seed,
        extra={"increasing": is_increasing(g, d)[0]},
    )


def verify_new23(
    f: SparseFn, g: SparseFn, p: Scalar, d: TreeDomain, seed: Optional[int] = None,
) -> LemmaReport:
    """sum (If)^p g <= (sup over supp g & supp f of II*g) sum f^p."""
    if p < 1:
        raise ValueError("p must be at least 1")
    table = hardy_up_table(f, g.support())
    lhs = sum((_pow(table[n], p) * v for n, v in g.items()), _zero(g.mode))
    (sup, arg), (coarse, _) = _sup_iistar(g, _intersection_nodes(g, f), g.support())
    sum_fp = sum((_pow(v, p) for _, v in f.items()), _zero(f.mode))
    rhs = sup * sum_fp
    return LemmaReport(
        name="new23",
        params={"p": p, "sup_iistar": sup},
        lhs=lhs, rhs=rhs, holds=_holds(lhs, rhs),
        witness=arg, mode=g.mode if _as_int(p) is not None else FLOAT, seed=seed,
        extra={
            "coarse_sup": coarse,
            "increasing": is_increasing(g, d)[0],
            "superadditive": is_superadditive(g, d)[0],
        },
    )


def verify_gest(
    g: SparseFn, gamma: NodeAddress, p: Scalar, d: TreeDomain,
    seed: Optional[int] = None, enforce_precondition: bool = True,
) -> LemmaReport:
    """sum_{alpha <= gamma} g^p <= lambda g^(p-1)(gamma), lambda = max Ig on supp g."""
    pre_ok, pre_witness = check_power_superadditive(g, d, p)
    if enforce_precondition and not pre_ok:
        raise PreconditionError("g^(p-1) is not superadditive", pre_witness)
    lam = max_hardy_up_on(g, g.support())
    lhs = sum((_pow(v, p) for n, v in g.items() if gamma.contains(n)), _zero(g.mode))
    rhs = lam * _pow(g.get(gamma), p - 1)
    holds = _holds(lhs, rhs)
    return LemmaReport(
        name="gest",
        params={"p": p, "lambda": lam, "gamma": format_node(gamma)},
        lhs=lhs, rhs=rhs, holds=holds,
        witness=None if holds else gamma,
        mode=g.mode if _as_int(p) is not None else FLOAT, seed=seed,
        degenerate=rhs == 0 and lhs > 0,
        extra={"power_superadditive": pre_ok},
    )
