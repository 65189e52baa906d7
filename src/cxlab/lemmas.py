"""Executable verifiers for the embedding lemmas.

Every verifier returns a LemmaReport carrying both sides of the inequality,
their ratio and a witness node, so the same code confirms the true
statements and quantifies the violations.  The thresholds lambda and delta
are always computed as the least admissible values from the instance, which
makes reports canonical and comparable across instance sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional

from .trees import (
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
    _iistar_at,
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

# Full-domain enumeration cutoff for the phi checks; larger domains fall back
# to the support closure (both sides of the checks are constant below it).
_ENUM_LEVELS = 12


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


def _sup_iistar(g: SparseFn, nodes) -> tuple[Scalar, Optional[Node]]:
    """max of II*g over the given nodes and the first node attaining it;
    (0, None) for an empty collection."""
    best, arg = _zero(g.mode), None
    for x, v in _iistar_at(g, nodes).items():
        if v > best:
            best, arg = v, x
    return best, arg


def sup_iistar_refined(g: SparseFn, f: SparseFn) -> tuple[Scalar, Optional[Node]]:
    """sup of II*g with the ancestor-walk refinement toward supp f.

    For every support node of g the deepest f-supported ancestor carries the
    same value of I(I*g 1_{supp f}), which the proof bounds by II*g there;
    support points of g with no f-supported ancestor contribute zero.
    """
    if g.kind != "tree":
        # bi-tree: no maximum principle, use the plain support sup of II*g
        return _sup_iistar(g, g.support())
    f_paths = {n.path for n in f.support()}
    ancestors = []
    for x in g.support():
        p = x.path
        for i in range(len(p), -1, -1):
            if p[:i] in f_paths:
                ancestors.append(NodeAddress(p[:i]))
                break
    return _sup_iistar(g, ancestors)


def sup_iistar_intersection(g: SparseFn, f: SparseFn) -> tuple[Scalar, Optional[Node]]:
    """sup of II*g over supp g intersected with supp f (tree only); nodes
    are visited in supp g order, so a tie keeps the first in that order."""
    f_support = set(f.support())
    return _sup_iistar(g, [x for x in g.support() if x in f_support])


def sup_iistar_support(g: SparseFn) -> Scalar:
    """The coarser sup of II*g over supp g, reported for comparison."""
    return _sup_iistar(g, g.support())[0]


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
    sup, arg = sup_iistar_refined(g, f)
    sum_f2 = sum((v * v for _, v in f.items()), _zero(f.mode))
    rhs = sup * sum_f2
    return LemmaReport(
        name="I2_positive",
        params={"sup_iistar": sup},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        witness=arg, mode=g.mode, seed=seed,
        extra={"coarse_sup": sup_iistar_support(g)},
    )


def build_phi(
    w: SparseFn, g: SparseFn, f: SparseFn, lam: Scalar, delta: Scalar,
    d: TreeDomain, seed: Optional[int] = None, iwg: Optional[dict] = None,
) -> tuple[SparseFn, LemmaReport]:
    """The indicator-weighted majorant phi and its two proof-traced checks.

    phi(a) = (1/lambda) [delta < I(wg)(a) <= 2 lambda] I(wf)(a) g(a);
    check (a): I(w phi) >= (1/4) I(wf) on {lambda/2 < I(wg) <= 2 lambda};
    check (b): sum w phi^2 <= 2 (delta/lambda) sum w f^2.

    iwg is I(wg) at every node of d, when the caller has already swept it;
    swept here when None.  On an enumerated domain its keys, in order, are
    the nodes check (a) visits.  A table that lacks a node read here raises
    ValueError.
    """
    ok, witness = is_superadditive(g, d)
    if not ok:
        raise PreconditionError("g is not superadditive", witness)
    if lam < 4 * delta:
        raise PreconditionError(f"lambda >= 4*delta required (lambda={lam}, delta={delta})")
    wf = w.mul(f)

    # On an enumerated domain check_nodes already holds supp g (the
    # superadditivity check keeps supp g inside d), so I(wf) is swept over
    # check_nodes as they are; the support closure may miss supp g.
    if d.levels > _ENUM_LEVELS:
        base = list(w.mul(g).support()) + list(wf.support())
        check_nodes = ancestor_closure(base)
        check_nodes += [c for n in check_nodes for c in d.children(n)]
        check_nodes = list(dict.fromkeys(check_nodes))
        wf_nodes = set(check_nodes) | set(g.support())
    elif iwg is None:
        check_nodes = wf_nodes = list(d.nodes())
    elif len(iwg) != d.node_count:
        raise ValueError(f"iwg holds {len(iwg)} nodes, the domain has {d.node_count}")
    else:
        check_nodes = wf_nodes = list(iwg)

    if iwg is None:
        iwg = hardy_up_table(w.mul(g), set(check_nodes) | set(f.support()) | set(g.support()))
    else:
        read = chain(f.support(), g.support())
        if d.levels > _ENUM_LEVELS:  # else the check nodes are the table's keys
            read = chain(check_nodes, read)
        for node in read:
            if node not in iwg:
                raise ValueError(f"iwg lacks I(wg) at {format_node(node)}")
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
    sup, arg = sup_iistar_intersection(g, f)
    sum_fp = sum((_pow(v, p) for _, v in f.items()), _zero(f.mode))
    rhs = sup * sum_fp
    return LemmaReport(
        name="new23",
        params={"p": p, "sup_iistar": sup},
        lhs=lhs, rhs=rhs, holds=_holds(lhs, rhs),
        witness=arg, mode=g.mode if _as_int(p) is not None else FLOAT, seed=seed,
        extra={
            "coarse_sup": sup_iistar_support(g),
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
