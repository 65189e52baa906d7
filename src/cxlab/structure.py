"""Structural predicates on tree functions and the special-form constructor.

A function is superadditive when every node dominates the sum over its
children (Definition of the children-sum inequality); "increasing" is
formalized as non-decreasing toward the root along every path.  Both
predicates only visit the support and parents of support: nodes whose
children are all zero satisfy the inequalities trivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .trees import (
    EXACT,
    NodeAddress,
    Scalar,
    SparseFn,
    TreeDomain,
    _as_int,
    _path_values,
)

FLOAT_REL_TOL = 1e-9


@dataclass(frozen=True)
class ExponentPair:
    """An exponent p > 1 together with its Holder conjugate q = p/(p-1)."""

    p: Scalar

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError(f"p must exceed 1, got {self.p}")

    @property
    def q(self) -> Scalar:
        p = self.p
        if isinstance(p, (int, Fraction)):
            return Fraction(p) / (Fraction(p) - 1)
        return p / (p - 1.0)


def _tol_for(g: SparseFn, scale: Scalar) -> Scalar:
    if g.mode == EXACT:
        return 0
    return FLOAT_REL_TOL * max(1.0, abs(float(scale)))


def is_superadditive(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[NodeAddress]]:
    """Check g(beta) >= sum over children of g; returns a witness on failure.

    Only parents of support nodes can violate the inequality, so one pass
    over the support suffices.  The values are compared as _path_values
    gives them, int numerators in exact mode.
    """
    if g.kind != "tree":
        raise ValueError("is_superadditive expects a tree function")
    values, _ = _path_values(g)
    parents: set[str] = set()
    for path in values:
        if len(path) > d.max_depth:
            d.require(NodeAddress(path))
        if path:
            parents.add(path[:-1])
    for path in sorted(parents, key=lambda p: (len(p), p)):
        child_sum = values.get(path + "0", 0) + values.get(path + "1", 0)
        if values.get(path, 0) < child_sum - _tol_for(g, child_sum):
            return False, NodeAddress(path)
    return True, None


def is_increasing(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[NodeAddress]]:
    """Check g is non-decreasing toward the root; witness is the offending child."""
    if g.kind != "tree":
        raise ValueError("is_increasing expects a tree function")
    values, _ = _path_values(g)
    for path in sorted(values, key=lambda p: (len(p), p)):
        if len(path) > d.max_depth:
            d.require(NodeAddress(path))
        if not path:
            continue
        v = values[path]
        if values.get(path[:-1], 0) < v - _tol_for(g, v):
            return False, NodeAddress(path)
    return True, None


def special_form_g(m: SparseFn, beta: NodeAddress, pq: ExponentPair) -> SparseFn:
    """The special-form function g(gamma) = sum_{beta' >= beta} m(gamma x beta')^(q-1).

    m is a bi-tree function read as rectangle values; feeding it the
    rectangle-mass function of an atomic measure reproduces the measure
    construction whose power g^(p-1) is superadditive by Minkowski.
    """
    if m.kind != "bitree":
        raise ValueError("special_form_g expects a bi-tree function m")
    e = pq.q - 1
    e_int = _as_int(e)
    beta_path = beta.path
    # beta' = node.y contains beta
    picked = [(node.x, v) for node, v in m.items() if beta_path.startswith(node.y.path)]
    out: dict[NodeAddress, Scalar] = {}
    if m.mode == EXACT and e_int is not None:
        # int numerators over den, to the power e over den^e
        den = 1
        for _, v in picked:
            den = math.lcm(den, v.denominator)
        for x, v in picked:
            out[x] = out.get(x, 0) + (v.numerator * (den // v.denominator)) ** e_int
        den **= e_int
        return SparseFn.tree({x: Fraction(s, den) for x, s in out.items()}, EXACT)
    for x, v in picked:
        out[x] = out.get(x, 0) + float(v) ** float(e)
    return SparseFn.tree(out, "float")


def check_power_superadditive(
    g: SparseFn, d: TreeDomain, p: Scalar
) -> tuple[bool, Optional[NodeAddress]]:
    """Apply the superadditivity check to the pointwise power g^(p-1)."""
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    return is_superadditive(g.power(p - 1), d)
