"""Structural predicates on tree functions and the special-form constructor.

A function is superadditive when every node dominates the sum over its
children (Definition of the children-sum inequality); "increasing" is
formalized as non-decreasing toward the root along every path.  Both
predicates only visit the support and parents of support: nodes whose
children are all zero satisfy the inequalities trivially.  The
special-form constructor reads rectangle masses, a mapping from bi-tree
nodes to values, and builds a function on the tree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional

from .trees import (
    EXACT,
    FLOAT,
    BiNode,
    NodeAddress,
    Scalar,
    SparseFn,
    TreeDomain,
    _as_int,
    _path_values,
)

FLOAT_REL_TOL = 1e-9


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


def special_form_g(m: Mapping[BiNode, Scalar], beta: NodeAddress, p: Scalar) -> SparseFn:
    """The special-form function g(gamma) = sum_{beta' >= beta} m(gamma x beta')^(q-1),
    q = p/(p-1) the Holder conjugate of p > 1.

    m maps rectangles to values; feeding it the rectangle masses of an
    atomic measure (hardy.rectangle_mass_fn) reproduces the measure
    construction whose power g^(p-1) is superadditive by Minkowski.  g is
    exact when q - 1 is integral and no value of m that it reads is a
    float, and a float function otherwise.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    # q is a Fraction for an int or Fraction p, so p = 2 gives q - 1 = 1
    q = Fraction(p) / (Fraction(p) - 1) if isinstance(p, (int, Fraction)) else p / (p - 1.0)
    e = q - 1
    e_int = _as_int(e)
    beta_path = beta.path
    # beta' = node.y contains beta
    picked = [(node.x, v) for node, v in m.items() if beta_path.startswith(node.y.path)]
    out: dict[NodeAddress, Scalar] = {}
    if e_int is not None and not any(isinstance(v, float) for _, v in picked):
        # int numerators over den, to the power e over den^e
        den = 1
        for _, v in picked:
            den = math.lcm(den, v.denominator)
        for x, v in picked:
            out[x] = out.get(x, 0) + (v.numerator * (den // v.denominator)) ** e_int
        den **= e_int
        return SparseFn({x: Fraction(s, den) for x, s in out.items()}, EXACT)
    for x, v in picked:
        out[x] = out.get(x, 0) + float(v) ** float(e)
    return SparseFn(out, FLOAT)


def check_power_superadditive(
    g: SparseFn, d: TreeDomain, p: Scalar
) -> tuple[bool, Optional[NodeAddress]]:
    """Apply the superadditivity check to the pointwise power g^(p-1)."""
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    return is_superadditive(g.power(p - 1), d)
