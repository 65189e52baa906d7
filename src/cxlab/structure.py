"""Structural predicates on tree functions and the special-form constructor.

A function is superadditive when every node dominates the sum over its
children (Definition of the children-sum inequality); "increasing" is
formalized as non-decreasing toward the root along every path.  Both
predicates only visit the support and parents of support: nodes whose
children are all zero satisfy the inequalities trivially; a failing check
names its witness by path.  Every check compares int numerators exactly.
The special-form constructor reads rectangle masses, int numerators keyed
by (x path, y path) over one denominator, and builds a function on the
tree.
"""

from __future__ import annotations

from typing import Optional

from .trees import Scalar, SparseFn, TreeDomain, _as_int


def is_superadditive(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[str]]:
    """Check g(beta) >= sum over children of g; returns a witness on failure.

    Only parents of support nodes can violate the inequality, so one pass
    over the support suffices.  The int numerators are compared exactly.
    """
    return _superadditive(g.values, d)


def _superadditive(values: dict[str, int], d: TreeDomain) -> tuple[bool, Optional[str]]:
    """is_superadditive on path-keyed int numerators over one denominator."""
    d.require(values)
    parents = {path[:-1] for path in values if path}
    for path in sorted(parents, key=lambda p: (len(p), p)):
        if values.get(path, 0) < values.get(path + "0", 0) + values.get(path + "1", 0):
            return False, path
    return True, None


def is_increasing(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[str]]:
    """Check g is non-decreasing toward the root; witness is the offending child."""
    values = g.values
    for path in sorted(values, key=lambda p: (len(p), p)):
        if len(path) > d.max_depth:
            d.require((path,))
        if path and values.get(path[:-1], 0) < values[path]:
            return False, path
    return True, None


def special_form_g(m: tuple[dict[tuple[str, str], int], int], beta: str,
                   p: Scalar) -> SparseFn:
    """The special-form function g(gamma) = sum_{beta' >= beta} m(gamma x beta')^(q-1),
    q = p/(p-1) the Holder conjugate of p > 1, at the node with path beta.

    m is a rectangle-mass function as hardy.rectangle_mass_fn gives it: int
    numerators keyed by (x path, y path) over one denominator.  Feeding it
    the masses of an atomic measure reproduces the measure construction
    whose power g^(p-1) is superadditive by Minkowski.  q - 1 must be
    integral, so that g is exact.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    # q - 1 = 1/(p - 1) = b/(a - b) for p = a/b, so p = 2 gives exactly 1
    a, b = p.as_integer_ratio()
    if b % (a - b):
        raise ValueError(f"q - 1 = 1/(p - 1) must be integral, got p = {p}")
    e = b // (a - b)
    sums, den = m
    out: dict[str, int] = {}
    # beta' = y contains beta; int numerators to the power e over den^e
    for (x, y), s in sums.items():
        if beta.startswith(y):
            out[x] = out.get(x, 0) + s ** e
    return SparseFn(out, den ** e)


def check_power_superadditive(
    g: SparseFn, d: TreeDomain, p: Scalar
) -> tuple[bool, Optional[str]]:
    """Apply the superadditivity check to the pointwise power g^(p-1), on
    g's int numerators raised to p - 1, all over the same power of g's
    denominator.  p - 1 must be integral."""
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    e = _as_int(p - 1)
    if e is None:
        raise ValueError(f"p - 1 must be integral, got p = {p}")
    return _superadditive({path: v ** e for path, v in g.values.items()}, d)
