"""Structural predicates on tree functions and the special-form constructor.

A function is superadditive when every node dominates the sum over its
children (Definition of the children-sum inequality); "increasing" is
formalized as non-decreasing toward the root along every path.  Both
predicates only visit the support and parents of support: nodes whose
children are all zero satisfy the inequalities trivially; a failing check
names its witness by path.  The special-form constructor reads rectangle
masses, int numerators keyed by (x path, y path) over one denominator, and
builds a function on the tree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .trees import EXACT, FLOAT, Scalar, SparseFn, TreeDomain, _as_int

FLOAT_REL_TOL = 1e-9


def _tol_for(mode: str, scale: Scalar) -> Scalar:
    if mode == EXACT:
        return 0
    return FLOAT_REL_TOL * max(1.0, abs(float(scale)))


def is_superadditive(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[str]]:
    """Check g(beta) >= sum over children of g; returns a witness on failure.

    Only parents of support nodes can violate the inequality, so one pass
    over the support suffices.  The values are compared as g holds them,
    int numerators in exact mode.
    """
    return _superadditive(g.values, g.mode, d)


def _superadditive(values: dict[str, Scalar], mode: str,
                   d: TreeDomain) -> tuple[bool, Optional[str]]:
    """is_superadditive on path-keyed values in the given mode, all over one
    denominator."""
    d.require(values)
    parents = {path[:-1] for path in values if path}
    for path in sorted(parents, key=lambda p: (len(p), p)):
        child_sum = values.get(path + "0", 0) + values.get(path + "1", 0)
        if values.get(path, 0) < child_sum - _tol_for(mode, child_sum):
            return False, path
    return True, None


def is_increasing(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[str]]:
    """Check g is non-decreasing toward the root; witness is the offending child."""
    values = g.values
    for path in sorted(values, key=lambda p: (len(p), p)):
        if len(path) > d.max_depth:
            d.require((path,))
        if not path:
            continue
        v = values[path]
        if values.get(path[:-1], 0) < v - _tol_for(g.mode, v):
            return False, path
    return True, None


def special_form_g(m: tuple[dict[tuple[str, str], int], int], beta: str,
                   p: Scalar) -> SparseFn:
    """The special-form function g(gamma) = sum_{beta' >= beta} m(gamma x beta')^(q-1),
    q = p/(p-1) the Holder conjugate of p > 1, at the node with path beta.

    m is a rectangle-mass function as hardy.rectangle_mass_fn gives it: int
    numerators keyed by (x path, y path) over one denominator.  Feeding it
    the masses of an atomic measure reproduces the measure construction
    whose power g^(p-1) is superadditive by Minkowski.  g is exact when
    q - 1 is integral, and a float function otherwise.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if isinstance(p, (int, Fraction)):
        # q - 1 = 1/(p - 1) = b/(a - b) for p = a/b, so p = 2 gives exactly 1
        a, b = p.numerator, p.denominator
        e_int, e = (b // (a - b), None) if b % (a - b) == 0 else (None, b / (a - b))
    else:
        e = p / (p - 1.0) - 1
        e_int = _as_int(e)
    sums, den = m
    out: dict[str, Scalar] = {}
    if e_int is not None:
        # beta' = y contains beta; int numerators to the power e over den^e
        for (x, y), s in sums.items():
            if beta.startswith(y):
                out[x] = out.get(x, 0) + s ** e_int
        return SparseFn(out, den ** e_int, EXACT)
    for (x, y), s in sums.items():
        if beta.startswith(y):
            out[x] = out.get(x, 0) + (s / den) ** e
    return SparseFn(out, 1, FLOAT)


def check_power_superadditive(
    g: SparseFn, d: TreeDomain, p: Scalar
) -> tuple[bool, Optional[str]]:
    """Apply the superadditivity check to the pointwise power g^(p-1).

    In exact mode at integral p - 1 the check runs on g's int numerators
    raised to p - 1, all over the same power of g's denominator; otherwise
    on the floats (v / den) ** (p - 1), in float mode.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    e = _as_int(p - 1)
    if e is not None and g.mode == EXACT:
        return _superadditive({path: v ** e for path, v in g.values.items()}, EXACT, d)
    ef, den = float(p - 1), g.den
    return _superadditive({path: (v / den) ** ef for path, v in g.values.items()}, FLOAT, d)
