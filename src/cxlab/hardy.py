"""Hardy operators on the tree, and atomic measures on the bi-tree.

I sums up the graph (over ancestors, inclusive of the evaluation node),
its adjoint I* sums down the graph (over descendants, inclusive).  This
module is the only place that evaluates If, I*g and II*g = I(I*g).  Two
sweeps over path-keyed dicts do it: _up_paths gives If at every prefix of
the requested paths (root first), _down_paths gives I*g at every prefix of
supp g (in support order), and II*g is the one fed into the other.  On a
whole enumerated tree _up_heap gives If at every node of a list in heap
order (node (depth, bits) at (1 << depth) | bits), one add per node.  Every
sweep runs on the values trees._path_values gives and hands out values of
the same form, its sweep values: int numerators over the function's one
denominator in exact mode, the floats themselves in float mode.  So
hardy_up_table, the If table the verifiers read, builds no Fraction; its
caller builds one only for a value it reports.  On the bi-tree, kernel
counts the common ancestors of two rectangles as (lcp_x + 1)(lcp_y + 1),
never by materializing ancestor sets, so instances with coordinate depths
in the hundreds stay cheap; it is the kernel of the capacity's energy.
rectangle_mass_fn gives the rectangle masses of an atomic measure that
the special-form construction reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .trees import (
    EXACT,
    BiNode,
    DomainError,
    NodeAddress,
    Scalar,
    SparseFn,
    TreeDomain,
    lcp_len,
    _path_values,
)


@dataclass(frozen=True)
class PointMeasure:
    """A finite list of (bi-tree node, mass) atoms; all masses positive."""

    atoms: tuple[tuple[BiNode, Scalar], ...]

    def __post_init__(self):
        for node, mass in self.atoms:
            if not isinstance(node, BiNode):
                raise DomainError("PointMeasure atoms live on the bi-tree")
            if mass <= 0:
                raise ValueError(f"atom mass must be positive, got {mass}")

    @classmethod
    def of(cls, atoms: Iterable[tuple[BiNode, Scalar]]) -> "PointMeasure":
        return cls(tuple(atoms))


def _up_paths(values: dict[str, Scalar], paths: Iterable[str],
              zero: Scalar) -> dict[str, Scalar]:
    """I of a path-keyed function at every prefix of the given paths.

    Each path walks up to its deepest prefix already known, then down again,
    adding a value only where the function is supported; every sum runs
    root first.  Cost is proportional to the number of distinct prefixes, so
    ancestor-closed node sets (the common case here) are linear.
    """
    memo = {"": values.get("", zero)}
    for path in paths:
        i = len(path)
        while path[:i] not in memo:
            i -= 1
        acc = memo[path[:i]]
        for j in range(i + 1, len(path) + 1):
            q = path[:j]
            v = values.get(q)
            if v is not None:
                acc = acc + v
            memo[q] = acc
    return memo


def _down_paths(values: dict[str, Scalar], zero: Scalar) -> dict[str, Scalar]:
    """I* of a path-keyed function at every prefix of its support, each sum
    taken in support order."""
    out: dict[str, Scalar] = {}
    for path, v in values.items():
        for i in range(len(path) + 1):
            q = path[:i]
            out[q] = out.get(q, zero) + v
    return out


def _heap_values(f: SparseFn, d: TreeDomain) -> tuple[list, int]:
    """f at every node of d in heap order, a list of 2^levels entries with
    entry 0 unused, and the denominator its entries are over, as
    _path_values gives them.  A node outside d raises DomainError, and a
    domain of more than 20 levels ResourceError, before the list is built."""
    d.require_enumerable()
    values, den = _path_values(f)
    up = [0 if f.mode == EXACT else 0.0] * (1 << d.levels)
    # values holds f's entries in f's order
    for n, v in zip(f.support(), values.values()):
        up[d.heap_index(n)] = v
    return up, den


def _up_heap(up: list) -> list:
    """I in place over a tree function held in heap order (entry 0 unused).

    Each entry gains its parent's finished sum, parents first, so every sum
    runs root first as in _up_paths and a float sum rounds the same way.
    """
    for k in range(2, len(up)):
        up[k] += up[k >> 1]
    return up


def hardy_up_table(f: SparseFn, nodes: Iterable[NodeAddress]) -> dict[str, Scalar]:
    """If at every requested tree node, in one sweep over their paths.

    The table is keyed by each requested node's path, one entry per distinct
    node, and holds sweep values: int numerators over the denominator of
    _path_values(f) in exact mode, the float sums in float mode.  A caller
    builds a Fraction only for a value it hands out.
    """
    paths = [n.path for n in nodes]
    values, _ = _path_values(f)
    up = _up_paths(values, paths, 0 if f.mode == EXACT else 0.0)
    return {path: up[path] for path in paths}


def _iistar_paths(g: SparseFn, paths: Iterable[str]) -> tuple[dict[str, Scalar], int]:
    """II*g = I(I*g) at every prefix of the given paths of g's tree, and the
    denominator the values are over, as _path_values gives them."""
    values, den = _path_values(g)
    zero = 0 if g.mode == EXACT else 0.0
    return _up_paths(_down_paths(values, zero), paths, zero), den


def kernel(a: BiNode, b: BiNode) -> int:
    """Number of common ancestors of two bi-tree nodes (rectangle count)."""
    return (lcp_len(a.x.path, b.x.path) + 1) * (lcp_len(a.y.path, b.y.path) + 1)


def rectangle_mass_fn(m: PointMeasure) -> dict[BiNode, Fraction]:
    """The rectangle-mass function R(q) = m({atoms inside q}) of a measure
    with exact masses, keyed in atom order.

    Supported on the (finite) set of rectangles that contain at least one
    atom and have both coordinates among atom-path prefixes; this is the
    measure-theoretic reading of "m(gamma x beta')" used by the special-form
    construction.  The masses are added on (x path, y path) keys as int
    numerators over the lcm of their denominators, and each sum is handed
    out as a Fraction.  A float mass raises ValueError before any sum.
    """
    atoms = m.atoms
    den = 1
    for node, mass in atoms:
        if not isinstance(mass, (int, Fraction)):
            raise ValueError(f"rectangle masses take exact atom masses only, "
                             f"got {type(mass).__name__} {mass!r} at {node}")
        den = math.lcm(den, mass.denominator)
    sums: dict[tuple[str, str], int] = {}
    for node, mass in atoms:
        mass = mass.numerator * (den // mass.denominator)
        xp, yp = node.x.path, node.y.path
        ys = [yp[:j] for j in range(len(yp) + 1)]
        for i in range(len(xp) + 1):
            x = xp[:i]
            for y in ys:
                sums[x, y] = sums.get((x, y), 0) + mass
    addr = {path: NodeAddress(path) for path in {path for key in sums for path in key}}
    return {BiNode(addr[x], addr[y]): Fraction(v, den) for (x, y), v in sums.items()}

