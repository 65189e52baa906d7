"""Hardy operators on trees and bi-trees.

I sums up the graph (over ancestors, inclusive of the evaluation node),
its adjoint I* sums down the graph (over descendants, inclusive).  This
module is the only place that evaluates If, I*g and II*g = I(I*g).  On the
tree two sweeps over path-keyed dicts do it: _up_paths gives If at every
prefix of the requested paths (root first), _down_paths gives I*g at every
prefix of supp g (in support order), and II*g is the one fed into the
other.  On a whole enumerated tree _up_heap gives If at every node of a
list in heap order (node (depth, bits) at (1 << depth) | bits), one add per
node.  Every tree sweep runs on the values trees._path_values gives: int
numerators over one denominator in exact mode, so a Fraction is built only
for a value handed out, and the floats themselves in float mode.  On the
bi-tree, II* of an atomic measure is evaluated through the
common-ancestor kernel (lcp_x + 1)(lcp_y + 1), never by materializing
ancestor sets, so instances with coordinate depths in the hundreds stay
cheap.  eval_hardy_up and eval_hardy_down are the support-scan references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .trees import (
    EXACT,
    BiNode,
    DomainError,
    Node,
    NodeAddress,
    Scalar,
    SparseFn,
    TreeDomain,
    lcp_len,
    _path_values,
    _zero,
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

    def total_mass(self) -> Scalar:
        return sum(m for _, m in self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)


def _is_ancestor(node: Node, of: Node) -> bool:
    return node.contains(of)


def _check_same_domain(f: SparseFn, a: Node) -> None:
    if isinstance(a, BiNode):
        if f.kind != "bitree":
            raise DomainError("tree function evaluated at a bi-tree node")
    else:
        if f.kind != "tree":
            raise DomainError("bi-tree function evaluated at a tree node")


def eval_hardy_up(f: SparseFn, a: Node) -> Scalar:
    """If(a): the sum of f over all ancestors of a, inclusive."""
    _check_same_domain(f, a)
    acc = _zero(f.mode)
    for node, v in f.items():
        if _is_ancestor(node, a):
            acc += v
    return acc


def eval_hardy_down(g: SparseFn, a: Node) -> Scalar:
    """I*g(a): the sum of g over all descendants of a, inclusive.

    Support-scan based: cost proportional to the support size, no subtree
    materialization.
    """
    _check_same_domain(g, a)
    acc = _zero(g.mode)
    for node, v in g.items():
        if _is_ancestor(a, node):
            acc += v
    return acc


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
    _path_values gives them.  A node outside d raises DomainError."""
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


def hardy_up_table(f: SparseFn, nodes: Iterable[NodeAddress]) -> dict[NodeAddress, Scalar]:
    """If at every requested tree node, in one sweep over their paths."""
    if f.kind != "tree":
        raise DomainError("hardy_up_table expects a tree function")
    nodes = list(nodes)
    values, den = _path_values(f)
    if f.mode != EXACT:
        up = _up_paths(values, (n.path for n in nodes), 0.0)
        return {n: up[n.path] for n in nodes}
    up = _up_paths(values, (n.path for n in nodes), 0)
    return {n: Fraction(up[n.path], den) for n in nodes}


def _iistar_paths(g: SparseFn, paths: Iterable[str]) -> tuple[dict[str, Scalar], int]:
    """II*g = I(I*g) at every prefix of the given paths of g's tree, and the
    denominator the values are over, as _path_values gives them."""
    values, den = _path_values(g)
    zero = 0 if g.mode == EXACT else 0.0
    return _up_paths(_down_paths(values, zero), paths, zero), den


def _iistar_at(g: SparseFn, nodes: Iterable[Node]) -> dict[Node, Scalar]:
    """II*g = I(I*g) at every given node of g's domain.

    On the tree, the I sweep over the I* sweep; on the bi-tree, the
    potential of g's atoms through the common-ancestor kernel.
    """
    nodes = list(nodes)
    if g.kind == "tree":
        up, den = _iistar_paths(g, (n.path for n in nodes))
        if g.mode != EXACT:
            return {n: up[n.path] for n in nodes}
        return {n: Fraction(up[n.path], den) for n in nodes}
    m = PointMeasure.of(g.items())
    return {n: potential(m, n) for n in nodes}


def potential(m: PointMeasure, a: BiNode) -> Scalar:
    """II*m(a), through the common-ancestor kernel.

    Equals the sum of I*m over all rectangles containing a: each atom is
    counted once per common ancestor in each coordinate.
    """
    acc = 0
    ax, ay = a.x.path, a.y.path
    for node, mass in m.atoms:
        acc += mass * (lcp_len(ax, node.x.path) + 1) * (lcp_len(ay, node.y.path) + 1)
    return acc


def energy(m: PointMeasure) -> Scalar:
    """E(m) = sum over atom pairs of mass_a mass_b (lcp_x+1)(lcp_y+1)."""
    acc = 0
    atoms = m.atoms
    for i, (a, ma) in enumerate(atoms):
        # diagonal term
        acc += ma * ma * (a.x.depth + 1) * (a.y.depth + 1)
        for b, mb in atoms[i + 1:]:
            k = (lcp_len(a.x.path, b.x.path) + 1) * (lcp_len(a.y.path, b.y.path) + 1)
            acc += 2 * ma * mb * k
    return acc


def kernel(a: BiNode, b: BiNode) -> int:
    """Number of common ancestors of two bi-tree nodes (rectangle count)."""
    return (lcp_len(a.x.path, b.x.path) + 1) * (lcp_len(a.y.path, b.y.path) + 1)


def rectangle_mass_fn(m: PointMeasure, mode: str = "exact") -> SparseFn:
    """The rectangle-mass function R(q) = m({atoms inside q}).

    Supported on the (finite) set of rectangles that contain at least one
    atom and have both coordinates among atom-path prefixes; this is the
    measure-theoretic reading of "m(gamma x beta')" used by the special-form
    construction.  The masses are added on (x path, y path) keys, as int
    numerators over the lcm of their denominators when every mass is exact,
    and as the masses themselves, in atom order, when one is a float.
    """
    atoms = m.atoms
    den = None
    if not any(isinstance(mass, float) for _, mass in atoms):
        den = 1
        for _, mass in atoms:
            den = math.lcm(den, mass.denominator)
    sums: dict[tuple[str, str], Scalar] = {}
    for node, mass in atoms:
        if den is not None:
            mass = mass.numerator * (den // mass.denominator)
        xp, yp = node.x.path, node.y.path
        ys = [yp[:j] for j in range(len(yp) + 1)]
        for i in range(len(xp) + 1):
            x = xp[:i]
            for y in ys:
                sums[x, y] = sums.get((x, y), 0) + mass
    addr = {path: NodeAddress(path) for path in {path for key in sums for path in key}}
    out = {}
    for (x, y), v in sums.items():
        if den is not None:
            v = Fraction(v, den) if mode == EXACT else v / den
        out[BiNode(addr[x], addr[y])] = v
    return SparseFn.bitree(out, mode)


def ancestor_closure(nodes: Sequence[NodeAddress]) -> list[NodeAddress]:
    """All distinct prefixes of the given tree paths, sorted by depth."""
    seen: set[str] = set()
    for n in nodes:
        p = n.path
        for i in range(len(p) + 1):
            seen.add(p[:i])
    return [NodeAddress(p) for p in sorted(seen, key=lambda s: (len(s), s))]
