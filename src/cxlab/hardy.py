"""Hardy operators on trees and bi-trees.

I sums up the graph (over ancestors, inclusive of the evaluation node),
its adjoint I* sums down the graph (over descendants, inclusive).  For atomic
measures the potential II* is evaluated through the common-ancestor kernel
(lcp_x + 1)(lcp_y + 1), never by materializing ancestor sets, so instances
with coordinate depths in the hundreds stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .trees import (
    BiNode,
    DomainError,
    Node,
    NodeAddress,
    Scalar,
    SparseFn,
    lcp_len,
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


def hardy_up_table(f: SparseFn, nodes: Iterable[NodeAddress]) -> dict[NodeAddress, Scalar]:
    """If at every requested tree node, via memoized parent recursion.

    Cost is proportional to the number of distinct prefixes of the requested
    paths, so ancestor-closed supports (the common case here) are linear.
    """
    if f.kind != "tree":
        raise DomainError("hardy_up_table expects a tree function")
    zero = _zero(f.mode)
    values = {n.path: v for n, v in f.items()}
    memo: dict[str, Scalar] = {}

    def up(path: str) -> Scalar:
        got = memo.get(path)
        if got is not None:
            return got
        # iterative ancestor walk: find the deepest memoized prefix
        stack = []
        p = path
        while p not in memo:
            stack.append(p)
            if not p:
                memo[""] = values.get("", zero)
                break
            p = p[:-1]
        while stack:
            q = stack.pop()
            if q in memo:
                continue
            memo[q] = memo[q[:-1]] + values.get(q, zero)
        return memo[path]

    return {n: up(n.path) for n in nodes}


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


def atoms_fn(m: PointMeasure, mode: str = "exact") -> SparseFn:
    """The measure as a bi-tree SparseFn of atom masses."""
    out: dict[BiNode, Scalar] = {}
    for node, mass in m.atoms:
        out[node] = out.get(node, 0) + mass
    return SparseFn.bitree(out, mode)


def rectangle_mass_fn(m: PointMeasure, mode: str = "exact") -> SparseFn:
    """The rectangle-mass function R(q) = m({atoms inside q}).

    Supported on the (finite) set of rectangles that contain at least one
    atom and have both coordinates among atom-path prefixes; this is the
    measure-theoretic reading of "m(gamma x beta')" used by the special-form
    construction.
    """
    out: dict[BiNode, Scalar] = {}
    for node, mass in m.atoms:
        for x in node.x.ancestors():
            for y in node.y.ancestors():
                q = BiNode(x, y)
                out[q] = out.get(q, 0) + mass
    return SparseFn.bitree(out, mode)


def ancestor_closure(nodes: Sequence[NodeAddress]) -> list[NodeAddress]:
    """All distinct prefixes of the given tree paths, sorted by depth."""
    seen: set[str] = set()
    for n in nodes:
        p = n.path
        for i in range(len(p) + 1):
            seen.add(p[:i])
    return [NodeAddress(p) for p in sorted(seen, key=lambda s: (len(s), s))]
