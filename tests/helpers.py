"""Generators and brute-force references that only the tests use."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

import numpy as np

from cxlab.capacity import EquilibriumResult
from cxlab.counterexamples import _half_pow
from cxlab.hardy import PointMeasure
from cxlab.randgen import dyadic, random_path
from cxlab.trees import (
    EXACT, BiNode, NodeAddress, ResourceError, Scalar, SparseFn, TreeDomain, _zero,
)

_MATERIALIZE_LEVELS = 12


def atoms_fn(m: PointMeasure, mode: str = EXACT) -> SparseFn:
    """The measure as a bi-tree SparseFn of atom masses."""
    out: dict[BiNode, Scalar] = {}
    for node, mass in m.atoms:
        out[node] = out.get(node, 0) + mass
    return SparseFn.bitree(out, mode)


def random_bitree_sparse(
    rng: random.Random, levels_x: int, levels_y: int, max_support: int = 10,
    mode: str = EXACT,
) -> SparseFn:
    entries: dict[BiNode, Fraction] = {}
    for _ in range(rng.randint(1, max_support)):
        v = dyadic(rng)
        if v > 0:
            node = BiNode(
                NodeAddress(random_path(rng, levels_x - 1)),
                NodeAddress(random_path(rng, levels_y - 1)),
            )
            entries[node] = v
    return SparseFn.bitree(entries, mode)


def random_family(rng: random.Random, max_members: int = 6, max_depth: int = 3) -> list[BiNode]:
    members = []
    for _ in range(rng.randint(1, max_members)):
        members.append(BiNode(
            NodeAddress(random_path(rng, max_depth)),
            NodeAddress(random_path(rng, max_depth)),
        ))
    return members


def iistar_bitree_scan(g: SparseFn, node: BiNode) -> Scalar:
    """II*g at a bi-tree node by scanning the support once per containing
    rectangle: O(depth^2 |supp g|), no kernel."""
    acc = _zero(g.mode)
    for xp_len in range(node.x.depth + 1):
        for yp_len in range(node.y.depth + 1):
            xp = node.x.path[:xp_len]
            yp = node.y.path[:yp_len]
            for n, v in g.items():
                if n.x.path.startswith(xp) and n.y.path.startswith(yp):
                    acc += v
    return acc


def rho_full(eq: EquilibriumResult, classes: Sequence[Sequence[int]]) -> np.ndarray:
    """The equilibrium mass of every family member, from one mass per class."""
    out = np.zeros(sum(len(c) for c in classes))
    for t, members in zip(eq.rho, classes):
        out[members] = t
    return out


# The counterexample instances, built node by node: the oracles for the
# closed-form sums in cxlab.counterexamples.

def build_cex_p_less_2_functions(k: int) -> tuple[TreeDomain, SparseFn, SparseFn]:
    """g = 2^-i on all of generation i <= k, then 2^-k pushed to left children
    only; f = 2^-i on supp g."""
    levels = k + 2 ** k + 1
    d = TreeDomain(levels)
    g_entries: dict[NodeAddress, Fraction] = {}
    f_entries: dict[NodeAddress, Fraction] = {}
    frontier = [""]
    for i in range(k + 1):
        for path in frontier:
            node = NodeAddress(path)
            g_entries[node] = _half_pow(i)
            f_entries[node] = _half_pow(i)
        if i < k:
            frontier = [p + b for p in frontier for b in "01"]
    for path in frontier:  # generation-k nodes, value kept on left children
        for t in range(1, 2 ** k + 1):
            node = NodeAddress(path + "0" * t)
            g_entries[node] = _half_pow(k)
            f_entries[node] = _half_pow(k + t)
    return d, SparseFn.tree(f_entries), SparseFn.tree(g_entries)


def doubling_g_fn(N: int) -> SparseFn:
    """The halve-left/keep-right g on all levels 0..N-1: value 2^-(zero bits)."""
    if N > _MATERIALIZE_LEVELS:
        raise ResourceError(f"refusing to materialize 2^{N}-1 nodes")
    entries = {}
    frontier = [""]
    for _ in range(N):
        for path in frontier:
            entries[NodeAddress(path)] = _half_pow(path.count("0"))
        frontier = [p + b for p in frontier for b in "01"]
    return SparseFn.tree(entries)


def leftmost_path_fn(N: int) -> SparseFn:
    """f = 1 on the leftmost root-to-leaf path."""
    return SparseFn.tree({NodeAddress("0" * i): Fraction(1) for i in range(N)})
