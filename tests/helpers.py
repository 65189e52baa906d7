"""Generators and brute-force references that only the tests use."""

from __future__ import annotations

import random
from fractions import Fraction

from cxlab.hardy import PointMeasure
from cxlab.randgen import dyadic, random_path
from cxlab.trees import EXACT, BiNode, NodeAddress, Scalar, SparseFn, _zero


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
