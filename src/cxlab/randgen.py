"""Seeded random instance generators for the property suites.

All values are dyadic rationals so the exact-mode suites stay exact; every
generator is a pure function of its Random instance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .trees import BiNode, EXACT, NodeAddress, Scalar, SparseFn, TreeDomain
from .hardy import PointMeasure, rectangle_mass_fn


def dyadic(rng: random.Random, den: int = 16, lo: int = 0, hi: int = 16) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def random_path(rng: random.Random, max_depth: int) -> str:
    depth = rng.randint(0, max_depth)
    return "".join(rng.choice("01") for _ in range(depth))


def _entry(num: int, den: int, mode: str) -> Scalar:
    """num/den as the mode's scalar; an int quotient is correctly rounded, so
    a float equals the float of the Fraction."""
    return Fraction(num, den) if mode == EXACT else num / den


def random_superadditive(
    rng: random.Random, d: TreeDomain, max_support: int = 30, mode: str = EXACT,
) -> SparseFn:
    """Top-down construction: each node's children sum to at most its value.

    A child total is its parent times a/16 and the left child that total
    times b/16 (a, b drawn as dyadic draws them), so a value at depth k is an
    int numerator over 16^(2k+1).
    """
    entries: dict[NodeAddress, Scalar] = {}
    frontier = [("", rng.randint(1, 16))]
    while frontier and len(entries) < max_support:
        path, num = frontier.pop(rng.randrange(len(frontier)))
        entries[NodeAddress(path)] = _entry(num, 16 ** (2 * len(path) + 1), mode)
        if len(path) < d.max_depth and rng.random() < 0.75:
            child_total = num * rng.randint(0, 16)
            left = child_total * rng.randint(0, 16)
            right = child_total * 16 - left
            for bit, v in (("0", left), ("1", right)):
                if v > 0:
                    frontier.append((path + bit, v))
    return SparseFn.tree(entries, mode)


def random_increasing(
    rng: random.Random, d: TreeDomain, max_support: int = 30, mode: str = EXACT,
) -> SparseFn:
    """Top-down construction: each child value is at most its parent's.

    A child value is its parent's times a/16 (a drawn as dyadic draws it), so
    a value at depth k is an int numerator over 16^(k+1).
    """
    entries: dict[NodeAddress, Scalar] = {}
    frontier = [("", rng.randint(1, 16))]
    while frontier and len(entries) < max_support:
        path, num = frontier.pop(rng.randrange(len(frontier)))
        entries[NodeAddress(path)] = _entry(num, 16 ** (len(path) + 1), mode)
        if len(path) < d.max_depth and rng.random() < 0.75:
            for bit in "01":
                v = num * rng.randint(0, 16)
                if v > 0 and rng.random() < 0.8:
                    frontier.append((path + bit, v))
    return SparseFn.tree(entries, mode)


def random_sparse(
    rng: random.Random, d: TreeDomain, max_support: int = 12, mode: str = EXACT,
) -> SparseFn:
    entries: dict[NodeAddress, Fraction] = {}
    for _ in range(rng.randint(1, max_support)):
        v = dyadic(rng)
        if v > 0:
            entries[NodeAddress(random_path(rng, d.max_depth))] = v
    return SparseFn.tree(entries, mode)


# k/4 for k = 0..16, in each scalar mode
_QUARTERS = tuple(Fraction(k, 4) for k in range(17))
_QUARTERS_FLOAT = tuple(k / 4 for k in range(17))


def random_quarter_weight(
    rng: random.Random, nodes, mode: str = EXACT,
) -> tuple[SparseFn, list[int]]:
    """A weight in {1/4 .. 4} on a sequence of nodes (dyadic steps), and
    its numerators over 4 in node order: one randint(1, 16) per node."""
    randint = rng.randint
    numerators = [randint(1, 16) for _ in nodes]
    quarters = _QUARTERS if mode == EXACT else _QUARTERS_FLOAT
    w = SparseFn.tree({n: quarters[k] for n, k in zip(nodes, numerators)}, mode)
    return w, numerators


def random_point_measure(
    rng: random.Random, levels_x: int, levels_y: int, max_atoms: int = 5,
) -> PointMeasure:
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        node = BiNode(
            NodeAddress(random_path(rng, levels_x - 1)),
            NodeAddress(random_path(rng, levels_y - 1)),
        )
        atoms.append((node, Fraction(rng.randint(1, 16), 16)))
    return PointMeasure.of(atoms)


def random_special_form_measure(
    rng: random.Random, levels_x: int, levels_y: int, max_atoms: int = 5,
) -> SparseFn:
    """The rectangle-mass function of a random atomic measure.

    This is the measure reading of the special-form construction; feeding it
    to special_form_g yields a g whose power g^(p-1) is superadditive.
    """
    return rectangle_mass_fn(random_point_measure(rng, levels_x, levels_y, max_atoms))
