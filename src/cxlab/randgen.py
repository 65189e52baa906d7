"""Seeded random instance generators for the property suites.

All values are dyadic rationals so the exact-mode suites stay exact; every
generator is a pure function of its Random instance.

The draw contract: every integer draw goes through _below on the
generator's getrandbits, which takes exactly the bits that the stdlib's
randint, randrange or choice over the same range would take, so any seed
replays the instance those calls drew.  rng.random() and rng.sample are
called as they are.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .trees import BiNode, EXACT, NodeAddress, Scalar, SparseFn, TreeDomain
from .hardy import PointMeasure, rectangle_mass_fn


def _below(bits: Callable[[int], int], n: int) -> int:
    """A draw from range(n), made as random.Random._randbelow makes it:
    getrandbits(n.bit_length()) until the result is below n.  So it takes
    the same bits as randrange(n), and as randint and choice over n values,
    which add to or index with that draw.  An empty range raises ValueError,
    as randrange does, where the loop would never end."""
    if n < 1:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_bits(bits: Callable[[int], int], n: int) -> str:
    """n path bits, each drawn as choice("01") draws it: _below(bits, 2),
    inlined, as this is the most frequent draw."""
    out = ""
    for _ in range(n):
        r = bits(2)
        while r > 1:
            r = bits(2)
        out += "01"[r]
    return out


def dyadic(rng: random.Random, den: int = 16, lo: int = 0, hi: int = 16) -> Fraction:
    """randint(lo, hi) / den."""
    return Fraction(lo + _below(rng.getrandbits, hi - lo + 1), den)


def random_path(rng: random.Random, max_depth: int) -> str:
    """A depth drawn as randint(0, max_depth), then that many choice("01") bits."""
    bits = rng.getrandbits
    return _random_bits(bits, _below(bits, max_depth + 1))


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
    bits, rand = rng.getrandbits, rng.random
    entries: dict[NodeAddress, Scalar] = {}
    frontier = [("", 1 + _below(bits, 16))]
    while frontier and len(entries) < max_support:
        path, num = frontier.pop(_below(bits, len(frontier)))
        entries[NodeAddress(path)] = _entry(num, 16 ** (2 * len(path) + 1), mode)
        if len(path) < d.max_depth and rand() < 0.75:
            child_total = num * _below(bits, 17)
            left = child_total * _below(bits, 17)
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
    bits, rand = rng.getrandbits, rng.random
    entries: dict[NodeAddress, Scalar] = {}
    frontier = [("", 1 + _below(bits, 16))]
    while frontier and len(entries) < max_support:
        path, num = frontier.pop(_below(bits, len(frontier)))
        entries[NodeAddress(path)] = _entry(num, 16 ** (len(path) + 1), mode)
        if len(path) < d.max_depth and rand() < 0.75:
            for bit in "01":
                v = num * _below(bits, 17)
                if v > 0 and rand() < 0.8:
                    frontier.append((path + bit, v))
    return SparseFn.tree(entries, mode)


def random_sparse(
    rng: random.Random, d: TreeDomain, max_support: int = 12, mode: str = EXACT,
) -> SparseFn:
    """Up to max_support values drawn as dyadic draws them, each nonzero one
    at a path drawn as random_path draws it; a repeated path keeps its
    first place and its last value."""
    bits = rng.getrandbits
    depths = d.max_depth + 1
    entries: dict[NodeAddress, Scalar] = {}
    for _ in range(1 + _below(bits, max_support)):
        num = _below(bits, 17)
        if num:
            path = _random_bits(bits, _below(bits, depths))
            entries[NodeAddress(path)] = _entry(num, 16, mode)
    return SparseFn.tree(entries, mode)


def random_quarters(rng: random.Random, count: int) -> list[int]:
    """count numerators k of weights k/4, each drawn as randint(1, 16):
    getrandbits(5), redrawn above 15, plus 1 (_below(bits, 16) inlined)."""
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(5)
        while r > 15:
            r = bits(5)
        out.append(r + 1)
    return out


def random_point_measure(
    rng: random.Random, levels_x: int, levels_y: int, max_atoms: int = 5,
) -> PointMeasure:
    bits = rng.getrandbits
    atoms = []
    for _ in range(1 + _below(bits, max_atoms)):
        x = _random_bits(bits, _below(bits, levels_x))
        y = _random_bits(bits, _below(bits, levels_y))
        atoms.append((BiNode(NodeAddress(x), NodeAddress(y)),
                      Fraction(1 + _below(bits, 16), 16)))
    return PointMeasure.of(atoms)


def random_special_form_measure(
    rng: random.Random, levels_x: int, levels_y: int, max_atoms: int = 5,
) -> SparseFn:
    """The rectangle-mass function of a random atomic measure.

    This is the measure reading of the special-form construction; feeding it
    to special_form_g yields a g whose power g^(p-1) is superadditive.
    """
    return rectangle_mass_fn(random_point_measure(rng, levels_x, levels_y, max_atoms))
