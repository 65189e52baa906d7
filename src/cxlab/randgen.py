"""Seeded random instance generators for the property suites.

All values are dyadic rationals so every suite stays exact; every
generator is a pure function of its Random instance.  The tree functions
are SparseFns built from the drawn int numerators over a power of 16, and
the atoms of a bi-tree measure are (x path, y path, k) triples of mass
k/16.

The draw contract: every integer draw goes through _below on the
generator's getrandbits, which takes exactly the bits that the stdlib's
randint, randrange or choice over the same range would take, so any seed
replays the instance those calls drew.  rng.random() and rng.sample are
called as they are.
"""

from __future__ import annotations

import random
from typing import Callable

from .trees import SparseFn, TreeDomain
from .hardy import rectangle_mass_fn


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


def _over_one_power(draws: dict[str, int], base: int, per_level: int) -> SparseFn:
    """The function whose value at path is draws[path] / base^(per_level
    depth + 1), over the power of base that its deepest path needs."""
    top = max(map(len, draws), default=0)
    return SparseFn({path: num * base ** (per_level * (top - len(path)))
                     for path, num in draws.items()},
                    base ** (per_level * top + 1))


def random_superadditive(
    rng: random.Random, d: TreeDomain, max_support: int = 30,
) -> SparseFn:
    """Top-down construction: each node's children sum to at most its value.

    A child total is its parent times a/16 and the left child that total
    times b/16 (a, b drawn as randint(0, 16) draws them), so a value at
    depth k is an int numerator over 16^(2k+1).
    """
    bits, rand = rng.getrandbits, rng.random
    draws: dict[str, int] = {}
    frontier = [("", 1 + _below(bits, 16))]
    while frontier and len(draws) < max_support:
        path, num = frontier.pop(_below(bits, len(frontier)))
        draws[path] = num
        if len(path) < d.max_depth and rand() < 0.75:
            child_total = num * _below(bits, 17)
            left = child_total * _below(bits, 17)
            right = child_total * 16 - left
            for bit, v in (("0", left), ("1", right)):
                if v > 0:
                    frontier.append((path + bit, v))
    return _over_one_power(draws, 16, 2)


def random_increasing(
    rng: random.Random, d: TreeDomain, max_support: int = 30,
) -> SparseFn:
    """Top-down construction: each child value is at most its parent's.

    A child value is its parent's times a/16 (a drawn as randint(0, 16)
    draws it), so a value at depth k is an int numerator over 16^(k+1).
    """
    bits, rand = rng.getrandbits, rng.random
    draws: dict[str, int] = {}
    frontier = [("", 1 + _below(bits, 16))]
    while frontier and len(draws) < max_support:
        path, num = frontier.pop(_below(bits, len(frontier)))
        draws[path] = num
        if len(path) < d.max_depth and rand() < 0.75:
            for bit in "01":
                v = num * _below(bits, 17)
                if v > 0 and rand() < 0.8:
                    frontier.append((path + bit, v))
    return _over_one_power(draws, 16, 1)


def random_sparse(
    rng: random.Random, d: TreeDomain, max_support: int = 12,
) -> SparseFn:
    """Up to max_support values k/16, k drawn as randint(0, 16) draws it,
    each nonzero one at a path of depth drawn as randint(0, max_depth) and
    then that many choice("01") bits; a repeated path keeps its first place
    and its last value."""
    bits = rng.getrandbits
    depths = d.max_depth + 1
    draws: dict[str, int] = {}
    for _ in range(1 + _below(bits, max_support)):
        num = _below(bits, 17)
        if num:
            draws[_random_bits(bits, _below(bits, depths))] = num
    return SparseFn(draws, 16)


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


def random_special_form_measure(
    rng: random.Random, levels_x: int, levels_y: int, max_atoms: int = 5,
) -> tuple[dict[tuple[str, str], int], int]:
    """The exact rectangle masses, as hardy.rectangle_mass_fn gives them, of
    1 to max_atoms atoms (x path, y path, k) of mass k/16: each path of a
    depth drawn as randint(0, levels - 1) draws it and then that many
    choice("01") bits, x before y, and k drawn as randint(1, 16).

    This is the measure reading of the special-form construction; feeding it
    to special_form_g yields a g whose power g^(p-1) is superadditive.
    """
    bits = rng.getrandbits
    atoms = []
    for _ in range(1 + _below(bits, max_atoms)):
        x = _random_bits(bits, _below(bits, levels_x))
        y = _random_bits(bits, _below(bits, levels_y))
        atoms.append((x, y, 1 + _below(bits, 16)))
    return rectangle_mass_fn(atoms)
