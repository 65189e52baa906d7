"""Dyadic trees and sparse functions on the tree.

A tree node is a dyadic interval, written as its bit path: bit 0 is the
left ("minus") child, bit 1 the right ("plus") child, and the root is the
empty path.  A bi-tree node is a dyadic rectangle, the pair (x path,
y path); the partial order is containment: a <= b iff both of b's
coordinate paths are prefixes of a's (smaller = deeper).  Every function
the verifiers take is a SparseFn on the tree; the bi-tree appears only as
the atoms and rectangles of the capacity and of the special-form
construction.

A SparseFn keeps its values in the one form every sweep, verifier and
structure check reads: a dict keyed by path, of int numerators over one
int denominator.  The generators and constructions hand in the numerators
they already hold.  How a report renders the values it decides on is the
verifier's choice, not the function's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[Fraction, float, int]


class DomainError(ValueError):
    """A node or function does not belong to the expected domain."""


class PreconditionError(ValueError):
    """A documented precondition of an operation failed."""

    def __init__(self, condition: str, witness: str | None = None):
        self.condition = condition
        self.witness = witness
        msg = condition if witness is None else f"{condition} (witness: {witness or '(root)'})"
        super().__init__(msg)


class ResourceError(RuntimeError):
    """A requested instance exceeds the configured resource budget."""


def lcp_len(a: str, b: str) -> int:
    """Length of the longest common prefix of two bit strings.

    Binary search over prefix equality so that long all-zero paths (depths in
    the hundreds on the bi-tree instances) compare at memcmp speed.
    """
    if a == b:
        return len(a)
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass(frozen=True)
class TreeDomain:
    """A full binary tree with node levels 0..levels-1 (2^levels - 1 nodes).
    The node with path p sits at heap position int("1" + p, 2), the root at
    1, so a list of 2^levels entries holds a function on the domain with
    entry 0 unused."""

    levels: int

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be positive")

    @property
    def node_count(self) -> int:
        return 2 ** self.levels - 1

    @property
    def max_depth(self) -> int:
        return self.levels - 1

    def require(self, paths: Iterable[str]) -> None:
        """Raise DomainError at the first path deeper than the last level."""
        for path in paths:
            if len(path) > self.levels - 1:
                raise DomainError(f"node at depth {len(path)} outside {self.levels}-level tree")

    def require_enumerable(self) -> None:
        """Raise ResourceError above 20 levels, where no function is taken at
        every node: the bound of every heap-ordered sweep."""
        if self.levels > 20:
            raise ResourceError(f"refusing to enumerate 2^{self.levels}-1 nodes")


class SparseFn:
    """A finitely supported non-negative function on tree nodes.

    values maps the path of each supported node, in support order, to its
    int numerator over the one int den.  Absent paths read as zero.  Every
    value leaves as the reduced Fraction num/den or as the correctly rounded
    float num/den, so which common denominator is kept never shows.  A
    SparseFn is never changed after it is built.
    """

    __slots__ = ("values", "den")

    def __init__(self, values: dict[str, int], den: int):
        """The function with the given positive int numerators over den,
        unchecked."""
        self.values, self.den = values, den

    def __len__(self) -> int:
        return len(self.values)

    def mul(self, other: "SparseFn") -> "SparseFn":
        """Pointwise product; support is the intersection of supports, in
        the order of the smaller one."""
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        bv = big.values
        out = {path: v * bv[path] for path, v in small.values.items() if path in bv}
        return SparseFn(out, self.den * other.den)

    def __repr__(self) -> str:
        return f"SparseFn({len(self.values)} entries)"


def _as_int(e: Scalar) -> int | None:
    """The exponent as an int when it is integral, else None."""
    if isinstance(e, int):
        return e
    if isinstance(e, Fraction) and e.denominator == 1:
        return int(e)
    if isinstance(e, float) and e.is_integer():
        return int(e)
    return None


def _pow(v: Scalar, e: Scalar) -> Scalar:
    """v**e, exact when the exponent is integral and v is exact."""
    ei = _as_int(e)
    if ei is not None and not isinstance(v, float):
        return v ** ei
    return float(v) ** float(e)
