"""Dyadic trees, bi-tree nodes and sparse functions on the tree.

Nodes are addressed by bit paths: bit 0 is the left ("minus") child, bit 1
the right ("plus") child.  The root has the empty path.  A bi-tree node is
a dyadic rectangle, a pair of tree nodes; the partial order is
containment: a <= b iff both of b's coordinate paths are prefixes of a's
(smaller = deeper).  Every function the verifiers take is a SparseFn on the
tree; the bi-tree appears only as the atoms and rectangles of the capacity
and of the special-form construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[Fraction, float, int]

EXACT = "exact"
FLOAT = "float"


class DomainError(ValueError):
    """A node or function does not belong to the expected domain."""


class PreconditionError(ValueError):
    """A documented precondition of an operation failed."""

    def __init__(self, condition: str, witness=None):
        self.condition = condition
        self.witness = witness
        msg = condition if witness is None else f"{condition} (witness: {witness})"
        super().__init__(msg)


class ResourceError(RuntimeError):
    """A requested instance exceeds the configured resource budget."""


def _check_path(path: str) -> None:
    if path.strip("01") != "":
        raise ValueError(f"bit path must consist of '0'/'1' characters: {path!r}")


@dataclass(frozen=True)
class NodeAddress:
    """A vertex of a dyadic tree, addressed by its bit path from the root."""

    path: str = ""

    def __post_init__(self):
        _check_path(self.path)

    @property
    def depth(self) -> int:
        return len(self.path)

    def contains(self, other: "NodeAddress") -> bool:
        """True iff self is an ancestor of other (inclusive)."""
        return other.path.startswith(self.path)

    def __hash__(self) -> int:
        # the path's own hash, not the generated hash of the tuple (path,)
        return hash(self.path)

    def __str__(self) -> str:
        return self.path or "(root)"


ROOT = NodeAddress("")


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
class BiNode:
    """A dyadic rectangle: a pair of tree addresses, one per coordinate."""

    x: NodeAddress
    y: NodeAddress

    def __str__(self) -> str:
        return f"x={self.x.path}/y={self.y.path}"


def format_node(node: NodeAddress) -> str:
    """Literal syntax used in reports: the bit path, "0110"."""
    return node.path


def heap_node(k: int) -> NodeAddress:
    """The node at heap position k (root at 1), the inverse of
    TreeDomain.heap_index: k's binary digits after the leading 1."""
    return NodeAddress(bin(k)[3:])


@dataclass(frozen=True)
class TreeDomain:
    """A full binary tree with node levels 0..levels-1 (2^levels - 1 nodes)."""

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

    def __contains__(self, a: NodeAddress) -> bool:
        return a.depth <= self.max_depth

    def require(self, a: NodeAddress) -> None:
        if a not in self:
            raise DomainError(f"node at depth {a.depth} outside {self.levels}-level tree")

    def require_enumerable(self) -> None:
        """Raise ResourceError above 20 levels, where no function is taken at
        every node: the bound of every heap-ordered sweep."""
        if self.levels > 20:
            raise ResourceError(f"refusing to enumerate 2^{self.levels}-1 nodes")

    def heap_index(self, a: NodeAddress) -> int:
        """a's position in heap order, (1 << depth) | bits with the root at 1,
        so a list of 2^levels entries holds a function on the domain with
        entry 0 unused; heap_node is the inverse."""
        self.require(a)
        return int("1" + a.path, 2)


class SparseFn:
    """A finitely supported non-negative function on tree nodes.

    In exact mode every value is a Fraction and no rounding occurs anywhere;
    absent nodes read as zero.
    """

    __slots__ = ("mode", "_values")

    def __init__(self, entries: Mapping[NodeAddress, Scalar] | None = None,
                 mode: str = EXACT):
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown scalar mode {mode!r}")
        self.mode = mode
        self._values: dict[NodeAddress, Scalar] = {}
        if not entries:
            return
        # The sign is read from an exact value's numerator and from a float
        # itself, not through Fraction compares; a float NaN passes both tests.
        exact = mode == EXACT
        values = self._values
        for node, v in entries.items():
            if type(node) is not NodeAddress:
                raise DomainError(f"{type(node).__name__} is not a tree node")
            if exact:
                if type(v) is not Fraction:
                    v = Fraction(v)
                sign = v.numerator
            else:
                if type(v) is not float:
                    v = float(v)
                sign = v
            if sign < 0:
                raise ValueError(f"negative value {v} at {format_node(node)}")
            if sign:
                values[node] = v

    def get(self, node: NodeAddress) -> Scalar:
        return self._values.get(node, _zero(self.mode))

    def support(self) -> list[NodeAddress]:
        return list(self._values)

    def items(self) -> Iterable[tuple[NodeAddress, Scalar]]:
        return self._values.items()

    def __len__(self) -> int:
        return len(self._values)

    def mul(self, other: "SparseFn") -> "SparseFn":
        """Pointwise product; support is the intersection of supports."""
        out = {}
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        for n, v in small.items():
            w = big.get(n)
            if w != 0:
                out[n] = v * w
        return SparseFn(out, self.mode)

    def power(self, e: Scalar) -> "SparseFn":
        """Pointwise power.  Falls back to float mode for non-integral exponents."""
        e_int = _as_int(e)
        if e_int is not None and self.mode == EXACT:
            return SparseFn({n: v ** e_int for n, v in self._values.items()}, EXACT)
        ef = float(e)
        return SparseFn({n: float(v) ** ef for n, v in self._values.items()}, FLOAT)

    def to_float(self) -> "SparseFn":
        if self.mode == FLOAT:
            return self
        return SparseFn({n: float(v) for n, v in self._values.items()}, FLOAT)

    def __repr__(self) -> str:
        return f"SparseFn({len(self._values)} entries, {self.mode})"


def _path_values(f: SparseFn) -> tuple[dict[str, Scalar], int]:
    """A tree function as a dict from paths to values, in f's order, and the
    denominator the values are over: int numerators over the lcm of f's
    denominators in exact mode, the floats themselves over 1 in float mode."""
    if f.mode != EXACT:
        return {n.path: v for n, v in f.items()}, 1
    items = f.items()
    den = 1
    for _, v in items:
        den = math.lcm(den, v.denominator)
    return {n.path: v.numerator * (den // v.denominator) for n, v in items}, den


def _as_int(e: Scalar) -> int | None:
    """The exponent as an int when it is integral, else None."""
    if isinstance(e, int):
        return e
    if isinstance(e, Fraction) and e.denominator == 1:
        return int(e)
    if isinstance(e, float) and e.is_integer():
        return int(e)
    return None


_FRACTION_ZERO = Fraction(0)  # immutable, so one instance serves every caller


def _zero(mode: str) -> Scalar:
    return _FRACTION_ZERO if mode == EXACT else 0.0


def _pow(v: Scalar, e: Scalar) -> Scalar:
    """v**e, exact when the exponent is integral and v is exact."""
    ei = _as_int(e)
    if ei is not None and not isinstance(v, float):
        return v ** ei
    return float(v) ** float(e)
