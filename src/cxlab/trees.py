"""Dyadic trees, bi-trees and sparse functions on them.

Nodes are addressed by bit paths: bit 0 is the left ("minus") child, bit 1
the right ("plus") child.  The root has the empty path.  On the bi-tree the
partial order is containment of dyadic rectangles: a <= b iff both of b's
coordinate paths are prefixes of a's (smaller = deeper).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

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

    @property
    def is_root(self) -> bool:
        return self.path == ""

    def parent(self) -> "NodeAddress":
        if self.is_root:
            raise DomainError("the root has no parent")
        return NodeAddress(self.path[:-1])

    def child(self, bit: int) -> "NodeAddress":
        return NodeAddress(self.path + ("1" if bit else "0"))

    def ancestors(self) -> list["NodeAddress"]:
        """All prefixes of the path in increasing depth, root first, self last."""
        return [NodeAddress(self.path[:i]) for i in range(len(self.path) + 1)]

    def contains(self, other: "NodeAddress") -> bool:
        """True iff self is an ancestor of other (inclusive); other <= self."""
        return other.path.startswith(self.path)

    def __le__(self, other: "NodeAddress") -> bool:
        return other.contains(self)

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

    def contains(self, other: "BiNode") -> bool:
        return self.x.contains(other.x) and self.y.contains(other.y)

    def __le__(self, other: "BiNode") -> bool:
        return other.contains(self)

    @property
    def depths(self) -> tuple[int, int]:
        return (self.x.depth, self.y.depth)

    def __str__(self) -> str:
        return format_node(self)


def binode(x_path: str, y_path: str) -> BiNode:
    return BiNode(NodeAddress(x_path), NodeAddress(y_path))


BIROOT = BiNode(ROOT, ROOT)

Node = Union[NodeAddress, BiNode]


def format_node(node: Node) -> str:
    """Literal syntax used in reports/configs: "0110" or "x=0110/y=01"."""
    if isinstance(node, BiNode):
        return f"x={node.x.path}/y={node.y.path}"
    return node.path


def parse_node(text: str) -> Node:
    if text.startswith("x="):
        xs, ys = text.split("/", 1)
        if not ys.startswith("y="):
            raise ValueError(f"bad bi-node literal: {text!r}")
        return BiNode(NodeAddress(xs[2:]), NodeAddress(ys[2:]))
    return NodeAddress(text)


def _bfs_generate(levels: int) -> Iterator[NodeAddress]:
    frontier = [""]
    for _ in range(levels):
        for p in frontier:
            yield NodeAddress(p)
        frontier = [p + b for p in frontier for b in "01"]


# Domains of up to this many levels are enumerated: they share one
# breadth-first tuple per depth (8,178 nodes over all twelve depths, each
# tuple built on first use), and the phi checks run over every node of them
# in heap order.  Larger domains fall back to support closures.
ENUM_LEVELS = 12


@functools.cache
def _bfs_nodes(levels: int) -> tuple[NodeAddress, ...]:
    return tuple(_bfs_generate(levels))


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

    def children(self, a: NodeAddress) -> list[NodeAddress]:
        """Both children of a, or the empty list if a is a leaf."""
        self.require(a)
        if a.depth == self.max_depth:
            return []
        return [a.child(0), a.child(1)]

    def nodes(self) -> Iterator[NodeAddress]:
        """All nodes in breadth-first order.  Only for small domains.

        Up to ENUM_LEVELS levels the order is built once per depth and
        shared; above that the nodes are generated afresh on each call.
        """
        if self.levels > 20:
            raise ResourceError(f"refusing to enumerate 2^{self.levels}-1 nodes")
        if self.levels <= ENUM_LEVELS:
            return iter(_bfs_nodes(self.levels))
        return _bfs_generate(self.levels)

    def heap_index(self, a: NodeAddress) -> int:
        """a's position in heap order, (1 << depth) | bits with the root at 1.

        nodes() lists position k at index k - 1, so a list of 2^levels
        entries holds a function on the domain with entry 0 unused.
        """
        self.require(a)
        return int("1" + a.path, 2)

    def leaves(self) -> Iterator[NodeAddress]:
        for a in self.nodes():
            if a.depth == self.max_depth:
                yield a


@dataclass(frozen=True)
class BiTreeDomain:
    """Product of two dyadic trees; used for enumeration oracles in tests."""

    levels_x: int
    levels_y: int

    def __contains__(self, a: BiNode) -> bool:
        return a.x.depth <= self.levels_x - 1 and a.y.depth <= self.levels_y - 1

    def require(self, a: BiNode) -> None:
        if a not in self:
            raise DomainError("bi-node outside domain")

    def nodes(self) -> Iterator[BiNode]:
        for x in TreeDomain(self.levels_x).nodes():
            for y in TreeDomain(self.levels_y).nodes():
                yield BiNode(x, y)


def _coerce(value: Scalar, mode: str) -> Scalar:
    if mode == EXACT:
        # a Fraction is immutable, so one that is already exact is kept as is
        return value if type(value) is Fraction else Fraction(value)
    return float(value)


class SparseFn:
    """A finitely supported non-negative function on tree or bi-tree nodes.

    In exact mode every value is a Fraction and no rounding occurs anywhere;
    absent nodes read as zero.
    """

    __slots__ = ("kind", "mode", "_values")

    def __init__(self, kind: str, entries: Mapping[Node, Scalar] | None = None,
                 mode: str = EXACT):
        if kind not in ("tree", "bitree"):
            raise ValueError(f"unknown domain kind {kind!r}")
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown scalar mode {mode!r}")
        self.kind = kind
        self.mode = mode
        self._values: dict[Node, Scalar] = {}
        if not entries:
            return
        # The sign is read from an exact value's numerator and from a float
        # itself, not through Fraction compares; a float NaN passes both tests.
        want = BiNode if kind == "bitree" else NodeAddress
        exact = mode == EXACT
        values = self._values
        for node, v in entries.items():
            if type(node) is not want and not isinstance(node, want):
                self._check_node(node)
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

    def _check_node(self, node: Node) -> None:
        want = BiNode if self.kind == "bitree" else NodeAddress
        if type(node) is not want and not isinstance(node, want):
            raise DomainError(
                f"{type(node).__name__} is not a {self.kind} node")

    @classmethod
    def tree(cls, entries: Mapping[NodeAddress, Scalar], mode: str = EXACT) -> "SparseFn":
        return cls("tree", entries, mode)

    @classmethod
    def bitree(cls, entries: Mapping[BiNode, Scalar], mode: str = EXACT) -> "SparseFn":
        return cls("bitree", entries, mode)

    def __call__(self, node: Node) -> Scalar:
        self._check_node(node)
        return self._values.get(node, _zero(self.mode))

    def get(self, node: Node) -> Scalar:
        return self._values.get(node, _zero(self.mode))

    def support(self) -> list[Node]:
        return list(self._values)

    def items(self) -> Iterable[tuple[Node, Scalar]]:
        return self._values.items()

    def __len__(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return bool(self._values)

    def total(self) -> Scalar:
        return sum(self._values.values(), _zero(self.mode))

    def scale(self, t: Scalar) -> "SparseFn":
        t = _coerce(t, self.mode)
        return SparseFn(self.kind, {n: v * t for n, v in self._values.items()}, self.mode)

    def mul(self, other: "SparseFn") -> "SparseFn":
        """Pointwise product; support is the intersection of supports."""
        if other.kind != self.kind:
            raise DomainError("domain kind mismatch in pointwise product")
        out = {}
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        for n, v in small.items():
            w = big.get(n)
            if w != 0:
                out[n] = v * w
        return SparseFn(self.kind, out, self.mode)

    def power(self, e: Scalar) -> "SparseFn":
        """Pointwise power.  Falls back to float mode for non-integral exponents."""
        e_int = _as_int(e)
        if e_int is not None and self.mode == EXACT:
            return SparseFn(self.kind, {n: v ** e_int for n, v in self._values.items()},
                            EXACT)
        ef = float(e)
        return SparseFn(self.kind, {n: float(v) ** ef for n, v in self._values.items()},
                        FLOAT)

    def to_float(self) -> "SparseFn":
        if self.mode == FLOAT:
            return self
        return SparseFn(self.kind, {n: float(v) for n, v in self._values.items()}, FLOAT)

    def __repr__(self) -> str:
        return f"SparseFn({self.kind}, {len(self._values)} entries, {self.mode})"


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
