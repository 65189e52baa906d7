"""Hardy operators on the tree, and the kernel and rectangle masses on the
bi-tree.

I sums up the graph (over ancestors, inclusive of the evaluation node),
its adjoint I* sums down the graph (over descendants, inclusive).  This
module is the only place that evaluates If, I*g and II*g = I(I*g).  Two
sweeps over path-keyed dicts do it: _up_paths gives If at every prefix of
the requested paths (root first), _down_paths gives I*g at every prefix of
supp g (in support order), and II*g is the one fed into the other.  On a
whole enumerated tree _up_heap gives If at every node of a list in heap
order (node (depth, bits) at (1 << depth) | bits), one add per node.  Every
sweep runs on a SparseFn's int numerators and hands out int numerators over
the function's den.  So hardy_up_table, the If table the
verifiers read, builds no Fraction; its caller renders only a value it
reports.  On the bi-tree, kernel counts the common ancestors of two
rectangles as (lcp_x + 1)(lcp_y + 1), never by materializing ancestor
sets, so instances with coordinate depths in the hundreds stay cheap; it is
the kernel of the capacity's energy.  A bi-tree node is an (x path,
y path) pair, and an atom of a measure an (x path, y path, k) triple of
mass k/16; rectangle_mass_fn gives the rectangle masses of such atoms that
the special-form construction reads, as int numerators keyed by (x path,
y path) over 16.
"""

from __future__ import annotations

from typing import Iterable

from .trees import Scalar, SparseFn, TreeDomain, lcp_len


def _up_paths(values: dict[str, Scalar], paths: Iterable[str]) -> dict[str, Scalar]:
    """I of a path-keyed function at every prefix of the given paths.

    Each path walks up to its deepest prefix already known, then down again,
    adding a value only where the function is supported; every sum runs
    root first.  Cost is proportional to the number of distinct prefixes, so
    ancestor-closed node sets (the common case here) are linear.
    """
    memo = {"": values.get("", 0)}
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


def _down_paths(values: dict[str, Scalar]) -> dict[str, Scalar]:
    """I* of a path-keyed function at every prefix of its support, each sum
    taken in support order."""
    out: dict[str, Scalar] = {}
    for path, v in values.items():
        for i in range(len(path) + 1):
            q = path[:i]
            out[q] = out.get(q, 0) + v
    return out


def _heap_values(f: SparseFn, d: TreeDomain) -> tuple[list[int], int]:
    """f at every node of d in heap order, a list of 2^levels entries with
    entry 0 unused, and the denominator its entries are over, f's den.  A
    node outside d raises DomainError, and a domain of more than 20 levels
    ResourceError, before the list is built."""
    d.require_enumerable()
    d.require(f.values)
    up = [0] * (1 << d.levels)
    for path, v in f.values.items():
        up[int("1" + path, 2)] = v
    return up, f.den


def _up_heap(up: list[int]) -> list[int]:
    """I in place over a tree function held in heap order (entry 0 unused).

    Each entry gains its parent's finished sum, parents first.
    """
    for k in range(2, len(up)):
        up[k] += up[k >> 1]
    return up


def hardy_up_table(f: SparseFn, paths: Iterable[str]) -> dict[str, int]:
    """If at every requested tree node, given by its path, in one sweep.

    The table is keyed by path, one entry per distinct requested node, and
    holds int numerators over f.den.  A caller renders only a value it
    hands out.
    """
    paths = list(paths)
    up = _up_paths(f.values, paths)
    return {path: up[path] for path in paths}


def _iistar_paths(g: SparseFn, paths: Iterable[str]) -> tuple[dict[str, int], int]:
    """II*g = I(I*g) at every prefix of the given paths of g's tree, and the
    denominator the values are over, g.den."""
    return _up_paths(_down_paths(g.values), paths), g.den


def kernel(a: tuple[str, str], b: tuple[str, str]) -> int:
    """Number of common ancestors of two bi-tree nodes, each an (x path,
    y path) pair (rectangle count)."""
    return (lcp_len(a[0], b[0]) + 1) * (lcp_len(a[1], b[1]) + 1)


def rectangle_mass_fn(
    atoms: Iterable[tuple[str, str, int]],
) -> tuple[dict[tuple[str, str], int], int]:
    """The rectangle-mass function R(q) = m({atoms inside q}) of an atomic
    measure given as (x path, y path, k) atoms of mass k/16: a dict keyed by
    each rectangle's (x path, y path), in atom order, of int numerators over
    16, and that denominator.

    Supported on the (finite) set of rectangles that contain at least one
    atom and have both coordinates among atom-path prefixes; this is the
    measure-theoretic reading of "m(gamma x beta')" used by the special-form
    construction.
    """
    sums: dict[tuple[str, str], int] = {}
    for xp, yp, k in atoms:
        ys = [yp[:j] for j in range(len(yp) + 1)]
        for i in range(len(xp) + 1):
            x = xp[:i]
            for y in ys:
                sums[x, y] = sums.get((x, y), 0) + k
    return sums, 16
