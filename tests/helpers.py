"""Generators and brute-force references that only the tests use.

A tree node is its bit path, a bi-tree node the (x path, y path) pair, as
in cxlab.  A measure on the bi-tree is a list of (rectangle, mass) atoms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from cxlab import capacity, lemmas
from cxlab.counterexamples import AuditStep, VariantAudit
from cxlab.hardy import _down_paths, _iistar_paths, _up_paths, hardy_up_table, kernel
from cxlab.trees import (
    DomainError, PreconditionError, ResourceError, Scalar, SparseFn, TreeDomain,
    _as_int, _pow, lcp_len,
)

Rect = tuple[str, str]
Measure = list[tuple[Rect, Scalar]]

_MATERIALIZE_LEVELS = 12


def fn(entries: Mapping[str, Scalar]) -> SparseFn:
    """The SparseFn with the given values by path, each value read as a
    Fraction (a float at its binary value): zeros are dropped, a negative value raises ValueError, and the values are kept
    as int numerators over the lcm of their denominators.  A float NaN or
    infinity raises ValueError, as it has no Fraction."""
    kept = {}
    for path, v in entries.items():
        if type(v) is not Fraction:
            v = Fraction(v)
        if v < 0:
            raise ValueError(f"negative value {v} at {path}")
        if v:
            kept[path] = v
    den = math.lcm(1, *(v.denominator for v in kept.values()))
    return SparseFn({path: v.numerator * (den // v.denominator) for path, v in kept.items()},
                    den)


def tree_nodes_bfs(levels: int) -> list[str]:
    """Every node of the levels-level tree, depth by depth, each depth in
    the order of its paths read as binary numbers: heap order."""
    return [format(i, f"0{k}b") if k else "" for k in range(levels) for i in range(2 ** k)]


def bitree_nodes(levels_x: int, levels_y: int) -> Iterator[Rect]:
    """Every rectangle of the product of a levels_x-level and a
    levels_y-level tree, x-major, each coordinate in heap order."""
    ys = tree_nodes_bfs(levels_y)
    for x in tree_nodes_bfs(levels_x):
        for y in ys:
            yield x, y


# A SparseFn read node by node, each value a Fraction, as the references
# and the tests read it.

def items(f: SparseFn) -> list[tuple[str, Fraction]]:
    """f's support paths and values, in support order."""
    return [(path, Fraction(v, f.den)) for path, v in f.values.items()]


def support(f: SparseFn) -> list[str]:
    return list(f.values)


def get(f: SparseFn, path: str) -> Fraction:
    """f at the node with the given path, zero where f is not supported."""
    return Fraction(f.values.get(path, 0), f.den)


def power(f: SparseFn, e: int) -> SparseFn:
    """Pointwise power to an integral exponent."""
    return fn({n: v ** e for n, v in items(f)})


def rebuild(f: SparseFn, factor: int) -> SparseFn:
    """f with every numerator and its denominator multiplied by factor: the
    same function over another denominator."""
    return SparseFn({path: v * factor for path, v in f.values.items()}, f.den * factor)


def heap_node(k: int) -> str:
    """The path of the node at heap position k (root at 1), the inverse of
    a path's position int("1" + path, 2)."""
    return bin(k)[3:]


def ancestors(a: str) -> list[str]:
    """All prefixes of the path a in increasing depth, root first, a last."""
    return [a[:i] for i in range(len(a) + 1)]


def contains(a: str, b: str) -> bool:
    """True iff a is an ancestor of b (inclusive)."""
    return b.startswith(a)


def rect_contains(q: Rect, a: Rect) -> bool:
    """True iff rectangle q contains a: q's coordinates are ancestors of
    a's (inclusive)."""
    return a[0].startswith(q[0]) and a[1].startswith(q[1])


def scale(f: SparseFn, t: Scalar) -> SparseFn:
    """t f."""
    return fn({n: v * t for n, v in items(f)})


def measure(atoms) -> Measure:
    """The measure of (x path, y path, k) atoms of mass k/16, as
    cxlab.hardy.rectangle_mass_fn reads them."""
    return [((x, y), Fraction(k, 16)) for x, y, k in atoms]


def potential(m: Measure, a: Rect) -> Scalar:
    """II*m(a), through the common-ancestor kernel.

    Equals the sum of I*m over all rectangles containing a: each atom is
    counted once per common ancestor in each coordinate.
    """
    acc = 0
    ax, ay = a
    for (x, y), mass in m:
        acc += mass * (lcp_len(ax, x) + 1) * (lcp_len(ay, y) + 1)
    return acc


def energy(m: Measure) -> Scalar:
    """E(m) = sum over atom pairs of mass_a mass_b (lcp_x+1)(lcp_y+1)."""
    acc = 0
    for i, (a, ma) in enumerate(m):
        # diagonal term
        acc += ma * ma * (len(a[0]) + 1) * (len(a[1]) + 1)
        for b, mb in m[i + 1:]:
            k = (lcp_len(a[0], b[0]) + 1) * (lcp_len(a[1], b[1]) + 1)
            acc += 2 * ma * mb * k
    return acc


def atoms_fn(m: Measure) -> dict[Rect, Scalar]:
    """The measure's atom masses by rectangle, repeated atoms added."""
    out: dict[Rect, Scalar] = {}
    for node, mass in m:
        out[node] = out.get(node, 0) + mass
    return out


# The support-scan references for I and I*, generic over the node kind: a
# tree SparseFn is read at paths, a mapping from rectangles to values at
# (x path, y path) pairs.

Fn = Union[SparseFn, Mapping[Rect, Scalar]]


def _check_same_domain(f: Fn, a) -> None:
    want = str if isinstance(f, SparseFn) else tuple
    if not isinstance(a, want):
        raise DomainError(f"{type(a).__name__} is not a node of the function's domain")


def _is_ancestor(node, of) -> bool:
    return rect_contains(node, of) if isinstance(node, tuple) else contains(node, of)


def _start(f: Fn) -> Scalar:
    return Fraction(0) if isinstance(f, SparseFn) else 0


def _pairs(f: Fn):
    return items(f) if isinstance(f, SparseFn) else f.items()


def eval_hardy_up(f: Fn, a) -> Scalar:
    """If(a): the sum of f over all ancestors of a, inclusive."""
    _check_same_domain(f, a)
    acc = _start(f)
    for node, v in _pairs(f):
        if _is_ancestor(node, a):
            acc += v
    return acc


def eval_hardy_down(g: Fn, a) -> Scalar:
    """I*g(a): the sum of g over all descendants of a, inclusive, in one
    scan of the support."""
    _check_same_domain(g, a)
    acc = _start(g)
    for node, v in _pairs(g):
        if _is_ancestor(a, node):
            acc += v
    return acc


def random_family(rng: random.Random, max_members: int = 6, max_depth: int = 3) -> list[Rect]:
    return [(random_path_stdlib(rng, max_depth), random_path_stdlib(rng, max_depth))
            for _ in range(rng.randint(1, max_members))]


# The capacity family F_n built rectangle by rectangle from its definition:
# the references for the (j, x_extra, y_extra) triples of cxlab.capacity.

def _capacity_shape(n: int) -> tuple[int, int, int]:
    """s, n/s and M for n = 2^s with n/s = 2^M."""
    s = n.bit_length() - 1
    return s, n // s, (n // s).bit_length() - 1


def _zero_run_rect(prefix: str, x_zeros: int, y_zeros: int) -> Rect:
    return prefix + "0" * x_zeros, prefix + "0" * y_zeros


def bitree_family(n: int) -> list[Rect]:
    """F_n in j-major order: q_jk, j < n/s, k = 0..s, is the M-bit form of j
    followed by ceil(n/2^k) zeros in x and 2^k zeros in y."""
    s, count, M = _capacity_shape(n)
    return [_zero_run_rect(format(j, f"0{M}b"), -(-n // 2 ** k), 2 ** k)
            for j in range(count) for k in range(s + 1)]


def bitree_atoms(n: int) -> Measure:
    """nu: mass 1/n^2 at each corner square omega_j = (j, n, n), j < n/s."""
    _, count, M = _capacity_shape(n)
    return [(_zero_run_rect(format(j, f"0{M}b"), n, n), Fraction(1, n * n))
            for j in range(count)]


def symmetry_classes(n: int) -> list[range]:
    """Class k of F_n: the j-major indices of q_jk for every prefix j."""
    s, count, _ = _capacity_shape(n)
    return [range(k, count * (s + 1), s + 1) for k in range(s + 1)]


def _reduced_matrix(kernel_fn, items, classes: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Class-summed kernel S[c1][c2] = sum over the two orbits of K, from
    one representative row per class, and the class sizes.  Symmetry of the
    result is asserted, which fails loudly on classes that are not kernel
    orbits."""
    m = len(classes)
    S = np.zeros((m, m))
    for c1, members1 in enumerate(classes):
        rep = items[members1[0]]
        for c2, members2 in enumerate(classes):
            row = sum(kernel_fn(rep, items[j]) for j in members2)
            S[c1, c2] = len(members1) * row
    assert np.array_equal(S, S.T), "the classes are not kernel orbits"
    return S, np.array([float(len(c)) for c in classes])


def kernel_block(M: int, j1, x1, y1, j2, x2, y2) -> np.ndarray:
    """Common-ancestor counts of rectangles (prefix j, x_extra, y_extra),
    broadcast over the arguments.  Prefixes are the M-bit forms of j, so two
    distinct ones share M - bit_length(j1 ^ j2) leading bits."""
    same = (M + np.minimum(x1, x2) + 1) * (M + np.minimum(y1, y2) + 1)
    lcp = M - np.frexp(np.bitwise_xor(j1, j2))[1]  # frexp's exponent of an int is its bit length
    return np.where(np.equal(j1, j2), same, (lcp + 1) ** 2)


def member_kernel(inst: capacity.BitreeInstance) -> np.ndarray:
    """The kernel over the whole family, member by member in j-major order."""
    xe, ye = np.array(inst.extras).T
    j = np.repeat(np.arange(inst.count), len(xe))
    x, y = np.tile(xe, inst.count), np.tile(ye, inst.count)
    return kernel_block(inst.M, j[:, None], x[:, None], y[:, None], j, x, y)


def rho_full(rho: Sequence, classes: Sequence[Sequence[int]]) -> list:
    """The equilibrium mass of every family member, from one mass per class."""
    out = [None] * sum(len(c) for c in classes)
    for t, members in zip(rho, classes):
        for i in members:
            out[i] = t
    return out


def perturb_closed_form(monkeypatch, edit) -> None:
    """Make capacity's closed form hand edit(D, y) to its certificate."""
    solve = capacity._green_solve
    monkeypatch.setattr(capacity, "_green_solve", lambda inst: edit(*solve(inst)))


# The float reference for the capacity QP: projected gradient with a
# periodic active-set polish, on any kernel matrix.

_QP_TOL = 1e-10
_QP_MAX_ITERS = 200000


@dataclass
class QPResult:
    rho: np.ndarray
    cap: float
    converged: bool


def _kkt_violation(S: np.ndarray, b: np.ndarray, t: np.ndarray) -> float:
    r = (S @ t) / b - 1.0
    on = t > 0
    viol = float(np.max(np.abs(r[on]))) if on.any() else 0.0
    off = ~on
    if off.any():
        viol = max(viol, float(np.max(np.maximum(0.0, -r[off]))))
    return viol


def solve_qp(S: np.ndarray, b: np.ndarray) -> QPResult:
    """minimize (1/2) t'St - b't over t >= 0 by projected gradient with a
    periodic active-set polish; grad/b - 1 is the per-member KKT residual."""
    step = 1.0 / float(S.sum(axis=1).max())
    t = np.zeros(len(b))
    viol = _kkt_violation(S, b, t)
    it = 0
    while it < _QP_MAX_ITERS and viol > _QP_TOL:
        t = np.maximum(0.0, t - step * (S @ t - b))
        it += 1
        if it % 50 == 0 or it == _QP_MAX_ITERS:
            active = t > 0
            if active.any():
                try:
                    x = np.linalg.solve(S[np.ix_(active, active)], b[active])
                except np.linalg.LinAlgError:
                    x = None
                if x is not None and (x >= 0).all():
                    cand = np.zeros_like(t)
                    cand[active] = x
                    if _kkt_violation(S, b, cand) < _kkt_violation(S, b, t):
                        t = cand
            viol = _kkt_violation(S, b, t)
    return QPResult(rho=t, cap=float(b @ t), converged=viol <= _QP_TOL)


def capacity_qp(family: Sequence[Rect]) -> QPResult:
    """The float capacity QP over an explicit rectangle family, on the
    member-by-member kernel matrix (every entry an exact int)."""
    if not family:
        raise ValueError("family must be nonempty")
    S = np.array([[float(kernel(a, b)) for b in family] for a in family])
    return solve_qp(S, np.ones(len(family)))


# The counterexample instances, built node by node: the oracles for the
# closed-form sums in cxlab.counterexamples.

def build_cex_p_less_2_functions(k: int) -> tuple[TreeDomain, SparseFn, SparseFn]:
    """g = 2^-i on all of generation i <= k, then 2^-k pushed to left children
    only; f = 2^-i on supp g."""
    levels = k + 2 ** k + 1
    d = TreeDomain(levels)
    g_entries: dict[str, Fraction] = {}
    f_entries: dict[str, Fraction] = {}
    frontier = [""]
    for i in range(k + 1):
        for path in frontier:
            g_entries[path] = Fraction(1, 2 ** i)
            f_entries[path] = Fraction(1, 2 ** i)
        if i < k:
            frontier = [p + b for p in frontier for b in "01"]
    for path in frontier:  # generation-k nodes, value kept on left children
        for t in range(1, 2 ** k + 1):
            node = path + "0" * t
            g_entries[node] = Fraction(1, 2 ** k)
            f_entries[node] = Fraction(1, 2 ** (k + t))
    return d, fn(f_entries), fn(g_entries)


def doubling_g_fn(N: int) -> SparseFn:
    """The halve-left/keep-right g on all levels 0..N-1: value 2^-(zero bits)."""
    if N > _MATERIALIZE_LEVELS:
        raise ResourceError(f"refusing to materialize 2^{N}-1 nodes")
    entries = {}
    frontier = [""]
    for _ in range(N):
        for path in frontier:
            entries[path] = Fraction(1, 2 ** path.count("0"))
        frontier = [p + b for p in frontier for b in "01"]
    return fn(entries)


def leftmost_path_fn(N: int) -> SparseFn:
    """f = 1 on the leftmost root-to-leaf path."""
    return fn({"0" * i: Fraction(1) for i in range(N)})


# The counterexample sums in plain Fraction arithmetic, one rational step at
# a time: the oracles for the integer-numerator forms in cxlab.counterexamples.
# A non-integral p takes 2^p and (a+1)^p as the exact values of their floats.

def sum_gp_levels_fraction(N: int, p: Scalar) -> Fraction:
    """Sum over levels 0..N-1 of g^p, r^m at level m with the per-level
    ratio r = (2^p+1)/2^p, nested as 1 + r(1 + r(1 + ...))."""
    two_p = Fraction(_pow(2, p))
    r = (two_p + 1) / two_p
    total = Fraction(0)
    for _ in range(N):
        total = 1 + r * total
    return total


def sum_ifg_p_direct_fraction(N: int, p: Scalar) -> Fraction:
    """Full-tree sum of (If g)^p for f = 1 on the leftmost path and the
    doubling g.  Leading-zero count a carries (a+1)^p h^a W_a, h = 2^-p,
    with the geometric weight W_a = 1 + sum_{e < N-a-1} r^e, r = 1 + h, in
    its closed form 1 + (r^(N-1-a) - 1)/h.  That splits the total into two
    sums over a nested in h and in v = h/r."""
    h = 1 / Fraction(_pow(2, p))
    r = 1 + h
    v = h / r
    in_h = in_v = Fraction(0)
    for a in range(N - 1, -1, -1):
        term = Fraction(_pow(a + 1, p))
        in_h = term + h * in_h
        in_v = term + v * in_v
    return (1 - 1 / h) * in_h + r ** (N - 1) / h * in_v


def audit_variant_fraction(variant: str, N: int, p: Scalar) -> VariantAudit:
    """The p > 2 chain audit with every path value a Fraction and every
    power the exact value of _pow's; a non-integral p renders each reported
    value as its float, inf beyond the float range."""
    def pw(k, e):
        v = _pow(k, e)
        return Fraction(v) if isinstance(v, float) else v

    pi = _as_int(p)
    pe = Fraction(p) if pi is None else pi

    if variant == "halving":
        g_path = [Fraction(1, 2 ** k) for k in range(1, N + 1)]
        istar = [Fraction(1, 2 ** (k - 1)) - Fraction(1, 2 ** N) for k in range(1, N + 1)]
        L = sum(pw(k, p) * g_path[k - 1] for k in range(1, N + 1))
    elif variant == "ones":
        g_path = [Fraction(1)] * N
        istar = [Fraction(2 ** (N - k + 1) - 1) for k in range(1, N + 1)]
        L = sum(pw(a + 1, p) * Fraction(2 ** (N - 1 - a)) for a in range(N))
    else:
        raise ValueError(f"unknown variant {variant!r}")

    iistar = []
    acc = Fraction(0)
    for v in istar:
        acc += v
        iistar.append(acc)
    sup = iistar[-1]
    boundary_ok = all(iistar[i] <= iistar[i + 1] for i in range(N - 1)) and g_path[-1] > 0

    steps: list[AuditStep] = []
    S1 = sum(pw(k, p) * g_path[k - 1] for k in range(2, N + 1))
    steps.append(AuditStep("series_lower_bound", L, S1, L >= S1,
                           "L >= sum_{k>=2} k^p g(u_k)"))
    dev = max(abs(g_path[k - 1] - (istar[k - 1] - istar[k - 2])) for k in range(2, N + 1))
    steps.append(AuditStep("g_telescope", dev, 0, dev == 0,
                           "printed identity g(u_k) = I*g(u_k) - I*g(u_{k-1})"))
    S2 = sum(istar[k - 1] * (pw(k, p) - pw(k - 1, p)) for k in range(2, N + 1))
    steps.append(AuditStep("abel_1", S1, S2, S1 == S2,
                           "printed Abel summation (equality claim)"))
    const = Fraction(pe) / pw(2, p - 1)
    S3 = sum(istar[k - 1] * pw(k, p - 1) for k in range(2, N + 1))
    steps.append(AuditStep("power_diff_bound", S2, const * S3, S2 >= const * S3,
                           "k^p - (k-1)^p >= (p/2^(p-1)) k^(p-1)"))
    dev2 = max(abs(istar[k - 1] - (iistar[k - 1] - iistar[k - 2])) for k in range(2, N + 1))
    steps.append(AuditStep("istar_telescope", dev2, 0, dev2 == 0,
                           "I*g(u_k) = II*g(u_k) - II*g(u_{k-1})"))
    star = iistar[N - 1] * pw(N, p - 1) - iistar[0] - sum(
        iistar[k - 1] * (pw(k + 1, p - 1) - pw(k, p - 1)) for k in range(1, N))
    steps.append(AuditStep("abel_2_star", S3, star, S3 == star,
                           "the (*) expression"))
    tele = sum(pw(k + 1, p - 1) - pw(k, p - 1) for k in range(1, N))
    star_lb = sup * pw(N, p - 1) - iistar[0] - sup * tele
    steps.append(AuditStep("star_bound", star, star_lb, star >= star_lb,
                           "(*) bounded below via ||II*g||_inf (m taken as 1)"))
    pow_sum = sum(pw(k, p - 2) for k in range(1, N))
    deriv_rhs = (pe - 1) * pow_sum
    steps.append(AuditStep("derivative_bound", tele, deriv_rhs, tele <= deriv_rhs,
                           "printed (k+1)^(p-1) - k^(p-1) <= (p-1) k^(p-2)"))
    integral_rhs = (Fraction(pw(N - 1, p - 1)) - 1) / (pe - 1)
    steps.append(AuditStep("integral_bound", pow_sum, integral_rhs,
                           pow_sum <= integral_rhs,
                           "printed sum k^(p-2) <= ((N-1)^(p-1) - 1)/(p-1)"))
    final_rhs = const * sup * (pw(N, p - 1) - pw(N - 1, p - 1))
    steps.append(AuditStep("final_claim", L, final_rhs, L >= final_rhs,
                           "the chain's asserted lower bound on L"))

    lemma_rhs = sup * N
    audit = VariantAudit(
        variant=variant, N=N, p=p,
        total_ifp_g=L, sup_iistar=sup, sum_fp=N, lemma_rhs=lemma_rhs,
        lemma_holds=L <= lemma_rhs, boundary_argmax_ok=boundary_ok,
        steps=steps,
    )
    if pi is not None:
        return audit

    def f(x):
        if not isinstance(x, Fraction):
            return x
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
    for step in steps:
        step.lhs, step.rhs = f(step.lhs), f(step.rhs)
    audit.total_ifp_g, audit.sup_iistar, audit.lemma_rhs = f(L), f(sup), f(lemma_rhs)
    return audit


# The sups of II*g that only the tests read, each one sweep of
# cxlab.lemmas._sup_iistar over its path list, handed out as a Fraction and
# a path.

def _sup_scalar(g: SparseFn, paths) -> tuple[Fraction, Optional[str]]:
    (best, arg), = lemmas._sup_iistar(g, list(paths))
    return Fraction(best, g.den), arg


def sup_iistar_refined(g: SparseFn, f: SparseFn) -> tuple[Fraction, Optional[str]]:
    """sup of II*g with the ancestor-walk refinement toward supp f.

    For every support node of g the deepest f-supported ancestor carries the
    same value of I(I*g 1_{supp f}), which the proof bounds by II*g there;
    support points of g with no f-supported ancestor contribute zero.
    """
    return _sup_scalar(g, lemmas._refined_paths(g.values, f.values))


def sup_iistar_intersection(g: SparseFn, f: SparseFn) -> tuple[Fraction, Optional[str]]:
    """sup of II*g over supp g intersected with supp f; nodes
    are visited in supp g order, so a tie keeps the first in that order."""
    return _sup_scalar(g, (x for x in g.values if x in f.values))


def sup_iistar_support(g: SparseFn) -> Fraction:
    """The coarser sup of II*g over supp g, reported for comparison."""
    return _sup_scalar(g, g.values)[0]


# The verifiers in Fraction arithmetic, as cxlab.lemmas ran them before it
# decided its verdicts on int numerators: every If and II*g value a
# Fraction, every sum, product, power and max taken on those.  Each report
# carries its exact values as Fractions, which lemmas.render gives their
# output form as it does the verifiers' Exact pairs.  They are the oracles
# for the int-numerator verifiers; the structure checks they report are
# the node-walk references above.

def hardy_up_scalars(f: SparseFn, paths) -> dict[str, Fraction]:
    """If at every requested path as a Fraction, keyed by path:
    hardy_up_table's int numerators over f's denominator."""
    table = hardy_up_table(f, paths)
    den = f.den
    return {x: Fraction(v, den) for x, v in table.items()}


def max_hardy_up_on(f: SparseFn, nodes) -> Fraction:
    """max of If over the given tree nodes (0 for an empty collection)."""
    nodes = list(nodes)
    if not nodes:
        return Fraction(0)
    return max(hardy_up_scalars(f, nodes).values())


def sup_iistar_nodes(g: SparseFn, *node_lists) -> list[tuple[Fraction, Optional[str]]]:
    """For each given collection of nodes, the max of II*g over it and the
    first node attaining it; (0, None) for an empty collection."""
    node_lists = [list(nodes) for nodes in node_lists]
    up, den = _iistar_paths(g, (x for nodes in node_lists for x in nodes))
    out = []
    for nodes in node_lists:
        best, arg = Fraction(0), None
        for x in nodes:
            v = Fraction(up[x], den)
            if v > best:
                best, arg = v, x
        out.append((best, arg))
    return out


def refined_nodes(g: SparseFn, f: SparseFn) -> list[str]:
    """For every support node of g its deepest f-supported ancestor,
    skipping support nodes with none."""
    f_paths = set(support(f))
    out = []
    for p in support(g):
        for i in range(len(p), -1, -1):
            if p[:i] in f_paths:
                out.append(p[:i])
                break
    return out


def intersection_nodes(g: SparseFn, f: SparseFn) -> list[str]:
    """supp g intersected with supp f, in supp g order."""
    f_support = set(support(f))
    return [x for x in support(g) if x in f_support]


def verify_supadditive_l1linf_fraction(g, h, gamma, d, seed=None) -> lemmas.LemmaReport:
    lam = max_hardy_up_on(h, support(g))
    lhs = Fraction(0)
    for node, v in items(g):
        if contains(gamma, node):
            lhs += v * get(h, node)
    rhs = lam * get(g, gamma)
    holds = lhs <= rhs
    return lemmas.LemmaReport(
        name="supadditive_l1linf",
        params={"lambda": lam, "gamma": gamma},
        lhs=lhs, rhs=rhs, holds=holds,
        witness=None if holds else gamma,
        seed=seed, degenerate=rhs == 0 and lhs > 0,
        extra={"superadditive": is_superadditive_nodes(g, d)[0]},
    )


def verify_I2_positive_fraction(f, g, d, seed=None) -> lemmas.LemmaReport:
    for n in (*support(f), *support(g)):
        d.require([n])
    table = hardy_up_scalars(f, support(g))
    lhs = sum((table[n] ** 2 * v for n, v in items(g)), Fraction(0))
    (sup, arg), (coarse, _) = sup_iistar_nodes(g, refined_nodes(g, f), support(g))
    sum_f2 = sum((v * v for _, v in items(f)), Fraction(0))
    rhs = sup * sum_f2
    return lemmas.LemmaReport(
        name="I2_positive", params={"sup_iistar": sup},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        witness=arg, seed=seed, extra={"coarse_sup": coarse},
    )


def verify_inter_fraction(f, g, p, d, seed=None) -> lemmas.LemmaReport:
    if p < 1:
        raise ValueError("p must be at least 1")
    delta = max_hardy_up_on(g, support(f))
    lam = max_hardy_up_on(g, support(g) + [""])
    sum_fp = sum((_pow(v, p) for _, v in items(f)), Fraction(0))
    if sum_fp == 0:
        return lemmas.LemmaReport(
            name="inter", params={"p": p, "delta": delta, "lambda": lam},
            lhs=Fraction(0), rhs=Fraction(0), holds=True,
            seed=seed, degenerate=True,
        )
    table = hardy_up_scalars(f, support(g))
    sum_ifg_p = sum((_pow(table[n] * v, p) for n, v in items(g)), Fraction(0))
    pf = float(p)
    lhs = float(sum_ifg_p) ** (1.0 / pf)
    rhs = float(delta) ** ((pf - 1.0) / pf) * float(lam) ** (1.0 / pf) * float(sum_fp) ** (1.0 / pf)
    return lemmas.LemmaReport(
        name="inter", params={"p": p, "delta": delta, "lambda": lam},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs, seed=seed,
        extra={"sum_ifg_p": sum_ifg_p, "sum_fp": sum_fp,
               "superadditive": is_superadditive_nodes(g, d)[0]},
    )


def verify_linf_fraction(f, g, d, seed=None) -> lemmas.LemmaReport:
    table = hardy_up_scalars(f, support(g))
    lhs, arg = Fraction(0), None
    for node, v in items(g):
        val = table[node] * v
        if val > lhs:
            lhs, arg = val, node
    sup, sup_arg = sup_iistar_nodes(g, intersection_nodes(g, f))[0]
    f_max = max((v for _, v in items(f)), default=Fraction(0))
    rhs = sup * f_max
    return lemmas.LemmaReport(
        name="linf", params={"sup_iistar": sup},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        witness=arg if lhs > rhs else sup_arg, seed=seed,
        extra={"increasing": is_increasing_nodes(g, d)[0]},
    )


def verify_new23_fraction(f, g, p, d, seed=None) -> lemmas.LemmaReport:
    if p < 1:
        raise ValueError("p must be at least 1")
    table = hardy_up_scalars(f, support(g))
    lhs = sum((_pow(table[n], p) * v for n, v in items(g)), Fraction(0))
    (sup, arg), (coarse, _) = sup_iistar_nodes(g, intersection_nodes(g, f), support(g))
    sum_fp = sum((_pow(v, p) for _, v in items(f)), Fraction(0))
    rhs = sup * sum_fp
    exact = _as_int(p) is not None
    return lemmas.LemmaReport(
        name="new23", params={"p": p, "sup_iistar": sup},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1 if exact else 1 + 1e-12),
        witness=arg, seed=seed,
        extra={"coarse_sup": coarse,
               "increasing": is_increasing_nodes(g, d)[0],
               "superadditive": is_superadditive_nodes(g, d)[0]},
    )


def verify_gest_fraction(g, gamma, p, d, seed=None) -> lemmas.LemmaReport:
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if _as_int(p - 1) is None:
        raise ValueError(f"p - 1 must be integral, got p = {p}")
    pre_ok, pre_witness = is_superadditive_nodes(power(g, _as_int(p - 1)), d)
    if not pre_ok:
        raise PreconditionError("g^(p-1) is not superadditive", pre_witness)
    lam = max_hardy_up_on(g, support(g))
    lhs = sum((_pow(v, p) for n, v in items(g) if contains(gamma, n)), Fraction(0))
    rhs = lam * _pow(get(g, gamma), p - 1)
    holds = lhs <= rhs
    return lemmas.LemmaReport(
        name="gest", params={"p": p, "lambda": lam, "gamma": gamma},
        lhs=lhs, rhs=rhs, holds=holds,
        witness=None if holds else gamma,
        seed=seed,
        degenerate=rhs == 0 and lhs > 0,
    )


# The phi construction over scalar dicts: the oracles for the heap
# sweeps of cxlab.lemmas.build_phi and cxlab.experiments._phi_instance.

def phi_instance_dict(rng: random.Random, d: TreeDomain):
    """The phi trial's w, g, f, lambda and delta, drawn as the trial draws
    them through the stdlib, with w on every node of d and I(wg) swept over
    a dict of Fractions and ranked as Fractions."""
    g = random_superadditive_fraction(rng, d)
    nodes = tree_nodes_bfs(d.levels)
    w = random_quarter_weight(rng, nodes)[0]
    iwg = hardy_up_scalars(w.mul(g), nodes)
    delta = sorted(iwg.values())[len(iwg) * 2 // 5]
    candidates = [n for n, v in iwg.items() if v <= delta]
    entries = {}
    for n in rng.sample(candidates, k=min(len(candidates), rng.randint(1, 6))):
        v = dyadic_stdlib(rng)
        if v > 0:
            entries[n] = v
    return w, g, fn(entries), 4 * delta, delta


def build_phi_dict(
    w: SparseFn, g: SparseFn, f: SparseFn, lam: Scalar, delta: Scalar,
    d: TreeDomain, seed=None,
):
    """build_phi with every I a hardy_up_scalars dict and check (a) a walk
    over every node of d."""
    ok, witness = is_superadditive_nodes(g, d)
    if not ok:
        raise PreconditionError("g is not superadditive", witness)
    if lam < 4 * delta:
        raise PreconditionError(f"lambda >= 4*delta required (lambda={lam}, delta={delta})")
    params = {"lambda": lam, "delta": delta}
    lam, delta = Fraction(lam), Fraction(delta)
    wf = w.mul(f)
    check_nodes = tree_nodes_bfs(d.levels)
    iwg = hardy_up_scalars(w.mul(g), set(check_nodes) | set(support(f)) | set(support(g)))
    for node in support(f):
        if iwg[node] > delta:
            raise PreconditionError("supp f must lie inside {I(wg) <= delta}", node)

    iwf = hardy_up_scalars(wf, check_nodes)
    inv_lam = 1 / lam
    two_lam, half_lam = 2 * lam, lam / 2
    phi_entries = {}
    for node, gv in items(g):
        if delta < iwg[node] <= two_lam:
            val = inv_lam * iwf[node] * gv
            if val != 0:
                phi_entries[node] = val
    phi = fn(phi_entries)

    iwphi = hardy_up_scalars(w.mul(phi), check_nodes)
    lower = lemmas.PHI_LOWER_CONST  # read at call time, so a test may patch it
    a_ok, a_witness = True, None
    worst_a = None
    for node in check_nodes:
        wf_v = iwf[node]
        if wf_v and half_lam < iwg[node] <= two_lam:
            r = iwphi[node] / wf_v
            if worst_a is None or r < worst_a:
                worst_a = r
            if r < lower:
                a_ok, a_witness = False, node

    sum_wphi2 = sum((get(w, n) * v * v for n, v in items(phi)), Fraction(0))
    sum_wf2 = sum((get(w, n) * v * v for n, v in items(f)), Fraction(0))
    b_rhs = lemmas.PHI_ENERGY_CONST * delta * sum_wf2 / lam
    b_ok = sum_wphi2 <= b_rhs
    report = lemmas.LemmaReport(
        name="build_phi", params=params,
        lhs=sum_wphi2, rhs=b_rhs, holds=a_ok and b_ok,
        witness=a_witness, seed=seed,
        extra={
            "lower_check_ok": a_ok,
            "energy_check_ok": b_ok,
            "worst_lower_ratio": worst_a,
            "lower_const": lemmas.PHI_LOWER_CONST,
            "energy_const": lemmas.PHI_ENERGY_CONST,
        },
    )
    return phi, report


# The generators as the stdlib's randint, randrange and choice draw them,
# over Fractions, and the rectangle masses and special form over Fraction
# and Fraction sums: the oracles for the getrandbits draws of cxlab.randgen
# and cxlab.experiments, and for the int-numerator sums of
# cxlab.hardy.rectangle_mass_fn and cxlab.structure.special_form_g.
# dyadic_stdlib is randint(lo, hi) / den, the draw of every Fraction value.

def dyadic_stdlib(rng: random.Random, den: int = 16, lo: int = 0, hi: int = 16) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def random_path_stdlib(rng: random.Random, max_depth: int) -> str:
    depth = rng.randint(0, max_depth)
    return "".join(rng.choice("01") for _ in range(depth))


def below_stdlib(bits, n: int) -> int:
    """randgen._below through randrange on the generator bits is bound to."""
    return bits.__self__.randrange(n)


def random_sparse_stdlib(rng: random.Random, d: TreeDomain, max_support: int = 12) -> SparseFn:
    entries: dict[str, Fraction] = {}
    for _ in range(rng.randint(1, max_support)):
        v = dyadic_stdlib(rng)
        if v > 0:
            entries[random_path_stdlib(rng, d.max_depth)] = v
    return fn(entries)


def random_quarters_stdlib(rng: random.Random, count: int) -> list[int]:
    return [rng.randint(1, 16) for _ in range(count)]


def random_quarter_weight(rng: random.Random, nodes) -> tuple[SparseFn, list[int]]:
    """A weight in {1/4 .. 4} on a sequence of nodes (dyadic steps), and
    its numerators over 4 in node order: one randint(1, 16) per node."""
    numerators = random_quarters_stdlib(rng, len(nodes))
    w = fn({n: Fraction(k, 4) for n, k in zip(nodes, numerators)})
    return w, numerators


def random_atoms_stdlib(
    rng: random.Random, levels_x: int, levels_y: int, max_atoms: int = 5,
) -> list[tuple[str, str, int]]:
    """randgen.random_special_form_measure's (x path, y path, k) atoms, as
    the stdlib draws them."""
    return [(random_path_stdlib(rng, levels_x - 1), random_path_stdlib(rng, levels_y - 1),
             rng.randint(1, 16)) for _ in range(rng.randint(1, max_atoms))]


def rectangle_mass_fn_fraction(atoms) -> dict[Rect, Fraction]:
    """hardy.rectangle_mass_fn, one ancestor pair per (atom, rectangle) and
    the masses k/16 added as Fractions."""
    out: dict[Rect, Fraction] = {}
    for (xp, yp), mass in measure(atoms):
        for x in ancestors(xp):
            for y in ancestors(yp):
                out[x, y] = out.get((x, y), 0) + mass
    return out


def fraction_masses(m: tuple[dict[Rect, int], int]) -> dict[Rect, Fraction]:
    """Rectangle masses in rectangle_mass_fn's form, each a Fraction."""
    sums, den = m
    return {q: Fraction(s, den) for q, s in sums.items()}


def path_masses(r: Mapping[Rect, Fraction]) -> tuple[dict[Rect, int], int]:
    """Fraction masses by rectangle in rectangle_mass_fn's form: int
    numerators over the lcm of their denominators."""
    den = math.lcm(1, *(v.denominator for v in r.values()))
    return {q: v.numerator * (den // v.denominator) for q, v in r.items()}, den


def random_special_form_measure_stdlib(
    rng: random.Random, levels_x: int, levels_y: int, max_atoms: int = 5,
) -> tuple[dict[tuple[str, str], int], int]:
    return path_masses(rectangle_mass_fn_fraction(
        random_atoms_stdlib(rng, levels_x, levels_y, max_atoms)))


def special_form_g_fraction(m: tuple[dict[tuple[str, str], int], int], beta: str,
                            p: Scalar) -> SparseFn:
    """structure.special_form_g over Fraction masses, each term a Fraction
    power."""
    e = _as_int(1 / (Fraction(p) - 1))  # q - 1 = 1/(p - 1) for q = p/(p - 1)
    if e is None:
        raise ValueError(f"q - 1 = 1/(p - 1) must be integral, got p = {p}")
    out: dict[str, Fraction] = {}
    for (x, y), v in fraction_masses(m).items():
        if beta.startswith(y):
            out[x] = out.get(x, 0) + v ** e
    return fn(out)



def random_superadditive_fraction(
    rng: random.Random, d: TreeDomain, max_support: int = 30,
) -> SparseFn:
    """randgen.random_superadditive, each child total and left child a
    Fraction product."""
    entries: dict[str, Fraction] = {}
    frontier = [("", Fraction(rng.randint(1, 16), 16))]
    while frontier and len(entries) < max_support:
        path, value = frontier.pop(rng.randrange(len(frontier)))
        entries[path] = value
        if len(path) < d.max_depth and rng.random() < 0.75:
            child_total = value * dyadic_stdlib(rng)
            left = child_total * dyadic_stdlib(rng)
            right = child_total - left
            for bit, v in (("0", left), ("1", right)):
                if v > 0:
                    frontier.append((path + bit, v))
    return fn(entries)


def random_increasing_fraction(
    rng: random.Random, d: TreeDomain, max_support: int = 30,
) -> SparseFn:
    """randgen.random_increasing, each child value a Fraction product."""
    entries: dict[str, Fraction] = {}
    frontier = [("", Fraction(rng.randint(1, 16), 16))]
    while frontier and len(entries) < max_support:
        path, value = frontier.pop(rng.randrange(len(frontier)))
        entries[path] = value
        if len(path) < d.max_depth and rng.random() < 0.75:
            for bit in "01":
                v = value * dyadic_stdlib(rng)
                if v > 0 and rng.random() < 0.8:
                    frontier.append((path + bit, v))
    return fn(entries)


def is_superadditive_nodes(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[str]]:
    """structure.is_superadditive, reading g node by node."""
    parents: set[str] = set()
    for node in support(g):
        d.require([node])
        if node:
            parents.add(node[:-1])
    for beta in sorted(parents, key=lambda n: (len(n), n)):
        if get(g, beta) < get(g, beta + "0") + get(g, beta + "1"):
            return False, beta
    return True, None


def is_increasing_nodes(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[str]]:
    """structure.is_increasing, reading g node by node."""
    for node in sorted(support(g), key=lambda n: (len(n), n)):
        d.require([node])
        if not node:
            continue
        if get(g, node[:-1]) < get(g, node):
            return False, node
    return True, None


# The search_new23 trial through the stdlib draws (randrange, randint,
# choice, uniform, one Random per trial) and the full-tree sweeps of
# cxlab.hardy: the oracles for the getrandbits draws and the
# intersection-only ratio in cxlab.counterexamples.

def _random_increasing_paths(rng: random.Random, depth: int, cap: int) -> dict[str, float]:
    out: dict[str, float] = {}
    frontier = [("", rng.uniform(0.5, 1.0))]
    while frontier and len(out) < cap:
        path, value = frontier.pop(rng.randrange(len(frontier)))
        out[path] = value
        if len(path) < depth:
            for bit in "01":
                if rng.random() < 0.7:
                    frontier.append((path + bit, value * rng.random()))
    return out


def _random_f_paths(rng: random.Random, depth: int, g_paths: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for _ in range(rng.randint(1, 8)):
        if g_paths and rng.random() < 0.5:
            base = rng.choice(g_paths)
            extra = "".join(rng.choice("01") for _ in range(rng.randint(0, depth - len(base)))) \
                if len(base) < depth else ""
            path = base + extra
        else:
            path = "".join(rng.choice("01") for _ in range(rng.randint(0, depth)))
        out[path] = rng.uniform(0.05, 1.0)
    return out


def _fast_new23_ratio(gv: dict[str, float], fv: dict[str, float], p: float):
    """(lhs, rhs) of the power-sum inequality on plain path dicts."""
    i_f = _up_paths(fv, gv)
    lhs = sum(i_f[path] ** p * val for path, val in gv.items())
    inter = gv.keys() & fv.keys()
    if not inter:
        return lhs, 0.0
    iistar = _up_paths(_down_paths(gv), inter)
    sup = max(iistar[b] for b in inter)
    rhs = sup * sum(v ** p for v in fv.values())
    return lhs, rhs


def search_new23_stdlib(p: Scalar, depth: int, budget: int, seed: int) -> lemmas.LemmaReport:
    """search_new23 over the trial oracles above, without its bound checks."""
    pf = float(p)
    best_ratio, best_trial = -1.0, None
    for trial in range(budget):
        rng = random.Random(f"{seed}:{trial}")
        gv = _random_increasing_paths(rng, depth, cap=12)
        fv = _random_f_paths(rng, depth, list(gv))
        lhs, rhs = _fast_new23_ratio(gv, fv, pf)
        if rhs <= 0.0:
            continue
        ratio = lhs / rhs
        if ratio > best_ratio:
            best_ratio, best_trial = ratio, trial

    if best_trial is None:
        return lemmas.LemmaReport(
            name="search_new23", params={"p": p, "depth": depth, "budget": budget},
            lhs=0.0, rhs=0.0, holds=True, mode=lemmas.FLOAT, seed=seed, degenerate=True,
        )
    rng = random.Random(f"{seed}:{best_trial}")
    gv = _random_increasing_paths(rng, depth, cap=12)
    fv = _random_f_paths(rng, depth, list(gv))
    d = TreeDomain(depth + 1)
    report = lemmas.verify_new23(fn(fv), fn(gv), float(p), d, seed=seed)
    report.name = "search_new23"
    report.params.update({"depth": depth, "budget": budget, "best_trial": best_trial,
                          "best_fast_ratio": best_ratio})
    return lemmas.render(report, lemmas.FLOAT)


# cxlab.randgen's generators by name, as the stdlib draws them
STDLIB_RANDGEN = {
    "random_superadditive": random_superadditive_fraction,
    "random_increasing": random_increasing_fraction,
    "random_sparse": random_sparse_stdlib,
    "random_quarters": random_quarters_stdlib,
    "random_special_form_measure": random_special_form_measure_stdlib,
}
