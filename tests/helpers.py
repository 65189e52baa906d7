"""Generators and brute-force references that only the tests use."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from cxlab import capacity, lemmas
from cxlab.counterexamples import AuditStep, VariantAudit, _half_pow
from cxlab.hardy import (
    PointMeasure, _down_paths, _iistar_paths, _up_paths, hardy_up_table, kernel,
)
from cxlab.structure import _tol_for
from cxlab.trees import (
    EXACT, FLOAT, BiNode, DomainError, NodeAddress, PreconditionError, ResourceError, Scalar,
    SparseFn, TreeDomain, _as_int, _path_values, _pow, _zero, format_node, lcp_len,
)

_MATERIALIZE_LEVELS = 12


def binode(x_path: str, y_path: str) -> BiNode:
    return BiNode(NodeAddress(x_path), NodeAddress(y_path))


def tree_nodes_bfs(levels: int) -> list[NodeAddress]:
    """Every node of the levels-level tree, depth by depth, each depth in
    the order of its paths read as binary numbers: heap order."""
    return [NodeAddress(format(i, f"0{k}b") if k else "")
            for k in range(levels) for i in range(2 ** k)]


def bitree_nodes(levels_x: int, levels_y: int) -> Iterator[BiNode]:
    """Every rectangle of the product of a levels_x-level and a
    levels_y-level tree, x-major, each coordinate in heap order."""
    ys = tree_nodes_bfs(levels_y)
    for x in tree_nodes_bfs(levels_x):
        for y in ys:
            yield BiNode(x, y)


def ancestors(a: NodeAddress) -> list[NodeAddress]:
    """All prefixes of a's path in increasing depth, root first, a last."""
    return [NodeAddress(a.path[:i]) for i in range(a.depth + 1)]


def contains(a: NodeAddress, b: NodeAddress) -> bool:
    """True iff a is an ancestor of b (inclusive)."""
    return b.path.startswith(a.path)


def rect_contains(q: BiNode, a: BiNode) -> bool:
    """True iff rectangle q contains a: q's coordinates are ancestors of
    a's (inclusive)."""
    return contains(q.x, a.x) and contains(q.y, a.y)


def scale(f: SparseFn, t: Scalar) -> SparseFn:
    """t f, in f's mode."""
    return SparseFn({n: v * t for n, v in f.items()}, f.mode)


def potential(m: PointMeasure, a: BiNode) -> Scalar:
    """II*m(a), through the common-ancestor kernel.

    Equals the sum of I*m over all rectangles containing a: each atom is
    counted once per common ancestor in each coordinate.
    """
    acc = 0
    ax, ay = a.x.path, a.y.path
    for node, mass in m.atoms:
        acc += mass * (lcp_len(ax, node.x.path) + 1) * (lcp_len(ay, node.y.path) + 1)
    return acc


def energy(m: PointMeasure) -> Scalar:
    """E(m) = sum over atom pairs of mass_a mass_b (lcp_x+1)(lcp_y+1)."""
    acc = 0
    atoms = m.atoms
    for i, (a, ma) in enumerate(atoms):
        # diagonal term
        acc += ma * ma * (a.x.depth + 1) * (a.y.depth + 1)
        for b, mb in atoms[i + 1:]:
            k = (lcp_len(a.x.path, b.x.path) + 1) * (lcp_len(a.y.path, b.y.path) + 1)
            acc += 2 * ma * mb * k
    return acc


def atoms_fn(m: PointMeasure) -> dict[BiNode, Scalar]:
    """The measure's atom masses by bi-tree node, repeated atoms added."""
    out: dict[BiNode, Scalar] = {}
    for node, mass in m.atoms:
        out[node] = out.get(node, 0) + mass
    return out


# The support-scan references for I and I*, generic over the node kind: a
# tree SparseFn is read at tree nodes, a mapping from bi-tree nodes to
# values at bi-tree nodes.

Fn = Union[SparseFn, Mapping[BiNode, Scalar]]


def _check_same_domain(f: Fn, a) -> None:
    want = NodeAddress if isinstance(f, SparseFn) else BiNode
    if not isinstance(a, want):
        raise DomainError(f"{type(a).__name__} is not a node of the function's domain")


def _is_ancestor(node, of) -> bool:
    return rect_contains(node, of) if isinstance(node, BiNode) else contains(node, of)


def _start(f: Fn) -> Scalar:
    return _zero(f.mode) if isinstance(f, SparseFn) else 0


def eval_hardy_up(f: Fn, a) -> Scalar:
    """If(a): the sum of f over all ancestors of a, inclusive."""
    _check_same_domain(f, a)
    acc = _start(f)
    for node, v in f.items():
        if _is_ancestor(node, a):
            acc += v
    return acc


def eval_hardy_down(g: Fn, a) -> Scalar:
    """I*g(a): the sum of g over all descendants of a, inclusive, in one
    scan of the support."""
    _check_same_domain(g, a)
    acc = _start(g)
    for node, v in g.items():
        if _is_ancestor(a, node):
            acc += v
    return acc


def random_family(rng: random.Random, max_members: int = 6, max_depth: int = 3) -> list[BiNode]:
    members = []
    for _ in range(rng.randint(1, max_members)):
        members.append(BiNode(
            NodeAddress(random_path_stdlib(rng, max_depth)),
            NodeAddress(random_path_stdlib(rng, max_depth)),
        ))
    return members


# The capacity family F_n built rectangle by rectangle from its definition:
# the references for the (j, x_extra, y_extra) triples of cxlab.capacity.

def _capacity_shape(n: int) -> tuple[int, int, int]:
    """s, n/s and M for n = 2^s with n/s = 2^M."""
    s = n.bit_length() - 1
    return s, n // s, (n // s).bit_length() - 1


def _zero_run_rect(prefix: str, x_zeros: int, y_zeros: int) -> BiNode:
    return BiNode(NodeAddress(prefix + "0" * x_zeros), NodeAddress(prefix + "0" * y_zeros))


def bitree_family(n: int) -> list[BiNode]:
    """F_n in j-major order: q_jk, j < n/s, k = 0..s, is the M-bit form of j
    followed by ceil(n/2^k) zeros in x and 2^k zeros in y."""
    s, count, M = _capacity_shape(n)
    return [_zero_run_rect(format(j, f"0{M}b"), -(-n // 2 ** k), 2 ** k)
            for j in range(count) for k in range(s + 1)]


def bitree_atoms(n: int) -> PointMeasure:
    """nu: mass 1/n^2 at each corner square omega_j = (j, n, n), j < n/s."""
    _, count, M = _capacity_shape(n)
    return PointMeasure.of((_zero_run_rect(format(j, f"0{M}b"), n, n), Fraction(1, n * n))
                           for j in range(count))


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


def capacity_qp(family: Sequence[BiNode]) -> QPResult:
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
    return d, SparseFn(f_entries), SparseFn(g_entries)


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
    return SparseFn(entries)


def leftmost_path_fn(N: int) -> SparseFn:
    """f = 1 on the leftmost root-to-leaf path."""
    return SparseFn({NodeAddress("0" * i): Fraction(1) for i in range(N)})


# The counterexample sums in plain Fraction arithmetic, one rational step at
# a time: the oracles for the integer-numerator forms in cxlab.counterexamples.

def sum_gp_levels_fraction(N: int, p: Scalar) -> Scalar:
    """Sum over levels 0..N-1 of g^p via the per-level ratio (2^p+1)/2^p."""
    pi = _as_int(p)
    if pi is not None:
        r = Fraction(2 ** pi + 1, 2 ** pi)
        level = Fraction(1)
        total = Fraction(0)
    else:
        r = (2.0 ** float(p) + 1.0) / 2.0 ** float(p)
        level, total = 1.0, 0.0
    for _ in range(N):
        total += level
        level *= r
    return total


def sum_ifg_p_direct_fraction(N: int, p: Scalar) -> Scalar:
    """Full-tree sum of (If g)^p for f = 1 on the leftmost path and the
    doubling g, over (level, leading-zero count)."""
    r = 1 + _pow(_half_pow(1), p)
    total, weight, term = 0, 1, 1
    for a in range(N - 1, -1, -1):
        total += _pow(a + 1, p) * _pow(_half_pow(a), p) * weight
        weight += term
        term *= r
    return total


def audit_variant_fraction(variant: str, N: int, p: Scalar) -> VariantAudit:
    """The p > 2 chain audit with every path value a Fraction; float mode
    rounds the path values once, then runs the float steps."""
    exact = _as_int(p) is not None
    pi = _as_int(p)

    if variant == "halving":
        g_path = [_half_pow(k) for k in range(1, N + 1)]
        istar = [Fraction(1, 2 ** (k - 1)) - _half_pow(N) for k in range(1, N + 1)]
        L = sum(_pow(k, p) * g_path[k - 1] for k in range(1, N + 1))
    elif variant == "ones":
        g_path = [Fraction(1)] * N
        istar = [Fraction(2 ** (N - k + 1) - 1) for k in range(1, N + 1)]
        L = sum(_pow(a + 1, p) * Fraction(2 ** (N - 1 - a)) for a in range(N))
    else:
        raise ValueError(f"unknown variant {variant!r}")

    iistar = []
    acc = Fraction(0)
    for v in istar:
        acc += v
        iistar.append(acc)
    sup = iistar[-1]
    boundary_ok = all(iistar[i] <= iistar[i + 1] for i in range(N - 1)) and g_path[-1] > 0

    if not exact:
        def f(x):
            try:
                return float(x)
            except OverflowError:
                return math.inf
        g_path = [f(x) for x in g_path]
        istar = [f(x) for x in istar]
        iistar = [f(x) for x in iistar]
        sup = f(sup)
        L = f(L)

    steps: list[AuditStep] = []
    S1 = sum(_pow(k, p) * g_path[k - 1] for k in range(2, N + 1))
    steps.append(AuditStep("series_lower_bound", L, S1, L >= S1,
                           "L >= sum_{k>=2} k^p g(u_k)"))
    dev = max(abs(g_path[k - 1] - (istar[k - 1] - istar[k - 2])) for k in range(2, N + 1))
    steps.append(AuditStep("g_telescope", dev, 0, dev == 0,
                           "printed identity g(u_k) = I*g(u_k) - I*g(u_{k-1})"))
    S2 = sum(istar[k - 1] * (_pow(k, p) - _pow(k - 1, p)) for k in range(2, N + 1))
    steps.append(AuditStep("abel_1", S1, S2, S1 == S2,
                           "printed Abel summation (equality claim)"))
    const = Fraction(pi, 2 ** (pi - 1)) if exact else float(p) / 2.0 ** (float(p) - 1.0)
    S3 = sum(istar[k - 1] * _pow(k, p - 1) for k in range(2, N + 1))
    steps.append(AuditStep("power_diff_bound", S2, const * S3, S2 >= const * S3,
                           "k^p - (k-1)^p >= (p/2^(p-1)) k^(p-1)"))
    dev2 = max(abs(istar[k - 1] - (iistar[k - 1] - iistar[k - 2])) for k in range(2, N + 1))
    steps.append(AuditStep("istar_telescope", dev2, 0, dev2 == 0,
                           "I*g(u_k) = II*g(u_k) - II*g(u_{k-1})"))
    star = iistar[N - 1] * _pow(N, p - 1) - iistar[0] - sum(
        iistar[k - 1] * (_pow(k + 1, p - 1) - _pow(k, p - 1)) for k in range(1, N))
    steps.append(AuditStep("abel_2_star", S3, star, S3 == star,
                           "the (*) expression"))
    tele = sum(_pow(k + 1, p - 1) - _pow(k, p - 1) for k in range(1, N))
    star_lb = sup * _pow(N, p - 1) - iistar[0] - sup * tele
    steps.append(AuditStep("star_bound", star, star_lb, star >= star_lb,
                           "(*) bounded below via ||II*g||_inf (m taken as 1)"))
    pow_sum = sum(_pow(k, p - 2) for k in range(1, N))
    deriv_rhs = ((pi - 1) if exact else (float(p) - 1.0)) * pow_sum
    steps.append(AuditStep("derivative_bound", tele, deriv_rhs, tele <= deriv_rhs,
                           "printed (k+1)^(p-1) - k^(p-1) <= (p-1) k^(p-2)"))
    integral_rhs = (Fraction(_pow(N - 1, p - 1) - 1, pi - 1) if exact
                    else (_pow(N - 1, p - 1) - 1) / (float(p) - 1.0))
    steps.append(AuditStep("integral_bound", pow_sum, integral_rhs,
                           pow_sum <= integral_rhs,
                           "printed sum k^(p-2) <= ((N-1)^(p-1) - 1)/(p-1)"))
    final_rhs = const * sup * (_pow(N, p - 1) - _pow(N - 1, p - 1))
    steps.append(AuditStep("final_claim", L, final_rhs, L >= final_rhs,
                           "the chain's asserted lower bound on L"))

    lemma_rhs = sup * N
    return VariantAudit(
        variant=variant, N=N, p=p,
        total_ifp_g=L, sup_iistar=sup, sum_fp=N, lemma_rhs=lemma_rhs,
        lemma_holds=L <= lemma_rhs, boundary_argmax_ok=boundary_ok,
        steps=steps,
    )


# The sups of II*g that only the tests read, each one sweep of
# cxlab.lemmas._sup_iistar over its path list, handed out as a scalar of g's
# mode and a node.

def _sup_scalar(g: SparseFn, paths) -> tuple[Scalar, Optional[NodeAddress]]:
    (best, arg), = lemmas._sup_iistar(g, list(paths))
    den = _path_values(g)[1]
    return (Fraction(best, den) if g.mode == EXACT else best,
            None if arg is None else NodeAddress(arg))


def sup_iistar_refined(g: SparseFn, f: SparseFn) -> tuple[Scalar, Optional[NodeAddress]]:
    """sup of II*g with the ancestor-walk refinement toward supp f.

    For every support node of g the deepest f-supported ancestor carries the
    same value of I(I*g 1_{supp f}), which the proof bounds by II*g there;
    support points of g with no f-supported ancestor contribute zero.
    """
    return _sup_scalar(g, lemmas._refined_paths(_path_values(g)[0], _path_values(f)[0]))


def sup_iistar_intersection(g: SparseFn, f: SparseFn) -> tuple[Scalar, Optional[NodeAddress]]:
    """sup of II*g over supp g intersected with supp f; nodes
    are visited in supp g order, so a tie keeps the first in that order."""
    f_paths = _path_values(f)[0]
    return _sup_scalar(g, (x for x in _path_values(g)[0] if x in f_paths))


def sup_iistar_support(g: SparseFn) -> Scalar:
    """The coarser sup of II*g over supp g, reported for comparison."""
    return _sup_scalar(g, _path_values(g)[0])[0]


# The verifiers in Fraction arithmetic, as cxlab.lemmas ran them before it
# decided its verdicts on int numerators: every If and II*g value a Fraction
# (or a float in float mode), every sum, product, power and max taken on
# those.  They are the oracles for the int-numerator verifiers; the
# structure checks they report are the node-walk references above.

def hardy_up_scalars(f: SparseFn, nodes) -> dict[NodeAddress, Scalar]:
    """If at every requested node as a scalar of f's mode, keyed by node:
    hardy_up_table's sweep values over _path_values(f)'s denominator."""
    nodes = list(nodes)
    table = hardy_up_table(f, nodes)
    if f.mode != EXACT:
        return {n: table[n.path] for n in nodes}
    den = _path_values(f)[1]
    return {n: Fraction(table[n.path], den) for n in nodes}


def max_hardy_up_on(f: SparseFn, nodes) -> Scalar:
    """max of If over the given tree nodes (0 for an empty collection)."""
    nodes = list(nodes)
    if not nodes:
        return _zero(f.mode)
    return max(hardy_up_scalars(f, nodes).values())


def sup_iistar_nodes(g: SparseFn, *node_lists) -> list[tuple[Scalar, Optional[NodeAddress]]]:
    """For each given collection of nodes, the max of II*g over it and the
    first node attaining it; (0, None) for an empty collection."""
    node_lists = [list(nodes) for nodes in node_lists]
    up, den = _iistar_paths(g, (x.path for nodes in node_lists for x in nodes))
    out = []
    for nodes in node_lists:
        best, arg = _zero(g.mode), None
        for x in nodes:
            v = Fraction(up[x.path], den) if g.mode == EXACT else up[x.path]
            if v > best:
                best, arg = v, x
        out.append((best, arg))
    return out


def refined_nodes(g: SparseFn, f: SparseFn) -> list[NodeAddress]:
    """For every support node of g its deepest f-supported ancestor,
    skipping support nodes with none."""
    f_paths = {n.path for n in f.support()}
    out = []
    for x in g.support():
        p = x.path
        for i in range(len(p), -1, -1):
            if p[:i] in f_paths:
                out.append(NodeAddress(p[:i]))
                break
    return out


def intersection_nodes(g: SparseFn, f: SparseFn) -> list[NodeAddress]:
    """supp g intersected with supp f, in supp g order."""
    f_support = set(f.support())
    return [x for x in g.support() if x in f_support]


def verify_supadditive_l1linf_fraction(g, h, gamma, d, seed=None) -> lemmas.LemmaReport:
    lam = max_hardy_up_on(h, g.support())
    lhs = _zero(g.mode)
    for node, v in g.items():
        if contains(gamma, node):
            lhs += v * h.get(node)
    rhs = lam * g.get(gamma)
    holds = lhs <= rhs
    return lemmas.LemmaReport(
        name="supadditive_l1linf",
        params={"lambda": lam, "gamma": format_node(gamma)},
        lhs=lhs, rhs=rhs, holds=holds,
        witness=None if holds else gamma,
        mode=g.mode, seed=seed, degenerate=rhs == 0 and lhs > 0,
        extra={"superadditive": is_superadditive_nodes(g, d)[0]},
    )


def verify_I2_positive_fraction(f, g, d, seed=None) -> lemmas.LemmaReport:
    for n in (*f.support(), *g.support()):
        d.require(n)
    table = hardy_up_scalars(f, g.support())
    lhs = sum((table[n] ** 2 * v for n, v in g.items()), _zero(g.mode))
    (sup, arg), (coarse, _) = sup_iistar_nodes(g, refined_nodes(g, f), g.support())
    sum_f2 = sum((v * v for _, v in f.items()), _zero(f.mode))
    rhs = sup * sum_f2
    return lemmas.LemmaReport(
        name="I2_positive", params={"sup_iistar": sup},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        witness=arg, mode=g.mode, seed=seed, extra={"coarse_sup": coarse},
    )


def verify_inter_fraction(f, g, p, d, seed=None) -> lemmas.LemmaReport:
    if p < 1:
        raise ValueError("p must be at least 1")
    delta = max_hardy_up_on(g, f.support())
    lam = max_hardy_up_on(g, g.support() + [NodeAddress("")])
    sum_fp = sum((_pow(v, p) for _, v in f.items()), _zero(f.mode))
    if sum_fp == 0:
        return lemmas.LemmaReport(
            name="inter", params={"p": p, "delta": delta, "lambda": lam},
            lhs=_zero(f.mode), rhs=_zero(f.mode), holds=True,
            mode=f.mode, seed=seed, degenerate=True,
        )
    table = hardy_up_scalars(f, g.support())
    sum_ifg_p = sum((_pow(table[n] * v, p) for n, v in g.items()), _zero(g.mode))
    pf = float(p)
    lhs = float(sum_ifg_p) ** (1.0 / pf)
    rhs = float(delta) ** ((pf - 1.0) / pf) * float(lam) ** (1.0 / pf) * float(sum_fp) ** (1.0 / pf)
    return lemmas.LemmaReport(
        name="inter", params={"p": p, "delta": delta, "lambda": lam},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs, mode=FLOAT, seed=seed,
        extra={"sum_ifg_p": sum_ifg_p, "sum_fp": sum_fp,
               "superadditive": is_superadditive_nodes(g, d)[0]},
    )


def verify_linf_fraction(f, g, d, seed=None) -> lemmas.LemmaReport:
    table = hardy_up_scalars(f, g.support())
    lhs, arg = _zero(g.mode), None
    for node, v in g.items():
        val = table[node] * v
        if val > lhs:
            lhs, arg = val, node
    sup, sup_arg = sup_iistar_nodes(g, intersection_nodes(g, f))[0]
    f_max = max((v for _, v in f.items()), default=_zero(f.mode))
    rhs = sup * f_max
    return lemmas.LemmaReport(
        name="linf", params={"sup_iistar": sup},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        witness=arg if lhs > rhs else sup_arg, mode=g.mode, seed=seed,
        extra={"increasing": is_increasing_nodes(g, d)[0]},
    )


def verify_new23_fraction(f, g, p, d, seed=None) -> lemmas.LemmaReport:
    if p < 1:
        raise ValueError("p must be at least 1")
    table = hardy_up_scalars(f, g.support())
    lhs = sum((_pow(table[n], p) * v for n, v in g.items()), _zero(g.mode))
    (sup, arg), (coarse, _) = sup_iistar_nodes(g, intersection_nodes(g, f), g.support())
    sum_fp = sum((_pow(v, p) for _, v in f.items()), _zero(f.mode))
    rhs = sup * sum_fp
    return lemmas.LemmaReport(
        name="new23", params={"p": p, "sup_iistar": sup},
        lhs=lhs, rhs=rhs, holds=lemmas._holds(lhs, rhs),
        witness=arg, mode=g.mode if _as_int(p) is not None else FLOAT, seed=seed,
        extra={"coarse_sup": coarse,
               "increasing": is_increasing_nodes(g, d)[0],
               "superadditive": is_superadditive_nodes(g, d)[0]},
    )


def verify_gest_fraction(g, gamma, p, d, seed=None) -> lemmas.LemmaReport:
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    pre_ok, pre_witness = is_superadditive_nodes(g.power(p - 1), d)
    if not pre_ok:
        raise PreconditionError("g^(p-1) is not superadditive", pre_witness)
    lam = max_hardy_up_on(g, g.support())
    lhs = sum((_pow(v, p) for n, v in g.items() if contains(gamma, n)), _zero(g.mode))
    rhs = lam * _pow(g.get(gamma), p - 1)
    holds = lemmas._holds(lhs, rhs)
    return lemmas.LemmaReport(
        name="gest", params={"p": p, "lambda": lam, "gamma": format_node(gamma)},
        lhs=lhs, rhs=rhs, holds=holds,
        witness=None if holds else gamma,
        mode=g.mode if _as_int(p) is not None else FLOAT, seed=seed,
        degenerate=rhs == 0 and lhs > 0,
        extra={"power_superadditive": pre_ok},
    )


# The phi construction over NodeAddress-keyed dicts: the oracles for the heap
# sweeps of cxlab.lemmas.build_phi and cxlab.experiments._phi_instance.

def phi_instance_dict(rng: random.Random, d: TreeDomain, mode: str = EXACT):
    """The phi trial's w, g, f, lambda and delta, drawn as the trial draws
    them through the stdlib, with w on every node of d and I(wg) swept over
    a NodeAddress dict and ranked as scalars."""
    g = random_superadditive_fraction(rng, d, mode=mode)
    nodes = tree_nodes_bfs(d.levels)
    w = random_quarter_weight(rng, nodes, mode)[0]
    iwg = hardy_up_scalars(w.mul(g), nodes)
    delta = sorted(iwg.values())[len(iwg) * 2 // 5]
    candidates = [n for n, v in iwg.items() if v <= delta]
    entries = {}
    for n in rng.sample(candidates, k=min(len(candidates), rng.randint(1, 6))):
        v = dyadic_stdlib(rng)
        if v > 0:
            entries[n] = v
    return w, g, SparseFn(entries, mode), 4 * delta, delta


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
    wf = w.mul(f)
    check_nodes = tree_nodes_bfs(d.levels)
    iwg = hardy_up_scalars(w.mul(g), set(check_nodes) | set(f.support()) | set(g.support()))
    for node in f.support():
        if iwg[node] > delta:
            raise PreconditionError("supp f must lie inside {I(wg) <= delta}", node)

    iwf = hardy_up_scalars(wf, check_nodes)
    inv_lam = Fraction(1, 1) / lam if g.mode == EXACT else 1.0 / float(lam)
    two_lam, half_lam = 2 * lam, lam / 2
    phi_entries = {}
    for node, gv in g.items():
        if delta < iwg[node] <= two_lam:
            val = inv_lam * iwf[node] * gv
            if val != 0:
                phi_entries[node] = val
    phi = SparseFn(phi_entries, g.mode)

    iwphi = hardy_up_scalars(w.mul(phi), check_nodes)
    lower = lemmas.PHI_LOWER_CONST  # read at call time, so a test may patch it
    if g.mode != EXACT:
        lower = float(lower)
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

    sum_wphi2 = sum((w.get(n) * v * v for n, v in phi.items()), _zero(g.mode))
    sum_wf2 = sum((w.get(n) * v * v for n, v in f.items()), _zero(g.mode))
    b_rhs = lemmas.PHI_ENERGY_CONST * delta * sum_wf2 / lam
    b_ok = sum_wphi2 <= b_rhs
    report = lemmas.LemmaReport(
        name="build_phi",
        params={"lambda": lam, "delta": delta},
        lhs=sum_wphi2, rhs=b_rhs, holds=a_ok and b_ok,
        witness=a_witness, mode=g.mode, seed=seed,
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
# over Fractions, and the rectangle masses and special form over BiNode keys
# and Fraction sums: the oracles for the getrandbits draws of cxlab.randgen
# and cxlab.experiments, and for the int-numerator sums of
# cxlab.hardy.rectangle_mass_fn and cxlab.structure.special_form_g.

def dyadic_stdlib(rng: random.Random, den: int = 16, lo: int = 0, hi: int = 16) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def random_path_stdlib(rng: random.Random, max_depth: int) -> str:
    depth = rng.randint(0, max_depth)
    return "".join(rng.choice("01") for _ in range(depth))


def below_stdlib(bits, n: int) -> int:
    """randgen._below through randrange on the generator bits is bound to."""
    return bits.__self__.randrange(n)


def random_sparse_stdlib(
    rng: random.Random, d: TreeDomain, max_support: int = 12, mode: str = EXACT,
) -> SparseFn:
    entries: dict[NodeAddress, Fraction] = {}
    for _ in range(rng.randint(1, max_support)):
        v = dyadic_stdlib(rng)
        if v > 0:
            entries[NodeAddress(random_path_stdlib(rng, d.max_depth))] = v
    return SparseFn(entries, mode)


def random_quarters_stdlib(rng: random.Random, count: int) -> list[int]:
    return [rng.randint(1, 16) for _ in range(count)]


def random_quarter_weight(
    rng: random.Random, nodes, mode: str = EXACT,
) -> tuple[SparseFn, list[int]]:
    """A weight in {1/4 .. 4} on a sequence of nodes (dyadic steps), and
    its numerators over 4 in node order: one randint(1, 16) per node."""
    numerators = random_quarters_stdlib(rng, len(nodes))
    w = SparseFn({n: Fraction(k, 4) for n, k in zip(nodes, numerators)}, mode)
    return w, numerators


def random_point_measure_stdlib(
    rng: random.Random, levels_x: int, levels_y: int, max_atoms: int = 5,
) -> PointMeasure:
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        node = BiNode(
            NodeAddress(random_path_stdlib(rng, levels_x - 1)),
            NodeAddress(random_path_stdlib(rng, levels_y - 1)),
        )
        atoms.append((node, Fraction(rng.randint(1, 16), 16)))
    return PointMeasure.of(atoms)


def rectangle_mass_fn_binode(m: PointMeasure) -> dict[BiNode, Fraction]:
    """hardy.rectangle_mass_fn, one BiNode per (atom, rectangle) and the
    masses added as Fractions."""
    out: dict[BiNode, Fraction] = {}
    for node, mass in m.atoms:
        for x in ancestors(node.x):
            for y in ancestors(node.y):
                q = BiNode(x, y)
                out[q] = out.get(q, 0) + mass
    return {q: Fraction(v) for q, v in out.items()}


def random_special_form_measure_stdlib(
    rng: random.Random, levels_x: int, levels_y: int, max_atoms: int = 5,
) -> dict[BiNode, Scalar]:
    return rectangle_mass_fn_binode(
        random_point_measure_stdlib(rng, levels_x, levels_y, max_atoms))


def special_form_g_fraction(m: Mapping[BiNode, Scalar], beta: NodeAddress,
                            p: Scalar) -> SparseFn:
    """structure.special_form_g, each exact term a Fraction power."""
    # q - 1 = 1/(p - 1) for q = p/(p - 1); the float form as the construction rounds it
    e = 1 / (Fraction(p) - 1) if isinstance(p, (int, Fraction)) else p / (p - 1.0) - 1
    e_int = _as_int(e)
    picked = [(node, v) for node, v in m.items() if beta.path.startswith(node.y.path)]
    exact_ok = e_int is not None and not any(isinstance(v, float) for _, v in picked)
    out: dict[NodeAddress, Scalar] = {}
    for node, v in picked:
        term = v ** e_int if exact_ok else float(v) ** float(e)
        out[node.x] = out.get(node.x, 0) + term
    return SparseFn(out, EXACT if exact_ok else FLOAT)



def random_superadditive_fraction(
    rng: random.Random, d: TreeDomain, max_support: int = 30, mode: str = EXACT,
) -> SparseFn:
    """randgen.random_superadditive, each child total and left child a
    Fraction product."""
    entries: dict[NodeAddress, Fraction] = {}
    frontier = [("", Fraction(rng.randint(1, 16), 16))]
    while frontier and len(entries) < max_support:
        path, value = frontier.pop(rng.randrange(len(frontier)))
        entries[NodeAddress(path)] = value
        if len(path) < d.max_depth and rng.random() < 0.75:
            child_total = value * dyadic_stdlib(rng)
            left = child_total * dyadic_stdlib(rng)
            right = child_total - left
            for bit, v in (("0", left), ("1", right)):
                if v > 0:
                    frontier.append((path + bit, v))
    return SparseFn(entries, mode)


def random_increasing_fraction(
    rng: random.Random, d: TreeDomain, max_support: int = 30, mode: str = EXACT,
) -> SparseFn:
    """randgen.random_increasing, each child value a Fraction product."""
    entries: dict[NodeAddress, Fraction] = {}
    frontier = [("", Fraction(rng.randint(1, 16), 16))]
    while frontier and len(entries) < max_support:
        path, value = frontier.pop(rng.randrange(len(frontier)))
        entries[NodeAddress(path)] = value
        if len(path) < d.max_depth and rng.random() < 0.75:
            for bit in "01":
                v = value * dyadic_stdlib(rng)
                if v > 0 and rng.random() < 0.8:
                    frontier.append((path + bit, v))
    return SparseFn(entries, mode)


def is_superadditive_nodes(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[NodeAddress]]:
    """structure.is_superadditive, reading g node by node."""
    parents: set[NodeAddress] = set()
    for node in g.support():
        d.require(node)
        if node.depth > 0:
            parents.add(NodeAddress(node.path[:-1]))
    for beta in sorted(parents, key=lambda n: (n.depth, n.path)):
        child_sum = g.get(NodeAddress(beta.path + "0")) + g.get(NodeAddress(beta.path + "1"))
        if g.get(beta) < child_sum - _tol_for(g, child_sum):
            return False, beta
    return True, None


def is_increasing_nodes(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[NodeAddress]]:
    """structure.is_increasing, reading g node by node."""
    for node in sorted(g.support(), key=lambda n: (n.depth, n.path)):
        d.require(node)
        if node.depth == 0:
            continue
        v = g.get(node)
        if g.get(NodeAddress(node.path[:-1])) < v - _tol_for(g, v):
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
    i_f = _up_paths(fv, gv, 0.0)
    lhs = sum(i_f[path] ** p * val for path, val in gv.items())
    inter = gv.keys() & fv.keys()
    if not inter:
        return lhs, 0.0
    iistar = _up_paths(_down_paths(gv, 0.0), inter, 0.0)
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
            lhs=0.0, rhs=0.0, holds=True, mode=FLOAT, seed=seed, degenerate=True,
        )
    rng = random.Random(f"{seed}:{best_trial}")
    gv = _random_increasing_paths(rng, depth, cap=12)
    fv = _random_f_paths(rng, depth, list(gv))
    d = TreeDomain(depth + 1)
    g = SparseFn({NodeAddress(k): v for k, v in gv.items()}, FLOAT)
    f = SparseFn({NodeAddress(k): v for k, v in fv.items()}, FLOAT)
    report = lemmas.verify_new23(f, g, float(p), d, seed=seed)
    report.name = "search_new23"
    report.params.update({"depth": depth, "budget": budget, "best_trial": best_trial,
                          "best_fast_ratio": best_ratio})
    return report


# cxlab.randgen's generators by name, as the stdlib draws them
STDLIB_RANDGEN = {
    "dyadic": dyadic_stdlib,
    "random_superadditive": random_superadditive_fraction,
    "random_increasing": random_increasing_fraction,
    "random_sparse": random_sparse_stdlib,
    "random_quarters": random_quarters_stdlib,
    "random_point_measure": random_point_measure_stdlib,
    "random_special_form_measure": random_special_form_measure_stdlib,
}
