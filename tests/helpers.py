"""Generators and brute-force references that only the tests use."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from cxlab import capacity, lemmas
from cxlab.counterexamples import AuditStep, VariantAudit, _half_pow
from cxlab.hardy import PointMeasure, _down_paths, _up_paths, hardy_up_table, kernel
from cxlab.randgen import dyadic, random_path
from cxlab.structure import ExponentPair, _tol_for
from cxlab.trees import (
    ENUM_LEVELS, EXACT, FLOAT, BiNode, NodeAddress, PreconditionError, ResourceError, Scalar,
    SparseFn, TreeDomain, _as_int, _pow, _zero,
)

_MATERIALIZE_LEVELS = 12


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


def tree_nodes_bfs(levels: int) -> list[NodeAddress]:
    """Every node of the levels-level tree, depth by depth, each depth in
    the order of its paths read as binary numbers."""
    return [NodeAddress(format(i, f"0{k}b") if k else "")
            for k in range(levels) for i in range(2 ** k)]


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
    return d, SparseFn.tree(f_entries), SparseFn.tree(g_entries)


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
    return SparseFn.tree(entries)


def leftmost_path_fn(N: int) -> SparseFn:
    """f = 1 on the leftmost root-to-leaf path."""
    return SparseFn.tree({NodeAddress("0" * i): Fraction(1) for i in range(N)})


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


# The phi construction over NodeAddress-keyed dicts: the oracles for the heap
# sweeps of cxlab.lemmas.build_phi and cxlab.experiments._phi_instance.

def phi_instance_dict(rng: random.Random, d: TreeDomain, mode: str = EXACT):
    """The phi trial's w, g, f, lambda and delta, drawn as the trial draws
    them through the stdlib, with w on every node of d and I(wg) swept over
    a NodeAddress dict and ranked as scalars."""
    g = random_superadditive_fraction(rng, d, mode=mode)
    nodes = list(d.nodes())
    w = random_quarter_weight(rng, nodes, mode)[0]
    iwg = hardy_up_table(w.mul(g), nodes)
    delta = sorted(iwg.values())[len(iwg) * 2 // 5]
    candidates = [n for n, v in iwg.items() if v <= delta]
    entries = {}
    for n in rng.sample(candidates, k=min(len(candidates), rng.randint(1, 6))):
        v = dyadic_stdlib(rng)
        if v > 0:
            entries[n] = v
    return w, g, SparseFn.tree(entries, mode), 4 * delta, delta


def build_phi_dict(
    w: SparseFn, g: SparseFn, f: SparseFn, lam: Scalar, delta: Scalar,
    d: TreeDomain, seed=None,
):
    """build_phi on an enumerated domain, every I a hardy_up_table dict and
    check (a) a walk over d.nodes()."""
    assert d.levels <= ENUM_LEVELS
    ok, witness = is_superadditive_nodes(g, d)
    if not ok:
        raise PreconditionError("g is not superadditive", witness)
    if lam < 4 * delta:
        raise PreconditionError(f"lambda >= 4*delta required (lambda={lam}, delta={delta})")
    wf = w.mul(f)
    check_nodes = list(d.nodes())
    iwg = hardy_up_table(w.mul(g), set(check_nodes) | set(f.support()) | set(g.support()))
    for node in f.support():
        if iwg[node] > delta:
            raise PreconditionError("supp f must lie inside {I(wg) <= delta}", node)

    iwf = hardy_up_table(wf, check_nodes)
    inv_lam = Fraction(1, 1) / lam if g.mode == EXACT else 1.0 / float(lam)
    two_lam, half_lam = 2 * lam, lam / 2
    phi_entries = {}
    for node, gv in g.items():
        if delta < iwg[node] <= two_lam:
            val = inv_lam * iwf[node] * gv
            if val != 0:
                phi_entries[node] = val
    phi = SparseFn.tree(phi_entries, g.mode)

    iwphi = hardy_up_table(w.mul(phi), check_nodes)
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
    return SparseFn.tree(entries, mode)


def random_quarters_stdlib(rng: random.Random, count: int) -> list[int]:
    return [rng.randint(1, 16) for _ in range(count)]


def random_quarter_weight(
    rng: random.Random, nodes, mode: str = EXACT,
) -> tuple[SparseFn, list[int]]:
    """A weight in {1/4 .. 4} on a sequence of nodes (dyadic steps), and
    its numerators over 4 in node order: one randint(1, 16) per node."""
    numerators = random_quarters_stdlib(rng, len(nodes))
    w = SparseFn.tree({n: Fraction(k, 4) for n, k in zip(nodes, numerators)}, mode)
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


def rectangle_mass_fn_binode(m: PointMeasure, mode: str = EXACT) -> SparseFn:
    """hardy.rectangle_mass_fn, one BiNode per (atom, rectangle) and the
    masses added as they are."""
    out: dict[BiNode, Scalar] = {}
    for node, mass in m.atoms:
        for x in node.x.ancestors():
            for y in node.y.ancestors():
                q = BiNode(x, y)
                out[q] = out.get(q, 0) + mass
    return SparseFn.bitree(out, mode)


def random_special_form_measure_stdlib(
    rng: random.Random, levels_x: int, levels_y: int, max_atoms: int = 5,
) -> SparseFn:
    return rectangle_mass_fn_binode(
        random_point_measure_stdlib(rng, levels_x, levels_y, max_atoms))


def special_form_g_fraction(m: SparseFn, beta: NodeAddress, pq: ExponentPair) -> SparseFn:
    """structure.special_form_g, each exact term a Fraction power."""
    e = pq.q - 1
    e_int = _as_int(e)
    exact_ok = m.mode == EXACT and e_int is not None
    out: dict[NodeAddress, Scalar] = {}
    for node, v in m.items():
        if beta.path.startswith(node.y.path):
            term = v ** e_int if exact_ok else float(v) ** float(e)
            out[node.x] = out.get(node.x, 0) + term
    return SparseFn.tree(out, EXACT if exact_ok else FLOAT)



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
    return SparseFn.tree(entries, mode)


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
    return SparseFn.tree(entries, mode)


def is_superadditive_nodes(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[NodeAddress]]:
    """structure.is_superadditive, reading g node by node."""
    if g.kind != "tree":
        raise ValueError("is_superadditive expects a tree function")
    parents: set[NodeAddress] = set()
    for node in g.support():
        d.require(node)
        if node.depth > 0:
            parents.add(node.parent())
    for beta in sorted(parents, key=lambda n: (n.depth, n.path)):
        child_sum = g.get(beta.child(0)) + g.get(beta.child(1))
        if g.get(beta) < child_sum - _tol_for(g, child_sum):
            return False, beta
    return True, None


def is_increasing_nodes(g: SparseFn, d: TreeDomain) -> tuple[bool, Optional[NodeAddress]]:
    """structure.is_increasing, reading g node by node."""
    if g.kind != "tree":
        raise ValueError("is_increasing expects a tree function")
    for node in sorted(g.support(), key=lambda n: (n.depth, n.path)):
        d.require(node)
        if node.depth == 0:
            continue
        v = g.get(node)
        if g.get(node.parent()) < v - _tol_for(g, v):
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
    g = SparseFn.tree({NodeAddress(k): v for k, v in gv.items()}, FLOAT)
    f = SparseFn.tree({NodeAddress(k): v for k, v in fv.items()}, FLOAT)
    report = lemmas.verify_new23(f, g, float(p), d, seed=seed)
    report.name = "search_new23"
    report.params.update({"depth": depth, "budget": budget, "best_trial": best_trial,
                          "best_fast_ratio": best_ratio})
    return report


# cxlab.randgen's generators by name, as the stdlib draws them
STDLIB_RANDGEN = {
    "dyadic": dyadic_stdlib,
    "random_path": random_path_stdlib,
    "random_superadditive": random_superadditive_fraction,
    "random_increasing": random_increasing_fraction,
    "random_sparse": random_sparse_stdlib,
    "random_quarters": random_quarters_stdlib,
    "random_point_measure": random_point_measure_stdlib,
    "random_special_form_measure": random_special_form_measure_stdlib,
}
