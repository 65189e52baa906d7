"""The bi-tree capacity experiment: the atomic measure nu, the rectangle
family, the potential comparability check, and the equilibrium-measure QP
with an exact brute-force oracle.

All rectangles in the instance are a short prefix followed by a run of
zeros, so the instance code carries them as (j, x_extra, y_extra) triples
and evaluates the common-ancestor kernel from that structure; the largest
admissible n would otherwise need paths tens of thousands of characters
long.  The prefix of q_jk is the M-bit form of j, so two distinct prefixes
share M - bit_length(j1 ^ j2) leading bits, and any one prefix shares t < M
leading bits with exactly 2^(M-1-t) others.  The class-summed kernel and
the potentials are assembled from those counts rather than rectangle by
rectangle, and every kernel entry is an exact integer.  The
structured kernel is cross-checked against the generic one in the test
suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .trees import BiNode, NodeAddress, ResourceError
from .hardy import PointMeasure, kernel

ADMISSIBLE_N = (4, 16, 256, 65536)
_MATERIALIZE_N = 256          # largest n whose family is kept as real BiNodes
_BRUTEFORCE_MAX = 12
_NO_SYMMETRY_MAX_FAMILY = 2000


@dataclass(frozen=True)
class _Rect:
    """A dyadic rectangle whose two paths are `prefix` + a run of zeros."""

    prefix: str
    x_extra: int
    y_extra: int

    def to_binode(self) -> BiNode:
        return BiNode(
            NodeAddress(self.prefix + "0" * self.x_extra),
            NodeAddress(self.prefix + "0" * self.y_extra),
        )


@dataclass
class BitreeInstance:
    """The family F = {q_jk} and the atomic measure nu at scale n = 2^s."""

    n: int
    s: int
    M: int
    delta: Fraction
    lam: Fraction
    extras: list[tuple[int, int]]           # (x_extra, y_extra) of q_jk, k = 0..s
    atom_mass: Fraction
    potentials: list[Fraction]              # potential(nu, q_1k), k = 0..s
    symmetry_classes: list[range]           # class k: the indices of q_jk, every j
    inclusion: str                          # "full" or "partial"
    rects: Optional[list[_Rect]] = None     # full family, j-major order, small n
    atom_rects: Optional[list[_Rect]] = None  # the omega_j corner squares, small n
    nu: Optional[PointMeasure] = None       # materialized for small n
    family: Optional[list[BiNode]] = None   # materialized for small n

    @property
    def count(self) -> int:
        """The number n/s = 2^M of prefixes j."""
        return self.n // self.s

    @property
    def family_size(self) -> int:
        return self.count * len(self.extras)


def _kernel_block(M: int, j1, x1, y1, j2, x2, y2) -> np.ndarray:
    """Common-ancestor counts of rectangles (prefix j, x_extra, y_extra),
    broadcast over the arguments.  Prefixes are the M-bit forms of j, so two
    distinct ones share M - bit_length(j1 ^ j2) leading bits."""
    same = (M + np.minimum(x1, x2) + 1) * (M + np.minimum(y1, y2) + 1)
    lcp = M - np.frexp(np.bitwise_xor(j1, j2))[1]  # frexp's exponent of an int is its bit length
    return np.where(np.equal(j1, j2), same, (lcp + 1) ** 2)


def _lcp_weight(M: int) -> int:
    """Sum of (lcp + 1)^2 over the prefixes other than a given one: exactly
    2^(M-1-t) of them share t < M leading bits with it."""
    return sum(2 ** (M - 1 - t) * (t + 1) ** 2 for t in range(M))


def build_instance(n: int) -> BitreeInstance:
    """Atoms of mass 1/n^2 at the corner squares omega_j; rectangles q_jk
    with zero-extensions (ceil(n/2^k), 2^k), k = 0..s, j = 1..n/s."""
    if n not in ADMISSIBLE_N:
        raise ValueError(f"n must be one of {ADMISSIBLE_N}, got {n}")
    s = n.bit_length() - 1
    M = (n // s).bit_length() - 1
    count = n // s
    atom_mass = Fraction(1, n * n)
    delta = Fraction(count, n * n)
    assert delta == Fraction(1, n * s)

    extras = [(-(-n // 2 ** k), 2 ** k) for k in range(s + 1)]
    # The atoms are the rectangles (j, n, n) and no extra exceeds n, so the
    # atom sharing q_1k's prefix contributes (M + xe + 1)(M + ye + 1).
    far = _lcp_weight(M)
    potentials = [atom_mass * ((M + xe + 1) * (M + ye + 1) + far) for xe, ye in extras]
    lam = max(potentials) / 4
    ratio = max(potentials) / min(potentials)
    inclusion = "full" if ratio <= 2 else "partial"
    classes = [range(k, count * (s + 1), s + 1) for k in range(s + 1)]

    inst = BitreeInstance(
        n=n, s=s, M=M, delta=delta, lam=lam, extras=extras, atom_mass=atom_mass,
        potentials=potentials, symmetry_classes=classes, inclusion=inclusion,
    )
    if n <= _MATERIALIZE_N:
        prefixes = [format(j, f"0{M}b") for j in range(count)]
        inst.atom_rects = [_Rect(p, n, n) for p in prefixes]
        inst.rects = [_Rect(p, xe, ye) for p in prefixes for xe, ye in extras]
        inst.nu = PointMeasure.of((w.to_binode(), atom_mass) for w in inst.atom_rects)
        inst.family = [r.to_binode() for r in inst.rects]
    return inst


def check_lemma_g(inst: BitreeInstance) -> dict:
    """Potentials Ig(q_1k) for all k, cross-checked at j = 2 by a sum over
    the atoms, with the comparability ratio and the n-normalized interval."""
    values = inst.potentials
    if inst.count > 1:  # more than one j available
        xe, ye = np.array(inst.extras).T
        per_atom = _kernel_block(inst.M, 1, xe[:, None], ye[:, None],
                                 np.arange(inst.count), inst.n, inst.n)
        other = [inst.atom_mass * int(row) for row in per_atom.sum(axis=1)]
        symmetric = other == values
    else:
        symmetric = True
    lo, hi = min(values), max(values)
    return {
        "n": inst.n,
        "values": list(values),
        "min": lo, "max": hi,
        "n_min": inst.n * lo, "n_max": inst.n * hi,
        "ratio": hi / lo,
        "symmetric_j": symmetric,
        "inclusion": inst.inclusion,
    }


@dataclass
class EquilibriumResult:
    """Equilibrium measure of the capacity QP, one mass per symmetry class."""

    rho: np.ndarray
    class_sizes: np.ndarray
    cap: float
    kkt_max_violation: float
    iterations: int
    converged: bool


def _kkt_violation(S: np.ndarray, b: np.ndarray, t: np.ndarray) -> float:
    r = (S @ t) / b - 1.0
    on = t > 0
    viol = float(np.max(np.abs(r[on]))) if on.any() else 0.0
    off = ~on
    if off.any():
        viol = max(viol, float(np.max(np.maximum(0.0, -r[off]))))
    return viol


def _solve_reduced_qp(S: np.ndarray, b: np.ndarray, tol: float, max_iters: int) -> EquilibriumResult:
    """minimize (1/2) t'St - b't over t >= 0 by projected gradient with a
    periodic active-set polish; grad/b - 1 is the per-member KKT residual."""
    step = 1.0 / float(S.sum(axis=1).max())
    t = np.zeros(len(b))
    viol = _kkt_violation(S, b, t)
    it = 0
    while it < max_iters and viol > tol:
        t = np.maximum(0.0, t - step * (S @ t - b))
        it += 1
        if it % 50 == 0 or it == max_iters:
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
    viol = _kkt_violation(S, b, t)
    cap = float(b @ t)
    return EquilibriumResult(
        rho=t, class_sizes=b.copy(), cap=cap,
        kkt_max_violation=viol, iterations=it, converged=viol <= tol,
    )


def _symmetrized(S: np.ndarray, classes: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The assembled class-summed kernel and the class sizes.  Symmetry of
    the matrix is asserted, which fails loudly on a wrong partition."""
    if not np.allclose(S, S.T, rtol=1e-12, atol=0.0):
        raise ValueError("symmetry_classes are not kernel orbits (asymmetric reduced kernel)")
    S = (S + S.T) / 2.0
    b = np.array([float(len(c)) for c in classes])
    return S, b


def _reduced_matrix(kernel_fn, items, classes: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Class-summed kernel S[c1][c2] = sum over the two orbits of K, from
    one representative row per class (valid when the classes are kernel
    orbits)."""
    m = len(classes)
    S = np.zeros((m, m))
    for c1, members1 in enumerate(classes):
        rep = items[members1[0]]
        for c2, members2 in enumerate(classes):
            row = sum(kernel_fn(rep, items[j]) for j in members2)
            S[c1, c2] = len(members1) * row
    return _symmetrized(S, classes)


def _instance_matrix(inst: BitreeInstance, use_symmetry: bool) -> tuple[np.ndarray, np.ndarray]:
    """The instance's class-summed kernel, assembled from the lcp counts.

    With symmetry, class k holds q_jk for every j.  Row (j = 0, k1) summed
    over class k2 is the same-prefix term plus the lcp weight of the other
    prefixes, and each of the 2^M rows of class k1 sums to the same value.
    Without it, the full kernel over the family in j-major order.  Entries
    stay below 2^53 at every admissible n, so the float matrix is exact.
    """
    xe, ye = np.array(inst.extras).T
    if use_symmetry:
        same = _kernel_block(inst.M, 0, xe[:, None], ye[:, None], 0, xe, ye)
        S = inst.count * (same + _lcp_weight(inst.M))
        return _symmetrized(S.astype(float), inst.symmetry_classes)
    if inst.family_size > _NO_SYMMETRY_MAX_FAMILY:
        raise ResourceError(
            f"family of size {inst.family_size} requires the symmetry reduction")
    j = np.repeat(np.arange(inst.count), len(xe))
    x, y = np.tile(xe, inst.count), np.tile(ye, inst.count)
    S = _kernel_block(inst.M, j[:, None], x[:, None], y[:, None], j, x, y)
    return _symmetrized(S.astype(float), [[i] for i in range(inst.family_size)])


def capacity_qp(
    family: Sequence[BiNode],
    symmetry_classes: Optional[list[list[int]]] = None,
    tol: float = 1e-10,
    max_iters: int = 200000,
) -> EquilibriumResult:
    """Dual capacity QP over an explicit rectangle family."""
    if not family:
        raise ValueError("family must be nonempty")
    classes = symmetry_classes or [[i] for i in range(len(family))]
    S, b = _reduced_matrix(kernel, list(family), classes)
    return _solve_reduced_qp(S, b, tol, max_iters)


def capacity_qp_instance(
    inst: BitreeInstance,
    tol: float = 1e-10,
    max_iters: int = 200000,
    use_symmetry: bool = True,
) -> EquilibriumResult:
    """Capacity of the instance family through the structured kernel."""
    S, b = _instance_matrix(inst, use_symmetry)
    return _solve_reduced_qp(S, b, tol, max_iters)


def _solve_exact(A: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """Gaussian elimination over the rationals; None when singular."""
    m = len(A)
    M = [row[:] + [bv] for row, bv in zip(A, b)]
    for col in range(m):
        piv = next((r for r in range(col, m) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(m):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    return [row[m] for row in M]


def capacity_bruteforce(family: Sequence[BiNode]) -> Fraction:
    """Exact capacity by active-set enumeration: for every subset solve
    K_S rho = 1 in rational arithmetic, keep non-negative solutions whose
    potential covers the whole family, return the minimal total mass."""
    m = len(family)
    if not m:
        raise ValueError("family must be nonempty")
    if m > _BRUTEFORCE_MAX:
        raise ResourceError(f"brute force limited to {_BRUTEFORCE_MAX} members, got {m}")
    K = [[Fraction(kernel(a, b)) for b in family] for a in family]
    one = Fraction(1)
    best: Optional[Fraction] = None
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            A = [[K[i][j] for j in subset] for i in subset]
            rho = _solve_exact(A, [one] * size)
            if rho is None or any(v < 0 for v in rho):
                continue
            if any(sum(K[i][j] * v for j, v in zip(subset, rho)) < one for i in range(m)):
                continue
            total = sum(rho)
            if best is None or total < best:
                best = total
    if best is None:
        raise RuntimeError("no feasible active set found for a nonempty family")
    return best


def report_d2(inst: BitreeInstance, eq: EquilibriumResult) -> dict:
    """One table row of the refutation: cap(F_n) stays bounded below while
    delta/lambda shrinks like 1/log n."""
    if not eq.converged:
        raise ValueError(
            f"equilibrium not converged (kkt residual {eq.kkt_max_violation:.3e})")
    ratio = inst.delta / inst.lam
    s = inst.s
    band = range(s // 2, 3 * s // 4 + 1)
    band_mean = float(np.mean([eq.rho[k] for k in band]))
    return {
        "n": inst.n,
        "delta": inst.delta,
        "lambda": inst.lam,
        "delta_over_lambda": ratio,
        "cap": eq.cap,
        "cap_over_ratio": eq.cap / float(ratio),
        "band_mean_rho_times_n": inst.n * band_mean,
        "kkt_max_violation": eq.kkt_max_violation,
        "iterations": eq.iterations,
        "inclusion": inst.inclusion,
    }
