"""The bi-tree capacity experiment: the atomic measure nu, the rectangle
family, the potential comparability check, and the equilibrium measure of
the capacity QP in closed form with an exact certificate, plus an exact
brute-force oracle.

All rectangles in the instance are a short prefix followed by a run of
zeros, so the instance holds each one only as a (j, x_extra, y_extra)
triple, the atoms of nu included, and evaluates the common-ancestor kernel
from that structure; the largest admissible n would otherwise need paths
tens of thousands of characters long.  BiNodes are built only for the
small subfamily that the brute-force oracle checks (`prefix_members`).
The prefix of q_jk is the M-bit form of j, so two distinct prefixes
share M - bit_length(j1 ^ j2) leading bits, and any one prefix shares t < M
leading bits with exactly 2^(M-1-t) others.  The class-summed kernel and
the potentials are assembled from those counts rather than rectangle by
rectangle, and every kernel entry is an exact integer.  The
structured kernel is cross-checked against the generic one in the test
suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .trees import BiNode, NodeAddress, ResourceError
from .hardy import kernel

ADMISSIBLE_N = (4, 16, 256, 65536)
_BRUTEFORCE_MAX = 12
_NO_SYMMETRY_MAX_FAMILY = 2000


@dataclass
class BitreeInstance:
    """The family F = {q_jk} and the atomic measure nu at scale n = 2^s,
    held as triples: q_jk is (j, *extras[k]) for j = 0..count-1, and nu puts
    atom_mass on each corner square omega_j = (j, n, n).  No rectangle is
    built as a BiNode; `prefix_members` builds one prefix's on demand."""

    n: int
    s: int
    M: int
    delta: Fraction
    lam: Fraction
    extras: list[tuple[int, int]]           # (x_extra, y_extra) of q_jk, k = 0..s
    atom_mass: Fraction
    potentials: list[Fraction]              # potential(nu, q_1k), k = 0..s
    inclusion: str                          # "full" or "partial"

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

    return BitreeInstance(
        n=n, s=s, M=M, delta=delta, lam=lam, extras=extras, atom_mass=atom_mass,
        potentials=potentials, inclusion=inclusion,
    )


def prefix_members(inst: BitreeInstance, j: int) -> list[BiNode]:
    """The s + 1 rectangles q_jk, k = 0..s, as BiNodes: the M-bit form of j
    followed by x_extra and by y_extra zeros.  Each path is n + M bits long
    at k = 0, so a caller bounds n before building them."""
    prefix = format(j, f"0{inst.M}b")
    return [BiNode(NodeAddress(prefix + "0" * xe), NodeAddress(prefix + "0" * ye))
            for xe, ye in inst.extras]


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


def _class_kernel(inst: BitreeInstance) -> list[list[int]]:
    """S = count (A + far J), the kernel summed over the classes: class k
    holds q_jk for every j.  Row (j = 0, k1) summed over class k2 is the
    same-prefix count A[k1][k2] plus the lcp weight far of the other
    prefixes, and each of the count rows of class k1 sums to the same value."""
    xe, ye = np.array(inst.extras).T
    same = _kernel_block(inst.M, 0, xe[:, None], ye[:, None], 0, xe, ye)
    far, count = _lcp_weight(inst.M), inst.count
    return [[count * (v + far) for v in row] for row in same.tolist()]


def _member_kernel(inst: BitreeInstance) -> np.ndarray:
    """The kernel over the whole family, member by member in j-major order."""
    xe, ye = np.array(inst.extras).T
    j = np.repeat(np.arange(inst.count), len(xe))
    x, y = np.tile(xe, inst.count), np.tile(ye, inst.count)
    return _kernel_block(inst.M, j[:, None], x[:, None], y[:, None], j, x, y)


def _green_solve(inst: BitreeInstance) -> tuple[list[int], list[Fraction]]:
    """D_k and y = A^-1 1 for the same-prefix kernel A[k1][k2] = a_min b_max,
    with a_k = M + 2^k + 1 increasing and b_k = M + ceil(n/2^k) + 1
    decreasing.  A is a one-pair (Green's) matrix, so its inverse T is
    tridiagonal (Gantmacher and Krein, Oscillation Matrices and Kernels):
    with D_k = a_{k+1} b_k - a_k b_{k+1}, T_{k,k+1} = T_{k+1,k} = -1/D_k,
    T_00 = a_1/(a_0 D_0), T_ss = b_{s-1}/(b_s D_{s-1}) and, between them,
    T_kk = (a_{k+1} b_{k-1} - a_{k-1} b_{k+1})/(D_{k-1} D_k).  y_k is the
    sum of row k, taken over the row's common denominator."""
    s = inst.s
    a = [inst.M + ye + 1 for _, ye in inst.extras]
    b = [inst.M + xe + 1 for xe, _ in inst.extras]
    D = [a[k + 1] * b[k] - a[k] * b[k + 1] for k in range(s)]
    y = ([Fraction(a[1] - a[0], a[0] * D[0])]
         + [Fraction(a[k + 1] * b[k - 1] - a[k - 1] * b[k + 1] - D[k - 1] - D[k],
                     D[k - 1] * D[k]) for k in range(1, s)]
         + [Fraction(b[s - 1] - b[s], b[s] * D[s - 1])])
    return D, y


def prefix_capacity(inst: BitreeInstance) -> Fraction:
    """The closed-form capacity of one prefix's s + 1 rectangles
    (`prefix_members`): their kernel is A, so it is sum(A^-1 1)."""
    return sum(_green_solve(inst)[1])


@dataclass
class EquilibriumResult:
    """The equilibrium measure of the capacity QP, one mass per rectangle
    of each class, and its certificate."""

    rho: list[Fraction]              # the mass on q_jk, the same for every j
    cap: Fraction
    failed_check: Optional[str]      # None when the certificate holds
    kkt_max_violation: float         # max over rows of |(S rho)_i / b_i - 1|

    @property
    def certified(self) -> bool:
        return self.failed_check is None


def _certificate(D: list[int], rho: list[Fraction], S: list[list[int]],
                 b: int) -> tuple[Optional[str], float]:
    """The first failed check of D_k > 0, rho > 0 and S rho = b (b the same
    in every row), decided over ints with rho as numerators over one
    denominator, and the largest relative residual of S rho = b.  Column k
    of S is the sum of the kernel's columns that carry the mass rho_k.

    The kernel is a Gram matrix (of common-ancestor indicators), and so is
    its class-summed form; both are positive semidefinite.  So rho >= 0
    with S rho = b satisfies the KKT conditions of the convex QP
    min (1/2) t'St - b't over t >= 0, which are then sufficient: a passing
    certificate proves rho optimal."""
    den = functools.reduce(math.lcm, (r.denominator for r in rho))
    num = [r.numerator * (den // r.denominator) for r in rho]
    want = b * den
    residual = max(abs(sum(map(operator.mul, row, num)) - want) for row in S)
    checks = (("D_k > 0", min(D) > 0), ("rho > 0", min(num) > 0), ("S rho = b", residual == 0))
    failed = next((name for name, ok in checks if not ok), None)
    return failed, float(Fraction(residual, want))


def equilibrium(inst: BitreeInstance, use_symmetry: bool = True) -> EquilibriumResult:
    """The capacity QP's optimum in closed form, certified.

    The class-summed kernel is S = count (A + far J) with b = count 1, so
    by the Sherman-Morrison formula rho = y / (1 + far sum(y)) solves
    S rho = b, where y = A^-1 1, and cap = count sum(y) / (1 + far sum(y)).
    Without symmetry the same rho, repeated for every prefix, is checked
    against every row of the member-by-member kernel instead.
    """
    if not use_symmetry and inst.family_size > _NO_SYMMETRY_MAX_FAMILY:
        raise ResourceError(
            f"family of size {inst.family_size} requires the symmetry reduction")
    D, y = _green_solve(inst)
    total = sum(y)
    t = 1 + _lcp_weight(inst.M) * total
    rho = [v / t for v in y]
    if use_symmetry:
        failed, violation = _certificate(D, rho, _class_kernel(inst), inst.count)
    else:  # every member row, its columns summed per class (exact in int64)
        K = _member_kernel(inst)
        per_class = K.reshape(len(K), inst.count, inst.s + 1).sum(axis=1)
        failed, violation = _certificate(D, rho, per_class.tolist(), 1)
    return EquilibriumResult(rho, inst.count * total / t, failed, violation)


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
    delta/lambda shrinks like 4/(s(M+2)), with s = log2 n and M = log2(n/s),
    so about 4/log2(n)^2: it is 0.195, 0.0648 and 0.0174 at n = 16, 256
    and 65536, against 0.25, 0.071 and 0.018 from the formula."""
    if not eq.certified:
        raise ValueError(f"equilibrium not certified: {eq.failed_check} fails")
    ratio = inst.delta / inst.lam
    s = inst.s
    band = range(s // 2, 3 * s // 4 + 1)
    band_mean = sum(eq.rho[k] for k in band) / len(band)
    return {
        "n": inst.n,
        "delta": inst.delta,
        "lambda": inst.lam,
        "delta_over_lambda": ratio,
        "cap": float(eq.cap),
        "cap_over_ratio": float(eq.cap / ratio),
        "band_mean_rho_times_n": float(inst.n * band_mean),
        "kkt_max_violation": eq.kkt_max_violation,
        "inclusion": inst.inclusion,
    }
