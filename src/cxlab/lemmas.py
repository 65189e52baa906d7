"""Executable verifiers for the embedding lemmas.

Every verifier returns a LemmaReport carrying both sides of the inequality,
their ratio and a witness node, so the same code confirms the true
statements and quantifies the violations.  The thresholds lambda and delta
are always computed as the least admissible values from the instance, which
makes reports canonical and comparable across instance sizes.

The verifiers compute on the int numerators a SparseFn holds and the If
and II*g tables of hardy give, each over its function's one denominator.
At integral p every max, sum and power is taken on the ints, both sides
of an inequality end over one denominator, and the verdict compares their
numerators.  Each verifier takes the report mode, EXACT or FLOAT, as it
takes its seed, and the mode only renders the reported values: each is
the Fraction num/den in exact mode, and in float mode the correctly
rounded num/den, with the ratio the correctly rounded ratio of the exact
sides.  A non-integral p rounds each exact value once, where _pow did, and
evaluates in floats in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .trees import PreconditionError, Scalar, SparseFn, TreeDomain, _as_int, _pow
from .hardy import _heap_values, _iistar_paths, _up_heap, hardy_up_table
from .structure import check_power_superadditive, is_increasing, is_superadditive

# The report modes: a report carries its values as Fractions, or as their
# correctly rounded floats.
EXACT = "exact"
FLOAT = "float"

# Explicit constants traced through the proof of the phi-construction lemma:
# (lambda/2 - delta)/lambda >= 1/4 once lambda >= 4 delta, and the energy
# chain closes with 2*lambda*delta/lambda^2.
PHI_LOWER_CONST = Fraction(1, 4)
PHI_ENERGY_CONST = 2

@dataclass
class LemmaReport:
    """One inequality evaluation: LHS, RHS, their ratio and a witness.

    rounded_ratio is set where lhs and rhs are floats rendered from exact
    sides: the correctly rounded exact ratio, which lhs / rhs need not be.
    """

    name: str
    params: dict
    lhs: Scalar
    rhs: Scalar
    holds: bool
    witness: Optional[str] = None
    mode: str = EXACT
    seed: Optional[int] = None
    degenerate: bool = False
    extra: dict = field(default_factory=dict)
    rounded_ratio: Optional[float] = None

    @property
    def ratio(self) -> Optional[Scalar]:
        if self.rounded_ratio is not None:
            return self.rounded_ratio
        if self.rhs == 0:
            return None
        return self.lhs / self.rhs

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": {k: scalar_repr(v) for k, v in self.params.items()},
            "lhs": scalar_repr(self.lhs),
            "rhs": scalar_repr(self.rhs),
            "ratio": scalar_repr(self.ratio),
            "holds": self.holds,
            "witness": self.witness,
            "mode": self.mode,
            "seed": self.seed,
            "degenerate": self.degenerate,
            "extra": {k: scalar_repr(v) for k, v in self.extra.items()},
        }


def scalar_repr(v):
    """Exact scalars as fraction strings, floats at 17 significant digits."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, float):
        return float(repr(v))
    if isinstance(v, (list, tuple)):
        return [scalar_repr(x) for x in v]
    return v


def _value(num: int, den: int, mode: str) -> Scalar:
    """num/den as a report carries it: the Fraction in exact mode, the
    correctly rounded float in float mode.  Every verifier renders through
    here before it builds its report, so any other mode raises ValueError
    here."""
    if mode == EXACT:
        return Fraction(num, den)
    if mode == FLOAT:
        return num / den
    raise ValueError(f"unknown report mode {mode!r}")


def _render(x: Scalar, mode: str) -> Scalar:
    """An exact scalar as a report carries it: itself in exact mode, its
    correctly rounded float in float mode."""
    return x if mode == EXACT else float(x)


def _sides(lhs: int, rhs: int, den: int, mode: str) -> dict:
    """The lhs, rhs and rounded_ratio of a report whose sides are lhs/den
    and rhs/den, rendered in the given mode."""
    sides = {"lhs": _value(lhs, den, mode), "rhs": _value(rhs, den, mode)}
    if mode == FLOAT:
        sides["rounded_ratio"] = lhs / rhs if rhs else None
    return sides


def _sup_iistar(g: SparseFn, *path_lists) -> list[tuple[int, Optional[str]]]:
    """For each given list of paths of g's tree, the max of II*g over it, an
    int numerator over g's denominator, and the first path attaining it;
    (0, None) for an empty list.  One sweep serves every list.
    """
    up, _ = _iistar_paths(g, (x for paths in path_lists for x in paths))
    out = []
    for paths in path_lists:
        best, arg = 0, None
        for x in paths:
            v = up[x]
            if v > best:
                best, arg = v, x
        out.append((best, arg))
    return out


def _refined_paths(g_paths, f_paths) -> list[str]:
    """The paths of the refined sup: for every path of supp g the path of
    its deepest f-supported ancestor, skipping those with none."""
    out = []
    for x in g_paths:
        for i in range(len(x), -1, -1):
            if x[:i] in f_paths:
                out.append(x[:i])
                break
    return out


def verify_supadditive_l1linf(
    g: SparseFn, h: SparseFn, gamma: str, d: TreeDomain,
    seed: Optional[int] = None, mode: str = EXACT,
) -> LemmaReport:
    """sum_{alpha <= gamma} g h <= lambda g(gamma), lambda = max Ih on supp g."""
    gv, hv = g.values, h.values
    lam = max(hardy_up_table(h, gv).values(), default=0)
    lhs = sum(v * hv.get(x, 0) for x, v in gv.items() if x.startswith(gamma))
    # both sides over g.den h.den
    rhs = lam * gv.get(gamma, 0)
    holds = lhs <= rhs
    return LemmaReport(
        name="supadditive_l1linf",
        params={"lambda": _value(lam, h.den, mode), "gamma": gamma},
        **_sides(lhs, rhs, g.den * h.den, mode), holds=holds,
        witness=None if holds else gamma,
        mode=mode, seed=seed, degenerate=rhs == 0 and lhs > 0,
        extra={"superadditive": is_superadditive(g, d)[0]},
    )


def verify_I2_positive(
    f: SparseFn, g: SparseFn, d: TreeDomain, seed: Optional[int] = None,
    mode: str = EXACT,
) -> LemmaReport:
    """sum (If)^2 g <= (refined sup of II*g) * sum f^2; unconditional.
    A node of supp f or supp g outside d raises DomainError."""
    fv, gv = f.values, g.values
    d.require(fv)
    d.require(gv)
    up = hardy_up_table(f, gv)
    lhs = sum(up[x] ** 2 * v for x, v in gv.items())
    (sup, arg), (coarse, _) = _sup_iistar(g, _refined_paths(gv, fv), gv)
    # both sides over f.den^2 g.den
    rhs = sup * sum(v * v for v in fv.values())
    return LemmaReport(
        name="I2_positive",
        params={"sup_iistar": _value(sup, g.den, mode)},
        **_sides(lhs, rhs, f.den * f.den * g.den, mode), holds=lhs <= rhs,
        witness=arg, mode=mode, seed=seed,
        extra={"coarse_sup": _value(coarse, g.den, mode)},
    )


def build_phi(
    w: SparseFn, g: SparseFn, f: SparseFn, lam: Scalar, delta: Scalar,
    d: TreeDomain, seed: Optional[int] = None, mode: str = EXACT,
    iwg: Optional[tuple[list, int]] = None,
) -> tuple[SparseFn, LemmaReport]:
    """The indicator-weighted majorant phi and its two proof-traced checks.

    phi(a) = (1/lambda) [delta < I(wg)(a) <= 2 lambda] I(wf)(a) g(a);
    check (a): I(w phi) >= (1/4) I(wf) on {lambda/2 < I(wg) <= 2 lambda};
    check (b): sum w phi^2 <= 2 (delta/lambda) sum w f^2.

    lambda and delta are read at their exact values (a float at its binary
    value), and the report renders them in the given mode.  w is read only
    on supp g and supp f (phi lies inside supp g), so a w that holds no
    other node gives the same phi and report.  The three I sweeps run over
    lists in heap order and check (a) visits every node, so a domain of
    more than 20 levels raises ResourceError.  iwg, when the caller has already swept
    I(wg), is that list and the denominator of its entries, as
    hardy._heap_values and _up_heap give them; swept here when None.  A
    list of the wrong length raises ValueError.
    """
    ok, witness = is_superadditive(g, d)
    if not ok:
        raise PreconditionError("g is not superadditive", witness)
    # delta = a/b and lambda = c/e, each over a positive denominator
    a, b = delta.as_integer_ratio()
    c, e = lam.as_integer_ratio()
    if c * b < 4 * a * e:
        raise PreconditionError(f"lambda >= 4*delta required (lambda={lam}, delta={delta})")
    phi, a_ok, a_witness, worst_a = _phi_heap(w, g, f, (a, b), (c, e), d, iwg, mode)

    # check (b) over one denominator: sum w phi^2 = wphi2 / den_phi and
    # 2 delta sum w f^2 / lambda = 2 (a/b) (wf2 / den_f) / (c/e)
    wphi2, den_phi = _weighted_square_sum(w, phi)
    wf2, den_f = _weighted_square_sum(w, f)
    lhs = wphi2 * b * c * den_f
    rhs = PHI_ENERGY_CONST * a * e * wf2 * den_phi
    b_ok = lhs <= rhs

    report = LemmaReport(
        name="build_phi",
        params={"lambda": _render(lam, mode), "delta": _render(delta, mode)},
        **_sides(lhs, rhs, den_phi * b * c * den_f, mode), holds=a_ok and b_ok,
        witness=a_witness, mode=mode, seed=seed,
        extra={
            "lower_check_ok": a_ok,
            "energy_check_ok": b_ok,
            "worst_lower_ratio": worst_a,
            "lower_const": _render(PHI_LOWER_CONST, mode),
            "energy_const": PHI_ENERGY_CONST,
        },
    )
    return phi, report


def _weighted_square_sum(w: SparseFn, fn: SparseFn) -> tuple[int, int]:
    """sum over supp fn of w fn^2: its int numerator and its denominator,
    w.den fn.den^2."""
    wv = w.values
    return (sum(wv.get(x, 0) * v * v for x, v in fn.values.items()),
            w.den * fn.den * fn.den)


def _phi_heap(w, g, f, delta, lam, d, iwg, mode):
    """phi and check (a) over every node of d: phi, whether check (a)
    holds, its last failing node in heap order and its least ratio,
    rendered in the given mode.  delta and lam are (numerator, denominator)
    pairs.

    Each I is one _up_heap sweep of int numerators, each table over its own
    denominator.  A threshold t = a/b is read as floor(t den) = a den // b,
    an int floor division, since an integer n exceeds t iff it exceeds
    floor(t), and ratios are compared by cross-multiplying.
    """
    size = 1 << d.levels
    if iwg is None:
        iwg = _heap_values(w.mul(g), d)
        _up_heap(iwg[0])
    elif len(iwg[0]) != size:
        raise ValueError(f"iwg holds {len(iwg[0])} heap entries, the domain needs {size}")
    up_wg, den_wg = iwg
    (a, b), (c, e) = delta, lam
    delta_t = a * den_wg // b
    half_t, two_t = c * den_wg // (2 * e), 2 * c * den_wg // e
    d.require(f.values)
    for path in f.values:
        if up_wg[int("1" + path, 2)] > delta_t:
            raise PreconditionError("supp f must lie inside {I(wg) <= delta}",
                                    path)

    up_wf, den_wf = _heap_values(w.mul(f), d)
    _up_heap(up_wf)
    phi_values = {}
    for path, gv in g.values.items():
        k = int("1" + path, 2)
        # phi is zero where I(wf) is
        if up_wf[k] and delta_t < up_wg[k] <= two_t:
            # (up_wf / den_wf) (gv / g.den) / (c / e), a numerator over phi's den
            phi_values[path] = up_wf[k] * gv * e
    phi = SparseFn(phi_values, den_wf * g.den * c)

    up_wphi, den_wphi = _heap_values(w.mul(phi), d)
    _up_heap(up_wphi)
    a_ok, a_k, worst_k, worst_a = True, None, None, None
    # the ratio at k is (up_wphi[k] / den_wphi) / (up_wf[k] / den_wf)
    lower_wphi = PHI_LOWER_CONST.denominator * den_wf
    lower_wf = PHI_LOWER_CONST.numerator * den_wphi
    for k, wf_k in enumerate(up_wf):
        # I(wf) >= 0, so its truth is "> 0", and it is zero at most nodes
        if wf_k and half_t < up_wg[k] <= two_t:
            wphi_k = up_wphi[k]
            if worst_k is None or wphi_k * up_wf[worst_k] < up_wphi[worst_k] * wf_k:
                worst_k = k
            if wphi_k * lower_wphi < lower_wf * wf_k:
                a_ok, a_k = False, k
    if worst_k is not None:
        worst_a = _value(up_wphi[worst_k] * den_wf, up_wf[worst_k] * den_wphi, mode)
    a_witness = None if a_k is None else bin(a_k)[3:]
    return phi, a_ok, a_witness, worst_a


def verify_inter(
    f: SparseFn, g: SparseFn, p: Scalar, d: TreeDomain, seed: Optional[int] = None,
    mode: str = EXACT,
) -> LemmaReport:
    """||If . g||_p <= delta^((p-1)/p) lambda^(1/p) ||f||_p with least delta, lambda.

    The sums are exact at integral p, but both sides are compared as float
    p-th roots of their correctly rounded values, in both modes.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    fv, fden = f.values, f.den
    gv, gden = g.values, g.den
    # Ig is constant below the deepest supported ancestor, so its max over
    # the tree is its max over supp g and the root
    ig = hardy_up_table(g, [*fv, *gv, ""])
    delta = _value(max((ig[x] for x in fv), default=0), gden, mode)
    lam = _value(max(ig[x] for x in (*gv, "")), gden, mode)
    # an empty sum is the exact zero, rendered
    zero = _value(0, 1, mode)
    if not fv:
        return LemmaReport(
            name="inter", params={"p": p, "delta": delta, "lambda": lam},
            lhs=zero, rhs=zero, holds=True,
            mode=mode, seed=seed, degenerate=True,
        )
    up = hardy_up_table(f, gv)
    den = fden * gden
    e = _as_int(p)
    if e is not None:
        sum_fp = _value(sum(v ** e for v in fv.values()), fden ** e, mode)
        sum_ifg_p = _value(sum((up[x] * v) ** e for x, v in gv.items()), den ** e, mode)
    else:
        sum_fp = sum((_pow(v / fden, p) for v in fv.values()), zero)
        sum_ifg_p = sum((_pow(up[x] * v / den, p) for x, v in gv.items()), zero)
    pf = float(p)
    lhs = float(sum_ifg_p) ** (1.0 / pf)
    rhs = float(delta) ** ((pf - 1.0) / pf) * float(lam) ** (1.0 / pf) * float(sum_fp) ** (1.0 / pf)
    return LemmaReport(
        name="inter",
        params={"p": p, "delta": delta, "lambda": lam},
        lhs=lhs, rhs=rhs, holds=lhs <= rhs,
        mode=FLOAT, seed=seed,
        extra={
            "sum_ifg_p": sum_ifg_p,
            "sum_fp": sum_fp,
            "superadditive": is_superadditive(g, d)[0],
        },
    )


def verify_linf(
    f: SparseFn, g: SparseFn, d: TreeDomain, seed: Optional[int] = None,
    mode: str = EXACT,
) -> LemmaReport:
    """||If . g||_inf <= (sup over supp g & supp f of II*g) ||f||_inf for increasing g."""
    fv, gv = f.values, g.values
    up = hardy_up_table(f, gv)
    lhs, arg = 0, None
    for x, v in gv.items():
        val = up[x] * v
        if val > lhs:
            lhs, arg = val, x
    (sup, sup_arg), = _sup_iistar(g, [x for x in gv if x in fv])
    # both sides over f.den g.den
    rhs = sup * max(fv.values(), default=0)
    return LemmaReport(
        name="linf",
        params={"sup_iistar": _value(sup, g.den, mode)},
        **_sides(lhs, rhs, f.den * g.den, mode), holds=lhs <= rhs,
        witness=arg if lhs > rhs else sup_arg,
        mode=mode, seed=seed,
        extra={"increasing": is_increasing(g, d)[0]},
    )


def verify_new23(
    f: SparseFn, g: SparseFn, p: Scalar, d: TreeDomain, seed: Optional[int] = None,
    mode: str = EXACT,
) -> LemmaReport:
    """sum (If)^p g <= (sup over supp g & supp f of II*g) sum f^p."""
    if p < 1:
        raise ValueError("p must be at least 1")
    fv, fden = f.values, f.den
    gv, gden = g.values, g.den
    up = hardy_up_table(f, gv)
    (sup, arg), (coarse, _) = _sup_iistar(g, [x for x in gv if x in fv], gv)
    sup_v = _value(sup, gden, mode)
    e = _as_int(p)
    if e is not None:
        # both sides over fden^e gden
        lhs = sum(up[x] ** e * v for x, v in gv.items())
        rhs = sup * sum(v ** e for v in fv.values())
        holds = lhs <= rhs
        sides = _sides(lhs, rhs, fden ** e * gden, mode)
    else:
        # an empty sum is the exact zero, rendered
        zero = _value(0, 1, mode)
        lhs = sum((_pow(up[x] / fden, p) * (v / gden) for x, v in gv.items()), zero)
        rhs = sup_v * sum((_pow(v / fden, p) for v in fv.values()), zero)
        # float sides: lhs <= rhs up to a relative 1e-12
        holds = lhs <= rhs * (1 + 1e-12)
        sides = {"lhs": lhs, "rhs": rhs}
    return LemmaReport(
        name="new23",
        params={"p": p, "sup_iistar": sup_v},
        **sides, holds=holds,
        witness=arg, mode=mode if e is not None else FLOAT, seed=seed,
        extra={
            "coarse_sup": _value(coarse, gden, mode),
            "increasing": is_increasing(g, d)[0],
            "superadditive": is_superadditive(g, d)[0],
        },
    )


def verify_gest(
    g: SparseFn, gamma: str, p: Scalar, d: TreeDomain,
    seed: Optional[int] = None, mode: str = EXACT,
) -> LemmaReport:
    """sum_{alpha <= gamma} g^p <= lambda g^(p-1)(gamma), lambda = max Ig on
    supp g, for integral p > 1."""
    pre_ok, pre_witness = check_power_superadditive(g, d, p)
    if not pre_ok:
        raise PreconditionError("g^(p-1) is not superadditive", pre_witness)
    gv, gden = g.values, g.den
    lam = max(hardy_up_table(g, gv).values(), default=0)
    e = _as_int(p)
    # both sides over gden^e; p > 1, so e - 1 >= 1
    lhs = sum(v ** e for x, v in gv.items() if x.startswith(gamma))
    rhs = lam * gv.get(gamma, 0) ** (e - 1)
    holds = lhs <= rhs
    return LemmaReport(
        name="gest",
        params={"p": p, "lambda": _value(lam, gden, mode), "gamma": gamma},
        **_sides(lhs, rhs, gden ** e, mode), holds=holds,
        witness=None if holds else gamma,
        mode=mode, seed=seed,
        degenerate=rhs == 0 and lhs > 0,
    )
