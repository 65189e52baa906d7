"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Numeric thresholds marked "frozen" were computed once from the exact
closed forms / certified solves and pinned here.
"""

import random
from fractions import Fraction

from cxlab.lemmas import verify_inter
from cxlab.counterexamples import (
    gen_cex_direct,
    gen_cex_increasing,
    gen_cex_new23,
    gen_cex_p_less_2,
    search_new23,
    sum_gp_levels,
)
from cxlab.capacity import (
    build_instance,
    capacity_bruteforce,
    check_lemma_g,
    equilibrium,
    report_d2,
)
from cxlab.experiments import run_verify_suite, suite_failures

from helpers import build_cex_p_less_2_functions, capacity_qp, random_family

SEED = 20230917

# frozen constants (computed once, see the assertions that recheck them)
LEMMA_G_C1 = 2.4          # n * Ig lower bound, both n in {16, 256}
LEMMA_G_C2 = 7.8          # n * Ig upper bound
EQ_E_C0 = 0.08            # n * mean rho_k over the middle band


def _verdict(num: int, desc: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {desc}")
    assert ok, f"acceptance {num} failed: {desc}"


def test_acceptance_1_true_lemma_suites():
    ok = True
    detail = []
    for suite in ("l1linf", "i2pos", "phi", "gest", "new23"):
        reports = run_verify_suite(suite, trials=500, depth=8, seed=SEED)
        failures = suite_failures(reports)
        detail.append(f"{suite}:{len(failures)}")
        ok = ok and not failures
        if suite == "new23":
            ps = {r.params["p"] for r in reports}
            ok = ok and {1, 1.5, 2} <= ps
    _verdict(1, f"true-lemma suites, 500 exact instances each, "
                f"violations per suite [{', '.join(detail)}]", ok)


def test_acceptance_2_closed_form_sum_g2():
    identity = all(
        Fraction(*sum_gp_levels(N, 2)) == 4 * (Fraction(5, 4) ** N - 1) for N in range(1, 26))
    report = gen_cex_increasing(20, 2)
    ratio_ok = report.ratio == report.lhs / 20 and report.ratio > 17
    _verdict(2, "sum g^2 = 4((5/4)^N - 1) for N=1..25 and N=20 ratio > 17",
             identity and ratio_ok)


def test_acceptance_3_p_less_2_counterexample():
    p = 1.5
    prev = None
    increasing = True
    bounds = True
    for k in (3, 4, 5, 6):
        report = gen_cex_p_less_2(k, p, seed=SEED)
        d, f, g = build_cex_p_less_2_functions(k)
        r = verify_inter(f, g, p, d, seed=SEED)
        if prev is not None and not float(r.ratio) > float(prev):
            increasing = False
        prev = r.ratio
        if not float(report.lhs) >= 2.0 ** ((2 - p) * k):
            bounds = False
    _verdict(3, "p=1.5 ratio strictly increasing over k=3..6 and "
                "sum (If g)^p >= 2^((2-p)k)", increasing and bounds)


def test_acceptance_4_direct_counterexample():
    report = gen_cex_direct(40, 2, seed=SEED)
    ok = (report.params["delta"] == 2 and report.params["lambda"] == 40
          and report.extra["sum_fp"] == 40 and float(report.ratio) > 9)
    _verdict(4, f"N=40 direct instance ratio {float(report.ratio):.2f} > 9 "
                f"with delta=2, lambda=40", ok)


def test_acceptance_5_capacity_oracle():
    rng = random.Random(SEED)
    ok = True
    worst = 0.0
    for _ in range(50):
        family = random_family(rng, max_members=6, max_depth=3)
        exact = float(capacity_bruteforce(family))
        eq = capacity_qp(family)
        rel = abs(eq.cap - exact) / exact
        worst = max(worst, rel)
        ok = ok and eq.converged and rel <= 1e-6
    for a in range(4):
        for b in range(4):
            node = "0" * a, "1" * b
            want = Fraction(1, (a + 1) * (b + 1))
            ok = ok and capacity_bruteforce([node]) == want
            ok = ok and abs(capacity_qp([node]).cap - float(want)) <= 1e-9
    _verdict(5, f"50 random families: QP vs exact oracle, worst rel err "
                f"{worst:.2e} <= 1e-6; forced single-node capacities exact", ok)


def test_acceptance_6_refutation_table():
    rows = {}
    lemma = {}
    ok = True
    for n in (16, 256):
        inst = build_instance(n)
        ok = ok and inst.delta == Fraction(1, n * inst.s)          # (i)
        lemma[n] = check_lemma_g(inst)
        eq = equilibrium(inst)
        ok = ok and eq.certified and eq.kkt_max_violation == 0     # (iii)
        rows[n] = report_d2(inst, eq)
    for n in (16, 256):                                            # (ii)
        ok = ok and LEMMA_G_C1 <= float(lemma[n]["n_min"])
        ok = ok and float(lemma[n]["n_max"]) <= LEMMA_G_C2
    ok = ok and LEMMA_G_C2 / LEMMA_G_C1 <= 8
    caps = [rows[16]["cap"], rows[256]["cap"]]                     # (iv)
    cap_spread = max(caps) / min(caps)
    dol = [float(rows[16]["delta_over_lambda"]), float(rows[256]["delta_over_lambda"])]
    ok = ok and cap_spread <= 2 and dol[0] / dol[1] >= 1.5
    band = [rows[n]["band_mean_rho_times_n"] for n in (16, 256)]   # (v)
    ok = ok and all(v >= EQ_E_C0 for v in band)
    _verdict(6, f"refutation table n in {{16, 256}}: cap spread {cap_spread:.3f} <= 2, "
                f"delta/lambda drop {dol[0] / dol[1]:.2f} >= 1.5, "
                f"n*Ig in [{LEMMA_G_C1}, {LEMMA_G_C2}], band mean >= {EQ_E_C0}", ok)


def test_acceptance_7_audit_and_search():
    ok = True
    for N in (10, 100, 1000):
        audits = gen_cex_new23(N, 4)
        again = gen_cex_new23(N, 4)
        for variant in ("halving", "ones"):
            a = audits[variant]
            ok = ok and a.to_dict() == again[variant].to_dict()
            ok = ok and a.boundary_argmax_ok
            ok = ok and len(a.steps) == 10
            ok = ok and a.first_failed_step == "g_telescope"
    best = search_new23(4, 10, 10_000, seed=SEED)
    ok = ok and best.to_dict() == search_new23(4, 10, 10_000, seed=SEED).to_dict()
    for p in (1.5, 2):
        r = search_new23(p, 10, 10_000, seed=SEED)
        ok = ok and r.holds and (r.ratio is None or float(r.ratio) <= 1 + 1e-9)
    _verdict(7, "deterministic audit tables (first failing printed step: "
                "g_telescope) and reproducible search; p <= 2 never violates", ok)
