import json
import random
from fractions import Fraction
from math import comb

import pytest

from cxlab.trees import ResourceError, TreeDomain, _as_int, _pow
from cxlab.lemmas import scalar_repr, verify_new23
from cxlab import counterexamples as cex
from cxlab.counterexamples import (
    _audit_variant,
    _power_tables,
    gen_cex_direct,
    gen_cex_increasing,
    gen_cex_new23,
    gen_cex_p_less_2,
    search_new23,
    sum_gp_levels,
    sum_ifg_p_direct,
)

import helpers
from helpers import (
    ancestors,
    audit_variant_fraction,
    build_cex_p_less_2_functions,
    doubling_g_fn,
    eval_hardy_down,
    fn,
    get,
    hardy_up_scalars,
    items,
    leftmost_path_fn,
    sum_gp_levels_fraction,
    sum_ifg_p_direct_fraction,
    support,
    tree_nodes_bfs,
)


def sum_gp_binomial(N, p):
    """Independent form of sum_gp_levels: level i contributes
    sum_j C(i,j) 2^(-jp) over the number j of zero bits."""
    total = Fraction(0) if _as_int(p) is not None else 0.0
    for i in range(N):
        for j in range(i + 1):
            total += comb(i, j) * _pow(Fraction(1, 2 ** j), p)
    return total


class TestClosedForms:
    @pytest.mark.parametrize("p", [2, 3])
    def test_level_recursion_equals_binomial_sum(self, p):
        for N in range(1, 26):
            assert sum_gp_levels(N, p) == sum_gp_binomial(N, p)

    def test_p2_closed_form_identity(self):
        for N in range(1, 26):
            assert sum_gp_levels(N, 2) == 4 * (Fraction(5, 4) ** N - 1)

    @pytest.mark.parametrize("N", [1, 3, 6, 8])
    def test_materialized_sum_gp(self, N):
        g = doubling_g_fn(N)
        assert sum(v * v for _, v in items(g)) == sum_gp_levels(N, 2)

    @pytest.mark.parametrize("N", [2, 4, 7])
    def test_materialized_sum_ifg_p(self, N):
        d = TreeDomain(N)
        g = doubling_g_fn(N)
        f = leftmost_path_fn(N)
        table = hardy_up_scalars(f, support(g))
        brute = sum((table[n] * v) ** 2 for n, v in items(g))
        assert sum_ifg_p_direct(N, 2) == brute


def _sum_ifg_p_double_loop(N, p):
    """sum_ifg_p_direct summed level by level, O(N^2): the oracle for the
    O(N) form."""
    exact = isinstance(p, int)
    total = Fraction(0) if exact else 0.0
    one_plus = Fraction(2 ** p + 1, 2 ** p) if exact else 1.0 + 2.0 ** -p
    for i in range(N):
        total += (i + 1) ** p * Fraction(1, 2 ** i) ** p if exact \
            else (i + 1) ** p * 2.0 ** (-i * p)
        inner = Fraction(1) if exact else 1.0
        for a in range(i - 1, -1, -1):
            total += ((a + 1) ** p * Fraction(1, 2 ** a) ** p if exact
                      else (a + 1) ** p * 2.0 ** (-a * p)) * inner
            inner *= one_plus
    return total


class TestSumIfgPDirect:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_double_loop_exactly(self, p):
        for N in (1, 2, 3, 5, 10, 25, 40):
            assert sum_ifg_p_direct(N, p) == _sum_ifg_p_double_loop(N, p)

    @pytest.mark.parametrize("p", [1.5, 2.5])
    def test_matches_double_loop_in_floats(self, p):
        for N in (1, 2, 3, 5, 10, 25, 40, 60):
            assert sum_ifg_p_direct(N, p) == pytest.approx(
                _sum_ifg_p_double_loop(N, p), rel=1e-12)


class TestCexIncreasing:
    def test_n20_report(self):
        report = gen_cex_increasing(20, 2)
        assert report.lhs == 4 * (Fraction(5, 4) ** 20 - 1)
        assert report.rhs == 20
        assert not report.holds
        assert report.ratio > 17

    def test_small_n_holds(self):
        report = gen_cex_increasing(1, 2)
        assert report.lhs == 1 and report.holds

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 2.5])
    def test_closed_form_check_equals_level_sum(self, p):
        for N in (1, 7, 30):
            report = gen_cex_increasing(N, p)
            assert report.extra["closed_form_check"] == report.lhs

    def test_large_n_not_materialized(self):
        report = gen_cex_increasing(1000, 2)
        assert report.lhs == sum_gp_levels(1000, 2)


class TestCexDirect:
    def test_n40_exceeds_nine(self):
        report = gen_cex_direct(40, 2)
        assert report.rhs == 2 * 40 * 40
        assert float(report.ratio) > 9
        assert not report.holds

    def test_delta_measured(self):
        report = gen_cex_direct(10, 2)
        assert report.extra["delta_measured"] == 2 - Fraction(1, 2 ** 9)

    def test_materialized_delta(self):
        # I g on the leftmost path approaches 2 from below: sum 2^-i
        N = 10
        g = doubling_g_fn(N)
        f = leftmost_path_fn(N)
        table = hardy_up_scalars(g, support(f))
        assert max(table.values()) == 2 - Fraction(1, 2 ** (N - 1))

    @pytest.mark.parametrize("gen", [gen_cex_direct, gen_cex_increasing])
    @pytest.mark.parametrize("p", [-1, 0, 0.5])
    def test_p_below_one_rejected(self, gen, p):
        with pytest.raises(ValueError, match="p must be at least 1"):
            gen(5, p)


class TestCexPLess2:
    def test_support_layout(self):
        k = 3
        d, f, g = build_cex_p_less_2_functions(k)
        assert d.levels == k + 2 ** k + 1
        for i in range(k + 1):
            level = [n for n in support(g) if len(n) == i]
            assert len(level) == 2 ** i
            assert all(get(g, n) == Fraction(1, 2 ** i) for n in level)
        deep = [n for n in support(g) if len(n) > k]
        assert len(deep) == 2 ** k * 2 ** k
        assert all(get(g, n) == Fraction(1, 2 ** k) for n in deep)
        assert set(support(f)) == set(support(g))

    @pytest.mark.parametrize("k", range(2, 8))
    def test_closed_form_matches_built_instance(self, k):
        d, f, g = build_cex_p_less_2_functions(k)
        if_table = hardy_up_scalars(f, support(g))
        max_ig = max(hardy_up_scalars(g, support(g)).values())
        for p in (1.1, 1.5, 1.9):
            report = gen_cex_p_less_2(k, p)
            sum_fp = sum(_pow(v, p) for _, v in items(f))
            assert report.lhs == sum(_pow(if_table[n] * v, p) for n, v in items(g))
            assert report.extra["sum_fp"] == sum_fp
            assert report.rhs == _pow(3, p - 1) * 3 * sum_fp
            assert report.extra["max_Ig"] == max_ig

    def test_boundary_ig(self):
        k = 4
        d, f, g = build_cex_p_less_2_functions(k)
        table = hardy_up_scalars(g, support(g))
        assert max(table.values()) == 3 - Fraction(1, 2 ** k)

    def test_lower_bound_exact(self):
        for k in (3, 4, 5):
            report = gen_cex_p_less_2(k, 1.5)
            assert float(report.lhs) >= 2.0 ** (0.5 * k)

    def test_resource_budget(self):
        with pytest.raises(ResourceError):
            gen_cex_p_less_2(9, 1.5)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            gen_cex_p_less_2(3, 2)


class TestNew23Audit:
    def test_path_quantities_match_bruteforce(self):
        N, p = 6, 4
        audits = gen_cex_new23(N, p)

        # halving variant: g = 2^-k on the all-zeros path
        g = fn({"0" * (k - 1): Fraction(1, 2 ** k) for k in range(1, N + 1)})
        f = leftmost_path_fn(N)
        table = hardy_up_scalars(f, support(g))
        L = sum(table[n] ** p * v for n, v in items(g))
        assert audits["halving"].total_ifp_g == L
        u_last = "0" * (N - 1)
        brute_sup = sum(eval_hardy_down(g, a) for a in ancestors(u_last))
        assert audits["halving"].sup_iistar == brute_sup
        r = verify_new23(f, g, p, TreeDomain(N))
        assert r.rhs == audits["halving"].lemma_rhs
        assert r.holds == audits["halving"].lemma_holds

    def test_ones_variant_matches_bruteforce(self):
        N, p = 6, 4
        audits = gen_cex_new23(N, p)
        d = TreeDomain(N)
        g = fn({n: 1 for n in tree_nodes_bfs(d.levels)})
        f = leftmost_path_fn(N)
        table = hardy_up_scalars(f, support(g))
        L = sum(table[n] ** p * v for n, v in items(g))
        assert audits["ones"].total_ifp_g == L
        u_last = "0" * (N - 1)
        assert audits["ones"].sup_iistar == sum(
            eval_hardy_down(g, a) for a in ancestors(u_last))

    def test_deterministic_first_failure(self):
        a1 = gen_cex_new23(10, 4)
        a2 = gen_cex_new23(10, 4)
        for variant in ("halving", "ones"):
            assert a1[variant].to_dict() == a2[variant].to_dict()
            assert a1[variant].first_failed_step == "g_telescope"
            assert a1[variant].boundary_argmax_ok

    def test_exact_chain_steps_pass(self):
        # the algebraically exact steps must hold at every size
        for N in (5, 50):
            for audit in gen_cex_new23(N, 4).values():
                by_name = {s.step: s for s in audit.steps}
                for step in ("series_lower_bound", "power_diff_bound",
                             "istar_telescope", "abel_2_star", "star_bound"):
                    assert by_name[step].ok, (audit.variant, step)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            gen_cex_new23(10, 2)


def _audit_text(audit):
    """The printed audit: as text, NaN equals NaN."""
    return json.dumps(audit.to_dict(), default=scalar_repr)


class TestIntegerSumsMatchFractionOracles:
    """The integer-numerator sums print what step-by-step Fraction
    arithmetic prints, NaN outputs of float mode included (ones at
    N = 1000, p = 3.5: II*g overflows and inf - inf reads NaN)."""

    NS = (3, 4, 10, 100, 1000)
    PS = (2.01, 2.5, 3, 3.5, 4, 4.0, 5)

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("N", NS)
    def test_audit_variants(self, N, p):
        tables = _power_tables(N, p)
        for variant in ("halving", "ones"):
            assert _audit_text(_audit_variant(variant, N, p, tables)) == \
                _audit_text(audit_variant_fraction(variant, N, p)), variant

    @pytest.mark.parametrize("p", PS + (Fraction(7, 2), 50.5))
    @pytest.mark.parametrize("N", NS)
    def test_power_tables_are_pow(self, N, p):
        """Each entry is what _pow gives, type included."""
        for table, e in zip(_power_tables(N, p), (p, p - 1, p - 2)):
            want = [_pow(k, e) for k in range(N + 1)]
            assert [(type(v), v) for v in table] == [(type(v), v) for v in want]

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("N", NS)
    def test_level_sums(self, N, p):
        assert repr(sum_gp_levels(N, p)) == repr(sum_gp_levels_fraction(N, p))
        assert repr(sum_ifg_p_direct(N, p)) == repr(sum_ifg_p_direct_fraction(N, p))


class TestNew23FloatRange:
    def test_largest_non_integral_n_keeps_its_output(self):
        # II*g of the ones variant overflows to inf at this size
        audits = gen_cex_new23(1024, 2.5)
        for variant, audit in audits.items():
            assert _audit_text(audit) == \
                _audit_text(audit_variant_fraction(variant, 1024, 2.5)), variant

    @pytest.mark.parametrize("p", [2.5, 3.5])
    def test_beyond_float_range_rejected(self, p):
        with pytest.raises(ResourceError, match="N = 1024"):
            gen_cex_new23(1025, p)

    def test_integral_p_not_bounded(self):
        assert gen_cex_new23(1025, 3)["ones"].N == 1025


class TestSearchNew23:
    def test_deterministic(self):
        r1 = search_new23(2, 6, 300, seed=5)
        r2 = search_new23(2, 6, 300, seed=5)
        assert r1.to_dict() == r2.to_dict()

    def test_p_at_most_two_never_violates(self):
        for p in (1.5, 2):
            r = search_new23(p, 8, 500, seed=3)
            assert r.holds
            assert r.ratio is None or float(r.ratio) <= 1 + 1e-9

    def test_p2_tie_decided_exactly(self):
        # the best trial of this run has equal exact sides: the report reads
        # ratio 1.0 and holds, not a last-bit rounding of two float sums
        r = search_new23(2, 10, 2000, seed=3)
        gv, fv, _ = _trial(cex, 3, r.params["best_trial"], 10)
        exact = verify_new23(fn(fv), fn(gv), 2, TreeDomain(11))
        assert exact.lhs == exact.rhs and exact.holds
        assert (r.lhs, r.rhs, r.ratio, r.holds, r.mode) == \
            (float(exact.lhs), float(exact.rhs), 1.0, True, "float")

    def test_p4_finds_violation(self):
        r = search_new23(4, 10, 2000, seed=7)
        assert float(r.ratio) > 1

    def test_best_matches_full_verifier(self):
        for p in (1.5, 2, 3, 4):
            for seed in range(6):
                r = search_new23(p, 8, 500, seed=seed)
                assert r.name == "search_new23"
                assert "best_trial" in r.params
                assert r.params["best_fast_ratio"] == pytest.approx(r.lhs / r.rhs, rel=1e-12)

    def test_depth_budget(self):
        with pytest.raises(ResourceError):
            search_new23(2, 15, 10, seed=0)

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def drew(*args):
            raise AssertionError("the search drew before rejecting its arguments")
        monkeypatch.setattr(cex, "_random_increasing_paths", drew)

    def test_negative_depth_rejected_before_any_draw(self, no_draws):
        # _below(bits, 0) would raise without naming the depth, so this check
        # must come first
        with pytest.raises(ValueError, match="depth"):
            search_new23(2, -1, 10, seed=0)

    def test_trial_budget_bounded_before_any_trial(self, no_draws):
        with pytest.raises(ResourceError, match=str(cex._MAX_SEARCH_BUDGET)):
            search_new23(4, 10, cex._MAX_SEARCH_BUDGET + 1, seed=0)


# The search's getrandbits draws and intersection-only ratio against the
# stdlib draws and full-tree sweeps they replace (tests/helpers.py).

SEARCH_DEPTHS = [0, 1, 2, 5, 10, 14]
SEARCH_PS = [1, 1.25, 1.5, 2, 3, 4, 7.5]


def _trial(module, seed, trial, depth):
    rng = random.Random(f"{seed}:{trial}")
    gv = module._random_increasing_paths(rng, depth, cap=12)
    fv = module._random_f_paths(rng, depth, list(gv))
    return gv, fv, rng.getstate()


class TestSearchDraws:
    @pytest.mark.parametrize("depth", SEARCH_DEPTHS)
    def test_trial_draws_match_stdlib(self, depth):
        for trial in range(2000):
            gv, fv, state = _trial(cex, 5, trial, depth)
            ref_g, ref_f, ref_state = _trial(helpers, 5, trial, depth)
            assert list(gv.items()) == list(ref_g.items())
            assert list(fv.items()) == list(ref_f.items())
            assert state == ref_state

    @pytest.mark.parametrize("depth", SEARCH_DEPTHS)
    def test_ratio_matches_full_sweeps(self, depth):
        disjoint = 0
        for trial in range(300):
            gv, fv, _ = _trial(helpers, 2, trial, depth)
            for p in SEARCH_PS:
                lhs, rhs = cex._fast_new23_ratio(gv, fv, float(p))
                ref_lhs, ref_rhs = helpers._fast_new23_ratio(gv, fv, float(p))
                if gv.keys() & fv.keys():
                    assert (repr(lhs), repr(rhs)) == (repr(ref_lhs), repr(ref_rhs))
                else:
                    disjoint += 1
                    assert rhs == ref_rhs == 0.0
        assert depth < 2 or disjoint > 0

    @pytest.mark.parametrize("p", [1, 1.5, 2, 4, 7.5])
    @pytest.mark.parametrize("depth", [0, 3, 10, 14])
    def test_search_matches_stdlib_loop(self, p, depth):
        for seed in (0, 7):
            assert search_new23(p, depth, 150, seed).to_dict() == \
                helpers.search_new23_stdlib(p, depth, 150, seed).to_dict()
