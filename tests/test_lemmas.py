import random
from fractions import Fraction

import pytest

from cxlab.trees import (
    EXACT,
    FLOAT,
    NodeAddress,
    PreconditionError,
    ROOT,
    SparseFn,
    TreeDomain,
)
from cxlab.hardy import eval_hardy_down, hardy_up_table
from cxlab.lemmas import (
    PHI_ENERGY_CONST,
    PHI_LOWER_CONST,
    build_phi,
    sup_iistar_intersection,
    sup_iistar_refined,
    sup_iistar_support,
    verify_I2_positive,
    verify_gest,
    verify_inter,
    verify_linf,
    verify_new23,
    verify_supadditive_l1linf,
)
from cxlab import experiments, lemmas, randgen

from helpers import iistar_bitree_scan, random_bitree_sparse


def brute_iistar(g, node):
    return sum(eval_hardy_down(g, a) for a in node.ancestors())


class TestSupRefinements:
    def test_intersection_sup_matches_bruteforce(self):
        d = TreeDomain(7)
        rng = random.Random(31)
        for _ in range(50):
            g = randgen.random_increasing(rng, d)
            f = randgen.random_sparse(rng, d)
            sup, arg = sup_iistar_intersection(g, f)
            inter = set(g.support()) & set(f.support())
            brute = max((brute_iistar(g, n) for n in inter), default=Fraction(0))
            assert sup == brute
            if arg is not None:
                assert brute_iistar(g, arg) == sup

    def test_support_sup_matches_bruteforce(self):
        d = TreeDomain(7)
        rng = random.Random(33)
        for _ in range(50):
            g = randgen.random_sparse(rng, d)
            brute = max((brute_iistar(g, n) for n in g.support()), default=Fraction(0))
            assert sup_iistar_support(g) == brute

    def test_bitree_sups_match_rectangle_scan(self):
        rng = random.Random(34)
        for _ in range(40):
            f = random_bitree_sparse(rng, 4, 5)
            g = random_bitree_sparse(rng, 4, 5)
            best, arg = Fraction(0), None
            for x in g.support():
                v = iistar_bitree_scan(g, x)
                if v > best:
                    best, arg = v, x
            assert sup_iistar_refined(g, f) == (best, arg)
            assert sup_iistar_support(g) == best

    def test_refined_sup_matches_bruteforce(self):
        d = TreeDomain(7)
        rng = random.Random(32)
        f_paths_cases = 0
        for _ in range(50):
            g = randgen.random_sparse(rng, d)
            f = randgen.random_sparse(rng, d)
            sup, _ = sup_iistar_refined(g, f)
            f_paths = {n.path for n in f.support()}
            best = Fraction(0)
            for x in g.support():
                anc = None
                for i in range(x.depth, -1, -1):
                    if x.path[:i] in f_paths:
                        anc = NodeAddress(x.path[:i])
                        break
                if anc is not None:
                    best = max(best, brute_iistar(g, anc))
                    f_paths_cases += 1
            assert sup == best
        assert f_paths_cases > 0


class TestL1Linf:
    def test_hand_example(self):
        d = TreeDomain(3)
        g = SparseFn.tree({ROOT: 1, NodeAddress("0"): Fraction(1, 2)})
        h = SparseFn.tree({ROOT: 2, NodeAddress("0"): 1})
        r = verify_supadditive_l1linf(g, h, ROOT, d)
        # lambda = max Ih on supp g = 3; lhs = 1*2 + 1/2*1 = 5/2; rhs = 3
        assert r.params["lambda"] == 3
        assert r.lhs == Fraction(5, 2)
        assert r.rhs == 3
        assert r.holds

    def test_scaling_covariance(self):
        d = TreeDomain(6)
        rng = random.Random(41)
        for t in (Fraction(1, 3), 7):
            for _ in range(20):
                g = randgen.random_superadditive(rng, d)
                h = randgen.random_sparse(rng, d)
                gamma = sorted(g.support(), key=str)[0]
                base = verify_supadditive_l1linf(g, h, gamma, d)
                scaled = verify_supadditive_l1linf(g.scale(t), h, gamma, d)
                assert scaled.lhs == t * base.lhs
                assert scaled.rhs == t * base.rhs
                assert scaled.holds == base.holds


class TestI2Positive:
    def test_refinement_can_beat_support_sup(self):
        # g deep on one branch, f at the root: the refined sup is II*g(root),
        # strictly below the support sup of II*g.
        d = TreeDomain(4)
        g = SparseFn.tree({NodeAddress("000"): 1})
        f = SparseFn.tree({ROOT: 1})
        r = verify_I2_positive(f, g, d)
        assert r.params["sup_iistar"] == 1       # II*g at the root
        assert r.extra["coarse_sup"] == 4        # II*g at the support node
        assert r.holds

    def test_bitree_instance(self):
        rng = random.Random(42)
        f = random_bitree_sparse(rng, 3, 3)
        g = random_bitree_sparse(rng, 3, 3)
        r = verify_I2_positive(f, g, None)
        assert r.holds


class TestBuildPhi:
    @staticmethod
    def _instance(levels=5, seed=51, mode=EXACT):
        """An instance with f = 1/2 on the whole sublevel set {I(wg) <= delta},
        and the I(wg) table over d that picked delta."""
        d = TreeDomain(levels)
        rng = random.Random(seed)
        g = randgen.random_superadditive(rng, d, mode=mode)
        w = randgen.random_weight(rng, d.nodes(), mode=mode)
        iwg = hardy_up_table(w.mul(g), d.nodes())
        values = sorted(iwg.values())
        delta = values[len(values) // 2]
        lam = 4 * delta
        f = SparseFn.tree({n: Fraction(1, 2) for n, v in iwg.items() if v <= delta}, mode)
        return d, w, g, f, lam, delta, iwg

    def test_constants_are_quarter_and_two(self):
        assert PHI_LOWER_CONST == Fraction(1, 4)
        assert PHI_ENERGY_CONST == 2

    def test_unit_weight_instance(self):
        d, _, g, f, lam, delta, _ = self._instance()
        w = SparseFn.tree({n: 1 for n in d.nodes()})
        iwg = hardy_up_table(w.mul(g), d.nodes())
        values = sorted(iwg.values())
        delta = values[len(values) // 2]
        lam = 4 * delta
        f = SparseFn.tree({n: Fraction(1, 2) for n, v in iwg.items() if v <= delta})
        phi, report = build_phi(w, g, f, lam, delta, d)
        assert report.holds
        assert report.extra["lower_check_ok"] and report.extra["energy_check_ok"]

    def test_rejects_non_superadditive_g(self):
        d = TreeDomain(3)
        g = SparseFn.tree({ROOT: 1, NodeAddress("0"): 1, NodeAddress("1"): 1})
        w = SparseFn.tree({n: 1 for n in d.nodes()})
        f = SparseFn.tree({ROOT: 1})
        with pytest.raises(PreconditionError):
            build_phi(w, g, f, 100, 1, d)

    def test_rejects_small_lambda(self):
        d, w, g, f, lam, delta, _ = self._instance()
        with pytest.raises(PreconditionError):
            build_phi(w, g, f, 3 * delta, delta, d)

    def test_rejects_f_outside_sublevel_set(self):
        d, w, g, f, lam, delta, iwg = self._instance()
        top = max(iwg, key=iwg.get)
        assert iwg[top] > delta
        bad = SparseFn.tree(dict(list(f.items()) + [(top, Fraction(1))]))
        with pytest.raises(PreconditionError):
            build_phi(w, g, bad, lam, delta, d)
        with pytest.raises(PreconditionError):
            build_phi(w, g, bad, lam, delta, d, iwg=iwg)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_given_table_matches_own_sweep(self, mode):
        banded = 0
        for seed in range(20):
            d, w, g, f, lam, delta, iwg = self._instance(levels=8, seed=seed, mode=mode)
            phi, report = build_phi(w, g, f, lam, delta, d)
            phi_t, report_t = build_phi(w, g, f, lam, delta, d, iwg=iwg)
            assert dict(phi_t.items()) == dict(phi.items())
            assert report_t.to_dict() == report.to_dict()
            banded += report.extra["worst_lower_ratio"] is not None and bool(phi)
        assert banded > 0  # some instance has a nonzero phi and a node for check (a)

    def test_table_missing_a_node_rejected(self):
        # enumerated domain: the table must hold every node of d
        d, w, g, f, lam, delta, iwg = self._instance()
        gone = next(n for n in iwg if n not in set(f.support()) | set(g.support()))
        with pytest.raises(ValueError, match="iwg"):
            build_phi(w, g, f, lam, delta, d, iwg={n: v for n, v in iwg.items() if n != gone})
        # beyond the enumeration cutoff only the nodes read are required
        d, w, g, f, lam, delta, iwg = self._instance(levels=13)
        _, report = build_phi(w, g, f, lam, delta, d)
        assert build_phi(w, g, f, lam, delta, d, iwg=iwg)[1].to_dict() == report.to_dict()
        gone = f.support()[-1]
        with pytest.raises(ValueError, match="iwg"):
            build_phi(w, g, f, lam, delta, d, iwg={n: v for n, v in iwg.items() if n != gone})

    def test_phi_trial_sweeps_three_times(self, monkeypatch):
        calls = []

        def counted(fn, nodes):
            calls.append(fn)
            return hardy_up_table(fn, nodes)

        monkeypatch.setattr(lemmas, "hardy_up_table", counted)
        monkeypatch.setattr(experiments, "hardy_up_table", counted)
        experiments.run_verify_suite("phi", trials=1, depth=8, seed=0, mode=EXACT)
        # I(wg) once for the trial's delta, then I(wf) and I(w phi) in build_phi
        assert len(calls) == 3

    def test_phi_supported_in_band(self):
        d, w, g, f, lam, delta, _ = self._instance()
        phi, report = build_phi(w, g, f, lam, delta, d)
        assert report.holds
        iwg = hardy_up_table(w.mul(g), phi.support())
        for n in phi.support():
            assert delta < iwg[n] <= 2 * lam


class TestInter:
    def test_degenerate_zero_f(self):
        d = TreeDomain(3)
        f = SparseFn.tree({})
        g = SparseFn.tree({ROOT: 1})
        r = verify_inter(f, g, 2, d)
        assert r.degenerate and r.holds

    def test_p2_random_superadditive_holds(self):
        d = TreeDomain(7)
        rng = random.Random(61)
        for _ in range(100):
            g = randgen.random_superadditive(rng, d)
            f = randgen.random_sparse(rng, d)
            r = verify_inter(f, g, 2, d)
            assert r.holds or r.degenerate

    def test_least_admissible_thresholds(self):
        d = TreeDomain(4)
        g = SparseFn.tree({ROOT: 1, NodeAddress("0"): Fraction(1, 2)})
        f = SparseFn.tree({NodeAddress("0"): 1})
        r = verify_inter(f, g, 2, d)
        assert r.params["delta"] == Fraction(3, 2)   # Ig at supp f
        assert r.params["lambda"] == Fraction(3, 2)  # max Ig over the tree


class TestLinf:
    def test_hand_example(self):
        d = TreeDomain(3)
        g = SparseFn.tree({ROOT: 1, NodeAddress("0"): Fraction(1, 2)})
        f = SparseFn.tree({ROOT: 2})
        r = verify_linf(f, g, d)
        # lhs = max(If*g) = 2 at the root; sup II*g at the root = 3/2+... :
        # I*g(root) = 3/2, II*g(root) = 3/2; rhs = 3/2 * 2 = 3
        assert r.lhs == 2
        assert r.rhs == 3
        assert r.holds


class TestNew23:
    def test_scaling_covariance(self):
        d = TreeDomain(6)
        rng = random.Random(71)
        for t in (Fraction(1, 3), 7):
            for _ in range(20):
                g = randgen.random_increasing(rng, d)
                f = randgen.random_sparse(rng, d)
                base = verify_new23(f, g, 2, d)
                scaled = verify_new23(f, g.scale(t), 2, d)
                assert scaled.lhs == t * base.lhs
                assert scaled.rhs == t * base.rhs
                assert scaled.holds == base.holds

    def test_rejects_p_below_one(self):
        d = TreeDomain(3)
        g = SparseFn.tree({ROOT: 1})
        with pytest.raises(ValueError):
            verify_new23(g, g, Fraction(1, 2), d)


class TestGest:
    def test_precondition_enforced(self):
        d = TreeDomain(3)
        g = SparseFn.tree({ROOT: 1, NodeAddress("0"): 1, NodeAddress("1"): 1})
        with pytest.raises(PreconditionError):
            verify_gest(g, ROOT, 2, d)
        r = verify_gest(g, ROOT, 2, d, enforce_precondition=False)
        assert not r.extra["power_superadditive"]
        # lambda = max Ig on supp g = 2; rhs = 2 * 1 = 2 < lhs = 3
        assert not r.holds
        assert r.lhs == 3 and r.rhs == 2

    def test_superadditive_g_holds(self):
        d = TreeDomain(3)
        g = SparseFn.tree({ROOT: 1, NodeAddress("0"): Fraction(1, 2),
                           NodeAddress("1"): Fraction(1, 2)})
        r = verify_gest(g, ROOT, 2, d)
        assert r.holds
        assert r.mode == EXACT
