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
from cxlab.hardy import (
    _heap_values, _iistar_at, _up_heap, eval_hardy_down, eval_hardy_up, hardy_up_table,
)
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
from cxlab import experiments, hardy, lemmas, randgen

from helpers import (
    build_phi_dict, iistar_bitree_scan, phi_instance_dict, random_bitree_sparse,
    random_quarter_weight,
)


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

    def test_intersection_tie_keeps_first_in_g_order(self):
        # II*g = 3 at both children; the witness follows supp g, not f or hashing
        left, right = NodeAddress("0"), NodeAddress("1")
        for order in ((left, right), (right, left)):
            g = SparseFn.tree({n: 1 for n in order})
            for f_order in (order, order[::-1]):
                f = SparseFn.tree({n: 1 for n in f_order})
                assert sup_iistar_intersection(g, f) == (3, order[0])

    def test_support_sup_matches_bruteforce(self):
        d = TreeDomain(7)
        rng = random.Random(33)
        for _ in range(50):
            g = randgen.random_sparse(rng, d)
            brute = max((brute_iistar(g, n) for n in g.support()), default=Fraction(0))
            assert sup_iistar_support(g) == brute

    def test_non_dyadic_sweeps_match_support_scans(self):
        # values over 3, 5 and 7: the int sweeps run over their lcm
        d = TreeDomain(6)
        nodes = list(d.nodes())
        rng = random.Random(35)

        def non_dyadic():
            return SparseFn.tree({n: Fraction(rng.randint(1, 30), rng.choice((3, 5, 7)))
                                  for n in rng.sample(nodes, rng.randint(1, 15))})

        for _ in range(30):
            f, g = non_dyadic(), non_dyadic()
            table = hardy_up_table(f, nodes)
            iistar = _iistar_at(g, nodes)
            for a in nodes:
                assert type(table[a]) is Fraction and table[a] == eval_hardy_up(f, a)
                assert type(iistar[a]) is Fraction and iistar[a] == brute_iistar(g, a)
            inter = [x for x in g.support() if x in set(f.support())]
            best, arg = Fraction(0), None
            for x in inter:
                if brute_iistar(g, x) > best:
                    best, arg = brute_iistar(g, x), x
            assert sup_iistar_intersection(g, f) == (best, arg)
            assert sup_iistar_support(g) == max(brute_iistar(g, x) for x in g.support())
            f_paths = {n.path for n in f.support()}
            best, arg = Fraction(0), None
            for x in g.support():
                anc = next((NodeAddress(x.path[:i]) for i in range(x.depth, -1, -1)
                            if x.path[:i] in f_paths), None)
                if anc is not None and brute_iistar(g, anc) > best:
                    best, arg = brute_iistar(g, anc), anc
            assert sup_iistar_refined(g, f) == (best, arg)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_shared_sweep_matches_separate_sups(self, mode):
        # verify_new23 and verify_I2_positive take both of their sups from one sweep
        d = TreeDomain(8)
        rng = random.Random(36)
        for _ in range(60):
            g = randgen.random_increasing(rng, d, mode=mode)
            f = randgen.random_sparse(rng, d, mode=mode)
            coarse = sup_iistar_support(g)
            for report, (sup, arg) in (
                    (verify_new23(f, g, 2, d), sup_iistar_intersection(g, f)),
                    (verify_I2_positive(f, g, d), sup_iistar_refined(g, f))):
                got = (report.params["sup_iistar"], report.witness, report.extra["coarse_sup"])
                assert [(type(v), v) for v in got] == \
                    [(type(v), v) for v in (sup, arg, coarse)]

    def test_exact_sweeps_run_on_ints(self, monkeypatch):
        seen = {"_up_paths": [], "_down_paths": []}
        for name in seen:
            def spy(values, *args, _name=name, _fn=getattr(hardy, name)):
                seen[_name].extend(type(v) for v in (*values.values(), args[-1]))
                return _fn(values, *args)
            monkeypatch.setattr(hardy, name, spy)
        for suite in ("l1linf", "i2pos", "inter", "linf", "new23", "gest"):
            experiments.run_verify_suite(suite, trials=20, depth=8, seed=1, mode=EXACT)
        assert len(seen["_up_paths"]) > 200 and len(seen["_down_paths"]) > 200
        assert set(seen["_up_paths"]) == set(seen["_down_paths"]) == {int}

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
        w = random_quarter_weight(rng, list(d.nodes()), mode)[0]
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

    @staticmethod
    def _heap_table(w, g, d):
        """I(wg) over d as the heap list and denominator build_phi takes."""
        up, den = _heap_values(w.mul(g), d)
        return _up_heap(up), den

    def test_rejects_f_outside_sublevel_set(self):
        d, w, g, f, lam, delta, iwg = self._instance()
        top = max(iwg, key=iwg.get)
        assert iwg[top] > delta
        bad = SparseFn.tree(dict(list(f.items()) + [(top, Fraction(1))]))
        with pytest.raises(PreconditionError):
            build_phi(w, g, bad, lam, delta, d)
        with pytest.raises(PreconditionError):
            build_phi(w, g, bad, lam, delta, d, iwg=self._heap_table(w, g, d))

    def test_rejects_mixed_modes(self):
        d, w, g, f, lam, delta, _ = self._instance()
        with pytest.raises(ValueError, match="mode"):
            build_phi(w.to_float(), g, f, lam, delta, d)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_given_table_matches_own_sweep(self, mode):
        # the trial's table, swept from quarter numerators, and the table of
        # an instance whose f fills the whole sublevel set
        d = TreeDomain(8)
        banded = 0
        for seed in range(20):
            w, g, f, lam, delta, iwg = experiments._phi_instance(random.Random(seed), d, mode)
            instances = [(w, g, f, lam, delta, iwg)]
            _, w, g, f, lam, delta, _ = self._instance(levels=8, seed=seed, mode=mode)
            instances.append((w, g, f, lam, delta, self._heap_table(w, g, d)))
            for w, g, f, lam, delta, iwg in instances:
                phi, report = build_phi(w, g, f, lam, delta, d)
                phi_t, report_t = build_phi(w, g, f, lam, delta, d, iwg=iwg)
                assert dict(phi_t.items()) == dict(phi.items())
                assert report_t.to_dict() == report.to_dict()
                banded += report.extra["worst_lower_ratio"] is not None and bool(phi)
        assert banded > 0  # some instance has a nonzero phi and a node for check (a)

    def test_table_missing_a_node_rejected(self):
        # enumerated domain: the table holds one entry per heap position
        d, w, g, f, lam, delta, _ = self._instance()
        up, den = self._heap_table(w, g, d)
        for short in (up[:-1], up + [up[-1]]):
            with pytest.raises(ValueError, match="iwg"):
                build_phi(w, g, f, lam, delta, d, iwg=(short, den))
        # beyond the enumeration cutoff check (a) visits the support closure,
        # and no table is taken
        d, w, g, f, lam, delta, _ = self._instance(levels=13)
        build_phi(w, g, f, lam, delta, d)
        with pytest.raises(ValueError, match="iwg"):
            build_phi(w, g, f, lam, delta, d, iwg=self._heap_table(w, g, d))

    def test_phi_trial_sweeps_three_times(self, monkeypatch):
        dict_sweeps, heap_sweeps = [], []

        def counted_dict(fn, nodes):
            dict_sweeps.append(fn)
            return hardy_up_table(fn, nodes)

        def counted_heap(up):
            heap_sweeps.append(len(up))
            return _up_heap(up)

        monkeypatch.setattr(lemmas, "hardy_up_table", counted_dict)
        monkeypatch.setattr(lemmas, "_up_heap", counted_heap)
        monkeypatch.setattr(experiments, "_up_heap", counted_heap)
        for mode in (EXACT, FLOAT):
            experiments.run_verify_suite("phi", trials=1, depth=8, seed=0, mode=mode)
        # I(wg) once for the trial's delta, then I(wf) and I(w phi) in
        # build_phi, each over the 255 nodes in heap order
        assert dict_sweeps == []
        assert heap_sweeps == [256] * 6

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_heap_matches_dict_oracle(self, mode):
        # the trial's instances, drawn and ranked over dicts, at depth 8 and
        # 12; and instances whose f fills the sublevel set, where phi is
        # mostly nonzero and check (a) has nodes to visit
        cases = [(8, seed) for seed in range(300)] + [(12, seed) for seed in range(3)]
        banded = 0
        for levels, seed in cases:
            d = TreeDomain(levels)
            key = f"oracle:{levels}:{seed}"
            w, g, f, lam, delta = phi_instance_dict(random.Random(key), d, mode)
            phi_o, report_o = build_phi_dict(w, g, f, lam, delta, d, seed=seed)
            phi, report = build_phi(w, g, f, lam, delta, d, seed=seed)
            assert [(n, type(v), v) for n, v in phi.items()] == \
                [(n, type(v), v) for n, v in phi_o.items()]
            assert report.to_dict() == report_o.to_dict()
            trial = experiments._trial_phi(random.Random(key), d, mode, seed)
            assert trial.to_dict() == report_o.to_dict()
        for levels, seed in [(8, seed) for seed in range(40)] + [(12, 0), (12, 1)]:
            d, w, g, f, lam, delta, _ = self._instance(levels=levels, seed=seed, mode=mode)
            phi_o, report_o = build_phi_dict(w, g, f, lam, delta, d)
            phi, report = build_phi(w, g, f, lam, delta, d)
            assert [(n, type(v), v) for n, v in phi.items()] == \
                [(n, type(v), v) for n, v in phi_o.items()]
            assert report.to_dict() == report_o.to_dict()
            banded += report.extra["worst_lower_ratio"] is not None
        assert banded > 0

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_failing_lower_check_matches_oracle(self, mode, monkeypatch):
        # the lemma's 1/4 always holds, so raise the bar until check (a)
        # fails: the witness is the last failing node in breadth-first order
        failed = 0
        for const in (Fraction(1), Fraction(3, 2), Fraction(5, 2)):
            monkeypatch.setattr(lemmas, "PHI_LOWER_CONST", const)
            for seed in range(30):
                d, w, g, f, lam, delta, _ = self._instance(levels=6, seed=seed, mode=mode)
                report_o = build_phi_dict(w, g, f, lam, delta, d)[1]
                report = build_phi(w, g, f, lam, delta, d)[1]
                assert report.to_dict() == report_o.to_dict()
                failed += not report.extra["lower_check_ok"]
        assert failed > 0
        # a bar equal to the least ratio is met: check (a) is strict
        tied = 0
        for seed in range(30):
            d, w, g, f, lam, delta, _ = self._instance(levels=6, seed=seed, mode=mode)
            monkeypatch.setattr(lemmas, "PHI_LOWER_CONST", PHI_LOWER_CONST)
            worst = build_phi(w, g, f, lam, delta, d)[1].extra["worst_lower_ratio"]
            if worst is None:
                continue
            monkeypatch.setattr(lemmas, "PHI_LOWER_CONST", Fraction(worst))
            report = build_phi(w, g, f, lam, delta, d)[1]
            assert report.extra["lower_check_ok"]
            assert report.to_dict() == build_phi_dict(w, g, f, lam, delta, d)[1].to_dict()
            tied += 1
        assert tied > 0

    def test_thresholds_just_below_table_values(self):
        # delta, lambda/2 and 2 lambda a third of the table's last bit below
        # an I(wg) value: the node at that value is above the threshold
        checked = 0
        for seed in range(6):
            d, w, g, _, _, _, iwg = self._instance(levels=6, seed=seed)
            values = sorted(set(iwg.values()))
            den = max(v.denominator for v in values)
            below = [v - Fraction(1, 3 * den) for v in values]
            for i in range(0, len(values), 3):
                for lam in (4 * below[i], 2 * below[-1 - i], below[-1 - i] / 2):
                    delta = below[i]
                    if lam < 4 * delta:
                        continue
                    f = SparseFn.tree({n: Fraction(1, 2) for n, v in iwg.items() if v <= delta})
                    phi_o, report_o = build_phi_dict(w, g, f, lam, delta, d)
                    phi, report = build_phi(w, g, f, lam, delta, d)
                    assert dict(phi.items()) == dict(phi_o.items())
                    assert report.to_dict() == report_o.to_dict()
                    checked += 1
        assert checked > 20

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
