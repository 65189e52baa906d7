import copy
import random
import sys
from fractions import Fraction

import pytest

from cxlab.trees import (
    DomainError,
    PreconditionError,
    ResourceError,
    SparseFn,
    TreeDomain,
)
from cxlab.hardy import _heap_values, _iistar_paths, _up_heap, hardy_up_table
from cxlab.lemmas import (
    EXACT,
    FLOAT,
    PHI_ENERGY_CONST,
    PHI_LOWER_CONST,
    Exact,
    build_phi,
    render,
    render_value,
    verify_I2_positive,
    verify_gest,
    verify_inter,
    verify_linf,
    verify_new23,
    verify_supadditive_l1linf,
)
from cxlab import experiments, hardy, lemmas, randgen

from helpers import (
    ancestors, build_phi_dict, eval_hardy_down, eval_hardy_up, fn, hardy_up_scalars, items,
    phi_instance_dict, random_quarter_weight, rebuild, scale, support, sup_iistar_intersection,
    sup_iistar_refined,
    sup_iistar_support, tree_nodes_bfs, verify_gest_fraction, verify_I2_positive_fraction,
    verify_inter_fraction, verify_linf_fraction, verify_new23_fraction,
    verify_supadditive_l1linf_fraction,
)

SPARSE_SUITES = ("l1linf", "i2pos", "inter", "linf", "new23", "gest")

# each verifier, by its name in experiments, and its Fraction-arithmetic
# oracle; build_phi's is the dict form, which takes no precomputed I(wg)
ORACLES = {
    "verify_supadditive_l1linf": verify_supadditive_l1linf_fraction,
    "verify_I2_positive": verify_I2_positive_fraction,
    "build_phi": lambda *args, iwg=None, **kwargs: build_phi_dict(*args, **kwargs),
    "verify_inter": verify_inter_fraction,
    "verify_linf": verify_linf_fraction,
    "verify_new23": verify_new23_fraction,
    "verify_gest": verify_gest_fraction,
}


def _typed(v):
    """A to_dict() value with the type of every leaf, so an int printed
    where a Fraction string belongs, or a float for an int, differs."""
    if isinstance(v, dict):
        return {k: _typed(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_typed(x) for x in v]
    return type(v).__name__, v


def _report(result):
    """The report of a verifier's result: build_phi's is its second item."""
    return result[1] if isinstance(result, tuple) else result


def _outcome(verifier, *args, mode=EXACT, **kwargs):
    """The typed to_dict() of a verifier's report rendered in the given
    mode, or the type and message of the ValueError (a failed precondition
    included) it raised."""
    try:
        report = _report(verifier(*args, **kwargs))
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return _typed(render(report, mode).to_dict())


def _exact(report):
    """A copy of the report, rendered in exact mode; the report itself is
    left as the verifier gave it."""
    return render(copy.deepcopy(report), EXACT)


def _fraction_codes() -> set:
    """The code objects through which a Fraction is built."""
    codes = {Fraction.__new__.__code__}
    from_coprime = getattr(Fraction, "_from_coprime_ints", None)  # Python 3.12+
    if from_coprime is not None:
        codes.add(from_coprime.__func__.__code__)
    return codes


def _count_fractions(call, *args, **kwargs):
    """call's result and the number of Fractions built while it ran."""
    codes, count = _fraction_codes(), 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call(*args, **kwargs)
    finally:
        sys.setprofile(old)
    return result, count


def _spy_on_verifiers(monkeypatch, on_call):
    """Route every verifier that the suites call through on_call(name,
    real verifier, args, kwargs), which returns the report."""
    for name in ORACLES:
        real = getattr(experiments, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            return on_call(_name, _real, args, kwargs)

        monkeypatch.setattr(experiments, name, spy)


def brute_iistar(g, node):
    return sum(eval_hardy_down(g, a) for a in ancestors(node))


class TestSupRefinements:
    def test_intersection_sup_matches_bruteforce(self):
        d = TreeDomain(7)
        rng = random.Random(31)
        for _ in range(50):
            g = randgen.random_increasing(rng, d)
            f = randgen.random_sparse(rng, d)
            sup, arg = sup_iistar_intersection(g, f)
            inter = set(support(g)) & set(support(f))
            brute = max((brute_iistar(g, n) for n in inter), default=Fraction(0))
            assert sup == brute
            if arg is not None:
                assert brute_iistar(g, arg) == sup

    def test_intersection_tie_keeps_first_in_g_order(self):
        # II*g = 3 at both children; the witness follows supp g, not f or hashing
        left, right = "0", "1"
        for order in ((left, right), (right, left)):
            g = fn({n: 1 for n in order})
            for f_order in (order, order[::-1]):
                f = fn({n: 1 for n in f_order})
                assert sup_iistar_intersection(g, f) == (3, order[0])

    def test_support_sup_matches_bruteforce(self):
        d = TreeDomain(7)
        rng = random.Random(33)
        for _ in range(50):
            g = randgen.random_sparse(rng, d)
            brute = max((brute_iistar(g, n) for n in support(g)), default=Fraction(0))
            assert sup_iistar_support(g) == brute

    def test_non_dyadic_sweeps_match_support_scans(self):
        # values over 3, 5 and 7: the int sweeps run over their lcm
        d = TreeDomain(6)
        nodes = tree_nodes_bfs(d.levels)
        rng = random.Random(35)

        def non_dyadic():
            return fn({n: Fraction(rng.randint(1, 30), rng.choice((3, 5, 7)))
                             for n in rng.sample(nodes, rng.randint(1, 15))})

        for _ in range(30):
            f, g = non_dyadic(), non_dyadic()
            table, f_den = hardy_up_table(f, nodes), f.den
            up, den = _iistar_paths(g, nodes)
            for a in nodes:
                assert type(table[a]) is int
                assert Fraction(table[a], f_den) == eval_hardy_up(f, a)
                assert type(up[a]) is int and Fraction(up[a], den) == brute_iistar(g, a)
            inter = [x for x in support(g) if x in set(support(f))]
            best, arg = Fraction(0), None
            for x in inter:
                if brute_iistar(g, x) > best:
                    best, arg = brute_iistar(g, x), x
            assert sup_iistar_intersection(g, f) == (best, arg)
            assert sup_iistar_support(g) == max(brute_iistar(g, x) for x in support(g))
            f_paths = set(support(f))
            best, arg = Fraction(0), None
            for x in support(g):
                anc = next((x[:i] for i in range(len(x), -1, -1) if x[:i] in f_paths), None)
                if anc is not None and brute_iistar(g, anc) > best:
                    best, arg = brute_iistar(g, anc), anc
            assert sup_iistar_refined(g, f) == (best, arg)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_shared_sweep_matches_separate_sups(self, mode):
        # verify_new23 and verify_I2_positive take both of their sups from one sweep
        d = TreeDomain(8)
        rng = random.Random(36)
        for _ in range(60):
            g = randgen.random_increasing(rng, d)
            f = randgen.random_sparse(rng, d)
            coarse = sup_iistar_support(g)
            for report, (sup, arg) in (
                    (render(verify_new23(f, g, 2, d), mode), sup_iistar_intersection(g, f)),
                    (render(verify_I2_positive(f, g, d), mode), sup_iistar_refined(g, f))):
                got = (report.params["sup_iistar"], report.witness, report.extra["coarse_sup"])
                want = (sup, arg, coarse) if mode == EXACT else (float(sup), arg, float(coarse))
                assert [(type(v), v) for v in got] == [(type(v), v) for v in want]

    def test_exact_sweeps_run_on_ints(self, monkeypatch):
        # every If table and II*g sweep the verifiers take runs through
        # hardy's module attributes, on ints, and hands them ints
        seen = {"_up_paths": [], "_down_paths": []}
        calls = {"_up_paths": 0, "_down_paths": 0}
        for name in seen:
            def spy(values, *args, _name=name, _fn=getattr(hardy, name)):
                calls[_name] += 1
                seen[_name].extend(type(v) for v in values.values())
                return _fn(values, *args)
            monkeypatch.setattr(hardy, name, spy)
        tables, iistar = [], []

        def table_spy(f, nodes, _fn=hardy.hardy_up_table):
            tables.append(_fn(f, nodes))
            return tables[-1]

        def iistar_spy(g, paths, _fn=hardy._iistar_paths):
            iistar.append(_fn(g, paths))
            return iistar[-1]

        monkeypatch.setattr(lemmas, "hardy_up_table", table_spy)
        monkeypatch.setattr(lemmas, "_iistar_paths", iistar_spy)
        for suite in ("l1linf", "i2pos", "inter", "linf", "new23", "gest"):
            experiments.run_verify_suite(suite, trials=40, depth=8, seed=1)
        assert len(seen["_up_paths"]) > 200 and len(seen["_down_paths"]) > 200
        assert set(seen["_up_paths"]) == set(seen["_down_paths"]) == {int}
        # one _up_paths sweep per table and per II*g, one _down_paths per II*g
        assert len(tables) > 100 and len(iistar) > 50
        assert calls == {"_up_paths": len(tables) + len(iistar), "_down_paths": len(iistar)}
        handed_out = [v for t in tables for v in t.values()]
        handed_out += [v for up, _ in iistar for v in up.values()]
        assert {type(v) for v in handed_out} == {int}

    def test_refined_sup_matches_bruteforce(self):
        d = TreeDomain(7)
        rng = random.Random(32)
        f_paths_cases = 0
        for _ in range(50):
            g = randgen.random_sparse(rng, d)
            f = randgen.random_sparse(rng, d)
            sup, _ = sup_iistar_refined(g, f)
            f_paths = set(support(f))
            best = Fraction(0)
            for x in support(g):
                anc = None
                for i in range(len(x), -1, -1):
                    if x[:i] in f_paths:
                        anc = x[:i]
                        break
                if anc is not None:
                    best = max(best, brute_iistar(g, anc))
                    f_paths_cases += 1
            assert sup == best
        assert f_paths_cases > 0


class TestL1Linf:
    def test_hand_example(self):
        d = TreeDomain(3)
        g = fn({"": 1, "0": Fraction(1, 2)})
        h = fn({"": 2, "0": 1})
        r = _exact(verify_supadditive_l1linf(g, h, "", d))
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
                gamma = sorted(support(g))[0]
                base = _exact(verify_supadditive_l1linf(g, h, gamma, d))
                scaled = _exact(verify_supadditive_l1linf(scale(g, t), h, gamma, d))
                assert scaled.lhs == t * base.lhs
                assert scaled.rhs == t * base.rhs
                assert scaled.holds == base.holds


class TestI2Positive:
    def test_refinement_can_beat_support_sup(self):
        # g deep on one branch, f at the root: the refined sup is II*g(root),
        # strictly below the support sup of II*g.
        d = TreeDomain(4)
        g = fn({"000": 1})
        f = fn({"": 1})
        r = _exact(verify_I2_positive(f, g, d))
        assert r.params["sup_iistar"] == 1       # II*g at the root
        assert r.extra["coarse_sup"] == 4        # II*g at the support node
        assert r.holds

    def test_nodes_outside_the_domain_rejected(self):
        # the same DomainError as verify_linf's on this instance, for a node
        # of supp f or of supp g
        d = TreeDomain(2)
        f = fn({"00000": 1})
        g = fn({"0000000": 1})
        inside = fn({"0": 1})
        with pytest.raises(DomainError, match="node at depth 7 outside 2-level tree"):
            verify_linf(f, g, d)
        for args, depth in (((f, g), 5), ((inside, g), 7), ((f, inside), 5)):
            with pytest.raises(DomainError, match=f"node at depth {depth} outside 2-level tree"):
                verify_I2_positive(*args, d)
        assert verify_I2_positive(inside, inside, d).holds

    # the other verifiers, each called as (f, g, d); l1linf takes f as its h
    VERIFIERS = {
        "l1linf": lambda f, g, d: verify_supadditive_l1linf(g, f, "", d),
        "linf": lambda f, g, d: verify_linf(f, g, d),
        "new23": lambda f, g, d: verify_new23(f, g, 2, d),
        "inter": lambda f, g, d: verify_inter(f, g, 2, d),
    }

    @pytest.mark.parametrize("verifier", sorted(VERIFIERS))
    def test_other_verifiers_reject_nodes_outside_the_domain(self, verifier):
        # every function argument is checked before any sweep, so a node of
        # supp f outside d is not read as zero
        run = self.VERIFIERS[verifier]
        d = TreeDomain(2)
        inside = fn({"": 1, "0": Fraction(1, 2)})
        for outside, depth in ((fn({"00000": 1}), 5), (fn({"0000000": 1}), 7)):
            for f, g in ((outside, inside), (inside, outside)):
                with pytest.raises(DomainError, match=f"node at depth {depth} outside 2-level tree"):
                    run(f, g, d)
        assert run(inside, inside, d).holds


class TestBuildPhi:
    @staticmethod
    def _instance(levels=5, seed=51):
        """An instance with f = 1/2 on the whole sublevel set {I(wg) <= delta},
        and the I(wg) table over d that picked delta."""
        d = TreeDomain(levels)
        rng = random.Random(seed)
        g = randgen.random_superadditive(rng, d)
        w = random_quarter_weight(rng, tree_nodes_bfs(d.levels))[0]
        iwg = hardy_up_scalars(w.mul(g), tree_nodes_bfs(d.levels))
        values = sorted(iwg.values())
        delta = values[len(values) // 2]
        lam = 4 * delta
        f = fn({n: Fraction(1, 2) for n, v in iwg.items() if v <= delta})
        return d, w, g, f, lam, delta, iwg

    def test_constants_are_quarter_and_two(self):
        assert PHI_LOWER_CONST == Fraction(1, 4)
        assert PHI_ENERGY_CONST == 2

    def test_unit_weight_instance(self):
        d, _, g, f, lam, delta, _ = self._instance()
        w = fn({n: 1 for n in tree_nodes_bfs(d.levels)})
        iwg = hardy_up_scalars(w.mul(g), tree_nodes_bfs(d.levels))
        values = sorted(iwg.values())
        delta = values[len(values) // 2]
        lam = 4 * delta
        f = fn({n: Fraction(1, 2) for n, v in iwg.items() if v <= delta})
        phi, report = build_phi(w, g, f, lam, delta, d)
        assert report.holds
        assert report.extra["lower_check_ok"] and report.extra["energy_check_ok"]

    def test_rejects_non_superadditive_g(self):
        d = TreeDomain(3)
        g = fn({"": 1, "0": 1, "1": 1})
        w = fn({n: 1 for n in tree_nodes_bfs(d.levels)})
        f = fn({"": 1})
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
        bad = fn(dict(list(items(f)) + [(top, Fraction(1))]))
        with pytest.raises(PreconditionError):
            build_phi(w, g, bad, lam, delta, d)
        with pytest.raises(PreconditionError):
            build_phi(w, g, bad, lam, delta, d, iwg=self._heap_table(w, g, d))

    def test_exact_mode_reads_a_float_delta_at_its_binary_value(self):
        # the instance's delta is dyadic, so its float is the same number
        for seed in range(10):
            d, w, g, f, lam, delta, _ = self._instance(seed=seed)
            phi, report = build_phi(w, g, f, lam, delta, d)
            phi_f, report_f = build_phi(w, g, f, lam, float(delta), d)
            assert items(phi_f) == items(phi)
            assert (report_f.witness, _exact(report_f).extra) == \
                (report.witness, _exact(report).extra)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_given_table_matches_own_sweep(self, mode):
        # the trial's table, swept from quarter numerators, and the table of
        # an instance whose f fills the whole sublevel set
        d = TreeDomain(8)
        banded = 0
        for seed in range(20):
            w, g, f, lam, delta, iwg = experiments._phi_instance(random.Random(seed), d)
            instances = [(w, g, f, lam, delta, iwg)]
            _, w, g, f, lam, delta, _ = self._instance(levels=8, seed=seed)
            instances.append((w, g, f, lam, delta, self._heap_table(w, g, d)))
            for w, g, f, lam, delta, iwg in instances:
                phi, report = build_phi(w, g, f, lam, delta, d)
                phi_t, report_t = build_phi(w, g, f, lam, delta, d, iwg=iwg)
                assert dict(items(phi_t)) == dict(items(phi))
                assert render(report_t, mode).to_dict() == render(report, mode).to_dict()
                banded += report.extra["worst_lower_ratio"] is not None and bool(phi)
        assert banded > 0  # some instance has a nonzero phi and a node for check (a)

    @pytest.mark.parametrize("levels", [5, 13])
    def test_table_missing_a_node_rejected(self, levels):
        # the table holds one entry per heap position, at every depth
        d, w, g, f, lam, delta, _ = self._instance(levels=levels)
        up, den = self._heap_table(w, g, d)
        phi, report = build_phi(w, g, f, lam, delta, d)
        phi_t, report_t = build_phi(w, g, f, lam, delta, d, iwg=(up, den))
        assert dict(items(phi_t)) == dict(items(phi))
        assert _exact(report_t).to_dict() == _exact(report).to_dict()
        for short in (up[:-1], up + [up[-1]]):
            with pytest.raises(ValueError, match="iwg"):
                build_phi(w, g, f, lam, delta, d, iwg=(short, den))

    def test_beyond_twenty_levels_is_a_resource_error(self, monkeypatch):
        # refused before any heap list is allocated
        def no_list(d, paths):
            raise AssertionError("a heap list was built")

        d = TreeDomain(21)
        g = fn({"": 1})
        f = fn({"0" * 20: Fraction(1, 2)})
        with pytest.raises(ResourceError, match="2\\^21"):
            build_phi(g, g, f, 4, 1, d)
        monkeypatch.setattr(TreeDomain, "require", no_list)  # read just before the list
        with pytest.raises(ResourceError):
            hardy._heap_values(g, d)

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
        experiments.run_verify_suite("phi", trials=1, depth=8, seed=0)
        # I(wg) once for the trial's delta, then I(wf) and I(w phi) in
        # build_phi, each over the 255 nodes in heap order
        assert dict_sweeps == []
        assert heap_sweeps == [256] * 3

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_heap_matches_dict_oracle(self, mode):
        # the trial's instances, drawn and ranked over dicts, at 8, 12 and
        # 13 levels; and instances whose f fills the sublevel set, where phi
        # is mostly nonzero and check (a) has nodes to visit
        cases = ([(8, seed) for seed in range(300)] + [(12, seed) for seed in range(3)]
                 + [(13, seed) for seed in range(2)])
        banded = 0
        for levels, seed in cases:
            d = TreeDomain(levels)
            key = f"oracle:{levels}:{seed}"
            w, g, f, lam, delta = phi_instance_dict(random.Random(key), d)
            phi_o, report_o = build_phi_dict(w, g, f, lam, delta, d, seed=seed)
            phi, report = build_phi(w, g, f, lam, delta, d, seed=seed)
            assert [(n, type(v), v) for n, v in items(phi)] == \
                [(n, type(v), v) for n, v in items(phi_o)]
            want = render(report_o, mode).to_dict()
            assert render(report, mode).to_dict() == want
            trial = experiments._trial_phi(random.Random(key), d, seed)
            assert render(trial, mode).to_dict() == want
        for levels, seed in [(8, seed) for seed in range(40)] + [(12, 0), (12, 1), (13, 0)]:
            d, w, g, f, lam, delta, _ = self._instance(levels=levels, seed=seed)
            phi_o, report_o = build_phi_dict(w, g, f, lam, delta, d)
            phi, report = build_phi(w, g, f, lam, delta, d)
            assert [(n, type(v), v) for n, v in items(phi)] == \
                [(n, type(v), v) for n, v in items(phi_o)]
            assert render(report, mode).to_dict() == render(report_o, mode).to_dict()
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
                d, w, g, f, lam, delta, _ = self._instance(levels=6, seed=seed)
                report_o = build_phi_dict(w, g, f, lam, delta, d)[1]
                report = build_phi(w, g, f, lam, delta, d)[1]
                assert render(report, mode).to_dict() == render(report_o, mode).to_dict()
                failed += not report.extra["lower_check_ok"]
        assert failed > 0
        # a bar equal to the least ratio is met: check (a) is strict
        tied = 0
        for seed in range(30):
            d, w, g, f, lam, delta, _ = self._instance(levels=6, seed=seed)
            monkeypatch.setattr(lemmas, "PHI_LOWER_CONST", PHI_LOWER_CONST)
            # the exact least ratio, which float mode reports rounded
            worst = _exact(build_phi(w, g, f, lam, delta, d)[1]).extra["worst_lower_ratio"]
            if worst is None:
                continue
            monkeypatch.setattr(lemmas, "PHI_LOWER_CONST", worst)
            report = build_phi(w, g, f, lam, delta, d)[1]
            assert report.extra["lower_check_ok"]
            assert render(report, mode).to_dict() == \
                render(build_phi_dict(w, g, f, lam, delta, d)[1], mode).to_dict()
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
                    f = fn({n: Fraction(1, 2) for n, v in iwg.items() if v <= delta})
                    phi_o, report_o = build_phi_dict(w, g, f, lam, delta, d)
                    phi, report = build_phi(w, g, f, lam, delta, d)
                    assert dict(items(phi)) == dict(items(phi_o))
                    assert _exact(report).to_dict() == _exact(report_o).to_dict()
                    checked += 1
        assert checked > 20

    def test_phi_supported_in_band(self):
        d, w, g, f, lam, delta, _ = self._instance()
        phi, report = build_phi(w, g, f, lam, delta, d)
        assert report.holds
        iwg = hardy_up_scalars(w.mul(g), support(phi))
        for n in support(phi):
            assert delta < iwg[n] <= 2 * lam


class TestInter:
    def test_degenerate_zero_f(self):
        d = TreeDomain(3)
        f = fn({})
        g = fn({"": 1})
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
        g = fn({"": 1, "0": Fraction(1, 2)})
        f = fn({"0": 1})
        r = _exact(verify_inter(f, g, 2, d))
        assert r.params["delta"] == Fraction(3, 2)   # Ig at supp f
        assert r.params["lambda"] == Fraction(3, 2)  # max Ig over the tree


class TestLinf:
    def test_hand_example(self):
        d = TreeDomain(3)
        g = fn({"": 1, "0": Fraction(1, 2)})
        f = fn({"": 2})
        r = _exact(verify_linf(f, g, d))
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
                base = _exact(verify_new23(f, g, 2, d))
                scaled = _exact(verify_new23(f, scale(g, t), 2, d))
                assert scaled.lhs == t * base.lhs
                assert scaled.rhs == t * base.rhs
                assert scaled.holds == base.holds

    def test_rejects_p_below_one(self):
        d = TreeDomain(3)
        g = fn({"": 1})
        with pytest.raises(ValueError):
            verify_new23(g, g, Fraction(1, 2), d)


class TestGest:
    def test_precondition_enforced(self):
        d = TreeDomain(3)
        g = fn({"": 1, "0": 1, "1": 1})
        with pytest.raises(PreconditionError, match=r"g\^\(p-1\) is not superadditive"):
            verify_gest(g, "", 2, d)

    def test_superadditive_g_holds(self):
        d = TreeDomain(3)
        g = fn({"": 1, "0": Fraction(1, 2),
                      "1": Fraction(1, 2)})
        r = _exact(verify_gest(g, "", 2, d))
        assert r.holds
        assert r.mode == EXACT


class TestFractionOracles:
    """Every report, rendered, equals, value and type, the one the verifiers
    gave when they took their sums, powers and maxima on Fractions
    (tests/helpers.py), rendered in the same mode.
    A suite golden prints only its first or failing reports, so this is what
    covers the rest."""

    @staticmethod
    def _compare(monkeypatch):
        compared = {}

        def on_call(name, real, args, kwargs):
            report = real(*args, **kwargs)
            got = _typed(_exact(_report(report)).to_dict())
            assert got == _outcome(ORACLES[name], *args, **kwargs), (name, args)
            compared[name] = compared.get(name, 0) + 1
            return report

        _spy_on_verifiers(monkeypatch, on_call)
        return compared

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_suite_reports_match_oracles(self, mode, monkeypatch):
        compared = self._compare(monkeypatch)
        for suite in experiments.VERIFY_NAMES:
            experiments.run_verify_suite(suite, trials=60, depth=8, seed=23, mode=mode)
        assert compared == {name: 60 for name in ORACLES}

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_pinned_inter_seeds_keep_their_false_verdict(self, mode, monkeypatch):
        # the benchmark's known false violations (ROADMAP item 2): exact
        # equalities that the float p-th roots decide as violated
        compared = self._compare(monkeypatch)
        for seed in (773, 1447, 3087):
            report, = experiments.run_verify_suite("inter", trials=1, depth=8, seed=seed,
                                                   mode=mode)
            assert not report.holds and not report.degenerate
            if mode == EXACT:
                x, params = report.extra, report.params
                assert x["sum_ifg_p"] == params["delta"] * params["lambda"] * x["sum_fp"]
        assert compared == {"verify_inter": 3}

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_exponents_and_denominators_match_oracles(self, mode):
        # p in {1, 1.5, 2, 3}, an empty f, and values over 3, 5 and 7
        d = TreeDomain(7)
        nodes = tree_nodes_bfs(d.levels)
        rng = random.Random(37)
        calls = 0
        for trial in range(45):
            den = (3, 5, 7)[trial % 3]
            t = Fraction(rng.randint(1, 2 * den), den)
            g_inc = scale(randgen.random_increasing(rng, d), t)
            g_sup = scale(randgen.random_superadditive(rng, d), t)
            f = fn({n: Fraction(rng.randint(1, 30), den)
                    for n in rng.sample(nodes, rng.randint(1, 12))})
            gamma = sorted(support(g_sup))[rng.randrange(len(g_sup))]
            cases = [(verify_linf, f, g_inc, d), (verify_I2_positive, f, g_inc, d),
                     (verify_supadditive_l1linf, g_sup, f, gamma, d),
                     (verify_inter, fn({}), g_sup, 2, d),
                     (verify_inter, fn({}), g_sup, 1.5, d)]
            cases += [(verify_gest, g_sup, gamma, p, d) for p in (2, 3, 1.5)]
            for p in (1, 1.5, 2, 3):
                cases += [(verify_new23, f, g_inc, p, d), (verify_inter, f, g_sup, p, d)]
            for verifier, *args in cases:
                oracle = ORACLES[verifier.__name__]
                assert _outcome(verifier, *args, mode=mode) == \
                    _outcome(oracle, *args, mode=mode), (verifier.__name__, args)
                calls += 1
        assert calls == 45 * 16

    def test_exact_trials_build_a_few_fractions(self, monkeypatch):
        # a Fraction for each value a report carries, not one per node: the
        # Fraction-arithmetic oracles, on the same calls, exceed the bound
        built, oracle_built = {}, {}

        def on_call(name, real, args, kwargs):
            report, n = _count_fractions(real, *args, **kwargs)
            built.setdefault(name, []).append(n)
            oracle_built.setdefault(name, []).append(
                _count_fractions(ORACLES[name], *args, **kwargs)[1])
            return report

        _spy_on_verifiers(monkeypatch, on_call)
        for suite in SPARSE_SUITES:
            experiments.run_verify_suite(suite, trials=20, depth=8, seed=29, mode=EXACT)
        assert len(built) == len(SPARSE_SUITES)
        for name, counts in built.items():
            assert len(counts) == 20
            assert max(counts) <= 10, (name, counts)
            assert max(oracle_built[name]) > 10, (name, oracle_built[name])


class TestFloatModeRendersExact:
    """Float mode decides on the exact numerators and only renders: a float
    report is the exact report of the same trial, each Fraction value the
    correctly rounded float, the ratio that of the exact ratio."""

    @staticmethod
    def _rendered(exact):
        """The float report's value for an exact one: the float of a
        Fraction; anything else as is."""
        if isinstance(exact, Fraction):
            return float, float(exact)
        return type(exact), exact

    @pytest.mark.parametrize("suite", experiments.VERIFY_NAMES)
    def test_float_report_is_the_exact_one_rendered(self, suite):
        seeds = [*range(200), *((773, 1447, 3087) if suite == "inter" else ())]
        for seed in seeds:
            (exact,) = experiments.run_verify_suite(suite, 1, 8, seed, EXACT)
            (rendered,) = experiments.run_verify_suite(suite, 1, 8, seed, FLOAT)
            assert (rendered.holds, rendered.degenerate, rendered.witness) == \
                (exact.holds, exact.degenerate, exact.witness), seed
            pairs = [(exact.lhs, rendered.lhs, "lhs"), (exact.rhs, rendered.rhs, "rhs"),
                     (exact.ratio, rendered.ratio, "ratio")]
            for part in ("params", "extra"):
                want, got = getattr(exact, part), getattr(rendered, part)
                assert list(got) == list(want)
                pairs += [(want[k], got[k], k) for k in want]
            for want, got, key in pairs:
                assert (type(got), got) == self._rendered(want), (seed, key)


class TestReportMode:
    """The report mode is applied once, by render, to a report that a
    verifier returns without one; a mode other than exact and float raises
    ValueError."""

    # each entry point, called on one phi instance; inter and new23 also at
    # the float p-th roots and non-integral p, and inter with an empty f
    CALLS = {
        "l1linf": lambda d, w, g, f, lam, delta: (verify_supadditive_l1linf, g, f, "", d),
        "i2pos": lambda d, w, g, f, lam, delta: (verify_I2_positive, f, g, d),
        "build_phi": lambda d, w, g, f, lam, delta: (build_phi, w, g, f, lam, delta, d),
        "linf": lambda d, w, g, f, lam, delta: (verify_linf, f, g, d),
        "gest": lambda d, w, g, f, lam, delta: (verify_gest, g, "", 2, d),
        "inter-2": lambda d, w, g, f, lam, delta: (verify_inter, f, g, 2, d),
        "inter-1.5": lambda d, w, g, f, lam, delta: (verify_inter, f, g, 1.5, d),
        "inter-empty-f": lambda d, w, g, f, lam, delta: (verify_inter, fn({}), g, 2, d),
        "new23-2": lambda d, w, g, f, lam, delta: (verify_new23, f, g, 2, d),
        "new23-1.5": lambda d, w, g, f, lam, delta: (verify_new23, f, g, 1.5, d),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_unknown_mode_rejected(self, call):
        d, w, g, f, lam, delta, _ = TestBuildPhi._instance()
        verifier, *args = self.CALLS[call](d, w, g, f, lam, delta)
        report = _report(verifier(*args))
        for mode in (EXACT, FLOAT):
            render(copy.deepcopy(report), mode)
        with pytest.raises(ValueError, match="unknown report mode 'decimal'"):
            render(report, "decimal")

    @pytest.mark.parametrize("suite", experiments.VERIFY_NAMES)
    def test_unknown_mode_rejected_by_the_suite(self, suite):
        with pytest.raises(ValueError, match="unknown report mode 'decimal'"):
            experiments.run_verify_suite(suite, 1, 5, 0, "decimal")

    @pytest.mark.parametrize("suite", experiments.VERIFY_NAMES)
    def test_reports_carry_the_asked_mode(self, suite):
        # inter compares float p-th roots, and new23 at a non-integral p
        # float powers, so those reports are float whatever was asked
        for mode in (EXACT, FLOAT):
            for r in experiments.run_verify_suite(suite, 30, 6, 3, mode):
                forced = suite == "inter" or (suite == "new23" and r.params["p"] == 1.5)
                assert r.mode == (FLOAT if forced else mode), (mode, r.params)
                assert isinstance(r.lhs, float) == isinstance(r.rhs, float) == (r.mode == FLOAT)


class TestValueForm:
    """What the one value form of a tree function buys: no Fraction per
    drawn node, and a kept denominator that never shows."""

    @pytest.mark.parametrize("suite", experiments.VERIFY_NAMES)
    def test_whole_trials_build_no_value_per_drawn_node(self, suite):
        # generation included: in exact mode a Fraction for each value a
        # report carries, at most 5; float mode renders by int division and
        # builds none but phi's delta and lambda, which its trial draws
        for mode, bound in ((EXACT, 5), (FLOAT, 2 if suite == "phi" else 0)):
            per_trial = [_count_fractions(experiments.run_verify_suite,
                                          suite, 1, 8, 900 + i, mode)[1] for i in range(20)]
            assert max(per_trial) <= bound, (mode, per_trial)
            assert sum(per_trial) > 0 or mode == FLOAT

    @staticmethod
    def _rebuilt(arg):
        """A drawn argument over three times its denominator."""
        if isinstance(arg, SparseFn):
            return rebuild(arg, 3)
        if isinstance(arg, tuple):  # build_phi's iwg: exact heap entries over den
            up, den = arg
            return [3 * v for v in up], 3 * den
        return arg

    def test_kept_denominator_never_reaches_the_output(self, monkeypatch):
        checked = {}
        drawn = []

        def on_call(name, real, args, kwargs):
            result = real(*args, **kwargs)
            report = result
            again = real(*map(self._rebuilt, args),
                         **{k: self._rebuilt(v) for k, v in kwargs.items()})
            if name == "build_phi":
                assert items(again[0]) == items(report[0])
                report, again = report[1], again[1]
            for mode in (EXACT, FLOAT):
                assert render(copy.deepcopy(again), mode).to_dict() == \
                    render(copy.deepcopy(report), mode).to_dict(), (name, args)
            drawn.extend(a for a in args if isinstance(a, SparseFn))
            checked[name] = checked.get(name, 0) + 1
            return result

        _spy_on_verifiers(monkeypatch, on_call)
        for suite in experiments.VERIFY_NAMES:
            experiments.run_verify_suite(suite, trials=60, depth=8, seed=31, mode=EXACT)
        assert checked == {name: 60 for name in ORACLES}
        for f, g in zip(drawn, drawn[1:]):
            assert items(rebuild(f, 3).mul(rebuild(g, 3))) == items(f.mul(g))
        for f in drawn:
            want = {path: float(Fraction(v, f.den)) for path, v in f.values.items()}
            for h in (f, rebuild(f, 3)):
                assert {path: render_value(Exact(v, h.den), FLOAT)
                        for path, v in h.values.items()} == want
