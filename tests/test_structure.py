import random
from fractions import Fraction

import pytest

from cxlab.lemmas import FLOAT
from cxlab.trees import TreeDomain
from cxlab.structure import (
    check_power_superadditive,
    is_increasing,
    is_superadditive,
    special_form_g,
)
from cxlab.hardy import rectangle_mass_fn
from cxlab import lemmas, randgen

from helpers import (
    build_cex_p_less_2_functions,
    fn,
    get,
    items,
    random_atoms_stdlib,
    tree_nodes_bfs,
    doubling_g_fn,
    is_increasing_nodes,
    is_superadditive_nodes,
)

PREDICATES = [(is_superadditive, is_superadditive_nodes), (is_increasing, is_increasing_nodes)]


def _outcome(predicate, g, d):
    """(ok, witness), or the type and message of the ValueError raised."""
    try:
        return predicate(g, d)
    except ValueError as exc:
        return type(exc), str(exc)


class TestSuperadditive:
    def test_hand_examples(self):
        d = TreeDomain(3)
        g = fn({"": 1, "0": Fraction(1, 2), "1": Fraction(1, 2)})
        assert is_superadditive(g, d) == (True, None)
        bad = fn({"": 1, "0": Fraction(3, 4), "1": Fraction(1, 2)})
        ok, witness = is_superadditive(bad, d)
        assert not ok and witness == ""

    def test_doubling_g_fails_at_root(self):
        # halve-left/keep-right: children sum to 3/2 of the parent everywhere
        N = 5
        g = doubling_g_fn(N)
        ok, witness = is_superadditive(g, TreeDomain(N))
        assert not ok
        assert witness == ""

    def test_doubling_g_is_increasing(self):
        N = 6
        assert is_increasing(doubling_g_fn(N), TreeDomain(N)) == (True, None)

    def test_deep_decay_instance_is_superadditive(self):
        d, f, g = build_cex_p_less_2_functions(3)
        assert is_superadditive(g, d) == (True, None)

    def test_random_generators_satisfy_their_predicate(self):
        d = TreeDomain(7)
        rng = random.Random(1)
        for _ in range(50):
            assert is_superadditive(randgen.random_superadditive(rng, d), d)[0]
            assert is_increasing(randgen.random_increasing(rng, d), d)[0]

    def test_increasing_witness(self):
        d = TreeDomain(3)
        g = fn({"": 1, "01": Fraction(2)})
        ok, witness = is_increasing(g, d)
        assert not ok and witness == "01"


@pytest.mark.parametrize("predicate, oracle", PREDICATES)
class TestPredicatesMatchNodeOracles:
    def test_generated_functions(self, predicate, oracle):
        d = TreeDomain(8)
        rng = random.Random(4)
        seen = set()
        for _ in range(300):
            for gen in (randgen.random_superadditive, randgen.random_increasing,
                        randgen.random_sparse):
                g = gen(rng, d)
                want = oracle(g, d)
                assert predicate(g, d) == want
                seen.add(want[0])
        assert seen == {True, False}

    def test_non_dyadic_fractions(self, predicate, oracle):
        d = TreeDomain(5)
        nodes = tree_nodes_bfs(d.levels)
        rng = random.Random(5)
        seen = set()
        for _ in range(400):
            g = fn({n: Fraction(rng.randint(0, 30), rng.choice((3, 5, 7)))
                    for n in rng.sample(nodes, rng.randint(1, 12))})
            want = oracle(g, d)
            assert predicate(g, d) == want
            seen.add(want[0])
        assert seen == {True, False}

    def test_decided_exactly_at_equality(self, predicate, oracle):
        # an equality holds, and an excess of 2^-60 fails: no tolerance
        d = TreeDomain(3)
        for excess, want in ((0, (True, None)),
                             (Fraction(1, 2 ** 60),
                              (False, "" if predicate is is_superadditive else "1"))):
            if predicate is is_superadditive:
                entries = {"": 1, "0": Fraction(1, 2), "1": Fraction(1, 2) + excess}
            else:
                entries = {"": 1, "1": 1 + excess}
            g = fn(entries)
            assert oracle(g, d) == want
            assert predicate(g, d) == want

    @pytest.mark.parametrize("values", [
        {"00000": 1},
        # is_superadditive reports the first such node in support order,
        # is_increasing the first in (depth, path) order
        {"": 1, "0": Fraction(1, 2), "111111": Fraction(1, 7), "1": Fraction(1, 2),
         "01011": Fraction(1, 6)},
        {"111": 1, "": 1, "0": 1, "1": 1, "000": 1},
        # is_increasing fails at "0" before it reaches the deep node
        {"": 1, "0": 2, "1111": 1},
    ])
    def test_out_of_domain_nodes(self, predicate, oracle, values):
        d = TreeDomain(3)
        g = fn(values)
        want = _outcome(oracle, g, d)
        assert _outcome(predicate, g, d) == want


class TestSpecialForm:
    def test_conjugate_exponent(self):
        # one atom of mass 1/4 covering beta: g = (1/4)^(q-1) on its x-ancestors,
        # q = p/(p-1), q - 1 integral; a non-integral q - 1 is refused
        m = {("", ""): 1}, 4
        for p, want in ((2, Fraction(1, 4)), (Fraction(3, 2), Fraction(1, 16)),
                        (1.5, Fraction(1, 16)), (Fraction(4, 3), Fraction(1, 64))):
            assert items(special_form_g(m, "", p)) == [("", want)], p
        for p in (3, 2.5, Fraction(5, 3)):
            with pytest.raises(ValueError, match="must be integral"):
                special_form_g(m, "", p)

    @pytest.mark.parametrize("p", [1, Fraction(1, 2), 0.5])
    def test_p_must_exceed_one(self, p):
        with pytest.raises(ValueError, match="p must exceed 1"):
            special_form_g(({("", ""): 1}, 4), "", p)

    def test_single_atom_exact(self):
        # one atom of mass 1/4 at (x=00, y=11); beta = 11, q - 1 = 1
        m = rectangle_mass_fn([("00", "11", 4)])
        g = special_form_g(m, "11", 2)
        # each x-ancestor collects the masses of rectangles with y containing beta
        assert get(g, "00") == Fraction(3, 4)
        assert get(g, "0") == Fraction(3, 4)
        assert get(g, "") == Fraction(3, 4)
        assert get(g, "1") == 0

    def test_minkowski_superadditivity_p2_exact(self):
        d = TreeDomain(6)
        rng = random.Random(21)
        for _ in range(300):
            m = randgen.random_special_form_measure(rng, 6, 6)
            beta = min(y for _, y in m[0])
            g = special_form_g(m, beta, 2)
            ok, witness = check_power_superadditive(g, d, 2)
            assert ok, f"violated at {witness}"

    def test_non_integral_power_refused(self):
        # g^(p-1) is checked on int numerators only
        d = TreeDomain(5)
        m = randgen.random_special_form_measure(random.Random(22), 5, 5)
        g = special_form_g(m, min(y for _, y in m[0]), 2)
        assert check_power_superadditive(g, d, 3)[0] in (True, False)
        for p in (1.5, Fraction(5, 2)):
            with pytest.raises(ValueError, match="p - 1 must be integral"):
                check_power_superadditive(g, d, p)

    def test_single_path_property(self):
        # with all atoms on one x-path the power inequality is an equality chain
        m = rectangle_mass_fn([("000", "1", 8)])
        g = special_form_g(m, "1", 2)
        d = TreeDomain(4)
        ok, _ = is_superadditive(g, d)
        assert ok
        # every node on the path has exactly one supported child
        for n in ("", "0", "00"):
            assert get(g, n) == get(g, n + "0") + get(g, n + "1")

    def test_float_form_is_the_float_of_the_exact_one(self):
        # g is exact at integral q - 1, whatever denominator the masses keep;
        # the float gest trial renders each value rounded once
        atoms = random_atoms_stdlib(random.Random(23), 6, 6)
        sums, den = rectangle_mass_fn(atoms)
        beta = max((y for _, y in sums), key=lambda y: (len(y), y))
        g = special_form_g((sums, den), beta, 2)
        g3 = special_form_g(({k: 3 * s for k, s in sums.items()}, 3 * den), beta, 2)
        assert len(atoms) > 1 and len(g) > 1
        assert {type(v) for _, v in items(g)} == {Fraction}
        assert items(g3) == items(g)
        assert [(n, type(v), v) for n, v in g.values.items()
                for v in [lemmas.render_value(lemmas.Exact(v, g.den), FLOAT)]] == \
            [(n, float, float(v)) for n, v in items(g)]
