import random
from fractions import Fraction

import pytest

from cxlab.trees import (
    EXACT, FLOAT, BiTreeDomain, DomainError, NodeAddress, ROOT, SparseFn, TreeDomain, binode,
)
from cxlab.hardy import (
    PointMeasure,
    _heap_values,
    _up_heap,
    ancestor_closure,
    energy,
    eval_hardy_down,
    eval_hardy_up,
    hardy_up_table,
    kernel,
    potential,
    rectangle_mass_fn,
)
from cxlab import randgen

from helpers import atoms_fn, build_cex_p_less_2_functions


def brute_hardy_up(f, a):
    return sum(f.get(b) for b in a.ancestors())


def brute_hardy_down(g, a, domain):
    return sum(v for n, v in g.items() if a.contains(n))


class TestHardyTree:
    def test_hand_example(self):
        f = SparseFn.tree({ROOT: 1, NodeAddress("0"): 2, NodeAddress("01"): 4})
        assert eval_hardy_up(f, NodeAddress("011")) == 7
        assert eval_hardy_up(f, NodeAddress("1")) == 1
        assert eval_hardy_down(f, NodeAddress("0")) == 6
        assert eval_hardy_down(f, ROOT) == 7

    def test_up_matches_bruteforce(self):
        d = TreeDomain(6)
        rng = random.Random(11)
        for _ in range(30):
            f = randgen.random_sparse(rng, d)
            for a in d.nodes():
                assert eval_hardy_up(f, a) == brute_hardy_up(f, a)

    def test_adjointness(self):
        # sum_a If(a) g(a) == sum_a f(a) I*g(a), exactly
        d = TreeDomain(6)
        rng = random.Random(5)
        for _ in range(30):
            f = randgen.random_sparse(rng, d)
            g = randgen.random_sparse(rng, d)
            lhs = sum(eval_hardy_up(f, a) * g.get(a) for a in d.nodes())
            rhs = sum(f.get(a) * eval_hardy_down(g, a) for a in d.nodes())
            assert lhs == rhs

    def test_table_matches_pointwise(self):
        d = TreeDomain(7)
        rng = random.Random(2)
        f = randgen.random_sparse(rng, d, max_support=20)
        nodes = list(d.nodes())
        table = hardy_up_table(f, d.nodes())  # a generator, read once
        assert list(table) == nodes
        for a in nodes:
            assert table[a] == eval_hardy_up(f, a)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_heap_sweep_matches_pointwise(self, mode):
        rng = random.Random(6)
        for levels in range(1, 13):
            d = TreeDomain(levels)
            fns = [SparseFn.tree({}, mode)]
            fns += [randgen.random_sparse(rng, d, mode=mode) for _ in range(3)]
            for f in fns:
                up, den = _heap_values(f, d)
                assert len(up) == 2 ** levels
                _up_heap(up)
                for k, a in enumerate(d.nodes(), start=1):
                    v = Fraction(up[k], den) if mode == EXACT else up[k]
                    assert type(v) is type(eval_hardy_up(f, a))
                    assert v == eval_hardy_up(f, a)

    def test_heap_sweep_rounds_as_table(self):
        # non-dyadic floats on every node: each sum rounds, and the heap
        # sweep takes the roundings of the root-first dict sweep
        rng = random.Random(7)
        d = TreeDomain(9)
        nodes = list(d.nodes())
        f = SparseFn.tree({a: rng.random() / 3 for a in nodes if rng.random() < 0.7},
                          FLOAT)
        up, _ = _heap_values(f, d)
        _up_heap(up)
        table = hardy_up_table(f, nodes)
        assert up[1:] == [table[a] for a in nodes]
        assert len(set(up)) > len(nodes) // 2

    def test_heap_values_outside_domain(self):
        f = SparseFn.tree({NodeAddress("000"): 1})
        with pytest.raises(DomainError):
            _heap_values(f, TreeDomain(3))

    def test_table_on_264_level_paths(self):
        # f = 2^-depth on a full 9-generation tree and on the 256-step
        # left-child paths below it, so If = 2 - 2^-depth on all of supp f
        _, f, _ = build_cex_p_less_2_functions(8)
        table = hardy_up_table(f, f.support())
        assert max(a.depth for a in table) == 264
        for a, v in table.items():
            assert v == 2 - Fraction(1, 2 ** a.depth)
        deepest = NodeAddress("0" * 264)
        assert table[deepest] == brute_hardy_up(f, deepest)

    def test_up_is_monotone_down_paths(self):
        d = TreeDomain(6)
        rng = random.Random(3)
        f = randgen.random_sparse(rng, d)
        for a in d.nodes():
            if a.depth > 0:
                assert eval_hardy_up(f, a) >= eval_hardy_up(f, a.parent())

    def test_linearity(self):
        d = TreeDomain(5)
        rng = random.Random(4)
        f = randgen.random_sparse(rng, d)
        a = NodeAddress("0101" [: rng.randint(0, 4)])
        assert eval_hardy_up(f.scale(3), a) == 3 * eval_hardy_up(f, a)


class TestHardyBitree:
    def test_up_down_on_rectangles(self):
        g = SparseFn.bitree({binode("", ""): 1, binode("0", "1"): 2, binode("01", "1"): 4})
        assert eval_hardy_up(g, binode("01", "11")) == 7
        assert eval_hardy_down(g, binode("0", "")) == 6
        assert eval_hardy_down(g, binode("0", "1")) == 6


class TestPotential:
    def test_atom_masses_positive(self):
        with pytest.raises(ValueError):
            PointMeasure.of([(binode("0", "1"), 0)])

    def test_kernel_counts_common_ancestors(self):
        a, b = binode("001", "01"), binode("000", "0110")
        count = 0
        for q in BiTreeDomain(5, 6).nodes():
            if q.contains(a) and q.contains(b):
                count += 1
        assert kernel(a, b) == count == (2 + 1) * (2 + 1)

    def test_potential_matches_enumeration(self):
        rng = random.Random(9)
        for _ in range(10):
            m = randgen.random_point_measure(rng, 4, 4)
            nu = atoms_fn(m)
            a = binode(randgen.random_path(rng, 3), randgen.random_path(rng, 3))
            brute = sum(
                eval_hardy_down(nu, q)
                for q in BiTreeDomain(4, 4).nodes()
                if q.contains(a)
            )
            assert potential(m, a) == brute

    def test_energy_identity(self):
        # E(m) = sum over atoms of mass * potential(m, atom)
        rng = random.Random(10)
        for _ in range(20):
            m = randgen.random_point_measure(rng, 5, 5)
            assert energy(m) == sum(mass * potential(m, node) for node, mass in m.atoms)

    def test_potential_linearity_in_mass(self):
        m = PointMeasure.of([(binode("00", "1"), Fraction(1, 4))])
        m2 = PointMeasure.of([(binode("00", "1"), Fraction(1, 2))])
        a = binode("0", "1")
        assert potential(m2, a) == 2 * potential(m, a)

    def test_rectangle_mass_fn(self):
        m = PointMeasure.of([
            (binode("00", "1"), Fraction(1, 2)),
            (binode("01", "1"), Fraction(1, 4)),
        ])
        r = rectangle_mass_fn(m)
        assert r.get(binode("0", "1")) == Fraction(3, 4)
        assert r.get(binode("", "")) == Fraction(3, 4)
        assert r.get(binode("00", "1")) == Fraction(1, 2)
        assert r.get(binode("1", "")) == 0


def test_ancestor_closure():
    nodes = [NodeAddress("010"), NodeAddress("00")]
    got = [n.path for n in ancestor_closure(nodes)]
    assert got == ["", "0", "00", "01", "010"]
