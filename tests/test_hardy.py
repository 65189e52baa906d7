import random
from fractions import Fraction

import pytest

from cxlab.trees import EXACT, FLOAT, DomainError, NodeAddress, ROOT, SparseFn, TreeDomain, _path_values
from cxlab.hardy import (
    PointMeasure,
    _heap_values,
    _up_heap,
    hardy_up_table,
    kernel,
    rectangle_mass_fn,
)
from cxlab import randgen

from helpers import (
    ancestors, atoms_fn, binode, bitree_nodes, build_cex_p_less_2_functions, contains, energy,
    eval_hardy_down, eval_hardy_up, potential, random_path_stdlib, rect_contains, scale,
    tree_nodes_bfs,
)


def brute_hardy_up(f, a):
    return sum(f.get(b) for b in ancestors(a))


def brute_hardy_down(g, a, domain):
    return sum(v for n, v in g.items() if contains(a, n))


class TestHardyTree:
    def test_hand_example(self):
        f = SparseFn({ROOT: 1, NodeAddress("0"): 2, NodeAddress("01"): 4})
        assert eval_hardy_up(f, NodeAddress("011")) == 7
        assert eval_hardy_up(f, NodeAddress("1")) == 1
        assert eval_hardy_down(f, NodeAddress("0")) == 6
        assert eval_hardy_down(f, ROOT) == 7

    def test_up_matches_bruteforce(self):
        d = TreeDomain(6)
        rng = random.Random(11)
        for _ in range(30):
            f = randgen.random_sparse(rng, d)
            for a in tree_nodes_bfs(d.levels):
                assert eval_hardy_up(f, a) == brute_hardy_up(f, a)

    def test_adjointness(self):
        # sum_a If(a) g(a) == sum_a f(a) I*g(a), exactly
        d = TreeDomain(6)
        rng = random.Random(5)
        for _ in range(30):
            f = randgen.random_sparse(rng, d)
            g = randgen.random_sparse(rng, d)
            nodes = tree_nodes_bfs(d.levels)
            lhs = sum(eval_hardy_up(f, a) * g.get(a) for a in nodes)
            rhs = sum(f.get(a) * eval_hardy_down(g, a) for a in nodes)
            assert lhs == rhs

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_table_matches_pointwise(self, mode):
        # sweep values keyed by path, one entry per distinct requested node:
        # ints over f's path-value denominator in exact mode, floats in float
        d = TreeDomain(7)
        rng = random.Random(2)
        f = randgen.random_sparse(rng, d, max_support=20, mode=mode)
        nodes = tree_nodes_bfs(d.levels)
        table = hardy_up_table(f, iter(nodes + nodes[::3]))  # an iterator, read once
        assert list(table) == [a.path for a in nodes]
        den = _path_values(f)[1]
        for a in nodes:
            v = table[a.path]
            assert type(v) is (int if mode == EXACT else float)
            assert (Fraction(v, den) if mode == EXACT else v) == eval_hardy_up(f, a)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_heap_sweep_matches_pointwise(self, mode):
        rng = random.Random(6)
        for levels in range(1, 13):
            d = TreeDomain(levels)
            fns = [SparseFn({}, mode)]
            fns += [randgen.random_sparse(rng, d, mode=mode) for _ in range(3)]
            for f in fns:
                up, den = _heap_values(f, d)
                assert len(up) == 2 ** levels
                _up_heap(up)
                for k, a in enumerate(tree_nodes_bfs(levels), start=1):
                    v = Fraction(up[k], den) if mode == EXACT else up[k]
                    assert type(v) is type(eval_hardy_up(f, a))
                    assert v == eval_hardy_up(f, a)

    def test_heap_sweep_rounds_as_table(self):
        # non-dyadic floats on every node: each sum rounds, and the heap
        # sweep takes the roundings of the root-first dict sweep
        rng = random.Random(7)
        d = TreeDomain(9)
        nodes = tree_nodes_bfs(d.levels)
        f = SparseFn({a: rng.random() / 3 for a in nodes if rng.random() < 0.7},
                     FLOAT)
        up, _ = _heap_values(f, d)
        _up_heap(up)
        table = hardy_up_table(f, nodes)
        assert up[1:] == [table[a.path] for a in nodes]
        assert len(set(up)) > len(nodes) // 2

    def test_heap_values_outside_domain(self):
        f = SparseFn({NodeAddress("000"): 1})
        with pytest.raises(DomainError):
            _heap_values(f, TreeDomain(3))

    def test_table_on_264_level_paths(self):
        # f = 2^-depth on a full 9-generation tree and on the 256-step
        # left-child paths below it, so If = 2 - 2^-depth on all of supp f
        _, f, _ = build_cex_p_less_2_functions(8)
        table, den = hardy_up_table(f, f.support()), _path_values(f)[1]
        assert max(len(path) for path in table) == 264
        for path, v in table.items():
            assert Fraction(v, den) == 2 - Fraction(1, 2 ** len(path))
        deepest = NodeAddress("0" * 264)
        assert Fraction(table[deepest.path], den) == brute_hardy_up(f, deepest)

    def test_up_is_monotone_down_paths(self):
        d = TreeDomain(6)
        rng = random.Random(3)
        f = randgen.random_sparse(rng, d)
        for a in tree_nodes_bfs(d.levels):
            if a.depth > 0:
                assert eval_hardy_up(f, a) >= eval_hardy_up(f, NodeAddress(a.path[:-1]))

    def test_linearity(self):
        d = TreeDomain(5)
        rng = random.Random(4)
        f = randgen.random_sparse(rng, d)
        a = NodeAddress("0101" [: rng.randint(0, 4)])
        assert eval_hardy_up(scale(f, 3), a) == 3 * eval_hardy_up(f, a)


class TestHardyBitree:
    def test_up_down_on_rectangles(self):
        g = {binode("", ""): 1, binode("0", "1"): 2, binode("01", "1"): 4}
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
        for q in bitree_nodes(5, 6):
            if rect_contains(q, a) and rect_contains(q, b):
                count += 1
        assert kernel(a, b) == count == (2 + 1) * (2 + 1)

    def test_potential_matches_enumeration(self):
        rng = random.Random(9)
        for _ in range(10):
            m = randgen.random_point_measure(rng, 4, 4)
            nu = atoms_fn(m)
            a = binode(random_path_stdlib(rng, 3), random_path_stdlib(rng, 3))
            brute = sum(
                eval_hardy_down(nu, q)
                for q in bitree_nodes(4, 4)
                if rect_contains(q, a)
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
        assert r[binode("0", "1")] == Fraction(3, 4)
        assert r[binode("", "")] == Fraction(3, 4)
        assert r[binode("00", "1")] == Fraction(1, 2)
        assert binode("1", "") not in r

    def test_rectangle_mass_fn_takes_exact_masses_only(self):
        # a float mass, even after an exact one, is named as the rule it
        # breaks; an int mass is exact
        for atoms in ([(binode("0", ""), 0.5)],
                      [(binode("1", "0"), Fraction(1, 4)), (binode("0", ""), 0.5)]):
            with pytest.raises(ValueError, match="exact atom masses only, got float 0.5 at x=0/y="):
                rectangle_mass_fn(PointMeasure.of(atoms))
        r = rectangle_mass_fn(PointMeasure.of([(binode("0", ""), 2)]))
        assert r == {binode("", ""): 2, binode("0", ""): 2}
        assert {type(v) for v in r.values()} == {Fraction}

