import random
from fractions import Fraction

import pytest

from cxlab.trees import DomainError, TreeDomain
from cxlab.hardy import _heap_values, _up_heap, hardy_up_table, kernel, rectangle_mass_fn
from cxlab import randgen

from helpers import (
    ancestors, atoms_fn, bitree_nodes, build_cex_p_less_2_functions, contains, energy,
    eval_hardy_down, eval_hardy_up, fn, get, items, measure, potential, random_atoms_stdlib,
    random_path_stdlib, rect_contains, scale, tree_nodes_bfs,
)


def brute_hardy_up(f, a):
    return sum(get(f, b) for b in ancestors(a))


def brute_hardy_down(g, a, domain):
    return sum(v for n, v in items(g) if contains(a, n))


class TestHardyTree:
    def test_hand_example(self):
        f = fn({"": 1, "0": 2, "01": 4})
        assert eval_hardy_up(f, "011") == 7
        assert eval_hardy_up(f, "1") == 1
        assert eval_hardy_down(f, "0") == 6
        assert eval_hardy_down(f, "") == 7

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
            lhs = sum(eval_hardy_up(f, a) * get(g, a) for a in nodes)
            rhs = sum(get(f, a) * eval_hardy_down(g, a) for a in nodes)
            assert lhs == rhs

    def test_table_matches_pointwise(self):
        # int numerators over f's denominator keyed by path, one entry per
        # distinct requested node
        d = TreeDomain(7)
        rng = random.Random(2)
        f = randgen.random_sparse(rng, d, max_support=20)
        nodes = tree_nodes_bfs(d.levels)
        # an iterator, read once
        table = hardy_up_table(f, iter(nodes + nodes[::3]))
        assert list(table) == nodes
        den = f.den
        for a in nodes:
            v = table[a]
            assert type(v) is int
            assert Fraction(v, den) == eval_hardy_up(f, a)

    def test_heap_sweep_matches_pointwise(self):
        rng = random.Random(6)
        for levels in range(1, 13):
            d = TreeDomain(levels)
            fns = [fn({})]
            fns += [randgen.random_sparse(rng, d) for _ in range(3)]
            for f in fns:
                up, den = _heap_values(f, d)
                assert len(up) == 2 ** levels
                _up_heap(up)
                for k, a in enumerate(tree_nodes_bfs(levels), start=1):
                    assert type(up[k]) is int
                    assert Fraction(up[k], den) == eval_hardy_up(f, a)

    def test_heap_sweep_rounds_as_table(self):
        # non-dyadic floats on every node, at their binary values: the heap
        # sweep and the root-first dict sweep give the same int sums
        rng = random.Random(7)
        d = TreeDomain(9)
        nodes = tree_nodes_bfs(d.levels)
        f = fn({a: rng.random() / 3 for a in nodes if rng.random() < 0.7})
        up, _ = _heap_values(f, d)
        _up_heap(up)
        table = hardy_up_table(f, nodes)
        assert up[1:] == [table[a] for a in nodes]
        assert len(set(up)) > len(nodes) // 2

    def test_heap_values_outside_domain(self):
        f = fn({"000": 1})
        with pytest.raises(DomainError):
            _heap_values(f, TreeDomain(3))

    def test_table_on_264_level_paths(self):
        # f = 2^-depth on a full 9-generation tree and on the 256-step
        # left-child paths below it, so If = 2 - 2^-depth on all of supp f
        _, f, _ = build_cex_p_less_2_functions(8)
        table, den = hardy_up_table(f, f.values), f.den
        assert max(len(path) for path in table) == 264
        for path, v in table.items():
            assert Fraction(v, den) == 2 - Fraction(1, 2 ** len(path))
        deepest = "0" * 264
        assert Fraction(table[deepest], den) == brute_hardy_up(f, deepest)

    def test_up_is_monotone_down_paths(self):
        d = TreeDomain(6)
        rng = random.Random(3)
        f = randgen.random_sparse(rng, d)
        for a in tree_nodes_bfs(d.levels):
            if a:
                assert eval_hardy_up(f, a) >= eval_hardy_up(f, a[:-1])

    def test_linearity(self):
        d = TreeDomain(5)
        rng = random.Random(4)
        f = randgen.random_sparse(rng, d)
        a = "0101"[: rng.randint(0, 4)]
        assert eval_hardy_up(scale(f, 3), a) == 3 * eval_hardy_up(f, a)


class TestHardyBitree:
    def test_up_down_on_rectangles(self):
        g = {("", ""): 1, ("0", "1"): 2, ("01", "1"): 4}
        assert eval_hardy_up(g, ("01", "11")) == 7
        assert eval_hardy_down(g, ("0", "")) == 6
        assert eval_hardy_down(g, ("0", "1")) == 6

    def test_node_kinds_do_not_mix(self):
        with pytest.raises(DomainError, match="str is not a node"):
            eval_hardy_up({("", ""): 1}, "0")
        with pytest.raises(DomainError, match="tuple is not a node"):
            eval_hardy_down(fn({"": 1}), ("", ""))


class TestPotential:
    def test_kernel_counts_common_ancestors(self):
        a, b = ("001", "01"), ("000", "0110")
        count = 0
        for q in bitree_nodes(5, 6):
            if rect_contains(q, a) and rect_contains(q, b):
                count += 1
        assert kernel(a, b) == count == (2 + 1) * (2 + 1)

    def test_potential_matches_enumeration(self):
        rng = random.Random(9)
        for _ in range(10):
            m = measure(random_atoms_stdlib(rng, 4, 4))
            nu = atoms_fn(m)
            a = random_path_stdlib(rng, 3), random_path_stdlib(rng, 3)
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
            m = measure(random_atoms_stdlib(rng, 5, 5))
            assert energy(m) == sum(mass * potential(m, node) for node, mass in m)

    def test_potential_linearity_in_mass(self):
        m = [(("00", "1"), Fraction(1, 4))]
        m2 = [(("00", "1"), Fraction(1, 2))]
        a = "0", "1"
        assert potential(m2, a) == 2 * potential(m, a)

    def test_rectangle_mass_fn(self):
        # masses 8/16 and 4/16
        sums, den = rectangle_mass_fn([("00", "1", 8), ("01", "1", 4)])
        assert den == 16
        assert sums["0", "1"] == sums["", ""] == 12
        assert sums["00", "1"] == 8
        assert ("1", "") not in sums
        assert list(sums)[:3] == [("", ""), ("", "1"), ("0", "")]
        assert {type(v) for v in sums.values()} == {int}
        assert rectangle_mass_fn([]) == ({}, 16)

    def test_atom_masses_positive(self):
        # every drawn atom has mass k/16 with 1 <= k <= 16, so every
        # rectangle in the support holds a positive mass and the root holds
        # the total
        rng = random.Random(12)
        for _ in range(200):
            sums, den = randgen.random_special_form_measure(rng, 4, 3, max_atoms=5)
            assert den == 16
            assert all(type(s) is int and s >= 1 for s in sums.values())
            assert 1 <= sums["", ""] <= 16 * 5
            assert all(len(x) < 4 and len(y) < 3 for x, y in sums)

    def test_rectangle_masses_shrink_down_the_tree(self):
        # R(q) is the mass of the atoms inside q, so it is at most the mass
        # of each rectangle that contains q
        rng = random.Random(13)
        for _ in range(50):
            sums, _ = rectangle_mass_fn(random_atoms_stdlib(rng, 5, 5))
            for (x, y), s in sums.items():
                for a in ancestors(x):
                    for b in ancestors(y):
                        assert sums[a, b] >= s
