import math
from fractions import Fraction

import pytest

from cxlab.trees import (
    DomainError,
    PreconditionError,
    ResourceError,
    SparseFn,
    TreeDomain,
    lcp_len,
)

from cxlab.hardy import _heap_values
from cxlab.lemmas import verify_gest

from helpers import (
    ancestors, bitree_nodes, contains, fn, get, heap_node, items, power, tree_nodes_bfs,
)


class TestPaths:
    def test_contains_is_inclusive_ancestry(self):
        assert contains("01", "010")
        assert contains("", "01")
        assert contains("01", "01")
        assert not contains("010", "01")
        assert not contains("01", "00")


class TestLcp:
    @pytest.mark.parametrize("a,b,want", [
        ("", "", 0), ("0", "", 0), ("0101", "0101", 4),
        ("0101", "0100", 3), ("1", "0", 0), ("0" * 300, "0" * 200 + "1", 200),
    ])
    def test_lcp_len(self, a, b, want):
        assert lcp_len(a, b) == want
        assert lcp_len(b, a) == want

    def test_lcp_depth(self):
        # the lcp of two paths is the depth of the nodes' deepest common ancestor
        a, b = "0011", "0010"
        common = [q for q in ancestors(a) if contains(q, b)]
        assert lcp_len(a, b) == max(len(q) for q in common) == 3


class TestTreeDomain:
    def test_counts(self):
        d = TreeDomain(4)
        assert d.node_count == 15
        assert d.max_depth == 3

    def test_membership(self):
        d = TreeDomain(3)
        d.require(["", "01", "11", "0"])
        with pytest.raises(DomainError, match="node at depth 3 outside 3-level tree"):
            d.require(["01", "011", "0111"])

    @pytest.mark.parametrize("levels", range(1, 14))
    def test_heap_order_is_breadth_first(self, levels):
        # heap position k + 1 holds the k-th node in breadth-first order
        d = TreeDomain(levels)
        nodes = tree_nodes_bfs(levels)
        up, den = _heap_values(fn({a: i + 1 for i, a in enumerate(nodes)}), d)
        assert den == 1 and up == [0, *range(1, len(nodes) + 1)]
        assert [heap_node(k) for k in range(1, 1 << levels)] == nodes

    def test_heap_index_outside_domain(self):
        d = TreeDomain(3)
        assert _heap_values(fn({"11": 1}), d)[0][7] == 1
        with pytest.raises(DomainError):
            _heap_values(fn({"000": 1}), d)

    def test_enumeration_budget(self):
        TreeDomain(20).require_enumerable()
        with pytest.raises(ResourceError):
            TreeDomain(21).require_enumerable()

    def test_bitree_enumeration(self):
        nodes = list(bitree_nodes(2, 3))
        assert len(nodes) == len(set(nodes)) == 3 * 7
        assert ("0", "01") in nodes
        assert ("00", "0") not in nodes


class TestSparseFn:
    # tree functions built from Fraction, int or float values by helpers.fn
    def test_exact_coercion_and_zero_drop(self):
        f = fn({"": Fraction(1, 2), "0": 0, "1": Fraction(0)})
        assert len(f) == 1
        assert get(f, "") == Fraction(1, 2)
        assert get(f, "1") == 0
        assert isinstance(get(f, "1"), Fraction)

    def test_negative_message(self):
        for v in (Fraction(-1, 2), -0.5):
            with pytest.raises(ValueError) as info:
                fn({"": 1, "01": v})
            assert str(info.value) == "negative value -1/2 at 01"

    def test_zeros_dropped(self):
        zeros = (0, 0.0, -0.0, Fraction(0))
        f = fn({"0" * i: z for i, z in enumerate(zeros)})
        assert len(f) == 0 and not f

    def test_exact_coercion_of_int_and_float(self):
        f = fn({"": 3, "0": 0.1, "1": Fraction(1, 3)})
        assert [(type(v), v) for _, v in items(f)] == [
            (Fraction, Fraction(3)), (Fraction, Fraction(0.1)), (Fraction, Fraction(1, 3))]
        assert get(f, "0") != Fraction(1, 10)  # the binary value, not 1/10

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            fn({"": math.nan})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fn({"": -1})
        with pytest.raises(ValueError):
            fn({"": Fraction(-1, 2)})

    def test_mul(self):
        f = fn({"": Fraction(1, 2), "0": Fraction(3)})
        g = fn({"": Fraction(4), "1": Fraction(1)})
        fg = f.mul(g)
        assert get(fg, "") == 2
        assert len(fg) == 1

    def test_power(self):
        h = power(fn({"": Fraction(1, 2)}), 2)
        assert items(h) == [("", Fraction(1, 4))]


class TestValueForm:
    def test_exact_numerators_over_the_lcm(self):
        f = fn({"01": Fraction(1, 6), "": Fraction(3, 4), "1": Fraction(2, 5), "0": 7})
        assert f.den == 60
        assert list(f.values.items()) == [("01", 10), ("", 45), ("1", 24), ("0", 420)]
        assert all(type(v) is int for v in f.values.values())

    def test_float_values_at_their_binary_value(self):
        f = fn({"1": 0.1, "": 2.5})
        assert f.den == 2 ** 55
        assert items(f) == [("1", Fraction(0.1)), ("", Fraction(5, 2))]
        assert (fn({}).values, fn({}).den) == ({}, 1)

    def test_constructor_takes_numerators_over_den(self):
        # numerators over any common denominator, kept as given
        f = SparseFn({"1": 3, "": 10}, 12)
        assert len(f) == 2
        assert (f.values, f.den) == ({"1": 3, "": 10}, 12)
        assert items(f) == [("1", Fraction(1, 4)), ("", Fraction(5, 6))]


class TestPreconditionError:
    @pytest.mark.parametrize("witness, text", [
        (None, "g is not superadditive"),
        ("", "g is not superadditive (witness: (root))"),
        ("0110", "g is not superadditive (witness: 0110)"),
    ], ids=["none", "root", "deep"])
    def test_message_names_the_witness_path(self, witness, text):
        err = PreconditionError("g is not superadditive", witness)
        assert (str(err), err.condition, err.witness) == (text, "g is not superadditive", witness)

    @pytest.mark.parametrize("values, text", [
        # the children of the root sum to 2 > 1
        ({"": 1, "0": 1, "1": 1}, "(witness: (root))"),
        # the root holds, its left child's children sum to 2 > 1
        ({"": 3, "0": 1, "00": 1, "01": 1}, "(witness: 0)"),
    ], ids=["root", "deep"])
    def test_a_failed_check_reports_its_witness(self, values, text):
        with pytest.raises(PreconditionError) as info:
            verify_gest(fn(values), "", 2, TreeDomain(3))
        assert str(info.value) == f"g^(p-1) is not superadditive {text}"
