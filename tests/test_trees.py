import math
from fractions import Fraction

import pytest

from cxlab.trees import (
    BiNode,
    DomainError,
    EXACT,
    FLOAT,
    NodeAddress,
    ResourceError,
    ROOT,
    SparseFn,
    TreeDomain,
    format_node,
    lcp_len,
)

from cxlab.hardy import _heap_values

from helpers import (
    ancestors, binode, bitree_nodes, contains, get, heap_node, items, power, tree_nodes_bfs,
)

BIROOT = BiNode(ROOT, ROOT)


class TestNodeAddress:
    def test_path_validation(self):
        with pytest.raises(ValueError):
            NodeAddress("012")

    def test_contains_is_inclusive_ancestry(self):
        assert contains(NodeAddress("01"), NodeAddress("010"))
        assert contains(ROOT, NodeAddress("01"))
        assert contains(NodeAddress("01"), NodeAddress("01"))
        assert not contains(NodeAddress("010"), NodeAddress("01"))
        assert not contains(NodeAddress("01"), NodeAddress("00"))

    def test_nodes_key_dicts_apart_from_paths(self):
        paths = ("", "0", "1", "01", "0110" * 20)
        assert NodeAddress("01") != "01" and "01" != NodeAddress("01")
        table = {NodeAddress(p): p for p in paths}
        nodes = set(table)
        for p in paths:
            assert table[NodeAddress(p)] == p and NodeAddress(p) in nodes
            assert p not in table and p not in nodes
        assert NodeAddress("10") not in nodes


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
        a, b = NodeAddress("0011"), NodeAddress("0010")
        common = [q for q in ancestors(a) if contains(q, b)]
        assert lcp_len(a.path, b.path) == max(len(q.path) for q in common) == 3


class TestBiNode:
    def test_str(self):
        assert str(binode("0110", "01")) == "x=0110/y=01"
        assert str(BIROOT) == "x=/y="

    def test_literals_roundtrip(self):
        # a tree node's report literal is its bit path and parses back
        # through NodeAddress; a rectangle's joins its coordinates' literals
        for n in bitree_nodes(3, 4):
            x, y = format_node(n.x), format_node(n.y)
            assert (NodeAddress(x), NodeAddress(y)) == (n.x, n.y)
            assert str(n) == f"x={x}/y={y}"
        assert format_node(NodeAddress("0110")) == "0110"
        assert format_node(ROOT) == ""


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
        up, den = _heap_values(SparseFn({a: i + 1 for i, a in enumerate(nodes)}), d)
        assert den == 1 and up == [0, *range(1, len(nodes) + 1)]
        assert [heap_node(k) for k in range(1, 1 << levels)] == nodes

    def test_heap_index_outside_domain(self):
        d = TreeDomain(3)
        assert _heap_values(SparseFn({NodeAddress("11"): 1}), d)[0][7] == 1
        with pytest.raises(DomainError):
            _heap_values(SparseFn({NodeAddress("000"): 1}), d)

    def test_enumeration_budget(self):
        TreeDomain(20).require_enumerable()
        with pytest.raises(ResourceError):
            TreeDomain(21).require_enumerable()

    def test_bitree_enumeration(self):
        nodes = list(bitree_nodes(2, 3))
        assert len(nodes) == len(set(nodes)) == 3 * 7
        assert binode("0", "01") in nodes
        assert binode("00", "0") not in nodes


class TestSparseFn:
    def test_exact_coercion_and_zero_drop(self):
        f = SparseFn({ROOT: Fraction(1, 2), NodeAddress("0"): 0,
                      NodeAddress("1"): Fraction(0)})
        assert len(f) == 1
        assert get(f, ROOT) == Fraction(1, 2)
        assert get(f, NodeAddress("1")) == 0
        assert isinstance(get(f, NodeAddress("1")), Fraction)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_non_tree_keys_rejected(self, mode):
        for key in (BIROOT, "01"):
            with pytest.raises(DomainError, match=f"{type(key).__name__} is not a tree node"):
                SparseFn({key: 1}, mode)

    @pytest.mark.parametrize("mode,text", [(EXACT, "-1/2"), (FLOAT, "-0.5")])
    def test_negative_message(self, mode, text):
        for v in (Fraction(-1, 2), -0.5):
            with pytest.raises(ValueError) as info:
                SparseFn({ROOT: 1, NodeAddress("01"): v}, mode)
            assert str(info.value) == f"negative value {text} at 01"

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_zeros_dropped(self, mode):
        zeros = (0, 0.0, -0.0, Fraction(0))
        f = SparseFn({NodeAddress("0" * i): z for i, z in enumerate(zeros)}, mode)
        assert len(f) == 0 and not f

    def test_exact_coercion_of_int_and_float(self):
        f = SparseFn({ROOT: 3, NodeAddress("0"): 0.1, NodeAddress("1"): Fraction(1, 3)})
        assert [(type(v), v) for _, v in items(f)] == [
            (Fraction, Fraction(3)), (Fraction, Fraction(0.1)), (Fraction, Fraction(1, 3))]
        assert get(f, NodeAddress("0")) != Fraction(1, 10)  # the binary value, not 1/10

    def test_float_coercion(self):
        f = SparseFn({ROOT: 3, NodeAddress("1"): Fraction(1, 3)}, FLOAT)
        assert [(type(v), v) for _, v in items(f)] == [(float, 3.0), (float, 1 / 3)]

    def test_nan_kept_in_float_mode_only(self):
        f = SparseFn({ROOT: math.nan}, FLOAT)
        assert len(f) == 1 and math.isnan(get(f, ROOT))
        with pytest.raises(ValueError):
            SparseFn({ROOT: math.nan})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SparseFn({ROOT: -1})
        with pytest.raises(ValueError):
            SparseFn({ROOT: Fraction(-1, 2)})

    def test_domain_kind_enforced(self):
        with pytest.raises(DomainError):
            SparseFn({BIROOT: 1})

    def test_mul(self):
        f = SparseFn({ROOT: Fraction(1, 2), NodeAddress("0"): Fraction(3)})
        g = SparseFn({ROOT: Fraction(4), NodeAddress("1"): Fraction(1)})
        fg = f.mul(g)
        assert get(fg, ROOT) == 2
        assert len(fg) == 1

    def test_power_modes(self):
        f = SparseFn({ROOT: Fraction(1, 2)})
        assert get(power(f, 2), ROOT) == Fraction(1, 4)
        assert power(f, 2).mode == EXACT
        h = power(f, 1.5)
        assert h.mode == FLOAT
        assert get(h, ROOT) == pytest.approx(0.5 ** 1.5)

    def test_to_float(self):
        f = SparseFn({ROOT: Fraction(1, 3)}).to_float()
        assert f.mode == FLOAT
        assert get(f, ROOT) == pytest.approx(1 / 3)


class TestValueForm:
    def test_exact_numerators_over_the_lcm(self):
        f = SparseFn({NodeAddress("01"): Fraction(1, 6), ROOT: Fraction(3, 4),
                      NodeAddress("1"): Fraction(2, 5), NodeAddress("0"): 7})
        assert f.den == 60
        assert list(f.values.items()) == [("01", 10), ("", 45), ("1", 24), ("0", 420)]
        assert all(type(v) is int for v in f.values.values())

    def test_float_values_over_one(self):
        f = SparseFn({NodeAddress("1"): 0.1, ROOT: 2.5}, FLOAT)
        assert (f.values, f.den) == ({"1": 0.1, "": 2.5}, 1)
        assert (SparseFn({}).values, SparseFn({}).den) == ({}, 1)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_private_constructor(self, mode):
        # numerators over any common denominator; float mode rounds each once
        f = SparseFn._of({"1": 3, "": 10}, 12, mode)
        assert f.mode == mode and len(f) == 2
        if mode == EXACT:
            assert (f.values, f.den) == ({"1": 3, "": 10}, 12)
            assert items(f) == [(NodeAddress("1"), Fraction(1, 4)), (ROOT, Fraction(5, 6))]
        else:
            assert (f.values, f.den) == ({"1": 0.25, "": 10 / 12}, 1)
        with pytest.raises(ValueError, match="unknown scalar mode"):
            SparseFn._of({}, 1, "decimal")

    def test_to_float_rounds_each_value_once(self):
        f = SparseFn({ROOT: Fraction(1, 3), NodeAddress("0"): Fraction(2, 7)}).to_float()
        assert f.values == {"": float(Fraction(1, 3)), "0": float(Fraction(2, 7))}
