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
    heap_node,
    lcp_len,
    _path_values,
)

from helpers import ancestors, binode, bitree_nodes, contains, tree_nodes_bfs

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

    def test_hash_is_the_path_hash(self):
        paths = ("", "0", "1", "01", "0110" * 20)
        for p in paths:
            assert hash(NodeAddress(p)) == hash(p)
        # an equal hash does not make a node equal to its path
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
        assert lcp_len(a.path, b.path) == max(q.depth for q in common) == 3


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
        assert NodeAddress("01") in d
        assert NodeAddress("011") not in d

    @pytest.mark.parametrize("levels", range(1, 14))
    def test_heap_order_is_breadth_first(self, levels):
        # heap position k + 1 holds the k-th node in breadth-first order
        d = TreeDomain(levels)
        nodes = tree_nodes_bfs(levels)
        assert [heap_node(k) for k in range(1, 1 << levels)] == nodes
        for i, a in enumerate(nodes):
            assert d.heap_index(a) == i + 1

    def test_heap_index_outside_domain(self):
        d = TreeDomain(3)
        assert d.heap_index(NodeAddress("11")) == 7
        with pytest.raises(DomainError):
            d.heap_index(NodeAddress("000"))

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
        assert f.get(ROOT) == Fraction(1, 2)
        assert f.get(NodeAddress("1")) == 0
        assert isinstance(f.get(NodeAddress("1")), Fraction)

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
        assert [(type(v), v) for _, v in f.items()] == [
            (Fraction, Fraction(3)), (Fraction, Fraction(0.1)), (Fraction, Fraction(1, 3))]
        assert f.get(NodeAddress("0")) != Fraction(1, 10)  # the binary value, not 1/10

    def test_float_coercion(self):
        f = SparseFn({ROOT: 3, NodeAddress("1"): Fraction(1, 3)}, FLOAT)
        assert [(type(v), v) for _, v in f.items()] == [(float, 3.0), (float, 1 / 3)]

    def test_nan_kept_in_float_mode_only(self):
        f = SparseFn({ROOT: math.nan}, FLOAT)
        assert len(f) == 1 and math.isnan(f.get(ROOT))
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
        assert fg.get(ROOT) == 2
        assert len(fg) == 1

    def test_power_modes(self):
        f = SparseFn({ROOT: Fraction(1, 2)})
        assert f.power(2).get(ROOT) == Fraction(1, 4)
        assert f.power(2).mode == EXACT
        h = f.power(1.5)
        assert h.mode == FLOAT
        assert h.get(ROOT) == pytest.approx(0.5 ** 1.5)

    def test_to_float(self):
        f = SparseFn({ROOT: Fraction(1, 3)}).to_float()
        assert f.mode == FLOAT
        assert f.get(ROOT) == pytest.approx(1 / 3)


class TestPathValues:
    def test_exact_numerators_over_the_lcm(self):
        f = SparseFn({NodeAddress("01"): Fraction(1, 6), ROOT: Fraction(3, 4),
                      NodeAddress("1"): Fraction(2, 5), NodeAddress("0"): 7})
        values, den = _path_values(f)
        assert den == 60
        assert list(values.items()) == [("01", 10), ("", 45), ("1", 24), ("0", 420)]
        assert all(type(v) is int for v in values.values())

    def test_float_values_over_one(self):
        f = SparseFn({NodeAddress("1"): 0.1, ROOT: 2.5}, FLOAT)
        assert _path_values(f) == ({"1": 0.1, "": 2.5}, 1)
        assert _path_values(SparseFn({})) == ({}, 1)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_computed_once_per_function(self, mode, monkeypatch):
        # filled at the first call and handed out again, never recomputed
        f = SparseFn({NodeAddress("1"): Fraction(1, 3), ROOT: Fraction(1, 2)}, mode)
        first = _path_values(f)
        monkeypatch.setattr(SparseFn, "items", lambda self: pytest.fail("recomputed"))
        assert _path_values(f) is first
