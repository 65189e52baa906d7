import math
from fractions import Fraction

import pytest

from cxlab.trees import (
    BIROOT,
    BiNode,
    BiTreeDomain,
    DomainError,
    ENUM_LEVELS,
    EXACT,
    FLOAT,
    NodeAddress,
    ResourceError,
    ROOT,
    SparseFn,
    TreeDomain,
    binode,
    format_node,
    lcp_len,
    parse_node,
)

from helpers import tree_nodes_bfs


class TestNodeAddress:
    def test_path_validation(self):
        with pytest.raises(ValueError):
            NodeAddress("012")

    def test_parent_child(self):
        n = NodeAddress("011")
        assert n.parent() == NodeAddress("01")
        assert n.child(0) == NodeAddress("0110")
        assert n.child(1) == NodeAddress("0111")
        with pytest.raises(DomainError):
            ROOT.parent()

    def test_ancestors_root_first(self):
        n = NodeAddress("10")
        assert [a.path for a in n.ancestors()] == ["", "1", "10"]

    def test_order_is_containment(self):
        # deeper nodes are smaller
        assert NodeAddress("010") <= NodeAddress("01")
        assert NodeAddress("01") <= ROOT
        assert not NodeAddress("01") <= NodeAddress("010")
        assert not NodeAddress("00") <= NodeAddress("01")


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
        common = [q for q in a.ancestors() if q.contains(b)]
        assert lcp_len(a.path, b.path) == max(q.depth for q in common) == 3


class TestBiNode:
    def test_order_is_rectangle_containment(self):
        small = binode("010", "11")
        big = binode("01", "1")
        assert small <= big
        assert big.contains(small)
        assert not big <= small
        assert small <= BIROOT
        # containment must hold in both coordinates
        assert not binode("010", "0") <= big

    def test_literals_roundtrip(self):
        assert format_node(binode("0110", "01")) == "x=0110/y=01"
        assert parse_node("x=0110/y=01") == binode("0110", "01")
        assert parse_node("0110") == NodeAddress("0110")
        assert format_node(parse_node("x=/y=")) == "x=/y="
        with pytest.raises(ValueError):
            parse_node("x=01/z=1")


class TestTreeDomain:
    def test_counts(self):
        d = TreeDomain(4)
        assert d.node_count == 15
        assert d.max_depth == 3
        assert len(list(d.nodes())) == 15
        assert len(list(d.leaves())) == 8

    def test_children_and_membership(self):
        d = TreeDomain(3)
        assert d.children(NodeAddress("0")) == [NodeAddress("00"), NodeAddress("01")]
        assert d.children(NodeAddress("01")) == []
        with pytest.raises(DomainError):
            d.children(NodeAddress("010"))
        assert NodeAddress("01") in d
        assert NodeAddress("011") not in d

    @pytest.mark.parametrize("levels", range(1, 14))
    def test_nodes_breadth_first(self, levels):
        # 1..12 levels read a shared tuple, 13 the generator; both twice
        d = TreeDomain(levels)
        want = tree_nodes_bfs(levels)
        assert list(d.nodes()) == want
        assert list(d.nodes()) == want

    def test_heap_index_is_bfs_position(self):
        for levels in range(1, ENUM_LEVELS + 1):
            d = TreeDomain(levels)
            for i, a in enumerate(d.nodes()):
                assert d.heap_index(a) == i + 1

    def test_heap_index_outside_domain(self):
        d = TreeDomain(3)
        assert d.heap_index(NodeAddress("11")) == 7
        with pytest.raises(DomainError):
            d.heap_index(NodeAddress("000"))

    def test_enumeration_budget(self):
        with pytest.raises(ResourceError):
            TreeDomain(21).nodes()  # on the call, before any node is read

    def test_bitree_enumeration(self):
        bd = BiTreeDomain(2, 3)
        assert len(list(bd.nodes())) == 3 * 7
        assert binode("0", "01") in bd
        assert binode("00", "0") not in bd


class TestSparseFn:
    def test_exact_coercion_and_zero_drop(self):
        f = SparseFn.tree({ROOT: Fraction(1, 2), NodeAddress("0"): 0,
                           NodeAddress("1"): Fraction(0)})
        assert len(f) == 1
        assert f(ROOT) == Fraction(1, 2)
        assert f(NodeAddress("1")) == 0
        assert isinstance(f.get(NodeAddress("1")), Fraction)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_non_tree_keys_rejected(self, mode):
        for key in (BIROOT, "01"):
            with pytest.raises(DomainError, match=f"{type(key).__name__} is not a tree node"):
                SparseFn.tree({key: 1}, mode)

    @pytest.mark.parametrize("mode,text", [(EXACT, "-1/2"), (FLOAT, "-0.5")])
    def test_negative_message(self, mode, text):
        for v in (Fraction(-1, 2), -0.5):
            with pytest.raises(ValueError) as info:
                SparseFn.tree({ROOT: 1, NodeAddress("01"): v}, mode)
            assert str(info.value) == f"negative value {text} at 01"

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_zeros_dropped(self, mode):
        zeros = (0, 0.0, -0.0, Fraction(0))
        f = SparseFn.tree({NodeAddress("0" * i): z for i, z in enumerate(zeros)}, mode)
        assert len(f) == 0 and not f

    def test_exact_coercion_of_int_and_float(self):
        f = SparseFn.tree({ROOT: 3, NodeAddress("0"): 0.1, NodeAddress("1"): Fraction(1, 3)})
        assert [(type(v), v) for _, v in f.items()] == [
            (Fraction, Fraction(3)), (Fraction, Fraction(0.1)), (Fraction, Fraction(1, 3))]
        assert f.get(NodeAddress("0")) != Fraction(1, 10)  # the binary value, not 1/10

    def test_float_coercion(self):
        f = SparseFn.tree({ROOT: 3, NodeAddress("1"): Fraction(1, 3)}, FLOAT)
        assert [(type(v), v) for _, v in f.items()] == [(float, 3.0), (float, 1 / 3)]

    def test_nan_kept_in_float_mode_only(self):
        f = SparseFn.tree({ROOT: math.nan}, FLOAT)
        assert len(f) == 1 and math.isnan(f.get(ROOT))
        with pytest.raises(ValueError):
            SparseFn.tree({ROOT: math.nan})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SparseFn.tree({ROOT: -1})
        with pytest.raises(ValueError):
            SparseFn.tree({ROOT: Fraction(-1, 2)})

    def test_domain_kind_enforced(self):
        with pytest.raises(DomainError):
            SparseFn.tree({BIROOT: 1})
        with pytest.raises(DomainError):
            SparseFn.bitree({ROOT: 1})

    def test_mul_scale_total(self):
        f = SparseFn.tree({ROOT: Fraction(1, 2), NodeAddress("0"): Fraction(3)})
        g = SparseFn.tree({ROOT: Fraction(4), NodeAddress("1"): Fraction(1)})
        fg = f.mul(g)
        assert fg.get(ROOT) == 2
        assert len(fg) == 1
        assert f.scale(Fraction(2)).total() == 7
        assert f.total() == Fraction(7, 2)

    def test_power_modes(self):
        f = SparseFn.tree({ROOT: Fraction(1, 2)})
        assert f.power(2).get(ROOT) == Fraction(1, 4)
        assert f.power(2).mode == EXACT
        h = f.power(1.5)
        assert h.mode == FLOAT
        assert h.get(ROOT) == pytest.approx(0.5 ** 1.5)

    def test_to_float(self):
        f = SparseFn.tree({ROOT: Fraction(1, 3)}).to_float()
        assert f.mode == FLOAT
        assert f.get(ROOT) == pytest.approx(1 / 3)
