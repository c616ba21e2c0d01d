"""Tests for repro.index: T-tree, XR-tree and the stabbing-count oracle."""

import numpy as np
import pytest

from repro.core.element import Element
from repro.core.errors import ReproError
from repro.core.nodeset import NodeSet
from repro.index import TTree, XRTree


def brute_force_stab(node_set, position):
    return sum(1 for e in node_set if e.start <= position <= e.end)


@pytest.fixture(scope="module")
def parlists(xmark_module):
    return xmark_module.node_set("parlist")


@pytest.fixture(scope="module")
def xmark_module():
    from repro.datasets import generate_xmark

    return generate_xmark(scale=0.05, seed=101)


class TestStabbingCounter:
    """The rank identity :meth:`NodeSet.stab_count`, the oracle every
    stabbing structure is validated against."""

    def test_figure1(self, figure1_tree):
        a, __ = figure1_tree
        assert a.stab_count(6) == 2
        assert a.stab_count(19) == 2
        assert a.stab_count(10) == 1
        assert a.stab_count(0) == 0
        assert a.stab_count(23) == 0

    def test_matches_brute_force(self, parlists):
        workspace = parlists.workspace()
        rng = np.random.default_rng(0)
        positions = rng.integers(workspace.lo - 5, workspace.hi + 5, size=300)
        for position in positions:
            assert parlists.stab_count(int(position)) == brute_force_stab(
                parlists, int(position)
            )

    def test_count_many_matches_scalar(self, parlists):
        positions = np.arange(
            parlists.workspace().lo, parlists.workspace().lo + 200
        )
        vector = parlists.stab_counts(positions)
        assert vector.tolist() == [
            parlists.stab_count(int(p)) for p in positions
        ]


class TestTTree:
    def test_figure4_probe(self, figure1_tree):
        """Query point 6 returns PMA value 2, as in Figure 4."""
        a, __ = figure1_tree
        assert TTree(a).count(6) == 2

    def test_matches_oracle(self, parlists):
        ttree = TTree(parlists)
        workspace = parlists.workspace()
        rng = np.random.default_rng(1)
        for position in rng.integers(
            workspace.lo - 3, workspace.hi + 3, size=300
        ):
            assert ttree.count(int(position)) == parlists.stab_count(
                int(position)
            )

    def test_turning_point_count_linear(self, parlists):
        ttree = TTree(parlists)
        assert ttree.turning_point_count <= 2 * len(parlists)

    def test_before_first_key(self, figure1_tree):
        a, __ = figure1_tree
        assert TTree(a).count(0) == 0

    def test_after_all_closed(self, figure1_tree):
        a, __ = figure1_tree
        assert TTree(a).count(23) == 0
        assert TTree(a).count(1000) == 0

    def test_empty_set(self):
        ttree = TTree(NodeSet([]))
        assert ttree.count(5) == 0
        assert ttree.turning_point_count == 0

    def test_underlying_bplus_is_valid(self, parlists):
        TTree(parlists).bplus.validate()


class TestXRTree:
    def test_figure1_stab(self, figure1_tree):
        a, __ = figure1_tree
        xrtree = XRTree(a, page_size=2)
        xrtree.validate()
        assert sorted(e.start for e in xrtree.stab(19)) == [1, 18]
        assert xrtree.stab_count(6) == 2
        assert xrtree.stab_count(0) == 0
        assert xrtree.stab_count(30) == 0

    @pytest.mark.parametrize("page_size", [2, 3, 8, 32])
    def test_matches_brute_force(self, parlists, page_size):
        xrtree = XRTree(parlists, page_size=page_size)
        xrtree.validate()
        workspace = parlists.workspace()
        rng = np.random.default_rng(page_size)
        for position in rng.integers(workspace.lo, workspace.hi, size=150):
            expected = brute_force_stab(parlists, int(position))
            assert xrtree.stab_count(int(position)) == expected

    def test_stab_returns_actual_elements(self, parlists):
        xrtree = XRTree(parlists, page_size=4)
        probe = parlists[len(parlists) // 2].start + 1
        found = {(e.start, e.end) for e in xrtree.stab(probe)}
        expected = {
            (e.start, e.end)
            for e in parlists
            if e.start <= probe <= e.end
        }
        assert found == expected

    def test_empty(self):
        xrtree = XRTree(NodeSet([]))
        xrtree.validate()
        assert xrtree.stab(10) == []
        assert len(xrtree) == 0
        assert xrtree.height == 0

    def test_height_grows_logarithmically(self, parlists):
        small_pages = XRTree(parlists, page_size=2)
        big_pages = XRTree(parlists, page_size=64)
        assert small_pages.height > big_pages.height

    def test_stab_list_sizes_accounting(self, parlists):
        xrtree = XRTree(parlists, page_size=4)
        flagged = sum(xrtree.stab_list_sizes())
        # Total elements = leaf-resident + stab-listed; validate() already
        # checks the flags, here we check the count is sane.
        assert 0 <= flagged <= len(parlists)

    def test_invalid_page_size(self, figure1_tree):
        a, __ = figure1_tree
        with pytest.raises(ReproError):
            XRTree(a, page_size=1)

    def test_deeply_nested_intervals(self):
        nested = NodeSet(
            [Element("a", i, 200 - i) for i in range(1, 60)]
        )
        xrtree = XRTree(nested, page_size=4)
        xrtree.validate()
        assert xrtree.stab_count(100) == 59
        assert xrtree.stab_count(1) == 1
        assert xrtree.stab_count(58) == 58
