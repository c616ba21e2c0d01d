"""Property-based tests (hypothesis) for the core invariants.

Random region-coded trees are generated from random parent arrays, which
cover arbitrary shapes: chains, stars, bushy trees, recursive tag nesting.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.bifocal import BifocalEstimator
from repro.estimators.im_sampling import IMSamplingEstimator
from repro.estimators.pl_histogram import PLHistogramEstimator
from repro.index.bplus import BPlusTree
from repro.index.ttree import TTree
from repro.index.xrtree import XRTree
from repro.join import (
    containment_join_size,
    merge_join,
    nested_loop_join,
    stack_tree_join,
)
from repro.models import (
    covering_table,
    inner_product_size,
    point_view,
    stabbing_pairs_count,
    start_table,
    turning_points,
)
from repro.xmltree import parse_xml, to_xml
from repro.xmltree.tree import DataTree, TreeBuilder

TAGS = ("a", "b", "c")


@st.composite
def random_trees(draw, max_size=60):
    """A random DataTree built from a random parent array."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    parents = [-1] + [
        draw(st.integers(min_value=0, max_value=i - 1))
        for i in range(1, size)
    ]
    tags = [draw(st.sampled_from(TAGS)) for __ in range(size)]
    children: list[list[int]] = [[] for __ in range(size)]
    for child, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(child)
    builder = TreeBuilder()

    def emit(node: int) -> None:
        with builder.element(tags[node]):
            for child in children[node]:
                emit(child)

    emit(0)
    return builder.finish()


def brute_join_size(a: NodeSet, d: NodeSet) -> int:
    return sum(
        1 for x in a for y in d if x.start < y.start < x.end
    )


class TestRegionCodeInvariants:
    @given(random_trees())
    @settings(max_examples=60, deadline=None)
    def test_codes_distinct_and_nested(self, tree: DataTree):
        codes: set[int] = set()
        for element in tree.elements:
            assert element.start < element.end
            assert element.start not in codes
            assert element.end not in codes
            codes.update((element.start, element.end))
        # Strict nesting across the whole tree.
        elements = sorted(tree.elements, key=lambda e: e.start)
        open_ends: list[int] = []
        for element in elements:
            while open_ends and open_ends[-1] < element.start:
                open_ends.pop()
            if open_ends:
                assert element.end < open_ends[-1]
            open_ends.append(element.end)

    @given(random_trees())
    @settings(max_examples=60, deadline=None)
    def test_parent_encloses_child(self, tree: DataTree):
        for index in range(tree.size):
            parent = tree.parent_index(index)
            if parent >= 0:
                assert tree.element(parent).region.contains(
                    tree.element(index).region
                )

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_node_set_validation_accepts_generated_sets(self, tree):
        for tag in TAGS:
            NodeSet(tree.node_set(tag).elements, validate=True)


class TestJoinEquivalences:
    @given(random_trees())
    @settings(max_examples=60, deadline=None)
    def test_all_join_algorithms_agree(self, tree: DataTree):
        a = tree.node_set("a")
        d = tree.node_set("b")
        expected = brute_join_size(a, d)
        assert containment_join_size(a, d) == expected
        assert len(nested_loop_join(a, d)) == expected
        assert len(merge_join(a, d)) == expected
        assert len(stack_tree_join(a, d)) == expected

    @given(random_trees())
    @settings(max_examples=60, deadline=None)
    def test_theorem1(self, tree: DataTree):
        """Interval model: join size == stabbing (interval, point) pairs."""
        a = tree.node_set("a")
        d = tree.node_set("b")
        assert stabbing_pairs_count(a, point_view(d)) == brute_join_size(a, d)

    @given(random_trees())
    @settings(max_examples=60, deadline=None)
    def test_theorem2(self, tree: DataTree):
        """Position model: join size == inner product of PMA and PMD."""
        a = tree.node_set("a")
        d = tree.node_set("b")
        workspace = tree.workspace()
        assert inner_product_size(
            covering_table(a, workspace), start_table(d, workspace)
        ) == brute_join_size(a, d)

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_descendant_join_bounded_by_height(self, tree: DataTree):
        """Feature 3(b) of Section 3.1: each d joins <= H ancestors."""
        a = tree.node_set("a")
        height = tree.height
        for d in tree.node_set("b"):
            assert a.stab_count(d.start) <= height


class TestIndexEquivalences:
    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_stab_backends_agree(self, tree: DataTree):
        a = tree.node_set("a")
        ttree = TTree(a)
        xrtree = XRTree(a, page_size=3)
        xrtree.validate()
        workspace = tree.workspace()
        for position in range(workspace.lo - 1, workspace.hi + 2):
            expected = sum(
                1 for e in a if e.start <= position <= e.end
            )
            assert a.stab_count(position) == expected
            assert ttree.count(position) == expected
            assert xrtree.stab_count(position) == expected

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_turning_points_reconstruct_pma(self, tree: DataTree):
        a = tree.node_set("a")
        workspace = tree.workspace()
        dense = covering_table(a, workspace)
        sparse = dict(turning_points(a))
        value = 0
        for offset, position in enumerate(workspace.positions()):
            value = sparse.get(position, value)
            assert value == dense[offset]


class TestBPlusTreeModel:
    @given(
        st.lists(
            st.integers(min_value=-10**6, max_value=10**6),
            min_size=0,
            max_size=200,
        ),
        st.integers(min_value=3, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_dict_model(self, keys, order):
        tree = BPlusTree(order=order)
        model: dict[int, int] = {}
        for i, key in enumerate(keys):
            tree.insert(key, i)
            model[key] = i
        tree.validate()
        assert len(tree) == len(model)
        assert list(tree.items()) == sorted(model.items())
        for probe in keys[:20]:
            assert tree.get(probe) == model[probe]
        sorted_keys = sorted(model)
        for probe in list(model)[:20]:
            expected_floor = max(
                (k for k in sorted_keys if k <= probe + 1), default=None
            )
            got = tree.floor_entry(probe + 1)
            if expected_floor is None:
                assert got is None
            else:
                assert got == (expected_floor, model[expected_floor])

    @given(
        st.sets(
            st.integers(min_value=0, max_value=10**5),
            min_size=1,
            max_size=150,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_bulk_load_equals_insertion(self, key_set):
        items = [(k, -k) for k in sorted(key_set)]
        bulk = BPlusTree.bulk_load(items, order=8)
        incremental = BPlusTree(order=8)
        for key, value in items:
            incremental.insert(key, value)
        bulk.validate()
        incremental.validate()
        assert list(bulk.items()) == list(incremental.items())


class TestEstimatorSanity:
    @given(random_trees(), st.integers(min_value=1, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_im_full_sample_exact(self, tree: DataTree, extra):
        """IM-DA-Est with m >= |D| must return the exact size."""
        a = tree.node_set("a")
        d = tree.node_set("b")
        if len(a) == 0 or len(d) == 0:
            return
        estimator = IMSamplingEstimator(num_samples=len(d) + extra, seed=0)
        assert estimator.estimate(a, d, tree.workspace()).value == (
            brute_join_size(a, d)
        )

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_bifocal_threshold_one_exact(self, tree: DataTree):
        """With τ=1 the bifocal dense part covers everything: exact."""
        a = tree.node_set("a")
        d = tree.node_set("b")
        if len(a) == 0 or len(d) == 0:
            return
        estimator = BifocalEstimator(num_samples=1, seed=0, threshold=1)
        assert estimator.estimate(a, d, tree.workspace()).value == (
            brute_join_size(a, d)
        )

    @given(random_trees(), st.integers(min_value=1, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_pl_estimate_non_negative_finite(self, tree: DataTree, buckets):
        a = tree.node_set("a")
        d = tree.node_set("b")
        estimate = PLHistogramEstimator(num_buckets=buckets).estimate(
            a, d, tree.workspace()
        )
        assert estimate.value >= 0.0
        assert np.isfinite(estimate.value)

    @given(random_trees())
    @settings(max_examples=30, deadline=None)
    def test_pl_single_bucket_closed_form(self, tree: DataTree):
        """One bucket: estimate == l̄/w · n(A) · n(D) exactly."""
        a = tree.node_set("a")
        d = tree.node_set("b")
        if len(a) == 0 or len(d) == 0:
            return
        workspace = tree.workspace()
        estimate = PLHistogramEstimator(num_buckets=1).estimate(
            a, d, workspace
        )
        expected = a.average_length / workspace.width * len(a) * len(d)
        assert abs(estimate.value - expected) < 1e-9 * max(1.0, expected)


class TestRoundTrips:
    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_xml_serialization_round_trip(self, tree: DataTree):
        reparsed = parse_xml(to_xml(tree))
        assert [
            (e.tag, e.start, e.end, e.level) for e in reparsed.elements
        ] == [(e.tag, e.start, e.end, e.level) for e in tree.elements]

    @given(random_trees())
    @settings(max_examples=40, deadline=None)
    def test_workspace_bucketing_covers_all_starts(self, tree: DataTree):
        workspace = tree.workspace()
        for count in (1, 2, 7):
            buckets = workspace.buckets(count)
            for element in tree.elements:
                index = workspace.bucket_of(element.start, count)
                assert buckets[index].wss <= element.start < (
                    buckets[index].wse + 1e-9
                )
