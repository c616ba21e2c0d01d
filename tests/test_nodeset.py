"""Tests for repro.core.nodeset."""

import numpy as np
import pytest

from repro.core.element import Element
from repro.core.errors import EmptyNodeSetError, InvalidRegionCodeError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.datasets.workloads import ALL_WORKLOADS


def elements(*codes, tag="x"):
    return [Element(tag, s, e) for s, e in codes]


class TestConstruction:
    def test_sorted_by_start(self):
        ns = NodeSet(elements((10, 11), (1, 2), (5, 6)))
        assert [e.start for e in ns] == [1, 5, 10]

    def test_duplicate_code_rejected(self):
        with pytest.raises(InvalidRegionCodeError):
            NodeSet(elements((1, 4), (4, 6)))

    def test_duplicate_start_rejected(self):
        with pytest.raises(InvalidRegionCodeError):
            NodeSet(elements((1, 4), (1, 6)))

    def test_partial_overlap_rejected(self):
        with pytest.raises(InvalidRegionCodeError):
            NodeSet(elements((1, 5), (3, 8)))

    def test_partial_overlap_deep(self):
        # (2,9) nests in (1,10); (8,12) partially overlaps (1,10).
        with pytest.raises(InvalidRegionCodeError):
            NodeSet(elements((1, 10), (2, 9), (8, 12)))

    def test_nested_accepted(self):
        ns = NodeSet(elements((1, 10), (2, 5), (3, 4), (6, 9)))
        assert len(ns) == 4

    def test_validate_skipped_on_request(self):
        ns = NodeSet(elements((1, 5), (3, 8)), validate=False)
        assert len(ns) == 2

    def test_name(self):
        assert NodeSet([], name="item").name == "item"
        assert NodeSet([]).name == "<anonymous>"

    def test_container_protocol(self):
        ns = NodeSet(elements((1, 2), (3, 4)))
        assert len(ns) == 2
        assert bool(ns)
        assert not bool(NodeSet([]))
        assert ns[0].start == 1
        assert list(iter(ns)) == list(ns.elements)

    def test_equality_and_hash(self):
        a = NodeSet(elements((1, 2), (3, 4)))
        b = NodeSet(elements((3, 4), (1, 2)))
        assert a == b
        assert hash(a) == hash(b)
        assert a != NodeSet(elements((1, 2)))


class TestVectors:
    def test_starts_ends_lengths(self):
        ns = NodeSet(elements((1, 8), (2, 5)))
        assert ns.starts.tolist() == [1, 2]
        assert ns.ends.tolist() == [8, 5]
        assert ns.sorted_ends.tolist() == [5, 8]
        assert ns.lengths.tolist() == [7, 3]

    def test_workspace(self):
        ns = NodeSet(elements((3, 20), (5, 6)))
        assert ns.workspace() == Workspace(3, 20)

    def test_workspace_empty_raises(self):
        with pytest.raises(EmptyNodeSetError):
            NodeSet([]).workspace()


class TestOverlapStatistics:
    def test_no_overlap(self):
        ns = NodeSet(elements((1, 2), (3, 4), (5, 6)))
        assert not ns.has_overlap
        assert ns.max_nesting_depth == 1

    def test_nested_overlap(self):
        ns = NodeSet(elements((1, 10), (2, 5), (6, 9)))
        assert ns.has_overlap
        assert ns.max_nesting_depth == 2

    def test_deep_nesting_depth(self):
        ns = NodeSet(elements((1, 10), (2, 9), (3, 8), (4, 7)))
        assert ns.max_nesting_depth == 4

    def test_empty_and_singleton(self):
        assert not NodeSet([]).has_overlap
        assert NodeSet([]).max_nesting_depth == 0
        single = NodeSet(elements((1, 2)))
        assert not single.has_overlap
        assert single.max_nesting_depth == 1

    def test_lengths_statistics(self):
        ns = NodeSet(elements((1, 4), (5, 10)))
        assert ns.total_length == 8
        assert ns.average_length == pytest.approx(4.0)
        assert NodeSet([]).average_length == 0.0

    def test_covered_length_merges_nested(self):
        ns = NodeSet(elements((1, 10), (2, 5)))
        assert ns.covered_length() == 9

    def test_covered_length_disjoint(self):
        ns = NodeSet(elements((1, 4), (6, 8)))
        assert ns.covered_length() == 5

    def test_covered_length_empty(self):
        assert NodeSet([]).covered_length() == 0


class TestQueries:
    def test_stab_count(self):
        ns = NodeSet(elements((1, 10), (2, 5), (7, 9)))
        assert ns.stab_count(0) == 0
        assert ns.stab_count(1) == 1
        assert ns.stab_count(3) == 2
        assert ns.stab_count(6) == 1
        assert ns.stab_count(8) == 2
        assert ns.stab_count(10) == 1
        assert ns.stab_count(11) == 0

    def test_stab_counts_vectorized_matches_scalar(self):
        ns = NodeSet(elements((1, 10), (2, 5), (7, 9)))
        positions = np.arange(0, 12)
        vector = ns.stab_counts(positions)
        assert vector.tolist() == [ns.stab_count(int(p)) for p in positions]

    def test_count_starts_in(self):
        ns = NodeSet(elements((1, 2), (5, 6), (9, 10)))
        assert ns.count_starts_in(1, 6) == 2  # half-open: 1, 5
        assert ns.count_starts_in(2, 5) == 0
        assert ns.count_starts_in(0, 100) == 3

    def test_has_start_at(self):
        ns = NodeSet(elements((1, 2), (5, 6)))
        assert ns.has_start_at(5)
        assert not ns.has_start_at(2)
        assert not ns.has_start_at(4)
        assert not NodeSet([]).has_start_at(1)

    def test_restrict(self):
        ns = NodeSet(elements((1, 2), (5, 6), (9, 10)))
        inside = ns.restrict(Workspace(4, 8))
        assert [e.start for e in inside] == [5]

    def test_sample_without_replacement(self):
        ns = NodeSet(elements((1, 2), (3, 4), (5, 6), (7, 8)))
        rng = np.random.default_rng(0)
        picked = ns.sample(3, rng)
        assert len(picked) == 3
        assert len({e.start for e in picked}) == 3

    def test_sample_too_many_raises(self):
        ns = NodeSet(elements((1, 2)))
        with pytest.raises(EmptyNodeSetError):
            ns.sample(2, np.random.default_rng(0))

    def test_merge(self):
        a = NodeSet(elements((1, 2)), name="a")
        b = NodeSet(elements((3, 4)), name="b")
        merged = NodeSet.merge([a, b], name="ab")
        assert len(merged) == 2
        assert merged.name == "ab"


def _mean_length(node_set):
    """The reference: numpy's mean of the materialized lengths."""
    return float(node_set.lengths.mean()) if len(node_set) else 0.0


class TestAverageLength:
    """``average_length`` from two code sums is bit-identical to
    ``float(lengths.mean())``."""

    def test_table3_operands(self, xmark_small, dblp_small, xmach_small):
        datasets = {
            "xmark": xmark_small,
            "dblp": dblp_small,
            "xmach": xmach_small,
        }
        checked = 0
        for name, queries in ALL_WORKLOADS.items():
            for query in queries:
                for operand in query.operands(datasets[name]):
                    # A fresh array-backed set: nothing cached yet.
                    fresh = NodeSet.from_arrays(operand.starts, operand.ends)
                    assert fresh.average_length == _mean_length(operand)
                    checked += 1
        assert checked == 48

    def test_seeded_random_sets(self):
        rng = np.random.default_rng(20030609)
        for trial in range(2000):
            size = int(rng.integers(1, 300))
            starts = np.sort(
                rng.choice(10**9, size=size, replace=False)
            ).astype(np.int64)
            # Lengths from 1 up to 2**50, so some sums reach 2**53.
            scale = 2 ** int(rng.integers(1, 51))
            ends = starts + rng.integers(1, scale + 1, size=size)
            node_set = NodeSet.from_arrays(starts, ends)
            assert node_set.average_length == _mean_length(node_set), trial

    def test_empty_set(self):
        assert NodeSet([]).average_length == 0.0
        empty = np.empty(0, dtype=np.int64)
        assert NodeSet.from_arrays(empty, empty).average_length == 0.0

    def test_sum_beyond_2_53_falls_back(self):
        # Length sum 2**53 + 2: numpy's float sum rounds 2**53 + 1 down
        # to 2**53, so its mean (2**52) differs from the exact 2**52 + 1.
        node_set = NodeSet.from_arrays(
            np.array([0, 10]), np.array([2**53 + 1, 11])
        )
        exact = (2**53 + 2) / 2
        assert node_set.average_length == _mean_length(node_set) == 2.0**52
        assert node_set.average_length != exact
