"""Vectorized kernels must equal the retained ``*_reference`` loops.

Every comparison here is *bit for bit*: integer tables with
``np.array_equal``, float statistics with ``==``.  The vectorized paths
are built to accumulate floats in the reference order (``np.add.at``
applies updates sequentially), so exact equality is the contract, not an
approximation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.element import Element
from repro.core.nodeset import NodeSet
from repro.core.workspace import Bucket, Workspace
from repro.estimators.base import Estimate
from repro.estimators.coverage_histogram import (
    CoverageHistogramEstimator,
    bucket_coverage,
    bucket_coverage_reference,
    merged_intervals,
    merged_intervals_reference,
)
from repro.estimators.ph_histogram import (
    PHHistogramEstimator,
    cell_histogram,
    cell_histogram_reference,
)
from repro.estimators.mre import cov_value, maximum_relative_error
from repro.estimators.pl_histogram import (
    PLBucket,
    PLHistogram,
    PLHistogramEstimator,
    equi_depth_edges,
)
from repro.models.position import (
    covering_table,
    covering_table_reference,
    start_table,
    start_table_reference,
    turning_points,
    turning_points_reference,
)
from repro.xmltree.tree import TreeBuilder

TAGS = ("a", "b", "c")


@st.composite
def random_node_sets(draw, max_size=50):
    """A strictly nested node set from a random parent array."""
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
    tree = builder.finish()
    tag = draw(st.sampled_from(TAGS))
    return NodeSet(
        [e for e in tree.elements if e.tag == tag], name=tag, validate=False
    )


@st.composite
def node_set_and_workspace(draw):
    """A node set plus a workspace that may straddle its regions.

    The workspace is drawn independently of the region codes, so some
    elements lie fully outside it and others straddle its boundary —
    exactly the clipping paths the kernels must get right.
    """
    node_set = draw(random_node_sets())
    hi_limit = max(
        (int(e.end) for e in node_set), default=4
    ) + draw(st.integers(min_value=0, max_value=5))
    lo = draw(st.integers(min_value=0, max_value=max(hi_limit - 1, 0)))
    hi = draw(st.integers(min_value=lo + 1, max_value=hi_limit + 1))
    return node_set, Workspace(lo, hi)


EDGE_CASE_SETS = [
    NodeSet([]),
    NodeSet([Element("a", 1, 2, 0)]),
    NodeSet([Element("a", 1, 100, 0)]),
    NodeSet(
        [
            Element("a", 1, 40, 0),
            Element("a", 2, 9, 1),
            Element("a", 10, 39, 1),
            Element("a", 11, 20, 2),
        ]
    ),
]


class TestPositionKernels:
    @given(node_set_and_workspace())
    @settings(max_examples=80, deadline=None)
    def test_covering_table(self, case):
        node_set, workspace = case
        assert np.array_equal(
            covering_table(node_set, workspace),
            covering_table_reference(node_set, workspace),
        )

    @given(node_set_and_workspace())
    @settings(max_examples=80, deadline=None)
    def test_start_table(self, case):
        node_set, workspace = case
        assert np.array_equal(
            start_table(node_set, workspace),
            start_table_reference(node_set, workspace),
        )

    @given(random_node_sets())
    @settings(max_examples=80, deadline=None)
    def test_turning_points(self, node_set):
        assert turning_points(node_set) == turning_points_reference(
            node_set
        )

    @pytest.mark.parametrize("node_set", EDGE_CASE_SETS)
    def test_edge_cases(self, node_set):
        workspace = Workspace(3, 15)  # straddles every non-trivial set
        assert np.array_equal(
            covering_table(node_set, workspace),
            covering_table_reference(node_set, workspace),
        )
        assert np.array_equal(
            start_table(node_set, workspace),
            start_table_reference(node_set, workspace),
        )
        assert turning_points(node_set) == turning_points_reference(
            node_set
        )


class TestPLKernels:
    @staticmethod
    def _assert_histograms_identical(built, reference):
        assert len(built) == len(reference)
        for ours, theirs in zip(built.buckets, reference.buckets):
            assert ours == theirs  # dataclass equality: exact floats

    @given(
        node_set_and_workspace(),
        st.integers(min_value=1, max_value=9),
        st.sampled_from(["clipped", "full"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_build_ancestor(self, case, buckets, length_mode):
        node_set, workspace = case
        self._assert_histograms_identical(
            PLHistogram.build_ancestor(
                node_set, workspace, buckets, length_mode
            ),
            PLHistogram.build_ancestor_reference(
                node_set, workspace, buckets, length_mode
            ),
        )

    @given(node_set_and_workspace(), st.integers(min_value=2, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_build_ancestor_explicit_edges(self, case, buckets):
        node_set, workspace = case
        edges = equi_depth_edges(node_set, workspace, buckets)
        self._assert_histograms_identical(
            PLHistogram.build_ancestor(
                node_set, workspace, buckets, edges=edges
            ),
            PLHistogram.build_ancestor_reference(
                node_set, workspace, buckets, edges=edges
            ),
        )

    @pytest.mark.parametrize("node_set", EDGE_CASE_SETS)
    @pytest.mark.parametrize("length_mode", ["clipped", "full"])
    def test_edge_cases(self, node_set, length_mode):
        workspace = Workspace(3, 15)
        self._assert_histograms_identical(
            PLHistogram.build_ancestor(node_set, workspace, 4, length_mode),
            PLHistogram.build_ancestor_reference(
                node_set, workspace, 4, length_mode
            ),
        )


class TestPHKernels:
    @given(node_set_and_workspace(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_cell_histogram(self, case, side):
        node_set, workspace = case
        inside = node_set.restrict(workspace)
        built = cell_histogram(inside, workspace, side)
        reference = cell_histogram_reference(inside, workspace, side)
        assert built == reference
        # Insertion order must match too: it pins the downstream float
        # accumulation order of the positional estimate.
        assert list(built) == list(reference)

    @given(random_node_sets(), random_node_sets())
    @settings(max_examples=60, deadline=None)
    def test_full_estimate(self, ancestors, descendants):
        estimator = PHHistogramEstimator(num_cells=16, use_coverage=False)
        vectorized = estimator.estimate(ancestors, descendants)
        with perf.reference_kernels():
            reference = estimator.estimate(ancestors, descendants)
        assert vectorized.value == reference.value


class TestCoverageKernels:
    @given(random_node_sets())
    @settings(max_examples=80, deadline=None)
    def test_merged_intervals(self, node_set):
        assert merged_intervals(node_set) == merged_intervals_reference(
            node_set
        )

    @given(
        random_node_sets(),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.1, max_value=60.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bucket_coverage(self, node_set, wss, width):
        merged = merged_intervals_reference(node_set)
        assert bucket_coverage(
            merged, wss, wss + width
        ) == bucket_coverage_reference(merged, wss, wss + width)

    def test_bucket_coverage_empty_and_degenerate(self):
        assert bucket_coverage([], 0.0, 10.0) == 0.0
        assert bucket_coverage([(1, 5)], 10.0, 10.0) == 0.0

    @given(random_node_sets(), random_node_sets())
    @settings(max_examples=40, deadline=None)
    def test_full_estimate_both_modes(self, ancestors, descendants):
        for mode in ("global", "local"):
            estimator = CoverageHistogramEstimator(num_buckets=5, mode=mode)
            vectorized = estimator.estimate(ancestors, descendants)
            with perf.reference_kernels():
                reference = estimator.estimate(ancestors, descendants)
            assert vectorized.value == reference.value, mode


class TestPLEstimatorParity:
    @given(random_node_sets(), random_node_sets())
    @settings(max_examples=40, deadline=None)
    def test_full_estimate(self, ancestors, descendants):
        for bucketing in ("equi-width", "equi-depth"):
            estimator = PLHistogramEstimator(
                num_buckets=6, bucketing=bucketing
            )
            vectorized = estimator.estimate(ancestors, descendants)
            with perf.reference_kernels():
                reference = estimator.estimate(ancestors, descendants)
            assert vectorized.value == reference.value, bucketing
            assert vectorized.mre == reference.mre, bucketing


def _descendant_reference(
    node_set: NodeSet,
    workspace: Workspace,
    num_buckets: int,
    edges: list[float] | None = None,
) -> list[PLBucket]:
    """The ``np.histogram`` descendant build, one ``Bucket`` apiece."""
    if edges is None:
        bounds = workspace.buckets(num_buckets)
        edge_array = np.array([b.wss for b in bounds] + [bounds[-1].wse])
    else:
        bounds = [
            Bucket(i, edges[i], edges[i + 1]) for i in range(len(edges) - 1)
        ]
        edge_array = np.array(edges)
    counts, __ = np.histogram(node_set.starts, bins=edge_array)
    return [
        PLBucket(i, bounds[i].wss, bounds[i].wse, int(counts[i]))
        for i in range(len(bounds))
    ]


def _equation1_reference(
    estimator: PLHistogramEstimator,
    buckets_a: list[PLBucket],
    buckets_d: list[PLBucket],
) -> Estimate:
    """Equation 1 as a loop over ``PLBucket`` objects."""
    total = 0.0
    cov_weight = 0
    cov_sum = 0.0
    worst_mre = 0.0
    for bucket_a, bucket_d in zip(buckets_a, buckets_d):
        if bucket_a.n == 0:
            continue
        cov = cov_value(bucket_a.average_length, bucket_d.n, bucket_a.width)
        total += bucket_a.n * cov
        cov_sum += cov * bucket_a.n
        cov_weight += bucket_a.n
        if bucket_d.n:
            worst_mre = max(worst_mre, maximum_relative_error(cov))
    average_cov = cov_sum / cov_weight if cov_weight else 0.0
    return Estimate(
        value=total,
        estimator=estimator.name,
        mre=maximum_relative_error(average_cov),
        details={
            "num_buckets": estimator.num_buckets,
            "length_mode": estimator.length_mode,
            "bucketing": estimator.bucketing,
            "average_cov": average_cov,
            "worst_bucket_mre": worst_mre,
        },
    )


def _pl_reference(
    estimator: PLHistogramEstimator,
    ancestors: NodeSet,
    descendants: NodeSet,
    workspace: Workspace | None = None,
) -> Estimate:
    """PL-Hist-Est from the loop oracle, ``np.histogram`` and the
    per-bucket Equation 1 loop."""
    workspace = estimator.resolve_workspace(ancestors, descendants, workspace)
    if len(ancestors) == 0 or len(descendants) == 0:
        return Estimate(0.0, estimator.name, mre=0.0)
    edges = None
    if estimator.bucketing == "equi-depth":
        edges = equi_depth_edges(descendants, workspace, estimator.num_buckets)
    return _equation1_reference(
        estimator,
        PLHistogram.build_ancestor_reference(
            ancestors,
            workspace,
            estimator.num_buckets,
            estimator.length_mode,
            edges,
        ).buckets,
        _descendant_reference(
            descendants, workspace, estimator.num_buckets, edges
        ),
    )


def _outcome(estimate) -> object:
    """What a call returned or raised, compared bit for bit.

    ``repr`` round-trips a float exactly and tells ``-0.0`` from
    ``0.0`` and a numpy scalar from a Python one.
    """
    try:
        result = estimate()
    except Exception as error:  # the outcome is what gets compared
        return ("raised", type(error), str(error))
    return repr(
        (
            result.value,
            result.mre,
            result.estimator,
            sorted(result.details.items()),
        )
    )


def _pl_mismatch(
    ancestors: NodeSet,
    descendants: NodeSet,
    workspace: Workspace | None,
    **config,
) -> tuple | None:
    """``None`` when the estimator matches its reference, else both."""
    estimator = PLHistogramEstimator(**config)
    got = _outcome(
        lambda: estimator.estimate(ancestors, descendants, workspace)
    )
    want = _outcome(
        lambda: _pl_reference(estimator, ancestors, descendants, workspace)
    )
    return None if got == want else (config, got, want)


class TestPLArrayForm:
    """PL's per-bucket arrays equal the per-bucket object form (the
    loop oracle, ``np.histogram`` and a per-``PLBucket`` Equation 1
    loop): every value, MRE, details field and error."""

    @given(
        random_node_sets(),
        node_set_and_workspace(),
        st.booleans(),
        st.integers(min_value=1, max_value=20),
        st.sampled_from(["clipped", "full"]),
        st.sampled_from(["equi-width", "equi-depth"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_node_sets(
        self, ancestors, case, given_workspace, buckets, length_mode,
        bucketing,
    ):
        descendants, workspace = case
        assert (
            _pl_mismatch(
                ancestors,
                descendants,
                workspace if given_workspace else None,
                num_buckets=buckets,
                length_mode=length_mode,
                bucketing=bucketing,
            )
            is None
        )

    @pytest.mark.parametrize("dataset", ["xmark", "dblp", "xmach"])
    def test_table3_pairs(self, dataset):
        from repro.datasets.workloads import ALL_WORKLOADS
        from repro.experiments.data import get_dataset

        data = get_dataset(dataset, scale=0.05)
        tree_workspace = data.tree.workspace()
        mismatches = []
        checked = 0
        for query in ALL_WORKLOADS[dataset]:
            ancestors = data.node_set(query.ancestor)
            descendants = data.node_set(query.descendant)
            for workspace in (None, tree_workspace):
                for buckets in (1, 2, 7, 16, 50):
                    for length_mode in ("clipped", "full"):
                        for bucketing in ("equi-width", "equi-depth"):
                            checked += 1
                            mismatch = _pl_mismatch(
                                ancestors,
                                descendants,
                                workspace,
                                num_buckets=buckets,
                                length_mode=length_mode,
                                bucketing=bucketing,
                            )
                            if mismatch is not None:
                                mismatches.append((query.id, mismatch))
        assert checked >= 240
        assert mismatches == []

    def test_derived_buckets_equal_the_object_form(self):
        node_set = EDGE_CASE_SETS[3]
        workspace = Workspace(3, 15)
        for buckets in (1, 4, 9):
            built = PLHistogram.build_descendant(node_set, workspace, buckets)
            assert built.buckets == _descendant_reference(
                node_set, workspace, buckets
            )
            assert built.role == "descendant" and len(built) == buckets
            ancestor = PLHistogram.build_ancestor(node_set, workspace, buckets)
            tiling = workspace.buckets(buckets)
            assert ancestor.wss.tolist() == [b.wss for b in tiling]
            assert ancestor.wse.tolist() == [b.wse for b in tiling]
            assert ancestor.buckets is ancestor.buckets  # built once

    @pytest.mark.parametrize(
        ("node_set", "workspace", "edges"),
        [
            # Equal-width edges of a narrow workspace far from 0 round
            # to one value: every bucket is empty of width.
            (
                NodeSet([Element("a", 2**60 + 1, 2**60 + 9, 0)]),
                Workspace(2**60, 2**60 + 10),
                None,
            ),
            # A repeated explicit edge: bucket 1 has zero width and the
            # interval crosses it.
            (EDGE_CASE_SETS[2], Workspace(0, 120), [0.0, 5.0, 5.0, 121.0]),
        ],
    )
    @pytest.mark.parametrize("length_mode", ["clipped", "full"])
    def test_non_positive_width_raises_the_same(
        self, node_set, workspace, edges, length_mode
    ):
        estimator = PLHistogramEstimator(
            num_buckets=3, length_mode=length_mode
        )

        def array_form():
            return estimator.estimate_from_histograms(
                PLHistogram.build_ancestor(
                    node_set, workspace, 3, length_mode, edges
                ),
                PLHistogram.build_descendant(node_set, workspace, 3, edges),
            )

        def object_form():
            return _equation1_reference(
                estimator,
                PLHistogram.build_ancestor_reference(
                    node_set, workspace, 3, length_mode, edges
                ).buckets,
                _descendant_reference(node_set, workspace, 3, edges),
            )

        outcome = _outcome(array_form)
        assert outcome == _outcome(object_form)
        assert outcome[:2] == ("raised", ValueError)
        assert outcome[2] == "bucket width must be > 0, got 0.0"
        if edges is None:
            assert _outcome(
                lambda: estimator.estimate(node_set, node_set, workspace)
            ) == outcome

    @pytest.mark.parametrize("ones", [8, 9, 15, 40])
    def test_bucket_terms_add_left_to_right(self, ones):
        """Terms ``2**53, 1.0, 1.0, ...``: added left to right each 1.0
        rounds away; a compensated (3.12's builtin ``sum``), pairwise
        (``np.sum``) or exact (``math.fsum``) total keeps them."""
        terms = [2.0**53] + [1.0] * ones
        count = len(terms)
        wss = np.arange(count, dtype=np.float64)
        ancestors = PLHistogram(
            wss, wss + 1.0, np.ones(count), terms, "ancestor"
        )
        descendants = PLHistogram(
            wss, wss + 1.0, np.ones(count), np.zeros(count), "descendant"
        )
        assert math.fsum(terms) != 2.0**53
        assert float(np.sum(terms)) != 2.0**53
        estimator = PLHistogramEstimator(num_buckets=count)
        result = estimator.estimate_from_histograms(ancestors, descendants)
        assert result.value == 2.0**53
        assert result.details["average_cov"] == 2.0**53 / count
        assert _outcome(lambda: result) == _outcome(
            lambda: _equation1_reference(
                estimator, ancestors.buckets, descendants.buckets
            )
        )
