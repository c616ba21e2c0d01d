"""Probe kernels and multi-trial sampling paths vs references.

Three bit-for-bit contracts:

* the numpy probe kernels (rank identity, T-tree turning-point floor,
  start membership) equal the paper's structures — the rank identity,
  T-tree, XR-tree and start-position B+-tree — probed one point at a
  time, on arbitrary node sets and probe positions;
* ``estimate_trials(A, D, k)`` returns exactly what ``k`` sequential
  ``estimate`` calls would — values, details and the generator state
  left behind — with or without an :class:`~repro.perf.IndexCache`;
* ``estimate_across`` does the same for the harness's
  fresh-instance-per-repetition pattern, and the harness's batched
  evaluation produces the same rows as the sequential reference path.

Plus the :class:`IndexCache` semantics: content-keyed sharing of
arenas and stab-count tables, LRU eviction, reference-mode bypass and
the ``index_cache.*`` obs counters.
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs, perf
from repro.core.element import Element
from repro.core.errors import EstimationError
from repro.core.nodeset import NodeSet
from repro.estimators.bifocal import BifocalEstimator
from repro.estimators.cross_sampling import (
    CrossSamplingEstimator,
    SystematicSamplingEstimator,
)
from repro.estimators.im_sampling import IMSamplingEstimator
from repro.estimators.pm_sampling import PMSamplingEstimator
from repro.estimators.semijoin_sampling import (
    SemijoinAncestorsEstimator,
    SemijoinDescendantsEstimator,
)
from repro.index.ttree import TTree
from repro.index.xrtree import XRTree
from repro.kernels import _numpy, operand_arena, stab_count_table
from repro.perf import IndexCache, resolve_index_cache, use_index_cache
from repro.qa import reference
from repro.xmltree.tree import TreeBuilder

TAGS = ("a", "b", "c")


@st.composite
def random_node_sets(draw, max_size=40):
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


#: Positions deliberately straddle and overshoot the region codes the
#: strategy can produce (< ~120), and duplicates are allowed — sampling
#: with replacement probes the same position repeatedly.
positions_arrays = st.lists(
    st.integers(min_value=0, max_value=150), max_size=40
).map(lambda raw: np.asarray(raw, dtype=np.int64))

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

EDGE_CASE_POSITIONS = np.array(
    [0, 1, 1, 2, 9, 10, 11, 20, 39, 40, 41, 100, 101, 140], dtype=np.int64
)


def _per_point(count, positions: np.ndarray) -> np.ndarray:
    return np.array([count(int(p)) for p in positions], dtype=np.int64)


def _assert_probe_kernels_agree(node_set: NodeSet, positions: np.ndarray):
    want = _per_point(node_set.stab_count, positions)
    assert np.array_equal(_per_point(TTree(node_set).count, positions), want)
    xrtree = XRTree(node_set)
    assert np.array_equal(_per_point(xrtree.stab_count, positions), want)
    # One position per trial row: each row's sum is that position's count.
    rows = positions.shape[0]
    arena = operand_arena(node_set)
    sums, __ = _numpy.stab_sum_max(
        arena.starts, arena.sorted_ends, positions, rows, 1
    )
    assert np.array_equal(sums, want)
    keys, padded = arena.turning_points()
    sums, __ = _numpy.ttree_sum_max(keys, padded, positions, rows, 1)
    assert np.array_equal(sums, want)
    assert np.array_equal(node_set.stab_counts(positions), want)
    assert np.array_equal(
        _numpy.membership(node_set.starts, positions),
        reference.membership(node_set.starts, positions),
    )


class TestBatchedProbeKernels:
    @given(random_node_sets(), positions_arrays)
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, node_set, positions):
        _assert_probe_kernels_agree(node_set, positions)

    @pytest.mark.parametrize("node_set", EDGE_CASE_SETS)
    def test_edge_cases(self, node_set):
        _assert_probe_kernels_agree(node_set, EDGE_CASE_POSITIONS)
        _assert_probe_kernels_agree(
            node_set, np.array([], dtype=np.int64)
        )


#: Every batched sampling estimator, each with the probe backends it
#: supports.  ``TwoSampleEstimator`` is absent by design: its per-trial
#: operand resampling has no batched form.
FACTORIES = [
    ("IM-rank", lambda s: IMSamplingEstimator(num_samples=7, seed=s)),
    (
        "IM-ttree",
        lambda s: IMSamplingEstimator(num_samples=7, seed=s, backend="ttree"),
    ),
    (
        "IM-xrtree",
        lambda s: IMSamplingEstimator(
            num_samples=7, seed=s, backend="xrtree"
        ),
    ),
    (
        "IM-replace",
        lambda s: IMSamplingEstimator(num_samples=7, seed=s, replace=True),
    ),
    ("PM-rank", lambda s: PMSamplingEstimator(num_samples=7, seed=s)),
    (
        "PM-ttree",
        lambda s: PMSamplingEstimator(num_samples=7, seed=s, backend="ttree"),
    ),
    ("CROSS", lambda s: CrossSamplingEstimator(num_samples=7, seed=s)),
    ("SYS", lambda s: SystematicSamplingEstimator(num_samples=3, seed=s)),
    ("SEMI-D", lambda s: SemijoinDescendantsEstimator(num_samples=5, seed=s)),
    ("SEMI-A", lambda s: SemijoinAncestorsEstimator(num_samples=5, seed=s)),
    ("BIFOCAL", lambda s: BifocalEstimator(num_samples=6, seed=s)),
    (
        "BIFOCAL-t3",
        lambda s: BifocalEstimator(num_samples=6, seed=s, threshold=3),
    ),
]
FACTORY_IDS = [label for label, __ in FACTORIES]


def _assert_same_estimates(results, expected):
    assert [r.value for r in results] == [e.value for e in expected]
    assert [r.details for r in results] == [e.details for e in expected]


class TestEstimateTrials:
    @pytest.mark.parametrize(
        "factory", [f for __, f in FACTORIES], ids=FACTORY_IDS
    )
    @given(
        ancestors=random_node_sets(max_size=25),
        descendants=random_node_sets(max_size=25),
        trials=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_sequential(
        self, factory, ancestors, descendants, trials, seed
    ):
        sequential = factory(seed)
        expected = [
            sequential.estimate(ancestors, descendants)
            for __ in range(trials)
        ]
        batched = factory(seed)
        results = batched.estimate_trials(ancestors, descendants, trials)
        _assert_same_estimates(results, expected)
        assert (
            batched._rng.bit_generator.state
            == sequential._rng.bit_generator.state
        )
        # The index cache must not change a single bit either.
        cached = factory(seed)
        with use_index_cache(IndexCache()):
            cached_results = cached.estimate_trials(
                ancestors, descendants, trials
            )
        _assert_same_estimates(cached_results, expected)

    def test_zero_trials(self):
        estimator = IMSamplingEstimator(num_samples=3, seed=0)
        some = NodeSet([Element("a", 1, 4)])
        assert estimator.estimate_trials(some, some, 0) == []

    def test_negative_trials_rejected(self):
        estimator = IMSamplingEstimator(num_samples=3, seed=0)
        some = NodeSet([Element("a", 1, 4)])
        with pytest.raises(EstimationError):
            estimator.estimate_trials(some, some, -1)

    def test_empty_operands_draw_nothing(self):
        estimator = PMSamplingEstimator(num_samples=3, seed=0)
        before = estimator._rng.bit_generator.state
        results = estimator.estimate_trials(
            NodeSet([]), NodeSet([Element("a", 1, 4)]), 3
        )
        assert [r.value for r in results] == [0.0, 0.0, 0.0]
        assert estimator._rng.bit_generator.state == before


class TestEstimateAcross:
    @pytest.mark.parametrize(
        "factory", [f for __, f in FACTORIES], ids=FACTORY_IDS
    )
    @given(
        ancestors=random_node_sets(max_size=25),
        descendants=random_node_sets(max_size=25),
        instances=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_fresh_instances(
        self, factory, ancestors, descendants, instances, seed
    ):
        solo = [factory(seed + i) for i in range(instances)]
        expected = [e.estimate(ancestors, descendants) for e in solo]
        batch = [factory(seed + i) for i in range(instances)]
        results = type(batch[0]).estimate_across(
            batch, ancestors, descendants
        )
        _assert_same_estimates(results, expected)
        for batched, sequential in zip(batch, solo):
            assert (
                batched._rng.bit_generator.state
                == sequential._rng.bit_generator.state
            )

    def test_empty_estimator_list(self):
        some = NodeSet([Element("a", 1, 4)])
        assert IMSamplingEstimator.estimate_across([], some, some) == []

    def test_rejects_mixed_configuration(self):
        some = NodeSet([Element("a", 1, 4)])
        mixed = [
            IMSamplingEstimator(num_samples=5, seed=0),
            IMSamplingEstimator(num_samples=6, seed=1),
        ]
        with pytest.raises(EstimationError):
            IMSamplingEstimator.estimate_across(mixed, some, some)

    def test_rejects_mixed_backends(self):
        some = NodeSet([Element("a", 1, 4)])
        mixed = [
            IMSamplingEstimator(num_samples=5, seed=0, backend="rank"),
            IMSamplingEstimator(num_samples=5, seed=1, backend="ttree"),
        ]
        with pytest.raises(EstimationError):
            IMSamplingEstimator.estimate_across(mixed, some, some)


@pytest.fixture(scope="module")
def xmark_operands():
    from repro.datasets import generate_xmark
    from repro.join import containment_join_size

    dataset = generate_xmark(scale=0.05, seed=101)
    a = dataset.node_set("desp")
    d = dataset.node_set("text")
    return (
        dataset,
        a,
        d,
        dataset.tree.workspace(),
        containment_join_size(a, d),
    )


class TestHarnessBatching:
    def test_batched_rows_equal_sequential_rows(self, xmark_operands):
        """evaluate() under the default batched path must reproduce the
        reference path (sequential per-call estimates) row for row."""
        from repro.datasets.workloads import Query
        from repro.experiments.harness import MethodSpec, evaluate

        dataset, *_ = xmark_operands
        queries = [Query("q1", "desp", "text"), Query("q2", "kwd", "desp")]
        methods = [
            MethodSpec(
                "IM",
                lambda seed: IMSamplingEstimator(num_samples=20, seed=seed),
            ),
            MethodSpec(
                "PM",
                lambda seed: PMSamplingEstimator(num_samples=20, seed=seed),
            ),
        ]
        batched = evaluate(dataset, queries, methods, runs=4, seed=5)
        with reference.reference_probes():
            sequential = evaluate(dataset, queries, methods, runs=4, seed=5)
        assert [(r.errors, r.estimates) for r in batched] == [
            (r.errors, r.estimates) for r in sequential
        ]

    def test_unbiased_through_batched_path(self, xmark_operands):
        """Theorem 3 survives batching: E[X̂] = X over many trials."""
        __, a, d, workspace, true = xmark_operands
        estimator = IMSamplingEstimator(num_samples=40, seed=7)
        results = estimator.estimate_trials(a, d, 300, workspace)
        mean = statistics.fmean(r.value for r in results)
        assert abs(mean - true) / true < 0.05


class TestIndexCache:
    def test_content_keyed_sharing(self, xmark_operands):
        __, a, *_ = xmark_operands
        cache = IndexCache()
        # A different NodeSet object with identical content shares the
        # key: its miss is the key's second, which stores the arena.
        clone = NodeSet(list(a), name=a.name)
        built = cache.arena(a)
        first = cache.arena(clone)
        assert first is not built
        assert cache.arena(a) is first
        assert cache.arena(clone) is first
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 2

    def test_distinct_structures_distinct_entries(self, xmark_operands):
        __, a, d, *_ = xmark_operands
        cache = IndexCache()
        for __ in range(2):
            cache.arena(a)
            cache.arena(d)
            stab_count_table(a, d, cache)
            stab_count_table(d, a, cache)
        # Two arenas and two tables: each operand order is its own table.
        assert len(cache) == 4
        assert cache.stats()["nbytes"] > 0

    def test_lru_eviction(self, xmark_operands):
        __, a, d, *_ = xmark_operands
        cache = IndexCache(maxsize=1)
        for operand in (a, a, d, d):
            cache.arena(operand)
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 1

    def test_reference_mode_disables_resolution(self):
        cache = IndexCache()
        with use_index_cache(cache):
            assert resolve_index_cache(None) is cache
            with perf.reference_kernels():
                assert resolve_index_cache(None) is None
                assert resolve_index_cache(cache) is None
        assert resolve_index_cache(None) is None

    def test_explicit_cache_beats_ambient(self):
        ambient, explicit = IndexCache(), IndexCache()
        with use_index_cache(ambient):
            assert resolve_index_cache(explicit) is explicit

    def test_empty_ambient_cache_still_resolves(self):
        """An empty cache is falsy (``__len__``); resolution must not
        drop it."""
        cache = IndexCache()
        assert len(cache) == 0
        with use_index_cache(cache):
            assert resolve_index_cache(None) is cache

    def test_obs_counters(self, xmark_operands):
        __, a, *_ = xmark_operands
        with obs.observe(registry=obs.MetricsRegistry()) as registry:
            cache = IndexCache()
            for __ in range(3):
                cache.arena(a)
        counters = registry.counters()
        assert counters["index_cache.misses"] == 2
        assert counters["index_cache.hits"] == 1
        assert counters["index_cache.built_nbytes"] > 0
        # The summary cache keeps its own namespace.
        assert "cache.misses" not in counters

    def test_estimators_populate_ambient_cache(self, xmark_operands):
        __, a, d, workspace, __true = xmark_operands
        cache = IndexCache()
        with use_index_cache(cache):
            for __ in range(3):
                IMSamplingEstimator(num_samples=10, seed=0).estimate_trials(
                    a, d, 3, workspace
                )
                PMSamplingEstimator(num_samples=10, seed=0).estimate_trials(
                    a, d, 3, workspace
                )
        stats = cache.stats()
        # Two entries, each stored on its second miss: the stab-count
        # table (IM's table gather, built on IM's second call) and the
        # ancestor operand arena (PM's rank backend).  PM's vectorized
        # start-membership kernel needs no descendant-side index at all.
        assert len(cache) == 2
        assert stats["misses"] == 4
        assert stats["hits"] >= 1
