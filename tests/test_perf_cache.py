"""Summary cache, ambient installation, and parallel-harness determinism."""

from __future__ import annotations

import random
import sys
from collections import OrderedDict

import pytest

from repro.catalog.catalog import StatisticsCatalog
from repro.core.budget import SpaceBudget
from repro.core.element import Element
from repro.core.nodeset import NodeSet
from repro.datasets.workloads import ALL_WORKLOADS
from repro.estimators.coverage_histogram import CoverageHistogramEstimator
from repro.estimators.ph_histogram import PHHistogramEstimator
from repro.estimators.pl_histogram import PLHistogramEstimator
from repro.experiments.data import get_dataset
from repro.experiments.harness import evaluate, paper_methods
from repro.perf import (
    SummaryCache,
    active_cache,
    resolve_cache,
    use_cache,
)
from repro.perf import cache as cache_module
from repro.perf.cache import approx_nbytes

#: Python < 3.11 sizes the int 0 four bytes below every other small int,
#: so a container whose first element holds a 0 (bucket 0 of a
#: histogram) is not uniformly sized there.
UNIFORM_SMALL_INTS = sys.getsizeof(0) == sys.getsizeof(1)


def _key_mentions(key, fingerprint):
    """Reference: whether ``fingerprint`` appears anywhere in a key."""
    if isinstance(key, str):
        return key == fingerprint
    if isinstance(key, tuple):
        return any(_key_mentions(part, fingerprint) for part in key)
    return False


def _deep_nbytes(value, depth=4):
    """Reference: the walk over every element that approx_nbytes
    replaces with its first-element rule."""
    arr_nbytes = getattr(value, "nbytes", None)
    if isinstance(arr_nbytes, int):
        return int(arr_nbytes) + 96
    total = sys.getsizeof(value, 64)
    if depth <= 0:
        return total
    if isinstance(value, dict):
        for key, item in value.items():
            total += _deep_nbytes(key, depth - 1)
            total += _deep_nbytes(item, depth - 1)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            total += _deep_nbytes(item, depth - 1)
    else:
        state = getattr(value, "__dict__", None)
        if state is not None:
            for item in state.values():
                total += _deep_nbytes(item, depth - 1)
        elif hasattr(type(value), "__slots__"):
            for slot in type(value).__slots__:
                total += _deep_nbytes(getattr(value, slot, None), depth - 1)
    return total


class _ReferenceCache:
    """SummaryCache semantics by brute force: a scan per invalidation,
    the deep walk per insert."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.data = OrderedDict()
        self.sizes = {}
        self.hits = self.misses = self.evictions = self.invalidations = 0
        self.nbytes = 0

    def _store(self, key, value):
        if key not in self.data:
            self.sizes[key] = _deep_nbytes(value)
            self.nbytes += self.sizes[key]
        self.data[key] = value
        self.data.move_to_end(key)
        while len(self.data) > self.maxsize:
            victim, __ = self.data.popitem(last=False)
            self.nbytes -= self.sizes.pop(victim)
            self.evictions += 1

    def get_or_build(self, key, builder):
        if key in self.data:
            self.data.move_to_end(key)
            self.hits += 1
            return self.data[key]
        self.misses += 1
        value = builder()
        self._store(key, value)
        return value

    def peek(self, key, default=None):
        if key in self.data:
            self.data.move_to_end(key)
            self.hits += 1
            return self.data[key]
        self.misses += 1
        return default

    def put(self, key, value):
        self._store(key, value)

    def invalidate_fingerprint(self, fingerprint):
        victims = [k for k in self.data if _key_mentions(k, fingerprint)]
        for key in victims:
            del self.data[key]
            self.nbytes -= self.sizes.pop(key)
        self.invalidations += len(victims)
        return len(victims)

    def clear(self):
        self.data.clear()
        self.sizes.clear()
        self.hits = self.misses = self.evictions = self.invalidations = 0
        self.nbytes = 0


class TestSummaryCache:
    def test_get_or_build_builds_once(self):
        cache = SummaryCache()
        calls = []
        for __ in range(3):
            value = cache.get_or_build("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert calls == [1]
        assert cache.hits == 2
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = SummaryCache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: 1)  # refresh a: b is now LRU
        cache.get_or_build("c", lambda: 3)  # evicts b
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            SummaryCache(maxsize=0)

    def test_stats_and_clear(self):
        cache = SummaryCache()
        cache.get_or_build("k", lambda: 1)
        cache.get_or_build("k", lambda: 1)
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hit_rate"] == 0.0


FINGERPRINTS = ("fp-a", "fp-b", "fp-c", "fp-d", "fp-e")


def _random_key(rng):
    """A nested-tuple content key; several fingerprints per key, and
    fingerprints recur across kinds, depths and bare-string keys."""
    fp = rng.choice(FINGERPRINTS)
    other = rng.choice(FINGERPRINTS)
    shape = rng.randrange(6)
    if shape == 0:
        return ("pl-ancestor", fp, (1, 4096), 16, "clipped", None)
    if shape == 1:
        return ("arena", fp)
    if shape == 2:
        return ("pair", (fp, other), rng.randrange(1, 4))
    if shape == 3:
        return (("nested", ("deeper", fp)), rng.randrange(1, 3))
    if shape == 4:
        return fp  # a bare string key is its own fingerprint
    return ("no-fingerprint", rng.randrange(1, 4))


def _random_value(rng):
    """Uniformly sized values, so the first-element rule is exact."""
    length = rng.randrange(0, 40)
    shape = rng.randrange(4)
    if shape == 0:
        return [rng.random() for __ in range(length)]
    if shape == 1:
        return tuple(rng.randrange(1, 1 << 20) for __ in range(length))
    if shape == 2:
        return {(i + 1, i + 2): i + 3 for i in range(length)}
    return "x" * length


class TestSummaryCacheDifferential:
    """Index-backed invalidation and shape sizing ≡ scan and deep walk."""

    def _check(self, cache, reference):
        assert list(cache._data) == list(reference.data)  # LRU order
        assert cache.hits == reference.hits
        assert cache.misses == reference.misses
        assert cache.evictions == reference.evictions
        assert cache.invalidations == reference.invalidations
        assert cache.nbytes == reference.nbytes
        assert len(cache) == len(reference.data)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_op_sequence(self, seed):
        rng = random.Random(seed)
        maxsize = rng.choice((3, 6, 12))
        cache = SummaryCache(maxsize=maxsize)
        reference = _ReferenceCache(maxsize)
        for __ in range(400):
            op = rng.choices(
                (
                    "get_or_build",
                    "put",
                    "peek",
                    "peek_many",
                    "invalidate",
                    "clear",
                ),
                weights=(8, 4, 4, 3, 3, 0.2),
            )[0]
            if op == "get_or_build":
                key, value = _random_key(rng), _random_value(rng)
                got = cache.get_or_build(key, lambda: value)
                assert got == reference.get_or_build(key, lambda: value)
            elif op == "put":
                key, value = _random_key(rng), _random_value(rng)
                assert cache.put(key, value) is None
                reference.put(key, value)
            elif op == "peek":
                key = _random_key(rng)
                assert cache.peek(key, "absent") == reference.peek(
                    key, "absent"
                )
            elif op == "peek_many":
                # Keys repeat within a call; the reference peeks them
                # one at a time.
                pool = [_random_key(rng) for __ in range(rng.randrange(1, 4))]
                keys = [rng.choice(pool) for __ in range(rng.randrange(7))]
                assert cache.peek_many(keys, "absent") == [
                    reference.peek(key, "absent") for key in keys
                ]
            elif op == "invalidate":
                fingerprint = rng.choice(FINGERPRINTS + ("clipped", "nope"))
                assert cache.invalidate_fingerprint(
                    fingerprint
                ) == reference.invalidate_fingerprint(fingerprint)
            else:
                cache.clear()
                reference.clear()
            self._check(cache, reference)

    def test_peek_many_records_the_obs_counters_of_single_peeks(self):
        from repro import obs

        def filled():
            cache = SummaryCache(maxsize=4)
            for i in range(4):
                cache.put(("summary", f"fp-{i}"), i)
            return cache

        keys = [("summary", f"fp-{i}") for i in (3, 9, 3, 0, 7, 1)]
        many, single = filled(), filled()
        with obs.observe() as registry:
            assert many.peek_many(keys) == [3, None, 3, 0, None, 1]
        with obs.observe() as reference:
            for key in keys:
                single.peek(key)
        assert registry.counters() == reference.counters()
        assert registry.counters() == {"cache.hits": 4, "cache.misses": 2}
        assert list(many._data) == list(single._data)
        with obs.observe() as registry:
            assert many.peek_many([]) == []
        assert registry.counters() == {}

    def test_index_is_built_by_the_first_invalidation_only(self):
        cache = SummaryCache()
        for i in range(5):
            cache.put(("summary", f"fp-{i}"), i + 1)
        cache.peek(("summary", "fp-0"))
        assert cache._index is None  # never invalidated: no index
        assert cache.invalidate_fingerprint("fp-3") == 1
        assert cache._index is not None
        assert ("summary", "fp-3") not in cache


class TestSummaryCacheThreads:
    def test_concurrent_writers_keep_index_and_bytes_consistent(self):
        """More threads than cores on one cache: no lost update in the
        entry map, the sizes or the fingerprint index."""
        import threading

        cache = SummaryCache(maxsize=16)
        cache.invalidate_fingerprint("fp-a")  # index on from the start
        errors = []

        def churn(seed):
            rng = random.Random(seed)
            try:
                for __ in range(400):
                    key = _random_key(rng)
                    roll = rng.random()
                    if roll < 0.4:
                        cache.get_or_build(key, lambda: [1.5] * 3)
                    elif roll < 0.7:
                        cache.put(key, (seed + 1,) * 2)
                    else:
                        cache.invalidate_fingerprint(
                            rng.choice(FINGERPRINTS)
                        )
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=churn, args=(seed,))
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= 16
        assert set(cache._sizes) == set(cache._data)
        assert cache.nbytes == sum(cache._sizes.values())
        indexed = {
            token: keys for token, keys in cache._index.items() if keys
        }
        expected = {}
        for key in cache._data:
            for token in FINGERPRINTS + ("pl-ancestor", "arena"):
                if _key_mentions(key, token):
                    expected.setdefault(token, set()).add(key)
        for token, keys in expected.items():
            assert indexed[token] == keys
        for keys in indexed.values():
            assert keys <= set(cache._data)


@pytest.fixture(scope="module")
def artifacts():
    """One of each summary and index the churn workload caches."""
    from repro.datasets import generate_xmark
    from repro.estimators.ph_histogram import cell_histogram
    from repro.estimators.pl_histogram import PLHistogram, equi_depth_edges
    from repro.kernels.arena import OperandArena
    from repro.perf.index_cache import IndexCache

    dataset = generate_xmark(scale=0.05, seed=42)
    workspace = dataset.tree.workspace()
    ancestors = dataset.node_set("desp")
    descendants = dataset.node_set("text")
    return {
        "pl-ancestor": PLHistogram.build_ancestor(ancestors, workspace, 16),
        "pl-descendant": PLHistogram.build_descendant(
            descendants, workspace, 16
        ),
        "ph-cells": cell_histogram(ancestors, workspace, 5),
        "pl-edges": equi_depth_edges(descendants, workspace, 16),
        "arena": OperandArena(ancestors),
        "stab": IndexCache().stabbing_counter(ancestors),
    }


class TestApproxNbytes:
    @pytest.mark.parametrize(
        "name",
        ["pl-ancestor", "pl-descendant", "ph-cells", "pl-edges", "arena",
         "stab"],
    )
    def test_cached_artifacts_size_as_the_deep_walk(self, artifacts, name):
        value = artifacts[name]
        if UNIFORM_SMALL_INTS:
            assert approx_nbytes(value) == _deep_nbytes(value)
        else:
            assert approx_nbytes(value) == pytest.approx(
                _deep_nbytes(value), rel=0.05
            )

    @pytest.mark.parametrize(
        "value",
        [
            0, 7, 2**40, 1.5, True, None, "", "abc", b"xy",
            [], (), {}, set(),
            {1.5, "a" * 100, (1, 2, 3)},  # a set is walked in full
            [[[[[1.5]]]]],  # deeper than the depth bound
        ],
    )
    def test_edge_shapes_size_as_the_deep_walk(self, value):
        assert approx_nbytes(value) == _deep_nbytes(value)

    def test_cost_follows_shape_not_length(self, monkeypatch):
        calls = []
        original = cache_module.approx_nbytes

        def counting(value, depth=4):
            calls.append(1)
            return original(value, depth)

        monkeypatch.setattr(cache_module, "approx_nbytes", counting)
        counts = {}
        for length in (10, 10_000):
            calls.clear()
            value = [(float(i), i + 0.5) for i in range(length)]
            assert counting(value) == _deep_nbytes(value)
            counts[length] = len(calls)
        assert counts[10_000] <= counts[10]


class TestAmbientCache:
    def test_install_and_restore(self):
        assert active_cache() is None
        outer, inner = SummaryCache(), SummaryCache()
        with use_cache(outer):
            assert active_cache() is outer
            with use_cache(inner):
                assert active_cache() is inner
            assert active_cache() is outer
        assert active_cache() is None

    def test_none_disables_nested_region(self):
        with use_cache(SummaryCache()):
            with use_cache(None):
                assert active_cache() is None

    def test_resolve_prefers_explicit(self):
        explicit, ambient = SummaryCache(), SummaryCache()
        with use_cache(ambient):
            assert resolve_cache(explicit) is explicit
            assert resolve_cache(None) is ambient
        assert resolve_cache(None) is None


class TestFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = NodeSet([Element("x", 1, 4, 0), Element("x", 2, 3, 1)])
        b = NodeSet([Element("y", 2, 3, 1), Element("y", 1, 4, 0)])
        assert a.fingerprint == b.fingerprint  # tags/order don't matter

    def test_different_content_different_fingerprint(self):
        a = NodeSet([Element("x", 1, 4, 0)])
        b = NodeSet([Element("x", 1, 5, 0)])
        assert a.fingerprint != b.fingerprint


@pytest.fixture(scope="module")
def dblp():
    return get_dataset("dblp", scale=0.05)


class TestCachedEstimatorParity:
    """Cached results must be bit-identical to uncached ones."""

    def _operands(self, dataset):
        query = ALL_WORKLOADS["dblp"][0]
        return query.operands(dataset)

    @pytest.mark.parametrize(
        "make",
        [
            lambda c: PLHistogramEstimator(num_buckets=20, cache=c),
            lambda c: PLHistogramEstimator(
                num_buckets=20, bucketing="equi-depth", cache=c
            ),
            lambda c: PHHistogramEstimator(num_cells=49, cache=c),
            lambda c: CoverageHistogramEstimator(num_buckets=10, cache=c),
        ],
    )
    def test_estimates_identical(self, dblp, make):
        ancestors, descendants = self._operands(dblp)
        plain = make(None).estimate(ancestors, descendants)
        cache = SummaryCache()
        cached_estimator = make(cache)
        first = cached_estimator.estimate(ancestors, descendants)
        again = cached_estimator.estimate(ancestors, descendants)
        assert first.value == plain.value
        assert again.value == plain.value
        assert cache.hits > 0  # second call actually hit

    def test_catalog_uses_cache(self, dblp):
        cache = SummaryCache()
        catalog = StatisticsCatalog(dblp.tree, SpaceBudget(400), cache=cache)
        plain = StatisticsCatalog(dblp.tree, SpaceBudget(400))
        cached = catalog.estimate_join("inproceeding", "author")
        direct = plain.estimate_join("inproceeding", "author")
        assert cached.value == direct.value
        assert cache.misses > 0

    def test_evaluate_cached_equals_uncached(self, dblp):
        queries = ALL_WORKLOADS["dblp"][:3]
        methods = paper_methods(SpaceBudget(400))
        plain = evaluate(dblp, queries, methods, runs=2, seed=7)
        cache = SummaryCache()
        cached = evaluate(
            dblp, queries, methods, runs=2, seed=7, cache=cache
        )
        assert cached == plain
        assert cache.hits > 0
