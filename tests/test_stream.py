"""Streaming churn layer: feeds, live workspaces, staleness, tenancy.

Covers the seeded :class:`MutationFeed`, incremental maintenance and
fingerprint bump-on-write invalidation in :class:`LiveWorkspace`, the
bounded-staleness contract through the estimation service (with an
injected clock), the wire-format disclosure fields, and the
multi-tenant :class:`CatalogStore` with LRU disk residency.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

import repro
from repro.core.element import Element
from repro.core.errors import ServiceError, StreamError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.perf.cache import SummaryCache, _key_tokens
from repro.service import EstimationService
from repro.service.request import EstimateRequest
from repro.service.wire import (
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.stream import (
    CatalogStore,
    LiveWorkspace,
    Mutation,
    MutationBatch,
    MutationFeed,
)

WORKSPACE = Workspace(0, 4000)


def _pool(count: int = 20, offset: int = 0) -> list[Element]:
    """``count`` ancestor/descendant pairs, descendants nested inside."""
    elements = []
    for i in range(count):
        base = offset + 20 * i
        elements.append(Element("a", base + 1, base + 9))
        elements.append(Element("d", base + 2, base + 4))
    return elements


class FakeClock:
    """Injectable monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestMutationFeed:
    def test_same_seed_same_stream(self):
        pool = _pool()
        a = MutationFeed(pool, seed=7)
        b = MutationFeed(list(reversed(pool)), seed=7)
        assert a.bootstrap() == b.bootstrap()
        script_a = [
            [(m.op, m.element, m.replacement) for m in batch.mutations]
            for batch in a.batches(6, 5)
        ]
        script_b = [
            [(m.op, m.element, m.replacement) for m in batch.mutations]
            for batch in b.batches(6, 5)
        ]
        assert script_a == script_b

    def test_different_seed_diverges(self):
        pool = _pool()
        a = MutationFeed(pool, seed=1).bootstrap()
        b = MutationFeed(pool, seed=2).bootstrap()
        assert a != b

    def test_batches_are_sequentially_applicable(self):
        feed = MutationFeed(_pool(), seed=3)
        live = {(e.start, e.end) for e in feed.bootstrap()}
        for batch in feed.batches(20, 7):
            for mutation in batch.mutations:
                code = (mutation.element.start, mutation.element.end)
                if mutation.op == "insert":
                    assert code not in live
                    live.add(code)
                elif mutation.op == "delete":
                    assert code in live
                    live.remove(code)
                else:
                    new = (
                        mutation.replacement.start,
                        mutation.replacement.end,
                    )
                    assert code in live and new not in live
                    live.remove(code)
                    live.add(new)
        assert feed.live_size == len(live)

    def test_empty_pool_rejected(self):
        with pytest.raises(StreamError, match="non-empty pool"):
            MutationFeed([], seed=0)

    def test_duplicate_codes_rejected(self):
        element = Element("a", 1, 3)
        with pytest.raises(StreamError, match="duplicate region codes"):
            MutationFeed([element, Element("d", 1, 3)], seed=0)

    def test_bad_initial_fraction(self):
        with pytest.raises(StreamError, match="initial_fraction"):
            MutationFeed(_pool(), seed=0, initial_fraction=1.5)

    def test_bad_weights(self):
        with pytest.raises(StreamError, match="bad op weights"):
            MutationFeed(_pool(), seed=0, weights=(1.0, 1.0))
        with pytest.raises(StreamError, match="bad op weights"):
            MutationFeed(_pool(), seed=0, weights=(0.0, 0.0, 0.0))

    def test_negative_batch_size(self):
        with pytest.raises(StreamError, match="batch size"):
            MutationFeed(_pool(), seed=0).next_batch(-1)

    def test_mutation_validation(self):
        element = Element("a", 1, 3)
        with pytest.raises(StreamError, match="unknown mutation op"):
            Mutation("upsert", element)
        with pytest.raises(StreamError, match="replacement"):
            Mutation("insert", element, replacement=Element("a", 5, 7))
        with pytest.raises(StreamError, match="replacement"):
            Mutation("update", element)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: Mutation("insert", "x"), id="insert-str"),
            pytest.param(lambda: Mutation("delete", None), id="delete-none"),
            pytest.param(
                lambda: Mutation("update", Element("a", 1, 3), (5, 7)),
                id="update-tuple-replacement",
            ),
        ],
    )
    def test_mutation_takes_elements(self, make):
        with pytest.raises(StreamError, match="must be an Element"):
            make()

    @pytest.mark.parametrize(
        "pool", [5, ["x"], [Element("a", 1, 3), (5, 7)]], ids=repr
    )
    def test_pool_must_hold_elements(self, pool):
        with pytest.raises(StreamError, match="Element"):
            MutationFeed(pool, seed=1)

    def test_batch_len_and_index(self):
        feed = MutationFeed(_pool(), seed=0)
        first = feed.next_batch(4)
        second = feed.next_batch(2)
        assert (len(first), first.index) == (4, 0)
        assert (len(second), second.index) == (2, 1)


class TestLiveWorkspace:
    def test_apply_updates_population(self):
        feed = MutationFeed(_pool(), seed=11)
        live = LiveWorkspace(WORKSPACE, elements=feed.bootstrap(), seed=11)
        before = live.size()
        batch = feed.next_batch(10)
        seq = live.apply(batch)
        assert seq == 1 and live.applied_seq == 1
        delta = sum(
            {"insert": 1, "delete": -1, "update": 0}[m.op]
            for m in batch.mutations
        )
        assert live.size() == before + delta
        assert live.applied_mutations == 10

    def test_ingest_defers_apply_catches_up(self):
        clock = FakeClock()
        live = LiveWorkspace(
            WORKSPACE, elements=_pool(), seed=0, clock=clock
        )
        seq = live.ingest([Mutation("delete", Element("a", 1, 9))])
        assert live.pending_batches == 1
        assert live.applied_seq == 0 and live.ingest_seq == seq == 1
        clock.now = 2.0
        assert live.staleness_s() == pytest.approx(2.0)
        assert live.apply_pending() == 1
        assert live.staleness_s() == 0.0
        assert live.applied_seq == 1

    def test_staleness_of_snapshot(self):
        clock = FakeClock()
        live = LiveWorkspace(
            WORKSPACE, elements=_pool(), seed=0, clock=clock
        )
        __, seq = live.snapshot("a", "d")
        assert live.staleness_of(seq) == 0.0
        clock.now = 1.0
        live.ingest([Mutation("delete", Element("a", 1, 9))])
        clock.now = 4.0
        # The snapshot misses the batch ingested at t=1.
        assert live.staleness_of(seq) == pytest.approx(3.0)
        live.apply_pending()
        assert live.staleness_of(live.applied_seq) == 0.0

    def test_snapshot_is_stable_until_write(self):
        live = LiveWorkspace(WORKSPACE, elements=_pool(), seed=0)
        (first, __), __seq = live.snapshot("a", "d"), None
        assert live.node_set("a") is first[0]
        before = live.rebuild_node_set("a")
        live.apply(
            [
                Mutation("delete", Element("a", 1, 9)),
                Mutation("insert", Element("a", 0, 10)),
                Mutation("update", Element("a", 21, 29), Element("a", 22, 30)),
            ]
        )
        assert live.node_set("a") is not first[0]
        # The snapshot owns its arrays: the write, which changed the
        # tag's buffers in place, left its codes and (first computed
        # only now) fingerprint as of before the write.
        assert np.array_equal(first[0].starts, before.starts)
        assert np.array_equal(first[0].ends, before.ends)
        assert first[0].fingerprint == before.fingerprint
        assert first[0].fingerprint != live.fingerprint("a")

    def test_unknown_tag(self):
        live = LiveWorkspace(WORKSPACE, elements=_pool(), seed=0)
        with pytest.raises(StreamError, match="unknown tag 'missing'"):
            live.node_set("missing")

    def test_out_of_workspace_mutation(self):
        live = LiveWorkspace(Workspace(0, 50), seed=0)
        with pytest.raises(StreamError, match="outside workspace"):
            live.apply([Mutation("insert", Element("a", 60, 70))])

    def test_update_moves_element_between_tags(self):
        live = LiveWorkspace(WORKSPACE, elements=_pool(), seed=0)
        old = Element("a", 1, 9)
        new = Element("d", 901, 903)
        live.apply([Mutation("update", old, new)])
        assert live.rebuild_node_set("a").elements.count(old) == 0
        assert new in live.rebuild_node_set("d").elements

    @pytest.mark.parametrize(
        ("workspace", "elements"),
        [
            pytest.param((0, 100), (), id="workspace-tuple"),
            pytest.param(Workspace(0, 100), 5, id="elements-int"),
            pytest.param(Workspace(0, 100), ["x"], id="elements-str"),
            pytest.param(
                Workspace(0, 100), [Element("a", 1, 9), None], id="element-none"
            ),
        ],
    )
    def test_type_confused_construction_is_typed(self, workspace, elements):
        with pytest.raises(StreamError):
            LiveWorkspace(workspace, elements=elements)

    @pytest.mark.parametrize(
        "read",
        [
            pytest.param(lambda live: live.snapshot(["a"]), id="snapshot-list"),
            pytest.param(lambda live: live.snapshot("a", 5), id="snapshot-int"),
            pytest.param(lambda live: live.node_set(None), id="node-set-none"),
            pytest.param(lambda live: live.size(["a"]), id="size-list"),
        ],
    )
    def test_tag_must_be_a_string(self, read):
        live = LiveWorkspace(WORKSPACE, elements=_pool())
        with pytest.raises(StreamError, match="tag must be a string"):
            read(live)

    @pytest.mark.parametrize("keyword", ["num_cells", "reservoir_capacity"])
    def test_synopsis_keywords_are_gone(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            LiveWorkspace(WORKSPACE, **{keyword: 8})

    def test_num_buckets_and_seed_are_ignored(self):
        plain = LiveWorkspace(WORKSPACE, elements=_pool())
        tuned = LiveWorkspace(
            WORKSPACE, elements=_pool(), num_buckets=8, seed=3
        )
        assert tuned.stats() == plain.stats()
        assert tuned.fingerprint("a") == plain.fingerprint("a")

    def test_stats_shape(self):
        live = LiveWorkspace(
            WORKSPACE, elements=_pool(), seed=0, tenant="t0"
        )
        live.apply([Mutation("delete", Element("a", 1, 9))])
        stats = live.stats()
        assert stats["tenant"] == "t0"
        assert stats["tags"]["a"]["deletes"] == 1
        assert stats["live_elements"] == live.size()
        assert stats["applied_batches"] == 1


def _population(live: LiveWorkspace) -> dict[str, list[tuple[int, int]]]:
    return {
        tag: [(e.start, e.end) for e in live.rebuild_node_set(tag).elements]
        for tag in live.tags()
    }


def _fingerprints(live: LiveWorkspace) -> dict[str, str]:
    return {tag: live.fingerprint(tag) for tag in live.tags()}


class TestBatchAtomicity:
    """A batch applies whole or not at all; bad elements never queue."""

    def _live(self):
        return LiveWorkspace(
            Workspace(0, 50),
            elements=[Element("a", 1, 10), Element("a", 11, 20)],
            seed=0,
        )

    def test_out_of_workspace_update_rejected_before_queue(self):
        live = self._live()
        before = (_population(live), _fingerprints(live))
        with pytest.raises(StreamError, match="outside workspace"):
            live.apply(
                [Mutation("update", Element("a", 1, 10), Element("a", 60, 70))]
            )
        assert (_population(live), _fingerprints(live)) == before
        assert (live.ingest_seq, live.applied_seq) == (0, 0)
        assert live.pending_batches == 0

    def test_out_of_workspace_bootstrap_rejected(self):
        with pytest.raises(StreamError, match="bootstrap element"):
            LiveWorkspace(Workspace(0, 50), elements=[Element("a", 40, 60)])

    def test_string_codes_fail_bootstrap_typed(self):
        """``Element("a", "1", "2")`` passes its own ``start < end``
        check; the workspace-bounds check must not be what refuses it."""
        with pytest.raises(StreamError, match="not a number: str"):
            LiveWorkspace(Workspace(0, 100), elements=[Element("a", "1", "2")])

    @pytest.mark.parametrize(
        "mutation",
        [
            pytest.param(
                Mutation("insert", Element("b", "3", "4")), id="insert"
            ),
            pytest.param(
                Mutation(
                    "update", Element("a", 1, 10), Element("a", "3", "4")
                ),
                id="update-replacement",
            ),
        ],
    )
    def test_string_codes_rejected_before_queue(self, mutation):
        live = self._live()
        live.ingest([Mutation("insert", Element("a", 21, 30))])
        before = (_population(live), _fingerprints(live))
        with pytest.raises(StreamError, match="not a number: str"):
            live.ingest([Mutation("delete", Element("a", 11, 20)), mutation])
        assert live.pending_batches == 1
        assert (live.ingest_seq, live.applied_seq) == (1, 0)
        assert (_population(live), _fingerprints(live)) == before
        assert live.apply_pending() == 1
        assert _population(live) == {"a": [(1, 10), (11, 20), (21, 30)]}

    @pytest.mark.parametrize("batch", [5, None, 1.5], ids=repr)
    def test_non_iterable_batch_rejected_before_queue(self, batch):
        live = self._live()
        with pytest.raises(StreamError, match="iterable of Mutations"):
            live.ingest(batch)
        assert live.pending_batches == 0
        assert (live.ingest_seq, live.applied_seq) == (0, 0)

    #: Region codes an int64 buffer cannot hold, each in a workspace
    #: that admits it.
    NOT_INT64 = [
        pytest.param(Workspace(0, 100), Element("a", 10.5, 20), id="float"),
        pytest.param(
            Workspace(0, 2**64), Element("a", 2**63, 2**63 + 5), id="start"
        ),
        pytest.param(Workspace(0, 2**64), Element("a", 30, 2**63), id="end"),
    ]

    @pytest.mark.parametrize(("workspace", "element"), NOT_INT64)
    def test_code_not_an_int64_fails_bootstrap(self, workspace, element):
        with pytest.raises(StreamError, match="not an int64"):
            LiveWorkspace(
                workspace, elements=[Element("a", 1, 9), element], seed=0
            )

    @pytest.mark.parametrize(("workspace", "element"), NOT_INT64)
    def test_code_not_an_int64_rejects_its_batch(self, workspace, element):
        live = LiveWorkspace(
            workspace,
            elements=[Element("a", 1, 9), Element("a", 40, 50)],
            seed=0,
        )
        served = live.node_set("a")
        before = (_population(live), _fingerprints(live))
        batch = [
            Mutation("delete", Element("a", 40, 50)),
            Mutation("insert", Element("b", 60, 70)),
            Mutation("insert", element),
        ]
        with pytest.raises(
            StreamError, match=r"batch 1 rejected.*not an int64"
        ):
            live.apply(batch)
        assert (_population(live), _fingerprints(live)) == before
        assert live.tags() == ["a"] and live.node_set("a") is served
        assert live.stats()["rejected_batches"] == 1
        # The tag stays readable, through the service as well.
        live.apply([Mutation("insert", Element("a", 20, 30))])
        assert live.node_set("a").starts.tolist() == [1, 20, 40]
        with EstimationService(live=live, workers=0) as service:
            response = service.estimate("a", "a", "PL", num_buckets=4)
        rebuilt = live.rebuild_node_set("a")
        direct = repro.estimate(rebuilt, rebuilt, "PL", num_buckets=4)
        assert response.status == "ok"
        assert response.estimate.value == direct.value

    def test_failed_batch_is_undone_whole(self):
        live = self._live()
        cache = SummaryCache()
        live.attach_caches(cache)
        served = live.node_set("a")
        cache.put(("summary", served.fingerprint), "warm")
        before = (_population(live), _fingerprints(live))
        batch = [
            Mutation("delete", Element("a", 1, 10)),
            Mutation("delete", Element("a", 30, 40)),  # not live
            Mutation("delete", Element("a", 11, 20)),
        ]
        with pytest.raises(StreamError, match=r"batch 1 rejected.*non-live"):
            live.apply(batch)
        assert (_population(live), _fingerprints(live)) == before
        assert live.node_set("a") is served
        assert cache.peek(("summary", served.fingerprint)) == "warm"
        # The rejected batch is dropped, not left to block later ones.
        assert live.applied_seq == 1 and live.pending_batches == 0
        assert live.staleness_s() == 0.0
        assert (live.applied_batches, live.applied_mutations) == (0, 0)
        assert live.stats()["tags"]["a"]["deletes"] == 0
        assert live.stats()["rejected_batches"] == 1
        assert live.apply([Mutation("delete", Element("a", 11, 20))]) == 2
        assert _population(live) == {"a": [(1, 10)]}

    def test_failed_batch_drops_tags_it_created(self):
        live = self._live()
        batch = [
            Mutation("update", Element("a", 1, 10), Element("b", 21, 29)),
            Mutation("insert", Element("a", 11, 19)),  # duplicate start
        ]
        with pytest.raises(StreamError, match="duplicate insert"):
            live.apply(batch)
        assert live.tags() == ["a"]
        assert _population(live) == {"a": [(1, 10), (11, 20)]}

    def test_later_batches_stay_queued_after_a_rejection(self):
        live = self._live()
        live.ingest([Mutation("delete", Element("a", 30, 40))])
        live.ingest([Mutation("delete", Element("a", 1, 10))])
        with pytest.raises(StreamError, match="batch 1 rejected"):
            live.apply_pending()
        assert live.applied_seq == 1 and live.pending_batches == 1
        assert live.apply_pending() == 1
        assert _population(live) == {"a": [(11, 20)]}


class TestFingerprintInvalidation:
    """Writes bump fingerprints; stale cache entries can never serve."""

    def test_mutation_bumps_fingerprint(self):
        for seed in range(5):
            feed = MutationFeed(_pool(), seed=seed)
            live = LiveWorkspace(
                WORKSPACE, elements=feed.bootstrap(), seed=seed
            )
            seen = {tag: {live.fingerprint(tag)} for tag in live.tags()}
            for batch in feed.batches(8, 5):
                touched = {m.element.tag for m in batch.mutations} | {
                    m.replacement.tag
                    for m in batch.mutations
                    if m.replacement is not None
                }
                live.apply(batch)
                for tag in touched:
                    fingerprint = live.fingerprint(tag)
                    assert fingerprint not in seen[tag], (
                        f"fingerprint reused after write to {tag!r}"
                    )
                    seen[tag].add(fingerprint)

    def test_attached_cache_drops_old_fingerprint_entries(self):
        cache = SummaryCache()
        live = LiveWorkspace(WORKSPACE, elements=_pool(), seed=0)
        live.attach_caches(cache, None)  # None entries are ignored
        old_fp = live.fingerprint("a")
        cache.put(("summary", old_fp), "stale-value")
        cache.put(("summary", "unrelated-fp"), "other-tenant")
        live.apply([Mutation("delete", Element("a", 1, 9))])
        assert live.invalidated_entries == 1
        assert ("summary", old_fp) not in cache
        assert cache.peek(("summary", "unrelated-fp")) == "other-tenant"
        assert not any(old_fp in key for key in list(cache._data))

    def test_post_mutation_estimates_never_stale(self):
        """Property: a served estimate always reflects the live data."""
        from repro.api import estimate as reference_estimate

        feed = MutationFeed(_pool(40), seed=13)
        live = LiveWorkspace(
            WORKSPACE, elements=feed.bootstrap(), num_buckets=8, seed=13
        )
        service = EstimationService(live=live, workers=0, memoize=False)
        try:
            for batch in feed.batches(10, 8):
                live.apply(batch)
                response = service.estimate(
                    "a", "d", "PL", workspace=WORKSPACE, num_buckets=8
                )
                expected = reference_estimate(
                    live.rebuild_node_set("a"),
                    live.rebuild_node_set("d"),
                    "PL",
                    workspace=WORKSPACE,
                    num_buckets=8,
                )
                assert response.estimate.value == pytest.approx(
                    expected.value, rel=1e-12
                )
        finally:
            service.close()

    def test_co_tenant_entries_survive_churn(self):
        cache = SummaryCache()
        store = CatalogStore()
        store.attach_caches(cache)
        alpha = store.create("alpha", WORKSPACE, elements=_pool())
        beta = store.create(
            "beta", WORKSPACE, elements=_pool(offset=500)
        )
        beta_fp = beta.fingerprint("a")
        cache.put(("summary", beta_fp), "beta-entry")
        cache.get_or_build(("summary", beta_fp), lambda: "never")
        hits_before = cache.hits
        toggle = Element("a", 1, 9)
        live_now = True  # toggle is in alpha's bootstrap population
        for __ in range(6):
            op = "delete" if live_now else "insert"
            alpha.apply([Mutation(op, toggle)])
            live_now = not live_now
            alpha.node_set("a")  # materialize so the next write drops it
        # Churn invalidated alpha's own fingerprints only: the
        # co-tenant's entry survives with its hit counter untouched.
        assert alpha.invalidated_entries == 0  # no alpha entries cached
        assert cache.hits == hits_before  # churn never read beta's key
        assert cache.peek(("summary", beta_fp)) == "beta-entry"
        assert ("summary", beta_fp) in cache

    def test_service_churn_leaves_co_tenant_cached(self):
        """Churning one tenant through the service drops none of the
        other tenant's summaries: its re-read is a cache hit, bit-equal."""
        alpha_feed = MutationFeed(_pool(40), seed=3)
        store = CatalogStore()
        alpha = store.create(
            "alpha", WORKSPACE, elements=alpha_feed.bootstrap(),
            num_buckets=8, seed=3,
        )
        beta = store.create(
            "beta", WORKSPACE, elements=_pool(40, offset=1000),
            num_buckets=8, seed=4,
        )
        beta_fps = {beta.fingerprint("a"), beta.fingerprint("d")}

        def beta_entries(cache):
            return {
                key: value
                for key, value in list(cache._data.items())
                if not beta_fps.isdisjoint(_key_tokens(key))
            }

        # memoize=False: a repeat read must reach the summary cache.
        with EstimationService(
            live=store, workers=0, memoize=False
        ) as service:
            cache = service.summary_cache

            def read(tenant):
                return service.estimate(
                    "a", "d", "PL", num_buckets=8, tenant=tenant
                )

            # Each read is made twice: a summary is stored on its
            # second miss.
            read("beta")
            before = read("beta")
            entries = beta_entries(cache)
            for batch in alpha_feed.batches(6, 5):
                alpha.apply(batch)
                read("alpha")
                read("alpha")
            survivors = beta_entries(cache)
            hits = cache.hits
            after = read("beta")
            assert cache.hits > hits
        assert entries and survivors.keys() == entries.keys()
        assert all(survivors[key] is entries[key] for key in entries)
        assert after.estimate.value == before.estimate.value
        assert alpha.invalidated_entries > 0


class TestCacheDetach:
    """A closed service's caches leave the live store it served."""

    def test_open_close_cycles_keep_only_the_open_caches(self):
        store = CatalogStore()
        alpha = store.create(
            "alpha", WORKSPACE, elements=_pool(), num_buckets=8
        )
        beta = store.create(
            "beta", WORKSPACE, elements=_pool(offset=500), num_buckets=8
        )
        toggle = Element("a", 1, 9)
        live_now = True  # toggle is in alpha's bootstrap population
        closed: list[SummaryCache] = []
        for __ in range(5):
            service = EstimationService(
                live=store, workers=0, memoize=False
            )
            caches = (service.summary_cache, service.index_cache)
            for holder in (store, alpha, beta):
                assert len(holder._caches) == 2
                assert all(a is b for a, b in zip(holder._caches, caches))
            for __ in range(2):  # a summary is stored on its second miss
                response = service.estimate(
                    "a", "d", "PL", num_buckets=8, tenant="alpha"
                )
                assert response.status == "ok"
            # Entries a still-attached closed cache would have dropped.
            fingerprint = alpha.fingerprint("a")
            for cache in closed:
                cache.put(("probe", fingerprint), 1)
            dropped_before = [cache.invalidations for cache in closed]
            alpha.apply(
                [Mutation("delete" if live_now else "insert", toggle)]
            )
            live_now = not live_now
            assert service.summary_cache.invalidations > 0
            assert [c.invalidations for c in closed] == dropped_before
            assert all(("probe", fingerprint) in c for c in closed)
            service.close()
            closed.extend(caches)
        for holder in (store, alpha, beta):
            assert holder._caches == ()

    def test_closed_caches_are_not_kept_alive(self):
        import gc
        import weakref

        live = LiveWorkspace(WORKSPACE, elements=_pool(), seed=0)
        refs = []
        for __ in range(3):
            service = EstimationService(live=live, workers=0)
            service.estimate("a", "d", "PL", num_buckets=8)
            refs.append(weakref.ref(service.summary_cache))
            service.close()
            del service
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert live._caches == ()

    def test_store_attach_skips_held_caches(self):
        cache = SummaryCache()
        store = CatalogStore()
        store.attach_caches(cache, cache, None)
        store.attach_caches(cache)
        alpha = store.create("alpha", WORKSPACE, elements=_pool())
        assert len(store._caches) == 1 and len(alpha._caches) == 1
        store.detach_caches(cache)
        assert store._caches == () and alpha._caches == ()
        store.detach_caches(cache, None)  # not attached: ignored


class TestServiceLiveWiring:
    def _service(self, clock=None, **kwargs):
        live = LiveWorkspace(
            WORKSPACE,
            elements=_pool(40),
            num_buckets=8,
            seed=5,
            clock=clock or FakeClock(),
        )
        service = EstimationService(
            live=live,
            workers=0,
            memoize=False,
            clock=clock or live._clock,
            **kwargs,
        )
        return service, live

    def test_string_operands_resolve_and_disclose(self):
        service, live = self._service()
        try:
            response = service.estimate("a", "d", "PL", num_buckets=8)
            assert response.staleness_s == 0.0
            assert response.applied_seq == live.applied_seq
            assert live.estimates_served == 1
        finally:
            service.close()

    def test_stale_snapshot_degrades(self):
        clock = FakeClock()
        service, live = self._service(clock=clock)
        try:
            future = service.submit(
                "a", "d", "PL", num_buckets=8, max_staleness_s=0.5
            )
            live.ingest([Mutation("delete", Element("a", 1, 9))])
            clock.now = 5.0
            service.help_drain((future,))
            response = future.result()
            assert response.degraded_reason == "stale"
            assert response.staleness_s > 0.5
            # Degrading IS the remedy: the violation counter tracks
            # only "ok" answers served over their bound.
            assert service.stats()["staleness_violations"] == 0
        finally:
            service.close()

    def test_fresh_snapshot_not_degraded(self):
        service, __ = self._service()
        try:
            response = service.estimate(
                "a", "d", "PL", num_buckets=8, max_staleness_s=0.5
            )
            assert response.degraded_reason != "stale"
            assert response.staleness_s == 0.0
        finally:
            service.close()

    def test_string_operand_without_live_rejected(self):
        service = EstimationService(workers=0)
        try:
            with pytest.raises(ServiceError, match="live workspace"):
                service.estimate("a", "d", "PL")
        finally:
            service.close()

    def test_tenant_mismatch_rejected(self):
        service, __ = self._service()
        try:
            with pytest.raises(ServiceError, match="elsewhere"):
                service.estimate("a", "d", "PL", tenant="elsewhere")
        finally:
            service.close()

    def test_multi_tenant_store_requires_tenant(self):
        store = CatalogStore()
        store.create("alpha", WORKSPACE, elements=_pool())
        store.create("beta", WORKSPACE, elements=_pool(offset=500))
        service = EstimationService(live=store, workers=0)
        try:
            with pytest.raises(ServiceError, match="tenant"):
                service.estimate("a", "d", "PL")
            response = service.estimate(
                "a", "d", "PL", tenant="beta", num_buckets=8
            )
            assert response.applied_seq == 0
        finally:
            service.close()

    def test_rejected_batch_does_not_fail_a_stale_read(self):
        """A writer's rejected batch is skipped and counted, never
        raised into the read whose staleness bound caught it up."""
        clock = FakeClock()
        service, live = self._service(clock=clock)
        try:
            live.ingest([Mutation("delete", Element("a", 30, 40))])
            live.ingest([Mutation("delete", Element("a", 1, 9))])
            clock.now = 5.0
            response = service.estimate(
                "a", "d", "PL", num_buckets=8, max_staleness_s=1.0
            )
            assert response.status == "ok"
            assert (response.applied_seq, response.staleness_s) == (2, 0.0)
            assert live.stats()["rejected_batches"] == 1
            # The valid batch ingested after the bad one was applied.
            assert live.size("a") == 39
            assert live.applied_batches == 1
        finally:
            service.close()

    def test_negative_max_staleness_rejected(self):
        service, __ = self._service()
        try:
            with pytest.raises(ServiceError, match="max_staleness_s"):
                service.estimate(
                    "a", "d", "PL", max_staleness_s=-1.0
                )
        finally:
            service.close()


class TestWireStalenessFields:
    def _operands(self):
        elements = _pool(10)
        ancestors = NodeSet(
            tuple(e for e in elements if e.tag == "a"), name="a"
        )
        descendants = NodeSet(
            tuple(e for e in elements if e.tag == "d"), name="d"
        )
        return ancestors, descendants

    @pytest.mark.parametrize("wire_format", ["binary", "json"])
    def test_request_round_trips_max_staleness(self, wire_format):
        ancestors, descendants = self._operands()
        request = EstimateRequest(
            ancestors,
            descendants,
            "PL",
            workspace=WORKSPACE,
            max_staleness_s=0.25,
        )
        decoded, detected = decode_request(
            encode_request(request, wire_format)
        )
        assert detected == wire_format
        assert decoded.max_staleness_s == 0.25

    def test_absent_max_staleness_means_no_bound(self):
        ancestors, descendants = self._operands()
        request = EstimateRequest(ancestors, descendants, "PL")
        decoded, __ = decode_request(encode_request(request))
        assert decoded.max_staleness_s is None

    @pytest.mark.parametrize("wire_format", ["binary", "json"])
    def test_response_round_trips_disclosure(self, wire_format):
        live = LiveWorkspace(
            WORKSPACE, elements=_pool(40), num_buckets=8, seed=5
        )
        service = EstimationService(live=live, workers=0, memoize=False)
        try:
            response = service.estimate("a", "d", "PL", num_buckets=8)
        finally:
            service.close()
        decoded = decode_response(encode_response(response, wire_format))
        assert decoded.staleness_s == response.staleness_s == 0.0
        assert decoded.applied_seq == response.applied_seq
        assert decoded.estimate.value == pytest.approx(
            response.estimate.value
        )


class TestCatalogStore:
    def test_create_get_contains_len(self):
        store = CatalogStore()
        alpha = store.create("alpha", WORKSPACE, elements=_pool())
        assert store.get("alpha") is alpha
        assert "alpha" in store and "missing" not in store
        assert len(store) == 1
        assert store.tenants() == ["alpha"]

    def test_duplicate_tenant_rejected(self):
        store = CatalogStore()
        store.create("alpha", WORKSPACE)
        with pytest.raises(StreamError, match="already exists"):
            store.create("alpha", WORKSPACE)

    def test_bad_tenant_name(self):
        store = CatalogStore()
        with pytest.raises(StreamError, match="tenant name"):
            store.create("no/slashes", WORKSPACE)

    @pytest.mark.parametrize("tenant", [5, None, b"alpha"], ids=repr)
    def test_tenant_name_must_be_a_string(self, tenant):
        store = CatalogStore()
        with pytest.raises(StreamError, match="tenant name"):
            store.create(tenant, WORKSPACE)
        assert store.tenants() == []

    @pytest.mark.parametrize(
        "keyword", ["num_cells", "reservoir_capacity", "clock", "elemnts"]
    )
    def test_unknown_create_keyword_is_typed(self, keyword):
        store = CatalogStore()
        store.create("alpha", WORKSPACE, elements=_pool())
        with pytest.raises(StreamError, match=repr(keyword)):
            store.create("beta", WORKSPACE, **{keyword: 4})
        assert store.tenants() == ["alpha"]
        store.create("beta", WORKSPACE, num_buckets=8, seed=3)
        assert store.tenants() == ["alpha", "beta"]

    @pytest.mark.parametrize(
        ("capacity", "buffer_capacity"),
        [(1, 0), (1, -3), (1, 2.5), (1, None), (2.5, 64), ("2", 64)],
        ids=repr,
    )
    def test_sizes_must_be_ints_of_at_least_one(
        self, tmp_path, capacity, buffer_capacity
    ):
        with pytest.raises(StreamError, match="must be an int >= 1"):
            CatalogStore(
                tmp_path, capacity=capacity, buffer_capacity=buffer_capacity
            )

    def test_unknown_tenant(self):
        store = CatalogStore()
        with pytest.raises(StreamError, match="unknown tenant"):
            store.get("ghost")

    def test_eviction_disabled_without_root(self):
        store = CatalogStore(capacity=1)
        store.create("alpha", WORKSPACE, elements=_pool())
        store.create("beta", WORKSPACE, elements=_pool(offset=500))
        # Both stay resident: no spill root, capacity is ignored.
        assert store.resident_tenants() == ["alpha", "beta"]
        with pytest.raises(StreamError, match="eviction disabled"):
            store.evict("alpha")

    def test_lru_spill_and_reload(self, tmp_path):
        store = CatalogStore(tmp_path, capacity=1)
        alpha = store.create(
            "alpha", WORKSPACE, elements=_pool(), num_buckets=8
        )
        alpha.apply([Mutation("delete", Element("a", 1, 9))])
        population = alpha.rebuild_node_set("a").elements
        applied = alpha.applied_seq
        store.create("beta", WORKSPACE, elements=_pool(offset=500))
        # alpha was the LRU victim and is now on disk.
        assert store.resident_tenants() == ["beta"]
        assert "alpha" in store and len(store) == 2
        assert (tmp_path / "alpha.rpro").exists()
        assert (tmp_path / "alpha.meta.json").exists()
        reloaded = store.get("alpha")
        assert reloaded.rebuild_node_set("a").elements == population
        assert reloaded.applied_seq == applied
        assert reloaded.applied_mutations == 1
        stats = store.stats()["tenants"]["alpha"]
        assert stats["spills"] == 1 and stats["loads"] == 1
        assert 0.0 <= stats["last_load_hit_ratio"] <= 1.0

    def test_reload_round_trips_estimates(self, tmp_path):
        from repro.api import estimate as reference_estimate

        store = CatalogStore(tmp_path, capacity=1)
        alpha = store.create(
            "alpha", WORKSPACE, elements=_pool(40), num_buckets=8
        )
        expected = reference_estimate(
            alpha.rebuild_node_set("a"),
            alpha.rebuild_node_set("d"),
            "PL",
            workspace=WORKSPACE,
            num_buckets=8,
        ).value
        store.create("beta", WORKSPACE, elements=_pool(offset=900))
        service = EstimationService(live=store, workers=0, memoize=False)
        try:
            response = service.estimate(
                "a",
                "d",
                "PL",
                tenant="alpha",
                workspace=WORKSPACE,
                num_buckets=8,
            )
            assert response.estimate.value == pytest.approx(
                expected, rel=1e-12
            )
        finally:
            service.close()

    def test_spill_keeps_levels_and_counters(self, tmp_path, monkeypatch):
        """A spill writes the stored elements (levels kept) and every
        counter, and builds no node set."""
        store = CatalogStore(tmp_path, capacity=1)
        elements = [Element("a", 1, 9, level=1), Element("d", 2, 5, level=2)]
        alpha = store.create("alpha", WORKSPACE, elements=elements)
        alpha.ingest([Mutation("delete", Element("a", 30, 40))])
        with pytest.raises(StreamError, match="batch 1 rejected"):
            alpha.apply_pending()
        built = []
        init, from_arrays = NodeSet.__init__, NodeSet.from_arrays.__func__

        def spy_init(self, *args, **kwargs):
            built.append("init")
            init(self, *args, **kwargs)

        def spy_from_arrays(cls, *args, **kwargs):
            built.append("from_arrays")
            return from_arrays(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(NodeSet, "__init__", spy_init)
            patch.setattr(NodeSet, "from_arrays", classmethod(spy_from_arrays))
            store.evict("alpha")
        assert built == []
        assert store.stats()["tenants"]["alpha"]["rejected_batches"] == 1
        reloaded = store.get("alpha")
        assert reloaded.rebuild_node_set("d").elements == (elements[1],)
        assert reloaded.rebuild_node_set("a").elements == (elements[0],)
        assert reloaded.stats()["rejected_batches"] == 1
        assert reloaded.applied_seq == 1

    def test_spill_drains_past_a_rejected_batch(self, tmp_path):
        """A writer's rejected batch in one tenant neither fails another
        tenant's create() nor keeps the store over capacity."""
        store = CatalogStore(tmp_path, capacity=1)
        alpha = store.create("alpha", WORKSPACE, elements=_pool())
        alpha.ingest([Mutation("delete", Element("a", 30, 40))])  # not live
        alpha.ingest([Mutation("insert", Element("a", 45, 46))])
        store.create("beta", WORKSPACE, elements=_pool(offset=500))
        assert store.resident_tenants() == ["beta"]
        assert store.stats()["tenants"]["alpha"]["rejected_batches"] == 1
        reloaded = store.get("alpha")
        assert reloaded.pending_batches == 0
        assert reloaded.applied_seq == 2 and reloaded.applied_batches == 1
        assert reloaded.stats()["rejected_batches"] == 1
        assert (45, 46) in _population(reloaded)["a"]

    def test_touch_order_controls_victim(self, tmp_path):
        store = CatalogStore(tmp_path, capacity=2)
        store.create("alpha", WORKSPACE, elements=_pool())
        store.create("beta", WORKSPACE, elements=_pool(offset=500))
        store.get("alpha")  # beta becomes LRU
        store.create("gamma", WORKSPACE, elements=_pool(offset=800))
        assert sorted(store.resident_tenants()) == ["alpha", "gamma"]
        assert "beta" in store  # spilled, not lost


class TestServiceLifecycle:
    """Many service start/stop cycles over a spilling store leak
    nothing: threads, attached caches, file handles or spill files."""

    def test_hundred_cycles_leak_nothing(self, tmp_path):
        store = CatalogStore(tmp_path, capacity=1)
        store.create("alpha", WORKSPACE, elements=_pool())
        store.create("beta", WORKSPACE, elements=_pool(offset=500))
        fd_dir = "/proc/self/fd"
        fds = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
        threads = threading.active_count()
        for __ in range(100):
            with EstimationService(live=store) as service:
                for tenant in ("alpha", "beta"):
                    response = service.estimate(
                        "a", "d", "PL", tenant=tenant, num_buckets=8
                    )
                    assert response.status == "ok"
        assert threading.active_count() == threads
        assert store._caches == ()
        assert all(
            store.get(tenant)._caches == ()
            for tenant in store.resident_tenants()
        )
        if fds is not None:
            assert len(os.listdir(fd_dir)) <= fds
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "alpha.meta.json",
            "alpha.rpro",
            "beta.meta.json",
            "beta.rpro",
        ]
