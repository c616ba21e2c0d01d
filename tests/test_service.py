"""Tests for the estimation service layer (:mod:`repro.service`).

Covers the service contract end to end: request validation and batch
keys, queue coalescing, sequential-parity of service answers (the same
bit-exact estimate a direct ``repro.api.estimate`` call returns), result
memoization and in-flight deduplication, the degradation ladder under
injected faults and deadlines, load shedding, the circuit breaker, and
shutdown semantics.  Fault injection goes through the public
``estimator_factory`` hook — no monkeypatching of internals.
"""

from __future__ import annotations

import collections
import time

import pytest

import repro
from repro import api
from repro.core.errors import (
    DeadlineExceededError,
    InvalidNodeSetError,
    ServiceError,
    UnknownEstimatorError,
)
from repro.datasets.workloads import ALL_WORKLOADS
from repro.estimators.base import Estimate
from repro.estimators.registry import make_estimator
from repro.experiments.data import get_dataset
from repro.experiments.sampling import SAMPLE_SWEEP
from repro.service import (
    LADDER,
    CircuitBreaker,
    EstimateRequest,
    EstimationService,
    RequestQueue,
)
from repro.service.request import ServiceFuture


def build_trace(repeats: int) -> list[EstimateRequest]:
    """The optimizer trace: every XMark Figure 8 query at every sample
    count, each configuration re-asked ``repeats`` times under its own
    fixed seed, round-robin as one optimization pass re-costs a join."""
    dataset = get_dataset("xmark", scale=0.05)
    requests = []
    for repeat in range(repeats):
        for qi, query in enumerate(ALL_WORKLOADS["xmark"]):
            ancestors, descendants = query.operands(dataset)
            for si, samples in enumerate(SAMPLE_SWEEP):
                requests.append(
                    EstimateRequest(
                        ancestors=ancestors,
                        descendants=descendants,
                        method="IM",
                        config={
                            "num_samples": samples,
                            "seed": qi * 1_000 + si * 10,
                        },
                        request_id=f"{query.id}-m{samples}-r{repeat}",
                    )
                )
    return requests


def _request(figure1_tree, **overrides):
    a, d = figure1_tree
    kwargs = dict(
        ancestors=a,
        descendants=d,
        method="IM",
        config={"num_samples": 10, "seed": 3},
    )
    kwargs.update(overrides)
    return EstimateRequest(**kwargs)


class _FailingFactory:
    """An ``estimator_factory`` that raises for the first ``fail`` calls."""

    def __init__(self, fail: int = 10**9):
        self.fail = fail
        self.calls = 0

    def __call__(self, method, **config):
        self.calls += 1
        if self.calls <= self.fail:
            raise RuntimeError("injected estimator fault")
        return make_estimator(method, **config)


class _FakeClock:
    """Injectable monotonic clock advanced explicitly by the test."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class _SlowFactory:
    """Wraps real estimators with a fixed pre-estimate delay.

    The delay advances the injected fake clock when one is given
    (deterministic under any CI load); otherwise it really sleeps.
    """

    def __init__(self, delay_s: float, clock: _FakeClock | None = None):
        self.delay_s = delay_s
        self.clock = clock

    def __call__(self, method, **config):
        inner = make_estimator(method, **config)
        delay_s = self.delay_s
        clock = self.clock

        class Slow:
            def estimate(self, a, d, workspace=None):
                if clock is not None:
                    clock.advance(delay_s)
                else:
                    time.sleep(delay_s)
                return inner.estimate(a, d, workspace)

        return Slow()


class TestEstimateRequest:
    def test_rejects_non_nodeset_operands(self, figure1_tree):
        a, __ = figure1_tree
        with pytest.raises(InvalidNodeSetError):
            EstimateRequest(ancestors=a, descendants=[1, 2, 3])

    def test_rejects_unknown_method(self, figure1_tree):
        a, d = figure1_tree
        with pytest.raises(UnknownEstimatorError):
            EstimateRequest(ancestors=a, descendants=d, method="NOPE")

    def test_resolves_alias_eagerly(self, figure1_tree):
        a, d = figure1_tree
        request = EstimateRequest(
            ancestors=a, descendants=d, method="im-da"
        )
        assert request.method == "IM"

    def test_rejects_nonpositive_deadline(self, figure1_tree):
        a, d = figure1_tree
        with pytest.raises(ServiceError):
            EstimateRequest(ancestors=a, descendants=d, deadline_s=0.0)

    def test_batch_signature_ignores_seed(self, figure1_tree):
        r1 = _request(figure1_tree, config={"num_samples": 10, "seed": 1})
        r2 = _request(figure1_tree, config={"num_samples": 10, "seed": 2})
        r3 = _request(figure1_tree, config={"num_samples": 25, "seed": 1})
        assert r1.batch_signature() == r2.batch_signature()
        assert r1.batch_signature() != r3.batch_signature()

    def test_result_key_none_for_unseeded_stochastic(self, figure1_tree):
        unseeded = _request(figure1_tree, config={"num_samples": 10})
        assert unseeded.result_key() is None
        seeded = _request(figure1_tree)
        assert seeded.result_key() is not None

    def test_result_key_for_deterministic_method(self, figure1_tree):
        pl = _request(figure1_tree, method="PL", config={"num_buckets": 5})
        assert pl.result_key() is not None

    def test_result_key_distinguishes_seeds(self, figure1_tree):
        r1 = _request(figure1_tree, config={"num_samples": 10, "seed": 1})
        r2 = _request(figure1_tree, config={"num_samples": 10, "seed": 2})
        assert r1.result_key() != r2.result_key()

    def test_request_ids_autogenerate_uniquely(self, figure1_tree):
        r1 = _request(figure1_tree)
        r2 = _request(figure1_tree)
        assert r1.request_id != r2.request_id


class TestRequestQueue:
    def test_coalesces_by_signature(self, figure1_tree):
        queue = RequestQueue()
        now = time.monotonic()
        same1 = ServiceFuture(_request(figure1_tree), now)
        other = ServiceFuture(
            _request(figure1_tree, config={"num_samples": 25, "seed": 3}),
            now,
        )
        same2 = ServiceFuture(
            _request(figure1_tree, config={"num_samples": 10, "seed": 9}),
            now,
        )
        for future in (same1, other, same2):
            assert queue.put(future)
        batch = queue.take_batch(max_batch=8, timeout=0.0)
        # The oldest group anchors the batch and collects its later
        # arrival, skipping the incompatible request queued between them.
        assert batch == [same1, same2]
        assert queue.take_batch(8, timeout=0.0) == [other]

    def test_max_batch_cap(self, figure1_tree):
        queue = RequestQueue()
        futures = [
            ServiceFuture(_request(figure1_tree), time.monotonic())
            for __ in range(5)
        ]
        for future in futures:
            queue.put(future)
        assert queue.take_batch(max_batch=3, timeout=0.0) == futures[:3]
        assert queue.take_batch(max_batch=3, timeout=0.0) == futures[3:]

    def test_refuses_when_full_or_closed(self, figure1_tree):
        queue = RequestQueue(maxsize=1)
        assert queue.put(
            ServiceFuture(_request(figure1_tree), time.monotonic())
        )
        assert not queue.put(
            ServiceFuture(_request(figure1_tree), time.monotonic())
        )
        queue.close()
        assert queue.take_batch(8, timeout=0.0)  # drains existing work
        assert queue.take_batch(8, timeout=0.0) == []

    def test_drain_empties_all_groups(self, figure1_tree):
        queue = RequestQueue()
        queue.put(ServiceFuture(_request(figure1_tree), time.monotonic()))
        queue.put(
            ServiceFuture(
                _request(
                    figure1_tree, config={"num_samples": 25, "seed": 3}
                ),
                time.monotonic(),
            )
        )
        assert len(queue.drain()) == 2
        assert len(queue) == 0


def _futures(figure1_tree, n):
    now = time.monotonic()
    return [
        ServiceFuture(
            _request(figure1_tree, config={"num_samples": 10, "seed": i}),
            now,
        )
        for i in range(n)
    ]


class TestPutMany:
    def test_admits_whole_burst_under_capacity(self, figure1_tree):
        queue = RequestQueue(maxsize=16)
        futures = _futures(figure1_tree, 10)
        assert queue.put_many(futures) == 10
        assert len(queue) == 10
        # The burst shares one signature: it drains as one batch.
        assert len(queue.take_batch(max_batch=32, timeout=0.0)) == 10

    def test_admits_prefix_at_capacity(self, figure1_tree):
        queue = RequestQueue(maxsize=4)
        futures = _futures(figure1_tree, 10)
        assert queue.put_many(futures) == 4
        assert len(queue) == 4
        queue.take_batch(max_batch=2, timeout=0.0)
        assert queue.put_many(futures[4:]) == 2

    def test_closed_queue_admits_nothing(self, figure1_tree):
        queue = RequestQueue(maxsize=4)
        queue.close()
        assert queue.put_many(_futures(figure1_tree, 3)) == 0


class TestSequentialParity:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_map_matches_sequential_estimates(self, figure1_tree, workers):
        trace = [
            _request(figure1_tree, config={"num_samples": n, "seed": s})
            for n in (10, 25)
            for s in (1, 2, 3)
        ]
        expected = [
            api.estimate(
                r.ancestors, r.descendants, r.method, **r.config
            ).value
            for r in trace
        ]
        with EstimationService(workers=workers) as service:
            responses = service.map(trace, timeout=30.0)
        assert [r.estimate.value for r in responses] == expected
        assert all(r.status == "ok" for r in responses)
        assert all(r.ladder_level == 0 for r in responses)
        assert [r.request_id for r in responses] == [
            r.request_id for r in trace
        ]

    def test_synchronous_estimate(self, figure1_tree):
        a, d = figure1_tree
        expected = api.estimate(a, d, "IM", num_samples=10, seed=3)
        with EstimationService(workers=0) as service:
            response = service.estimate(
                a, d, "IM", num_samples=10, seed=3, timeout=30.0
            )
        assert response.estimate.value == expected.value
        assert response.batch_size >= 1
        assert response.wait_s >= 0.0
        assert response.service_s >= response.wait_s

    def test_optimizer_trace_identity(self):
        trace = build_trace(repeats=2)
        expected = [
            api.estimate(
                r.ancestors, r.descendants, r.method, **r.config
            ).value
            for r in trace
        ]
        with EstimationService(workers=0, max_batch=32) as service:
            responses = service.map(trace, timeout=60.0)
        assert [r.estimate.value for r in responses] == expected


class TestMemoizationAndDedup:
    def test_repeat_seeded_requests_computed_once(self, figure1_tree):
        requests = [_request(figure1_tree) for __ in range(6)]
        with EstimationService(workers=0) as service:
            responses = service.map(requests, timeout=30.0)
            counters = service.stats()["counters"]
        values = {r.estimate.value for r in responses}
        assert len(values) == 1
        # One lead computed; the rest were deduplicated in flight.
        assert counters.get("service.inflight_hits", 0) == 5

    def test_memo_answers_after_settle(self, figure1_tree):
        with EstimationService(workers=0) as service:
            first = service.estimate(
                *figure1_tree, "IM", num_samples=10, seed=3, timeout=30.0
            )
            second = service.estimate(
                *figure1_tree, "IM", num_samples=10, seed=3, timeout=30.0
            )
            counters = service.stats()["counters"]
        assert second.estimate.value == first.estimate.value
        assert counters.get("service.memo_hits", 0) >= 1

    def test_unseeded_stochastic_never_memoized(self, figure1_tree):
        requests = [
            _request(figure1_tree, config={"num_samples": 10})
            for __ in range(4)
        ]
        with EstimationService(workers=0) as service:
            service.map(requests, timeout=30.0)
            counters = service.stats()["counters"]
        assert counters.get("service.memo_hits", 0) == 0
        assert counters.get("service.inflight_hits", 0) == 0

    def test_computed_request_stored_once(self, figure1_tree, monkeypatch):
        """A computed request writes its memo entry once (the wrapped
        insert only counts; nothing is injected)."""
        requests = [
            _request(figure1_tree, config={"num_samples": 10, "seed": seed})
            for seed in range(4)
        ]
        with EstimationService(workers=0) as service:
            memo = service._memo
            stores = collections.Counter()
            store = memo._store

            def counting_store(key, value, size):
                stores[key] += 1
                return store(key, value, size)

            monkeypatch.setattr(memo, "_store", counting_store)
            service.map(requests, timeout=30.0)
        assert list(stores.values()) == [1, 1, 1, 1]

    def test_fresh_memo_reports_its_size(self):
        """An empty memo is reported, not taken for a disabled one."""
        with EstimationService(workers=0) as service:
            memo = service.stats()["memo"]
        assert (memo["size"], memo["maxsize"]) == (0, 4096)
        with EstimationService(workers=0, memoize=False) as service:
            assert service.stats()["memo"] is None

    def test_memoize_false_disables_dedup(self, figure1_tree):
        requests = [_request(figure1_tree) for __ in range(3)]
        with EstimationService(workers=0, memoize=False) as service:
            responses = service.map(requests, timeout=30.0)
            counters = service.stats()["counters"]
        assert len({r.estimate.value for r in responses}) == 1  # same seed
        assert counters.get("service.memo_hits", 0) == 0
        assert counters.get("service.inflight_hits", 0) == 0


class TestBurstAdmission:
    """A burst is admitted whole: every key is derived before any lead
    registers, and a key no dict can hold is answered unmemoized."""

    def test_list_seed_in_a_burst_leaves_no_dead_lead(self, figure1_tree):
        good = _request(figure1_tree, config={"num_samples": 10, "seed": 1})
        bad = _request(
            figure1_tree, config={"num_samples": 10, "seed": [1, 2]}
        )
        with EstimationService(workers=0) as service:
            responses = service.map([good, bad], timeout=30.0)
            assert [r.status for r in responses] == ["ok", "ok"]
            assert service._inflight == {}
            again = service.estimate(
                *figure1_tree, "IM", num_samples=10, seed=1, timeout=5.0
            )
            counters = service.stats()["counters"]
        assert again.status == "ok"
        assert again.estimate.value == responses[0].estimate.value
        assert counters.get("service.memo_hits", 0) == 1

    def test_list_seed_matches_direct_unmemoized(self, xmark_small):
        a = xmark_small.node_set("listitem")
        d = xmark_small.node_set("text")
        expected = api.estimate(a, d, "IM", num_samples=20, seed=[1, 2])
        with EstimationService(workers=0) as service:
            values = [
                service.estimate(
                    a, d, "IM", num_samples=20, seed=[1, 2], timeout=30.0
                ).estimate.value
                for __ in range(2)
            ]
            counters = service.stats()["counters"]
            memo_size = service.stats()["memo"]["size"]
        assert values == [expected.value, expected.value]
        assert counters.get("service.memo_hits", 0) == 0
        assert counters.get("service.inflight_hits", 0) == 0
        assert memo_size == 0

    @pytest.mark.parametrize(
        "config",
        [
            {"num_samples": [10], "seed": 1},
            {"num_samples": [10]},  # unseeded: no memo key at all
            {"num_samples": [10], "seed": [1, 2]},
        ],
    )
    def test_unhashable_config_raises_typed(self, figure1_tree, config):
        good = _request(figure1_tree, config={"num_samples": 10, "seed": 1})
        bad = _request(figure1_tree, config=config)
        with EstimationService(workers=0) as service:
            with pytest.raises(ServiceError, match="unhashable"):
                service.map([good, bad], timeout=30.0)
            with pytest.raises(ServiceError, match="unhashable"):
                service.submit(request=bad)
            assert service._inflight == {}
            assert service.stats()["queue_depth"] == 0
            response = service.estimate(
                *figure1_tree, "IM", num_samples=10, seed=1, timeout=5.0
            )
        assert response.status == "ok"


class TestDegradation:
    def test_estimator_fault_degrades_to_bound(self, figure1_tree):
        with EstimationService(
            workers=0, estimator_factory=_FailingFactory()
        ) as service:
            response = service.estimate(*figure1_tree, "IM",
                                        num_samples=10, seed=3,
                                        timeout=30.0)
        assert response.status == "degraded"
        assert response.degraded
        assert response.degraded_reason == "error"
        assert response.ladder_name == "bound"
        assert response.estimate.estimator == "BOUND"
        # Figure 1: |A ⋈ D| = 6; the structural bound encloses it.
        assert response.estimate.value >= 6.0
        assert response.estimate.details["degraded_from"] == "IM"

    def test_expired_deadline_degrades_without_running(self, figure1_tree):
        clock = _FakeClock()
        with EstimationService(workers=0, clock=clock) as service:
            future = service.submit(
                *figure1_tree, "IM", num_samples=10, seed=3,
                deadline_s=0.001,
            )
            clock.advance(0.01)  # deadline passes while queued
            service.help_drain((future,))
            response = future.result(timeout=30.0)
        assert response.status == "degraded"
        assert response.degraded_reason == "deadline"
        assert response.deadline_missed
        assert response.ladder_name == "bound"

    def test_catalog_rung_used_when_operands_match(self, xmark_small):
        catalog = api.build_catalog(
            xmark_small, 400, tags=["item", "name"]
        )
        a = xmark_small.node_set("item")
        d = xmark_small.node_set("name")
        clock = _FakeClock()
        with EstimationService(
            workers=0, catalog=catalog, clock=clock
        ) as service:
            future = service.submit(
                a, d, "IM", num_samples=10, seed=3, deadline_s=0.001
            )
            clock.advance(0.01)
            service.help_drain((future,))
            response = future.result(timeout=30.0)
        assert response.status == "degraded"
        assert response.ladder_name == "catalog"
        assert response.ladder_level == LADDER.index("catalog")
        assert response.estimate.details["degraded_from"] == "IM"

    def test_catalog_rung_skipped_for_filtered_operand(self, xmark_small):
        catalog = api.build_catalog(
            xmark_small, 400, tags=["item", "name"]
        )
        from repro.core.nodeset import NodeSet

        a = xmark_small.node_set("item")
        d = xmark_small.node_set("name")
        filtered = NodeSet(list(d)[: len(d) // 2], name=d.name)
        clock = _FakeClock()
        with EstimationService(
            workers=0, catalog=catalog, clock=clock
        ) as service:
            future = service.submit(
                a, filtered, "IM", num_samples=10, seed=3,
                deadline_s=0.001,
            )
            clock.advance(0.01)
            service.help_drain((future,))
            response = future.result(timeout=30.0)
        # Whole-tag statistics must not answer for a filtered subset.
        assert response.ladder_name == "bound"

    def test_predicted_latency_degrades_upfront(self, figure1_tree):
        clock = _FakeClock()
        with EstimationService(
            workers=0,
            estimator_factory=_SlowFactory(0.05, clock=clock),
            clock=clock,
        ) as service:
            # Teach the breaker's EWMA that this method is slow.
            warm = service.estimate(*figure1_tree, "IM", num_samples=10,
                                    seed=3, timeout=30.0)
            assert warm.status == "ok"
            response = service.estimate(
                *figure1_tree, "IM", num_samples=10, seed=4,
                deadline_s=0.005, timeout=30.0,
            )
        assert response.status == "degraded"
        assert response.degraded_reason == "predicted"
        # Degraded pre-emptively, so the deadline itself was kept.
        assert not response.deadline_missed

    def test_chain_deadline_counts_from_admission(self, xmark_small):
        """A planned chain's pairs are admitted together: with a deadline
        between one and two pair latencies, the first pair answers and
        the later pairs degrade instead of stalling the pass."""
        clock = _FakeClock()
        sets = [
            xmark_small.node_set(tag)
            for tag in ("desp", "parlist", "listitem", "text")
        ]
        with EstimationService(
            workers=0,
            estimator_factory=_SlowFactory(0.05, clock=clock),
            clock=clock,
        ) as service:
            generator = service.cardinality_generator(
                "IM", deadline_s=0.075, num_samples=10, seed=3
            )
            repro.optimize(
                sets, generator, workspace=xmark_small.tree.workspace()
            )
            stats = service.stats()
        assert generator.requests == 3
        assert generator.degraded == 2
        assert stats["degraded_by"] == {"IM": {"predicted": 2}}
        assert stats["counters"]["service.deadline_miss"] == 0

    def test_every_stressed_request_is_answered(self, figure1_tree):
        requests = [
            _request(
                figure1_tree,
                config={"num_samples": 10, "seed": s},
                deadline_s=0.0005,
            )
            for s in range(30)
        ]
        with EstimationService(workers=0) as service:
            responses = service.map(requests, timeout=30.0)
        assert len(responses) == len(requests)
        for response in responses:
            assert response.estimate.value >= 0.0
            if response.degraded:
                assert response.status in ("degraded", "shed")
                assert response.degraded_reason is not None


class TestSheddingAndShutdown:
    def test_overload_sheds_inline(self, figure1_tree):
        requests = [
            _request(figure1_tree, config={"num_samples": 10 + i})
            for i in range(3)
        ]
        with EstimationService(workers=0, queue_size=1) as service:
            futures = [service.submit(request=r) for r in requests]
            shed = [f.result(30.0) for f in futures[1:]]
            service.help_drain(futures)
            first = futures[0].result(30.0)
        assert first.status == "ok"
        for response in shed:
            assert response.status == "shed"
            assert response.degraded_reason == "overload"
            assert response.estimate.estimator == "BOUND"

    def test_close_answers_queued_requests(self, figure1_tree):
        service = EstimationService(workers=0)
        future = service.submit(*figure1_tree, "IM", num_samples=10,
                                seed=3)
        service.close()
        response = future.result(timeout=30.0)
        assert response.status == "shed"
        assert response.degraded_reason == "shutdown"

    def test_submit_after_close_raises(self, figure1_tree):
        service = EstimationService(workers=0)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(*figure1_tree, "IM", num_samples=10, seed=3)

    def test_result_wait_timeout_raises(self, figure1_tree):
        with EstimationService(workers=0) as service:
            future = service.submit(*figure1_tree, "IM", num_samples=10,
                                    seed=3)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=0.01)
            service.help_drain((future,))
            assert future.result(timeout=30.0).status == "ok"


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=2, cooloff_s=60.0)
        assert breaker.state == "closed"
        breaker.record(0.01, ok=False)
        assert breaker.state == "closed"
        breaker.record(0.01, ok=False)
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_half_open_admits_single_probe(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(threshold=1, cooloff_s=0.01, clock=clock)
        breaker.record(0.01, ok=False)
        assert breaker.state == "open"
        clock.advance(0.02)
        assert breaker.state == "half-open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else keeps waiting
        breaker.record(0.01, ok=True)
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_ewma_tracks_latency(self):
        breaker = CircuitBreaker(alpha=0.5)
        breaker.record(0.1, ok=True)
        breaker.record(0.2, ok=True)
        assert breaker.predicted_latency() == pytest.approx(0.15)

    def test_open_breaker_degrades_deadline_requests(self, figure1_tree):
        factory = _FailingFactory(fail=2)
        with EstimationService(
            workers=0,
            estimator_factory=factory,
            breaker_threshold=2,
            breaker_cooloff_s=60.0,
        ) as service:
            # Two distinct no-deadline requests trip the breaker.
            for seed in (1, 2):
                response = service.estimate(
                    *figure1_tree, "IM", num_samples=10, seed=seed,
                    timeout=30.0,
                )
                assert response.degraded_reason == "error"
            assert service.stats()["breakers"]["IM"]["state"] == "open"
            response = service.estimate(
                *figure1_tree, "IM", num_samples=10, seed=3,
                deadline_s=10.0, timeout=30.0,
            )
        assert response.degraded_reason == "breaker"
        # The factory recovered, but the breaker short-circuited before
        # construction: only the two tripping calls ever reached it.
        assert factory.calls == 2


@pytest.mark.slow
class TestRealClockIntegration:
    """Wall-clock twins of the fake-clock tests above.

    Excluded from tier-1 (``-m "not slow"``); the nightly job runs them
    to confirm the injected-clock behavior matches real time.
    """

    def test_expired_deadline_real_clock(self, figure1_tree):
        with EstimationService(workers=0) as service:
            future = service.submit(
                *figure1_tree, "IM", num_samples=10, seed=3,
                deadline_s=0.001,
            )
            time.sleep(0.05)
            service.help_drain((future,))
            response = future.result(timeout=30.0)
        assert response.status == "degraded"
        assert response.degraded_reason == "deadline"
        assert response.deadline_missed

    def test_half_open_real_clock(self):
        breaker = CircuitBreaker(threshold=1, cooloff_s=0.02)
        breaker.record(0.01, ok=False)
        assert breaker.state == "open"
        time.sleep(0.05)
        assert breaker.state == "half-open"
        assert breaker.allow()
        assert not breaker.allow()


class TestResponseWireFormat:
    def test_to_dict_embeds_versioned_estimate(self, figure1_tree):
        with EstimationService(workers=0) as service:
            response = service.estimate(
                *figure1_tree, "IM", num_samples=10, seed=3, timeout=30.0
            )
        payload = response.to_dict()
        assert payload["schema_version"] == 1
        assert payload["status"] == "ok"
        assert payload["ladder_name"] == "requested"
        rebuilt = Estimate.from_dict(payload["estimate"])
        assert rebuilt.value == response.estimate.value
        assert rebuilt.estimator == response.estimate.estimator


class TestPublicSurface:
    def test_serve_facade(self, figure1_tree):
        with repro.serve(workers=0) as service:
            assert isinstance(service, EstimationService)
            response = service.estimate(
                *figure1_tree, "PL", num_buckets=5, timeout=30.0
            )
        expected = api.estimate(*figure1_tree, "PL", num_buckets=5)
        assert response.estimate.value == expected.value

    def test_service_types_reexported(self):
        for name in (
            "EstimationService",
            "EstimateRequest",
            "EstimateResponse",
            "serve",
        ):
            assert hasattr(repro, name)
            assert name in repro.__all__
            assert name in api.__all__
