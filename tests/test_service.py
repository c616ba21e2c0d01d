"""Tests for the estimation service layer (:mod:`repro.service`).

Covers the service contract end to end: request validation and batch
keys, how one burst is grouped into batches, sequential-parity of
service answers (the same bit-exact estimate a direct
``repro.api.estimate`` call returns), result memoization and in-burst
duplicates, the degradation ladder under injected faults and deadlines,
the circuit breaker, shutdown semantics, typed errors for malformed
fields, and client threads sharing one service.  Fault injection goes through the public
``estimator_factory`` hook — no monkeypatching of internals.
"""

from __future__ import annotations

import collections
import random
import sys
import threading
import time

import pytest

import repro
from repro import api
from repro.core.errors import (
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
    EstimateResponse,
    EstimationService,
)


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


class _SteppingClock(_FakeClock):
    """A fake clock that moves ``step`` seconds on every reading, so a
    request ages between its admission and its batch inside one call."""

    def __init__(self, step: float, start: float = 1000.0):
        super().__init__(start)
        self.step = step

    def __call__(self) -> float:
        now = self.now
        self.now += self.step
        return now


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


class TestSequentialParity:
    def test_map_matches_sequential_estimates(self, figure1_tree):
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
        with EstimationService() as service:
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
        # One computed; the other five were its in-burst duplicates.
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

    def test_memo_counts_one_lookup_per_request(self, figure1_tree):
        """A computed request looks the memo up once, at admission."""
        with EstimationService() as service:
            for seed in (1, 2, 3, 1):
                service.estimate(
                    *figure1_tree, "IM", num_samples=10, seed=seed
                )
            memo = service.stats()["memo"]
        assert (memo["hits"], memo["misses"]) == (1, 3)
        assert memo["hit_rate"] == 0.25

    def test_degraded_lead_hands_over_to_first_follower(self, figure1_tree):
        """A request whose deadline passes degrades alone: the three
        identical requests without a deadline are not its duplicates, so
        the first of them runs, in the same batch, and the other two
        share its full-fidelity answer."""
        clock = _SteppingClock(step=0.01)  # each reading ages the burst
        factory = _FailingFactory(fail=0)  # never fails; counts calls
        requests = [_request(figure1_tree, deadline_s=0.001)] + [
            _request(figure1_tree) for __ in range(3)
        ]
        with EstimationService(
            clock=clock, estimator_factory=factory
        ) as service:
            responses = service.map(requests)
            counters = service.stats()["counters"]
        assert responses[0].degraded_reason == "deadline"
        assert [r.status for r in responses[1:]] == ["ok"] * 3
        assert len({r.estimate.value for r in responses[1:]}) == 1
        assert factory.calls == 1
        assert counters["service.inflight_hits"] == 2
        assert counters["service.batches"] == 1
        assert [r.batch_size for r in responses] == [2] * 4

    def test_error_lead_shares_its_answer(self, figure1_tree):
        """An estimator error would recur for an identical request, so
        the first of five duplicates in a burst that degrades with
        reason "error" answers the other four: one attempt."""
        factory = _FailingFactory()  # always raises
        with EstimationService(estimator_factory=factory) as service:
            responses = service.map(
                [_request(figure1_tree) for __ in range(5)]
            )
            counters = service.stats()["counters"]
        assert factory.calls == 1
        assert {(r.status, r.degraded_reason) for r in responses} == {
            ("degraded", "error")
        }
        assert len({r.estimate.value for r in responses}) == 1
        assert len({r.request_id for r in responses}) == 5
        assert counters["service.estimator_errors"] == 1
        assert counters["service.degraded.error"] == 5
        assert counters["service.inflight_hits"] == 4
        assert counters["service.batches"] == 1

    def test_routed_burst_groups_its_duplicates(self, figure1_tree):
        """A routed burst admits one request at a time, yet its
        duplicates are grouped over the whole burst: three identical
        requests routed to one arm cost one computation."""
        calls = []

        def factory(method, **config):
            calls.append(method)
            return make_estimator(method, **config)

        with EstimationService(
            router="static", estimator_factory=factory
        ) as service:
            responses = service.map(
                [_request(figure1_tree) for __ in range(3)]
            )
            counters = service.stats()["counters"]
        assert [r.routed_method for r in responses] == ["PL"] * 3
        assert [r.status for r in responses] == ["ok"] * 3
        assert calls == ["PL"]
        assert counters["service.inflight_hits"] == 2
        assert counters["service.batches"] == 1

    def test_deadline_only_difference_is_not_a_duplicate(self, figure1_tree):
        """Two requests that differ only in ``deadline_s`` may be
        decided differently, so each runs."""
        factory = _FailingFactory(fail=0)  # never fails; counts calls
        requests = [
            _request(figure1_tree, deadline_s=deadline_s)
            for deadline_s in (10.0, 20.0)
        ]
        with EstimationService(estimator_factory=factory) as service:
            responses = service.map(requests)
            counters = service.stats()["counters"]
        assert [r.status for r in responses] == ["ok", "ok"]
        assert responses[0].estimate.value == responses[1].estimate.value
        assert factory.calls == 2
        assert counters.get("service.inflight_hits", 0) == 0
        assert counters["service.batches"] == 1

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
            response = service.estimate(
                *figure1_tree, "IM", num_samples=10, seed=1, timeout=5.0
            )
        assert response.status == "ok"

    def test_signature_groups_run_in_first_arrival_order(self, figure1_tree):
        """A burst's batch-signature groups run in first-arrival order,
        each cut into ``max_batch`` chunks with requests in arrival
        order: A, B, A, B, A runs as [A, A], [A], [B, B]."""
        samples = {"A": 10, "B": 25}
        labels = ["A", "B", "A", "B", "A"]
        requests = [
            _request(
                figure1_tree,
                config={"num_samples": samples[label], "seed": seed},
                request_id=f"{label}{seed}",
            )
            for seed, label in enumerate(labels, start=1)
        ]
        with EstimationService(max_batch=2) as service:
            batches = []
            execute = service._execute_batch

            def recording(batch):
                batches.append([f.request.request_id for f in batch])
                return execute(batch)

            service._execute_batch = recording
            responses = service.map(requests)
        assert batches == [["A1", "A3"], ["A5"], ["B2", "B4"]]
        assert [r.batch_size for r in responses] == [2, 2, 2, 2, 1]
        assert [r.request_id for r in responses] == [
            r.request_id for r in requests
        ]


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
        clock = _SteppingClock(step=0.01)  # the deadline passes in-call
        factory = _FailingFactory(fail=0)  # never fails; counts calls
        with EstimationService(
            workers=0, clock=clock, estimator_factory=factory
        ) as service:
            response = service.estimate(
                *figure1_tree, "IM", num_samples=10, seed=3,
                deadline_s=0.001,
            )
        assert factory.calls == 0
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
        clock = _SteppingClock(step=0.01)
        with EstimationService(
            workers=0, catalog=catalog, clock=clock
        ) as service:
            response = service.estimate(
                a, d, "IM", num_samples=10, seed=3, deadline_s=0.001
            )
        assert response.status == "degraded"
        assert response.degraded_reason == "deadline"
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
        clock = _SteppingClock(step=0.01)
        with EstimationService(
            workers=0, catalog=catalog, clock=clock
        ) as service:
            response = service.estimate(
                a, filtered, "IM", num_samples=10, seed=3,
                deadline_s=0.001,
            )
        # Whole-tag statistics must not answer for a filtered subset.
        assert response.degraded_reason == "deadline"
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
                assert response.status == "degraded"
                assert response.degraded_reason is not None


class TestSheddingAndShutdown:
    def test_submit_after_close_raises(self, figure1_tree):
        service = EstimationService(workers=0)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(*figure1_tree, "IM", num_samples=10, seed=3)

    @pytest.mark.parametrize("router", [None, "static"])
    def test_every_entry_point_raises_after_close(self, figure1_tree, router):
        """A closed service refuses every call, an empty burst too
        (a routed one used to return [])."""
        from repro.service import wire

        request = _request(figure1_tree)
        service = EstimationService(router=router)
        service.close()
        for call in (
            lambda: service.map([]),
            lambda: service.map([request]),
            lambda: service.submit(request=request),
            lambda: service.estimate(*figure1_tree, "PL", num_buckets=4),
            lambda: service.estimate_wire(wire.encode_request(request)),
        ):
            with pytest.raises(ServiceError, match="closed"):
                call()

    def test_escaping_error_leaves_nothing_in_flight(self, figure1_tree):
        """An error no estimator guard catches propagates out of the
        call that ran it, ``submit`` or ``map``, and leaves nothing
        behind: the next call is answered."""

        class Escaping(BaseException):
            pass

        calls = []

        def factory(method, **config):
            calls.append(method)
            if len(calls) <= 2:
                raise Escaping
            return make_estimator(method, **config)

        expected = api.estimate(*figure1_tree, "IM", num_samples=10, seed=3)
        with EstimationService(estimator_factory=factory) as service:
            with pytest.raises(Escaping):
                service.submit(*figure1_tree, "IM", num_samples=10, seed=3)
            with pytest.raises(Escaping):
                service.map([_request(figure1_tree) for __ in range(2)])
            response = service.estimate(
                *figure1_tree, "IM", num_samples=10, seed=3
            )
        assert calls == ["IM"] * 3
        assert response.status == "ok"
        assert response.estimate.value == expected.value

    def test_result_runs_its_own_request(self, figure1_tree):
        """``submit`` answers its request before it returns."""
        expected = api.estimate(*figure1_tree, "IM", num_samples=10, seed=3)
        with EstimationService() as service:
            future = service.submit(*figure1_tree, "IM", num_samples=10,
                                    seed=3)
            assert future.done()
            response = future.result()
        assert response.status == "ok"
        assert response.estimate.value == expected.value


class TestFrontDoorErrors:
    """A malformed field raises a typed error from the call that passes
    it, never an untyped one later."""

    @pytest.mark.parametrize(
        "options",
        [
            {"memo_size": 0},
            {"max_batch": "2"},
            {"feedback": "yes"},
            {"workers": 2},
        ],
        ids=repr,
    )
    def test_service_constructor(self, options):
        with pytest.raises(ServiceError):
            EstimationService(**options)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline_s", "1"),
            ("max_staleness_s", [1]),
            ("deadline_s", float("nan")),
            ("config", [("seed", 1)]),
        ],
        ids=["deadline-str", "staleness-list", "deadline-nan", "config-list"],
    )
    def test_request_fields(self, figure1_tree, field, value):
        with pytest.raises(ServiceError):
            _request(figure1_tree, **{field: value})

    @pytest.mark.parametrize(
        "burst",
        [[1], None, 5, "request", "good-then-int"],
        ids=["int-item", "none", "int", "str", "good-then-int"],
    )
    def test_map_takes_requests(self, figure1_tree, burst):
        good = _request(figure1_tree, config={"num_samples": 10, "seed": 1})
        if burst == "good-then-int":
            burst = [good, 1]
        with EstimationService(workers=0) as service:
            with pytest.raises(ServiceError, match="EstimateRequest"):
                service.map(burst)
            assert service.stats()["memo"]["size"] == 0

    @pytest.mark.parametrize("request_", [1, "request", ("a", "d")], ids=repr)
    def test_submit_takes_a_request(self, request_):
        with EstimationService(workers=0) as service:
            with pytest.raises(ServiceError, match="EstimateRequest"):
                service.submit(request=request_)

    @pytest.mark.parametrize("payload", ["{}", None, 123], ids=repr)
    def test_estimate_wire_takes_bytes(self, payload):
        with EstimationService(workers=0) as service:
            with pytest.raises(ServiceError, match="must be bytes-like"):
                service.estimate_wire(payload)
            assert service.stats()["wire"]["requests"] == 0

    @pytest.mark.parametrize("entry", ["repro.estimate", "service.estimate"])
    def test_method_name_must_be_a_string(self, figure1_tree, entry):
        with pytest.raises(UnknownEstimatorError, match="must be a string"):
            if entry == "repro.estimate":
                repro.estimate(*figure1_tree, 5)
            else:
                with EstimationService() as service:
                    service.estimate(*figure1_tree, 5)


def _client(service, a, d, keys, rng, rounds, answers):
    """One client thread's traffic: ``rounds`` times, three distinct
    keys asked through ``map``, ``estimate`` or ``submit().result()``.
    Appends ``(key index, value)`` per answer."""
    for __ in range(rounds):
        picked = rng.sample(range(len(keys)), 3)
        requests = [
            EstimateRequest(a, d, keys[i][0], config=dict(keys[i][1]))
            for i in picked
        ]
        entry = rng.randrange(3)
        if entry == 0:
            responses = service.map(requests, timeout=30.0)
        elif entry == 1:
            responses = [
                service.estimate(a, d, keys[i][0], timeout=30.0, **keys[i][1])
                for i in picked
            ]
        else:
            futures = [service.submit(request=r) for r in requests]
            responses = [f.result(30.0) for f in futures]
        for i, response in zip(picked, responses):
            assert response.status == "ok"
            answers.append((i, response.estimate.value))


class TestMultiClient:
    """Client threads share one service: each thread answers its own
    requests, and threads share work only through the memo."""

    def test_threads_mixing_entry_points_match_direct(self, xmark_small):
        a = xmark_small.node_set("listitem")
        d = xmark_small.node_set("text")
        keys = [
            ("IM", {"num_samples": samples, "seed": seed})
            for samples in (40, 80)
            for seed in range(6)
        ] + [("PL", {"num_buckets": buckets}) for buckets in (8, 16)]
        expected = [
            repro.estimate(a, d, method, **config).value
            for method, config in keys
        ]
        clients, rounds = 4, 12
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per trial
        try:
            for trial in range(3):
                answers: list[tuple[int, float]] = []
                errors: list[BaseException] = []
                start = threading.Barrier(clients)

                def client(number: int) -> None:
                    try:
                        start.wait(30.0)
                        _client(
                            service, a, d, keys,
                            random.Random(trial * clients + number),
                            rounds, answers,
                        )
                    except BaseException as error:  # asserted below
                        errors.append(error)

                with EstimationService() as service:
                    threads = [
                        threading.Thread(target=client, args=(n,))
                        for n in range(clients)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(60.0)
                    assert not any(thread.is_alive() for thread in threads)
                    assert errors == []
                    counters = service.stats()["counters"]
                assert len(answers) == clients * rounds * 3
                assert counters["service.responses"] == len(answers)
                assert all(value == expected[i] for i, value in answers)
        finally:
            sys.setswitchinterval(interval)

    def test_threads_handing_over_degraded_leads(self, figure1_tree):
        """A third of the requests carry a deadline that passes before
        they run, so they degrade while identical requests without one
        run in the same or other client threads: every request is
        answered, and every ok answer equals the direct estimate."""
        keys = [{"num_samples": 10, "seed": seed} for seed in range(12)]
        expected = [
            repro.estimate(*figure1_tree, "IM", **config).value
            for config in keys
        ]

        def slow_factory(method, **config):
            time.sleep(0.0005)  # releases the GIL: other threads run
            return make_estimator(method, **config)

        clients, rounds = 4, 20
        answers: list[tuple[int, EstimateResponse]] = []
        errors: list[BaseException] = []
        start = threading.Barrier(clients)

        def client(number: int) -> None:
            rng = random.Random(number)
            try:
                start.wait(30.0)
                for __ in range(rounds):
                    picked = rng.sample(range(len(keys)), 3)
                    requests = [
                        _request(
                            figure1_tree,
                            config=dict(keys[i]),
                            deadline_s=rng.choice([None, None, 1e-9]),
                        )
                        for i in picked
                    ]
                    if rng.randrange(2):
                        responses = service.map(requests, timeout=30.0)
                    else:
                        futures = [service.submit(request=r) for r in requests]
                        responses = [f.result(30.0) for f in futures]
                    answers.extend(zip(picked, responses))
            except BaseException as error:  # asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with EstimationService(estimator_factory=slow_factory) as service:
                threads = [
                    threading.Thread(target=client, args=(n,))
                    for n in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                counters = service.stats()["counters"]
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == clients * rounds * 3
        assert counters["service.responses"] == len(answers)
        for i, response in answers:
            if response.status == "ok":
                assert response.estimate.value == expected[i]
            else:
                assert response.degraded_reason in ("deadline", "predicted")


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
            response = service.estimate(
                *figure1_tree, "IM", num_samples=10, seed=3,
                deadline_s=1e-9,
            )
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
