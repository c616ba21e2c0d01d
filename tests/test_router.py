"""Tests for the bandit method router (:mod:`repro.router`).

The load-bearing property is the determinism contract: every router is
a pure function of (seed, feedback history).  The suite checks it three
ways — identical decision sequences across repeated runs, across
service worker counts, and across snapshot/merge reorderings — plus the
registry resolution surface, per-router selection behavior, and the
service integration (disclosure, the inline BOUND arm).
The closed loop's regret against fixed arms is measured by
``benchmarks/test_router_regret.py``.
"""

from __future__ import annotations

import pytest

import repro
from repro import api
from repro.core.errors import (
    FeedbackError,
    UnknownEstimatorError,
    UnknownRouterError,
)
from repro.estimators.bounds import join_size_bounds
from repro.feedback import FeedbackStore, query_class, record_feedback
from repro.join.size import containment_join_size
from repro.router import (
    BOUND_METHOD,
    DEFAULT_CANDIDATES,
    Router,
    StaticRouter,
    ThompsonRouter,
    UCB1Router,
    available_routers,
    canonical_router_name,
    resolve_router,
)
from repro.service.request import EstimateRequest


def _operands(dataset, a_tag="item", d_tag="name"):
    return dataset.node_set(a_tag), dataset.node_set(d_tag)


def _seeded_candidates(a, d):
    """Arms that pin their own seeds, so answers are reproducible."""
    samples = max(1, min(len(a), len(d)) // 2)
    return {
        "PL": {"num_buckets": 8},
        "IM": {"num_samples": samples, "seed": 11},
        "PM": {"num_samples": samples, "seed": 11},
        BOUND_METHOD: {},
    }


def _fill_store(store, qc, losses):
    """Record one truth-paired pull per (method, loss) pair."""
    for method, loss in losses:
        store.add(
            repro.FeedbackRecord(
                query_class=qc,
                method=method,
                estimate=100.0 * (1.0 + loss),
                exact=100.0,
            )
        )


# ----------------------------------------------------------------------
# Registry resolution
# ----------------------------------------------------------------------


class TestRegistry:
    def test_available_routers_sorted(self):
        names = available_routers()
        assert names == tuple(sorted(names))
        assert {"UCB1", "THOMPSON", "STATIC"} <= set(names)

    def test_aliases_resolve(self):
        assert canonical_router_name("ucb") == "UCB1"
        assert canonical_router_name("bandit") == "UCB1"
        assert canonical_router_name("thompson-sampling") == "THOMPSON"
        assert canonical_router_name("  Fixed ") == "STATIC"

    def test_unknown_name_typed_with_candidates(self):
        with pytest.raises(UnknownRouterError) as info:
            resolve_router("ucb2")
        assert info.value.name == "ucb2"
        assert "UCB1" in info.value.candidates
        assert "UCB1" in str(info.value)
        # The router error is part of the estimator-error taxonomy.
        assert issubclass(UnknownRouterError, UnknownEstimatorError)

    def test_resolve_router_passthrough_and_config(self):
        router = UCB1Router()
        assert resolve_router(router) is router
        with pytest.raises(UnknownRouterError):
            resolve_router(router, exploration=0.5)
        built = resolve_router("ucb1", exploration=0.5, seed=3)
        assert built.exploration == 0.5
        assert built.seed == 3

    def test_candidate_methods_canonicalized(self):
        router = StaticRouter(
            {"pl-histogram": {"num_buckets": 8}, "bound": {}},
            method="pl-histogram",
        )
        assert router.arms == ("PL", BOUND_METHOD)
        assert router.method == "PL"

    def test_invalid_configuration_rejected(self):
        with pytest.raises(FeedbackError):
            UCB1Router({})
        with pytest.raises(FeedbackError):
            UCB1Router(exploration=-1.0)
        with pytest.raises(FeedbackError):
            ThompsonRouter(scale=0.0)
        with pytest.raises(FeedbackError):
            Router.__init__(UCB1Router(), latency_weight=-0.1)
        with pytest.raises(FeedbackError):
            StaticRouter(method="IM", candidates={"PL": {}})


# ----------------------------------------------------------------------
# Selection behavior
# ----------------------------------------------------------------------


class TestSelection:
    def test_static_always_pins(self):
        router = StaticRouter(method="PL")
        assert router.choose("any", {}) == "PL"
        assert router.describe()["method"] == "PL"

    def test_ucb1_explores_every_arm_first(self):
        router = UCB1Router(seed=0)
        store = FeedbackStore()
        qc = "q"
        seen = []
        for __ in range(len(router.arms)):
            arm = router.choose(qc, store.method_stats(qc))
            seen.append(arm)
            _fill_store(store, qc, [(arm, 0.5)])
        assert sorted(seen) == sorted(router.arms)

    def test_ucb1_exploits_the_best_arm(self):
        router = UCB1Router(exploration=0.0)
        store = FeedbackStore()
        qc = "q"
        losses = {"PL": 0.9, "IM": 0.05, "PM": 0.6, BOUND_METHOD: 2.0}
        for __ in range(3):
            _fill_store(store, qc, losses.items())
        assert router.choose(qc, store.method_stats(qc)) == "IM"

    def test_reward_is_order_free(self):
        """Reward reads sums/counts only — never the order-dependent EWMA."""
        router = UCB1Router()
        stats = repro.FeedbackStore()
        _fill_store(stats, "q", [("PL", 0.5), ("PL", 0.1)])
        cell = stats.method_stats("q")["PL"]
        expected = 1.0 / (1.0 + cell.abs_error_sum / cell.truth_count)
        assert router.reward(cell) == expected
        assert router.reward(None) is None

    def test_latency_weight_penalizes_slow_arms(self):
        fast = repro.FeedbackRecord(
            query_class="q", method="PL", estimate=100.0, exact=100.0,
            latency_s=0.0,
        )
        slow = repro.FeedbackRecord(
            query_class="q", method="IM", estimate=100.0, exact=100.0,
            latency_s=10.0,
        )
        store = FeedbackStore()
        store.add(fast)
        store.add(slow)
        router = UCB1Router(
            candidates={"PL": {}, "IM": {"num_samples": 8}},
            exploration=0.0,
            latency_weight=0.1,
        )
        assert router.choose("q", store.method_stats("q")) == "PL"

    def test_thompson_is_a_pure_function_of_history(self):
        store = FeedbackStore()
        _fill_store(store, "q", [("PL", 0.2), ("IM", 0.1)])
        stats = store.method_stats("q")
        first = ThompsonRouter(seed=5).choose("q", stats)
        again = ThompsonRouter(seed=5).choose("q", stats)
        assert first == again
        # And it reacts to the seed, not hidden RNG state.
        draws = {
            ThompsonRouter(seed=s).choose("q", stats) for s in range(40)
        }
        assert len(draws) > 1

    def test_route_propagates_seed_to_stochastic_arms_only(
        self, xmark_small
    ):
        a, d = _operands(xmark_small)
        request = EstimateRequest(
            ancestors=a,
            descendants=d,
            method="IM",
            config={"num_samples": 8, "seed": 77},
        )
        for pinned, expects_seed in (
            ("IM", True), ("PM", True), ("PL", False), (BOUND_METHOD, False),
        ):
            router = StaticRouter(method=pinned)
            method, config = router.route(request, None)
            assert method == pinned
            assert ("seed" in config) == expects_seed
            if expects_seed:
                assert config["seed"] == 77
            # route() copies: mutating the result must not leak back.
            config["num_samples"] = -1
            assert router.candidates[pinned].get("num_samples") != -1

    def test_route_rejects_foreign_arm(self, xmark_small):
        class Rogue(UCB1Router):
            def choose(self, query_class, stats):
                return "WAVELET"

        a, d = _operands(xmark_small)
        request = EstimateRequest(
            ancestors=a, descendants=d, method="PL", config={}
        )
        with pytest.raises(FeedbackError):
            Rogue().route(request, None)


# ----------------------------------------------------------------------
# Determinism across workers and merge order
# ----------------------------------------------------------------------


def _serve_trace(a, d, workers, rounds=10, router_seed=0):
    """One trace through the service; the routed-method sequence."""
    candidates = _seeded_candidates(a, d)
    store = FeedbackStore()
    store.observe_truth(a, d, float(containment_join_size(a, d)))
    router = UCB1Router(candidates, seed=router_seed)
    routed = []
    with repro.serve(
        workers=workers, router=router, feedback=store, memoize=False
    ) as service:
        for __ in range(rounds):
            response = service.estimate(
                a, d, "IM", **candidates["IM"]
            )
            routed.append(
                (response.routed_method, response.estimate.value)
            )
    return routed


class TestDeterminism:
    def test_identical_runs_identical_decisions(self, xmark_small):
        a, d = _operands(xmark_small)
        assert _serve_trace(a, d, 0) == _serve_trace(a, d, 0)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_independent(self, xmark_small, workers):
        """workers=K serves the same routes and values as workers=0."""
        a, d = _operands(xmark_small)
        assert _serve_trace(a, d, workers) == _serve_trace(a, d, 0)

    def test_map_routes_each_memo_hit_after_the_last(self, xmark_small):
        """Within a ``map`` burst, a memo hit's feedback record reaches
        the router before the next request routes, as it does between
        separate ``estimate`` calls."""
        a, d = _operands(xmark_small)
        candidates = {"PL": {"num_buckets": 8}, "PH": {"num_cells": 5}}
        exact = float(containment_join_size(a, d))

        def trace(use_map):
            store = FeedbackStore()
            store.observe_truth(a, d, exact)
            router = UCB1Router(candidates, seed=7)
            with repro.serve(
                workers=0, router=router, feedback=store
            ) as service:
                for __ in range(2):  # both arms computed and memoized
                    service.estimate(a, d, "PL", num_buckets=8)
                if use_map:
                    request = EstimateRequest(
                        a, d, "PL", config={"num_buckets": 8}
                    )
                    responses = service.map([request] * 6)
                else:
                    responses = [
                        service.estimate(a, d, "PL", num_buckets=8)
                        for __ in range(6)
                    ]
                hits = service.stats()["counters"]["service.memo_hits"]
            routes = [(r.routed_method, r.estimate.value) for r in responses]
            return routes, hits

        mapped, sequential = trace(True), trace(False)
        assert mapped == sequential
        assert mapped[1] == 6
        assert len({method for method, __ in mapped[0]}) == 2

    def test_snapshot_merge_reordering_invariant(self, xmark_small):
        """choose() is identical on any merge order of worker stores."""
        a, d = _operands(xmark_small)
        qc = query_class(a, d)
        exact = float(containment_join_size(a, d))

        workers = [FeedbackStore() for __ in range(3)]
        for i, store in enumerate(workers):
            store.observe_truth(a, d, exact)
            for j, method in enumerate(("PL", "IM", "PM", BOUND_METHOD)):
                record_feedback(
                    a, d, method, exact * (1.0 + 0.1 * (i + j)),
                    store=store,
                )

        merged_ab = FeedbackStore()
        for store in workers:
            merged_ab.merge(store.snapshot())
        merged_ba = FeedbackStore()
        for store in reversed(workers):
            merged_ba.merge(store.snapshot())

        for router in (
            UCB1Router(seed=1),
            ThompsonRouter(seed=1),
            StaticRouter(),
        ):
            assert router.choose(
                qc, merged_ab.method_stats(qc)
            ) == router.choose(qc, merged_ba.method_stats(qc))


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------


class TestServiceIntegration:
    def test_routed_method_disclosed(self, xmark_small):
        a, d = _operands(xmark_small)
        with repro.serve(
            workers=0, router=StaticRouter(method="PL")
        ) as service:
            response = service.estimate(a, d, "IM", num_samples=8, seed=3)
            stats = service.stats()
        assert response.routed_method == "PL"
        assert response.estimate.value == api.estimate(
            a, d, "PL", num_buckets=16
        ).value
        assert response.to_dict()["routed_method"] == "PL"
        assert stats["router"]["name"] == "STATIC"
        assert stats["counters"]["service.routed"] == 1

    def test_bound_arm_answers_inline(self, xmark_small):
        a, d = _operands(xmark_small)
        exact = containment_join_size(a, d)
        with repro.serve(
            workers=0, router=StaticRouter(method=BOUND_METHOD)
        ) as service:
            response = service.estimate(a, d, "IM", num_samples=8, seed=3)
        assert response.routed_method == BOUND_METHOD
        assert response.status == "ok"
        assert response.estimate.value == float(
            join_size_bounds(a, d).upper
        )
        details = response.estimate.details
        assert details["bound_lower"] <= exact <= details["bound_upper"]

    def test_router_implies_feedback_store(self, xmark_small):
        a, d = _operands(xmark_small)
        with repro.serve(workers=0, router="ucb1") as service:
            assert service.feedback is not None
            service.estimate(a, d, "IM", num_samples=8, seed=3)
            assert len(service.feedback) == 1

    def test_no_router_no_disclosure(self, xmark_small):
        a, d = _operands(xmark_small)
        with repro.serve(workers=0) as service:
            response = service.estimate(a, d, "PL", num_buckets=8)
        assert response.routed_method is None
        assert service.feedback is None

    def test_serve_resolves_router_names(self, xmark_small):
        with repro.serve(workers=0, router="thompson") as service:
            assert service.stats()["router"]["name"] == "THOMPSON"

    def test_facade_exports(self):
        assert "UCB1" in repro.available_routers()
        assert isinstance(repro.resolve_router("static"), StaticRouter)
        for name in ("Router", "available_routers", "resolve_router"):
            assert hasattr(repro, name) and hasattr(api, name)
