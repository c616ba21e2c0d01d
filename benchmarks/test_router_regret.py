"""Closed-loop routing: a bandit router against every fixed method.

Replays each Table 3 workload (XMark, DBLP, XMach at scale 0.05) as a
serving trace — every query, ``ROUNDS`` times, with a fresh seed per
request — through an :class:`~repro.service.engine.EstimationService`
with a UCB1 router and a feedback store attached, and scores the
router's cumulative relative-error loss against each fixed method run
over the identical trace (same configs, same seeds)::

    regret ratio = router gated loss / best fixed method's gated loss

"Gated" drops the warmup rounds (one per arm) in which any bandit must
pull every arm before it has a reward; the ratio with warmup is
reported but not asserted.  The trace's truth-paired records then fit
a :class:`~repro.feedback.CorrectionModel` on a 50% held-out tail,
scored per (query class, method) cell.

Everything here is a pure function of the seed, so the results file
reproduces byte-for-byte.
"""

from __future__ import annotations

import math

from repro.api import estimate
from repro.datasets import generate_dblp, generate_xmach, generate_xmark
from repro.datasets.workloads import ALL_WORKLOADS
from repro.estimators.bounds import join_size_bounds
from repro.experiments.report import format_table
from repro.feedback import CorrectionModel, FeedbackStore, record_feedback
from repro.join.size import containment_join_size
from repro.router.base import BOUND_METHOD, DEFAULT_CANDIDATES
from repro.router.registry import resolve_router
from repro.service.engine import EstimationService
from repro.service.request import _STOCHASTIC_METHODS

SCALE = 0.05
SEED = 7
ROUNDS = 12
EXPLORATION = 0.1
HOLDOUT = 0.5

DATASETS = {
    "xmark": generate_xmark,
    "dblp": generate_dblp,
    "xmach": generate_xmach,
}


def _loss(value: float, exact: float) -> float:
    """Relative error against truth (absolute error when truth is 0)."""
    return abs(value - exact) / exact if exact > 0 else abs(value)


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0/0 is no regret, x/0 unbounded."""
    if denominator > 0:
        return numerator / denominator
    return 1.0 if numerator <= 0 else math.inf


def _fixed_estimate(method, config, a, d, request_seed) -> float:
    """What a fixed method answers on one request: the value the
    router's arm would return, with the same seed rule."""
    if method == BOUND_METHOD:
        return float(join_size_bounds(a, d).upper)
    call = dict(config)
    if method in _STOCHASTIC_METHODS:
        call.setdefault("seed", request_seed)
    return float(estimate(a, d, method=method, **call).value)


def _replay(name: str, store, baseline_store) -> dict:
    """One dataset's trace through the router and every fixed arm."""
    dataset = DATASETS[name](scale=SCALE, seed=SEED)
    operands = [query.operands(dataset) for query in ALL_WORKLOADS[name]]
    exacts = [float(containment_join_size(a, d)) for a, d in operands]
    # Sampling budgets are clamped so draws without replacement stay
    # legal on the trace's smallest operand.
    smallest = min(min(len(a), len(d)) for a, d in operands)
    arms = {
        method: dict(config) for method, config in DEFAULT_CANDIDATES.items()
    }
    for config in arms.values():
        if "num_samples" in config:
            config["num_samples"] = min(
                config["num_samples"], max(1, smallest // 2)
            )
    request_samples = max(1, min(64, smallest // 2))
    # Truth is known up front, so every record earns a reward at once.
    for (a, d), exact in zip(operands, exacts):
        store.observe_truth(a, d, exact)
        baseline_store.observe_truth(a, d, exact)
    router = resolve_router(
        "UCB1", candidates=arms, seed=SEED, exploration=EXPLORATION
    )
    warmup = len(router.arms)

    router_loss = router_gated = 0.0
    fixed = {method: 0.0 for method in arms}
    fixed_gated = {method: 0.0 for method in arms}
    pulls = {method: 0 for method in arms}
    # The router's store sees only its own pulls (bandit feedback); the
    # baselines write to a second store that only the correction reads.
    service = EstimationService(workers=0, router=router, feedback=store)
    with service:
        for round_index in range(ROUNDS):
            gated = round_index >= warmup
            for query_index, (a, d) in enumerate(operands):
                seed = SEED * 1_000_000 + query_index * 1_000 + round_index
                exact = exacts[query_index]
                response = service.estimate(
                    a, d, "IM", num_samples=request_samples, seed=seed
                )
                pulls[response.routed_method or "IM"] += 1
                step = _loss(response.estimate.value, exact)
                router_loss += step
                if gated:
                    router_gated += step
                for method, config in arms.items():
                    value = _fixed_estimate(method, config, a, d, seed)
                    record_feedback(a, d, method, value, store=baseline_store)
                    step = _loss(value, exact)
                    fixed[method] += step
                    if gated:
                        fixed_gated[method] += step
    best = min(fixed_gated, key=fixed_gated.get)
    return {
        "dataset": name,
        "pulls": pulls,
        "router": router_loss,
        "router_gated": router_gated,
        "best": best,
        "best_total": fixed[best],
        "best_gated": fixed_gated[best],
    }


def _correction(store, baseline_store) -> dict:
    """Fit the correction model on the trace; count worsened cells."""
    records = [
        *store.records(with_truth=True),
        *baseline_store.records(with_truth=True),
    ]
    fit = CorrectionModel().fit(records, holdout=HOLDOUT)
    scored = [
        row for row in fit.values()
        if row["mre_before"] is not None and row["mre_after"] is not None
    ]
    reductions = [
        100.0 * (row["mre_before"] - row["mre_after"]) / row["mre_before"]
        if row["mre_before"] > 0 else 0.0
        for row in scored
    ]
    return {
        "cells": len(scored),
        "fitted": sum(1 for row in scored if row["fitted"]),
        "worsened": sum(
            1 for row in scored if row["mre_after"] > row["mre_before"]
        ),
        "max_reduction_pct": max(reductions, default=0.0),
    }


def test_router_regret(report):
    store, baseline_store = FeedbackStore(), FeedbackStore()
    rows = [_replay(name, store, baseline_store) for name in DATASETS]
    correction = _correction(store, baseline_store)

    # Plain running sums, in dataset order: sum() of floats rounds
    # differently across Python versions.
    router_total = router_gated = best_total = best_gated = 0.0
    for row in rows:
        router_total += row["router"]
        router_gated += row["router_gated"]
        best_total += row["best_total"]
        best_gated += row["best_gated"]
    ratio = _ratio(router_gated, best_gated)
    ratio_total = _ratio(router_total, best_total)
    arms = list(rows[0]["pulls"])
    table = format_table(
        ["dataset", *(f"{arm} pulls" for arm in arms), "router gated loss",
         "best fixed", "best gated loss", "ratio"],
        [
            [row["dataset"], *row["pulls"].values(),
             f"{row['router_gated']:.3f}", row["best"],
             f"{row['best_gated']:.3f}",
             f"{_ratio(row['router_gated'], row['best_gated']):.3f}"]
            for row in rows
        ] + [
            ["total", *("" for __ in arms), f"{router_gated:.3f}", "",
             f"{best_gated:.3f}", f"{ratio:.3f}"]
        ],
        title=f"UCB1 router (exploration {EXPLORATION}) vs the best fixed "
              f"method, Table 3 traces at scale {SCALE}, seed {SEED}, "
              f"{ROUNDS} rounds (gated = after one warmup round per arm)",
    )
    report(
        "router_regret",
        f"{table}\n\n"
        f"regret ratio with warmup: {ratio_total:.3f}\n"
        f"correction ({HOLDOUT:.0%} held out): {correction['cells']} "
        f"cells, {correction['fitted']} fitted, {correction['worsened']} "
        f"worsened, max MRE reduction "
        f"{correction['max_reduction_pct']:.1f}%",
    )

    # The router stays within 1.15x of the best fixed method in
    # hindsight, and the correction never makes a held-out cell worse
    # while cutting at least one cell's error by 10%.
    assert ratio <= 1.15
    assert correction["worsened"] == 0
    assert correction["max_reduction_pct"] >= 10.0
