"""The churn benchmark behind ``BENCH_stream.json``.

Three phases over one seeded XMark document:

* **update** — replays the same :class:`~repro.stream.MutationFeed`
  batches twice: once through a :class:`~repro.stream.LiveWorkspace`
  (incremental maintenance) and once through the rebuild baseline that
  re-derives every touched tag's synopses from scratch after each batch
  (validated node set, PL both roles, PH cell grid, stabbing index,
  coverage bounds — exactly what a non-incremental system would redo).
  Reports the throughput ratio and cross-checks the final maintained
  state bit-identical to the final rebuild (``identical``).
* **serving** — mixed read/write: every batch is *ingested* (not
  applied) and immediately followed by a live read through
  :class:`~repro.service.engine.EstimationService` under a per-request
  ``max_staleness_s`` bound.  Reports read latency, disclosed staleness
  and the staleness-violation rate (an "ok" answer whose disclosed
  staleness exceeded its bound).
* **isolation** — two tenants in a :class:`~repro.stream.CatalogStore`
  behind one service; tenant ``alpha`` is churned hard while tenant
  ``beta``'s cache entries must survive untouched and keep serving
  hits.  Reports ``cross_tenant_invalidations`` (CI gates this at 0).

Deterministic for a fixed ``(scale, seed)`` up to wall-clock timings;
emitted by ``benchmarks/bench_runner.py --only-stream`` as the
schema-validated ``BENCH_stream.json`` artifact and gated in CI.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

import numpy as np

from repro.core.element import Element
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.datasets.dblp import generate_dblp
from repro.datasets.xmark import generate_xmark
from repro.estimators.coverage_histogram import merged_interval_bounds
from repro.estimators.ph_histogram import cell_histogram, grid_side
from repro.estimators.pl_histogram import PLHistogram
from repro.index.stab import StabbingCounter
from repro.perf.cache import SummaryCache, _key_tokens
from repro.service.engine import EstimationService
from repro.stream.feed import MutationFeed
from repro.stream.live import LiveWorkspace
from repro.stream.store import CatalogStore

__all__ = [
    "STREAM_BENCH_SCHEMA_VERSION",
    "run_stream_bench",
]

STREAM_BENCH_SCHEMA_VERSION = 1


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples), q))


def _rebuild_tag(
    elements: Iterable[Element],
    tag: str,
    workspace: Workspace,
    num_buckets: int,
    side: int,
) -> dict[str, Any]:
    """Everything a non-incremental system re-derives after a write."""
    node_set = NodeSet(tuple(elements), name=tag)
    return {
        "node_set": node_set,
        "ancestor": PLHistogram.build_ancestor(
            node_set, workspace, num_buckets
        ),
        "descendant": PLHistogram.build_descendant(
            node_set, workspace, num_buckets
        ),
        "cells": cell_histogram(node_set, workspace, side),
        "stab": StabbingCounter(node_set),
        "coverage": merged_interval_bounds(node_set),
    }


def _states_identical(
    live: LiveWorkspace, rebuilt: dict[str, dict[str, Any]]
) -> bool:
    """Final maintained state ≡ final rebuild, bit-for-bit."""
    if set(live.tags()) != set(rebuilt):
        return False
    for tag, want in rebuilt.items():
        maintained = live.node_set(tag)
        reference: NodeSet = want["node_set"]
        if not (
            np.array_equal(maintained.starts, reference.starts)
            and np.array_equal(maintained.ends, reference.ends)
        ):
            return False
        pl = live.pl_histogram(tag)
        for got, ref in zip(
            pl.ancestor_histogram().buckets, want["ancestor"].buckets
        ):
            if got.n != ref.n:
                return False
            if abs(got.total_length - ref.total_length) > 1e-9 * max(
                1.0, abs(ref.total_length)
            ):
                return False
        for got, ref in zip(
            pl.descendant_histogram().buckets, want["descendant"].buckets
        ):
            if got.n != ref.n:
                return False
        if dict(live.cell_histogram(tag).cell_histogram()) != dict(
            want["cells"]
        ):
            return False
        ttree = live.ttree(tag)
        stab: StabbingCounter = want["stab"]
        for position, __ in ttree.turning_points():
            if ttree.count(position) != stab.count(position):
                return False
        if not np.array_equal(live.coverage_bounds(tag), want["coverage"]):
            return False
    return True


def _entries_mentioning(
    cache: SummaryCache, fingerprints: set[str]
) -> int:
    """Resident cache entries keyed on any of ``fingerprints``."""
    return sum(
        1
        for key in list(cache._data)
        if not fingerprints.isdisjoint(_key_tokens(key))
    )


def _bench_update(
    pool: list[Element],
    workspace: Workspace,
    *,
    seed: int,
    batches: int,
    batch_size: int,
    num_buckets: int,
    num_cells: int,
) -> dict[str, Any]:
    side = grid_side(num_cells)
    replay = list(
        MutationFeed(pool, seed=seed).batches(batches, batch_size)
    )
    initial = MutationFeed(pool, seed=seed).bootstrap()

    live = LiveWorkspace(
        workspace,
        elements=initial,
        num_buckets=num_buckets,
        num_cells=num_cells,
        seed=seed,
    )
    start = time.perf_counter()
    for batch in replay:
        live.apply(batch)
    incremental_s = time.perf_counter() - start

    population: dict[str, dict[tuple[int, int], Element]] = {}
    for element in initial:
        population.setdefault(element.tag, {})[
            (element.start, element.end)
        ] = element
    rebuilt: dict[str, dict[str, Any]] = {}
    start = time.perf_counter()
    for batch in replay:
        touched: set[str] = set()
        for mutation in batch.mutations:
            element = mutation.element
            if mutation.op == "insert":
                population.setdefault(element.tag, {})[
                    (element.start, element.end)
                ] = element
            elif mutation.op == "delete":
                del population[element.tag][(element.start, element.end)]
            else:
                replacement = mutation.replacement
                del population[element.tag][(element.start, element.end)]
                population.setdefault(replacement.tag, {})[
                    (replacement.start, replacement.end)
                ] = replacement
                touched.add(replacement.tag)
            touched.add(element.tag)
        for tag in touched:
            rebuilt[tag] = _rebuild_tag(
                population[tag].values(), tag, workspace, num_buckets, side
            )
    rebuild_s = time.perf_counter() - start
    # Tags never touched by the replay still need a reference build for
    # the identity check (their state is the bootstrap's).
    for tag, elements in population.items():
        if tag not in rebuilt:
            rebuilt[tag] = _rebuild_tag(
                elements.values(), tag, workspace, num_buckets, side
            )

    mutations = batches * batch_size
    return {
        "batches": batches,
        "batch_size": batch_size,
        "mutations": mutations,
        "incremental_s": incremental_s,
        "rebuild_s": rebuild_s,
        "speedup": rebuild_s / incremental_s if incremental_s else 0.0,
        "incremental_mutations_per_s": (
            mutations / incremental_s if incremental_s else 0.0
        ),
        "rebuild_mutations_per_s": (
            mutations / rebuild_s if rebuild_s else 0.0
        ),
        "identical": _states_identical(live, rebuilt),
    }


def _bench_serving(
    pool: list[Element],
    workspace: Workspace,
    read_tags: tuple[str, str],
    *,
    seed: int,
    requests: int,
    batch_size: int,
    num_buckets: int,
    max_staleness_s: float,
) -> dict[str, Any]:
    feed = MutationFeed(pool, seed=seed)
    live = LiveWorkspace(
        workspace,
        elements=feed.bootstrap(),
        num_buckets=num_buckets,
        seed=seed,
    )
    tag_a, tag_d = read_tags
    latencies: list[float] = []
    staleness: list[float] = []
    statuses = {"ok": 0, "degraded": 0, "shed": 0}
    stale_degraded = 0
    with EstimationService(live=live, workers=0) as service:
        for batch in feed.batches(requests, batch_size):
            live.ingest(batch)
            start = time.perf_counter()
            response = service.estimate(
                tag_a,
                tag_d,
                "PL",
                num_buckets=num_buckets,
                max_staleness_s=max_staleness_s,
            )
            latencies.append(time.perf_counter() - start)
            statuses[response.status] += 1
            if response.degraded_reason == "stale":
                stale_degraded += 1
            if response.staleness_s is not None:
                staleness.append(response.staleness_s)
        violations = service.stats()["staleness_violations"]
    return {
        "requests": requests,
        "writes_per_read": batch_size,
        "max_staleness_s": max_staleness_s,
        "ok": statuses["ok"],
        "degraded": statuses["degraded"],
        "stale_degraded": stale_degraded,
        "latency_p50_s": _percentile(latencies, 50),
        "latency_p99_s": _percentile(latencies, 99),
        "staleness_p99_s": _percentile(staleness, 99),
        "violations": violations,
        "violation_rate": violations / requests if requests else 0.0,
    }


def _bench_isolation(
    alpha_pool: list[Element],
    alpha_workspace: Workspace,
    alpha_tags: tuple[str, str],
    beta_pool: list[Element],
    beta_workspace: Workspace,
    beta_tags: tuple[str, str],
    *,
    seed: int,
    batches: int,
    batch_size: int,
    num_buckets: int,
) -> dict[str, Any]:
    alpha_feed = MutationFeed(alpha_pool, seed=seed)
    beta_feed = MutationFeed(beta_pool, seed=seed + 1)
    store = CatalogStore()
    store.create(
        "alpha",
        alpha_workspace,
        elements=alpha_feed.bootstrap(),
        num_buckets=num_buckets,
        seed=seed,
    )
    store.create(
        "beta",
        beta_workspace,
        elements=beta_feed.bootstrap(),
        num_buckets=num_buckets,
        seed=seed + 1,
    )
    # memoize=False: repeat reads must go through the summary cache
    # (the result memo would hide it) so cache survival is observable.
    with EstimationService(live=store, workers=0, memoize=False) as service:
        cache = service.summary_cache

        def read(tenant: str, tags: tuple[str, str]):
            return service.estimate(
                tags[0],
                tags[1],
                "PL",
                num_buckets=num_buckets,
                tenant=tenant,
            )

        before = read("beta", beta_tags)
        beta = store.get("beta")
        beta_fps = {beta.fingerprint(tag) for tag in beta_tags}
        entries_before = _entries_mentioning(cache, beta_fps)
        alpha = store.get("alpha")
        for batch in alpha_feed.batches(batches, batch_size):
            alpha.apply(batch)
            read("alpha", alpha_tags)
        entries_after = _entries_mentioning(cache, beta_fps)
        hits_before = cache.hits
        after = read("beta", beta_tags)
        served_from_cache = cache.hits > hits_before
        alpha_invalidated = store.get("alpha").invalidated_entries
    return {
        "tenants": 2,
        "churn_batches": batches,
        "batch_size": batch_size,
        "victim_entries_before": entries_before,
        "victim_entries_after": entries_after,
        "cross_tenant_invalidations": entries_before - entries_after,
        "churner_invalidations": alpha_invalidated,
        "victim_served_from_cache": served_from_cache,
        "victim_value_stable": (
            before.estimate.value == after.estimate.value
        ),
    }


def run_stream_bench(
    *,
    scale: float = 0.02,
    seed: int = 7,
    batches: int = 60,
    batch_size: int = 20,
    requests: int = 120,
    num_buckets: int = 16,
    num_cells: int = 25,
    max_staleness_s: float = 0.25,
) -> dict[str, Any]:
    """Run the three churn phases; returns the BENCH_stream report body.

    Args:
        scale: XMark scale for the churned document (DBLP at the same
            scale plays the isolation victim).
        seed: drives the document, every feed, and every reservoir.
        batches / batch_size: update-phase replay length.
        requests: serving-phase reads (one ingested batch before each).
        num_buckets / num_cells: synopsis resolutions.
        max_staleness_s: the serving phase's per-request bound.
    """
    dataset = generate_xmark(scale=scale, seed=seed)
    pool = list(dataset.tree.elements)
    workspace = dataset.tree.workspace()
    by_count = sorted(
        dataset.tree.tags().items(), key=lambda item: (-item[1], item[0])
    )
    read_tags = (by_count[0][0], by_count[1][0])

    victim = generate_dblp(scale=scale, seed=seed + 1)
    victim_pool = list(victim.tree.elements)
    victim_by_count = sorted(
        victim.tree.tags().items(), key=lambda item: (-item[1], item[0])
    )
    victim_tags = (victim_by_count[0][0], victim_by_count[1][0])

    start = time.perf_counter()
    report = {
        "bench": "stream",
        "schema_version": STREAM_BENCH_SCHEMA_VERSION,
        "dataset": "xmark",
        "scale": scale,
        "seed": seed,
        "pool_size": len(pool),
        "tags": len(dataset.tree.tags()),
        "read_tags": list(read_tags),
        "num_buckets": num_buckets,
        "num_cells": num_cells,
        "update": _bench_update(
            pool,
            workspace,
            seed=seed,
            batches=batches,
            batch_size=batch_size,
            num_buckets=num_buckets,
            num_cells=num_cells,
        ),
        "serving": _bench_serving(
            pool,
            workspace,
            read_tags,
            seed=seed,
            requests=requests,
            batch_size=batch_size,
            num_buckets=num_buckets,
            max_staleness_s=max_staleness_s,
        ),
        "isolation": _bench_isolation(
            pool,
            workspace,
            read_tags,
            victim_pool,
            victim.tree.workspace(),
            victim_tags,
            seed=seed,
            batches=max(1, batches // 4),
            batch_size=batch_size,
            num_buckets=num_buckets,
        ),
    }
    report["elapsed_s"] = time.perf_counter() - start
    return report
