"""The ``churn`` workload: writes beside reads on a live catalog store.

A :class:`~repro.stream.CatalogStore` with no spill root holds two
tenants bootstrapped from :class:`~repro.stream.MutationFeed` s: ``alpha``
(XMark, scale 0.05) and ``beta`` (DBLP, scale 0.05).  Each step ingests
one batch of 20 update mutations into ``alpha``, applies the backlog
every 4th step, then makes 4 reads by tag name: 3 XMark Table-3 pairs on
``alpha`` and 1 DBLP pair on ``beta``, alternating PL
(``num_buckets=16``) and IM (``num_samples=50``, seed drawn from a pool
of 8).  One operation is one read.  The latencies are the reads'; the
throughput is reads over the time spent in reads and writes, so it
counts the write path too.  Each apply invalidates ``alpha``'s
cached summaries and indexes, so its next reads rebuild, while ``beta``
stays warm and repeats between applies hit the memo.
"""

from __future__ import annotations

import time
from array import array
from typing import Any

import numpy as np

import repro
from repro.datasets import generate_dblp, generate_xmark
from repro.datasets.workloads import ALL_WORKLOADS
from repro.stream import CatalogStore, MutationFeed

from perfbench.core import (
    DOCUMENT_SEED,
    TraceContext,
    Workload,
    derive_seed,
    percentile,
)

SCALE = 0.05
BATCH_SIZE = 20
APPLY_EVERY = 4
READS_PER_STEP = 4
ALPHA_READS = 3
NUM_BUCKETS = 16
PL_CONFIG = {"num_buckets": NUM_BUCKETS}
IM_CONFIG = {"num_samples": 50}
IM_SEED_POOL = 8
TENANTS = {"alpha": "xmark", "beta": "dblp"}
#: ``alpha`` starts half live so its feed has elements to insert;
#: ``beta`` never churns, so it holds its whole document (some of its
#: Table-3 tags have a single element).
INITIAL_FRACTION = {"alpha": 0.5, "beta": 1.0}
#: Insert, delete and update odds.  Only updates, each applied as a
#: delete plus an insert: ``alpha`` keeps its size, and every tag's
#: live count is pulled back towards half its document count, so every
#: stretch of every run reads the same mix.  Balanced inserts and
#: deletes would let the size wander by ±10% over a run.
FEED_WEIGHTS = (0.0, 0.0, 1.0)


class ChurnWorkload(Workload):
    name = "churn"
    warmup_ops = READS_PER_STEP * APPLY_EVERY * 2
    trace_ops_per_s = 400
    not_exercised = {
        "truth.": "churn's truth is the from-scratch rebuild in its checks",
        "optimizer.": "churn plans nothing",
        "wire.": "churn sends no wire payloads",
        "router.": "churn runs without a router",
        "feedback.": "churn runs without a feedback store",
        "estimator.PH.": "churn reads with PL and IM only",
        "estimator.PM.": "churn reads with PL and IM only",
        "estimator.CROSS.": "churn reads with PL and IM only",
        "phase.PH.": "churn reads with PL and IM only",
        "phase.PM.": "churn reads with PL and IM only",
        "phase.CROSS.": "churn reads with PL and IM only",
    }

    def build_data(self) -> None:
        with self.timed("datasets.generate_s"):
            self.datasets = {
                "xmark": generate_xmark(scale=SCALE, seed=DOCUMENT_SEED),
                "dblp": generate_dblp(scale=SCALE, seed=DOCUMENT_SEED),
            }
        self.im_seeds = [
            derive_seed(self.seed, 5, i) for i in range(IM_SEED_POOL)
        ]

    def start(self, trace: TraceContext | None = None) -> None:
        self.store = CatalogStore()
        feeds = {}
        with self.timed("stream.bootstrap_s"):
            for i, (tenant, name) in enumerate(TENANTS.items()):
                tree = self.datasets[name].tree
                feed_seed = derive_seed(self.seed, 6, i)
                feeds[tenant] = MutationFeed(
                    tree.elements,
                    seed=feed_seed,
                    initial_fraction=INITIAL_FRACTION[tenant],
                    weights=FEED_WEIGHTS,
                )
                self.store.create(
                    tenant,
                    tree.workspace(),
                    elements=feeds[tenant].bootstrap(),
                    num_buckets=NUM_BUCKETS,
                    seed=feed_seed,
                )
        self.feed = feeds["alpha"]
        self.alpha = self.store.get("alpha")
        self._open_service(trace, live=self.store)
        self.rng = np.random.default_rng([self.seed, 7])
        self.pending_max = 0
        self.begin_measurement()

    def begin_measurement(self) -> None:
        super().begin_measurement()
        self.mutations = 0
        self.write_s = 0.0
        self.staleness = array("d")  # compact: one float per read

    def _write(self, step: int) -> float:
        """The step's ingest (and apply); returns the seconds spent."""
        batch = self.feed.next_batch(BATCH_SIZE)
        start = time.perf_counter()
        with self.span("stream.ingest"):
            self.alpha.ingest(batch)
        self.pending_max = max(self.pending_max, self.alpha.pending_batches)
        if step % APPLY_EVERY == APPLY_EVERY - 1:
            with self.span("stream.apply_pending"):
                self.alpha.apply_pending()
        took = time.perf_counter() - start
        self.write_s += took
        self.mutations += len(batch)
        return took

    def _read(self, step: int, slot: int) -> tuple[str, Any, str, dict]:
        """Tenant, query, method and configuration of one read."""
        if slot < ALPHA_READS:
            tenant = "alpha"
            queries = ALL_WORKLOADS["xmark"]
            query = queries[(step * ALPHA_READS + slot) % len(queries)]
        else:
            tenant = "beta"
            queries = ALL_WORKLOADS["dblp"]
            query = queries[step % len(queries)]
        if (step + slot) % 2 == 0:
            return tenant, query, "PL", dict(PL_CONFIG)
        seed = self.im_seeds[int(self.rng.integers(IM_SEED_POOL))]
        return tenant, query, "IM", {**IM_CONFIG, "seed": seed}

    def run_op(self, index: int) -> tuple[float, float]:
        """One read.  The step's write, made before its first read, adds
        to that read's busy time but not to its latency."""
        step, slot = divmod(index, READS_PER_STEP)
        write_s = self._write(step) if slot == 0 else 0.0
        tenant, query, method, config = self._read(step, slot)
        start = time.perf_counter()
        response = self.client.estimate(
            query.ancestor, query.descendant, method, tenant=tenant, **config
        )
        elapsed = time.perf_counter() - start
        if response.status != "ok":
            self.fail()
        self.staleness.append(response.staleness_s)
        if self.trace is not None:
            live = self.store.get(tenant)
            self.trace.count_operands(
                live.size(query.ancestor), live.size(query.descendant)
            )
        return elapsed, elapsed + write_s

    def checks(self) -> dict[str, bool]:
        assert self.service is not None
        self.alpha.apply_pending()
        tags_equal = True
        reads_equal = True
        for tenant, name in TENANTS.items():
            live = self.store.get(tenant)
            for tag in live.tags():
                served = live.node_set(tag)
                rebuilt = live.rebuild_node_set(tag)
                tags_equal &= bool(
                    np.array_equal(served.starts, rebuilt.starts)
                    and np.array_equal(served.ends, rebuilt.ends)
                    and served.fingerprint == rebuilt.fingerprint
                )
            for query in ALL_WORKLOADS[name]:
                ancestors = live.rebuild_node_set(query.ancestor)
                descendants = live.rebuild_node_set(query.descendant)
                for method, config in (
                    ("PL", PL_CONFIG),
                    ("IM", {**IM_CONFIG, "seed": self.im_seeds[0]}),
                ):
                    response = self.service.estimate(
                        query.ancestor,
                        query.descendant,
                        method,
                        tenant=tenant,
                        **config,
                    )
                    direct = repro.estimate(
                        ancestors, descendants, method, **config
                    )
                    reads_equal &= (
                        response.status == "ok"
                        and response.estimate.value == direct.value
                    )
        return {
            "churn.live_equals_rebuild": tags_equal,
            "churn.final_reads_equal_direct": reads_equal,
            "churn.all_ok": self.failed_total == 0,
        }

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "mutations_per_s": (
                self.mutations / self.write_s if self.write_s else 0.0,
                "1/s",
            ),
            "staleness_p99_ms": (
                percentile(self.staleness, 99) * 1e3 if self.staleness
                else 0.0,
                "ms",
            ),
        }

    def layer_metrics(self, registry: Any, spans: Any) -> dict[str, float]:
        out = super().layer_metrics(registry, spans)
        stats = [self.store.get(tenant).stats() for tenant in TENANTS]
        out["stream.applied_mutations"] = sum(
            s["applied_mutations"] for s in stats
        )
        out["stream.invalidated_entries"] = sum(
            s["invalidated_entries"] for s in stats
        )
        out["stream.pending_batches_max"] = self.pending_max
        return out

    def describe(self) -> dict[str, Any]:
        return {
            "workload": self.name,
            "datasets": {
                name: {"scale": SCALE, "seed": DOCUMENT_SEED, "tenant": tenant}
                for tenant, name in TENANTS.items()
            },
            "store": {"root": None, "tenants": list(TENANTS)},
            "feed": {
                "batch_size": BATCH_SIZE,
                "apply_every": APPLY_EVERY,
                "initial_fraction": INITIAL_FRACTION,
                "weights": list(FEED_WEIGHTS),
                "tenants_churned": ["alpha"],
            },
            "reads": {
                "per_step": READS_PER_STEP,
                "alpha": ALPHA_READS,
                "beta": READS_PER_STEP - ALPHA_READS,
                "PL": PL_CONFIG,
                "IM": IM_CONFIG,
                "im_seed_pool": IM_SEED_POOL,
            },
            "service": self.service_description(live="CatalogStore"),
        }
