"""The ``serve`` workload: wire traffic with no shared work.

One operation is a burst of 16 payloads — 2 Table-3 pairs (cycling
through all 24 of XMark, DBLP and XMach at scale 0.1) × 8 fresh seeds —
each JSON with probability 1/4 and RPRW binary otherwise.  The burst is
answered with ``wire.decode_request`` → ``service.map`` →
``wire.encode_response``.  A UCB1 router picks IM, PM or CROSS
(``num_samples=100``) per query class, learning from a
:class:`~repro.feedback.FeedbackStore` that holds exact truth for every
pair.  Fresh seeds bypass the memo and dedup, so the codec,
micro-batching, routing and the sampling kernels do the work.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Any

import numpy as np

import repro
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.datasets import generate_dblp, generate_xmach, generate_xmark
from repro.datasets.workloads import ALL_WORKLOADS
from repro.feedback.store import FeedbackStore
from repro.join import containment_join_size
from repro.router.base import UCB1Router
from repro.service import wire
from repro.service.request import EstimateRequest

from perfbench.core import (
    DOCUMENT_SEED,
    ROUTER_ARMS,
    TraceContext,
    TracedRouter,
    Workload,
    derive_seed,
)

SCALE = 0.1
NUM_SAMPLES = 100
ARMS = {arm: {"num_samples": NUM_SAMPLES} for arm in ROUTER_ARMS}
#: What clients ask for; the router picks the arm that answers.
REQUESTED_METHOD = "IM"
PAIRS_PER_BURST = 2
SEEDS_PER_PAIR = 8
BURST = PAIRS_PER_BURST * SEEDS_PER_PAIR
JSON_SHARE = 0.25
WARMUP_OPS = 4
#: Feedback records the store retains: the warm-up's, so its memory does
#: not grow with the bursts a run completes.  Truth is seeded up front
#: and routing reads the store's exact aggregates, so no answer depends
#: on the bound.
FEEDBACK_RECORDS = WARMUP_OPS * BURST
#: Code stored for a reply whose routed method is not one of the arms.
UNROUTED = len(ROUTER_ARMS)
GENERATORS = {
    "xmark": generate_xmark,
    "dblp": generate_dblp,
    "xmach": generate_xmach,
}


@dataclass(frozen=True)
class Pair:
    """One Table-3 query resolved against its dataset."""

    dataset: str
    query: str
    ancestors: NodeSet
    descendants: NodeSet
    workspace: Workspace


def same_operand(decoded: NodeSet, original: NodeSet) -> bool:
    """Array for array and by fingerprint, the decoded operand is the
    one that was sent."""
    return (
        np.array_equal(decoded.starts, original.starts)
        and np.array_equal(decoded.ends, original.ends)
        and decoded.fingerprint == original.fingerprint
    )


class ServeWorkload(Workload):
    name = "serve"
    warmup_ops = WARMUP_OPS
    trace_ops_per_s = 24
    not_exercised = {
        "optimizer.": "serve plans nothing",
        "stream.": "serve reads no live workspace",
        "estimator.PL.": "the router's arms are IM, PM and CROSS",
        "estimator.PH.": "the router's arms are IM, PM and CROSS",
        "phase.PL.": "the router's arms are IM, PM and CROSS",
        "phase.PH.": "the router's arms are IM, PM and CROSS",
        "cache.": "the sampling arms use the probe-index cache only",
    }

    def build_data(self) -> None:
        with self.timed("datasets.generate_s"):
            datasets = {
                name: generate(scale=SCALE, seed=DOCUMENT_SEED)
                for name, generate in GENERATORS.items()
            }
        self.pairs: list[Pair] = []
        for name, queries in ALL_WORKLOADS.items():
            dataset = datasets[name]
            for query in queries:
                ancestors, descendants = query.operands(dataset)
                self.pairs.append(
                    Pair(
                        name,
                        query.id,
                        ancestors,
                        descendants,
                        dataset.tree.workspace(),
                    )
                )
        with self.timed("truth.exact_s"):
            self.truth = [
                float(containment_join_size(p.ancestors, p.descendants))
                for p in self.pairs
            ]

    def start(self, trace: TraceContext | None = None) -> None:
        store = FeedbackStore(max_records=FEEDBACK_RECORDS)
        for pair, exact in zip(self.pairs, self.truth):
            store.observe_truth(pair.ancestors, pair.descendants, exact)
        self.router = UCB1Router(ARMS)
        router = (
            TracedRouter(self.router, trace)
            if trace is not None
            else self.router
        )
        self._open_service(trace, router=router, feedback=store)
        self.rng = np.random.default_rng([self.seed, 3])
        self.first_seed = derive_seed(self.seed, 4)
        # The answers, kept compact so that their memory barely grows
        # with the bursts a run completes: the index of each answered
        # burst, and per reply its routed arm (a ROUTER_ARMS index) and
        # its value.
        self.answered_ops = array("q")
        self.routed = bytearray()
        self.values = array("d")
        self.operand_mismatches = 0

    def _payload(self, index: int, offset: int) -> tuple[int, int]:
        """Pair index and seed of payload ``offset`` of burst ``index``."""
        pair = index * PAIRS_PER_BURST + offset // SEEDS_PER_PAIR
        return pair % len(self.pairs), self.first_seed + index * BURST + offset

    def run_op(self, index: int) -> tuple[float, float]:
        payloads: list[bytes] = []
        formats: list[str] = []
        for offset in range(BURST):
            pair_index, seed = self._payload(index, offset)
            pair = self.pairs[pair_index]
            fmt = "json" if self.rng.random() < JSON_SHARE else "binary"
            request = EstimateRequest(
                ancestors=pair.ancestors,
                descendants=pair.descendants,
                method=REQUESTED_METHOD,
                workspace=pair.workspace,
                config={"num_samples": NUM_SAMPLES, "seed": seed},
                request_id=f"{index}.{offset}",
            )
            payloads.append(wire.encode_request(request, wire_format=fmt))
            formats.append(fmt)

        start = time.perf_counter()
        decoded = []
        for payload, fmt in zip(payloads, formats):
            with self.span("wire.decode_request", format=fmt,
                           bytes=len(payload)):
                decoded.append(wire.decode_request(payload))
        responses = self.client.map([request for request, _ in decoded])
        replies = []
        for response, (_, fmt) in zip(responses, decoded):
            with self.span("wire.encode_response", format=fmt):
                replies.append(wire.encode_response(response, fmt))
        elapsed = time.perf_counter() - start

        routed, values = bytearray(), array("d")
        for offset, ((request, _), reply) in enumerate(zip(decoded, replies)):
            pair = self.pairs[self._payload(index, offset)[0]]
            if not (
                same_operand(request.ancestors, pair.ancestors)
                and same_operand(request.descendants, pair.descendants)
            ):
                self.operand_mismatches += 1
            response = wire.decode_response(reply)
            if response.status != "ok":
                self.fail()
            method = response.routed_method
            routed.append(
                ROUTER_ARMS.index(method) if method in ARMS else UNROUTED
            )
            values.append(response.estimate.value)
        self.answered_ops.append(index)
        self.routed += routed
        self.values += values
        return elapsed, elapsed

    def checks(self) -> dict[str, bool]:
        mismatched = 0
        for burst, index in enumerate(self.answered_ops):
            for offset in range(BURST):
                position = burst * BURST + offset
                if self.routed[position] == UNROUTED:
                    mismatched += 1
                    continue
                method = ROUTER_ARMS[self.routed[position]]
                pair_index, seed = self._payload(index, offset)
                pair = self.pairs[pair_index]
                direct = repro.estimate(
                    pair.ancestors,
                    pair.descendants,
                    method,
                    workspace=pair.workspace,
                    seed=seed,
                    **ARMS[method],
                )
                mismatched += direct.value != self.values[position]
        return {
            "serve.responses_equal_direct": mismatched == 0,
            "serve.operands_roundtrip": self.operand_mismatches == 0,
            "serve.all_ok": self.failed_total == 0,
        }

    def describe(self) -> dict[str, Any]:
        return {
            "workload": self.name,
            "datasets": {
                name: {"scale": SCALE, "seed": DOCUMENT_SEED}
                for name in GENERATORS
            },
            "pairs": [[p.dataset, p.query] for p in self.pairs],
            "burst": {
                "pairs": PAIRS_PER_BURST,
                "seeds_per_pair": SEEDS_PER_PAIR,
                "json_share": JSON_SHARE,
            },
            "router": {**self.router.describe(), "candidates": ARMS},
            "feedback": "FeedbackStore with exact truth for every pair",
            "service": self.service_description(
                router="UCB1", feedback="FeedbackStore"
            ),
        }
