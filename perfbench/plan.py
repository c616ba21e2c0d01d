"""The ``plan`` workload: an optimizer re-planning the Table-3 chains.

One operation is ``repro.optimize(chain,
service.cardinality_generator(method, **config), workspace=ws)``,
round-robin over the 12 chains of
:data:`repro.optimizer.regret.DEFAULT_CHAINS` × {PL, PH, IM, PM} on
XMark, DBLP and XMach at scale 0.4.  Configurations and the per-chain
``num_samples`` clamp come from :mod:`repro.optimizer.regret`; IM and PM
take a new seed every 4th round, so each sampled configuration is
planned four times.  The memo, the per-request service path and the
planner do the work; wire, batching and stream do none.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Any

import repro
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.datasets import generate_dblp, generate_xmach, generate_xmark
from repro.optimizer import regret
from repro.optimizer.generator import PairwiseGenerator, PlanningState
from repro.optimizer.planner import JoinPlan

from perfbench.core import DOCUMENT_SEED, TraceContext, Workload, derive_seed

SCALE = 0.4
METHODS = ("PL", "PH", "IM", "PM")
SAMPLED = ("IM", "PM")
ROUNDS_PER_SEED = 4
ROUND = len(METHODS) * sum(len(c) for c in regret.DEFAULT_CHAINS.values())
GENERATORS = {
    "xmark": generate_xmark,
    "dblp": generate_dblp,
    "xmach": generate_xmach,
}


@dataclass(frozen=True)
class Chain:
    """One chain query with the true cost of every parenthesization."""

    dataset: str
    tags: tuple[str, ...]
    sets: tuple[NodeSet, ...]
    workspace: Workspace
    true_costs: dict[tuple, int]
    optimal: int


def plan_shape(plan: JoinPlan) -> tuple:
    """A plan's parenthesization, without its estimated sizes."""
    if plan.is_leaf:
        return (plan.lo,)
    assert plan.left is not None and plan.right is not None
    return (plan_shape(plan.left), plan_shape(plan.right))


class DirectPairGenerator(PairwiseGenerator):
    """What a service-backed generator computes, without the service.

    Each pair is one fresh :func:`repro.estimate` call with the
    generator's method and configuration — exactly one service request.
    ``repro.optimize(chain, "IM", seed=s)`` differs: it threads a single
    estimator's RNG through all pairs of the chain.
    """

    def __init__(self, method: str, **config: Any) -> None:
        self.method = method
        self.config = config
        self.name = f"DIRECT-{method}"

    def estimate_pair(self, index: int, state: PlanningState) -> float:
        return repro.estimate(
            state.node_sets[index],
            state.node_sets[index + 1],
            self.method,
            workspace=state.workspace,
            **self.config,
        ).value


class PlanWorkload(Workload):
    name = "plan"
    warmup_ops = ROUND * ROUNDS_PER_SEED  # one seed block
    trace_ops_per_s = 1000
    not_exercised = {
        "wire.": "plan sends no wire payloads",
        "router.": "plan runs without a router",
        "feedback.": "plan runs without a feedback store",
        "stream.": "plan reads no live workspace",
        "estimator.CROSS.": "CROSS is not one of plan's methods",
        "phase.CROSS.": "CROSS is not one of plan's methods",
    }

    def build_data(self) -> None:
        with self.timed("datasets.generate_s"):
            datasets = {
                name: generate(scale=SCALE, seed=DOCUMENT_SEED)
                for name, generate in GENERATORS.items()
            }
        self.chains: list[Chain] = []
        with self.timed("truth.exact_s"):
            for name, dataset in datasets.items():
                for tags in regret.DEFAULT_CHAINS[name]:
                    sets = tuple(dataset.node_set(tag) for tag in tags)
                    costs = {
                        plan_shape(plan): regret.true_plan_cost(plan, sets)
                        for plan in regret.all_plans(0, len(sets) - 1)
                    }
                    self.chains.append(
                        Chain(
                            name,
                            tuple(tags),
                            sets,
                            dataset.tree.workspace(),
                            costs,
                            min(costs.values()),
                        )
                    )
        # Seedless configurations per chain and method; the sampled
        # methods add the seed of their round block at plan time.
        specs = regret.default_generator_specs()
        self.configs = [
            {
                method: {
                    key: value
                    for key, value in regret._clamped(
                        specs[method], chain.sets
                    ).items()
                    if key != "seed"
                }
                for method in METHODS
            }
            for chain in self.chains
        ]

    def start(self, trace: TraceContext | None = None) -> None:
        self._open_service(trace)
        # The hash of each plan, at (seed block) * ROUND + slot: kept
        # compact so that its memory barely grows with the operations a
        # run completes.  A block's later rounds must plan the same.
        self.digests = array("q")
        self.unstable = 0
        self.pair_requests = 0
        self.begin_measurement()

    def begin_measurement(self) -> None:
        super().begin_measurement()
        self.regret_sum = 0.0
        self.planned = 0

    def _schedule(self, position: int) -> tuple[int, str, dict[str, Any]]:
        """Chain index, method and configuration of the operations at
        ``position`` = (seed block) * ROUND + slot."""
        block, slot = divmod(position, ROUND)
        chain_index, method_index = divmod(slot, len(METHODS))
        method = METHODS[method_index]
        config = dict(self.configs[chain_index][method])
        if method in SAMPLED:
            config["seed"] = derive_seed(self.seed, 2, block)
        return chain_index, method, config

    def run_op(self, index: int) -> tuple[float, float]:
        round_, slot = divmod(index, ROUND)
        position = round_ // ROUNDS_PER_SEED * ROUND + slot
        chain_index, method, config = self._schedule(position)
        chain = self.chains[chain_index]
        start = time.perf_counter()
        with self.span("optimizer.optimize", method=method, chain=chain_index):
            generator = self.client.cardinality_generator(method, **config)
            plan = repro.optimize(
                chain.sets, generator, workspace=chain.workspace
            )
        elapsed = time.perf_counter() - start
        self.pair_requests += generator.requests
        if generator.degraded:
            self.fail()
        chosen = chain.true_costs[plan_shape(plan)]
        self.regret_sum += (
            chosen / chain.optimal - 1.0 if chain.optimal else 0.0
        )
        self.planned += 1
        if position < len(self.digests):
            self.unstable += self.digests[position] != hash(plan)
        else:
            # Slots an operation that raised left empty stay 0 and fail.
            self.digests.extend([0] * (position - len(self.digests)))
            self.digests.append(hash(plan))
        return elapsed, elapsed

    def _direct_plan(self, position: int) -> JoinPlan:
        """The plan at ``position``, computed without the service."""
        chain_index, method, config = self._schedule(position)
        chain = self.chains[chain_index]
        if method in SAMPLED:
            source = DirectPairGenerator(method, **config)
            return repro.optimize(chain.sets, source, workspace=chain.workspace)
        return repro.optimize(
            chain.sets, method, workspace=chain.workspace, **config
        )

    def checks(self) -> dict[str, bool]:
        mismatched = 0
        seedless: dict[int, int] = {}  # PL and PH plan alike in every block
        for position, digest in enumerate(self.digests):
            slot = position % ROUND
            expected = seedless.get(slot)
            if expected is None:
                expected = hash(self._direct_plan(position))
                if self._schedule(position)[1] not in SAMPLED:
                    seedless[slot] = expected
            mismatched += expected != digest
        return {
            "plan.service_equals_direct": mismatched == 0
            and self.unstable == 0,
            "plan.all_ok": self.failed_total == 0,
        }

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        regret_mean = self.regret_sum / self.planned if self.planned else 0.0
        return {"plan_regret": (regret_mean, "frac")}

    def layer_metrics(self, registry: Any, spans: Any) -> dict[str, float]:
        out = super().layer_metrics(registry, spans)
        out["optimizer.pair_requests"] = self.pair_requests
        return out

    def describe(self) -> dict[str, Any]:
        assert self.service is not None
        specs = regret.default_generator_specs()
        return {
            "workload": self.name,
            "datasets": {
                name: {"scale": SCALE, "seed": DOCUMENT_SEED}
                for name in GENERATORS
            },
            "chains": [[chain.dataset, *chain.tags] for chain in self.chains],
            "methods": list(METHODS),
            "rounds_per_seed": ROUNDS_PER_SEED,
            "num_samples_clamp": "min(ceiling, smallest operand // 2)",
            "generators": {
                method: self.service.cardinality_generator(
                    method,
                    **{k: v for k, v in specs[method].items() if k != "seed"},
                ).describe()
                for method in METHODS
            },
            "service": self.service_description(),
        }
