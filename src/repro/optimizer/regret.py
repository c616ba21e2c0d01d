"""Plan-regret harness: how much does an estimator's plan really cost?

The paper motivates size estimation with join ordering; this module
closes that loop and measures it.  For each chain query we enumerate
*every* parenthesization, compute each plan's **true** cost (the sum of
its intermediate-result sizes, via exact chain joins), and score the
plan each cardinality generator picks against the best possible plan::

    regret = true_cost(chosen plan) / true_cost(optimal plan) - 1

A regret of 0 means the generator's estimates were good enough to pick
a true-cost-optimal plan; the exact-oracle generator achieves 0 by
construction on every chain, which anchors the scale.  The sweep runs
every registered estimator (wrapped as a generator), the pessimistic
upper-bound generator and the exact oracle over chain workloads on the
XMark, DBLP and XMach datasets; ``benchmarks/test_optimizer_quality.py``
writes its plans to ``results/optimizer_regret_sweep.txt`` and asserts
its gates.

The report is deterministic for fixed ``scale``/``seed``: generators
are constructed fresh per chain from seeded configurations, so neither
chain order nor repetition changes any number.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Mapping, Sequence

from repro.core.nodeset import NodeSet
from repro.datasets.base import Dataset
from repro.datasets.dblp import generate_dblp
from repro.datasets.xmach import generate_xmach
from repro.datasets.xmark import generate_xmark
from repro.optimizer.chain import chain_join_size
from repro.optimizer.generator import CardinalityGenerator, resolve_generator
from repro.optimizer.planner import JoinPlan, optimize, plan_cost

__all__ = [
    "DEFAULT_CHAINS",
    "all_plans",
    "default_generator_specs",
    "optimal_true_cost",
    "regret_report",
    "true_plan_cost",
]

#: Chain workloads per dataset — adjacent pairs follow the Table 3
#: query edges, so every step is a real containment relationship.
DEFAULT_CHAINS: dict[str, tuple[tuple[str, ...], ...]] = {
    "xmark": (
        ("open_auction", "annotation", "text"),
        ("item", "desp", "text"),
        ("desp", "parlist", "listitem"),
        ("desp", "parlist", "listitem", "text"),
        ("item", "desp", "parlist", "listitem"),
    ),
    "dblp": (
        ("inproceeding", "title", "sup"),
        ("inproceeding", "cite", "label"),
    ),
    "xmach": (
        ("host", "path", "doc_info"),
        ("path", "doc_info", "doc_id"),
        ("chapter", "section", "paragraph"),
        ("section", "paragraph", "link"),
        ("chapter", "section", "paragraph", "link"),
    ),
}

_GENERATORS: dict[str, Callable[[float, int], Dataset]] = {
    "xmark": lambda scale, seed: generate_xmark(scale=scale, seed=seed),
    "dblp": lambda scale, seed: generate_dblp(scale=scale, seed=seed),
    "xmach": lambda scale, seed: generate_xmach(scale=scale, seed=seed),
}


def default_generator_specs(seed: int = 17) -> dict[str, dict[str, Any]]:
    """The sweep's generator lineup: name -> constructor configuration.

    All seven sampling estimators, both histogram families, the
    pessimistic upper bound and the exact oracle.  ``num_samples`` is a
    ceiling — the sweep clamps it per chain so without-replacement
    draws stay legal on small operands.
    """
    return {
        "PL": {"num_buckets": 16},
        "PH": {"num_cells": 8},
        "IM": {"num_samples": 100, "seed": seed},
        "PM": {"num_samples": 100, "seed": seed},
        "CROSS": {"num_samples": 100, "seed": seed},
        "SYS": {"num_samples": 100, "seed": seed},
        "BIFOCAL": {"num_samples": 100, "seed": seed},
        "SEMI-A": {"num_samples": 100, "seed": seed},
        "SEMI-D": {"num_samples": 100, "seed": seed},
        "UBOUND": {},
        "EXACT": {},
    }


def all_plans(lo: int, hi: int) -> list[JoinPlan]:
    """Every parenthesization of the segment ``lo..hi`` (sizes 0)."""
    if lo == hi:
        return [JoinPlan(lo, hi, 0.0)]
    plans = []
    for split in range(lo, hi):
        for left in all_plans(lo, split):
            for right in all_plans(split + 1, hi):
                plans.append(JoinPlan(lo, hi, 0.0, left, right))
    return plans


def true_plan_cost(
    plan: JoinPlan, node_sets: Sequence[NodeSet], is_root: bool = True
) -> int:
    """True cost of ``plan``: the sum of its intermediate-result sizes.

    Mirrors :func:`~repro.optimizer.planner.plan_cost` but with *exact*
    segment sizes; the root result is excluded for the same reason.
    """
    if plan.is_leaf:
        return 0
    assert plan.left is not None and plan.right is not None
    own = (
        0
        if is_root
        else chain_join_size(node_sets[plan.lo : plan.hi + 1])
    )
    return (
        own
        + true_plan_cost(plan.left, node_sets, False)
        + true_plan_cost(plan.right, node_sets, False)
    )


def optimal_true_cost(node_sets: Sequence[NodeSet]) -> int:
    """True cost of the best possible parenthesization."""
    return min(
        true_plan_cost(plan, node_sets)
        for plan in all_plans(0, len(node_sets) - 1)
    )


def _underestimated_segments(
    plan: JoinPlan, node_sets: Sequence[NodeSet]
) -> int:
    """Internal plan nodes whose estimated size is below the true size."""
    if plan.is_leaf:
        return 0
    assert plan.left is not None and plan.right is not None
    true_size = chain_join_size(node_sets[plan.lo : plan.hi + 1])
    own = 1 if plan.estimated_size + 1e-9 < true_size else 0
    return (
        own
        + _underestimated_segments(plan.left, node_sets)
        + _underestimated_segments(plan.right, node_sets)
    )


def _clamped(
    config: Mapping[str, Any], node_sets: Sequence[NodeSet]
) -> dict[str, Any]:
    """Clamp ``num_samples`` to the smallest operand of the chain."""
    adjusted = dict(config)
    if "num_samples" in adjusted:
        smallest = min(len(s) for s in node_sets)
        adjusted["num_samples"] = max(
            1, min(int(adjusted["num_samples"]), smallest // 2 or 1)
        )
    return adjusted


def regret_report(
    generator_specs: Mapping[str, Mapping[str, Any]] | None = None,
    *,
    scale: float = 0.05,
    seed: int = 101,
    datasets: Sequence[str] | None = None,
    chains: Mapping[str, Sequence[Sequence[str]]] | None = None,
) -> dict[str, Any]:
    """Sweep every generator through the planner; score plan regret.

    Args:
        generator_specs: name -> constructor config for
            :func:`~repro.optimizer.generator.resolve_generator`;
            defaults to :func:`default_generator_specs`.
        scale: dataset scale factor (0.05 = CI-sized documents).
        seed: dataset generator seed (also keys the report).
        datasets: subset of ``xmark``/``dblp``/``xmach``; default all.
        chains: chain workloads per dataset; default
            :data:`DEFAULT_CHAINS`.

    Returns the sweep as a JSON-ready dict with no timing in it, so
    the same arguments give the same report.
    """
    specs = dict(
        generator_specs
        if generator_specs is not None
        else default_generator_specs()
    )
    chain_map = dict(chains if chains is not None else DEFAULT_CHAINS)
    names = list(datasets if datasets is not None else chain_map)

    chain_rows: list[dict[str, Any]] = []
    per_generator: dict[str, dict[str, Any]] = {
        name: {"regrets": [], "underestimated_segments": 0}
        for name in specs
    }
    describes: dict[str, dict[str, Any]] = {}

    for dataset_name in names:
        dataset = _GENERATORS[dataset_name](scale, seed)
        workspace = dataset.tree.workspace()
        for tags in chain_map[dataset_name]:
            node_sets = [dataset.node_set(tag) for tag in tags]
            optimal = optimal_true_cost(node_sets)
            row: dict[str, Any] = {
                "dataset": dataset_name,
                "tags": list(tags),
                "optimal_cost": optimal,
                "plans": {},
            }
            for gen_name, config in specs.items():
                generator = resolve_generator(
                    gen_name, **_clamped(config, node_sets)
                )
                plan = optimize(
                    node_sets, generator, workspace=workspace
                )
                describes.setdefault(gen_name, generator.describe())
                chosen = true_plan_cost(plan, node_sets)
                regret = (chosen / optimal - 1.0) if optimal else 0.0
                under = _underestimated_segments(plan, node_sets)
                per_generator[gen_name]["regrets"].append(regret)
                per_generator[gen_name]["underestimated_segments"] += under
                row["plans"][gen_name] = {
                    "plan": plan.describe(list(tags)),
                    "true_cost": chosen,
                    "estimated_cost": plan_cost(plan),
                    "regret": regret,
                    "underestimated_segments": under,
                }
            chain_rows.append(row)

    generators: dict[str, dict[str, Any]] = {}
    for gen_name, stats in per_generator.items():
        regrets = stats["regrets"]
        generators[gen_name] = {
            "describe": describes.get(gen_name, {}),
            "chains": len(regrets),
            "mean_regret": statistics.fmean(regrets) if regrets else 0.0,
            "max_regret": max(regrets, default=0.0),
            "optimal_plans": sum(1 for r in regrets if r == 0.0),
            "underestimated_segments": stats["underestimated_segments"],
        }

    return {
        "scale": scale,
        "seed": seed,
        "datasets": names,
        "generators": generators,
        "chains": chain_rows,
    }
