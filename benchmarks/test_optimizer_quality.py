"""End-to-end optimizer quality: the introduction's motivation, measured.

The paper motivates size estimation with join ordering: a wrong
intermediate-size estimate picks a plan whose true cost is larger.  This
benchmark runs the chain optimizer over XMARK 3- and 4-way chains with
each estimation method (plus the §6.5 hybrid, the pessimistic upper
bound, and the exact oracle), all through the pluggable
``CardinalityGenerator`` interface, and reports the *plan regret*: true
cost of the chosen plan divided by the true cost of the optimal plan.
A regret of 1.00 means the generator was good enough to pick the best
plan.

The sweep test runs :func:`repro.optimizer.regret.regret_report` at its
defaults — all 11 registered generators over 12 chains on XMark, DBLP
and XMach at scale 0.05 — and writes every chosen plan with its true
cost, so a planner or generator change that moves any plan shows up as
a diff of the results file.
"""

import statistics

from repro.core.budget import SpaceBudget
from repro.estimators.hybrid import HybridEstimator
from repro.estimators.im_sampling import IMSamplingEstimator
from repro.estimators.ph_histogram import PHHistogramEstimator
from repro.estimators.pl_histogram import PLHistogramEstimator
from repro.experiments.report import format_table
from repro.optimizer import optimize, resolve_generator
from repro.optimizer.regret import (
    optimal_true_cost,
    regret_report,
    true_plan_cost,
)

CHAINS = [
    ["open_auction", "annotation", "text"],
    ["item", "desp", "text"],
    ["desp", "parlist", "listitem"],
    ["desp", "parlist", "listitem", "text"],
    ["item", "desp", "parlist", "listitem"],
]


def test_optimizer_plan_regret(benchmark, report, xmark_full):
    budget = SpaceBudget(800)
    generators = {
        "EXACT": lambda: resolve_generator("EXACT"),
        "UBOUND": lambda: resolve_generator("UBOUND"),
        "PH": lambda: PHHistogramEstimator(budget=budget),
        "PL": lambda: PLHistogramEstimator(budget=budget),
        "IM": lambda: IMSamplingEstimator(budget=budget, seed=17),
        "HYBRID": lambda: HybridEstimator(budget=budget, seed=17),
    }
    workspace = xmark_full.tree.workspace()

    sets0 = [xmark_full.node_set(tag) for tag in CHAINS[0]]
    benchmark.pedantic(
        lambda: optimize(sets0, generators["PL"](), workspace=workspace),
        rounds=3,
        iterations=1,
    )

    rows = []
    regrets: dict[str, list[float]] = {name: [] for name in generators}
    for tags in CHAINS:
        sets = [xmark_full.node_set(tag) for tag in tags]
        optimal_cost = optimal_true_cost(sets)
        row = [" // ".join(tags), optimal_cost]
        for name, factory in generators.items():
            chosen = optimize(sets, factory(), workspace=workspace)
            chosen_cost = true_plan_cost(chosen, sets)
            regret = (
                chosen_cost / optimal_cost if optimal_cost else 1.0
            )
            regrets[name].append(regret)
            row.append(regret)
        rows.append(row)
    report(
        "optimizer_plan_regret",
        format_table(
            ["chain", "optimal cost", *generators],
            rows,
            title="[xmark] plan regret (chosen true cost / optimal true "
                  "cost) per cardinality generator",
        ),
    )

    # The exact oracle must always find the optimum.
    assert all(regret == 1.0 for regret in regrets["EXACT"])
    # The pessimistic bound plans from sound overestimates; its regret
    # stays modest even though its absolute estimates are loose.
    assert statistics.fmean(regrets["UBOUND"]) < 1.6
    # Good estimators keep mean regret near 1; the broken baseline (PH on
    # recursive sets) must not be better than IM.
    assert statistics.fmean(regrets["IM"]) < 1.6
    assert statistics.fmean(regrets["IM"]) <= (
        statistics.fmean(regrets["PH"]) + 1e-9
    )


def test_optimizer_regret_sweep(report):
    sweep = regret_report()
    rows = [
        [
            row["dataset"],
            " // ".join(row["tags"]),
            name,
            chosen["plan"],
            chosen["true_cost"],
            f"{chosen['regret']:.3f}",
            chosen["underestimated_segments"],
        ]
        for row in sweep["chains"]
        for name, chosen in row["plans"].items()
    ]
    generators = sweep["generators"]
    summary = [
        [
            name,
            f"{stats['mean_regret']:.3f}",
            f"{stats['max_regret']:.3f}",
            f"{stats['optimal_plans']}/{stats['chains']}",
            stats["underestimated_segments"],
        ]
        for name, stats in generators.items()
    ]
    report(
        "optimizer_regret_sweep",
        format_table(
            ["dataset", "chain", "generator", "plan", "true cost",
             "regret", "underestimated"],
            rows,
            title=f"plan regret sweep at scale {sweep['scale']}, seed "
                  f"{sweep['seed']} (regret = chosen true cost / optimal "
                  "true cost - 1; underestimated = plan segments whose "
                  "estimate is below the true size)",
        )
        + "\n\n"
        + format_table(
            ["generator", "mean regret", "max regret", "optimal plans",
             "underestimated"],
            summary,
            title="per generator",
        ),
    )

    # The exact oracle picks a true-cost-optimal plan on every chain,
    # and the pessimistic bound never underestimates a true size.
    assert len(generators) >= 4
    assert generators["EXACT"]["max_regret"] == 0.0
    assert generators["UBOUND"]["underestimated_segments"] == 0
