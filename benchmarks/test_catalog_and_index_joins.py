"""System-level benchmarks: the statistics catalog and index-assisted joins.

* Catalog: build cost and size for every XMARK tag under the paper's
  budgets, then plan-time estimation accuracy with *no base-data access*
  (histogram mode = PL synopses; sample mode = two-sample estimation).
* Index joins: XR-tree probing vs the stack-tree merge, measured as
  elements read rather than wall-clock time, so the file reproduces
  exactly; the counts show how selective the driving side must be for
  probing to win.
"""

import statistics
from bisect import bisect_right

import numpy as np

from repro.catalog import StatisticsCatalog
from repro.core.budget import SpaceBudget
from repro.core.nodeset import NodeSet
from repro.datasets.workloads import xmark_queries
from repro.experiments.report import format_table
from repro.index.xrtree import XRTree
from repro.join import (
    containment_join_size,
    probe_ancestors_join,
    stack_tree_join,
)


def test_catalog_estimation(benchmark, report, bench_runs, xmark_full):
    budget = SpaceBudget(800)
    queries = xmark_queries()

    def build_catalog():
        return StatisticsCatalog(xmark_full.tree, budget)

    catalog = benchmark.pedantic(build_catalog, rounds=1, iterations=1)

    rows = []
    for query in queries:
        a, d = query.operands(xmark_full)
        true = containment_join_size(a, d)
        hist_err = catalog.estimate_join(
            query.ancestor, query.descendant
        ).relative_error(true)
        sample_errors = []
        for seed in range(max(bench_runs, 3)):
            sample_catalog = StatisticsCatalog(
                xmark_full.tree,
                budget,
                method="sample",
                seed=seed,
                tags=[query.ancestor, query.descendant],
            )
            sample_errors.append(
                sample_catalog.estimate_join(
                    query.ancestor, query.descendant
                ).relative_error(true)
            )
        rows.append(
            [query.id, true, hist_err, statistics.fmean(sample_errors)]
        )
    report(
        "catalog_estimation",
        format_table(
            ["query", "true size", "catalog-PL err %", "catalog-2sample err %"],
            rows,
            title=(
                f"[xmark] plan-time estimation from an {catalog.nbytes()}"
                f"-byte catalog ({len(catalog)} tags, 800 B each)"
            ),
        ),
    )
    # The catalog must answer every workload query without base access,
    # with histogram accuracy comparable to direct PL runs.
    hist_mean = statistics.fmean(r[2] for r in rows)
    assert hist_mean < 60.0
    assert catalog.nbytes() < len(catalog) * (budget.nbytes + 16)


def _probe_reads(xrtree: XRTree, drivers: NodeSet) -> int:
    """Elements :meth:`XRTree.stab` examines over all ``drivers``: every
    stab-list entry on each root-to-leaf path, then the leaf's slots up
    to the first one that starts past the probe point."""
    reads = 0
    for d in drivers:
        node = xrtree._root
        while hasattr(node, "stab_list"):
            reads += len(node.stab_list)
            node = node.children[bisect_right(node.keys, d.start)]
        for element in node.elements:
            reads += 1
            if element.start > d.start:
                break
    return reads


def _merge_reads(ancestors: NodeSet, descendants: NodeSet) -> int:
    """Elements :func:`stack_tree_join` reads: every descendant, and
    every ancestor that starts before the last descendant."""
    last = descendants.elements[-1].start
    return len(descendants) + int(
        np.searchsorted(ancestors.starts, last, side="left")
    )


def test_index_join_selectivity(benchmark, report, xmark_full):
    """Probing beats the merge only for a very selective driver."""
    ancestors = xmark_full.node_set("open_auction")
    reserve = xmark_full.node_set("reserve")
    drivers = {
        "selective driver (reserve)": reserve,
        "non-selective driver (text)": xmark_full.node_set("text"),
        "sparser driver (every 16th reserve)": NodeSet(reserve.elements[::16]),
    }

    xrtree = XRTree(ancestors)
    benchmark.pedantic(
        lambda: probe_ancestors_join(xrtree, reserve),
        rounds=3,
        iterations=1,
    )

    rows = []
    for scenario, descendants in drivers.items():
        pairs = len(probe_ancestors_join(xrtree, descendants))
        assert pairs == len(stack_tree_join(ancestors, descendants))
        rows.append(
            [scenario, len(descendants), _probe_reads(xrtree, descendants),
             _merge_reads(ancestors, descendants), pairs]
        )
    report(
        "index_join_selectivity",
        format_table(
            ["scenario", "drivers", "probe reads (XR-tree)",
             "merge reads (stack-tree)", "pairs"],
            rows,
            title=f"Index-assisted vs merge containment join: elements "
                  f"read (prebuilt XR-tree on {len(ancestors)} "
                  "open_auction)",
        ),
    )
    # A probe examines ~18 elements per driver and the merge reads each
    # input element once, so probing wins only below about one driver
    # per 17 indexed ancestors: not for reserve or text, but for every
    # 16th reserve element (one per 33).
    probe = [row[2] for row in rows]
    merge = [row[3] for row in rows]
    assert probe[0] > merge[0] and probe[1] > merge[1]
    assert probe[2] < merge[2]
