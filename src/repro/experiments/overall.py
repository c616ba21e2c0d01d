"""Overall-performance experiment: Figures 5 (XMARK) and 6 (DBLP).

For each space budget (200, 400, 800 bytes) run PH, PL, IM and PM on
every Table 3 query of a dataset and report the relative errors.  The
same runner reproduces the XMACH results the paper summarizes as "very
similar to those on XMARK".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.budget import SpaceBudget, paper_budgets
from repro.datasets.workloads import ALL_WORKLOADS
from repro.experiments.data import get_dataset
from repro.experiments.harness import QueryRow, evaluate, paper_methods
from repro.experiments.report import format_table
from repro.perf.cache import SummaryCache

METHOD_ORDER = ("PH", "PL", "IM", "PM")


@dataclass(slots=True)
class OverallResult:
    """One panel of Figure 5/6: a dataset at one space budget."""

    dataset: str
    budget: SpaceBudget
    rows: list[QueryRow]

    def render(self) -> str:
        headers = ["query", "true size", *METHOD_ORDER]
        table_rows = [
            [
                row.query.id,
                row.true_size,
                *(row.errors[m] for m in METHOD_ORDER),
            ]
            for row in self.rows
        ]
        return format_table(
            headers,
            table_rows,
            title=(
                f"[{self.dataset}] relative error (%) at space budget "
                f"{self.budget}"
            ),
        )


def run_overall(
    dataset_name: str,
    budgets: tuple[SpaceBudget, ...] = (),
    scale: float = 1.0,
    runs: int = 11,
    seed: int = 0,
    cache: SummaryCache | None = None,
) -> list[OverallResult]:
    """Run the overall-performance experiment for one dataset.

    Returns one :class:`OverallResult` per budget (default: the paper's
    200/400/800 bytes, i.e. panels (a)-(c) of Figure 5 or 6).  One
    summary cache (created here unless supplied) spans every budget, so
    the histogram methods build each per-budget summary at most twice
    across the whole sweep: the cache stores a summary on its second
    miss and serves it from then on.
    """
    if not budgets:
        budgets = paper_budgets()
    dataset = get_dataset(dataset_name, scale=scale)
    queries = ALL_WORKLOADS[dataset_name]
    if cache is None:
        cache = SummaryCache()
    results = []
    for budget in budgets:
        rows = evaluate(
            dataset,
            queries,
            paper_methods(budget),
            runs=runs,
            seed=seed,
            cache=cache,
        )
        results.append(OverallResult(dataset_name, budget, rows))
    return results
