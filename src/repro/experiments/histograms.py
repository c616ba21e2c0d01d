"""Histogram accuracy-vs-space experiment: Figure 7.

Panels (a) and (b) sweep the bucket count from 5 to 45 for PH and PL on
the XMARK queries; panel (c) compares the two at a fixed budget.  The
paper's headline observations, all checkable from this runner's output:

* neither histogram is sensitive to its bucket count;
* PH explodes on queries whose ancestor set self-nests (Q6-Q8);
* PL stays bounded and beats PH nearly everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.workloads import ALL_WORKLOADS, Query
from repro.estimators.ph_histogram import PHHistogramEstimator
from repro.estimators.pl_histogram import PLHistogramEstimator
from repro.experiments.data import get_dataset
from repro.experiments.harness import MethodSpec, evaluate
from repro.experiments.report import format_series, format_table
from repro.perf.cache import SummaryCache

#: Bucket counts swept in Figure 7(a)/(b).
BUCKET_SWEEP = (5, 10, 15, 20, 25, 30, 35, 40, 45)


@dataclass(slots=True)
class HistogramSweep:
    """Relative error per query per bucket count for one method."""

    dataset: str
    method: str
    series: dict[str, list[tuple[float, float]]]  # query id -> (buckets, err)

    def render(self) -> str:
        lines = [
            f"[{self.dataset}] {self.method} relative error (%) vs buckets"
        ]
        for query_id, points in self.series.items():
            lines.append("  " + format_series(query_id, points))
        return "\n".join(lines)


def _method(label: str, buckets: int) -> MethodSpec:
    if label == "PH":
        return MethodSpec(
            "PH",
            lambda seed, b=buckets: PHHistogramEstimator(num_cells=b),
            stochastic=False,
        )
    return MethodSpec(
        "PL",
        lambda seed, b=buckets: PLHistogramEstimator(num_buckets=b),
        stochastic=False,
    )


def run_bucket_sweep(
    dataset_name: str,
    method: str,
    bucket_counts: tuple[int, ...] = BUCKET_SWEEP,
    scale: float = 1.0,
    queries: list[Query] | None = None,
    cache: SummaryCache | None = None,
) -> HistogramSweep:
    """Figure 7(a) (method="PH") or 7(b) (method="PL").

    One summary cache (created here unless supplied) spans the whole
    bucket sweep, so a tag appearing in several queries has its summary
    built at most twice per bucket count (the cache stores it on its
    second miss) rather than once per query.
    """
    dataset = get_dataset(dataset_name, scale=scale)
    if queries is None:
        queries = ALL_WORKLOADS[dataset_name]
    if cache is None:
        cache = SummaryCache()
    series: dict[str, list[tuple[float, float]]] = {
        q.id: [] for q in queries
    }
    for buckets in bucket_counts:
        rows = evaluate(
            dataset,
            queries,
            [_method(method, buckets)],
            runs=1,
            cache=cache,
        )
        for row in rows:
            series[row.query.id].append(
                (float(buckets), row.errors[method])
            )
    return HistogramSweep(dataset_name, method, series)


def run_histogram_comparison(
    dataset_name: str,
    ph_cells: int = 50,
    pl_buckets: int = 20,
    scale: float = 1.0,
    cache: SummaryCache | None = None,
) -> str:
    """Figure 7(c): PH vs PL per query at a fixed (400-byte) budget."""
    dataset = get_dataset(dataset_name, scale=scale)
    queries = ALL_WORKLOADS[dataset_name]
    if cache is None:
        cache = SummaryCache()
    rows = evaluate(
        dataset,
        queries,
        [_method("PH", ph_cells), _method("PL", pl_buckets)],
        runs=1,
        cache=cache,
    )
    return format_table(
        ["query", "true size", "PH", "PL"],
        [
            [r.query.id, r.true_size, r.errors["PH"], r.errors["PL"]]
            for r in rows
        ],
        title=(
            f"[{dataset_name}] PH ({ph_cells} cells) vs PL "
            f"({pl_buckets} buckets) relative error (%)"
        ),
    )
