"""The experiment harness: run estimator sweeps over query workloads.

The paper's metric is the relative error ``|x - x̂| / x × 100%`` against
the exact join size, with sampling methods averaged over multiple runs
under the same setting (Section 6.1).  A :class:`MethodSpec` wraps an
estimator factory so each run gets an independently seeded instance;
:func:`evaluate` produces one :class:`QueryRow` per query with the
aggregated error of every method.

Performance controls (see ``docs/ARCHITECTURE.md``):

* ``cache=`` installs a :class:`~repro.perf.SummaryCache` around the
  sweep, so histograms shared between queries, methods and repetitions
  build once;
* ``index_cache=`` does the same for the sampling estimators' probe
  indexes (:class:`~repro.perf.IndexCache`); :func:`evaluate` installs
  a private one automatically when none is given, and additionally
  memoizes each query's exact join size in it, since repetition sweeps
  ask for the same ground truth many times;
* the repetition loop of :func:`run_method` executes all runs of a
  sampling method as **one batched pass**
  (:meth:`~repro.estimators.sampling_base.SamplingEstimator.estimate_across`)
  — per-run seeds are drawn from the method generator in the exact
  order the sequential loop would draw them and each run's estimate is
  bit-identical to its sequential counterpart, so aggregates are
  unchanged to the last ulp.

Observability (see ``docs/API.md``): while :func:`repro.obs.observe`
is active, every estimator call records into the ambient metrics
registry and each finished query row is streamed to the ambient
telemetry sink as a ``query`` event.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

from repro.core.budget import SpaceBudget
from repro.core.nodeset import NodeSet
from repro.core.rng import SeedLike, make_rng
from repro.core.workspace import Workspace
from repro.datasets.base import Dataset
from repro.datasets.workloads import Query
from repro.estimators.base import Estimator
from repro.estimators.im_sampling import IMSamplingEstimator
from repro.estimators.ph_histogram import PHHistogramEstimator
from repro.estimators.pl_histogram import PLHistogramEstimator
from repro.estimators.pm_sampling import PMSamplingEstimator
from repro.estimators.sampling_base import SamplingEstimator
from repro.join import containment_join_size
from repro.obs import runtime as _obs
from repro.perf import reference_kernels_enabled
from repro.perf.cache import SummaryCache, use_cache
from repro.perf.index_cache import (
    IndexCache,
    active_index_cache,
    resolve_index_cache,
    use_index_cache,
)

Aggregation = Literal["mean_error", "error_of_mean"]


@dataclass(frozen=True, slots=True)
class MethodSpec:
    """A named estimator factory.

    ``factory`` receives a seed so every repetition of a stochastic
    method is independent; deterministic methods ignore it.
    """

    label: str
    factory: Callable[[SeedLike], Estimator]
    stochastic: bool = True


@dataclass(slots=True)
class QueryRow:
    """Results for one query: exact size plus per-method aggregates."""

    query: Query
    true_size: int
    errors: dict[str, float] = field(default_factory=dict)
    estimates: dict[str, float] = field(default_factory=dict)


def paper_methods(budget: SpaceBudget) -> list[MethodSpec]:
    """The four methods of Figures 5 and 6 configured for one budget.

    PH gets ``budget // 8`` grid cells, PL ``budget // 20`` buckets and
    the sampling methods ``budget // 8`` samples — the conversions stated
    in Section 6.2.
    """
    return [
        MethodSpec(
            "PH",
            lambda seed, b=budget: PHHistogramEstimator(budget=b),
            stochastic=False,
        ),
        MethodSpec(
            "PL",
            lambda seed, b=budget: PLHistogramEstimator(budget=b),
            stochastic=False,
        ),
        MethodSpec(
            "IM",
            lambda seed, b=budget: IMSamplingEstimator(budget=b, seed=seed),
        ),
        MethodSpec(
            "PM",
            lambda seed, b=budget: PMSamplingEstimator(budget=b, seed=seed),
        ),
    ]


def run_method(
    method: MethodSpec,
    ancestors: NodeSet,
    descendants: NodeSet,
    workspace: Workspace,
    true_size: int,
    runs: int,
    seed: SeedLike,
    aggregation: Aggregation = "mean_error",
) -> tuple[float, float]:
    """Aggregate ``(error_pct, mean_estimate)`` of one method on one query.

    ``aggregation="mean_error"`` (default, the conventional reading of the
    paper's setup) averages each run's relative error;
    ``"error_of_mean"`` first averages the estimates, then takes the error
    of that mean — which converges to 0 for any unbiased estimator.
    """
    rng = make_rng(seed)
    effective_runs = runs if method.stochastic else 1
    # One bulk draw fills the seed array exactly as per-run scalar draws
    # would (factories never touch this generator), so constructing every
    # estimator up front leaves the stream unchanged and lets all runs
    # execute as a single batched pass.
    seeds = rng.integers(0, 2**63 - 1, size=effective_runs)
    estimators = [method.factory(int(s)) for s in seeds]
    estimates = _run_estimators(
        estimators, ancestors, descendants, workspace
    )
    mean_estimate = statistics.fmean(estimates)
    if true_size == 0:
        error = 0.0 if all(e == 0 for e in estimates) else float("inf")
    elif aggregation == "error_of_mean":
        error = abs(true_size - mean_estimate) / true_size * 100.0
    else:
        error = statistics.fmean(
            abs(true_size - e) / true_size * 100.0 for e in estimates
        )
    return error, mean_estimate


def _run_estimators(
    estimators: Sequence[Estimator],
    ancestors: NodeSet,
    descendants: NodeSet,
    workspace: Workspace,
) -> list[float]:
    """Estimates of every instance, batched when they can share a pass.

    Identically configured sampling estimators (the stochastic
    repetition pattern) run through
    :meth:`SamplingEstimator.estimate_across`, which returns exactly the
    values sequential ``estimate`` calls would.  Everything else — and
    everything under :func:`repro.perf.reference_kernels`, whose purpose
    is to reproduce the per-call behaviour — runs sequentially.
    """
    first = estimators[0]
    if (
        len(estimators) > 1
        and isinstance(first, SamplingEstimator)
        and not reference_kernels_enabled()
        and all(type(e) is type(first) for e in estimators)
    ):
        key = first._batch_key()
        if all(e._batch_key() == key for e in estimators):
            results = type(first).estimate_across(
                estimators, ancestors, descendants, workspace
            )
            return [r.value for r in results]
    return [
        e.estimate(ancestors, descendants, workspace).value
        for e in estimators
    ]


def _evaluate_query(
    dataset: Dataset,
    query: Query,
    methods: Sequence[MethodSpec],
    workspace: Workspace,
    runs: int,
    method_seeds: Sequence[int],
    aggregation: Aggregation,
) -> QueryRow:
    """One query against every method, with pre-derived per-method seeds."""
    ancestors, descendants = query.operands(dataset)
    true_size = _true_size(ancestors, descendants)
    row = QueryRow(query=query, true_size=true_size)
    for method, method_seed in zip(methods, method_seeds):
        error, mean_estimate = run_method(
            method,
            ancestors,
            descendants,
            workspace,
            true_size,
            runs,
            method_seed,
            aggregation,
        )
        row.errors[method.label] = error
        row.estimates[method.label] = mean_estimate
    return row


def _true_size(ancestors: NodeSet, descendants: NodeSet) -> int:
    """Exact join size, memoized in the ambient index cache.

    Sample-count and budget sweeps evaluate the same operand pair under
    many configurations; the ground truth is a pure function of operand
    content, so it lives happily next to the probe indexes under a
    content key.
    """
    cache = resolve_index_cache(None)
    if cache is None:
        return containment_join_size(ancestors, descendants)
    return cache.get_or_build(
        ("join_size", ancestors.fingerprint, descendants.fingerprint),
        lambda: containment_join_size(ancestors, descendants),
    )


def evaluate(
    dataset: Dataset,
    queries: Sequence[Query],
    methods: Sequence[MethodSpec],
    runs: int = 11,
    seed: int = 0,
    aggregation: Aggregation = "mean_error",
    cache: SummaryCache | None = None,
    index_cache: IndexCache | None = None,
) -> list[QueryRow]:
    """Run every method on every query of one dataset.

    Args:
        cache: summary cache installed (ambiently) around the sweep;
            histogram-based methods then build each summary at most
            twice per distinct (node set, workspace, configuration) —
            the cache stores it on its second miss.
        index_cache: probe-index cache installed around the sweep for
            the sampling methods (and the exact-size memo).  When
            omitted and no ambient one is active, a private cache is
            created *per query* — results are identical either way.
            Pass an :class:`~repro.perf.IndexCache` (or install one
            ambiently, as the Figure 8 sweeps do) to share built indexes
            and exact-size memos across queries and ``evaluate`` calls.

    While :func:`repro.obs.observe` is active, each row is streamed to
    the ambient sink as a ``query`` telemetry event.
    """
    workspace = dataset.tree.workspace()
    auto_index_cache = (
        index_cache is None
        and active_index_cache() is None
        and not reference_kernels_enabled()
    )
    rng = make_rng(seed)
    scope = use_cache(cache) if cache is not None else nullcontext()
    index_scope = (
        use_index_cache(index_cache)
        if index_cache is not None
        else nullcontext()
    )
    with scope, index_scope:
        rows = []
        for query in queries:
            method_seeds = [
                int(rng.integers(0, 2**63 - 1)) for __ in methods
            ]
            per_query_scope = (
                use_index_cache(IndexCache())
                if auto_index_cache
                else nullcontext()
            )
            with per_query_scope:
                row = _evaluate_query(
                    dataset,
                    query,
                    methods,
                    workspace,
                    runs,
                    method_seeds,
                    aggregation,
                )
            if _obs.enabled():
                _obs.record_query(
                    row.query.id, row.true_size, row.errors, row.estimates
                )
            rows.append(row)
        return rows
