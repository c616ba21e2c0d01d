"""The stable public estimation API.

Everything a caller (an optimizer, a benchmark harness, a notebook)
needs without touching package internals:

* :func:`estimate` — one containment join size estimate by method name;
* :func:`build_catalog` — budgeted per-tag synopses for plan-time
  estimation over a whole document;
* :func:`serve` — a micro-batching estimation front-end
  (:class:`EstimationService`) with per-request deadlines, graceful
  degradation and load shedding, for callers that issue many requests
  (an optimizer costing candidate plans) rather than one;
* :func:`optimize` — join-order selection for a containment-join chain,
  driven by any :class:`CardinalityGenerator` (estimator-backed,
  service-backed, exact-oracle, or the pessimistic upper bound), with
  :func:`resolve_generator` / :func:`available_generators` mirroring
  the estimator registry's name resolution;
* the closed loop — :class:`FeedbackStore` / :func:`record_feedback`
  accumulate what the serving layer answered and how wrong it was
  (truth enters through :meth:`FeedbackStore.observe_truth`), a
  :class:`CorrectionModel` learns per-query-class multipliers from
  that history, and a :class:`Router` (resolved by name through
  :func:`resolve_router` / :func:`available_routers`) picks the
  answering method per query class when passed to :func:`serve`;
* the streaming layer — :class:`LiveWorkspace` keeps one tenant's
  per-tag sorted region codes current under a :class:`MutationFeed`
  of insert/delete/update batches, :class:`CatalogStore` keeps many
  tenants with LRU disk residency, and either plugs into
  :func:`serve` via ``live=`` so requests carry a per-request
  ``max_staleness_s`` bound;
* subsystem resolution — :func:`resolve_module` /
  :func:`available_modules` map a subsystem name or alias
  ("maintenance", "incremental", "pager", "churn", ...) onto the
  package that implements it, with the same nearest-match "did you
  mean" errors the estimator registry raises;
* the re-exported types: :class:`Estimate`, :class:`Estimator`,
  :class:`NodeSet`, :class:`Workspace`, :class:`SpaceBudget`,
  :class:`SummaryCache`, :class:`IndexCache` (with
  :func:`use_index_cache` for ambient installation around repeated
  sampling calls), :class:`DiskNodeSet` / :func:`write_node_set` for
  the paged on-disk representation, the incremental maintenance
  structures (:class:`DynamicTTree`, :class:`IncrementalPLHistogram`,
  :class:`IncrementalCellHistogram`, :class:`ReservoirSample`), plus
  :func:`make_estimator` / :func:`available_estimators` for direct
  construction.

This module (and the same names re-exported from :mod:`repro`) is the
documented stable surface — see ``docs/API.md`` for the stability
policy.  Anything imported from deeper ``repro.*`` paths is internal
and may change between versions.

``estimate`` is a thin veneer: it resolves the method name through the
registry (case-insensitive, aliases allowed), constructs the estimator
from ``**config``, and runs it — optionally under an ambient
:class:`~repro.perf.SummaryCache` so repeated calls share built
summaries.  It is guaranteed to return exactly what direct construction
would::

    repro.api.estimate(a, d, method="pl-histogram", num_buckets=20)
    == make_estimator("PL", num_buckets=20).estimate(a, d)
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import Any

from repro.core.budget import SpaceBudget
from repro.core.errors import EstimationError, UnknownModuleError
from repro.core.nodeset import NodeSet, require_node_set
from repro.core.rng import SeedLike
from repro.core.workspace import Workspace
from repro.catalog.catalog import CatalogMethod, StatisticsCatalog
from repro.estimators.base import Estimate, Estimator
from repro.estimators.registry import (
    available_estimators,
    canonical_name,
    make_estimator,
    nearest_names,
)
from repro.maintenance import (
    DynamicTTree,
    IncrementalCellHistogram,
    IncrementalPLHistogram,
    ReservoirSample,
)
from repro.feedback import (
    CorrectionModel,
    FeedbackRecord,
    FeedbackStore,
    record_feedback,
)
from repro.optimizer.generator import (
    CardinalityGenerator,
    available_generators,
    resolve_generator,
)
from repro.router import (
    Router,
    available_routers,
    resolve_router,
)
from repro.optimizer.planner import JoinPlan, plan_cost
from repro.optimizer.planner import optimize as _optimize_impl
from repro.perf.cache import SummaryCache, use_cache
from repro.perf.index_cache import IndexCache, use_index_cache
from repro.service.engine import EstimationService
from repro.service.request import EstimateRequest, EstimateResponse
from repro.storage.element_file import DiskNodeSet, write_node_set
from repro.stream import (
    CatalogStore,
    LiveWorkspace,
    Mutation,
    MutationBatch,
    MutationFeed,
)
from repro.xmltree.tree import DataTree

__all__ = [
    "CardinalityGenerator",
    "CatalogStore",
    "CorrectionModel",
    "DiskNodeSet",
    "DynamicTTree",
    "Estimate",
    "EstimateRequest",
    "EstimateResponse",
    "EstimationService",
    "Estimator",
    "FeedbackRecord",
    "FeedbackStore",
    "IncrementalCellHistogram",
    "IncrementalPLHistogram",
    "IndexCache",
    "JoinPlan",
    "LiveWorkspace",
    "Mutation",
    "MutationBatch",
    "MutationFeed",
    "NodeSet",
    "ReservoirSample",
    "Router",
    "SpaceBudget",
    "StatisticsCatalog",
    "SummaryCache",
    "Workspace",
    "available_estimators",
    "available_generators",
    "available_modules",
    "available_routers",
    "build_catalog",
    "canonical_name",
    "estimate",
    "make_estimator",
    "optimize",
    "plan_cost",
    "record_feedback",
    "resolve_generator",
    "resolve_module",
    "resolve_router",
    "serve",
    "use_index_cache",
    "write_node_set",
]


#: Documented subsystems, canonical name -> import path.  Kept in sync
#: with the package layout; ``resolve_module`` is the supported way to
#: reach a subsystem from its workload-level name.
_MODULES: dict[str, str] = {
    "API": "repro.api",
    "CATALOG": "repro.catalog",
    "CORE": "repro.core",
    "DATASETS": "repro.datasets",
    "ESTIMATORS": "repro.estimators",
    "EXPERIMENTS": "repro.experiments",
    "FEEDBACK": "repro.feedback",
    "INDEX": "repro.index",
    "JOIN": "repro.join",
    "KERNELS": "repro.kernels",
    "MAINTENANCE": "repro.maintenance",
    "MODELS": "repro.models",
    "OBS": "repro.obs",
    "OPTIMIZER": "repro.optimizer",
    "PERF": "repro.perf",
    "QA": "repro.qa",
    "ROUTER": "repro.router",
    "SERVICE": "repro.service",
    "STORAGE": "repro.storage",
    "STREAM": "repro.stream",
    "XMLTREE": "repro.xmltree",
}

#: Workload-level synonyms accepted by :func:`resolve_module`
#: (uppercased, same shape as the estimator alias table).
_MODULE_ALIASES: dict[str, str] = {
    "BANDIT": "ROUTER",
    "CACHE": "PERF",
    "CACHES": "PERF",
    "CHURN": "STREAM",
    "DATA": "DATASETS",
    "DISK": "STORAGE",
    "INCREMENTAL": "MAINTENANCE",
    "INDEXES": "INDEX",
    "LIVE": "STREAM",
    "ORACLES": "QA",
    "PAGER": "STORAGE",
    "PAGES": "STORAGE",
    "PLANNER": "OPTIMIZER",
    "RESERVOIR": "MAINTENANCE",
    "SERVING": "SERVICE",
    "STREAMING": "STREAM",
    "TELEMETRY": "OBS",
    "TREE": "XMLTREE",
    "TTREE": "MAINTENANCE",
}


def available_modules() -> list[str]:
    """Canonical subsystem names accepted by :func:`resolve_module`."""
    return sorted(m.lower() for m in _MODULES)


def resolve_module(name: str) -> ModuleType:
    """Import and return the subsystem package named ``name``.

    Names are case-insensitive and the alias table maps workload-level
    synonyms onto subsystems ("incremental" and "reservoir" resolve to
    :mod:`repro.maintenance`, "pager" and "disk" to
    :mod:`repro.storage`, "live" / "churn" / "streaming" to
    :mod:`repro.stream`).  Unknown names raise
    :class:`~repro.core.errors.UnknownModuleError` listing the
    available subsystems and the closest candidates, exactly like the
    estimator registry's name resolution.
    """
    key = name.strip().upper()
    key = _MODULE_ALIASES.get(key, key)
    if key in _MODULES:
        return importlib.import_module(_MODULES[key])
    candidates = tuple(
        c.lower() for c in nearest_names(name, _MODULES, _MODULE_ALIASES)
    )
    if not candidates:
        hint = ""
    elif len(candidates) == 1:
        hint = f"; did you mean {candidates[0]!r}?"
    else:
        listed = ", ".join(repr(c) for c in candidates[:-1])
        hint = f"; did you mean {listed} or {candidates[-1]!r}?"
    raise UnknownModuleError(
        name,
        candidates,
        f"unknown module {name!r}; available: "
        f"{', '.join(available_modules())}{hint}",
    )


def estimate(
    ancestors: NodeSet,
    descendants: NodeSet,
    method: str = "PL",
    *,
    workspace: Workspace | None = None,
    cache: SummaryCache | None = None,
    **config: Any,
) -> Estimate:
    """Estimate ``|ancestors ⋈ descendants|`` with the named method.

    Args:
        ancestors: the ancestor operand ``A``.
        descendants: the descendant operand ``D``.
        method: a registry name or alias, any case ("PL",
            "pl-histogram", "IM", "im-da", ...); see
            :func:`available_estimators`.
        workspace: the position domain; defaults to the tight span of
            both operands.
        cache: a summary cache installed ambiently for the call, so
            histogram methods reuse summaries across calls that share
            operands.
        **config: estimator constructor arguments (``num_buckets=``,
            ``budget=``, ``num_samples=``, ``seed=``, ...).

    Returns the same :class:`Estimate` that
    ``make_estimator(method, **config).estimate(...)`` would.  An
    operand that is not a :class:`NodeSet` raises
    :class:`~repro.core.errors.InvalidNodeSetError`; a ``workspace``
    that is not a :class:`Workspace` and a configuration the
    estimator's constructor rejects raise
    :class:`~repro.core.errors.EstimationError`.
    """
    require_node_set("ancestors", ancestors)
    require_node_set("descendants", descendants)
    if workspace is not None and not isinstance(workspace, Workspace):
        raise EstimationError(
            f"workspace must be a Workspace or None, "
            f"got {type(workspace).__name__}"
        )
    estimator = make_estimator(method, **config)
    if cache is None:
        return estimator.estimate(ancestors, descendants, workspace)
    with use_cache(cache):
        return estimator.estimate(ancestors, descendants, workspace)


def optimize(
    node_sets: Any,
    generator: "CardinalityGenerator | Estimator | str" = "PL",
    *,
    workspace: Workspace | None = None,
    catalog: StatisticsCatalog | None = None,
    **config: Any,
) -> JoinPlan:
    """Pick the cheapest join order for a containment-join chain.

    The facade entry point to the planner: ``node_sets`` is the chain
    ``s_1 // ... // s_k`` (outermost ancestor first, k >= 2) and
    ``generator`` is any accepted estimation source — a
    :class:`CardinalityGenerator`, a bare :class:`Estimator` (wrapped in
    the pairwise adapter), or a name :func:`resolve_generator` accepts::

        repro.optimize(sets, "PL", workspace=ws, num_buckets=20)
        repro.optimize(sets, "exact")        # oracle baseline
        repro.optimize(sets, "pessimistic")  # UES/AGM upper bound

    Unknown names raise
    :class:`~repro.core.errors.UnknownGeneratorError` with the same
    nearest-match candidate lists the estimator registry produces.

    Args:
        node_sets: the chain's node sets, outermost ancestor first.
        generator: estimation source (see above); default "PL".
        workspace: shared position domain (defaults per estimator call).
        catalog: optional :class:`StatisticsCatalog` forwarded to the
            generator's ``setup_for_workload`` hook.
        **config: constructor arguments when ``generator`` is a name.

    Returns:
        the optimal :class:`JoinPlan`; score it with :func:`plan_cost`.
    """
    return _optimize_impl(
        node_sets,
        generator,
        workspace=workspace,
        catalog=catalog,
        **config,
    )


def serve(
    *,
    catalog: StatisticsCatalog | None = None,
    router: "Router | str | None" = None,
    feedback: "FeedbackStore | bool | None" = None,
    correction: CorrectionModel | None = None,
    **options: Any,
) -> EstimationService:
    """Start an :class:`EstimationService` over the estimator registry.

    The service front-ends :func:`estimate` for callers that issue many
    requests: compatible requests coalesce into micro-batches, repeat
    seeded requests are answered from a result memo, and a request with
    a ``deadline_s`` always gets *an* answer — degraded down the
    catalog/bound ladder instead of erroring when the deadline cannot be
    met.  It runs in its callers' threads: a caller waiting on a request
    executes queued batches itself, and several client threads may
    share one service.  Use it as a context manager::

        with repro.serve(catalog=catalog) as service:
            response = service.estimate(
                a, d, "IM", num_samples=100, seed=7, deadline_s=0.05,
            )
            response.estimate.value   # always present
            response.degraded         # True if the ladder answered

    The closed loop is opt-in: with ``router=`` the service picks the
    answering method per query class (disclosed in
    ``response.routed_method``) and learns from the attached feedback
    store; with all three left at their defaults every request is
    answered by exactly the method it named, bit-identically to
    :func:`estimate`.

    Args:
        catalog: optional :class:`StatisticsCatalog` enabling the
            plan-time ``catalog`` degradation rung (without one the
            ladder falls through to the closed-form bound).
        router: optional :class:`Router` instance or name
            (:func:`available_routers`; e.g. ``"ucb1"``) routing each
            admitted request to its best-known method.
        feedback: optional :class:`FeedbackStore` (``True`` for a fresh
            one) recording every response; created automatically when a
            router is attached.
        correction: optional fitted :class:`CorrectionModel` applied as
            a post-multiplier to full-fidelity answers.
        **options: forwarded to :class:`EstimationService` —
            ``max_batch``, ``queue_size``, ``memoize``, breaker tuning,
            caches.  ``workers`` defaults to and accepts only 0 (3.0.0
            removed the worker pool).
    """
    return EstimationService(
        catalog=catalog,
        router=router,
        feedback=feedback,
        correction=correction,
        **options,
    )


def build_catalog(
    tree: DataTree | Any,
    budget_per_tag: SpaceBudget | int = 400,
    *,
    method: CatalogMethod = "histogram",
    seed: SeedLike = None,
    tags: list[str] | None = None,
    cache: SummaryCache | None = None,
) -> StatisticsCatalog:
    """Build a per-tag statistics catalog for plan-time estimation.

    Args:
        tree: the document to summarize — a :class:`DataTree` or any
            generated :class:`~repro.datasets.base.Dataset` (its
            ``.tree`` is used).
        budget_per_tag: byte budget per tag; a plain int is wrapped in a
            :class:`SpaceBudget` (default 400, the paper's middle
            budget).
        method: "histogram" (PL statistics, Table 1) or "sample"
            (uniform element sample).
        seed: RNG seed for sample mode.
        tags: restrict the catalog to these tags.
        cache: summary cache consulted for the per-tag builds.

    The result answers ``catalog.estimate_join(a_tag, d_tag)`` with no
    base-data access.
    """
    if not isinstance(tree, DataTree) and hasattr(tree, "tree"):
        tree = tree.tree
    if not isinstance(budget_per_tag, SpaceBudget):
        budget_per_tag = SpaceBudget(int(budget_per_tag))
    return StatisticsCatalog(
        tree,
        budget_per_tag,
        method=method,
        seed=seed,
        tags=tags,
        cache=cache,
    )
