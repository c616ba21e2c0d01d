"""Containment join size estimation for XML data.

A full reproduction of Wang, Jiang, Lu and Yu, *Containment Join Size
Estimation: Models and Methods* (SIGMOD 2003).

The package provides:

* region-coded XML data trees and element sets (:mod:`repro.core`,
  :mod:`repro.xmltree`),
* synthetic XMark/DBLP/XMach-like dataset generators (:mod:`repro.datasets`),
* exact containment join algorithms (:mod:`repro.join`),
* the paper's interval and position models (:mod:`repro.models`),
* indexes used for sampling probes — B+-tree, T-tree, XR-tree
  (:mod:`repro.index`),
* the estimators themselves — PL histogram, PH/coverage histogram
  baselines, IM-DA-Est and PM-Est sampling (:mod:`repro.estimators`),
* a small cost-based containment-join-order optimizer
  (:mod:`repro.optimizer`), and
* the experiment harness that regenerates every table and figure of the
  paper's evaluation (:mod:`repro.experiments`).

Quickstart (the stable public surface, see ``docs/API.md``)::

    import repro
    from repro.datasets import generate_xmark

    tree = generate_xmark(scale=0.1, seed=42)
    result = repro.estimate(
        tree.node_set("item"), tree.node_set("name"),
        method="IM", num_samples=100, seed=7,
    )
    print(result.value, result.details)

Observability (:mod:`repro.obs`)::

    from repro import obs

    with obs.observe(sink=obs.TelemetrySink("telemetry.jsonl")) as reg:
        repro.estimate(ancestors, descendants, method="PL", num_buckets=20)
        obs.emit_summary()

Everything importable from ``repro`` directly is the documented public
API; deeper ``repro.*`` modules are internals with no stability
guarantee.
"""

from repro.core.budget import SpaceBudget
from repro.core.element import Element, Region
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.api import (
    CardinalityGenerator,
    CatalogStore,
    CorrectionModel,
    Estimate,
    EstimateRequest,
    EstimateResponse,
    EstimationService,
    Estimator,
    FeedbackRecord,
    FeedbackStore,
    JoinPlan,
    LiveWorkspace,
    Mutation,
    MutationBatch,
    MutationFeed,
    Router,
    available_estimators,
    available_generators,
    available_modules,
    available_routers,
    build_catalog,
    estimate,
    make_estimator,
    optimize,
    plan_cost,
    record_feedback,
    resolve_generator,
    resolve_module,
    resolve_router,
    serve,
)

__version__ = "6.0.0"

__all__ = [
    "CardinalityGenerator",
    "CatalogStore",
    "CorrectionModel",
    "Element",
    "Estimate",
    "EstimateRequest",
    "EstimateResponse",
    "EstimationService",
    "Estimator",
    "FeedbackRecord",
    "FeedbackStore",
    "JoinPlan",
    "LiveWorkspace",
    "Mutation",
    "MutationBatch",
    "MutationFeed",
    "NodeSet",
    "Region",
    "Router",
    "SpaceBudget",
    "Workspace",
    "available_estimators",
    "available_generators",
    "available_modules",
    "available_routers",
    "build_catalog",
    "estimate",
    "make_estimator",
    "optimize",
    "plan_cost",
    "record_feedback",
    "resolve_generator",
    "resolve_module",
    "resolve_router",
    "serve",
    "__version__",
]
