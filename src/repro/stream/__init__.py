"""Streaming churn: live workspaces under continuous mutation.

The paper's Section 6 maintenance discussion, turned into a subsystem:

* :mod:`repro.stream.feed` — :class:`MutationFeed`, a seeded generator
  of sequentially applicable insert/delete/update batches;
* :mod:`repro.stream.live` — :class:`LiveWorkspace`, one tenant's
  element store as per-tag sorted arrays, with fingerprint
  bump-on-write cache invalidation and all-or-nothing batches;
* :mod:`repro.stream.store` — :class:`CatalogStore`, a multi-tenant
  registry with pager-backed disk residency and LRU admission.

``perfbench/``'s ``churn`` workload times writes beside reads on a
two-tenant store.

``EstimationService(live=...)`` serves estimates straight off a live
workspace or store under a per-request ``max_staleness_s`` bound.  The
qa ``incremental-vs-rebuild`` oracle replays a feed into a live
workspace and, beside it, into the paper's maintained synopses
(:mod:`repro.maintenance`), and proves both equal to from-scratch
rebuilds after every batch.
"""

from repro.stream.feed import Mutation, MutationBatch, MutationFeed
from repro.stream.live import LiveWorkspace
from repro.stream.store import CatalogStore

__all__ = [
    "CatalogStore",
    "LiveWorkspace",
    "Mutation",
    "MutationBatch",
    "MutationFeed",
]
