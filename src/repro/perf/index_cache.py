"""Content-keyed cache for built probe indexes.

The sampling estimators probe per-trial sample positions against an index
over one operand: IM-DA-Est stabs the ancestor set (rank arrays, T-tree
or XR-tree), PM-Est and bifocal sampling additionally test descendant
start membership (B+-tree).  A Figure 8 sweep calls ``estimate`` hundreds
of times over the same eleven operand pairs, and before this cache each
call rebuilt its index from scratch — O(|A| log |A|) construction to
answer m ≈ 100 probes.

:class:`IndexCache` extends :class:`~repro.perf.cache.SummaryCache` — the
same bounded LRU, thread safety, byte accounting, obs counters (here
under ``index_cache.*``) and doorkeeper, which stores an entry on its
key's second miss — with the key schema for probe structures:
``(kind, NodeSet.fingerprint, *config)`` where *kind* names the structure
(``"stab"``, ``"ttree"``, ...) and *config* carries every constructor
parameter that shapes it (B+-tree order, XR-tree page size).  Content
keys mean estimators probing the same node set share one built index no
matter which estimator or trial asked first.

The ambient installation (:func:`use_index_cache`) mirrors the summary
cache's, with one twist: :func:`resolve_index_cache` reports *no* cache
while :func:`repro.perf.reference_kernels` is active, so the reference
path benchmarked against the batched one genuinely rebuilds per call,
exactly like the pre-optimization code.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro import perf
from repro.core.nodeset import NodeSet
from repro.perf.cache import SummaryCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.index.bplus import BPlusTree
    from repro.index.stab import StabbingCounter
    from repro.index.ttree import TTree
    from repro.index.xrtree import XRTree
    from repro.kernels.arena import OperandArena

# The index modules themselves import ``repro.perf`` (for the
# reference-kernel switch), so they are imported lazily inside the
# builder methods here to keep either import order working.


class IndexCache(SummaryCache):
    """A bounded LRU cache of probe indexes, keyed by operand content.

    Inherits the :class:`SummaryCache` machinery wholesale; adds typed
    ``get_or_build`` wrappers so call sites cannot disagree on key
    layout.  Records obs counters under ``index_cache.*``.
    """

    metric_kind = "index_cache"

    def stabbing_counter(self, node_set: NodeSet) -> "StabbingCounter":
        """The rank-identity stabbing oracle over ``node_set``."""
        from repro.index.stab import StabbingCounter

        return self.get_or_build(
            ("stab", node_set.fingerprint),
            lambda: StabbingCounter(node_set),
        )

    def ttree(self, node_set: NodeSet, order: int | None = None) -> "TTree":
        """The T-tree over ``node_set``'s covering table."""
        from repro.index.bplus import DEFAULT_ORDER
        from repro.index.ttree import TTree

        if order is None:
            order = DEFAULT_ORDER
        return self.get_or_build(
            ("ttree", node_set.fingerprint, order),
            lambda: TTree(node_set, order=order),
        )

    def xrtree(
        self, node_set: NodeSet, page_size: int | None = None
    ) -> "XRTree":
        """The XR-tree over ``node_set``'s intervals."""
        from repro.index.xrtree import DEFAULT_PAGE_SIZE, XRTree

        if page_size is None:
            page_size = DEFAULT_PAGE_SIZE
        return self.get_or_build(
            ("xrtree", node_set.fingerprint, page_size),
            lambda: XRTree(node_set, page_size=page_size),
        )

    def arena(self, node_set: NodeSet) -> "OperandArena":
        """The SoA operand arena over ``node_set`` (fused kernels)."""
        from repro.kernels.arena import OperandArena

        return self.get_or_build(
            ("arena", node_set.fingerprint),
            lambda: OperandArena(node_set),
        )

    def start_index(
        self, node_set: NodeSet, order: int | None = None
    ) -> "BPlusTree":
        """The start-position B+-tree over ``node_set`` (PM-Est's PMD)."""
        from repro.index.bplus import DEFAULT_ORDER, start_position_index

        if order is None:
            order = DEFAULT_ORDER
        return self.get_or_build(
            ("start_index", node_set.fingerprint, order),
            lambda: start_position_index(
                [int(s) for s in node_set.starts], order=order
            ),
        )


# ----------------------------------------------------------------------
# Ambient index cache
# ----------------------------------------------------------------------

_local = threading.local()


def active_index_cache() -> IndexCache | None:
    """The ambient cache installed by :func:`use_index_cache`, if any."""
    return getattr(_local, "cache", None)


def resolve_index_cache(explicit: IndexCache | None) -> IndexCache | None:
    """An explicit cache, else the ambient one — but never under
    :func:`~repro.perf.reference_kernels`.

    Reference mode exists to reproduce the original per-call behaviour
    for benchmarking and equivalence tests; serving a prebuilt index
    there would hide exactly the construction cost being measured.
    """
    if perf.reference_kernels_enabled():
        return None
    return explicit if explicit is not None else active_index_cache()


@contextmanager
def use_index_cache(
    cache: IndexCache | None,
) -> Iterator[IndexCache | None]:
    """Install ``cache`` as the ambient index cache for the block.

    Passing None makes the block run uncached even inside an outer
    :func:`use_index_cache` region.  Thread-local, like
    :func:`repro.perf.use_cache`.
    """
    previous = getattr(_local, "cache", None)
    _local.cache = cache
    try:
        yield cache
    finally:
        _local.cache = previous
