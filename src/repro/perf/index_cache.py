"""Content-keyed cache for the probe structures of the sampling estimators.

The sampling estimators probe per-trial sample positions against one
operand: IM-DA-Est, SYS and SEMI-D stab the ancestor set at descendant
starts, PM-Est and bifocal sampling at uniform workspace positions.  A
Figure 8 sweep calls ``estimate`` hundreds of times over the same
eleven operand pairs, so what those probes read is worth keeping
between calls.

:class:`IndexCache` extends :class:`~repro.perf.cache.SummaryCache` — the
same bounded LRU, thread safety, byte accounting, obs counters (here
under ``index_cache.*``) and doorkeeper, which stores an entry on its
key's second miss — with entries keyed by :attr:`NodeSet.fingerprint`:

* ``("arena", fingerprint)`` — the operand's
  :class:`~repro.kernels.arena.OperandArena`, through :meth:`arena`;
* ``("stab_table", fp_A, fp_D)`` — the stab counts of every descendant
  start, through :func:`repro.kernels.arena.stab_count_table`;
* ``("bifocal_dense", fp_A, fp_D, threshold)`` — bifocal sampling's
  exact dense part;
* ``("join_size", fp_A, fp_D)`` — the exact join size the experiment
  harness scores against.

Content keys mean estimators probing the same node set share one entry
no matter which estimator or trial asked first.

The ambient installation (:func:`use_index_cache`) mirrors the summary
cache's, with one twist: :func:`resolve_index_cache` reports *no* cache
while :func:`repro.perf.reference_kernels` is active, so a run under
reference mode rebuilds everything per call, exactly like the
pre-optimization code.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro import perf
from repro.core.nodeset import NodeSet
from repro.perf.cache import SummaryCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernels.arena import OperandArena


class IndexCache(SummaryCache):
    """A bounded LRU cache of probe structures, keyed by operand content.

    Inherits the :class:`SummaryCache` machinery wholesale; adds the
    typed :meth:`arena` wrapper so call sites cannot disagree on its key
    layout.  Records obs counters under ``index_cache.*``.
    """

    metric_kind = "index_cache"

    def arena(self, node_set: NodeSet) -> "OperandArena":
        """The SoA operand arena over ``node_set`` (fused kernels)."""
        from repro.kernels.arena import OperandArena

        return self.get_or_build(
            ("arena", node_set.fingerprint),
            lambda: OperandArena(node_set),
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
