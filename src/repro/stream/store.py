"""Multi-tenant catalog store: many live workspaces, bounded residency.

A ``CatalogStore`` names tenants — each a :class:`LiveWorkspace` over
its own document — and keeps at most ``capacity`` of them resident.
The rest live on disk as pager-backed element files
(:mod:`repro.storage.element_file`): eviction catches the tenant up,
writes its whole element population (tags and levels included) through
the page format, and frees the in-memory structures; the next access
pages the file back in and rebuilds the per-tag sorted arrays from the
stored elements.  Admission is LRU — touching a tenant via :meth:`get`
or :meth:`create` makes it most-recently-used.

Isolation: every workspace invalidates caches only under its *own*
content fingerprints (see :meth:`LiveWorkspace.attach_caches`), so
churn in one tenant never evicts, invalidates, or even bumps the hit
counters of another tenant's entries — a property the cache-level
and service-level isolation tests in ``tests/test_stream.py`` assert.

Sequence numbers and applied counters survive the spill/load cycle: a
load restores them from the store's in-memory copy of the metadata,
which a spill also writes beside the pages as a JSON sidecar.
"""

from __future__ import annotations

import json
import numbers
import re
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Iterable

from repro.core.element import Element
from repro.core.errors import StreamError
from repro.core.workspace import Workspace
from repro.perf.cache import SummaryCache
from repro.storage.element_file import DiskNodeSet, write_elements
from repro.stream.live import (
    LiveWorkspace,
    _with_caches,
    _without_caches,
)

_TENANT_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

#: The :class:`LiveWorkspace` keywords :meth:`CatalogStore.create`
#: forwards; the store supplies ``tenant`` and ``clock`` itself.
_CREATE_OPTIONS = ("num_buckets", "seed")


class CatalogStore:
    """LRU-admitted registry of live workspaces with disk residency.

    Args:
        root: spill directory; ``None`` disables eviction (every tenant
            stays resident and ``capacity`` is ignored).
        capacity: max resident tenants before LRU spill kicks in.
        buffer_capacity: pages cached per tenant while loading.
        clock: monotonic time source forwarded to new workspaces.

    Both sizes must be ints >= 1: a spilled tenant can only be paged
    back in through a buffer of at least one page.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        capacity: int = 8,
        buffer_capacity: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        for name, value in (
            ("capacity", capacity),
            ("buffer_capacity", buffer_capacity),
        ):
            if not isinstance(value, numbers.Integral) or value < 1:
                raise StreamError(f"{name} must be an int >= 1: {value!r}")
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.capacity = capacity
        self.buffer_capacity = buffer_capacity
        self._clock = clock
        self._lock = threading.RLock()
        self._resident: OrderedDict[str, LiveWorkspace] = OrderedDict()
        self._spilled: dict[str, dict] = {}  # tenant -> sidecar meta
        self._caches: tuple[SummaryCache, ...] = ()
        self._stats: dict[str, dict] = {}  # per-tenant spills/loads

    # -- paths --------------------------------------------------------

    def _pages_path(self, tenant: str) -> Path:
        assert self.root is not None
        return self.root / f"{tenant}.rpro"

    def _meta_path(self, tenant: str) -> Path:
        assert self.root is not None
        return self.root / f"{tenant}.meta.json"

    # -- registry -----------------------------------------------------

    def create(
        self,
        tenant: str,
        workspace: Workspace,
        *,
        elements: Iterable[Element] = (),
        **options,
    ) -> LiveWorkspace:
        """Register a new tenant and return its resident workspace.

        ``options`` may hold ``num_buckets`` and ``seed``, which
        :class:`LiveWorkspace` accepts and ignores; any other keyword
        raises :class:`StreamError` naming it.
        """
        if not isinstance(tenant, str) or not _TENANT_NAME.match(tenant):
            raise StreamError(
                f"tenant name {tenant!r} must match "
                f"{_TENANT_NAME.pattern}"
            )
        for name in options:
            if name not in _CREATE_OPTIONS:
                raise StreamError(
                    f"CatalogStore.create got an unexpected keyword "
                    f"{name!r} (it takes elements=, num_buckets= and "
                    f"seed=; the store sets the clock)"
                )
        with self._lock:
            if tenant in self._resident or tenant in self._spilled:
                raise StreamError(f"tenant {tenant!r} already exists")
            live = LiveWorkspace(
                workspace,
                elements=elements,
                tenant=tenant,
                clock=self._clock,
                **options,
            )
            live.attach_caches(*self._caches)
            self._resident[tenant] = live
            self._stats.setdefault(
                tenant, {"spills": 0, "loads": 0}
            )
            self._admit(keep=tenant)
            return live

    def get(self, tenant: str) -> LiveWorkspace:
        """The tenant's workspace, paging it back in if spilled."""
        with self._lock:
            live = self._resident.get(tenant)
            if live is None:
                if tenant not in self._spilled:
                    raise StreamError(
                        f"unknown tenant {tenant!r}; known: "
                        f"{self.tenants() or '(none)'}"
                    )
                live = self._load(tenant)
            self._resident.move_to_end(tenant)
            self._admit(keep=tenant)
            return live

    def __contains__(self, tenant: str) -> bool:
        with self._lock:
            return tenant in self._resident or tenant in self._spilled

    def __len__(self) -> int:
        with self._lock:
            return len(self._resident) + len(self._spilled)

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._resident) + sorted(self._spilled)

    def resident_tenants(self) -> list[str]:
        with self._lock:
            return list(self._resident)

    def attach_caches(self, *caches: SummaryCache | None) -> None:
        """Share invalidation targets with every current/future tenant.

        A cache the store already holds is skipped, as in
        :meth:`LiveWorkspace.attach_caches`.
        """
        with self._lock:
            self._caches = _with_caches(self._caches, caches)
            for live in self._resident.values():
                live.attach_caches(*caches)

    def detach_caches(self, *caches: SummaryCache | None) -> None:
        """Withdraw ``caches`` (by identity) from every tenant."""
        with self._lock:
            self._caches = _without_caches(self._caches, caches)
            for live in self._resident.values():
                live.detach_caches(*caches)

    # -- residency ----------------------------------------------------

    def _admit(self, keep: str) -> None:
        if self.root is None:
            return
        while len(self._resident) > self.capacity:
            victim = next(
                (t for t in self._resident if t != keep), None
            )
            if victim is None:
                return
            self.evict(victim)

    def evict(self, tenant: str) -> None:
        """Spill one tenant to its pager-backed element file."""
        with self._lock:
            if self.root is None:
                raise StreamError(
                    "this store has no spill root; eviction disabled"
                )
            live = self._resident.get(tenant)
            if live is None:
                if tenant in self._spilled:
                    return
                raise StreamError(f"unknown tenant {tenant!r}")
            # Never spill an un-applied backlog.  A rejected batch is
            # its writer's error, not the caller's whose create() or
            # get() made room: apply_pending has already undone,
            # skipped and counted it, so the drain goes on past it.
            while True:
                try:
                    live.apply_pending()
                except StreamError:
                    continue
                break
            write_elements(self._pages_path(tenant), live.elements())
            stats = live.stats()
            meta = {
                "tenant": tenant,
                "workspace": [live.workspace.lo, live.workspace.hi],
                "ingest_seq": live.ingest_seq,
                "applied_seq": live.applied_seq,
                "applied_batches": stats["applied_batches"],
                "applied_mutations": stats["applied_mutations"],
                "rejected_batches": stats["rejected_batches"],
                "invalidated_entries": stats["invalidated_entries"],
                "estimates_served": stats["estimates_served"],
            }
            self._meta_path(tenant).write_text(
                json.dumps(meta, indent=2) + "\n", encoding="utf-8"
            )
            del self._resident[tenant]
            self._spilled[tenant] = meta
            self._stats[tenant]["spills"] += 1

    def _load(self, tenant: str) -> LiveWorkspace:
        meta = self._spilled[tenant]
        with DiskNodeSet(
            self._pages_path(tenant),
            buffer_capacity=self.buffer_capacity,
        ) as disk:
            elements = list(disk)
            hit_ratio = disk.pool.stats.hit_ratio
        lo, hi = meta["workspace"]
        live = LiveWorkspace(
            Workspace(lo, hi),
            elements=elements,
            tenant=tenant,
            clock=self._clock,
        )
        live.attach_caches(*self._caches)
        live._ingest_seq = meta["ingest_seq"]
        live._applied_seq = meta["applied_seq"]
        live.applied_batches = meta["applied_batches"]
        live.applied_mutations = meta["applied_mutations"]
        live.rejected_batches = meta["rejected_batches"]
        live.invalidated_entries = meta["invalidated_entries"]
        live.estimates_served = meta["estimates_served"]
        del self._spilled[tenant]
        self._resident[tenant] = live
        stats = self._stats[tenant]
        stats["loads"] += 1
        stats["last_load_hit_ratio"] = hit_ratio
        return live

    # -- reporting ----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            tenants = {}
            for tenant, live in self._resident.items():
                tenants[tenant] = {
                    "resident": True,
                    **self._stats[tenant],
                    **live.stats(),
                }
            for tenant, meta in self._spilled.items():
                tenants[tenant] = {
                    "resident": False,
                    **self._stats[tenant],
                    "applied_seq": meta["applied_seq"],
                    "applied_mutations": meta["applied_mutations"],
                    "rejected_batches": meta["rejected_batches"],
                    "invalidated_entries": meta["invalidated_entries"],
                    "estimates_served": meta["estimates_served"],
                }
            return {
                "capacity": self.capacity,
                "resident": len(self._resident),
                "spilled": len(self._spilled),
                "tenants": tenants,
            }

    def __repr__(self) -> str:
        return (
            f"CatalogStore(resident={len(self._resident)}, "
            f"spilled={len(self._spilled)}, capacity={self.capacity})"
        )
