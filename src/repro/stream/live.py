"""A live workspace: incremental maintenance under a mutation stream.

``LiveWorkspace`` holds the current element population of one tenant,
grouped by tag.  The write path keeps only what every read needs — the
per-tag start-sorted region codes (the SoA the kernels consume) in two
``array("q")`` int64 buffers, maintained in place by binary
insertion/removal.  A read after a write snapshots a tag by copying
each buffer into a numpy array, one memcpy apiece, so the node set owns
its arrays; a code a buffer cannot hold (a float, an int at or past
2**63) fails its batch or bootstrap with a ``StreamError``.

The paper's synopses are kept per tag on demand: the first call to
:meth:`pl_histogram`, :meth:`cell_histogram`, :meth:`ttree` or
:meth:`reservoir` builds all four from the tag's current elements, and
from then on every write to that tag updates them incrementally — no
rebuilds:

* :class:`~repro.maintenance.incremental.IncrementalPLHistogram` — the
  Table 1 PL statistics, O(buckets crossed) per mutation;
* :class:`~repro.maintenance.cells.IncrementalCellHistogram` — the PH
  grid, O(1) per mutation;
* :class:`~repro.maintenance.dynamic_ttree.DynamicTTree` — stabbing
  counts as O(1) delta updates with lazy recompile;
* :class:`~repro.maintenance.reservoir.ReservoirSample` — a standing
  uniform sample under inserts *and* deletes (random pairing).

A tag whose synopses nothing reads pays only for its sorted arrays:
the service answers live reads from the snapshot's node sets, so
serving never builds them.

Batches apply whole or not at all.  ``ingest`` rejects a mutation whose
element or replacement has a code that is not a number, or lies outside
the workspace, before the batch is queued; a batch that fails while
applying (a delete of a non-live element, a duplicate insert) is undone,
``applied_seq`` moves past it, ``stats()["rejected_batches"]`` counts it
and the :class:`~repro.core.errors.StreamError` names its sequence
number.

Writes are *fingerprint bumps*: summary and index caches key on the
node-set content fingerprint, so a mutation gives the tag a new
fingerprint and the pre-mutation entries can never serve the new
content.  On top of that, the workspace eagerly drops the old
fingerprint's entries from every attached cache
(:meth:`~repro.perf.cache.SummaryCache.invalidate_fingerprint`), which
bounds memory and keeps the "stale entries never serve" property
checkable: only keys mentioning *this* workspace's old fingerprints are
touched, so co-tenant entries survive with their hit counters intact.

Staleness contract.  Batches are *ingested* (checked and enqueued) and
later *applied*; ``staleness_s(now)`` is the age of the oldest ingested batch
not yet applied (0.0 when fully caught up), and ``staleness_of(seq,
now)`` is the same measure for a snapshot taken at ``applied_seq ==
seq`` — the age of the oldest batch, applied or pending, that the
snapshot misses.  The estimation service enforces a per-request
``max_staleness_s`` against exactly this measure and discloses it on
every live response.
"""

from __future__ import annotations

import numbers
import threading
import time
import zlib
from array import array
from bisect import bisect_left
from collections import OrderedDict, deque
from typing import Callable, Iterable

import numpy as np

from repro.core.element import Element
from repro.core.errors import StreamError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.coverage_histogram import merged_interval_bounds
from repro.maintenance import (
    DynamicTTree,
    IncrementalCellHistogram,
    IncrementalPLHistogram,
    ReservoirSample,
)
from repro.perf.cache import SummaryCache
from repro.stream.feed import Mutation, MutationBatch

#: How many ingest timestamps are retained for staleness accounting;
#: snapshots older than this many batches report the oldest retained age.
_INGEST_HISTORY = 4096


def _outside(what: str, element: Element, workspace: Workspace) -> StreamError:
    return StreamError(
        f"{what} element ({element.start}, {element.end}) outside "
        f"workspace {tuple(workspace)}"
    )


def _check_codes(what: str, element: Element) -> None:
    """Refuse an element whose region code is not a real number.

    The workspace-bounds check compares codes with ints, which raises an
    untyped ``TypeError`` for a string.  Callers skip this for two int
    codes; any other real number (a float, a numpy scalar) goes on to
    the bounds check and then to the int64 buffers, which refuse what
    they cannot hold.
    """
    for code in (element.start, element.end):
        if not isinstance(code, numbers.Real):
            raise StreamError(
                f"{what} element ({element.start!r}, {element.end!r}) "
                f"under tag {element.tag!r} has a region code that is "
                f"not a number: {type(code).__name__}"
            )


def _not_int64(element: Element, tag: str, error: Exception) -> StreamError:
    return StreamError(
        f"element ({element.start!r}, {element.end!r}) under tag {tag!r} "
        f"has a region code that is not an int64: {error}"
    )


def _with_caches(
    held: tuple[SummaryCache, ...], caches: Iterable[SummaryCache | None]
) -> tuple[SummaryCache, ...]:
    """``held`` plus each cache of ``caches`` not already in it."""
    merged = list(held)
    for cache in caches:
        if cache is not None and all(cache is not kept for kept in merged):
            merged.append(cache)
    return tuple(merged)


def _without_caches(
    held: tuple[SummaryCache, ...], caches: tuple[SummaryCache | None, ...]
) -> tuple[SummaryCache, ...]:
    """``held`` minus every cache of ``caches``, matched by identity."""
    return tuple(
        kept for kept in held if all(kept is not gone for gone in caches)
    )


class _Synopses:
    """The four maintained synopses of one live tag."""

    __slots__ = ("pl", "cells", "ttree", "reservoir")

    def __init__(
        self, live: "LiveWorkspace", tag: str, elements: Iterable[Element]
    ) -> None:
        self.pl = IncrementalPLHistogram(live.workspace, live.num_buckets)
        self.cells = IncrementalCellHistogram(live.workspace, live.num_cells)
        self.ttree = DynamicTTree()
        self.reservoir = ReservoirSample(
            live.reservoir_capacity,
            seed=(live.seed * 1_000_003) ^ zlib.crc32(tag.encode()),
        )
        for element in elements:
            self.insert(element)

    def insert(self, element: Element) -> None:
        self.pl.insert(element)
        self.cells.insert(element)
        self.ttree.insert(element)
        self.reservoir.add(element)

    def remove(self, element: Element) -> None:
        self.pl.remove(element)
        self.cells.remove(element)
        self.ttree.delete(element)
        self.reservoir.remove(element)


class _TagState:
    """One live tag: its sorted arrays, and its synopses once read."""

    __slots__ = (
        "tag",
        "starts",
        "ends",
        "elements",
        "synopses",
        "node_set",
        "inserts",
        "deletes",
    )

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.starts = array("q")  # int64 buffers, start-sorted
        self.ends = array("q")
        self.elements: list[Element] = []  # aligned with starts/ends
        self.synopses: _Synopses | None = None
        self.node_set: NodeSet | None = None
        self.inserts = 0
        self.deletes = 0

    def index_of(self, element: Element) -> int:
        """Position of a live element, or -1."""
        index = bisect_left(self.starts, element.start)
        if (
            index < len(self.starts)
            and self.starts[index] == element.start
            and self.ends[index] == element.end
        ):
            return index
        return -1

    def add(self, element: Element) -> None:
        """Insert into the sorted arrays only.

        A code the int64 buffers cannot hold (a float, one at or past
        2**63) raises :class:`StreamError` and leaves the tag as it was.
        """
        starts = self.starts
        index = bisect_left(starts, element.start)
        if index < len(starts) and starts[index] == element.start:
            raise StreamError(
                f"duplicate insert: element ({element.start}, "
                f"{element.end}) is already live under tag {self.tag!r}"
            )
        try:
            starts.insert(index, element.start)
        except (TypeError, OverflowError) as error:
            raise _not_int64(element, self.tag, error) from error
        try:
            self.ends.insert(index, element.end)
        except (TypeError, OverflowError) as error:
            del starts[index]
            raise _not_int64(element, self.tag, error) from error
        self.elements.insert(index, element)

    def discard(self, element: Element) -> Element:
        """Remove from the sorted arrays only; returns the stored element."""
        index = self.index_of(element)
        if index < 0:
            raise StreamError(
                f"delete of a non-live element ({element.start}, "
                f"{element.end}) under tag {self.tag!r}"
            )
        del self.starts[index]
        del self.ends[index]
        return self.elements.pop(index)

    def materialize(self) -> NodeSet:
        """The tag's node set, built on first read after a write.

        Each buffer is copied, one memcpy apiece: the node set must own
        its arrays, since the next write changes the buffers in place
        (and a buffer refuses to resize while a view of it is alive).
        """
        if self.node_set is None:
            self.node_set = NodeSet.from_arrays(
                np.frombuffer(self.starts, np.int64).copy(),
                np.frombuffer(self.ends, np.int64).copy(),
                name=self.tag,
            )
        return self.node_set


class LiveWorkspace:
    """One tenant's continuously mutating element store.

    Args:
        workspace: fixed position domain every element must fall in.
        elements: initial live population (e.g. ``feed.bootstrap()``).
        num_buckets / num_cells: synopsis resolutions, as in the
            estimators.
        reservoir_capacity: standing sample size per tag.
        seed: derives each tag's reservoir stream.
        tenant: name used in stats and store registries.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        workspace: Workspace,
        *,
        elements: Iterable[Element] = (),
        num_buckets: int = 16,
        num_cells: int = 25,
        reservoir_capacity: int = 64,
        seed: int = 0,
        tenant: str = "default",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.workspace = workspace.validate()
        if min(num_buckets, num_cells, reservoir_capacity) < 1:
            raise StreamError(
                f"num_buckets, num_cells and reservoir_capacity must be "
                f">= 1, got {num_buckets}, {num_cells} and "
                f"{reservoir_capacity}"
            )
        self.num_buckets = num_buckets
        self.num_cells = num_cells
        self.reservoir_capacity = reservoir_capacity
        self.seed = seed
        self.tenant = tenant
        self._clock = clock
        self._lock = threading.RLock()
        self._tags: dict[str, _TagState] = {}
        self._caches: tuple[SummaryCache, ...] = ()
        self._pending: deque[tuple[int, float, tuple[Mutation, ...]]] = (
            deque()
        )
        self._ingest_times: OrderedDict[int, float] = OrderedDict()
        self._ingest_seq = 0
        self._applied_seq = 0
        self.applied_batches = 0
        self.applied_mutations = 0
        self.rejected_batches = 0
        self.invalidated_entries = 0
        self.estimates_served = 0
        lo, hi = self.workspace
        for element in elements:
            if type(element.start) is not int or type(element.end) is not int:
                _check_codes("bootstrap", element)
            if not (lo <= element.start and element.end <= hi):
                raise _outside("bootstrap", element, self.workspace)
            state = self._state(element.tag)
            state.add(element)
            state.inserts += 1

    # -- wiring -------------------------------------------------------

    def attach_caches(self, *caches: SummaryCache | None) -> None:
        """Register caches to eagerly invalidate on every write.

        Pass the service's ``SummaryCache`` and ``IndexCache`` (the
        latter covers arena, T-tree, XR-tree and start-index entries —
        they all key on the operand fingerprint).  ``None`` entries are
        ignored so callers can forward optional caches directly, and a
        cache already attached is not attached twice.
        """
        with self._lock:
            self._caches = _with_caches(self._caches, caches)

    def detach_caches(self, *caches: SummaryCache | None) -> None:
        """Stop invalidating into ``caches`` (matched by identity).

        The inverse of :meth:`attach_caches`; a closing service calls it
        so its caches are neither kept alive by the workspace nor
        invalidated by later writes.  Caches not attached are ignored.
        """
        with self._lock:
            self._caches = _without_caches(self._caches, caches)

    def _state(self, tag: str) -> _TagState:
        state = self._tags.get(tag)
        if state is None:
            state = self._tags[tag] = _TagState(tag)
        return state

    def _live_state(self, tag: str) -> _TagState:
        state = self._tags.get(tag)
        if state is None:
            raise StreamError(
                f"unknown tag {tag!r} in tenant {self.tenant!r}; "
                f"live tags: {sorted(self._tags) or '(none)'}"
            )
        return state

    # -- mutation ingest / apply -------------------------------------

    def ingest(self, batch: MutationBatch | Iterable[Mutation]) -> int:
        """Enqueue one mutation batch; returns its sequence number.

        O(size of the batch): every element and replacement is checked
        against the workspace, and a batch that fails the check is
        rejected before it is queued.  Nothing is applied until
        :meth:`apply_pending` (or the service's staleness enforcement)
        catches up.
        """
        mutations = (
            batch.mutations
            if isinstance(batch, MutationBatch)
            else tuple(batch)
        )
        lo, hi = self.workspace
        for mutation in mutations:
            if not isinstance(mutation, Mutation):
                raise StreamError(
                    f"expected a Mutation, got {type(mutation).__name__}"
                )
            # Checked inline, not through a helper: every write passes here.
            element = mutation.element
            if type(element.start) is not int or type(element.end) is not int:
                _check_codes("mutation", element)
            if not (lo <= element.start and element.end <= hi):
                raise _outside("mutation", element, self.workspace)
            element = mutation.replacement
            if element is None:
                continue
            if type(element.start) is not int or type(element.end) is not int:
                _check_codes("mutation", element)
            if not (lo <= element.start and element.end <= hi):
                raise _outside("mutation", element, self.workspace)
        now = self._clock()
        with self._lock:
            self._ingest_seq += 1
            seq = self._ingest_seq
            self._pending.append((seq, now, mutations))
            self._ingest_times[seq] = now
            while len(self._ingest_times) > _INGEST_HISTORY:
                self._ingest_times.popitem(last=False)
            return seq

    def _invalidate(self, state: _TagState) -> None:
        """Eagerly drop the tag's pre-mutation cache entries.

        Entries can only exist under fingerprints of node sets this
        workspace handed out, so when the tag was never materialized
        since its last write there is nothing to drop.
        """
        if state.node_set is None or not self._caches:
            return
        fingerprint = state.node_set.fingerprint
        for cache in self._caches:
            self.invalidated_entries += cache.invalidate_fingerprint(
                fingerprint
            )

    def _apply_batch(self, mutations: tuple[Mutation, ...]) -> None:
        """Apply one batch whole, or undo it and re-raise.

        The sorted arrays change first; the synopses, counters, caches
        and node sets only once every mutation of the batch succeeded.
        """
        known = len(self._tags)
        done: list[tuple[_TagState, Element, bool]] = []  # inserted?
        try:
            for mutation in mutations:
                element = mutation.element
                if mutation.op == "insert":
                    state = self._state(element.tag)
                    state.add(element)
                    done.append((state, element, True))
                    continue
                state = self._live_state(element.tag)
                done.append((state, state.discard(element), False))
                if mutation.op == "update":
                    replacement = mutation.replacement
                    assert replacement is not None  # Mutation.__post_init__
                    state = self._state(replacement.tag)
                    state.add(replacement)
                    done.append((state, replacement, True))
        except StreamError:
            for state, element, inserted in reversed(done):
                if inserted:
                    state.discard(element)
                else:
                    state.add(element)
            for tag in list(self._tags)[known:]:
                del self._tags[tag]
            raise
        touched: dict[str, _TagState] = {}
        for state, element, inserted in done:
            touched[state.tag] = state
            synopses = state.synopses
            if inserted:
                state.inserts += 1
                if synopses is not None:
                    synopses.insert(element)
            else:
                state.deletes += 1
                if synopses is not None:
                    synopses.remove(element)
        for state in touched.values():
            self._invalidate(state)
            state.node_set = None

    def apply_pending(self) -> int:
        """Apply every enqueued batch; returns how many were applied.

        A batch that fails is undone, dropped and counted in
        ``rejected_batches``: ``applied_seq`` moves past it, later
        batches stay queued, and the ``StreamError`` names its sequence
        number.
        """
        with self._lock:
            applied = 0
            while self._pending:
                seq, _, mutations = self._pending.popleft()
                try:
                    self._apply_batch(mutations)
                except StreamError as error:
                    self._applied_seq = seq
                    self.rejected_batches += 1
                    raise StreamError(
                        f"batch {seq} rejected, none of its mutations "
                        f"applied: {error}"
                    ) from error
                self._applied_seq = seq
                self.applied_batches += 1
                self.applied_mutations += len(mutations)
                applied += 1
            return applied

    def apply(self, batch: MutationBatch | Iterable[Mutation]) -> int:
        """Ingest and immediately apply one batch (write-through)."""
        seq = self.ingest(batch)
        with self._lock:
            self.apply_pending()
        return seq

    def catch_up(self, blocking: bool = True) -> bool:
        """Try to apply the backlog; False if the lock was contended."""
        if blocking:
            self.apply_pending()
            return True
        if not self._lock.acquire(blocking=False):
            return False
        try:
            self.apply_pending()
            return True
        finally:
            self._lock.release()

    # -- staleness ----------------------------------------------------

    @property
    def applied_seq(self) -> int:
        return self._applied_seq

    @property
    def ingest_seq(self) -> int:
        return self._ingest_seq

    @property
    def pending_batches(self) -> int:
        return len(self._pending)

    def staleness_of(self, seq: int, now: float | None = None) -> float:
        """Age of the oldest batch a ``applied_seq == seq`` snapshot misses."""
        if now is None:
            now = self._clock()
        with self._lock:
            if self._ingest_seq <= seq:
                return 0.0
            ingested_at = self._ingest_times.get(seq + 1)
            if ingested_at is None:
                # Pruned history: report the oldest retained age, which
                # under-reports only for snapshots > _INGEST_HISTORY
                # batches behind — already hopeless for any real bound.
                ingested_at = next(iter(self._ingest_times.values()))
            return max(0.0, now - ingested_at)

    def staleness_s(self, now: float | None = None) -> float:
        """Age of the oldest pending batch (0.0 when caught up)."""
        return self.staleness_of(self._applied_seq, now)

    # -- reads --------------------------------------------------------

    def tags(self) -> list[str]:
        with self._lock:
            return sorted(self._tags)

    def size(self, tag: str | None = None) -> int:
        with self._lock:
            if tag is not None:
                return len(self._live_state(tag).starts)
            return sum(len(s.starts) for s in self._tags.values())

    def node_set(self, tag: str) -> NodeSet:
        """The tag's current population as a (cached) NodeSet.

        Copied from the maintained int64 buffers, one memcpy each; the
        same object is returned until the next mutation touches the
        tag, so its content fingerprint is stable across reads and
        bumped by writes.
        """
        with self._lock:
            return self._live_state(tag).materialize()

    def fingerprint(self, tag: str) -> str:
        return self.node_set(tag).fingerprint

    def snapshot(self, *tags: str) -> tuple[tuple[NodeSet, ...], int]:
        """Atomically materialize several tags at one ``applied_seq``."""
        with self._lock:
            sets = tuple(
                self._live_state(tag).materialize() for tag in tags
            )
            return sets, self._applied_seq

    def elements(self) -> list[Element]:
        """Every live element as stored, tags and levels kept.

        Sorted by ``(start, end)``; reads the per-tag element lists, so
        it materializes no node set.
        """
        with self._lock:
            elements = [
                element
                for state in self._tags.values()
                for element in state.elements
            ]
        elements.sort(key=lambda e: (e.start, e.end))
        return elements

    def rebuild_node_set(self, tag: str) -> NodeSet:
        """From-scratch, fully validated build over the live elements.

        The differential half of the incremental ≡ rebuild contract —
        never used on the serving path.
        """
        with self._lock:
            elements = tuple(self._live_state(tag).elements)
        return NodeSet(elements, name=tag)

    def _synopses(self, tag: str) -> _Synopses:
        """The tag's synopses, built from its current elements if unread."""
        with self._lock:
            state = self._live_state(tag)
            if state.synopses is None:
                state.synopses = _Synopses(self, tag, state.elements)
            return state.synopses

    def pl_histogram(self, tag: str) -> IncrementalPLHistogram:
        return self._synopses(tag).pl

    def cell_histogram(self, tag: str) -> IncrementalCellHistogram:
        return self._synopses(tag).cells

    def ttree(self, tag: str) -> DynamicTTree:
        return self._synopses(tag).ttree

    def reservoir(self, tag: str) -> ReservoirSample:
        return self._synopses(tag).reservoir

    def coverage_bounds(self, tag: str) -> np.ndarray:
        """Merged coverage intervals of the tag's current population.

        Derived from the maintained sorted arrays (no re-sort) by the
        same array kernel the coverage estimator uses on a fresh build.
        """
        return merged_interval_bounds(self.node_set(tag))

    def stats(self) -> dict:
        """Counters per tag and tenant.

        A tag's ``reservoir`` is its sample size, or ``None`` while
        nothing has read its synopses (stats never builds them).
        """
        with self._lock:
            return {
                "tenant": self.tenant,
                "tags": {
                    tag: {
                        "live": len(state.starts),
                        "inserts": state.inserts,
                        "deletes": state.deletes,
                        "reservoir": (
                            len(state.synopses.reservoir)
                            if state.synopses is not None
                            else None
                        ),
                    }
                    for tag, state in sorted(self._tags.items())
                },
                "live_elements": sum(
                    len(s.starts) for s in self._tags.values()
                ),
                "ingest_seq": self._ingest_seq,
                "applied_seq": self._applied_seq,
                "pending_batches": len(self._pending),
                "applied_batches": self.applied_batches,
                "applied_mutations": self.applied_mutations,
                "rejected_batches": self.rejected_batches,
                "invalidated_entries": self.invalidated_entries,
                "estimates_served": self.estimates_served,
            }

    def __repr__(self) -> str:
        return (
            f"LiveWorkspace(tenant={self.tenant!r}, "
            f"tags={len(self._tags)}, live={self.size()}, "
            f"applied_seq={self._applied_seq}, "
            f"pending={len(self._pending)})"
        )
