"""Operand arenas: the structure-of-arrays layout behind every probe.

An :class:`OperandArena` gathers, per node set, every derived array the
fused probe kernels consume — start codes, end codes, sorted end codes,
turning-point keys and (zero-padded) turning-point values — behind one
object with one field-naming convention.  The field names
(:data:`OPERAND_FIELDS`) are also the binary wire format's operand
frames (:mod:`repro.service.wire`), so the local hot path and a decoded
request share a single SoA format: what a receiver views in the payload
is what a local kernel reads from the arena.

Arenas are cheap views, not copies: every array is the node set's own
cached view (:attr:`NodeSet.starts`, :attr:`NodeSet.sorted_ends`,
:attr:`NodeSet.turning_points_arrays`, and the padded turning points
:meth:`OperandArena.turning_points` caches on the node set), materialized
lazily, so an arena costs nothing until a kernel touches a field.
Without a cache, :func:`operand_arena` wraps the node set afresh on
every call: the arena references its node set and nothing references
the arena, so an operand is freed by reference counting the moment its
last user lets go.  With an :class:`~repro.perf.IndexCache`, the arena
is a cache entry under ``("arena", fingerprint)`` once its key recurs:
distinct NodeSet objects with equal content (service requests, decoded
wire operands) then share one arena, with the cache's byte accounting
and obs counters.

This module also hosts the *stab-count table*: the stabbing counts of
every descendant start against an ancestor set, keyed by both operand
fingerprints.  IM/SYS/SEMI-D probe points are always gathered from the
descendant start array, so with the table warm a probe is a pure table
gather — no binary search at all.  The table is built on a pair's second
probe under a cache and gathered from on every later one; the first
probe takes the direct searchsorted path.  See
:mod:`repro.kernels.fused`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.core.nodeset import NodeSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.perf.index_cache import IndexCache

#: Canonical SoA field order, shared with the binary wire format
#: (``repro.service.wire`` ships exactly these as operand frames).
OPERAND_FIELDS = ("starts", "ends", "sorted_ends")


class OperandArena:
    """Lazy structure-of-arrays view over one node set's probe inputs."""

    __slots__ = ("node_set",)

    def __init__(self, node_set: NodeSet) -> None:
        self.node_set = node_set

    def __len__(self) -> int:
        return len(self.node_set)

    @property
    def starts(self) -> np.ndarray:
        return self.node_set.starts

    @property
    def ends(self) -> np.ndarray:
        return self.node_set.ends

    @property
    def sorted_ends(self) -> np.ndarray:
        return self.node_set.sorted_ends

    @property
    def fingerprint(self) -> str:
        return self.node_set.fingerprint

    def turning_points(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, padded_values)`` for the T-tree floor probe.

        ``padded_values[0]`` is 0 and ``padded_values[i + 1]`` is the
        covering count at and after ``keys[i]``, so the floor lookup for
        a batch of positions is ``padded_values[searchsorted(keys, p,
        'right')]`` with no mask: a position before every turning point
        indexes the pad and counts 0.  Cached on the node set, like
        every view the arena serves.
        """
        state = self.node_set.__dict__
        cached = state.get("_tp_padded")
        if cached is None:
            keys, values = self.node_set.turning_points_arrays
            padded = np.empty(values.shape[0] + 1, dtype=np.int64)
            padded[0] = 0
            padded[1:] = values
            padded.setflags(write=False)
            cached = state["_tp_padded"] = (keys, padded)
        return cached

    def wire_fields(self) -> Mapping[str, np.ndarray]:
        """The arrays a binary wire payload ships, by name.

        One definition of the operand wire layout: the encoder frames
        exactly these fields, and :meth:`from_wire_views` inverts the
        mapping on the decode side.
        """
        return {
            "starts": self.starts,
            "ends": self.ends,
            "sorted_ends": self.sorted_ends,
        }

    @classmethod
    def from_wire_views(
        cls,
        views: Mapping[str, np.ndarray],
        name: str | None = None,
        fingerprint: str | None = None,
    ) -> "OperandArena":
        """Rebuild an arena (and its node set) from decoded field views.

        The inverse of :meth:`wire_fields`: seeds every derived array a
        view was shipped for, so the receiver never re-sorts or
        re-derives what the sender already computed.
        """
        node_set = NodeSet.from_arrays(
            views["starts"],
            views["ends"],
            name=name,
            fingerprint=fingerprint,
        )
        sorted_ends = views.get("sorted_ends")
        if sorted_ends is not None:
            node_set.__dict__["sorted_ends"] = sorted_ends
        return cls(node_set)


def operand_arena(
    node_set: NodeSet, cache: "IndexCache | None" = None
) -> OperandArena:
    """The arena for ``node_set`` — content-shared when a cache is given.

    With a cache, the arena lives under ``("arena", fingerprint)`` once
    its key recurs, so equal-content node sets share one; every access
    goes through the cache to keep its hit/miss accounting (and LRU
    order) meaningful.  Without a cache the arena is a fresh wrapper:
    its fields are the node set's own cached views, so nothing is
    recomputed, and nothing on the node set points back at the arena.
    """
    if cache is not None:
        return cache.arena(node_set)
    return OperandArena(node_set)


def stab_count_table(
    ancestors: NodeSet, descendants: NodeSet, cache: "IndexCache | None"
) -> np.ndarray | None:
    """Stab counts of every descendant start against ``ancestors``, or
    None without a cache and on the pair's first probe.

    ``table[i]`` is the rank identity ``|{start <= p}| - |{end < p}|``
    at ``p = D.starts[i]`` — exactly :meth:`NodeSet.stab_counts`
    evaluated once over all of ``D.starts``.  Probe points for
    IM-DA-Est, SYS and
    SEMI-D are always draws *from* ``D.starts``, so with this table a
    probe batch is ``table[draws]`` — a gather instead of two binary
    searches per point.  Deterministic in the operand contents, hence
    cached under both fingerprints.  The table is looked up first and
    built only on the pair's second probe
    (:meth:`~repro.perf.SummaryCache.get_if_reused`); a first probe
    gets None and keeps the direct searchsorted path, so a pair probed
    once never pays for a table over all of ``D.starts``.  The ancestor
    arena is fetched from the cache only to build.
    """
    if cache is None:
        return None

    def build() -> np.ndarray:
        a_arena = operand_arena(ancestors, cache)
        points = descendants.starts
        started = np.searchsorted(a_arena.starts, points, side="right")
        ended = np.searchsorted(a_arena.sorted_ends, points, side="left")
        table = (started - ended).astype(np.int64)
        table.setflags(write=False)
        return table

    return cache.get_if_reused(
        ("stab_table", ancestors.fingerprint, descendants.fingerprint),
        build,
    )
