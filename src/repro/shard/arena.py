"""Shared-memory arenas: zero-copy numpy operands across processes.

A :class:`ShardArena` owns one ``multiprocessing.shared_memory`` segment
laid out as a structure of arrays: each named field is a contiguous
numpy array at a 64-byte-aligned offset.  The creating process copies
the operand arrays in exactly once; every worker process *attaches* to
the segment by name and maps read-only views — no pickling, no copies,
no per-request serialization of operand data.

Lifecycle is explicit and asymmetric, mirroring the POSIX semantics
underneath:

* ``create`` (owner) / ``attach`` (worker) — open the segment;
* ``close`` — unmap this process's views (both sides);
* ``unlink`` — destroy the segment (owner only; workers never unlink).

Because worker processes are forked from the owner, both sides share
one ``resource_tracker`` process; its per-name registry is a set, so
the owner's single ``unlink`` retires the segment cleanly no matter how
many workers attached.  A module-level registry plus an ``atexit``
backstop guarantees owned segments are unlinked even when a service
shuts down abnormally — :func:`live_segments` is the leak probe the
tests assert against.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
from multiprocessing import shared_memory
from typing import Any, Mapping

import numpy as np

from repro.core.errors import ServiceError

#: Field offsets are aligned so every view starts on a cache line.
_ALIGNMENT = 64

#: Prefix of every segment this module creates; tests scan ``/dev/shm``
#: for it to prove nothing outlives its owner.
SEGMENT_PREFIX = "repro_shard_"

_live_lock = threading.Lock()
_live: dict[int, "ShardArena"] = {}


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid()}_{uuid.uuid4().hex[:12]}"


def _track(arena: "ShardArena") -> None:
    with _live_lock:
        _live[id(arena)] = arena


def _untrack(arena: "ShardArena") -> None:
    with _live_lock:
        _live.pop(id(arena), None)


def live_segments() -> list[str]:
    """Names of segments still mapped by this process (leak probe)."""
    with _live_lock:
        return sorted(arena.name for arena in _live.values())


def _atexit_sweep() -> None:  # pragma: no cover - interpreter shutdown
    with _live_lock:
        arenas = list(_live.values())
    for arena in arenas:
        try:
            arena.unlink() if arena.owner else arena.close()
        except Exception:
            pass


atexit.register(_atexit_sweep)


class ShardArena:
    """One shared-memory segment holding named numpy arrays.

    Construct through :meth:`create` (copies the fields in, owns the
    segment) or :meth:`attach` (maps an existing segment from its
    :meth:`manifest`).  ``view(field)`` returns a read-only zero-copy
    array; views are invalidated by :meth:`close`.
    """

    __slots__ = ("_shm", "_layout", "_views", "owner", "_closed")

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        layout: dict[str, tuple[str, tuple[int, ...], int]],
        owner: bool,
    ) -> None:
        self._shm = segment
        self._layout = layout
        self._views: dict[str, np.ndarray] = {}
        self.owner = owner
        self._closed = False
        _track(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, fields: Mapping[str, np.ndarray]) -> "ShardArena":
        """Allocate a segment and copy ``fields`` into it (owner side)."""
        if not fields:
            raise ServiceError("an arena needs at least one field")
        arrays = {
            name: np.ascontiguousarray(array)
            for name, array in fields.items()
        }
        layout: dict[str, tuple[str, tuple[int, ...], int]] = {}
        total = 0
        for name, array in arrays.items():
            offset = _align(total)
            layout[name] = (array.dtype.str, array.shape, offset)
            total = offset + array.nbytes
        segment = shared_memory.SharedMemory(
            name=_segment_name(), create=True, size=max(total, 1)
        )
        arena = cls(segment, layout, owner=True)
        for name, array in arrays.items():
            target = arena._map(name, writeable=True)
            target[...] = array
        arena._views.clear()  # drop the writeable mappings
        return arena

    @classmethod
    def attach(cls, manifest: Mapping[str, Any]) -> "ShardArena":
        """Map an existing segment from an owner's :meth:`manifest`."""
        segment = shared_memory.SharedMemory(name=manifest["segment"])
        layout = {
            name: (dtype, tuple(shape), offset)
            for name, (dtype, shape, offset) in manifest["fields"].items()
        }
        return cls(segment, layout, owner=False)

    def manifest(self) -> dict[str, Any]:
        """Picklable description a worker passes to :meth:`attach`."""
        return {
            "segment": self._shm.name,
            "fields": {
                name: (dtype, list(shape), offset)
                for name, (dtype, shape, offset) in self._layout.items()
            },
        }

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(self._layout)

    @property
    def closed(self) -> bool:
        return self._closed

    def nbytes(self) -> int:
        return self._shm.size

    def _map(self, field: str, writeable: bool = False) -> np.ndarray:
        dtype, shape, offset = self._layout[field]
        view: np.ndarray = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=offset
        )
        if not writeable:
            view.flags.writeable = False
        self._views[field] = view
        return view

    def view(self, field: str) -> np.ndarray:
        """Read-only zero-copy array for ``field``."""
        if self._closed:
            raise ServiceError(
                f"arena {self.name} is closed; views are invalid"
            )
        if field not in self._layout:
            raise ServiceError(
                f"arena {self.name} has no field {field!r} "
                f"(fields: {self.fields})"
            )
        cached = self._views.get(field)
        return cached if cached is not None else self._map(field)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's views.  Idempotent.

        Outstanding external references to views (a NodeSet still
        holding one) keep the mapping's buffer exported; the unmap is
        then deferred to interpreter cleanup rather than erroring —
        ``unlink`` (the leak that matters) does not require it.
        """
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        try:
            self._shm.close()
        except BufferError:  # views escaped; the OS unmaps at exit
            pass
        _untrack(self)

    def unlink(self) -> None:
        """Destroy the segment (owner only).  Closes first; idempotent."""
        if not self.owner:
            raise ServiceError(
                f"arena {self.name} was attached, not created; "
                "only the owner unlinks"
            )
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked (atexit raced us)
            pass


def segment_exists(name: str) -> bool:
    """True when ``name`` still exists in the OS shared-memory namespace."""
    path = f"/dev/shm/{name}"
    if os.path.exists(path):
        return True
    try:
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    # Attaching registered the name with the resource tracker (3.11
    # registers unconditionally); this was only a probe, so retract it.
    probe.close()
    try:
        shared_memory.resource_tracker.unregister(
            probe._name, "shared_memory"
        )
    except Exception:  # pragma: no cover - tracker already gone
        pass
    return True
