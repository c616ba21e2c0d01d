"""Bounded admission queue with micro-batch coalescing.

The service's callers do not pop requests one at a time: they take the
oldest waiting request plus every *compatible* request queued behind it
(same :meth:`~repro.service.request.EstimateRequest.batch_signature`,
up to the batch cap) in one draw, so a burst of identically shaped
requests — the optimizer re-costing one join under several
configurations, a sweep re-asking the same query — executes as a single
``estimate_across`` kernel pass instead of N sequential calls.

Requests are bucketed by signature at admission (the signature is
computed once per request, by the submitting thread), so a draw is
O(batch): pop the front of the oldest bucket.  Bucket order is
first-pending-member order — the batch is always anchored at a group
whose head has waited longest, and requests within a group leave in
arrival order, so coalescing never starves anyone.

The queue is bounded: :meth:`put` refuses (returns False) rather than
blocks when full, which is the engine's load-shedding signal — the
caller answers the request inline from the bottom ladder rung instead
of letting queue wait times grow without bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Sequence

from repro.service.request import ServiceFuture


class RequestQueue:
    """Bounded, signature-bucketed FIFO of :class:`ServiceFuture`."""

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be > 0, got {maxsize}")
        self.maxsize = maxsize
        self._groups: OrderedDict[object, deque[ServiceFuture]] = (
            OrderedDict()
        )
        self._count = 0
        self._lock = threading.Lock()
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return self._count

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, future: ServiceFuture) -> bool:
        """Admit a request; False when the queue is full or closed."""
        return self.put_many((future,)) == 1

    def put_many(self, futures: Sequence[ServiceFuture]) -> int:
        """Admit a burst under one lock; returns how many were admitted.

        Admission stops at capacity (or a closed queue) and the count of
        admitted futures — a prefix of ``futures`` — is returned, so the
        caller can drain and retry the rest instead of shedding them.
        Bulk admission is what lets a single-client burst coalesce: every
        compatible request is already bucketed when the first
        :meth:`take_batch` runs, instead of racing the drain one
        admission at a time.
        """
        with self._lock:
            if self._closed:
                return 0
            admitted = 0
            for future in futures:
                if self._count >= self.maxsize:
                    break
                group = self._groups.get(future.signature)
                if group is None:
                    group = self._groups[future.signature] = deque()
                group.append(future)
                self._count += 1
                admitted += 1
            return admitted

    def take_batch(self, max_batch: int) -> list[ServiceFuture]:
        """Pop the oldest pending group's head plus compatible followers.

        Never blocks: an empty list means the queue is empty.  The
        returned batch shares one ``batch_signature`` and has at most
        ``max_batch`` members, in arrival order.
        """
        with self._lock:
            if not self._count:
                return []
            signature, group = next(iter(self._groups.items()))
            take = min(max_batch, len(group))
            batch = [group.popleft() for _ in range(take)]
            self._count -= take
            if not group:
                del self._groups[signature]
            return batch

    def close(self) -> None:
        """Stop admitting; what is queued can still be taken."""
        with self._lock:
            self._closed = True

    def drain(self) -> list[ServiceFuture]:
        """Remove and return everything still queued (for shutdown)."""
        with self._lock:
            items = [
                future
                for group in self._groups.values()
                for future in group
            ]
            self._groups.clear()
            self._count = 0
            return items
