"""Content-keyed LRU cache for built summaries.

A sweep over budgets × methods × repetitions re-derives the same PL/PH/
coverage summaries for every configuration; this module lets every
consumer (estimators, the statistics catalog, the experiment harness)
build each summary exactly once.

Keys are *content* keys: the node set contributes its
:attr:`~repro.core.nodeset.NodeSet.fingerprint` — a digest of its region
codes — so two node sets with identical elements share cache entries no
matter how they were obtained, while any mutation-by-reconstruction
changes the key.  The remaining key components identify the summary kind,
the join role, the workspace and every estimator parameter that affects
the built artifact.

Two usage styles:

* explicit — pass a :class:`SummaryCache` to the consumer
  (``PLHistogramEstimator(cache=...)``, ``StatisticsCatalog(cache=...)``);
* ambient — install one for a region of code with :func:`use_cache`;
  consumers constructed without an explicit cache pick it up.  The
  experiment harness wraps its query loop this way.

The cache is bounded (LRU eviction) and thread-safe; cached artifacts are
treated as immutable by every consumer.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Iterator, TypeVar

from repro.obs import runtime as _obs

T = TypeVar("T")


#: Types sized by ``sys.getsizeof`` alone: they reference nothing the
#: walk would follow.  Matched exactly, so subclasses (enums, named
#: tuples) take the general path.
_SCALARS = frozenset({int, float, complex, bool, str, bytes, type(None)})


def approx_nbytes(value: Any, depth: int = 4) -> int:
    """Approximate deep size of a cached summary, in bytes.

    Recursion is bounded (``depth``) and cycle-safe enough for the
    artifact shapes the cache holds — histogram objects with bucket
    lists, Counters, numpy arrays, tuples of floats.  Exactness is not
    the point; stable relative accounting across runs is.

    The cost follows the artifact's shape, not its element count:
    scalars are sized directly, and a list, tuple or dict is sized from
    its first element (a dict from its first key plus value) times its
    length.  For containers of uniformly sized elements — the buckets
    of a histogram, the cells of a grid, the floats of an edge list —
    that equals a walk over every element.  Sets and frozensets are
    still walked in full, because their iteration order, and so their
    first element, varies between processes.
    """
    if type(value) in _SCALARS:
        return sys.getsizeof(value)
    arr_nbytes = getattr(value, "nbytes", None)
    if isinstance(arr_nbytes, int):  # numpy arrays and scalars
        return int(arr_nbytes) + 96
    total = sys.getsizeof(value, 64)
    if depth <= 0:
        return total
    if isinstance(value, dict):
        if value:
            key, item = next(iter(value.items()))
            total += len(value) * (
                approx_nbytes(key, depth - 1)
                + approx_nbytes(item, depth - 1)
            )
    elif isinstance(value, (list, tuple)):
        if value:
            total += len(value) * approx_nbytes(value[0], depth - 1)
    elif isinstance(value, (set, frozenset)):
        for item in value:
            total += approx_nbytes(item, depth - 1)
    else:
        state = getattr(value, "__dict__", None)
        if state is not None:
            for item in state.values():
                total += approx_nbytes(item, depth - 1)
        elif hasattr(type(value), "__slots__"):
            for slot in type(value).__slots__:
                total += approx_nbytes(
                    getattr(value, slot, None), depth - 1
                )
    return total

#: Marks a key :meth:`SummaryCache.peek_many` did not find (a cached
#: value may be None).
_ABSENT = object()

#: Default number of summaries kept before LRU eviction kicks in.  A
#: summary is a few hundred bytes to a few KB, so even the default is
#: small; sweeps needing more can size their own cache.
DEFAULT_MAXSIZE = 1024


class SummaryCache:
    """A bounded, thread-safe LRU cache for built estimator summaries.

    Args:
        maxsize: entries kept before the least recently used is evicted.
    """

    #: Prefix for the obs counters this cache records
    #: (``cache.hits``/``cache.misses``/...).  Subclasses override it to
    #: report under their own namespace (``IndexCache`` → ``index_cache``).
    metric_kind = "cache"

    def _value_nbytes(self, value: Any) -> int:
        """Size estimate used for the byte accounting.

        Subclasses caching many small homogeneous values (the service's
        result memo) override this with a flat estimate to keep inserts
        off the recursive :func:`approx_nbytes` path.
        """
        return approx_nbytes(value)

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        # String token -> resident keys mentioning it.  Built by the
        # first invalidate_fingerprint and kept current from then on,
        # so caches that are never invalidated never pay for it.
        self._index: dict[str, set[Hashable]] | None = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get_or_build(self, key: Hashable, builder: Callable[[], T]) -> T:
        """Return the cached value for ``key``, building it on a miss.

        The builder runs outside the lock, so a slow build does not block
        other threads; if two threads race on the same missing key the
        second build wins (both produce identical content-keyed values).
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                if _obs.enabled():
                    _obs.record_cache("hits", kind=self.metric_kind)
                return self._data[key]
            self.misses += 1
        if _obs.enabled():
            _obs.record_cache("misses", kind=self.metric_kind)
        value = builder()
        size = self._value_nbytes(value)
        evicted = self._store(key, value, size)
        if _obs.enabled():
            _obs.record_cache("built_nbytes", size, kind=self.metric_kind)
            if evicted:
                _obs.record_cache("evictions", evicted, kind=self.metric_kind)
        return value

    def peek(self, key: Hashable, default: T | None = None) -> T | None:
        """Look up ``key`` without building; counts as a hit or miss."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                found = True
                value = self._data[key]
            else:
                self.misses += 1
                found = False
                value = default
        if _obs.enabled():
            _obs.record_cache(
                "hits" if found else "misses", kind=self.metric_kind
            )
        return value

    def peek_many(
        self, keys: list[Hashable], default: T | None = None
    ) -> list[T | None]:
        """:meth:`peek` every key of ``keys`` in order, under one lock.

        Leaves the same values, hit and miss counters, obs counters and
        LRU order as peeking the keys one after another; a key repeated
        within the call counts once per occurrence.
        """
        data = self._data
        values: list[Any] = []
        misses = 0
        with self._lock:
            for key in keys:
                value = data.get(key, _ABSENT)
                if value is _ABSENT:
                    misses += 1
                    value = default
                else:
                    data.move_to_end(key)
                values.append(value)
            hits = len(keys) - misses
            self.hits += hits
            self.misses += misses
        if _obs.enabled():
            for event, amount in (("hits", hits), ("misses", misses)):
                if amount:
                    _obs.record_cache(event, amount, kind=self.metric_kind)
        return values

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value`` under ``key`` (no hit/miss accounting).

        The counterpart of :meth:`peek` for consumers that compute
        values out-of-band (the estimation service memoizes finished
        estimates this way); :meth:`get_or_build` remains the one-stop
        path when the builder can run at lookup time.
        """
        evicted = self._store(key, value, self._value_nbytes(value))
        if _obs.enabled() and evicted:
            _obs.record_cache("evictions", evicted, kind=self.metric_kind)

    def _store(self, key: Hashable, value: Any, size: int) -> int:
        """Insert as most recently used, evict past ``maxsize``.

        Returns the number of entries evicted.
        """
        evicted = 0
        with self._lock:
            if key not in self._data:
                self.nbytes += size
                self._sizes[key] = size
                if self._index is not None:
                    self._index_add(key)
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                victim, __ = self._data.popitem(last=False)
                self.nbytes -= self._sizes.pop(victim, 0)
                if self._index is not None:
                    self._index_drop(victim)
                self.evictions += 1
                evicted += 1
        return evicted

    def _index_add(self, key: Hashable) -> None:
        for token in _key_tokens(key):
            keys = self._index.get(token)
            if keys is None:
                self._index[token] = {key}
            else:
                keys.add(key)

    def _index_drop(self, key: Hashable) -> None:
        for token in _key_tokens(key):
            keys = self._index.get(token)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._index[token]

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry whose key mentions ``fingerprint``.

        Content keys embed the node-set fingerprints of whatever the
        artifact was built from, so this is bump-on-write invalidation
        for live workspaces: after a mutation the old fingerprint can
        never serve again, and entries keyed on *other* fingerprints
        (other tenants, other tags) are untouched — their positions,
        sizes and hit counters do not move.  Returns the number of
        entries removed; lookups are not counted as hits or misses.

        A key mentions ``fingerprint`` when the key, or any string
        inside it at any depth of nested tuples, equals it (strings
        inside other containers do not count).  The first call indexes
        every resident key by those strings, and inserts, evictions,
        invalidations and :meth:`clear` keep the index current, so each
        call costs O(entries dropped) rather than a scan of the cache.
        Byte accounting is unaffected: entry sizes were fixed at insert
        by :func:`approx_nbytes`, which sizes a list, tuple or dict from
        its first element and walks sets in full.
        """
        with self._lock:
            if self._index is None:
                self._index = {}
                for key in self._data:
                    self._index_add(key)
            victims = list(self._index.get(fingerprint, ()))
            for key in victims:
                del self._data[key]
                self.nbytes -= self._sizes.pop(key, 0)
                self._index_drop(key)
            removed = len(victims)
            self.invalidations += removed
        if _obs.enabled() and removed:
            _obs.record_cache(
                "invalidations", removed, kind=self.metric_kind
            )
        return removed

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/eviction counters."""
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            if self._index is not None:
                self._index.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.invalidations = 0
            self.nbytes = 0

    def stats(self) -> dict[str, int | float]:
        """Counters plus the hit rate (0.0 when never consulted)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "nbytes": self.nbytes,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={len(self._data)}, "
            f"maxsize={self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def _key_tokens(key: Hashable) -> set[str]:
    """The strings in a (nested) key tuple — what invalidation matches."""
    tokens: set[str] = set()
    pending = [key]
    while pending:
        part = pending.pop()
        if isinstance(part, str):
            tokens.add(part)
        elif isinstance(part, tuple):
            pending.extend(part)
    return tokens


# ----------------------------------------------------------------------
# Ambient cache
# ----------------------------------------------------------------------

_local = threading.local()


def active_cache() -> SummaryCache | None:
    """The ambient cache installed by :func:`use_cache`, if any."""
    return getattr(_local, "cache", None)


def resolve_cache(explicit: SummaryCache | None) -> SummaryCache | None:
    """An explicitly supplied cache, else the ambient one, else None."""
    return explicit if explicit is not None else active_cache()


@contextmanager
def use_cache(cache: SummaryCache | None) -> Iterator[SummaryCache | None]:
    """Install ``cache`` as the ambient summary cache for the block.

    Passing None makes the block run uncached even inside an outer
    :func:`use_cache` region.  The ambient cache is thread-local: worker
    threads each install their own.
    """
    previous = getattr(_local, "cache", None)
    _local.cache = cache
    try:
        yield cache
    finally:
        _local.cache = previous
