"""Metric primitives: counters, histograms, timers, and their registry.

Everything here is dependency-free and cheap enough to live on hot
paths.  Thread safety comes from per-thread *sharding* rather than
locks: an :meth:`Counter.inc` or :meth:`Histogram.observe` touches only
the calling thread's shard (plain dict/attribute operations, atomic
under the GIL), so the write path acquires no locks at all.  Aggregate
reads (``value``, ``count``, :meth:`~MetricsRegistry.snapshot`) fold
the shards; under concurrent writers they are eventually consistent —
exact whenever the writers have quiesced, which is when anyone reads
them.  The :class:`MetricsRegistry` owns named instances, produces
JSON-able :meth:`~MetricsRegistry.snapshot` dictionaries, and merges
snapshots back — the protocol :func:`merge_snapshots` uses to fold the
summary records of a telemetry file into one.

Merging is associative and commutative over counter values and histogram
totals, so merged totals are independent of the order of the snapshots.
"""

from __future__ import annotations

import math
import threading
import time
from threading import get_ident
from typing import Any, Iterable, Mapping

#: Observations retained per histogram for percentile queries; totals
#: (count/sum/min/max) keep accumulating past the cap.
DEFAULT_KEEP = 4096


class Counter:
    """A monotonically increasing integer metric.

    Sharded per thread: each thread increments its own slot, so
    :meth:`inc` is lock-free (dict item assignment is atomic under the
    GIL and no two threads share a key).
    """

    __slots__ = ("name", "_shards")

    def __init__(self, name: str) -> None:
        self.name = name
        self._shards: dict[int, int] = {}

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        shards = self._shards
        ident = get_ident()
        shards[ident] = shards.get(ident, 0) + amount

    @property
    def value(self) -> int:
        # list() snapshots the values in one C-level call, so a
        # concurrent first-increment from a new thread cannot raise
        # "dict changed size during iteration".
        return sum(list(self._shards.values()))

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class _HistogramShard:
    """One thread's private slice of a :class:`Histogram`."""

    __slots__ = ("count", "sum", "min", "max", "values")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.values: list[float] = []


class Histogram:
    """A distribution metric: totals plus a bounded sample of values.

    The first :data:`DEFAULT_KEEP` observations (per writer thread) are
    retained verbatim — deterministic, unlike reservoir sampling — for
    percentile queries; ``count``/``sum``/``min``/``max`` stay exact
    regardless.  Like :class:`Counter`, writes go to a per-thread shard
    and never lock; aggregate properties fold the shards on read.
    """

    __slots__ = ("name", "keep", "_shards")

    def __init__(self, name: str, keep: int = DEFAULT_KEEP) -> None:
        self.name = name
        self.keep = keep
        self._shards: dict[int, _HistogramShard] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        shards = self._shards
        ident = get_ident()
        shard = shards.get(ident)
        if shard is None:
            shard = shards[ident] = _HistogramShard()
        shard.count += 1
        shard.sum += value
        if value < shard.min:
            shard.min = value
        if value > shard.max:
            shard.max = value
        values = shard.values
        if len(values) < self.keep:
            values.append(value)

    def _shard_list(self) -> list[_HistogramShard]:
        return list(self._shards.values())

    @property
    def count(self) -> int:
        return sum(s.count for s in self._shard_list())

    @property
    def sum(self) -> float:
        return sum(s.sum for s in self._shard_list())

    @property
    def min(self) -> float:
        return min((s.min for s in self._shard_list()), default=math.inf)

    @property
    def max(self) -> float:
        return max((s.max for s in self._shard_list()), default=-math.inf)

    @property
    def mean(self) -> float:
        count = self.count
        return self.sum / count if count else 0.0

    @property
    def values(self) -> list[float]:
        """The retained observations (a copy, capped at ``keep``)."""
        out: list[float] = []
        for shard in self._shard_list():
            out.extend(shard.values)
            if len(out) >= self.keep:
                break
        return out[: self.keep]

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained values (0 if empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        ordered = sorted(self.values)
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[rank]

    def _merge_snapshot(self, data: Mapping[str, Any]) -> None:
        """Fold a snapshot dict into the calling thread's shard."""
        shards = self._shards
        ident = get_ident()
        shard = shards.get(ident)
        if shard is None:
            shard = shards[ident] = _HistogramShard()
        shard.count += int(data["count"])
        shard.sum += float(data["sum"])
        if data.get("min") is not None:
            shard.min = min(shard.min, float(data["min"]))
        if data.get("max") is not None:
            shard.max = max(shard.max, float(data["max"]))
        room = self.keep - sum(len(s.values) for s in self._shard_list())
        if room > 0:
            shard.values.extend(
                float(v) for v in data.get("values", [])[:room]
            )

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, count={self.count}, "
            f"sum={self.sum:.6g})"
        )


class Timer:
    """Context manager that times a block into a :class:`Histogram`.

    >>> registry = MetricsRegistry()
    >>> with registry.timer("phase.example.seconds"):
    ...     pass
    >>> registry.histogram("phase.example.seconds").count
    1
    """

    __slots__ = ("histogram", "_start", "elapsed")

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        self.elapsed: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.elapsed = time.perf_counter() - self._start
        self.histogram.observe(self.elapsed)


class MetricsRegistry:
    """Thread-safe registry of named counters and histograms.

    Names are free-form dotted strings (``estimator.PL.calls``,
    ``cache.hits``, ``phase.PL.summary_build.seconds``); lookups create
    the metric on first use.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lookup / creation
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        # Lock-free fast path: dict reads are atomic under the GIL, and
        # metrics are never removed while in use; the lock only guards
        # first-use creation.
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.get(name)
                if metric is None:
                    metric = self._counters[name] = Counter(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.get(name)
                if metric is None:
                    metric = self._histograms[name] = Histogram(name)
        return metric

    def timer(self, name: str) -> Timer:
        return Timer(self.histogram(name))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """``name -> value`` for every counter (sorted by name)."""
        with self._lock:
            items = list(self._counters.items())
        return {name: c.value for name, c in sorted(items)}

    def histograms(self) -> dict[str, Histogram]:
        """``name -> Histogram`` (sorted by name; live objects)."""
        with self._lock:
            return dict(sorted(self._histograms.items()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._histograms)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    # Snapshot / merge — the worker aggregation protocol
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A picklable, JSON-able copy of every metric.

        The format is the merge protocol's wire format::

            {"counters": {name: int},
             "histograms": {name: {"count", "sum", "min", "max",
                                   "values"}}}
        """
        with self._lock:
            counters = {n: c.value for n, c in sorted(self._counters.items())}
            histograms = {}
            for name, h in sorted(self._histograms.items()):
                count = h.count
                histograms[name] = {
                    "count": count,
                    "sum": h.sum,
                    "min": h.min if count else None,
                    "max": h.max if count else None,
                    "values": h.values,
                }
        return {"counters": counters, "histograms": histograms}

    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> None:
        """Fold another registry (or a snapshot of one) into this one.

        Counter values add; histogram totals add and retained values
        concatenate up to the keep cap.  Merging worker snapshots in any
        grouping yields the same totals.
        """
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) \
            else other
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name)._merge_snapshot(data)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"histograms={len(self._histograms)})"
            )


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Merge snapshot dictionaries into one (convenience for reports)."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged.snapshot()
