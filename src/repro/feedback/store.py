"""The feedback store: what the serving layer learned about its answers.

Every answer the :class:`~repro.service.EstimationService` produces is a
data point — which method ran, what it said, how long it took, and (when
the memo table, the :class:`~repro.optimizer.generator.ExactGenerator`,
or a qa oracle later produces the true size) how wrong it was.  Today
that signal is discarded the moment the response is returned; the
:class:`FeedbackStore` keeps it, as

* an append-only (bounded) log of :class:`FeedbackRecord` rows, and
* exact per-``(query class, method)`` aggregates — observation counts,
  error sums, latency sums — that survive any snapshot/merge order.

The aggregates are deliberately *order-free* (counts and sums, the same
discipline as :class:`~repro.obs.metrics.MetricsRegistry`): merging two
snapshots is associative and commutative, so a router fed from ``K``
worker stores makes exactly the decisions it would make single-threaded.
An EWMA latency is also maintained for display (it reacts faster), but
anything a :class:`~repro.router.Router` consumes comes from the
order-free sums.

Truth arrives out of band: :meth:`FeedbackStore.observe_truth` records
the exact join size for an operand pair (keyed by content fingerprints),
back-fills every retained record for that pair, and folds the signed
relative error into the aggregates.  Record-then-truth and
truth-then-record produce identical aggregates.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, Mapping

from repro.core.errors import FeedbackError
from repro.core.nodeset import NodeSet
from repro.estimators.base import _from_wire_float, _to_wire

__all__ = [
    "FEEDBACK_SCHEMA_VERSION",
    "FeedbackRecord",
    "FeedbackStore",
    "MethodStats",
    "query_class",
    "featurize",
]

#: Version of the :meth:`FeedbackRecord.to_dict` wire schema (and of the
#: store's :meth:`FeedbackStore.snapshot` payload).  Bumped on renames or
#: meaning changes; additions are backward compatible.
FEEDBACK_SCHEMA_VERSION = 1


def _size_bucket(n: int) -> int:
    """Log2 cardinality bucket: 0 for empty, else ``floor(log2(n)) + 1``."""
    if n <= 0:
        return 0
    return n.bit_length()


def query_class(ancestors: NodeSet, descendants: NodeSet) -> str:
    """A stable query-class label for an operand pair.

    Classes group "the same query shape at the same scale": the two tag
    names plus log2 cardinality buckets, e.g. ``item[10]//name[12]``.
    Same-tag operands at similar sizes share a class (and therefore a
    bandit arm history and a correction model); a filtered set an order
    of magnitude smaller lands in a different class.
    """
    return (
        f"{ancestors.name}[{_size_bucket(len(ancestors))}]"
        f"//{descendants.name}[{_size_bucket(len(descendants))}]"
    )


def featurize(ancestors: NodeSet, descendants: NodeSet) -> tuple[float, ...]:
    """Correction-model features from the operand summaries.

    Cheap, log-scale, and derived only from per-set statistics the
    summaries already expose: cardinalities and average region lengths
    (the quantities the paper's models consume).  The leading 1.0 is the
    intercept column.
    """
    return (
        1.0,
        math.log1p(float(len(ancestors))),
        math.log1p(float(len(descendants))),
        math.log1p(max(0.0, float(ancestors.average_length))),
        math.log1p(max(0.0, float(descendants.average_length))),
    )


@dataclass(slots=True)
class FeedbackRecord:
    """One served estimate, with truth when known.

    Attributes:
        query_class: :func:`query_class` label of the operand pair.
        method: the method that actually produced the answer (the routed
            method when a router chose; ``"BOUND"`` for the bound arm).
        estimate: the returned value.
        features: :func:`featurize` vector of the operand pair.
        exact: the true join size when known, else None.
        latency_s: service-side residency of the request.
        status: response status ("ok"/"degraded"/"shed").
        degraded_reason: why the ladder answered, None for full fidelity.
        pair_key: operand content fingerprints ``"a_fp//d_fp"`` — how
            truth observed later finds this record.
        request_id: correlation id, when the record came from the service.
    """

    query_class: str
    method: str
    estimate: float
    features: tuple[float, ...] = ()
    exact: float | None = None
    latency_s: float = 0.0
    status: str = "ok"
    degraded_reason: str | None = None
    pair_key: str | None = None
    request_id: str | None = None

    @property
    def signed_relative_error(self) -> float | None:
        """``(estimate - exact) / exact``, or None without truth.

        Dimensionless (not a percentage): the router's reward signal.
        Zero truth follows the :class:`~repro.estimators.base.Estimate`
        convention — 0.0 for an exact answer, ``inf`` otherwise.
        """
        if self.exact is None:
            return None
        if self.exact == 0:
            return 0.0 if self.estimate == 0 else math.inf
        return (self.estimate - self.exact) / self.exact

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON wire form (schema_version 1)."""
        return {
            "schema_version": FEEDBACK_SCHEMA_VERSION,
            "query_class": self.query_class,
            "method": self.method,
            "estimate": _to_wire(self.estimate),
            "features": [_to_wire(f) for f in self.features],
            "exact": _to_wire(self.exact),
            "latency_s": _to_wire(self.latency_s),
            "status": self.status,
            "degraded_reason": self.degraded_reason,
            "pair_key": self.pair_key,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FeedbackRecord":
        """Inverse of :meth:`to_dict`; validates the schema version."""
        if not isinstance(payload, Mapping):
            raise FeedbackError(
                f"feedback record payload must be a mapping, "
                f"got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != FEEDBACK_SCHEMA_VERSION:
            raise FeedbackError(
                f"unsupported feedback record schema_version {version!r} "
                f"(this version reads {FEEDBACK_SCHEMA_VERSION})"
            )
        try:
            return cls(
                query_class=str(payload["query_class"]),
                method=str(payload["method"]),
                estimate=float(_from_wire_float(payload["estimate"])),
                features=tuple(
                    float(_from_wire_float(f))
                    for f in payload.get("features", ())
                ),
                exact=_from_wire_float(payload.get("exact")),
                latency_s=float(
                    _from_wire_float(payload.get("latency_s", 0.0))
                ),
                status=str(payload.get("status", "ok")),
                degraded_reason=payload.get("degraded_reason"),
                pair_key=payload.get("pair_key"),
                request_id=payload.get("request_id"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise FeedbackError(
                f"malformed feedback record payload: {error}"
            ) from error


@dataclass(slots=True)
class MethodStats:
    """Order-free aggregates for one ``(query class, method)`` cell.

    Everything the router reads is a count or a sum, so folding two
    cells together (:meth:`merge`) commutes — the obs snapshot/merge
    discipline.  ``ewma_latency_s`` is display-only (it depends on
    arrival order by construction) and is never consumed by routing.
    """

    count: int = 0
    truth_count: int = 0
    abs_error_sum: float = 0.0
    error_sum: float = 0.0
    latency_sum: float = 0.0
    ewma_latency_s: float | None = None
    _EWMA_ALPHA: float = field(default=0.3, repr=False)

    def observe(self, record: FeedbackRecord) -> None:
        self.count += 1
        self.latency_sum += record.latency_s
        alpha = self._EWMA_ALPHA
        self.ewma_latency_s = (
            record.latency_s
            if self.ewma_latency_s is None
            else alpha * record.latency_s
            + (1.0 - alpha) * self.ewma_latency_s
        )
        error = record.signed_relative_error
        if error is not None and math.isfinite(error):
            self.truth_count += 1
            self.abs_error_sum += abs(error)
            self.error_sum += error

    def observe_truth(self, error: float) -> None:
        """Fold a late-arriving signed relative error into the cell."""
        if math.isfinite(error):
            self.truth_count += 1
            self.abs_error_sum += abs(error)
            self.error_sum += error

    @property
    def mean_abs_error(self) -> float | None:
        if self.truth_count == 0:
            return None
        return self.abs_error_sum / self.truth_count

    @property
    def mean_latency_s(self) -> float:
        if self.count == 0:
            return 0.0
        return self.latency_sum / self.count

    def copy(self) -> "MethodStats":
        """An independent copy, field by field (no ``fields()`` walk)."""
        return MethodStats(
            self.count,
            self.truth_count,
            self.abs_error_sum,
            self.error_sum,
            self.latency_sum,
            self.ewma_latency_s,
            self._EWMA_ALPHA,
        )

    def merge(self, other: "MethodStats") -> None:
        if other.count:
            # Deterministic tie-less combination: the merged EWMA is the
            # count-weighted mean of the two EWMAs, which is symmetric.
            if self.ewma_latency_s is None:
                self.ewma_latency_s = other.ewma_latency_s
            elif other.ewma_latency_s is not None:
                total = self.count + other.count
                self.ewma_latency_s = (
                    self.count * self.ewma_latency_s
                    + other.count * other.ewma_latency_s
                ) / total
        self.count += other.count
        self.truth_count += other.truth_count
        self.abs_error_sum += other.abs_error_sum
        self.error_sum += other.error_sum
        self.latency_sum += other.latency_sum

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "truth_count": self.truth_count,
            "abs_error_sum": _to_wire(self.abs_error_sum),
            "error_sum": _to_wire(self.error_sum),
            "latency_sum": _to_wire(self.latency_sum),
            "ewma_latency_s": _to_wire(self.ewma_latency_s),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MethodStats":
        try:
            return cls(
                count=int(payload["count"]),
                truth_count=int(payload["truth_count"]),
                abs_error_sum=float(
                    _from_wire_float(payload["abs_error_sum"])
                ),
                error_sum=float(_from_wire_float(payload["error_sum"])),
                latency_sum=float(
                    _from_wire_float(payload["latency_sum"])
                ),
                ewma_latency_s=_from_wire_float(
                    payload.get("ewma_latency_s")
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise FeedbackError(
                f"malformed method-stats payload: {error}"
            ) from error


def pair_key(ancestors: NodeSet, descendants: NodeSet) -> str:
    """Content key joining truth observations to feedback records."""
    return f"{ancestors.fingerprint}//{descendants.fingerprint}"


class FeedbackStore:
    """Thread-safe store of served-estimate feedback.

    Args:
        max_records: retained-record bound.  Aggregates stay exact past
            the bound; overflow records are counted (``dropped``) but not
            retained, so truth arriving later cannot back-fill them.
    """

    def __init__(self, *, max_records: int = 100_000) -> None:
        if max_records < 0:
            raise FeedbackError(
                f"max_records must be >= 0, got {max_records}"
            )
        self.max_records = max_records
        self._lock = threading.Lock()
        self._records: list[FeedbackRecord] = []
        self._dropped = 0
        # query class -> method -> cell: a routed request reads one
        # class's arms without touching the rest of the store.
        self._stats: dict[str, dict[str, MethodStats]] = {}
        self._truths: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def add(self, record: FeedbackRecord) -> FeedbackRecord:
        """Append one record; returns the (possibly truth-filled) row.

        When the record carries no ``exact`` but truth for its pair was
        already observed, the stored copy is completed with it, so the
        aggregates are identical whichever of record/truth arrived first.
        """
        if not isinstance(record, FeedbackRecord):
            raise FeedbackError(
                f"expected a FeedbackRecord, got {type(record).__name__}"
            )
        with self._lock:
            if record.exact is None and record.pair_key is not None:
                exact = self._truths.get(record.pair_key)
                if exact is not None:
                    record = replace(record, exact=exact)
            cell = self._cell(record.query_class, record.method)
            cell.observe(record)
            if len(self._records) < self.max_records:
                self._records.append(record)
            else:
                self._dropped += 1
        return record

    def observe_truth(
        self,
        ancestors: NodeSet,
        descendants: NodeSet,
        exact: float,
    ) -> int:
        """Record the true join size for an operand pair.

        Back-fills every retained truth-less record of the pair (folding
        its error into the aggregates) and remembers the truth so future
        records complete on arrival.  Returns how many retained records
        gained truth.
        """
        return self.observe_truth_key(
            pair_key(ancestors, descendants), float(exact)
        )

    def observe_truth_key(self, key: str, exact: float) -> int:
        """:meth:`observe_truth` by precomputed pair key."""
        exact = float(exact)
        filled = 0
        with self._lock:
            self._truths[key] = exact
            for i, record in enumerate(self._records):
                if record.pair_key == key and record.exact is None:
                    updated = replace(record, exact=exact)
                    self._records[i] = updated
                    error = updated.signed_relative_error
                    if error is not None:
                        self._cell(
                            updated.query_class, updated.method
                        ).observe_truth(error)
                    filled += 1
        return filled

    def truth_for(self, key: str) -> float | None:
        """The recorded exact size for a pair key, if any."""
        with self._lock:
            return self._truths.get(key)

    def _cell(self, query_class: str, method: str) -> MethodStats:
        methods = self._stats.get(query_class)
        if methods is None:
            methods = self._stats[query_class] = {}
        cell = methods.get(method)
        if cell is None:
            cell = methods[method] = MethodStats()
        return cell

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(
        self,
        *,
        query_class: str | None = None,
        method: str | None = None,
        with_truth: bool = False,
    ) -> list[FeedbackRecord]:
        """Retained records, optionally filtered."""
        with self._lock:
            rows = list(self._records)
        if query_class is not None:
            rows = [r for r in rows if r.query_class == query_class]
        if method is not None:
            rows = [r for r in rows if r.method == method]
        if with_truth:
            rows = [r for r in rows if r.exact is not None]
        return rows

    def classes(self) -> tuple[str, ...]:
        """Query classes seen, sorted (a deterministic iteration order)."""
        with self._lock:
            return tuple(sorted(self._stats))

    def method_stats(
        self, query_class: str
    ) -> dict[str, MethodStats]:
        """Per-method aggregate *copies* for one class, sorted by method.

        Costs O(arms of the class): the router calls this once per
        routed request, whatever the number of classes in the store.
        """
        with self._lock:
            methods = self._stats.get(query_class, {})
            return {
                method: methods[method].copy() for method in sorted(methods)
            }

    def stats(self) -> dict[str, Any]:
        """Summary for ``service.stats()`` / ``obs-report``."""
        with self._lock:
            truth = sum(
                1 for r in self._records if r.exact is not None
            )
            return {
                "records": len(self._records),
                "dropped": self._dropped,
                "with_truth": truth,
                "classes": len(self._stats),
                "truths": len(self._truths),
            }

    # ------------------------------------------------------------------
    # Snapshot / merge (the obs protocol)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able copy of everything (records up to the bound).

        ``merge`` of snapshots is associative and commutative over the
        aggregates, so per-worker stores folded in any order yield the
        same totals — the property the router's determinism rests on.
        """
        with self._lock:
            return {
                "schema_version": FEEDBACK_SCHEMA_VERSION,
                "records": [r.to_dict() for r in self._records],
                "dropped": self._dropped,
                # Sorted classes, then sorted methods: the order sorting
                # the (class, method) pairs gives.
                "stats": {
                    f"{qc}␟{method}": self._stats[qc][method].to_dict()
                    for qc in sorted(self._stats)
                    for method in sorted(self._stats[qc])
                },
                "truths": {
                    key: _to_wire(value)
                    for key, value in sorted(self._truths.items())
                },
            }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another store's :meth:`snapshot` into this one."""
        if not isinstance(snapshot, Mapping):
            raise FeedbackError(
                f"feedback snapshot must be a mapping, "
                f"got {type(snapshot).__name__}"
            )
        version = snapshot.get("schema_version")
        if version != FEEDBACK_SCHEMA_VERSION:
            raise FeedbackError(
                f"unsupported feedback snapshot schema_version "
                f"{version!r} (this version reads "
                f"{FEEDBACK_SCHEMA_VERSION})"
            )
        records = [
            FeedbackRecord.from_dict(row)
            for row in snapshot.get("records", ())
        ]
        stats: dict[tuple[str, str], MethodStats] = {}
        for key, payload in snapshot.get("stats", {}).items():
            qc, sep, method = key.partition("␟")
            if not sep:
                raise FeedbackError(
                    f"malformed stats key in feedback snapshot: {key!r}"
                )
            stats[(qc, method)] = MethodStats.from_dict(payload)
        with self._lock:
            for key, value in snapshot.get("truths", {}).items():
                self._truths.setdefault(
                    str(key), float(_from_wire_float(value))
                )
            room = self.max_records - len(self._records)
            self._records.extend(records[: max(0, room)])
            self._dropped += int(snapshot.get("dropped", 0)) + max(
                0, len(records) - max(0, room)
            )
            for cell_key, cell in stats.items():
                self._cell(*cell_key).merge(cell)

    @classmethod
    def from_snapshot(
        cls, snapshot: Mapping[str, Any], *, max_records: int = 100_000
    ) -> "FeedbackStore":
        store = cls(max_records=max_records)
        store.merge(snapshot)
        return store

    def __iter__(self) -> Iterator[FeedbackRecord]:
        return iter(self.records())

    def extend(self, records: Iterable[FeedbackRecord]) -> None:
        for record in records:
            self.add(record)
