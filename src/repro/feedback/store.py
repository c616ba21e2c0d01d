"""The feedback store: what the serving layer learned about its answers.

Every answer the :class:`~repro.service.EstimationService` produces is a
data point — which method ran, what it said, how long it took, and (when
the caller later observes the true size) how wrong it was.  The
:class:`FeedbackStore` keeps it, as

* an append-only (bounded) log of :class:`FeedbackRecord` rows, and
* exact per-``(query class, method)`` aggregates — observation counts,
  error sums, latency sums.

The aggregates are deliberately *order-free* (counts and sums, the same
discipline as :class:`~repro.obs.metrics.MetricsRegistry`): a router
reads the same sums whatever order the records and truths arrived in.
An EWMA latency is also maintained for display (it reacts faster), but
anything a :class:`~repro.router.Router` consumes comes from the
order-free sums.

Truth arrives out of band: :meth:`FeedbackStore.observe_truth` records
the exact join size for an operand pair (keyed by content fingerprints),
back-fills every retained record for that pair, and folds the signed
relative error into the aggregates.  Record-then-truth and
truth-then-record produce identical aggregates.

The store keeps, per pair key, the positions of its retained records
that still lack truth, and a running count of records with truth, so a
back-fill reads only its own pair's records and
:meth:`~FeedbackStore.stats` reads none.  Once the store holds
``max_records`` rows, a further row still folds into the aggregates but
is not retained (no method removes a row, so the store stays full), and
:func:`record_feedback` skips :func:`featurize` for it: the features'
one reader, :meth:`~repro.feedback.CorrectionModel.fit`, sees retained
rows only.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.core.errors import FeedbackError
from repro.core.nodeset import NodeSet, require_node_set

__all__ = [
    "FeedbackRecord",
    "FeedbackStore",
    "MethodStats",
    "query_class",
    "featurize",
    "record_feedback",
]


def _require_real(name: str, value: object) -> None:
    """Raise :class:`FeedbackError` unless ``value`` is a real number."""
    if not isinstance(value, numbers.Real):
        raise FeedbackError(
            f"{name} must be a real number, got {type(value).__name__}"
        )


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
    intercept column.  The two ``average_length`` reductions make this
    the costliest part of recording a fresh operand pair, so
    :func:`record_feedback` calls it only for a row the store keeps.
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
        features: :func:`featurize` vector of the operand pair; ``()``
            on a row :func:`record_feedback` returns after the store
            dropped it.
        exact: the true join size when known, else None.
        latency_s: service-side residency of the request.
        status: response status ("ok"/"degraded").
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


@dataclass(slots=True)
class MethodStats:
    """Order-free aggregates for one ``(query class, method)`` cell.

    Everything the router reads is a count or a sum, so the cell does
    not depend on the order its observations arrived in.
    ``ewma_latency_s`` is display-only (it depends on arrival order by
    construction) and is never consumed by routing.
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


def pair_key(ancestors: NodeSet, descendants: NodeSet) -> str:
    """Content key joining truth observations to feedback records."""
    return f"{ancestors.fingerprint}//{descendants.fingerprint}"


def _with_exact(record: FeedbackRecord, exact: float) -> FeedbackRecord:
    """A copy of ``record`` with its truth filled in, field by field."""
    return FeedbackRecord(
        record.query_class,
        record.method,
        record.estimate,
        record.features,
        exact,
        record.latency_s,
        record.status,
        record.degraded_reason,
        record.pair_key,
        record.request_id,
    )


class FeedbackStore:
    """Thread-safe store of served-estimate feedback.

    Args:
        max_records: retained-record bound.  Aggregates stay exact past
            the bound; overflow records are counted (``dropped``) but not
            retained, so truth arriving later cannot back-fill them.
    """

    def __init__(self, *, max_records: int = 100_000) -> None:
        if not isinstance(max_records, numbers.Integral) or max_records < 0:
            raise FeedbackError(
                f"max_records must be an int >= 0: {max_records!r}"
            )
        self.max_records = max_records
        self._lock = threading.Lock()
        self._records: list[FeedbackRecord] = []
        self._dropped = 0
        self._with_truth = 0
        # pair key -> positions in _records of the retained rows still
        # lacking truth, in arrival order: a back-fill reads only these.
        self._pending: dict[str, list[int]] = {}
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
        The caller's object is never changed.
        """
        if not isinstance(record, FeedbackRecord):
            raise FeedbackError(
                f"expected a FeedbackRecord, got {type(record).__name__}"
            )
        with self._lock:
            if record.exact is None and record.pair_key is not None:
                exact = self._truths.get(record.pair_key)
                if exact is not None:
                    record = _with_exact(record, exact)
            self._fold(record)
        return record

    def _add_new(self, record: FeedbackRecord) -> FeedbackRecord:
        """:meth:`add` for a row no one else holds yet.

        Fills the pair's truth in place, and empties the features of a
        row the store drops, so nothing is copied.
        """
        with self._lock:
            if record.exact is None:
                record.exact = self._truths.get(record.pair_key)
            if self._full():
                record.features = ()
            self._fold(record)
        return record

    def _full(self) -> bool:
        """Whether the store drops the next row.

        No method removes a row, so once this reads True it stays True;
        read without the lock, a False may be stale.
        """
        return len(self._records) >= self.max_records

    def _fold(self, record: FeedbackRecord) -> None:
        """Fold a row into its cell, then retain or drop it (locked)."""
        self._cell(record.query_class, record.method).observe(record)
        if self._full():
            self._dropped += 1
            return
        if record.exact is not None:
            self._with_truth += 1
        elif record.pair_key is not None:
            self._pending.setdefault(record.pair_key, []).append(
                len(self._records)
            )
        self._records.append(record)

    def observe_truth(
        self,
        ancestors: NodeSet,
        descendants: NodeSet,
        exact: float,
    ) -> int:
        """Record the true join size for an operand pair.

        Back-fills every retained truth-less record of the pair (folding
        its error into the aggregates, in arrival order) and remembers
        the truth so future records complete on arrival.  Returns how
        many retained records gained truth.  Costs O(records of this
        pair), not O(retained records).
        """
        require_node_set("ancestors", ancestors)
        require_node_set("descendants", descendants)
        return self.observe_truth_key(pair_key(ancestors, descendants), exact)

    def observe_truth_key(self, key: str, exact: float) -> int:
        """:meth:`observe_truth` by precomputed pair key."""
        _require_real("exact", exact)
        exact = float(exact)
        with self._lock:
            self._truths[key] = exact
            positions = self._pending.pop(key, ())
            records = self._records
            for i in positions:
                updated = records[i] = _with_exact(records[i], exact)
                self._cell(updated.query_class, updated.method).observe_truth(
                    updated.signed_relative_error
                )
            self._with_truth += len(positions)
        return len(positions)

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
            return {
                "records": len(self._records),
                "dropped": self._dropped,
                "with_truth": self._with_truth,
                "classes": len(self._stats),
                "truths": len(self._truths),
            }

    def __iter__(self) -> Iterator[FeedbackRecord]:
        return iter(self.records())

    def extend(self, records: Iterable[FeedbackRecord]) -> None:
        for record in records:
            self.add(record)


def record_feedback(
    ancestors: NodeSet,
    descendants: NodeSet,
    method: str,
    estimate: float,
    *,
    store: FeedbackStore,
    exact: float | None = None,
    latency_s: float = 0.0,
    status: str = "ok",
    degraded_reason: str | None = None,
    request_id: str | None = None,
) -> FeedbackRecord:
    """Record one served estimate into ``store``; returns the stored row.

    Query class, features and pair key come from the operands.  The row
    is built once, with the pair's truth already in it when the store
    knows it.  Features are computed only for a row the store keeps:
    once the store holds ``max_records`` rows, the row still folds into
    the aggregates, but it comes back with ``features=()`` and is not
    retained.  The service calls this once per response, so the
    argument checks are ``isinstance`` tests: an operand that is not a
    :class:`NodeSet` raises :class:`~repro.core.errors.InvalidNodeSetError`,
    and a ``store``, method, estimate or ``exact`` of the wrong type
    raises :class:`FeedbackError`.
    """
    require_node_set("ancestors", ancestors)
    require_node_set("descendants", descendants)
    if not isinstance(store, FeedbackStore):
        raise FeedbackError(
            f"store must be a FeedbackStore, got {type(store).__name__}"
        )
    if not isinstance(method, str):
        raise FeedbackError(
            f"method must be a string, got {type(method).__name__}"
        )
    _require_real("estimate", estimate)
    if exact is not None:
        _require_real("exact", exact)
    return store._add_new(
        FeedbackRecord(
            query_class=query_class(ancestors, descendants),
            method=method,
            estimate=float(estimate),
            # A full store stays full: skip features nothing would read.
            features=(
                () if store._full() else featurize(ancestors, descendants)
            ),
            exact=exact,
            latency_s=latency_s,
            status=status,
            degraded_reason=degraded_reason,
            pair_key=pair_key(ancestors, descendants),
            request_id=request_id,
        )
    )
