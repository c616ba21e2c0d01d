"""The estimation service engine: batching, dedup, deadlines, breaker.

:class:`EstimationService` is a front-end over the package's
estimators, built for the optimizer-facing serving shape the paper
assumes (Section 6: estimation happens *per candidate plan*, so one
optimization pass asks for the same few joins many times under slightly
different configurations).  It runs in its callers' threads: a caller
waiting on a request executes queued micro-batches itself
(caller-runs).  It layers four mechanisms over the bulk execution paths:

**Micro-batching.**  Callers draw coalesced batches from the
:class:`~repro.service.queue.RequestQueue` — compatible sampling
requests execute as one
:meth:`~repro.estimators.sampling_base.SamplingEstimator.estimate_across`
kernel pass, amortizing index construction and probe dispatch.

**One dedup table.**  A *seeded* request pins its RNG stream, making
its estimate a pure function of (operand fingerprints, method, config);
deterministic methods (PL, PH, COV, WAVELET) are pure functions
outright.  Each such key is either in flight (one lead, its duplicates
riding on it as followers) or memoized in a content-keyed LRU, never
neither.  Unseeded stochastic requests are never memoized — they owe
the caller fresh randomness.

**Deadlines with graceful degradation.**  A request's relative deadline
is checked when it is scheduled: already past due, breaker open, or
predicted (EWMA) latency exceeding the remaining budget all route the
request down the :class:`~repro.service.degrade.DegradationLadder`
instead of erroring.  A running kernel cannot be interrupted, so a
full-fidelity run that finishes late is still returned — flagged
``deadline_missed`` — and counts against the method's breaker.

**Load shedding and circuit breaking.**  A full queue sheds the request
inline (bottom ladder rung, status ``"shed"``) rather than queueing
unboundedly; a method that keeps failing or missing deadlines trips its
:class:`CircuitBreaker`, short-circuiting further full-fidelity
attempts to the ladder until a cool-off probe succeeds.  A bursting
single caller (``map``) admits through
:meth:`~repro.service.queue.RequestQueue.put_many` and drains inline
when the queue fills, so its own burst coalesces into full micro-batches
instead of being shed against itself.

``submit`` (a burst of one) and ``map`` share one admission pass, and
every response, hit or computed, is built by the same ``_resolve``.
Every decision increments ``service.*`` metrics in the service's own
always-on registry, which :meth:`EstimationService.stats` reads.
"""

from __future__ import annotations

import numbers
import threading
import time
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import ServiceError, StreamError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.base import Estimate, Estimator
from repro.estimators.registry import make_estimator
from repro.estimators.sampling_base import SamplingEstimator
from repro.feedback.correction import CorrectionModel
from repro.feedback.store import (
    FeedbackStore,
    featurize,
    query_class,
    record_feedback,
)
from repro.router.base import BOUND_METHOD, Router
from repro.router.registry import resolve_router
from repro.obs.metrics import MetricsRegistry
from repro.perf.cache import SummaryCache, use_cache
from repro.perf.index_cache import IndexCache, use_index_cache
from repro.service.degrade import DegradationLadder
from repro.service.queue import RequestQueue
from repro.service.request import (
    LADDER,
    EstimateRequest,
    EstimateResponse,
    Resolution,
    ServiceFuture,
)


#: The ladder level of the bound arm's inline answer.
_BOUND_LEVEL = LADDER.index("bound")


def _request_burst(requests: Any) -> list[EstimateRequest]:
    """``requests`` as a list, or :class:`ServiceError` if it is not an
    iterable of :class:`EstimateRequest`."""
    try:
        burst = list(requests)
    except TypeError as error:
        raise ServiceError(
            f"map() takes an iterable of EstimateRequest, got "
            f"{type(requests).__name__}"
        ) from error
    for request in burst:
        if not isinstance(request, EstimateRequest):
            raise ServiceError(
                f"map() takes EstimateRequest objects, got "
                f"{type(request).__name__}"
            )
    return burst


class _ResultMemo(SummaryCache):
    """Content-keyed LRU of finished estimates (``service_memo.*``)."""

    metric_kind = "service_memo"

    def _value_nbytes(self, value: Any) -> int:
        # An Estimate is a value + name + a small details dict; a flat
        # per-entry estimate keeps the hot insert path O(1).
        return 512


class CircuitBreaker:
    """Per-method failure tracker with EWMA latency prediction.

    States: *closed* (normal), *open* (too many consecutive failures —
    full-fidelity attempts are skipped until ``cooloff_s`` elapses),
    *half-open* (cool-off expired; exactly one probe request runs, its
    outcome closing or re-opening the breaker).

    A "failure" is an estimator exception or a missed deadline.  The
    EWMA of observed latencies doubles as the admission predictor: a
    deadline-carrying request whose remaining budget is below the
    predicted latency degrades immediately instead of starting work it
    cannot finish in time.

    ``clock`` is the monotonic time source; tests inject a fake to
    drive the open/half-open transitions without real sleeps.
    """

    __slots__ = (
        "threshold",
        "cooloff_s",
        "alpha",
        "_lock",
        "_consecutive",
        "_opened_at",
        "_half_open_probe",
        "ewma_s",
        "_clock",
    )

    def __init__(
        self,
        threshold: int = 5,
        cooloff_s: float = 1.0,
        alpha: float = 0.3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.threshold = threshold
        self.cooloff_s = cooloff_s
        self.alpha = alpha
        self._clock = clock
        self._lock = threading.Lock()
        self._consecutive = 0
        self._opened_at: float | None = None
        self._half_open_probe = False
        self.ewma_s: float | None = None

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self.cooloff_s:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """May a full-fidelity attempt run right now?

        In the half-open state only the first caller gets True (the
        probe); everyone else stays on the ladder until the probe
        reports back.
        """
        with self._lock:
            if self._opened_at is None:
                return True
            if self._clock() - self._opened_at < self.cooloff_s:
                return False
            if self._half_open_probe:
                return False
            self._half_open_probe = True
            return True

    def predicted_latency(self) -> float | None:
        return self.ewma_s

    def record(self, latency_s: float, ok: bool) -> None:
        with self._lock:
            self.ewma_s = (
                latency_s
                if self.ewma_s is None
                else self.alpha * latency_s
                + (1.0 - self.alpha) * self.ewma_s
            )
            self._half_open_probe = False
            if ok:
                self._consecutive = 0
                self._opened_at = None
            else:
                self._consecutive += 1
                if self._consecutive >= self.threshold:
                    self._opened_at = self._clock()


class EstimationService:
    """Micro-batching front-end over the estimator registry.

    Any number of client threads may share one service; each runs the
    queued work its own requests wait on.

    Args:
        workers: must be 0 (3.0.0 removed the worker pool).
        max_batch: cap on requests coalesced into one kernel pass.
        queue_size: admission bound; a full queue sheds (the request is
            still answered — inline, from the bottom ladder rung).
        catalog: optional :class:`~repro.catalog.StatisticsCatalog`
            enabling the ladder's plan-time ``catalog`` rung.
        summary_cache: shared summary cache installed ambiently around
            every execution (histogram methods reuse built summaries
            across requests); defaults to a fresh one.
        index_cache: shared probe-index cache for the sampling methods;
            defaults to a fresh one.
        memoize: answer repeat seeded/deterministic requests from a
            content-keyed result cache (see
            :meth:`~repro.service.request.EstimateRequest.result_key`).
        memo_size: entries kept in that result cache.
        breaker_threshold / breaker_cooloff_s: consecutive failures that
            trip a method's :class:`CircuitBreaker`, and how long it
            stays open.
        estimator_factory: hook constructing estimators from
            ``(method, **config)``; the default is
            :func:`repro.estimators.registry.make_estimator`.  Tests
            inject faulty or slow estimators here.
        router: optional :class:`~repro.router.Router` (or a name
            :func:`~repro.router.resolve_router` accepts) choosing the
            answering method per query class.  Off by default: with no
            router the service answers exactly the method requested,
            preserving every bit-identity guarantee.  Routed responses
            disclose the chosen arm in ``routed_method``.
        feedback: optional :class:`~repro.feedback.FeedbackStore`
            recording every response (query class, method, estimate,
            latency, degradation reason; truth when known).  ``True``
            creates a fresh store; a router with no explicit store gets
            one automatically (it needs the history).  Exposed as
            ``service.feedback``.
        correction: optional fitted
            :class:`~repro.feedback.CorrectionModel` applied as a
            post-multiplier to full-fidelity ("ok", ladder level 0)
            answers.  Off by default; unfitted classes multiply by
            exactly 1.0, so estimates stay bit-identical.
        live: optional :class:`~repro.stream.LiveWorkspace` (or a
            multi-tenant :class:`~repro.stream.CatalogStore`) serving
            continuously mutating operands.  String operands to
            :meth:`submit`/:meth:`estimate` are then tag names,
            snapshotted atomically at submit; responses disclose
            ``staleness_s`` and ``applied_seq``, and a per-request
            ``max_staleness_s`` degrades violating requests down the
            ladder with reason ``"stale"``.  The workspace's writes
            invalidate this service's summary/index caches under the
            mutated fingerprints only (co-tenant entries survive).

    The service is a context manager — ``with EstimationService() as
    svc: ...`` shuts it down on exit.  After :meth:`close`, submissions
    raise :class:`~repro.core.errors.ServiceError`, as does a
    malformed argument at construction.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        max_batch: int = 16,
        queue_size: int = 1024,
        catalog: Any = None,
        summary_cache: SummaryCache | None = None,
        index_cache: IndexCache | None = None,
        memoize: bool = True,
        memo_size: int = 4096,
        breaker_threshold: int = 5,
        breaker_cooloff_s: float = 1.0,
        estimator_factory: Callable[..., Estimator] | None = None,
        router: Router | str | None = None,
        feedback: FeedbackStore | bool | None = None,
        correction: CorrectionModel | None = None,
        live: Any = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers != 0:
            raise ServiceError(
                f"workers must be 0: the service runs in its callers' "
                f"threads (3.0.0 removed the worker pool), got {workers!r}"
            )
        for name, value in (
            ("max_batch", max_batch),
            ("queue_size", queue_size),
            ("memo_size", memo_size),
        ):
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ServiceError(f"{name} must be an int >= 1: {value!r}")
        self._clock = clock
        self._router: Router | None = (
            resolve_router(router) if router is not None else None
        )
        if feedback is True or (feedback is None and self._router):
            feedback = FeedbackStore()
        elif feedback is False:
            feedback = None
        elif not isinstance(feedback, (FeedbackStore, type(None))):
            raise ServiceError(
                f"feedback must be a FeedbackStore, True, False or None, "
                f"got {type(feedback).__name__}"
            )
        self.feedback: FeedbackStore | None = feedback
        self._correction = correction
        self.max_batch = max_batch
        self.summary_cache = (
            summary_cache if summary_cache is not None else SummaryCache()
        )
        self.index_cache = (
            index_cache if index_cache is not None else IndexCache()
        )
        self._memo = _ResultMemo(maxsize=memo_size) if memoize else None
        self.live = live
        if live is not None:
            # Bump-on-write invalidation flows into this service's
            # caches: the workspace (or every tenant of the store)
            # drops its pre-mutation fingerprints from them on apply.
            live.attach_caches(self.summary_cache, self.index_cache)
        self._queue = RequestQueue(maxsize=queue_size)
        self._ladder = DegradationLadder(catalog=catalog)
        self._factory = (
            estimator_factory
            if estimator_factory is not None
            else make_estimator
        )
        self._breaker_threshold = breaker_threshold
        self._breaker_cooloff_s = breaker_cooloff_s
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self.metrics = MetricsRegistry()
        # Resolution signalling is one service-wide condition (futures
        # are resolved exactly once, waiters are rare) and the hot-path
        # metric handles are bound once — per-request recording is then
        # attribute calls, not name lookups.
        self._resolution = Resolution()
        self._m_responses = self.metrics.counter("service.responses")
        self._m_wait = self.metrics.histogram("service.wait_s")
        self._m_latency = self.metrics.histogram("service.latency_s")
        self._m_deadline_miss = self.metrics.counter(
            "service.deadline_miss"
        )
        # The one dedup table: result key -> its in-flight lead.  The
        # lock also covers the memo's lookups at admission and a lead's
        # memoize-and-leave, so a key is either in flight or memoized.
        self._inflight: dict[Any, ServiceFuture] = {}
        self._inflight_lock = threading.Lock()
        self._m_memo_hits = self.metrics.counter("service.memo_hits")
        self._m_inflight_hits = self.metrics.counter(
            "service.inflight_hits"
        )
        self._m_submitted = self.metrics.counter("service.submitted")
        self._m_batches = self.metrics.counter("service.batches")
        self._m_coalesced = self.metrics.counter("service.coalesced")
        self._m_routed = self.metrics.counter("service.routed")
        self._m_staleness = self.metrics.histogram("service.staleness_s")
        self._m_staleness_violations = self.metrics.counter(
            "service.staleness_violations"
        )
        self._m_batch_size = self.metrics.histogram("service.batch_size")
        self._closed = False
        self._m_wire_requests = self.metrics.counter(
            "service.wire_requests"
        )
        self._m_wire_encode = self.metrics.histogram(
            "service.wire_encode_s"
        )
        self._m_wire_decode = self.metrics.histogram(
            "service.wire_decode_s"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop admitting and answer whatever is still queued.

        Requests still queued at close are drained and answered from
        the bottom ladder rung (status ``"shed"``) so no future is left
        unresolved.  The caches attached to ``live`` at construction are
        detached, so later writes no longer invalidate into them.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.close()
        for future in self._queue.drain():
            self._degrade(future, "shutdown")
        if self.live is not None:
            self.live.detach_caches(self.summary_cache, self.index_cache)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        ancestors: NodeSet | str | None = None,
        descendants: NodeSet | str | None = None,
        method: str = "PL",
        *,
        request: EstimateRequest | None = None,
        workspace: Workspace | None = None,
        deadline_s: float | None = None,
        max_staleness_s: float | None = None,
        tenant: str | None = None,
        request_id: str | None = None,
        **config: Any,
    ) -> ServiceFuture:
        """Submit one request; returns immediately with a future.

        Either pass a prebuilt :class:`EstimateRequest` via ``request=``
        or the same arguments :func:`repro.api.estimate` takes plus an
        optional ``deadline_s``.  Validation (operand types, method
        resolution) happens here, in the calling thread.

        With a live workspace (``EstimationService(live=...)``), string
        operands name live tags: both are snapshotted atomically off
        the workspace — ``tenant=`` selects the store tenant — and the
        response disclosed ``staleness_s``/``applied_seq``.  A request
        whose snapshot ages past ``max_staleness_s`` before executing
        degrades with reason ``"stale"``.
        """
        if request is not None and not isinstance(request, EstimateRequest):
            raise ServiceError(
                f"request= takes an EstimateRequest, got "
                f"{type(request).__name__}"
            )
        live = snapshot_seq = None
        if request is None and (
            isinstance(ancestors, str)
            or isinstance(descendants, str)
            or tenant is not None
        ):
            live, ancestors, descendants, snapshot_seq = (
                self._snapshot_live(
                    ancestors, descendants, tenant, max_staleness_s
                )
            )
        if request is None:
            request = EstimateRequest(
                ancestors=ancestors,
                descendants=descendants,
                method=method,
                workspace=workspace,
                config=config,
                deadline_s=deadline_s,
                max_staleness_s=max_staleness_s,
                request_id=request_id,
            )
        (future,), pending = self._admit((request,), live, snapshot_seq)
        if pending:
            if not self._queue.put(future):
                self._count("service.shed")
                self._degrade(future, "overload")
            else:
                self._m_submitted.inc()
        return future

    def _snapshot_live(
        self,
        ancestors: NodeSet | str | None,
        descendants: NodeSet | str | None,
        tenant: str | None,
        max_staleness_s: float | None,
    ) -> tuple[Any, NodeSet, NodeSet, int]:
        """Resolve tag-name operands off the live workspace.

        Catches the workspace up first when its backlog already exceeds
        the request's bound (a non-blocking attempt: a concurrent writer
        holding the apply lock leaves the backlog for the scheduling-
        time staleness check), then snapshots every string operand at
        one ``applied_seq``.  A rejected batch is the writer's error,
        not this reader's: ``apply_pending`` has already undone, skipped
        and counted it, so the read keeps catching up past it.
        """
        live = self._live_workspace(tenant)
        if (
            max_staleness_s is not None
            and live.staleness_s(self._clock()) > max_staleness_s
        ):
            while True:
                try:
                    live.catch_up(blocking=False)
                except StreamError:
                    continue
                break
        names = [
            operand
            for operand in (ancestors, descendants)
            if isinstance(operand, str)
        ]
        sets, seq = live.snapshot(*names)
        resolved = iter(sets)
        if isinstance(ancestors, str):
            ancestors = next(resolved)
        if isinstance(descendants, str):
            descendants = next(resolved)
        live.estimates_served += 1
        return live, ancestors, descendants, seq

    def _live_workspace(self, tenant: str | None) -> Any:
        """The live workspace serving ``tenant`` (or the only one)."""
        live = self.live
        if live is None:
            raise ServiceError(
                "string operands need a live workspace: construct the "
                "service with live=LiveWorkspace(...) or a CatalogStore"
            )
        if hasattr(live, "tenants"):  # CatalogStore
            if tenant is None:
                tenants = live.tenants()
                if len(tenants) != 1:
                    raise ServiceError(
                        f"tenant= is required with a multi-tenant "
                        f"store; known tenants: {tenants}"
                    )
                tenant = tenants[0]
            return live.get(tenant)
        if tenant is not None and tenant != live.tenant:
            raise ServiceError(
                f"unknown tenant {tenant!r}: this service serves "
                f"{live.tenant!r}"
            )
        return live

    def _admit(
        self,
        requests: Iterable[EstimateRequest],
        live: Any = None,
        snapshot_seq: int | None = None,
    ) -> tuple[list[ServiceFuture], list[ServiceFuture]]:
        """Admit a burst of requests in one pass.

        Returns every request's future, in order, and the futures that
        still need queueing.  The burst checks for a closed service and
        reads the clock once; each request is routed on its own.  In
        one critical section every key is looked up in the memo, and
        each miss becomes a lead in the in-flight table or a follower
        of an identical request already in flight.  The memo hits are
        then answered at once, without touching the queue.  Every key
        is derived before any lead registers, so a burst that raises
        leaves nothing behind.
        """
        if self._closed:
            raise ServiceError("service is closed")
        now = self._clock()
        router = self._router
        futures: list[ServiceFuture] = []
        for request in requests:
            routed_method: str | None = None
            routed_from: str | None = None
            if router is not None:
                arm, arm_config = router.route(request, self.feedback)
                routed_method = arm
                routed_from = request.method
                self._m_routed.inc()
                self._count(f"service.routed.{arm}")
                if arm != BOUND_METHOD and (
                    arm != request.method or arm_config != request.config
                ):
                    # Rebuild (rather than mutate) so validation reruns
                    # and the future derives its memo key from the
                    # routed form.
                    request = EstimateRequest(
                        ancestors=request.ancestors,
                        descendants=request.descendants,
                        method=arm,
                        workspace=request.workspace,
                        config=arm_config,
                        deadline_s=request.deadline_s,
                        max_staleness_s=request.max_staleness_s,
                        request_id=request.request_id,
                    )
            future = ServiceFuture(
                request, now, self._resolution, self.help_drain
            )
            future.routed_method = routed_method
            future.routed_from = routed_from
            future.live = live
            future.snapshot_seq = snapshot_seq
            futures.append(future)
            if routed_method == BOUND_METHOD:
                # The bound arm never queues: the ladder's bottom rung is
                # one cached O(|A|) scan, answered in the calling thread
                # (status "ok", no reason, batch of 1, answered now).
                self._resolve(
                    future,
                    DegradationLadder._from_bound(request),
                    "ok", _BOUND_LEVEL, None, 1, now, now,
                )
        memo = self._memo
        if memo is None:
            return futures, [f for f in futures if not f.done()]
        keyed = [
            future
            for future in futures
            if future.result_key is not None and not future.done()
        ]
        hits: list[tuple[ServiceFuture, Estimate]] = []
        pending: list[ServiceFuture] = []
        followed = 0
        inflight = self._inflight
        with self._inflight_lock:
            cached = iter(
                memo.peek_many([f.result_key for f in keyed]) if keyed else ()
            )
            for future in futures:
                if future.done():
                    continue
                key = future.result_key
                if key is None:
                    pending.append(future)
                    continue
                estimate = next(cached)
                if estimate is not None:
                    hits.append((future, estimate))
                    continue
                lead = inflight.get(key)
                if lead is not None:
                    # Ride on the identical request already in flight:
                    # the duplicate never enters the queue; the lead
                    # resolves it.
                    lead.followers.append(future)
                    followed += 1
                    continue
                inflight[key] = future
                future.followers = []
                pending.append(future)
        for future, estimate in hits:
            # The hot path, so positional: status "ok", ladder level 0,
            # no reason, batch of 1, started and answered now.
            self._resolve(future, estimate, "ok", 0, None, 1, now, now)
        if hits:
            self._m_memo_hits.inc(len(hits))
        if followed:
            self._m_inflight_hits.inc(followed)
        return futures, pending

    def estimate(
        self,
        ancestors: NodeSet | str,
        descendants: NodeSet | str,
        method: str = "PL",
        *,
        workspace: Workspace | None = None,
        deadline_s: float | None = None,
        max_staleness_s: float | None = None,
        tenant: str | None = None,
        timeout: float | None = None,
        **config: Any,
    ) -> EstimateResponse:
        """Synchronous convenience: submit and wait for the response."""
        return self.submit(
            ancestors,
            descendants,
            method,
            workspace=workspace,
            deadline_s=deadline_s,
            max_staleness_s=max_staleness_s,
            tenant=tenant,
            **config,
        ).result(timeout)

    def estimate_wire(
        self, payload: bytes, *, timeout: float | None = None
    ) -> bytes:
        """Serve one serialized request; returns the serialized response.

        Accepts either wire format — binary (sniffed by magic bytes,
        operand arrays decoded zero-copy) or the JSON compatibility
        form — and answers in the format the request arrived in.
        Decode and encode time are metered separately from estimation
        (``service.wire_decode_s`` / ``service.wire_encode_s`` in
        :meth:`stats`), so wire overhead never hides inside service
        latency.
        """
        from repro.service import wire

        start = time.perf_counter()
        request, wire_format = wire.decode_request(payload)
        self._m_wire_decode.observe(time.perf_counter() - start)
        self._m_wire_requests.inc()
        self._count(f"service.wire_{wire_format}")
        response = self.submit(request=request).result(timeout)
        start = time.perf_counter()
        encoded = wire.encode_response(response, wire_format)
        self._m_wire_encode.observe(time.perf_counter() - start)
        return encoded

    def cardinality_generator(
        self,
        method: str = "PL",
        *,
        deadline_s: float | None = None,
        **config: Any,
    ) -> "Any":
        """A planner-facing generator backed by this service.

        Returns a :class:`~repro.optimizer.generator.ServiceGenerator`
        whose pair estimates are service requests — memoized,
        micro-batched, and (with ``deadline_s``) degradation-guarded, so
        an optimization pass never stalls on a slow estimator.  Each
        planning pass sends its chain's pair requests as one :meth:`map`
        burst, so a chain costs one service call and its memo hits are
        answered in one pass.  Pass the result to
        :func:`repro.api.optimize`::

            with repro.serve(catalog=catalog) as service:
                generator = service.cardinality_generator(
                    "IM", deadline_s=0.05, num_samples=100, seed=7,
                )
                plan = repro.optimize(sets, generator, workspace=ws)

        Args:
            method: estimator name for the pair requests.
            deadline_s: per-request deadline, counted from the admission
                of the chain's burst, so it bounds the whole chain; None
                = full fidelity.
            **config: estimator configuration sent with each request.
        """
        from repro.optimizer.generator import ServiceGenerator

        return ServiceGenerator(
            self, method, deadline_s=deadline_s, **config
        )

    def map(
        self,
        requests: Iterable[EstimateRequest],
        timeout: float | None = None,
    ) -> list[EstimateResponse]:
        """Submit many requests, wait for all, preserve order.

        The burst is admitted in one pass: one clock reading for every
        request, one dedup lookup under one lock, and the memo hits
        answered at once, without queueing.  Every request of the burst
        therefore counts its deadline from that one reading.  The rest
        enters the queue through ``put_many`` — bulk admission
        under one queue lock, so compatible requests are fully bucketed
        before the first batch is drawn and coalesce into real
        micro-batches.  When the burst exceeds the queue bound, the
        caller drains a batch inline and admits the remainder instead
        of shedding its own requests against itself; shedding remains
        the contract for *competing* callers under genuine overload.

        The calling thread never sleeps while its requests are queued:
        each ``result`` executes queued micro-batches until its own
        request is answered (caller-runs), so a burst runs without a
        thread handoff.

        A ``requests`` that is not an iterable of
        :class:`EstimateRequest` raises :class:`ServiceError` before any
        request is admitted.
        """
        requests = _request_burst(requests)
        if self._router is None:
            futures, pending = self._admit(requests)
        else:
            # A router reads the feedback that answers given at admission
            # record (memo hits, the bound arm), so a routed burst admits
            # its requests one at a time, each after the one before was
            # answered.
            futures, pending = [], []
            for request in requests:
                admitted, queued = self._admit((request,))
                futures += admitted
                pending += queued
        offset = 0
        while offset < len(pending):
            admitted = self._queue.put_many(pending[offset:])
            if admitted:
                self._m_submitted.inc(admitted)
                offset += admitted
            if offset >= len(pending):
                break
            # Queue full (or closed): make room by draining one batch
            # in this thread before admitting the rest.
            if not self._drain_one() and self._queue.closed:
                for future in pending[offset:]:
                    self._count("service.shed")
                    self._degrade(future, "shutdown")
                break
            # else: other callers drained what was queued; re-admit the
            # remainder.
        return [future.result(timeout) for future in futures]

    def help_drain(self, futures: Sequence[ServiceFuture]) -> None:
        """Execute queued micro-batches in the calling thread until
        every future in ``futures`` is resolved or the queue is empty.

        Work-conserving, not selective: the caller takes whatever batch
        is oldest, its own requests or another client's.  A future still
        unresolved on return is held by another caller's thread (its
        batch, or the lead it follows, is running there).
        :meth:`ServiceFuture.result` calls this before it waits.
        """
        for future in futures:
            while not future.done():
                if not self._drain_one():
                    return

    def _drain_one(self) -> bool:
        """Execute the oldest queued micro-batch in this thread; False
        when the queue is empty.  An error escaping the batch fails its
        unanswered requests and their followers, leaving none in flight.
        """
        batch = self._queue.take_batch(self.max_batch)
        if not batch:
            return False
        try:
            with use_cache(self.summary_cache), use_index_cache(
                self.index_cache
            ):
                self._execute_batch(batch)
        except BaseException as error:
            for future in batch:
                for follower in self._settle(future):
                    follower.fail(error)
                if not future.done():
                    future.fail(error)
            raise
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Queue depth, counters, latency percentiles, breaker states."""
        counters = self.metrics.counters()
        # Per-method, per-reason degradation breakdown: the flat
        # ``service.degraded_by.<method>.<reason>`` counters, unfolded
        # into a nested mapping (router reward accounting and obs-report
        # both want it this shape; method and reason names contain no
        # dots).
        degraded_by: dict[str, dict[str, int]] = {}
        prefix = "service.degraded_by."
        for name, value in counters.items():
            if name.startswith(prefix):
                method, _, reason = name[len(prefix):].partition(".")
                degraded_by.setdefault(method, {})[reason] = value
        with self._breakers_lock:
            breakers = {
                name: {
                    "state": breaker.state,
                    "ewma_s": breaker.ewma_s,
                }
                for name, breaker in self._breakers.items()
            }
        return {
            "queue_depth": len(self._queue),
            "closed": self._closed,
            "counters": counters,
            "degraded_by": degraded_by,
            "latency_p50_s": self._m_latency.percentile(50.0),
            "latency_p99_s": self._m_latency.percentile(99.0),
            "wait_p99_s": self._m_wait.percentile(99.0),
            "mean_batch_size": self._m_batch_size.mean,
            # Wire codec time, reported apart from estimation latency:
            # encode and decode are metered around the codec calls only.
            "wire": {
                "requests": self._m_wire_requests.value,
                "decode_mean_s": self._m_wire_decode.mean,
                "decode_p99_s": self._m_wire_decode.percentile(99.0),
                "encode_mean_s": self._m_wire_encode.mean,
                "encode_p99_s": self._m_wire_encode.percentile(99.0),
            },
            "breakers": breakers,
            "router": (
                self._router.describe()
                if self._router is not None
                else None
            ),
            "feedback": (
                self.feedback.stats()
                if self.feedback is not None
                else None
            ),
            "memo": (
                self._memo.stats() if self._memo is not None else None
            ),
            "summary_cache": self.summary_cache.stats(),
            "index_cache": self.index_cache.stats(),
            "staleness_p99_s": self._m_staleness.percentile(99.0),
            "staleness_violations": self._m_staleness_violations.value,
            "live": self.live.stats() if self.live is not None else None,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute_batch(self, batch: list[ServiceFuture]) -> None:
        started_at = self._clock()
        size = len(batch)
        self._m_batches.inc()
        self._m_batch_size.observe(float(size))
        if size > 1:
            self._m_coalesced.inc(size - 1)
        breaker = self._breaker(batch[0].request.method)
        runnable: list[ServiceFuture] = []
        for future in batch:
            reason = self._degrade_reason(future, breaker, started_at)
            if reason is None:
                runnable.append(future)
            else:
                self._degrade(future, reason, started_at, size)
        if runnable:
            self._run(runnable, breaker, started_at, size)

    def _run(
        self,
        futures: list[ServiceFuture],
        breaker: CircuitBreaker,
        started_at: float,
        batch_size: int,
    ) -> None:
        """Run full-fidelity requests, batched through ``estimate_across``
        when their estimators are compatible, sequentially otherwise."""
        try:
            estimators = [
                self._factory(f.request.method, **f.request.config)
                for f in futures
            ]
        except Exception:
            for future in futures:
                self._count("service.estimator_errors")
                self._degrade(future, "error", started_at, batch_size)
            breaker.record(self._clock() - started_at, ok=False)
            return

        run_start = self._clock()
        results: list[Estimate] | None = None
        if len(futures) > 1 and SamplingEstimator.batchable(estimators):
            request0 = futures[0].request
            try:
                results = SamplingEstimator.estimate_across(
                    estimators,
                    request0.ancestors,
                    request0.descendants,
                    request0.workspace,
                )
            except Exception:
                results = None  # fall through to sequential
        if results is not None:
            per_request = (self._clock() - run_start) / len(futures)
            for future, estimate in zip(futures, results):
                self._finish_ok(future, estimate, started_at, batch_size)
            breaker.record(
                per_request, ok=not self._missed(futures[0], self._clock())
            )
            return

        for future, estimator in zip(futures, estimators):
            request = future.request
            one_start = self._clock()
            try:
                estimate = estimator.estimate(
                    request.ancestors,
                    request.descendants,
                    request.workspace,
                )
            except Exception:
                self._count("service.estimator_errors")
                self._degrade(future, "error", started_at, batch_size)
                breaker.record(self._clock() - one_start, ok=False)
                continue
            elapsed = self._clock() - one_start
            self._finish_ok(future, estimate, started_at, batch_size)
            breaker.record(
                elapsed, ok=not self._missed(future, self._clock())
            )

    def _finish_ok(
        self,
        future: ServiceFuture,
        estimate: Estimate,
        started_at: float,
        batch_size: int,
    ) -> None:
        """Answer a lead that ran at full fidelity, and its followers."""
        now = self._clock()
        followers = self._settle(future, estimate)
        for done in (future, *followers):
            self._resolve(
                done, estimate, "ok", 0, None, batch_size, started_at, now
            )

    # ------------------------------------------------------------------
    # Degradation / resolution plumbing
    # ------------------------------------------------------------------

    def _degrade_reason(
        self,
        future: ServiceFuture,
        breaker: CircuitBreaker,
        now: float,
    ) -> str | None:
        """Why this request should skip full fidelity (None = run it)."""
        if (
            future.live is not None
            and future.request.max_staleness_s is not None
            and future.live.staleness_of(future.snapshot_seq, now)
            > future.request.max_staleness_s
        ):
            # The operands were snapshotted at submit; mutations that
            # landed while the request queued cannot retroactively
            # enter the snapshot, so a too-old snapshot degrades
            # honestly instead of serving data the caller ruled out.
            return "stale"
        if future.deadline_at is None:
            return None
        if now >= future.deadline_at:
            return "deadline"
        if not breaker.allow():
            return "breaker"
        predicted = breaker.predicted_latency()
        if predicted is not None and predicted > future.deadline_at - now:
            return "predicted"
        return None

    @staticmethod
    def _missed(future: ServiceFuture, now: float) -> bool:
        return future.deadline_at is not None and now > future.deadline_at

    def _degrade(
        self,
        future: ServiceFuture,
        reason: str,
        started_at: float | None = None,
        batch_size: int = 1,
    ) -> None:
        """Answer ``future`` from the ladder: status ``"degraded"`` for a
        request its batch started, ``"shed"`` for one that never ran
        (no ``started_at``).

        An estimator error would recur for an identical request, so the
        followers of a lead that degrades with reason ``"error"`` share
        its answer.  Any other reason is the lead's own (its deadline,
        an overload instant); its followers may allow more, so the
        first one takes over the in-flight entry and is queued, before
        the lead resolves and wakes its waiters, the rest riding on it.
        One the queue refuses is shed and hands on in turn.
        """
        while True:
            if reason == "error":
                answered, successor = (future, *self._settle(future)), None
            else:
                answered, successor = (future,), self._hand_over(future)
            queued = successor is not None and self._queue.put(successor)
            now = self._clock()
            for done in answered:
                estimate, level = self._ladder.degrade(done.request)
                self._count("service.degraded")
                self._count(f"service.degraded.{reason}")
                self._count(
                    f"service.degraded_by.{done.request.method}.{reason}"
                )
                self._resolve(
                    done,
                    estimate,
                    "shed" if started_at is None else "degraded",
                    level,
                    reason,
                    batch_size,
                    now if started_at is None else started_at,
                    now,
                )
            if successor is None or queued:
                return
            self._count("service.shed")
            future, started_at, batch_size = successor, None, 1

    def _resolve(
        self,
        future: ServiceFuture,
        estimate: Estimate,
        status: str,
        ladder_level: int,
        degraded_reason: str | None,
        batch_size: int,
        started_at: float,
        now: float,
    ) -> None:
        """Answer ``future``: every response passes here.

        ``now`` is the caller's clock reading at resolution; a burst
        answered at admission passes the one reading it took.  The
        response missed its deadline when ``now`` is past it.
        """
        deadline_at = future.deadline_at
        deadline_missed = deadline_at is not None and now > deadline_at
        enqueued_at = future.enqueued_at
        wait_s = started_at - enqueued_at if started_at > enqueued_at else 0.0
        service_s = now - enqueued_at if now > enqueued_at else 0.0
        request = future.request
        staleness_s: float | None = None
        applied_seq: int | None = None
        if future.live is not None:
            # Disclose the snapshot's staleness at response time: the
            # age of the oldest mutation it had not seen.  An "ok"
            # answer past the caller's bound (mutations landed after
            # the scheduling check) counts as a contract violation.
            applied_seq = future.snapshot_seq
            staleness_s = future.live.staleness_of(
                future.snapshot_seq, now
            )
            self._m_staleness.observe(staleness_s)
            if (
                status == "ok"
                and request.max_staleness_s is not None
                and staleness_s > request.max_staleness_s
            ):
                self._m_staleness_violations.inc()
        if self.feedback is not None:
            # Record the *raw* estimate: the correction model trains on
            # uncorrected values, so corrected answers must not feed
            # back into their own training signal.
            record_feedback(
                request.ancestors,
                request.descendants,
                future.routed_method or request.method,
                estimate.value,
                latency_s=service_s,
                status=status,
                degraded_reason=degraded_reason,
                request_id=request.request_id,
                store=self.feedback,
            )
        if (
            self._correction is not None
            and status == "ok"
            and future.routed_method != BOUND_METHOD
        ):
            qc = query_class(request.ancestors, request.descendants)
            corrected = self._correction.correct(
                estimate.value,
                qc,
                featurize(request.ancestors, request.descendants),
                method=future.routed_method or request.method,
            )
            if corrected != estimate.value:
                self._count("service.corrected")
                estimate = Estimate(
                    corrected,
                    estimate.estimator,
                    mre=estimate.mre,
                    details={
                        **estimate.details,
                        "corrected_from": estimate.value,
                        "correction_class": qc,
                    },
                )
        self._m_responses.inc()
        self._m_wait.observe(wait_s)
        self._m_latency.observe(service_s)
        if deadline_missed:
            self._m_deadline_miss.inc()
        future.resolve(
            EstimateResponse(
                estimate,
                status,
                ladder_level,
                LADDER[ladder_level],
                deadline_missed,
                degraded_reason,
                wait_s,
                service_s,
                batch_size,
                request.request_id,
                future.routed_method,
                staleness_s,
                applied_seq,
            )
        )

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------

    def _settle(
        self, lead: ServiceFuture, estimate: Estimate | None = None
    ) -> list[ServiceFuture]:
        """Take a settling lead out of the in-flight table and return
        its followers; a future that never led has none.

        With ``estimate`` the lead memoizes it in the same critical
        section, so an identical request always follows or hits.
        """
        followers = lead.followers
        if followers is None:
            return []
        with self._inflight_lock:
            if estimate is not None:
                self._memo.put(lead.result_key, estimate)
            lead.followers = None
            del self._inflight[lead.result_key]
        return followers

    def _hand_over(self, lead: ServiceFuture) -> ServiceFuture | None:
        """Pass a degraded lead's in-flight entry to its first follower,
        the rest riding on it; None when nobody followed."""
        followers = lead.followers
        if followers is None:
            return None
        with self._inflight_lock:
            lead.followers = None
            if not followers:
                del self._inflight[lead.result_key]
                return None
            successor = followers[0]
            successor.followers = followers[1:]
            self._inflight[lead.result_key] = successor
        return successor

    def _breaker(self, method: str) -> CircuitBreaker:
        with self._breakers_lock:
            breaker = self._breakers.get(method)
            if breaker is None:
                breaker = self._breakers[method] = CircuitBreaker(
                    threshold=self._breaker_threshold,
                    cooloff_s=self._breaker_cooloff_s,
                    clock=self._clock,
                )
            return breaker

    def _count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)
