"""The estimation service engine: workers, batching, deadlines, breaker.

:class:`EstimationService` is a thread-based front-end over the
package's estimators, built for the optimizer-facing serving shape the
paper assumes (Section 6: estimation happens *per candidate plan*, so
one optimization pass asks for the same few joins many times under
slightly different configurations).  It layers four mechanisms over the
existing bulk execution paths:

**Micro-batching.**  Workers draw coalesced batches from the
:class:`~repro.service.queue.RequestQueue` — compatible sampling
requests execute as one
:meth:`~repro.estimators.sampling_base.SamplingEstimator.estimate_across`
kernel pass, amortizing index construction and probe dispatch.

**Result memoization with singleflight.**  A *seeded* request pins its
RNG stream, making its estimate a pure function of (operand
fingerprints, method, config); deterministic methods (PL, PH, COV,
WAVELET) are pure functions outright.  Repeats are answered from a
content-keyed LRU at submission time, and duplicates inside one batch
compute once.  Unseeded stochastic requests are never memoized — they
owe the caller fresh randomness.

**Deadlines with graceful degradation.**  A request's relative deadline
is checked when it is scheduled: already past due, breaker open, or
predicted (EWMA) latency exceeding the remaining budget all route the
request down the :class:`~repro.service.degrade.DegradationLadder`
instead of erroring.  A worker cannot interrupt a running kernel, so a
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

**One-pass admission.**  ``submit`` (a burst of one) and ``map`` share
one admission pass: one clock reading per burst, every memo key looked
up under one cache lock with the hits answered at once, and the misses
registered in the in-flight table under one lock.  Every response, hit
or computed, is built by the same ``_resolve``.

Every decision increments ``service.*`` metrics in the service's own
always-on registry (exposed by :meth:`EstimationService.stats`) and is
mirrored into the ambient :mod:`repro.obs` registry whenever
observation is enabled.
"""

from __future__ import annotations

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
from repro.feedback.runtime import record_feedback
from repro.feedback.store import FeedbackStore, featurize, query_class
from repro.obs import runtime as _obs
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
    ServiceFuture,
)


#: The ladder level of the bound arm's inline answer.
_BOUND_LEVEL = LADDER.index("bound")


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
    """Concurrent micro-batching front-end over the estimator registry.

    Args:
        workers: worker threads draining the request queue.
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

    The service starts its workers on construction and is a context
    manager — ``with EstimationService() as svc: ...`` shuts it down on
    exit.  After :meth:`close`, submissions raise
    :class:`~repro.core.errors.ServiceError`.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
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
        self._clock = clock
        self._router: Router | None = (
            resolve_router(router) if router is not None else None
        )
        if feedback is True or (feedback is None and self._router):
            feedback = FeedbackStore()
        elif feedback is False:
            feedback = None
        self.feedback: FeedbackStore | None = feedback
        self._correction = correction
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
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
        self._resolution = threading.Condition()
        self._m_responses = self.metrics.counter("service.responses")
        self._m_wait = self.metrics.histogram("service.wait_s")
        self._m_latency = self.metrics.histogram("service.latency_s")
        self._m_deadline_miss = self.metrics.counter(
            "service.deadline_miss"
        )
        self._inflight: dict[Any, ServiceFuture] = {}
        self._inflight_lock = threading.Lock()
        self._m_memo_hits = self.metrics.counter("service.memo_hits")
        self._m_inflight_hits = self.metrics.counter(
            "service.inflight_hits"
        )
        self._m_submitted = self.metrics.counter("service.submitted")
        self._m_batches = self.metrics.counter("service.batches")
        self._m_coalesced = self.metrics.counter("service.coalesced")
        self._m_singleflight = self.metrics.counter(
            "service.singleflight_hits"
        )
        self._m_routed = self.metrics.counter("service.routed")
        self._m_staleness = self.metrics.histogram("service.staleness_s")
        self._m_staleness_violations = self.metrics.counter(
            "service.staleness_violations"
        )
        self._m_batch_size = self.metrics.histogram("service.batch_size")
        self._m_queue_depth = self.metrics.histogram(
            "service.queue_depth"
        )
        self._m_run = self.metrics.histogram("service.run_s")
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
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-estimation-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop admitting, finish queued work, join the workers.

        Requests still queued at close are drained and answered from
        the bottom ladder rung (status ``"shed"``) so no future is left
        unresolved.  The caches attached to ``live`` at construction are
        detached, so later writes no longer invalidate into them.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.close()
        for thread in self._workers:
            thread.join(timeout)
        for future in self._queue.drain():
            self._resolve_shed(future, reason="shutdown")
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
                self._resolve_shed(future, reason="overload")
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
        reads the clock once; each request is routed on its own.  Every
        memo key is looked up under one cache lock and the hits are
        answered at once, without touching the queue.  The misses then
        pass the in-flight table under one lock: each becomes a lead,
        or a follower of an identical request already in flight.  Every
        key is derived before any lead registers, so a burst that raises
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
            future = ServiceFuture(request, now, self._resolution)
            future.routed_method = routed_method
            future.routed_from = routed_from
            future.live = live
            future.snapshot_seq = snapshot_seq
            futures.append(future)
            if routed_method == BOUND_METHOD:
                # The bound arm never queues: the ladder's bottom rung is
                # one cached O(|A|) scan, answered in the calling thread.
                self._resolve(
                    future,
                    DegradationLadder._from_bound(request),
                    status="ok",
                    ladder_level=_BOUND_LEVEL,
                    deadline_missed=False,
                    degraded_reason=None,
                    batch_size=1,
                    started_at=now,
                    now=now,
                )
        memo = self._memo
        keyed = (
            [
                future
                for future in futures
                if future.result_key is not None and not future.done()
            ]
            if memo is not None
            else []
        )
        cached = (
            memo.peek_many([f.result_key for f in keyed]) if keyed else ()
        )
        hits = 0
        for future, estimate in zip(keyed, cached):
            if estimate is not None:
                hits += 1
                # The hot path, so positional: status "ok", ladder level
                # 0, on time, no reason, batch of 1, started and
                # answered now.
                self._resolve(
                    future, estimate, "ok", 0, False, None, 1, now, now
                )
        if hits:
            self._m_memo_hits.inc(hits)
        pending: list[ServiceFuture] = []
        followed = 0
        inflight = self._inflight
        with self._inflight_lock:
            for future in futures:
                if future.done():
                    continue
                key = future.result_key if memo is not None else None
                if key is not None:
                    # Piggyback on an identical request already in
                    # flight: the duplicate never enters the queue; the
                    # lead resolves it.
                    lead = inflight.get(key)
                    if lead is not None and lead.followers is not None:
                        lead.followers.append(future)
                        followed += 1
                        continue
                    inflight[key] = future
                    future.followers = []
                pending.append(future)
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
        future = self.submit(
            ancestors,
            descendants,
            method,
            workspace=workspace,
            deadline_s=deadline_s,
            max_staleness_s=max_staleness_s,
            tenant=tenant,
            **config,
        )
        if not self._workers and not future.done():
            self.help_drain((future,))
        return future.result(timeout)

    def estimate_wire(
        self, payload: bytes, *, timeout: float | None = None
    ) -> bytes:
        """Serve one serialized request; returns the serialized response.

        Accepts either wire format — binary (sniffed by magic bytes,
        operand arrays decoded zero-copy) or the JSON compatibility
        form — and answers in the format the request arrived in.
        Decode and encode time are metered separately from estimation
        (``service.wire_decode_s`` / ``service.wire_encode_s`` in
        :meth:`stats`, mirrored into :mod:`repro.obs` when observation
        is on), so wire overhead never hides inside service latency.
        """
        from repro.service import wire

        start = time.perf_counter()
        request, wire_format = wire.decode_request(payload)
        decode_s = time.perf_counter() - start
        self._m_wire_requests.inc()
        self._m_wire_decode.observe(decode_s)
        self._count(f"service.wire_{wire_format}")
        if _obs.enabled():
            _obs.record_service(
                counters={"service.wire_requests": 1},
                histograms={"service.wire_decode_s": decode_s},
            )
        future = self.submit(request=request)
        if not self._workers and not future.done():
            self.help_drain((future,))
        response = future.result(timeout)
        start = time.perf_counter()
        encoded = wire.encode_response(response, wire_format)
        encode_s = time.perf_counter() - start
        self._m_wire_encode.observe(encode_s)
        if _obs.enabled():
            _obs.record_service(
                histograms={"service.wire_encode_s": encode_s}
            )
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

            with repro.serve(catalog=catalog, workers=0) as service:
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
        request, one memo lookup under one lock, and the memo hits
        answered at once, without queueing.  Every request of the burst
        therefore counts its deadline from that one reading.  The rest
        enters the queue through ``put_many`` — bulk admission
        under one queue lock, so compatible requests are fully bucketed
        before the first batch is drawn and coalesce into real
        micro-batches.  When the burst exceeds the queue bound, the
        caller drains a batch inline and admits the remainder instead
        of shedding its own requests against itself; shedding remains
        the contract for *competing* callers under genuine overload.

        The calling thread never sleeps while its requests are queued —
        it helps drain (caller-runs), so a single-client burst executes
        without a thread handoff per micro-batch; the worker pool still
        serves whatever the caller does not pick up.
        """
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
            batch = self._queue.take_batch(self.max_batch, timeout=0.0)
            if batch:
                with use_cache(self.summary_cache), use_index_cache(
                    self.index_cache
                ):
                    self._execute_batch(batch)
            elif self._queue.closed:
                for future in pending[offset:]:
                    self._count("service.shed")
                    self._resolve_shed(future, reason="shutdown")
                break
            # else: workers drained everything we admitted; loop and
            # re-admit the remainder.
        self.help_drain(futures)
        return [f.result(timeout) for f in futures]

    def help_drain(self, futures: Sequence[ServiceFuture]) -> None:
        """Execute queued micro-batches in the calling thread until
        every future in ``futures`` is either resolved or in flight on a
        worker.

        Work-conserving, not selective: the caller takes whatever batch
        is oldest (its own requests or another client's) — batches it
        does not pick up are handled by the worker pool as usual.
        """
        index = 0
        total = len(futures)
        while index < total:
            if futures[index].done():
                index += 1
                continue
            batch = self._queue.take_batch(self.max_batch, timeout=0.0)
            if not batch:
                return
            with use_cache(self.summary_cache), use_index_cache(
                self.index_cache
            ):
                self._execute_batch(batch)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Queue depth, counters, latency percentiles, breaker states."""
        latency = self.metrics.histogram("service.latency_s")
        wait = self.metrics.histogram("service.wait_s")
        batch = self.metrics.histogram("service.batch_size")
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
            "latency_p50_s": latency.percentile(50.0),
            "latency_p99_s": latency.percentile(99.0),
            "wait_p99_s": wait.percentile(99.0),
            "mean_batch_size": batch.mean,
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
    # Worker side
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        queue = self._queue
        while True:
            batch = queue.take_batch(self.max_batch, timeout=0.1)
            if not batch:
                if queue.closed:
                    return
                continue
            try:
                with use_cache(self.summary_cache), use_index_cache(
                    self.index_cache
                ):
                    self._execute_batch(batch)
            except BaseException as error:  # pragma: no cover - backstop
                for future in batch:
                    for follower in self._pop_followers(future):
                        follower.fail(error)
                    if not future.done():
                        future.fail(error)

    def _execute_batch(self, batch: list[ServiceFuture]) -> None:
        started_at = self._clock()
        self._m_batches.inc()
        self._m_batch_size.observe(float(len(batch)))
        self._m_queue_depth.observe(float(len(self._queue)))
        if len(batch) > 1:
            self._m_coalesced.inc(len(batch) - 1)
        if _obs.enabled():
            _obs.record_service(
                counters={"service.batches": 1},
                histograms={"service.batch_size": float(len(batch))},
            )

        breaker = self._breaker(batch[0].request.method)
        runnable: list[ServiceFuture] = []
        for future in batch:
            reason = self._degrade_reason(future, breaker, started_at)
            if reason is not None:
                self._resolve_degraded(
                    future, reason, started_at, len(batch)
                )
            else:
                runnable.append(future)
        if not runnable:
            return

        # Singleflight: duplicates of one memoizable request compute once.
        groups: dict[Any, list[ServiceFuture]] = {}
        distinct: list[ServiceFuture] = []
        for future in runnable:
            key = future.result_key if self._memo is not None else None
            if key is None:
                distinct.append(future)
                continue
            cached = self._memo_get(key)
            if cached is not None:
                self._m_memo_hits.inc()
                now = self._clock()
                for hit in (future, *self._pop_followers(future)):
                    self._resolve(
                        hit,
                        cached,
                        status="ok",
                        ladder_level=0,
                        deadline_missed=self._missed(hit, now),
                        degraded_reason=None,
                        batch_size=len(batch),
                        started_at=started_at,
                        now=now,
                    )
                continue
            group = groups.setdefault(key, [])
            if not group:
                distinct.append(future)
            group.append(future)

        if distinct:
            self._run_distinct(distinct, breaker, started_at, len(batch))

        # A lead that finished ok was memoized by _finish_ok.
        for group in groups.values():
            lead = group[0]
            if lead.done() and lead._response is not None:
                response = lead._response
                now = self._clock()
                for follower in group[1:]:
                    self._m_singleflight.inc()
                    self._resolve(
                        follower,
                        response.estimate,
                        status=response.status,
                        ladder_level=response.ladder_level,
                        deadline_missed=self._missed(follower, now),
                        degraded_reason=response.degraded_reason,
                        batch_size=len(batch),
                        started_at=started_at,
                        now=now,
                    )
            else:  # lead failed terminally; followers degrade
                for follower in group[1:]:
                    self._resolve_degraded(
                        follower, "error", started_at, len(batch)
                    )

    def _run_distinct(
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
                self._resolve_degraded(
                    future, "error", started_at, batch_size
                )
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
            elapsed = self._clock() - run_start
            per_request = elapsed / len(futures)
            for future, estimate in zip(futures, results):
                self._finish_ok(
                    future, estimate, started_at, batch_size, per_request
                )
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
                self._resolve_degraded(
                    future, "error", started_at, batch_size
                )
                breaker.record(self._clock() - one_start, ok=False)
                continue
            elapsed = self._clock() - one_start
            self._finish_ok(
                future, estimate, started_at, batch_size, elapsed
            )
            breaker.record(
                elapsed, ok=not self._missed(future, self._clock())
            )

    def _finish_ok(
        self,
        future: ServiceFuture,
        estimate: Estimate,
        started_at: float,
        batch_size: int,
        run_seconds: float,
    ) -> None:
        now = self._clock()
        missed = self._missed(future, now)
        if self._memo is not None and future.result_key is not None:
            # Memoize *before* detaching followers: a request submitted
            # in the gap either found this future in flight (and rides
            # below) or will hit the memo — never neither.
            self._memo.put(future.result_key, estimate)
        self._m_run.observe(run_seconds)
        self._resolve(
            future,
            estimate,
            status="ok",
            ladder_level=0,
            deadline_missed=missed,
            degraded_reason=None,
            batch_size=batch_size,
            started_at=started_at,
            now=now,
        )
        for follower in self._pop_followers(future):
            self._resolve(
                follower,
                estimate,
                status="ok",
                ladder_level=0,
                deadline_missed=self._missed(follower, now),
                degraded_reason=None,
                batch_size=batch_size,
                started_at=started_at,
                now=now,
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

    def _resolve_degraded(
        self,
        future: ServiceFuture,
        reason: str,
        started_at: float,
        batch_size: int,
    ) -> None:
        estimate, level = self._ladder.degrade(future.request)
        self._count("service.degraded")
        self._count(f"service.degraded.{reason}")
        self._count(
            f"service.degraded_by.{future.request.method}.{reason}"
        )
        now = self._clock()
        self._resolve(
            future,
            estimate,
            status="degraded",
            ladder_level=level,
            deadline_missed=self._missed(future, now),
            degraded_reason=reason,
            batch_size=batch_size,
            started_at=started_at,
            now=now,
        )
        self._requeue_followers(future, reason)

    def _resolve_shed(self, future: ServiceFuture, reason: str) -> None:
        """Answer a request that never entered the queue (or was drained
        at shutdown) inline from the bottom ladder rung."""
        estimate, level = self._ladder.degrade(future.request)
        self._count("service.degraded")
        self._count(f"service.degraded.{reason}")
        self._count(
            f"service.degraded_by.{future.request.method}.{reason}"
        )
        now = self._clock()
        self._resolve(
            future,
            estimate,
            status="shed",
            ladder_level=level,
            deadline_missed=self._missed(future, now),
            degraded_reason=reason,
            batch_size=1,
            started_at=now,
            now=now,
        )
        self._requeue_followers(future, reason)

    def _resolve(
        self,
        future: ServiceFuture,
        estimate: Estimate,
        status: str,
        ladder_level: int,
        deadline_missed: bool,
        degraded_reason: str | None,
        batch_size: int,
        started_at: float,
        now: float,
    ) -> None:
        """Answer ``future``: every response passes here.

        ``now`` is the caller's clock reading at resolution; a burst
        answered at admission passes the one reading it took.
        """
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
        if _obs.enabled():
            _obs.record_service(
                counters={"service.responses": 1},
                histograms={
                    "service.wait_s": wait_s,
                    "service.latency_s": service_s,
                },
            )
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

    def _pop_followers(
        self, future: ServiceFuture
    ) -> tuple[ServiceFuture, ...]:
        """Detach the duplicates riding on ``future`` as it settles.

        Setting ``followers`` to None marks the lead settled: identical
        requests submitted afterwards hit the memo (populated before
        this pop on the ok path) or become a fresh in-flight lead.
        """
        if future.followers is None:
            return ()
        with self._inflight_lock:
            followers = future.followers
            future.followers = None
            if followers is None:
                return ()
            if self._inflight.get(future.result_key) is future:
                del self._inflight[future.result_key]
        return tuple(followers)

    def _requeue_followers(
        self, future: ServiceFuture, reason: str
    ) -> None:
        """Re-submit a settling lead's followers for their own attempt.

        A degraded or shed lead answered from the ladder because of
        *its* deadline (or an overload instant); its followers may have
        looser deadlines — or none — so they get queued on their own
        merits rather than inheriting the degraded answer.  When the
        queue refuses (closed or still full) they are shed with the
        lead's reason.
        """
        for follower in self._pop_followers(future):
            if not self._queue.put(follower):
                self._count("service.shed")
                self._resolve_shed(follower, reason=reason)

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

    def _memo_get(self, key: Any) -> Estimate | None:
        memo = self._memo
        return memo.peek(key) if memo is not None else None

    def _count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)
        if _obs.enabled():
            _obs.record_service(counters={name: amount})

    def _observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)
        if _obs.enabled():
            _obs.record_service(histograms={name: value})
