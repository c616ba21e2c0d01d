"""Request and response types for the estimation service.

An :class:`EstimateRequest` is everything one caller wants estimated —
the operands, the method, its configuration, and (optionally) a relative
deadline.  Validation happens *here*, in the submitting thread, so a
malformed request raises a typed error at the call site instead of
poisoning a worker: unknown methods raise
:class:`~repro.core.errors.UnknownEstimatorError`, non-NodeSet operands
raise :class:`~repro.core.errors.InvalidNodeSetError`.

A :class:`ServiceFuture` is the caller's handle: ``result(timeout)``
blocks until the service resolves it (raising
:class:`~repro.core.errors.DeadlineExceededError` if the *wait* times
out — requests that miss their deadline inside the service still resolve,
with a degraded estimate).

An :class:`EstimateResponse` flags exactly what the caller got: the
:class:`~repro.estimators.base.Estimate`, the degradation-ladder level
that produced it, whether the deadline was missed, and queue/execute
timings.  ``to_dict()`` reuses the versioned ``Estimate.to_dict()`` wire
schema, so service replies and telemetry share one format.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import (
    DeadlineExceededError,
    InvalidNodeSetError,
    ServiceError,
)
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.base import Estimate
from repro.estimators.registry import canonical_name

#: Ladder levels, index == level: 0 is the requested estimator at full
#: fidelity, higher levels are progressively cheaper fallbacks.
LADDER = ("requested", "catalog", "bound")

#: Response statuses.  "ok" ran the requested estimator; "degraded" fell
#: down the ladder (deadline pressure, open breaker, or an estimator
#: fault); "shed" never entered the queue (overload) and was answered
#: inline with the model bound.
STATUSES = ("ok", "degraded", "shed")

_request_ids = itertools.count(1)


@dataclass(slots=True)
class EstimateRequest:
    """One estimation request.

    Args:
        ancestors: the ancestor operand ``A``.
        descendants: the descendant operand ``D``.
        method: registry name or alias (resolved and validated eagerly).
        workspace: the position domain; defaults per estimator contract.
        config: estimator constructor arguments (``num_samples=``,
            ``seed=``, ``budget=``, ...), exactly as
            :func:`repro.api.estimate` would forward them.
        deadline_s: relative deadline in seconds, measured from
            submission.  ``None`` means no deadline: the request always
            runs the requested estimator at full fidelity.
        max_staleness_s: bounded-staleness contract for live-workspace
            requests: the answer's data snapshot must not be missing
            mutations older than this many seconds at execution time,
            else the request degrades with reason ``"stale"``.  ``None``
            (the default) accepts any staleness; meaningless (and
            ignored) without a live workspace.
        request_id: caller-supplied correlation id; autogenerated when
            omitted.
    """

    ancestors: NodeSet
    descendants: NodeSet
    method: str = "PL"
    workspace: Workspace | None = None
    config: dict[str, Any] = field(default_factory=dict)
    deadline_s: float | None = None
    max_staleness_s: float | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        for role, operand in (
            ("ancestors", self.ancestors),
            ("descendants", self.descendants),
        ):
            if not isinstance(operand, NodeSet):
                raise InvalidNodeSetError(
                    f"{role} operand must be a NodeSet, "
                    f"got {type(operand).__name__}"
                )
        self.method = canonical_name(self.method)
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServiceError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )
        if self.max_staleness_s is not None and self.max_staleness_s < 0:
            raise ServiceError(
                f"max_staleness_s must be >= 0, got {self.max_staleness_s}"
            )
        if self.request_id is None:
            self.request_id = f"req-{next(_request_ids)}"

    def batch_signature(self) -> tuple[Any, ...]:
        """What must match for two requests to share a micro-batch.

        Operand content (fingerprints), workspace, method, and every
        configuration item *except* ``seed`` — identically configured
        sampling estimators with different seeds batch through
        ``estimate_across`` while each keeps its own RNG stream.
        """
        config = tuple(
            sorted(
                (key, value)
                for key, value in self.config.items()
                if key != "seed"
            )
        )
        signature = (
            self.method,
            self.ancestors.fingerprint,
            self.descendants.fingerprint,
            self.workspace,
            config,
        )
        try:
            hash(signature)
        except TypeError as error:
            raise ServiceError(
                f"request {self.request_id} cannot be queued: its "
                f"workspace or configuration {self.config!r} is "
                f"unhashable ({error})"
            ) from None
        return signature

    def result_key(self) -> tuple[Any, ...] | None:
        """Content key for result memoization, or None when uncacheable.

        A seeded request pins its RNG stream, so its estimate is a pure
        function of (operands, method, full config) — the service may
        answer a repeat from its result cache with a bit-identical value.
        Deterministic estimators (no ``seed`` parameter consumed) are
        always cacheable.  An *unseeded* stochastic request draws fresh
        OS entropy per call and must never be memoized.  A key that
        cannot be hashed is None too: numpy seeds from a sequence, so a
        request with ``seed=[1, 2]`` is valid and is answered unmemoized.
        """
        if self.method in _STOCHASTIC_METHODS and (
            self.config.get("seed") is None
        ):
            return None
        key = (
            self.method,
            self.ancestors.fingerprint,
            self.descendants.fingerprint,
            self.workspace,
            tuple(sorted(self.config.items())),
        )
        try:
            hash(key)
        except TypeError:
            return None
        return key


#: Methods whose estimate depends on an RNG stream; everything else is a
#: pure function of (operands, config).  Kept here rather than derived
#: so the service never misclassifies: an unlisted (new) method is
#: treated as stochastic, the conservative direction.
_DETERMINISTIC_METHODS = frozenset({"PL", "PH", "COV", "WAVELET"})


def _stochastic_methods() -> frozenset[str]:
    from repro.estimators.registry import available_estimators

    return frozenset(available_estimators()) - _DETERMINISTIC_METHODS


_STOCHASTIC_METHODS = _stochastic_methods()


@dataclass(slots=True)
class EstimateResponse:
    """What the service returns for one request.

    Attributes:
        estimate: the result — from the requested estimator
          (``ladder_level == 0``) or a fallback rung.
        status: "ok", "degraded", or "shed" (see :data:`STATUSES`).
        ladder_level: index into :data:`LADDER`.
        ladder_name: the rung's name ("requested"/"catalog"/"bound").
        deadline_missed: the response was produced after the request's
          deadline (degraded-and-on-time responses keep this False).
        degraded_reason: why the ladder was entered (None for level 0):
          "deadline" (already past due when scheduled), "predicted"
          (expected latency exceeded the remaining budget), "breaker"
          (the method's circuit breaker was open), "stale" (a live
          request's snapshot aged past its ``max_staleness_s`` before it
          could execute), "overload" (shed), or "error" (the requested
          estimator raised).
        wait_s / service_s: queue wait and total request residency.
        batch_size: how many requests shared the executing micro-batch.
        request_id: echo of the request's id.
        routed_method: when the service's :class:`~repro.router.Router`
          picked the answering method, the arm it chose (``"BOUND"``
          for the closed-form bound arm); None when routing was off or
          the router kept the requested method — the disclosure half of
          the routing contract.
        staleness_s: for live-workspace requests, the age of the oldest
          mutation the answering snapshot had not seen, measured when
          the response was produced; None for non-live requests — the
          disclosure half of the staleness contract.
        applied_seq: for live-workspace requests, the mutation batch
          sequence number the answering snapshot reflects; None for
          non-live requests.
    """

    estimate: Estimate
    status: str
    ladder_level: int
    ladder_name: str
    deadline_missed: bool
    degraded_reason: str | None
    wait_s: float
    service_s: float
    batch_size: int
    request_id: str
    routed_method: str | None = None
    staleness_s: float | None = None
    applied_seq: int | None = None

    @property
    def degraded(self) -> bool:
        return self.ladder_level > 0

    def to_dict(self) -> dict[str, Any]:
        """JSON wire form; the estimate uses ``Estimate.to_dict()``."""
        return {
            "schema_version": 1,
            "request_id": self.request_id,
            "status": self.status,
            "ladder_level": self.ladder_level,
            "ladder_name": self.ladder_name,
            "deadline_missed": self.deadline_missed,
            "degraded_reason": self.degraded_reason,
            "wait_s": self.wait_s,
            "service_s": self.service_s,
            "batch_size": self.batch_size,
            "routed_method": self.routed_method,
            "staleness_s": self.staleness_s,
            "applied_seq": self.applied_seq,
            "estimate": self.estimate.to_dict(),
        }


class ServiceFuture:
    """A caller-side handle for one submitted request.

    Futures share their service's resolution :class:`threading.Condition`
    instead of owning a per-future event — a request costs two attribute
    writes to resolve, and the blocking path (a caller actually waiting
    in :meth:`result`) pays for synchronization only when it happens.
    """

    __slots__ = (
        "request",
        "_signature",
        "result_key",
        "followers",
        "enqueued_at",
        "deadline_at",
        "routed_method",
        "routed_from",
        "live",
        "snapshot_seq",
        "_cond",
        "_done",
        "_response",
        "_error",
    )

    def __init__(
        self,
        request: EstimateRequest,
        enqueued_at: float,
        cond: threading.Condition | None = None,
    ) -> None:
        self.request = request
        # The memo key is derived once here, in the submitting thread;
        # the batch signature is derived lazily on first use — a request
        # answered from the result memo never needs one.  A request
        # without a key always queues, so its signature is derived (and
        # an unhashable configuration refused) here, before the engine
        # registers anything for it.
        self._signature: tuple[Any, ...] | None = None
        self.result_key = request.result_key()
        if self.result_key is None:
            self._signature = request.batch_signature()
        #: Set by the engine when this future is the in-flight lead for
        #: its result key: duplicates submitted while it runs are
        #: appended here instead of queued, and resolved with its
        #: result.  ``None`` marks a settled (or never-lead) future.
        self.followers: list["ServiceFuture"] | None = None
        #: Routing annotations, set by the engine when a router chose
        #: the answering method: the chosen arm and the method the
        #: caller originally asked for.  None when routing is off.
        self.routed_method: str | None = None
        self.routed_from: str | None = None
        #: Live-workspace annotations, set at submit when the request's
        #: operands were snapshotted off a ``LiveWorkspace``: the
        #: workspace itself and the ``applied_seq`` the snapshot
        #: reflects.  The engine measures the snapshot's staleness
        #: against these when scheduling and resolving.
        self.live = None
        self.snapshot_seq: int | None = None
        self.enqueued_at = enqueued_at
        self.deadline_at = (
            enqueued_at + request.deadline_s
            if request.deadline_s is not None
            else None
        )
        self._cond = cond if cond is not None else threading.Condition()
        self._done = False
        self._response: EstimateResponse | None = None
        self._error: BaseException | None = None

    @property
    def signature(self) -> tuple[Any, ...]:
        """The request's batch signature (computed once, on first use)."""
        sig = self._signature
        if sig is None:
            sig = self._signature = self.request.batch_signature()
        return sig

    def done(self) -> bool:
        return self._done

    def _signal(self) -> None:
        # ``_done`` is written before the waiter count is read; a waiter
        # increments the count under the lock before re-checking
        # ``_done``, so either the waiter sees the resolution or the
        # resolver sees the waiter — never neither.  Futures that nobody
        # is blocked on (the common case under caller-runs) resolve
        # without touching the lock.
        cond = self._cond
        if getattr(cond, "repro_waiting", 0):
            with cond:
                cond.notify_all()

    def resolve(self, response: EstimateResponse) -> None:
        self._response = response
        self._done = True
        self._signal()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True
        self._signal()

    def result(self, timeout: float | None = None) -> EstimateResponse:
        """Block until resolved.

        Raises :class:`DeadlineExceededError` when the *wait* times out
        (the request may still resolve later) and re-raises the
        service-side error for a failed request.
        """
        if not self._done:
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            cond = self._cond
            with cond:
                cond.repro_waiting = getattr(cond, "repro_waiting", 0) + 1
                try:
                    while not self._done:
                        remaining = (
                            deadline - time.monotonic()
                            if deadline is not None
                            else None
                        )
                        if remaining is not None and remaining <= 0:
                            raise DeadlineExceededError(
                                f"no response for "
                                f"{self.request.request_id} "
                                f"within {timeout}s"
                            )
                        cond.wait(remaining)
                finally:
                    cond.repro_waiting -= 1
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response
