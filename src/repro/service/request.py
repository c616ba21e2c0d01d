"""Request and response types for the estimation service.

An :class:`EstimateRequest` is everything one caller wants estimated —
the operands, the method, its configuration, and (optionally) a relative
deadline.  Validation happens *here*, in the submitting thread, so a
malformed request raises a typed error at the call site:
:class:`~repro.core.errors.UnknownEstimatorError` for the method,
:class:`~repro.core.errors.InvalidNodeSetError` for an operand, and
:class:`~repro.core.errors.ServiceError` for any other field.

A :class:`ServiceFuture` is the handle ``submit`` returns.  The
service answers a request in the calling thread before it hands the
future out, so ``result()`` returns at once; a request that misses its
deadline inside the service still resolves, with a degraded estimate.

An :class:`EstimateResponse` flags exactly what the caller got: the
:class:`~repro.estimators.base.Estimate`, the degradation-ladder level
that produced it, whether the deadline was missed, and wait/execute
timings.  ``to_dict()`` reuses the versioned ``Estimate.to_dict()`` wire
schema, so service replies and telemetry share one format.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.errors import ServiceError
from repro.core.nodeset import NodeSet, require_node_set
from repro.core.workspace import Workspace
from repro.estimators.base import Estimate
from repro.estimators.registry import canonical_name

#: Ladder levels, index == level: 0 is the requested estimator at full
#: fidelity, higher levels are progressively cheaper fallbacks.
LADDER = ("requested", "catalog", "bound")

#: Response statuses.  "ok" ran the requested estimator; "degraded" fell
#: down the ladder (deadline pressure, open breaker, a stale snapshot,
#: or an estimator fault).
STATUSES = ("ok", "degraded")

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
            admission.  ``None`` means no deadline: the request always
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
        require_node_set("ancestors", self.ancestors)
        require_node_set("descendants", self.descendants)
        self.method = canonical_name(self.method)
        if not isinstance(self.config, dict):
            raise ServiceError(
                f"config must be a dict of estimator arguments, got "
                f"{type(self.config).__name__}"
            )
        # NaN compares false to everything, so it fails both bounds.
        deadline_s = self.deadline_s
        if deadline_s is not None and not (
            isinstance(deadline_s, numbers.Real) and deadline_s > 0
        ):
            raise ServiceError(
                f"deadline_s must be a number > 0, got {deadline_s!r}"
            )
        staleness_s = self.max_staleness_s
        if staleness_s is not None and not (
            isinstance(staleness_s, numbers.Real) and staleness_s >= 0
        ):
            raise ServiceError(
                f"max_staleness_s must be a number >= 0, got {staleness_s!r}"
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
                f"request {self.request_id} cannot be batched: its "
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
        status: "ok" or "degraded" (see :data:`STATUSES`).
        ladder_level: index into :data:`LADDER`.
        ladder_name: the rung's name ("requested"/"catalog"/"bound").
        deadline_missed: the response was produced after the request's
          deadline (degraded-and-on-time responses keep this False).
        degraded_reason: why the ladder was entered (None for level 0):
          "deadline" (already past due when scheduled), "predicted"
          (expected latency exceeded the remaining budget), "breaker"
          (the method's circuit breaker was open), "stale" (a live
          request's snapshot aged past its ``max_staleness_s`` before it
          could execute), or "error" (the requested estimator raised).
        wait_s / service_s: time from admission to the start of the
          request's batch, and to its answer.
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
    """The handle :meth:`~repro.service.EstimationService.submit`
    returns for one request.

    The service answers the request in the calling thread before it
    hands the future out, so :meth:`result` returns at once.
    """

    __slots__ = (
        "request",
        "_signature",
        "result_key",
        "duplicates",
        "enqueued_at",
        "deadline_at",
        "routed_method",
        "live",
        "snapshot_seq",
        "_response",
    )

    def __init__(self, request: EstimateRequest, enqueued_at: float) -> None:
        self.request = request
        # The memo key is derived once here, at admission; the batch
        # signature is derived lazily on first use — a request answered
        # from the result memo never needs one.  A request without a key
        # always runs, so its signature is derived (and an unhashable
        # configuration refused) here, before anything is answered.
        self._signature: tuple[Any, ...] | None = None
        self.result_key = request.result_key()
        if self.result_key is None:
            self._signature = request.batch_signature()
        #: The in-burst duplicates this request answers: requests of the
        #: same burst with its result key, deadline and staleness bound.
        self.duplicates: Sequence["ServiceFuture"] = ()
        #: The arm a router chose for the answering method; None when
        #: routing is off.
        self.routed_method: str | None = None
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
        self._response: EstimateResponse | None = None

    @property
    def signature(self) -> tuple[Any, ...]:
        """The request's batch signature (computed once, on first use)."""
        sig = self._signature
        if sig is None:
            sig = self._signature = self.request.batch_signature()
        return sig

    def done(self) -> bool:
        return self._response is not None

    def resolve(self, response: EstimateResponse) -> None:
        self._response = response

    def result(self, timeout: float | None = None) -> EstimateResponse:
        """The response.  ``timeout`` is accepted and unused: nothing
        waits.  Raises :class:`ServiceError` for a future no service
        answered."""
        response = self._response
        if response is None:
            raise ServiceError(
                f"request {self.request.request_id} was never answered"
            )
        return response
