"""Estimation service: a deadline-aware serving front-end.

The package's estimators answer one call at a time; this subsystem
serves them the way an optimizer consumes them — many requests, from
one or several client threads, repeated configurations, per-request
latency budgets — in the callers' own threads.  See
:class:`EstimationService` for the mechanism inventory (micro-batching,
result memoization, deadlines with graceful degradation, load shedding,
circuit breaking); ``perfbench/`` measures it on the ``plan`` and
``serve`` workloads.
"""

from repro.service import wire
from repro.service.degrade import DegradationLadder
from repro.service.engine import CircuitBreaker, EstimationService
from repro.service.queue import RequestQueue
from repro.service.request import (
    LADDER,
    EstimateRequest,
    EstimateResponse,
    ServiceFuture,
)

__all__ = [
    "LADDER",
    "CircuitBreaker",
    "DegradationLadder",
    "EstimateRequest",
    "EstimateResponse",
    "EstimationService",
    "RequestQueue",
    "ServiceFuture",
    "wire",
]
