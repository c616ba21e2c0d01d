"""The ambient observation state: one flag, one registry, one tracer.

Instrumentation call sites throughout the package are guarded by
:func:`enabled`, which reads a single module-level boolean — the
disabled path costs one attribute load and one branch, nothing else.
:func:`observe` enables observation for a ``with`` block, installing the
metrics registry, tracer and (optionally) telemetry sink that the
instrumented code should use; the process-global defaults are restored
on exit, so tests can swap everything without touching each other.

The recording helpers here (:func:`record_estimate`,
:func:`record_cache`, :func:`record_query`) centralize the metric names,
so the estimator base class, the summary cache and the experiment
harness stay one-liner call sites.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterator, TYPE_CHECKING
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry, Timer
from repro.obs.telemetry import TelemetrySink
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.estimators.base import Estimate

_enabled = False
_registry = MetricsRegistry()
_tracer = Tracer()
_sink: TelemetrySink | None = None
_swap_lock = threading.Lock()

#: ``Estimate.details`` keys mirrored into per-estimator counters —
#: sample sizes and summary granularities, the knobs the paper trades
#: against accuracy.
_DETAIL_COUNTERS = ("samples", "num_buckets", "grid_side", "num_coefficients")

# Metric names are dotted f-strings derived from estimator/stage/event
# names; building them on every hot-path call measurably widens the
# instrumentation overhead, so they are memoized here.  The caches only
# ever grow (one entry per estimator name / stage / cache event) and
# dict reads are GIL-atomic, so no locking is needed.
_phase_name_cache: dict[tuple[str, str], str] = {}
_cache_name_cache: dict[tuple[str, str], str] = {}
_estimator_name_cache: dict[str, dict[str, str]] = {}


def _estimator_names(name: str) -> dict[str, str]:
    names = _estimator_name_cache.get(name)
    if names is None:
        names = {
            "calls": f"estimator.{name}.calls",
            "seconds": f"estimator.{name}.seconds",
            "mre": f"estimator.{name}.mre",
        }
        for key in _DETAIL_COUNTERS:
            names[key] = f"estimator.{name}.{key}"
        _estimator_name_cache[name] = names
    return names


def enabled() -> bool:
    """True while instrumentation is active (cheap hot-path guard)."""
    return _enabled


def get_registry() -> MetricsRegistry:
    """The ambient metrics registry (process-global default)."""
    return _registry


def get_tracer() -> Tracer:
    """The ambient tracer (process-global default)."""
    return _tracer


def get_sink() -> TelemetrySink | None:
    """The ambient telemetry sink, if one is installed."""
    return _sink


@contextmanager
def observe(
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    sink: TelemetrySink | None = None,
    enabled: bool = True,
) -> Iterator[MetricsRegistry]:
    """Enable observation for the block, swapping the ambient objects.

    Args:
        registry: registry to record into (default: a fresh one, so the
            block's metrics are isolated).
        tracer: tracer for spans (default: a fresh one).
        sink: telemetry sink for streamed events; None leaves the block
            unsinked (metrics and spans only) — the cheap mode.
        enabled: pass False to force observation *off* for the block,
            even inside an outer ``observe``.

    Yields the installed registry.
    """
    global _enabled, _registry, _tracer, _sink
    new_registry = registry if registry is not None else MetricsRegistry()
    new_tracer = tracer if tracer is not None else Tracer()
    with _swap_lock:
        previous = (_enabled, _registry, _tracer, _sink)
        _enabled = enabled
        _registry = new_registry
        _tracer = new_tracer
        _sink = sink
    try:
        yield new_registry
    finally:
        with _swap_lock:
            _enabled, _registry, _tracer, _sink = previous


# ----------------------------------------------------------------------
# Phase timers
# ----------------------------------------------------------------------


class _NullTimer:
    """Do-nothing context manager returned while observation is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_TIMER = _NullTimer()


def phase_timer(estimator: str, stage: str) -> Timer | _NullTimer:
    """Time one phase of an estimator call.

    ``stage`` is conventionally ``"summary_build"`` (histogram/sample
    construction, amortized away by the summary cache) or
    ``"estimate"`` (the arithmetic over built summaries).  Records into
    ``phase.<estimator>.<stage>.seconds``.
    """
    if not _enabled:
        return _NULL_TIMER
    key = (estimator, stage)
    name = _phase_name_cache.get(key)
    if name is None:
        name = _phase_name_cache[key] = f"phase.{estimator}.{stage}.seconds"
    return Timer(_registry.histogram(name))


# ----------------------------------------------------------------------
# Recording helpers (call sites assume the enabled() guard already ran)
# ----------------------------------------------------------------------


def record_estimate(
    name: str,
    result: "Estimate",
    seconds: float,
    n_ancestors: int,
    n_descendants: int,
) -> None:
    """Record one finished ``Estimator.estimate`` call."""
    registry = _registry
    names = _estimator_names(name)
    registry.counter(names["calls"]).inc()
    registry.histogram(names["seconds"]).observe(seconds)
    details = result.details
    for key in _DETAIL_COUNTERS:
        value = details.get(key)
        if value is not None:
            registry.counter(names[key]).inc(int(value))
    if result.mre is not None and math.isfinite(result.mre):
        registry.histogram(names["mre"]).observe(result.mre)
    sink = _sink
    if sink is not None:
        # The estimate payload is the shared wire schema
        # (Estimate.to_dict) so telemetry and service responses
        # serialize results identically.
        sink.emit(
            {
                "event": "estimate",
                "seconds": seconds,
                "ancestors": n_ancestors,
                "descendants": n_descendants,
                **result.to_dict(),
            }
        )


def record_cache(event: str, amount: int = 1, kind: str = "cache") -> None:
    """Record a cache event (``hits``/``misses``/``evictions``/...).

    ``kind`` prefixes the counter name: the summary cache records under
    ``cache.*``, the probe-index cache under ``index_cache.*``.
    """
    key = (kind, event)
    name = _cache_name_cache.get(key)
    if name is None:
        name = _cache_name_cache[key] = f"{kind}.{event}"
    _registry.counter(name).inc(amount)


def record_query(
    query_id: str,
    true_size: int,
    errors: dict[str, float],
    estimates: dict[str, float],
) -> None:
    """Record one harness query row; streams it when a sink is active."""
    _registry.counter("harness.queries").inc()
    sink = _sink
    if sink is not None:
        sink.emit(
            {
                "event": "query",
                "query": query_id,
                "true_size": true_size,
                "errors": errors,
                "estimates": estimates,
            }
        )


def emit(record: dict[str, Any]) -> None:
    """Stream a free-form record to the ambient sink (if any)."""
    sink = _sink
    if sink is not None:
        sink.emit(record)


def emit_summary() -> None:
    """Stream the ambient registry's snapshot as a ``summary`` record."""
    sink = _sink
    if sink is not None:
        sink.emit({"event": "summary", "metrics": _registry.snapshot()})
