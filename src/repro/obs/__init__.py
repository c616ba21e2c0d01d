"""Observability: metrics, tracing and telemetry for the estimation paths.

The paper's pitch is *cheap, predictable* estimation for a cost-based
optimizer; this subsystem makes both halves of that claim observable
per call instead of per sweep:

* :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Histogram` /
  :class:`Timer` primitives in a thread-safe :class:`MetricsRegistry`
  with a snapshot/merge protocol (``obs-report`` folds the summaries
  of a telemetry file with it);
* :mod:`repro.obs.trace` — a span-based :class:`Tracer` with a
  context-manager API;
* :mod:`repro.obs.telemetry` — a JSONL :class:`TelemetrySink` plus
  :func:`read_telemetry`;
* :mod:`repro.obs.runtime` — the ambient state: :func:`observe`
  enables instrumentation for a block and installs the registry /
  tracer / sink; :func:`enabled` is the one-branch hot-path guard;
* :mod:`repro.obs.report` — :func:`render_report` turns a telemetry
  file into per-estimator latency and error tables (the
  ``python -m repro obs-report`` command).

Instrumented call sites (all no-ops while :func:`enabled` is False):
every :meth:`Estimator.estimate` call (wall time, ``mre``, sample and
bucket counts — via the base-class hook), the PL/PH summary-build vs
estimate-phase split, :class:`repro.perf.SummaryCache` hits / misses /
evictions / bytes, and the experiment harness's per-query rows.

Quickstart::

    from repro import obs

    with obs.observe(sink=obs.TelemetrySink("telemetry.jsonl")) as reg:
        rows = evaluate(dataset, queries, methods)
        obs.emit_summary()
    print(reg.counters()["estimator.PL.calls"])
"""

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    Timer,
    merge_snapshots,
)
from repro.obs.report import render_report, summarize_telemetry
from repro.obs.runtime import (
    emit,
    emit_summary,
    enabled,
    get_registry,
    get_sink,
    get_tracer,
    observe,
    phase_timer,
    record_cache,
    record_estimate,
    record_query,
)
from repro.obs.telemetry import (
    TelemetrySink,
    iter_telemetry,
    memory_sink,
    read_telemetry,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TelemetrySink",
    "Timer",
    "Tracer",
    "emit",
    "emit_summary",
    "enabled",
    "get_registry",
    "get_sink",
    "get_tracer",
    "iter_telemetry",
    "memory_sink",
    "merge_snapshots",
    "observe",
    "phase_timer",
    "record_cache",
    "record_estimate",
    "record_query",
    "read_telemetry",
    "render_report",
    "summarize_telemetry",
]
