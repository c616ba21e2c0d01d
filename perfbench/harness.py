"""Timed and traced runs of one workload, and the record each writes.

A **timed run** (``--trace 0``) sets the workload up
:data:`SETUPS_BEFORE` times, runs the warm-up, then runs operations
closed-loop until ``seconds`` have passed and at least :data:`MIN_OPS`
operations were measured, checks the answers, and sets the workload up
:data:`SETUPS_AFTER` more times.  Tracing is off.

The host a run shares changes speed for seconds to minutes at a time,
so every timed figure is scaled to a reference host speed
(:mod:`perfbench.speed`): each set-up by the reference kernel's time
around it, and the operations block by block, with a calibration
between blocks of :data:`BLOCK_S` seconds.  ``setup_s`` is the median
scaled set-up; ``op_p50_ms`` and ``op_p99_ms`` come from the scaled
latencies of all measured operations, and ``ops_per_s`` is operations
over their scaled busy time.  The record keeps the unscaled figures
beside them.

A **traced run** (``--trace 1``) runs a fixed number of operations on
two fresh services, interleaved over :data:`TRACE_CHUNKS` chunks: one
twin untraced, the other inside :func:`repro.obs.observe` with every
bench-side call wrapped in a span.  The fixed count makes every work
count repeat exactly for a seed; the median per-chunk ratio of the
twins' operation time, minus 1, is ``obs.trace_overhead_frac``.

Both runs check the program's answers after the measured loop and
produce a self-describing record (:func:`_record`).
"""

from __future__ import annotations

import copy
import gc
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs

from perfbench import speed
from perfbench.churn import ChurnWorkload
from perfbench.core import (
    END_TO_END,
    LAYER_METRICS,
    TraceContext,
    Workload,
    environment,
    peak_rss_mb,
    percentile,
)
from perfbench.plan import PlanWorkload
from perfbench.serve import ServeWorkload

WORKLOADS: dict[str, type[Workload]] = {
    "plan": PlanWorkload,
    "serve": ServeWorkload,
    "churn": ChurnWorkload,
}

RECORD_SCHEMA = "perfbench-record/2"
#: Set-ups before the measured loop and after it.
SETUPS_BEFORE = 3
SETUPS_AFTER = 2
#: Measured operations a timed run needs, so that its p99 has at least
#: ten beyond it.
MIN_OPS = 1100
#: Seconds of operations between two calibrations of the host's speed.
BLOCK_S = 0.25
#: A timed run may overrun ``seconds`` this many times to reach MIN_OPS.
MAX_STRETCH = 6
#: Spans a traced run may hold; reaching it is an error, not a drop.
MAX_SPANS = 2_000_000
#: Chunks a traced run interleaves its untraced and traced twins over.
TRACE_CHUNKS = 20


@dataclass
class RunResult:
    """One run: the contract's four fields plus the full record."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, Any]]
    record: dict[str, Any]


class _Runner:
    """Runs operations, counting the ones that raise."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.raised = 0

    def op(self, index: int) -> tuple[float, float]:
        start = time.perf_counter()
        try:
            return self.workload.run_op(index)
        except Exception:
            self.raised += 1
            if self.raised <= 3:
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - start
            return elapsed, elapsed


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def _set_up(name: str, seed: int) -> tuple[Workload, float, float]:
    """A workload ready to run, and the seconds its set-up took:
    measured, and scaled to the reference speed."""
    workload = WORKLOADS[name](seed)
    before = speed.calibrate()
    start = time.perf_counter()
    workload.build_data()
    workload.start()
    took = time.perf_counter() - start
    return workload, took, took * speed.scale(before, speed.calibrate())


def _figures(
    setup_s: list[float], latencies: np.ndarray, busy: np.ndarray
) -> dict[str, float]:
    """``setup_s``, ``op_p50_ms``, ``op_p99_ms`` and ``ops_per_s``."""
    return {
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p99_ms": percentile(latencies, 99) * 1e3,
        "ops_per_s": len(latencies) / float(busy.sum()),
    }


def timed_run(name: str, seed: int, seconds: int) -> RunResult:
    """Measure one workload end to end with tracing off."""
    setup_s, scaled_setup_s = [], []
    for repeat in range(SETUPS_BEFORE):
        if repeat:
            workload.stop()
            # Freed, reference cycles too, before the next set-up builds,
            # so the peak memory is one set-up's whatever the collector's
            # timing.
            del workload
            gc.collect()
        workload, took, scaled = _set_up(name, seed)
        setup_s.append(took)
        scaled_setup_s.append(scaled)

    runner = _Runner(workload)
    for index in range(workload.warmup_ops):
        runner.op(index)
    warmup_raised = runner.raised
    workload.begin_measurement()
    # Compact, so that the run's memory barely grows with its operations.
    latencies, busy = array("d"), array("d")
    block_ends: list[int] = []
    block_scales: list[float] = []
    index = workload.warmup_ops
    calibration = speed.calibrate()
    began = time.perf_counter()
    while True:
        block_began = time.perf_counter()
        while time.perf_counter() - block_began < BLOCK_S:
            latency, busy_s = runner.op(index)
            latencies.append(latency)
            busy.append(busy_s)
            index += 1
        after = speed.calibrate()
        block_ends.append(len(latencies))
        block_scales.append(speed.scale(calibration, after))
        calibration = after
        elapsed = time.perf_counter() - began
        if elapsed >= seconds * MAX_STRETCH or (
            elapsed >= seconds and len(latencies) >= MIN_OPS
        ):
            break
    peak_mb = peak_rss_mb()  # before the checks allocate anything
    config = workload.describe()
    checks_start = time.perf_counter()
    checks = workload.checks()
    checks_s = time.perf_counter() - checks_start
    workload.stop()
    checks[f"{name}.no_op_raised"] = runner.raised == 0
    failed = workload.failed + runner.raised - warmup_raised
    extras = {
        key: _metric(value, unit)
        for key, (value, unit) in workload.extra_metrics().items()
    }
    del workload, runner
    for _ in range(SETUPS_AFTER):
        workload, took, scaled = _set_up(name, seed)
        workload.stop()
        del workload
        setup_s.append(took)
        scaled_setup_s.append(scaled)

    attempted = len(latencies)
    scales = np.repeat(block_scales, np.diff(block_ends, prepend=0))
    raw_latencies = np.frombuffer(latencies)
    raw_busy = np.frombuffer(busy)
    scaled = _figures(
        scaled_setup_s, raw_latencies * scales, raw_busy * scales
    )
    metrics = {
        key: _metric(value, END_TO_END[key]) for key, value in scaled.items()
    }
    metrics["peak_rss_mb"] = _metric(peak_mb, "MB")
    assert list(metrics) == list(END_TO_END)
    record = _record(
        name,
        seed,
        config,
        trace=False,
        run={
            "seconds": seconds,
            "setups_before": SETUPS_BEFORE,
            "setups_after": SETUPS_AFTER,
            "min_ops": MIN_OPS,
            "block_s": BLOCK_S,
            "reference_s": speed.REFERENCE_S,
            "calibration_runs": speed.RUNS,
            "warmup_ops": WORKLOADS[name].warmup_ops,
        },
        attempted=attempted,
        failed=failed,
        checks=checks,
        metrics={
            **metrics,
            "error_frac": _metric(failed / attempted, "frac"),
            **extras,
        },
    )
    # The same figures as measured, before scaling to the reference speed.
    record["unscaled"] = _figures(setup_s, raw_latencies, raw_busy)
    record["setup_s_samples"] = setup_s
    record["block_scales"] = {
        "blocks": len(block_scales),
        "min": min(block_scales),
        "median": statistics.median(block_scales),
        "max": max(block_scales),
    }
    record["checks_s"] = checks_s
    return RunResult(all(checks.values()), attempted, failed, metrics, record)


def traced_run(
    name: str,
    seed: int,
    seconds: int,
    *,
    spans_path: str | None = None,
) -> RunResult:
    """Measure one workload layer by layer from a fixed operation count."""
    workload = WORKLOADS[name](seed)
    workload.build_data()
    count = workload.trace_ops_per_s * seconds

    # A throwaway warm-up first, so neither measured twin pays the
    # process's one-time costs (lazy imports, first allocations).
    workload.start()
    warmup = _Runner(workload)
    for index in range(workload.warmup_ops):
        warmup.op(index)
    workload.stop()

    # Two twins on fresh services run the same operations chunk by
    # chunk, alternating which goes first, so host drift cancels in the
    # per-chunk ratio; only the traced twin runs under observation.
    traced_twin = copy.copy(workload)
    traced_twin.timings = dict(workload.timings)
    tracer = obs.Tracer(max_spans=MAX_SPANS)
    registry = obs.MetricsRegistry()
    trace = TraceContext(tracer)
    workload.start()
    traced_twin.start(trace)
    plain, traced = _Runner(workload), _Runner(traced_twin)

    def run_plain(lo: int, hi: int) -> float:
        return sum(plain.op(index)[1] for index in range(lo, hi))

    def run_traced(lo: int, hi: int) -> float:
        seconds_in_ops = 0.0
        with obs.observe(registry=registry, tracer=tracer):
            for index in range(lo, hi):
                trace.op = index
                seconds_in_ops += traced.op(index)[1]
        return seconds_in_ops

    ratios = []
    cuts = [count * i // TRACE_CHUNKS for i in range(TRACE_CHUNKS + 1)]
    for chunk, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if chunk % 2:
            traced_s, plain_s = run_traced(lo, hi), run_plain(lo, hi)
        else:
            plain_s, traced_s = run_plain(lo, hi), run_traced(lo, hi)
        if plain_s > 0:
            ratios.append(traced_s / plain_s)
    workload.stop()

    spans = tracer.finished
    if len(spans) >= MAX_SPANS:
        raise RuntimeError(f"traced run filled its {MAX_SPANS}-span buffer")
    layers = traced_twin.layer_metrics(registry, spans)
    layers["obs.trace_overhead_frac"] = statistics.median(ratios) - 1.0
    assert set(layers) == set(LAYER_METRICS)
    workload = traced_twin
    config = workload.describe()
    checks = workload.checks()
    workload.stop()
    checks[f"{name}.no_op_raised"] = traced.raised == plain.raised == 0

    if spans_path is not None:
        with obs.TelemetrySink(spans_path) as sink:
            for span in spans:
                sink.emit(span.to_record())

    failed = workload.failed + traced.raised
    metrics = {
        key: _metric(layers[key], unit) for key, unit in LAYER_METRICS.items()
    }
    record = _record(
        name,
        seed,
        config,
        trace=True,
        run={"ops": count},
        attempted=count,
        failed=failed,
        checks=checks,
        metrics=metrics,
    )
    record["not_exercised"] = workload.not_exercised
    return RunResult(all(checks.values()), count, failed, metrics, record)


def _record(
    name: str,
    seed: int,
    config: dict[str, Any],
    *,
    trace: bool,
    run: dict[str, Any],
    attempted: int,
    failed: int,
    checks: dict[str, bool],
    metrics: dict[str, dict[str, Any]],
) -> dict[str, Any]:
    """A self-describing record: what ran, on what, and what it measured.

    ``config`` holds everything two comparable runs must share; the seed
    sits beside it because a claim should hold across seeds.
    """
    return {
        "schema": RECORD_SCHEMA,
        "workload": name,
        "seed": seed,
        "config": {
            **config,
            "trace": trace,
            "run": run,
            "environment": environment(),
        },
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
