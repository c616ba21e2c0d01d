"""Summarize a telemetry JSONL file into human-readable tables.

Backs ``python -m repro obs-report``.  The input is whatever a
telemetry session produced (see :mod:`repro.obs.telemetry` for the
record shapes); the output is three plain-text sections:

* **estimator calls** — per-estimator call count and p50/p95/mean wall
  time from ``estimate`` events;
* **accuracy** — per-method relative-error distribution from ``query``
  events;
* **counters / caches / phase timings** — the merged ``summary``
  registry snapshots: raw counters, a per-cache effectiveness table
  (the ``cache.*`` summary cache and ``index_cache.*`` probe-index
  cache: hits, misses, hit rate, evictions, built bytes), and the
  summary-build vs estimate-phase time split.

Deliberately dependency-free (stdlib only) so the reporting path works
anywhere the telemetry file does.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.metrics import merge_snapshots


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
    return ordered[rank]


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value and abs(value) < 0.001:
            return f"{value:.2e}"
        return f"{value:.3f}"
    return str(value)


def _format_table(
    headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str
) -> str:
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def summarize_telemetry(
    records: Iterable[Mapping[str, Any]],
) -> dict[str, Any]:
    """Aggregate raw telemetry records into report-ready structures."""
    latencies: dict[str, list[float]] = {}
    errors: dict[str, list[float]] = {}
    queries = 0
    snapshots: list[Mapping[str, Any]] = []
    for record in records:
        event = record.get("event")
        if event == "estimate":
            latencies.setdefault(record["estimator"], []).append(
                float(record["seconds"])
            )
        elif event == "query":
            queries += 1
            for method, error in (record.get("errors") or {}).items():
                errors.setdefault(method, []).append(float(error))
        elif event == "summary":
            snapshots.append(record.get("metrics", {}))
    return {
        "latencies": {k: sorted(v) for k, v in sorted(latencies.items())},
        "errors": {k: sorted(v) for k, v in sorted(errors.items())},
        "queries": queries,
        "metrics": merge_snapshots(snapshots),
    }


def render_report(records: Iterable[Mapping[str, Any]]) -> str:
    """The full obs-report text for a telemetry record stream."""
    summary = summarize_telemetry(records)
    sections: list[str] = []

    latencies = summary["latencies"]
    if latencies:
        sections.append(
            _format_table(
                ["estimator", "calls", "p50 ms", "p95 ms", "mean ms",
                 "total s"],
                [
                    [
                        name,
                        len(values),
                        _percentile(values, 50) * 1e3,
                        _percentile(values, 95) * 1e3,
                        (sum(values) / len(values)) * 1e3,
                        sum(values),
                    ]
                    for name, values in latencies.items()
                ],
                title="Estimator calls (from per-call telemetry)",
            )
        )

    errors = summary["errors"]
    if errors:
        sections.append(
            _format_table(
                ["method", "queries", "mean err %", "p50 err %",
                 "p95 err %", "max err %"],
                [
                    [
                        method,
                        len(values),
                        sum(values) / len(values),
                        _percentile(values, 50),
                        _percentile(values, 95),
                        values[-1],
                    ]
                    for method, values in errors.items()
                ],
                title=(
                    f"Relative error over {summary['queries']} "
                    "query rows"
                ),
            )
        )

    metrics = summary["metrics"]
    counters = metrics.get("counters", {})
    if counters:
        sections.append(
            _format_table(
                ["counter", "value"],
                sorted(counters.items()),
                title="Counters (merged registry snapshots)",
            )
        )

    cache_rows = []
    kinds = sorted(
        {
            name.rsplit(".", 1)[0]
            for name in counters
            if name.endswith((".hits", ".misses"))
        }
    )
    for kind in kinds:
        hits = int(counters.get(f"{kind}.hits", 0))
        misses = int(counters.get(f"{kind}.misses", 0))
        lookups = hits + misses
        if not lookups:
            continue
        cache_rows.append(
            [
                kind,
                hits,
                misses,
                hits / lookups,
                int(counters.get(f"{kind}.evictions", 0)),
                int(counters.get(f"{kind}.built_nbytes", 0)),
            ]
        )
    if cache_rows:
        sections.append(
            _format_table(
                ["cache", "hits", "misses", "hit rate", "evictions",
                 "built bytes"],
                cache_rows,
                title="Cache effectiveness",
            )
        )

    phase_rows = []
    for name, data in sorted(metrics.get("histograms", {}).items()):
        if not name.startswith("phase."):
            continue
        count = int(data["count"])
        total = float(data["sum"])
        phase_rows.append(
            [name, count, total, (total / count * 1e3) if count else 0.0]
        )
    if phase_rows:
        sections.append(
            _format_table(
                ["phase", "count", "total s", "mean ms"],
                phase_rows,
                title="Phase timings",
            )
        )

    if not sections:
        return "no telemetry records found"
    return "\n\n".join(sections)
