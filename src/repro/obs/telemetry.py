"""JSONL telemetry sink and reader.

A :class:`TelemetrySink` serializes one JSON object per line to a file
(or any writable text stream), under a lock so concurrent threads never
interleave partial lines.  Records are free-form dictionaries with an
``"event"`` discriminator; the ones this package emits:

* ``{"event": "estimate", "estimator", "seconds", "value", "mre", ...}``
  — one per instrumented :meth:`Estimator.estimate` call;
* ``{"event": "query", "query", "true_size", "errors", "estimates"}``
  — one per harness query row;
* ``{"event": "span", "name", "seconds", ...}`` — a finished trace span;
* ``{"event": "summary", "metrics": <registry snapshot>}`` — the final
  aggregated registry, written when a telemetry session closes.

Serialization uses Python's JSON flavor (``Infinity``/``NaN`` literals
allowed) because relative errors are legitimately infinite on zero-truth
queries; :func:`read_telemetry` parses them back.
"""

from __future__ import annotations

import io
import json
import threading
from pathlib import Path
from typing import Any, IO, Iterator, Mapping


class TelemetrySink:
    """Append JSON records, one per line, to a path or text stream.

    Args:
        target: a filesystem path (opened for writing, parents created)
            or an already-open writable text stream (not closed by
            :meth:`close` unless owned).
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream: IO[str] = path.open("w", encoding="utf-8")
            self._owns_stream = True
            self.path: Path | None = path
        else:
            self._stream = target
            self._owns_stream = False
            self.path = None
        self._lock = threading.Lock()
        self.emitted = 0
        self._closed = False

    def emit(self, record: Mapping[str, Any]) -> None:
        """Write one record as a JSON line (no-op after close)."""
        line = json.dumps(record, default=str)
        with self._lock:
            if self._closed:
                return
            self._stream.write(line + "\n")
            self.emitted += 1

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._stream.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        where = str(self.path) if self.path else "<stream>"
        return f"TelemetrySink({where}, emitted={self.emitted})"


def iter_telemetry(source: str | Path | IO[str]) -> Iterator[dict[str, Any]]:
    """Yield records from a JSONL telemetry file, skipping blank lines."""
    if isinstance(source, (str, Path)):
        stream: IO[str] = Path(source).open("r", encoding="utf-8")
        owns = True
    else:
        stream = source
        owns = False
    try:
        for line in stream:
            line = line.strip()
            if line:
                yield json.loads(line)
    finally:
        if owns:
            stream.close()


def read_telemetry(source: str | Path | IO[str]) -> list[dict[str, Any]]:
    """All records of a JSONL telemetry file as a list."""
    return list(iter_telemetry(source))


def memory_sink() -> tuple[TelemetrySink, io.StringIO]:
    """A sink writing to an in-memory buffer (handy for tests)."""
    buffer = io.StringIO()
    return TelemetrySink(buffer), buffer
