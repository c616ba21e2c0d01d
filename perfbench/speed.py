"""The host-speed reference every timed figure is scaled by.

The shared host a run lands on changes speed by up to ~1.7x, in states
that last from seconds to minutes, and the program's time changes with
it; no run is long enough to see past a slow state.  A timed run
therefore times a fixed reference kernel, bench-side code that never
calls the program, around each stretch it measures: before and after
each set-up and between short blocks of operations.  Each measured
stretch is scaled by ``REFERENCE_S`` over the kernel's median time
around it, so the figures read as if the host always ran the kernel in
exactly ``REFERENCE_S``.  A change to the program moves its operations'
time and not the kernel's, so it shows in full.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Sequence

import numpy as np

#: The kernel's time at the reference speed every figure is scaled to.
REFERENCE_S = 1e-3
#: Kernel runs per calibration.
RUNS = 5

_RNG = np.random.default_rng(20030609)
_FLOATS = _RNG.random(4096)
_SORTED = np.sort(_RNG.integers(0, 1 << 30, 8192))
_PROBES = _RNG.integers(0, 1 << 30, 2048)
_DOCUMENT = json.dumps(
    {
        "request_id": "r1",
        "method": "IM",
        "config": {"num_samples": 100, "seed": 7},
        "starts": list(range(0, 400, 3)),
        "ends": list(range(2, 402, 3)),
    }
)


def reference_kernel() -> int:
    """A fixed mix of the kinds of work the program does: JSON decoding,
    dict and list handling in the interpreter, numpy sorting and
    searching."""
    for _ in range(4):
        document = json.loads(_DOCUMENT)
    counts: dict[int, int] = {}
    for i in range(1500):
        key = i % 61
        counts[key] = counts.get(key, 0) + i * 3
    ordered = sorted(counts.values())
    floats = _FLOATS.copy()
    floats.sort()
    ranks = np.searchsorted(_SORTED, _PROBES)
    np.cumsum(ranks)
    np.unique(ranks % 1000)
    return ordered[0] + len(document)


def calibrate() -> list[float]:
    """Seconds each of :data:`RUNS` runs of the reference kernel took."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(before: Sequence[float], after: Sequence[float]) -> float:
    """The factor that turns seconds measured between two calibrations
    into seconds at the reference speed."""
    return REFERENCE_S / statistics.median([*before, *after])
