"""Shared benchmark fixtures.

Every benchmark regenerates one table or figure of the paper on the
full-scale (Table 2-calibrated) datasets and writes the reproduced
rows/series to ``results/<name>.txt`` (also echoed to stdout — run with
``pytest benchmarks/ --benchmark-only -s`` to watch).  The plan-regret
sweep and the router regret run keep their own fixed scale of 0.05.
Every file is deterministic, so a rerun must leave ``results/``
unchanged.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — dataset scale factor (default 1.0).
* ``REPRO_BENCH_RUNS``  — repetitions for sampling methods (default 5).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.data import get_dataset

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "5"))

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_runs() -> int:
    return BENCH_RUNS


@pytest.fixture(scope="session")
def xmark_full():
    return get_dataset("xmark", scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def dblp_full():
    return get_dataset("dblp", scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def xmach_full():
    return get_dataset("xmach", scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def report():
    """Write a reproduction report to results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n===== {name} (saved to {path}) =====")
        print(text)

    return write
