"""Fail unless a regenerated BENCH report reproduces the committed one.

Usage::

    cp BENCH_router.json baseline.json      # before the bench run
    python benchmarks/bench_runner.py --only-router ...
    python benchmarks/check_reproduced.py baseline.json BENCH_router.json

The deterministic bench reports (router, optimizer) must match apart
from ``elapsed_s``: dict keys and list lengths exactly, integers,
strings and booleans exactly, floats to 1e-9 relative.  Prints each
difference by its JSON path and exits 1, or prints ``<new> reproduced``
and exits 0.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Iterator


def diff(base: Any, new: Any, path: str = "$") -> Iterator[str]:
    """Yield one line per difference between ``base`` and ``new``."""
    if isinstance(base, dict) and isinstance(new, dict):
        if base.keys() != new.keys():
            yield f"{path}: keys {sorted(base.keys() ^ new.keys())}"
            return
        for key in base:
            if key != "elapsed_s":
                yield from diff(base[key], new[key], f"{path}.{key}")
    elif isinstance(base, list) and isinstance(new, list):
        if len(base) != len(new):
            yield f"{path}: {len(base)} items -> {len(new)}"
            return
        for index, pair in enumerate(zip(base, new)):
            yield from diff(*pair, f"{path}[{index}]")
    elif type(base) is float and type(new) is float:
        if not math.isclose(base, new, rel_tol=1e-9):
            yield f"{path}: {base!r} -> {new!r}"
    elif type(base) is not type(new) or base != new:
        yield f"{path}: {base!r} -> {new!r}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for name in argv:
        with open(name) as handle:
            reports.append(json.load(handle))
    problems = list(diff(*reports))
    print("\n".join(problems) or f"{argv[1]} reproduced")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
