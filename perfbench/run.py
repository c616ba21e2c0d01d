"""Run one workload of the canonical benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload plan --seed 1 --seconds 25 --trace 0

``--trace 0`` is a timed run: every end-to-end metric, tracing off.
``--trace 1`` is a traced run: every per-layer metric.  The command
prints one line per metric (name, value, unit) and one per correctness
check, writes the run's self-describing record (and, traced, its spans)
under ``.perfbench/``, and prints as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  It
exits 1 when a correctness check fails and 2 when the checkout holds no
``src/repro`` package to measure.  ``--workload all`` runs the three
workloads one after another, each in its own process so that its peak
memory is its own, and exits with the worst of their codes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("plan", "serve", "churn")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOAD_NAMES, "all")
    )
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return max(
            subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                check=False,
            ).returncode
            for name in WORKLOAD_NAMES
        )
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {src}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.harness import timed_run, traced_run

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced_run(
            args.workload,
            args.seed,
            args.seconds,
            spans_path=str(out / f"{stem}.spans.jsonl"),
        )
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    record_path = out / f"{stem}.json"
    record_path.write_text(
        json.dumps(result.record, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    for name, metric in result.record["metrics"].items():
        print(f"{args.workload:6} {name:40} {metric['value']:.6g} "
              f"{metric['unit']}")
    for name, ok in result.record["checks"].items():
        print(f"check  {name:40} {'ok' if ok else 'FAILED'}")
    print(f"record {record_path}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": result.metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
