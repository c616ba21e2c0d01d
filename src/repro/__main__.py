"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro table2 --dataset xmark
    python -m repro table4
    python -m repro fig3
    python -m repro fig5 --runs 5
    python -m repro fig6 --budget 400
    python -m repro fig7 --scale 0.2
    python -m repro fig8
    python -m repro xmach
    python -m repro all --scale 0.1 --runs 2

Reports print to stdout; ``--out DIR`` additionally writes each report to
``DIR/<name>.txt``.

Observability: ``--telemetry FILE`` runs any experiment command with
instrumentation enabled (see :mod:`repro.obs`), streaming per-call and
per-query events to ``FILE`` as JSONL and closing with an aggregated
``summary`` record; ``python -m repro obs-report --input FILE`` renders
such a file into per-estimator latency and error tables.

Correctness tooling: ``python -m repro qa --budget-s N --seed S`` runs
the generative-testing campaign (:mod:`repro.qa`) and exits non-zero on
any confirmed finding; ``--report FILE`` writes the JSON report with
minimized reproducers, ``--replay FILE`` re-executes a saved report or
reproducer block (see docs/TESTING.md).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

from repro import obs

from repro.core.budget import SpaceBudget
from repro.estimators.mre import maximum_relative_error
from repro.experiments.claims import render_claims, verify_all
from repro.experiments.histograms import (
    BUCKET_SWEEP,
    run_bucket_sweep,
    run_histogram_comparison,
)
from repro.experiments.overall import run_overall
from repro.experiments.report import format_series
from repro.experiments.sampling import (
    SAMPLE_SWEEP,
    run_sample_sweep,
    run_sampling_comparison,
)
from repro.experiments.tables import render_table2, render_table3, render_table4


def _emit(name: str, text: str, out_dir: Path | None) -> None:
    print(f"===== {name} =====")
    print(text)
    print()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")


def _cmd_table2(args, emit) -> None:
    datasets = [args.dataset] if args.dataset else ["xmark", "dblp", "xmach"]
    for name in datasets:
        emit(f"table2_{name}", render_table2(name, scale=args.scale))


def _cmd_table3(args, emit) -> None:
    datasets = [args.dataset] if args.dataset else ["xmark", "dblp", "xmach"]
    for name in datasets:
        emit(f"table3_{name}", render_table3(name))


def _cmd_table4(args, emit) -> None:
    emit("table4_cov", render_table4(scale=args.scale))


def _cmd_fig3(args, emit) -> None:
    maxima = []
    for period in range(1, 10):
        best = max(
            maximum_relative_error(period + i / 1000.0)
            for i in range(1, 1000)
        )
        maxima.append((float(period), best * 100.0))
    emit(
        "fig3_mre",
        "Figure 3: MRE (%) vs cov\n"
        + format_series("per-period maxima", maxima),
    )


def _overall(args, emit, dataset: str, label: str) -> None:
    budgets = (
        (SpaceBudget(args.budget),) if args.budget else ()
    )
    results = run_overall(
        dataset,
        budgets=budgets,
        scale=args.scale,
        runs=args.runs,
        seed=args.seed,
    )
    emit(label, "\n\n".join(panel.render() for panel in results))


def _cmd_claims(args, emit) -> None:
    results = verify_all(scale=args.scale, runs=args.runs, seed=args.seed)
    emit("claims_summary", render_claims(results))


def _cmd_fig5(args, emit) -> None:
    _overall(args, emit, "xmark", "fig5_xmark_overall")


def _cmd_fig6(args, emit) -> None:
    _overall(args, emit, "dblp", "fig6_dblp_overall")


def _cmd_xmach(args, emit) -> None:
    _overall(args, emit, "xmach", "xmach_overall")


def _cmd_fig7(args, emit) -> None:
    for method, name in (("PH", "fig7a_ph_sweep"), ("PL", "fig7b_pl_sweep")):
        sweep = run_bucket_sweep(
            "xmark", method, BUCKET_SWEEP, scale=args.scale
        )
        emit(name, sweep.render())
    emit("fig7c_ph_vs_pl", run_histogram_comparison("xmark", scale=args.scale))


def _cmd_fig8(args, emit) -> None:
    for method, name in (("IM", "fig8a_im_sweep"), ("PM", "fig8b_pm_sweep")):
        sweep = run_sample_sweep(
            "xmark",
            method,
            SAMPLE_SWEEP,
            scale=args.scale,
            runs=args.runs,
            seed=args.seed,
        )
        emit(name, sweep.render())
    emit(
        "fig8c_im_vs_pm",
        run_sampling_comparison(
            "xmark", samples=100, scale=args.scale, runs=args.runs,
            seed=args.seed,
        ),
    )


_COMMANDS: dict[str, Callable] = {
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "fig3": _cmd_fig3,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "xmach": _cmd_xmach,
    "claims": _cmd_claims,
}


def _cmd_qa(args) -> int:
    import json

    from repro.qa import replay_file, run_qa

    if args.replay is not None:
        try:
            message = replay_file(str(args.replay))
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot replay {args.replay}: {error}", file=sys.stderr)
            return 2
        if message is None:
            print(f"replay clean: {args.replay}")
            return 0
        print(f"replay reproduces failure: {message}", file=sys.stderr)
        return 1
    report = run_qa(budget_s=args.budget_s, seed=args.seed)
    text = json.dumps(report, indent=2)
    if args.report is not None:
        args.report.write_text(text + "\n")
        print(f"wrote {args.report}")
    else:
        print(text)
    confirmed = report["confirmed_findings"]
    gates_failed = sum(1 for g in report["gates"] if not g["passed"])
    print(
        f"qa: {report['cases_run']} cases in {report['elapsed_s']:.1f}s, "
        f"{confirmed} confirmed finding(s), "
        f"{len(report['gates'])} gate(s) ({gates_failed} failed)",
        file=sys.stderr,
    )
    return 1 if confirmed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*_COMMANDS, "obs-report", "qa", "all"],
        help="which table/figure to regenerate, obs-report to "
        "summarize a telemetry file, or qa to run the "
        "generative-testing campaign",
    )
    parser.add_argument("--dataset", choices=["xmark", "dblp", "xmach"],
                        help="restrict table2/table3 to one dataset")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (default 1.0)")
    parser.add_argument("--runs", type=int, default=5,
                        help="repetitions for sampling methods")
    parser.add_argument("--budget", type=int, default=None,
                        help="single byte budget for fig5/fig6/xmach")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write reports into")
    parser.add_argument("--telemetry", type=Path, default=None,
                        help="run instrumented, streaming JSONL "
                        "telemetry to this file")
    parser.add_argument("--input", type=Path, default=None,
                        help="telemetry JSONL file for obs-report")
    parser.add_argument("--budget-s", type=float, default=60.0,
                        help="qa wall-clock budget in seconds")
    parser.add_argument("--report", type=Path, default=None,
                        help="qa: write the JSON report here instead "
                        "of stdout")
    parser.add_argument("--replay", type=Path, default=None,
                        help="qa: replay a saved report/reproducer "
                        "instead of fuzzing")
    args = parser.parse_args(argv)

    if args.experiment == "qa":
        return _cmd_qa(args)

    if args.experiment == "obs-report":
        if args.input is None:
            parser.error("obs-report requires --input FILE")
        print(obs.render_report(obs.iter_telemetry(args.input)))
        return 0

    emit = lambda name, text: _emit(name, text, args.out)  # noqa: E731
    sink = (
        obs.TelemetrySink(args.telemetry)
        if args.telemetry is not None
        else None
    )
    scope = obs.observe(sink=sink) if sink is not None else nullcontext()
    try:
        with scope:
            if args.experiment == "all":
                for command in _COMMANDS.values():
                    command(args, emit)
            else:
                _COMMANDS[args.experiment](args, emit)
            if sink is not None:
                obs.emit_summary()
    finally:
        if sink is not None:
            sink.close()
            print(
                f"wrote {sink.emitted} telemetry records to "
                f"{args.telemetry}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
