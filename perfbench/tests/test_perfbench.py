"""The benchmark's own tests: planted faults, repeatable counts, records.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.nodeset import NodeSet
from repro.estimators.base import Estimate
from repro.estimators.registry import make_estimator
from repro.service import wire
from repro.stream.live import LiveWorkspace

from perfbench import compare as compare_mod
from perfbench import speed
from perfbench.churn import ChurnWorkload
from perfbench.core import END_TO_END, LAYER_METRICS
from perfbench.harness import MIN_OPS, WORKLOADS, timed_run, traced_run
from perfbench.plan import PlanWorkload
from perfbench.serve import ServeWorkload

ROOT = Path(__file__).resolve().parents[2]
SEED = 3


class _OffByOne:
    """An estimator answering one more than the real one."""

    def __init__(self, inner: object) -> None:
        self.inner = inner

    def estimate(self, ancestors, descendants, workspace=None) -> Estimate:
        real = self.inner.estimate(ancestors, descendants, workspace)
        return Estimate(real.value + 1.0, real.estimator, details=real.details)


def off_by_one(method: str, **config: object) -> _OffByOne:
    return _OffByOne(make_estimator(method, **config))


class _Broken:
    def estimate(self, ancestors, descendants, workspace=None) -> Estimate:
        raise RuntimeError("planted estimator failure")


def broken(method: str, **config: object) -> _Broken:
    return _Broken()


@pytest.fixture(scope="module")
def workloads() -> dict[str, object]:
    """One workload of each kind with its data built (data is immutable)."""
    built = {}
    for cls in (PlanWorkload, ServeWorkload, ChurnWorkload):
        workload = cls(SEED)
        workload.build_data()
        built[workload.name] = workload
    return built


#: Operations per planted-fault run: one round of plan, a full pair
#: cycle of serve, three churn apply cycles.
OPS = {"plan": 48, "serve": 12, "churn": 48}


def _checks(workload, factory=None) -> dict[str, bool]:
    workload.estimator_factory = factory
    workload.start()
    try:
        for index in range(OPS[workload.name]):
            workload.run_op(index)
        return workload.checks()
    finally:
        workload.stop()
        workload.estimator_factory = None


@pytest.mark.parametrize("name", ["plan", "serve", "churn"])
def test_checks_pass_on_the_real_program(workloads, name):
    checks = _checks(workloads[name])
    assert checks and all(checks.values()), checks


@pytest.mark.parametrize(
    "name, check",
    [
        ("plan", "plan.service_equals_direct"),
        ("serve", "serve.responses_equal_direct"),
        ("churn", "churn.final_reads_equal_direct"),
    ],
)
def test_off_by_one_estimator_fails_the_answer_checks(workloads, name, check):
    checks = _checks(workloads[name], off_by_one)
    assert checks[check] is False


@pytest.mark.parametrize("name", ["plan", "serve", "churn"])
def test_failing_estimator_fails_all_ok(workloads, name):
    checks = _checks(workloads[name], broken)
    assert checks[f"{name}.all_ok"] is False


def test_corrupting_codec_fails_the_operand_check(workloads, monkeypatch):
    real = wire.decode_request

    def lossy(payload):
        request, fmt = real(payload)
        ancestors = request.ancestors
        request.ancestors = NodeSet.from_arrays(
            ancestors.starts[:-1], ancestors.ends[:-1], name=ancestors.name
        )
        return request, fmt

    monkeypatch.setattr(wire, "decode_request", lossy)
    checks = _checks(workloads["serve"])
    assert checks["serve.operands_roundtrip"] is False


def test_stale_live_view_fails_the_rebuild_check(workloads, monkeypatch):
    real = LiveWorkspace.node_set

    def short(self, tag):
        node_set = real(self, tag)
        return NodeSet.from_arrays(node_set.starts[:-1], node_set.ends[:-1])

    monkeypatch.setattr(LiveWorkspace, "node_set", short)
    checks = _checks(workloads["churn"])
    assert checks["churn.live_equals_rebuild"] is False


def test_raising_operation_fails_the_run(monkeypatch):
    real = ChurnWorkload.run_op

    def sometimes(self, index):
        if index == 40:
            raise RuntimeError("planted operation failure")
        return real(self, index)

    monkeypatch.setattr(ChurnWorkload, "run_op", sometimes)
    result = timed_run("churn", SEED, 1)
    assert result.record["checks"]["churn.no_op_raised"] is False
    assert result.failed == 1 and not result.correct


def test_scaling_uses_the_kernel_median_around_a_stretch():
    # A host twice as slow as the reference halves every figure, and one
    # interrupted kernel run does not move the median.
    slow = 2 * speed.REFERENCE_S
    assert speed.scale([slow] * 5, [slow] * 4 + [1.0]) == 0.5
    assert len(speed.calibrate()) == speed.RUNS


def test_timed_run_keeps_the_unscaled_figures():
    result = timed_run("churn", SEED, 1)
    unscaled = result.record["unscaled"]
    scales = result.record["block_scales"]
    assert set(unscaled) == set(END_TO_END) - {"peak_rss_mb"}
    ratio = result.metrics["op_p50_ms"]["value"] / unscaled["op_p50_ms"]
    assert scales["min"] * 0.99 <= ratio <= scales["max"] * 1.01


_COUNT_UNITS = ("count", "bytes")


@pytest.mark.parametrize("name", ["plan", "serve", "churn"])
def test_traced_counts_repeat_for_a_seed(name):
    first, second = (traced_run(name, SEED, 1) for _ in range(2))
    assert first.correct and second.correct
    assert set(first.metrics) == set(LAYER_METRICS)
    counts = {
        key: metric["value"]
        for key, metric in first.metrics.items()
        if metric["unit"] in _COUNT_UNITS
    }
    assert counts == {key: second.metrics[key]["value"] for key in counts}
    assert counts["service.requests"] > 0


def test_serve_batches_and_outgrows_the_memo():
    # 13 s of traced serve are 312 bursts: 4992 requests, past the
    # memo's 4096 entries.
    result = traced_run("serve", SEED, 13)
    metrics = {key: m["value"] for key, m in result.metrics.items()}
    assert metrics["service.batch_size_mean"] == 8
    assert metrics["service.memo_hits"] == 0
    assert metrics["service_memo.evictions"] > 0
    assert metrics["router.pulls.IM"] + metrics["router.pulls.PM"] + (
        metrics["router.pulls.CROSS"]
    ) == metrics["service.requests"]
    # The store retains only the warm-up's records but counts every pull.
    assert metrics["feedback.records"] == metrics["service.requests"]


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _record(**config_changes: object) -> dict:
    config = {"workload": "plan", "run": {"seconds": 15}, **config_changes}
    return {
        "workload": "plan",
        "seed": 1,
        "config": config,
        "metrics": {"op_p50_ms": {"value": 2.0, "unit": "ms"}},
    }


def test_compare_refuses_different_configurations():
    with pytest.raises(compare_mod.ConfigMismatch, match="run.seconds"):
        compare_mod.compare(_record(), _record(run={"seconds": 10}))
    rows = compare_mod.compare(_record(), _record())
    assert rows["op_p50_ms"]["ratio"] == 1.0


def test_compare_command_exits_2_on_refusal(tmp_path):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_record()))
    new.write_text(json.dumps(_record(workload="serve")))
    assert compare_mod.main([str(base), str(new)]) == 2
    assert compare_mod.main([str(base), str(base)]) == 0


def _run_in_copy(directory: Path, *, with_program: bool, workload: str):
    """Run the command in a copy holding BENCHMARK.json and perfbench/
    (and, with the program, src/)."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", directory)
    shutil.copytree(ROOT / "perfbench", directory / "perfbench", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", directory / "src", ignore=ignore)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=directory, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_contract_line_last(tmp_path):
    done = _run_in_copy(tmp_path, with_program=True, workload="churn")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(END_TO_END)
    assert result["correct"] and result["attempted"] >= MIN_OPS
    assert all(np.isfinite(m["value"]) and m["value"] > 0
               for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    done = _run_in_copy(tmp_path, with_program=False, workload="plan")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
