"""Smoke tests of the benchmark itself, on the seconds-long `smoke` scale.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(workload: str, trace: int, cwd: str = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else {}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = _spec()
    assert {m["name"] for m in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.LAYER_METRICS]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc, result = _bench(workload, trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_prints_every_layer_metric(workload):
    proc, result = _bench(workload, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    # the traced invocation's report.json equalled the untraced one's
    assert result["attempted"] >= 2
    assert "absent:" not in proc.stdout
    metrics = result["metrics"]
    assert list(metrics) == [m.name for m in tracing.LAYER_METRICS]
    for metric in tracing.LAYER_METRICS:
        assert metrics[metric.name]["unit"] == metric.unit
    dominant = workloads.WORKLOADS[workload].dominant
    assert 0 < metrics["trace.dominant_share"]["value"] <= 1, dominant
    # the six stages account for the traced wall time up to a small remainder
    stages = sum(metrics[f"pipeline.{s}_s"]["value"] for s in tracing.STAGES)
    wall = metrics["trace.wall_s"]["value"]
    assert stages + metrics["trace.remainder_s"]["value"] == pytest.approx(wall)
    assert 0 <= metrics["trace.remainder_s"]["value"] < 0.1 * wall


@pytest.mark.parametrize("workload", ["all_models", "kernel_svr"])
def test_gap_days_are_filled_only_where_days_are_dropped(workload):
    _, result = _bench(workload, trace=1)
    filled = result["metrics"]["ingest.filled_cells"]["value"]
    assert (filled > 0) == workloads.WORKLOADS[workload].drop_days


def test_every_layer_runs_on_a_gated_workload():
    called = set()  # "module.attr" of every wrapped function a gated workload calls
    for workload in (w["name"] for w in _spec()["workloads"]):
        _bench(workload, trace=1)
        with open(os.path.join(run.work_dir(workload, "smoke"), "spans.jsonl")) as f:
            called |= {".".join(json.loads(line)["name"].split(".")[:2]) for line in f}
    unmeasured = [m.name for m in tracing.LAYER_METRICS
                  if m.needs and not called & set(m.needs)]
    assert not unmeasured


def test_report_equals_a_hand_run_pipeline(tmp_path):
    proc, result = _bench("forest_select", trace=0)
    assert result["correct"] is True
    bench_out = run.work_dir("forest_select", "smoke")
    csv_path = str(tmp_path / "input.csv")
    shutil.copy(os.path.join(bench_out, "input.csv"), csv_path)
    argv = workloads.pipeline_argv(workloads.WORKLOADS["forest_select"], "smoke", 7,
                                   csv_path, str(tmp_path / "out"))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    hand = subprocess.run([sys.executable, "-m", "walkforge.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL, timeout=170)
    assert hand.returncode == 0
    with open(os.path.join(bench_out, "run", "report.json"), "rb") as a, \
            open(tmp_path / "out" / "report.json", "rb") as b:
        assert a.read() == b.read()


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc, result = _bench("kernel_svr", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert result == {}


def test_changed_input_generator_fails_the_canary(monkeypatch):
    pins = workloads.load_pins()
    pins["smoke"]["kernel_svr"][str(workloads.CANARY_SEED)] = "0" * 64
    monkeypatch.setattr(workloads, "load_pins", lambda: pins)
    os.makedirs(run.WORK, exist_ok=True)
    assert "canary input" in run.check_canary("smoke", "kernel_svr")


def test_missing_public_name_gives_absent_metrics(monkeypatch):
    from walkforge import nets

    monkeypatch.delattr(nets, "lstm_layer_backward")
    tracer = tracing.Tracer(run_id="test")
    tracer.install()
    tracer.uninstall()
    # a fit whose result no longer has the fields the counter reads
    fit = tracer._wrap(lambda: object(),
                       tracing.Wrap("baselines", "fit_svr", hook=tracing._count_svr))
    fit()
    absent = tracing.absent_metrics(tracer)
    assert "nets.layer_backward_ms" in absent
    assert "baselines.svr_iterations" in absent
    assert "nets.layer_forward_ms" not in absent
    values = tracing.layer_values(tracer, wall_s=1.0, dominant="nets.train")
    assert set(values) <= {m.name for m in tracing.LAYER_METRICS}
