"""walkforge benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload all_models --seed 7 --seconds 60 --trace 0

Each invocation of the workload runs in its own child process (child.py):
set-up generates the seeded input CSV and checks it against the pinned
SHA-256, then `walkforge pipeline` runs on it. Invocations repeat until
--seconds is used up, and the end-to-end metrics are medians over them,
with times scaled to a fixed host speed by a calibration kernel each child
times next to the pipeline (README.md, Reference host speed).
With --trace 1, half the time goes to untraced invocations (the baseline
for the tracing overhead) and one traced invocation supplies the
per-layer metrics. Every invocation's report.json is checked and must be
byte-identical to the others of the run.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See README.md for the workloads, metrics
and the predictions they are meant to test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# One BLAS/OpenMP thread in every child: at most nproc on any host, and a run
# does not compete with itself for the two cores of the reference box.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Times are reported at a fixed host speed: each invocation's raw times are
# multiplied by CALIBRATION_REF_S over the mean of its two child.calibrate()
# timings. The constant is about the kernel's time on the reference host
# when it is quiet; it fixes the scale of the reported seconds, nothing else.
SCALED = ("wall_s", "setup_s")
CALIBRATION_REF_S = 0.1
HARD_LIMIT_S = 170.0  # the whole run, children included, ends before this
METRIC_KEYS = ("rmse", "mae", "mape")


def host_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def check_canary(scale: str, name: str) -> str | None:
    """Regenerate the canary seed's input and compare it with its pin, so
    that a change to the generator shows even for seeds that are not pinned.
    Returns an error message or None."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pinned = workloads.load_pins()[scale][name][str(workloads.CANARY_SEED)]
    path = os.path.join(WORK, f"canary-{name}-{scale}.csv")
    workloads.write_input(workloads.WORKLOADS[name], scale, workloads.CANARY_SEED, path)
    digest = workloads.sha256_file(path)
    os.remove(path)
    if digest != pinned:
        return f"canary input (seed {workloads.CANARY_SEED}) hash {digest} != pinned {pinned}"
    return None


def check_report(run_dir: str, models: tuple[str, ...]) -> tuple[str | None, dict]:
    """Correctness of one invocation's artifacts: report.json holds finite
    train and test metrics for every model and persistence under mean and
    median, and every per-batch metric is finite. The quality figures are
    those of the last model."""
    model = models[-1]
    try:
        with open(os.path.join(run_dir, "report.json"), "rb") as f:
            raw = f.read()
        report = json.loads(raw)
        aggregates = report["aggregates"]
        for how in ("mean", "median"):
            for who in (*models, "persistence"):
                for split in ("train", "test"):
                    block = aggregates[how][who][split]
                    if not all(math.isfinite(block[k]) for k in METRIC_KEYS):
                        return f"non-finite {how}/{who}/{split} metric", {}
        if not all(math.isfinite(r[k]) for r in report["runs"] for k in METRIC_KEYS):
            return "non-finite per-batch metric", {}
        with open(os.path.join(run_dir, "predictions.csv")) as f:
            header = f.readline().strip().split(",")
            column = header.index(model)
            floored = sum(float(line.split(",")[column]) == 0.0 for line in f)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"bad artifacts: {exc!r}", {}
    return None, {
        "report_sha256": hashlib.sha256(raw).hexdigest(),
        "test_mape_ratio": aggregates["mean"][model]["test"]["mape"]
        / aggregates["mean"]["persistence"]["test"]["mape"],
        "floored_preds": floored,
    }


def work_dir(workload: str, scale: str) -> str:
    return os.path.join(WORK, f"{workload}-{scale}")


def invoke(args: argparse.Namespace, index: int, deadline: float, trace: bool = False) -> dict:
    """Run one invocation in a child process; returns its record, with an
    "error" key when it failed."""
    out = work_dir(args.workload, args.scale)
    shutil.rmtree(out, ignore_errors=True)
    result_path = os.path.join(out, "result.json")
    os.makedirs(out)
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--scale", args.scale,
           "--seed", str(args.seed), "--out", out, "--result", result_path,
           "--trace", str(int(trace))]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"index": index, "trace": trace, "error": "timed out"}
    record = {"index": index, "trace": trace, "returncode": proc.returncode}
    try:
        with open(result_path) as f:
            record.update(json.load(f))
    except (OSError, ValueError):
        record["error"] = "no result: " + proc.stderr.strip()[-2000:]
        return record
    if proc.returncode != 0 or record.get("exit_code") != 0:
        record.setdefault("error", f"exit {proc.returncode}/{record.get('exit_code')}: "
                          + proc.stderr.strip()[-2000:])
        return record
    error, facts = check_report(os.path.join(out, "run"),
                                workloads.WORKLOADS[args.workload].models)
    record.update(facts)
    record["speed"] = CALIBRATION_REF_S / statistics.fmean(record["calibration_s"])
    if error:
        record["error"] = error
    return record


def measure(args: argparse.Namespace, hard_deadline: float) -> list[dict]:
    start = time.monotonic()
    untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
    records: list[dict] = []
    while True:
        longest = max((r["setup_s"] + r["wall_s"] + sum(r["calibration_s"]) for r in records),
                      default=0.0)
        if records and time.monotonic() + longest > untraced_until:
            break
        records.append(invoke(args, len(records), hard_deadline))
        if "error" in records[-1]:
            return records
    if args.trace:
        records.append(invoke(args, len(records), hard_deadline, trace=True))
    return records


def summarize(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n={len(values)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="bench",
                        help="bench (timed runs), smoke (tests) or reference (baseline sizes)")
    args = parser.parse_args(argv)
    process_start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "walkforge", "__init__.py")):
        print(f"error: no walkforge sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    os.makedirs(WORK, exist_ok=True)
    host = host_record()
    print("host: " + json.dumps(host))

    canary_error = check_canary(args.scale, args.workload)
    records = [] if canary_error else measure(args, process_start + HARD_LIMIT_S)

    good = [r for r in records if "error" not in r]
    shas = {r["report_sha256"] for r in good}
    failed = len(records) - len(good)
    errors = [f"invocation {r['index']}: {r['error']}" for r in records if "error" in r]
    if canary_error:
        errors.append(canary_error)
    if len(shas) > 1:
        errors.append(f"report.json differs between invocations of seed {args.seed}: "
                      f"{sorted(shas)}")
        failed = len(records)
    correct = not errors and bool(good)

    untraced = [r for r in good if not r["trace"]]
    metrics: dict = {}
    print(f"workload {args.workload} ({args.scale}), seed {args.seed}: "
          f"{len(records)} invocations, {failed} failed")
    for line in errors:
        print("FAILED " + line)
    if args.trace:
        traced = [r for r in good if r["trace"]]
        layers, absent = {}, set()
        if traced:
            # values read from the artifacts, not from spans
            layers = dict(traced[0]["layers"],
                          **{"pipeline.floored_preds": traced[0]["floored_preds"],
                             "quality.test_mape_ratio": traced[0]["test_mape_ratio"],
                             "trace.overhead_s": traced[0]["wall_s"]
                             - statistics.median(r["wall_s"] for r in untraced)})
            absent = set(traced[0]["absent"])
        import tracing

        for metric in tracing.LAYER_METRICS:
            value = layers.get(metric.name, 0.0)
            mark = "  (absent)" if metric.name in absent else ""
            print(f"  {metric.name:32s} {value:14.6g} {metric.unit}{mark}")
            metrics[metric.name] = {"value": value, "unit": metric.unit}
        if absent:
            print("absent: " + json.dumps(sorted(absent)))
    else:
        for name, unit in END_TO_END:
            raw = [r[name] for r in untraced]
            values = [r[name] * r["speed"] for r in untraced] if name in SCALED else raw
            if values:
                print(f"  {name:16s} {unit:6s} {summarize(values)}")
            if values and name in SCALED:
                print(f"  {'(raw)':16s} {unit:6s} {summarize(raw)}")
            metrics[name] = {"value": statistics.median(values) if values else 0.0,
                             "unit": unit}
        if untraced:
            print(f"  test_mape_ratio  ratio  {untraced[0]['test_mape_ratio']!r} "
                  "(deterministic per seed; a per-layer metric)")
    with open(os.path.join(WORK, f"last-{args.workload}-{args.scale}-{args.trace}.json"),
              "w") as f:
        json.dump({"host": host, "args": vars(args), "records": records,
                   "metrics": metrics, "correct": correct}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": max(1, len(records)),
                      "failed": failed if records else 1, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
