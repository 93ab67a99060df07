"""One workload invocation in its own process.

Set-up generates the input CSV from the seed and checks its SHA-256
against the pinned value; then `walkforge.cli.main` runs the pipeline
exactly as `walkforge pipeline --csv ...` would. A fixed calibration kernel
is timed just before and just after the pipeline, outside both timed
phases. The result is written as JSON to --result. Run by run.py; not
meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def calibrate() -> float:
    """Seconds a fixed mix of work that does not touch walkforge takes now:
    an interpreter loop, small numpy calls on 500-vectors and 32x48 blocks,
    a GEMM and a column sort, the kinds of work the workloads spend their
    time on. The host's speed drifts (see README.md, Noise); run.py divides
    the measured times by this to express them at a fixed speed. Its inputs
    are freed on return, so they do not add to the pipeline's peak RSS."""
    rng = np.random.default_rng(0)
    gram, vec = rng.standard_normal((500, 500)), rng.standard_normal(500)
    x, w = rng.standard_normal((32, 48)), rng.standard_normal((64, 48))
    a, b = rng.standard_normal((256, 1024)), rng.standard_normal((1024, 256))
    cols = rng.standard_normal((1000, 40))
    # about 20 ms each on the reference host
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i & 7
    g = np.zeros(500)
    for i in range(2500):
        g = g + 1e-3 * gram[:, i % 500]
        int(np.argmin(np.where(g > vec, g, np.inf)))
    for _ in range(2000):
        np.tanh(x @ w.T)
    for _ in range(8):
        a @ b
    for _ in range(7):
        np.argsort(cols, axis=0, kind="stable")
    return time.perf_counter() - start


def _rusage() -> tuple[float, float]:
    """(user + sys CPU seconds, peak RSS in MB) of this process so far.

    The peak comes from VmHWM, the high-water mark of this process's own
    address space: ru_maxrss also counts the parent's resident set at the
    time of the spawn."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_kb = usage.ru_maxrss
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                peak_kb = int(line.split()[1])
    return usage.ru_utime + usage.ru_stime, peak_kb / 1024.0


def _write(result: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(result, f)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--scale", required=True, choices=workloads.SCALES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from walkforge import cli

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "input.csv")
    workloads.write_input(workload, args.scale, args.seed, csv_path)
    digest = workloads.sha256_file(csv_path)
    pinned = workloads.load_pins().get(args.scale, {}).get(args.workload, {}).get(str(args.seed))
    result: dict = {"input_sha256": digest, "input_pinned": pinned is not None}
    if pinned is not None and pinned != digest:
        result["error"] = f"input hash {digest} differs from pinned {pinned}"
        _write(result, args.result)
        return 1

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(run_id=f"{args.workload}-{args.scale}-{args.seed}")
        tracer.install()

    argv = workloads.pipeline_argv(workload, args.scale, args.seed, csv_path,
                                   os.path.join(args.out, "run"))
    set_up = time.monotonic()
    cpu_before = time.process_time()
    calibration_s = [calibrate()]
    calibration_cpu_s = time.process_time() - cpu_before
    started = time.monotonic()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    finished = time.monotonic()
    cpu_s, peak_rss_mb = _rusage()
    calibration_s.append(calibrate())
    result.update({
        "exit_code": code,
        "setup_s": set_up - args.spawned,
        "wall_s": finished - started,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": cpu_s - calibration_cpu_s,
        "argv": argv,
    })
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.layer_values(tracer, result["wall_s"], workload.dominant)
        layers["proc.cpu_s"] = cpu_s
        result["layers"] = layers
        result["absent"] = tracing.absent_metrics(tracer)
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    _write(result, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
