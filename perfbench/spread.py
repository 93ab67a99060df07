"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload kernel_svr --seeds 1-10 --seconds 30

Runs run.py once per seed and prints, per metric, the median of the
per-run values and the quartile spread (q3 - q1) / median, computed with
statistics.quantiles(values, n=4) as the acceptance check does. Compare
each spread with the metric's bound in BENCHMARK.json. The unscaled times
(the median of each run's raw wall_s and setup_s) are shown beside them. Every run's
invocation records are kept in perfbench/_work/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a-b range or comma list")
    parser.add_argument("--seconds", default="25")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values: dict[str, list[float]] = {}
    runs: list[dict] = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        with open(os.path.join(HERE, "_work", f"last-{args.workload}-bench-0.json")) as f:
            records = json.load(f)["records"]
        for name in ("wall_s", "setup_s"):
            values.setdefault("raw " + name, []).append(
                statistics.median([r[name] for r in records if name in r] or [0.0]))
        runs.append({"seed": seed, "records": records})
    with open(os.path.join(HERE, "_work", f"spread-{args.workload}.json"), "w") as f:
        json.dump(runs, f)
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  ABOVE bound/3"
        print(f"{name:16s} median {statistics.median(vals):.6g}  spread {spread:.4f}"
              f"  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
