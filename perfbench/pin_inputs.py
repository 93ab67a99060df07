"""Record the SHA-256 of every pinned workload input in inputs.json.

    python3 perfbench/pin_inputs.py

Run it only when a workload's input is meant to change; a run whose
generated input differs from its pin fails. Seeds outside the pinned range
are covered by the canary seed, which every run regenerates and checks.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

PINNED_SEEDS = {"bench": range(0, 64), "smoke": (1, 2, 3, 7), "reference": (7,)}


def main() -> int:
    pins: dict = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "input.csv")
        for scale, seeds in PINNED_SEEDS.items():
            pins[scale] = {}
            for name, workload in workloads.WORKLOADS.items():
                pins[scale][name] = {}
                for seed in sorted(set(seeds) | {workloads.CANARY_SEED}):
                    workloads.write_input(workload, scale, seed, path)
                    pins[scale][name][str(seed)] = workloads.sha256_file(path)
    with open(workloads.PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
