"""Workload table and seeded input generation.

Each workload is one `walkforge pipeline` invocation on a CSV generated
here from the seed. Three scales share one table:

- ``reference``: the sizes the workloads were designed at (one invocation
  takes 14-38 s on a 2-core box); used to record the baseline readings.
- ``bench``: the shrink the timed runs use, several invocations per run.
  Each workload keeps the dominant layer it has at reference scale.
- ``smoke``: a seconds-long shrink for the benchmark's own tests.

The program only ever receives ``--csv <file>`` plus the flags below.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

SCALES = ("bench", "smoke", "reference")
# the models `--model all` fits, in report order; the last is the paper's model
ALL_MODELS = ("lr", "svr", "lstm", "proposed")
# seed used by the input-pin canary when the run's own seed is not pinned
CANARY_SEED = 7


@dataclass(frozen=True)
class Shape:
    usable_rows: int
    flags: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # the --model flag
    dominant: str  # span whose share of the traced wall time defines the workload
    drop_days: bool  # drop a seeded ~2% of calendar days in runs of 1-3
    shapes: dict  # scale -> Shape

    @property
    def models(self) -> tuple[str, ...]:
        """Every model the invocation fits; the last one is scored."""
        return ALL_MODELS if self.model == "all" else (self.model,)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="all_models",
        model="all",
        dominant="baselines.fit_svr",
        drop_days=True,
        shapes={
            # designed at bench scale, so the reference scale is the same
            **dict.fromkeys(("reference", "bench"), Shape(1100, (
                "--h1", "16", "--h2", "32", "--lookback", "7", "--epochs", "1",
                "--svr-max-iter", "3000", "--trees", "6"))),
            "smoke": Shape(300, ("--train-len", "150", "--test-len", "50", "--stride", "100",
                                 "--h1", "4", "--h2", "8", "--lookback", "5", "--epochs", "1",
                                 "--svr-max-iter", "300", "--trees", "1")),
        },
    ),
    Workload(
        name="kernel_svr",
        model="svr",
        dominant="baselines.fit_svr",
        drop_days=False,
        shapes={
            "reference": Shape(700, ("--trees", "10")),
            "bench": Shape(700, ("--trees", "1", "--svr-max-iter", "12000")),
            "smoke": Shape(300, ("--train-len", "150", "--test-len", "50", "--stride", "100",
                                 "--trees", "1", "--svr-max-iter", "300")),
        },
    ),
    Workload(
        name="forest_select",
        model="lr",
        dominant="forest.fit_forest",
        drop_days=True,
        shapes={
            "reference": Shape(1100, ()),
            "bench": Shape(1100, ("--trees", "10")),
            "smoke": Shape(300, ("--train-len", "150", "--test-len", "50", "--stride", "50",
                                 "--trees", "2")),
        },
    ),
    Workload(
        name="recurrent_ref",
        model="proposed",
        dominant="nets.train",
        drop_days=False,
        shapes={
            "reference": Shape(1100, ("--h1", "16", "--h2", "32", "--lookback", "7",
                                      "--epochs", "30", "--trees", "10")),
            "bench": Shape(1100, ("--h1", "16", "--h2", "32", "--lookback", "7",
                                  "--epochs", "4", "--trees", "1")),
            "smoke": Shape(300, ("--train-len", "150", "--test-len", "50", "--stride", "100",
                                 "--h1", "4", "--h2", "8", "--lookback", "5",
                                 "--epochs", "1", "--trees", "1")),
        },
    ),
    Workload(
        name="recurrent_paper",
        model="lstm",
        dominant="nets.train",
        drop_days=False,
        shapes={
            "reference": Shape(600, ("--h1", "800", "--h2", "1000", "--epochs", "1",
                                     "--trees", "10")),
            "bench": Shape(200, ("--train-len", "150", "--test-len", "50", "--stride", "50",
                                 "--h1", "800", "--h2", "1000", "--epochs", "1",
                                 "--trees", "1")),
            "smoke": Shape(300, ("--train-len", "150", "--test-len", "50", "--stride", "100",
                                 "--h1", "40", "--h2", "50", "--epochs", "1", "--trees", "1")),
        },
    ),
)}


def pipeline_argv(workload: Workload, scale: str, seed: int, csv_path: str,
                  out_dir: str) -> list[str]:
    """The exact `walkforge` argv one invocation runs."""
    shape = workload.shapes[scale]
    return ["pipeline", "--csv", csv_path, "--out", out_dir, "--seed", str(seed),
            "--model", workload.model, *shape.flags]


def _dropped_rows(n: int, seed: int) -> np.ndarray:
    """Row indices of ~2% of days, in runs of 1-3 with kept days between
    runs, never the first or last row (so the cleaned date span is intact
    and every gap stays within the default fill cap of 3)."""
    rng = np.random.default_rng([seed, 0x5EED])
    rows: list[int] = []
    pos = int(rng.integers(20, 80))
    while True:
        length = int(rng.integers(1, 4))
        if pos + length >= n - 1:
            break
        rows.extend(range(pos, pos + length))
        pos += length + int(rng.integers(50, 151))
    return np.asarray(rows, dtype=np.int64)


def write_input(workload: Workload, scale: str, seed: int, path: str) -> None:
    """Generate the workload's CSV with the program's public synthesizer."""
    from walkforge import indicators, ingest

    rows = workload.shapes[scale].usable_rows + indicators.warmup_rows()
    series = ingest.synthesize(rows, seed)
    if workload.drop_days:
        keep = np.ones(rows, dtype=bool)
        keep[_dropped_rows(rows, seed)] = False
        series = ingest.RawSeries(dates=series.dates[keep], values=series.values[keep],
                                  columns=series.columns)
    ingest.write_csv(series, path)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs.json")


def load_pins() -> dict:
    """{scale: {workload: {seed: sha256}}} as recorded by pin_inputs.py."""
    with open(PINS_PATH) as f:
        return json.load(f)
