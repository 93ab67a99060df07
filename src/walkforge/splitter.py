"""Walk-forward batching and lookback-window sample construction.

Batches tile the row axis: train [k*stride, k*stride + train_len), test
immediately after, stepping by stride while a full test block still fits.
With the 500/100/100 defaults an 1100-row dataset yields 6 batches whose
test blocks tile rows 500..1100 without overlap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class Batch:
    index: int
    train_start: int
    train_end: int
    test_start: int
    test_end: int


@dataclass(frozen=True)
class WalkForwardPlan:
    n: int
    train_len: int
    test_len: int
    stride: int
    batches: tuple[Batch, ...]


def check_lengths(train_len: int, test_len: int, stride: int) -> None:
    """make_batches' lengths, which RunConfig also checks."""
    if train_len < 1 or test_len < 1 or stride < 1:
        raise ConfigError(
            f"train_len, test_len, stride must be positive, got "
            f"{train_len}/{test_len}/{stride}"
        )


def make_batches(n: int, train_len: int = 500, test_len: int = 100, stride: int = 100) -> WalkForwardPlan:
    check_lengths(train_len, test_len, stride)
    if n < train_len + test_len:
        raise DataError(f"{n} rows cannot hold one train+test batch of {train_len + test_len}")
    batches = []
    k = 0
    while k * stride + train_len + test_len <= n:
        a = k * stride
        b = a + train_len
        batches.append(Batch(index=k, train_start=a, train_end=b,
                             test_start=b, test_end=b + test_len))
        k += 1
    return WalkForwardPlan(n=n, train_len=train_len, test_len=test_len,
                           stride=stride, batches=tuple(batches))


@dataclass(frozen=True)
class SampleSet:
    """inputs[i] holds rows t-L+1..t, targets[i] = close_scaled[t+1], with
    t recorded in anchors[i]."""

    inputs: np.ndarray
    targets: np.ndarray
    anchors: np.ndarray

    @property
    def m(self) -> int:
        return len(self.targets)

    def flat_inputs(self) -> np.ndarray:
        """Lookback windows flattened to (m, L*F) for the non-sequence models."""
        return self.inputs.reshape(self.m, -1)


def check_lookback(lookback: int) -> None:
    """make_windows' lookback, which RunConfig also checks."""
    if lookback < 1:
        raise ConfigError(f"lookback must be >= 1, got {lookback}")


def check_lookback_fits(lookback: int, train_len: int) -> None:
    """Every train range holds at least one window; RunConfig checks it."""
    if lookback >= train_len:
        raise ConfigError(f"lookback must be < train_len, got lookback={lookback}, "
                          f"train_len={train_len}")


def make_windows(
    features: np.ndarray,
    close_scaled: np.ndarray,
    start: int,
    end: int,
    lookback: int,
) -> SampleSet:
    """One sample per t in [start + lookback - 1, end - 1)."""
    features = np.asarray(features, dtype=np.float64)
    close_scaled = np.asarray(close_scaled, dtype=np.float64)
    if features.ndim != 2 or close_scaled.ndim != 1 or len(close_scaled) != len(features):
        raise DataError("features must be (rows, F) with one close value per row")
    check_lookback(lookback)
    if not (0 <= start < end <= len(features)):
        raise DataError(f"range [{start}, {end}) out of bounds for {len(features)} rows")
    if end - start < lookback + 1:
        raise DataError(f"range of {end - start} rows is shorter than {lookback + 1}")

    anchors = np.arange(start + lookback - 1, end - 1, dtype=np.int64)
    rows = anchors[:, None] + np.arange(-(lookback - 1), 1, dtype=np.int64)
    return SampleSet(
        inputs=features[rows],
        targets=close_scaled[anchors + 1],
        anchors=anchors,
    )


def plan_to_json(plan: WalkForwardPlan) -> str:
    return json.dumps(
        {
            "n": plan.n,
            "train_len": plan.train_len,
            "test_len": plan.test_len,
            "stride": plan.stride,
            "batches": [
                {"index": b.index, "train": [b.train_start, b.train_end],
                 "test": [b.test_start, b.test_end]}
                for b in plan.batches
            ],
        },
        indent=2,
    )


def plan_from_json(text: str) -> WalkForwardPlan:
    try:
        blob = json.loads(text)
        batches = tuple(
            Batch(index=b["index"], train_start=b["train"][0], train_end=b["train"][1],
                  test_start=b["test"][0], test_end=b["test"][1])
            for b in blob["batches"]
        )
        return WalkForwardPlan(n=blob["n"], train_len=blob["train_len"],
                               test_len=blob["test_len"], stride=blob["stride"],
                               batches=batches)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad plan JSON: {exc}") from exc
