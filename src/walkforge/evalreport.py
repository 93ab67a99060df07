"""Error metrics, per-batch aggregation, and report rendering.

Metrics are computed in price units (USD): RMSE, MAE, and MAPE as a
fraction. Batch results aggregate two ways, mean and median across batches,
since a single blown-up batch dominates the mean but not the median.

PUBLISHED_REFERENCE carries the benchmark numbers this pipeline is built to
be compared against. They describe a specific historical dataset, so they
are documentation for the report reader, never assertions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyGroup, ZeroActual

METRIC_NAMES = ("rmse", "mae", "mape")
MODEL_ORDER = ("lr", "svr", "lstm", "proposed", "persistence")
SPLIT_ORDER = ("train", "test")


@dataclass(frozen=True)
class BatchMetrics:
    model: str
    batch: int
    split: str
    rmse: float
    mae: float
    mape: float

    def value(self, metric: str) -> float:
        return getattr(self, metric)


def metrics(predictions: np.ndarray, actual: np.ndarray) -> tuple[float, float, float]:
    """(rmse, mae, mape) of predictions against nonzero actual values."""
    predictions = np.asarray(predictions, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predictions.ndim != 1 or predictions.shape != actual.shape or len(actual) < 1:
        raise DataError(
            f"predictions and actuals must be equal-length vectors, "
            f"got {predictions.shape} / {actual.shape}"
        )
    if not (np.isfinite(predictions).all() and np.isfinite(actual).all()):
        raise DataError("metrics need finite predictions and actuals")
    zeros = np.nonzero(actual == 0.0)[0]
    if zeros.size:
        raise ZeroActual(int(zeros[0]))
    err = predictions - actual
    rmse = float(np.sqrt(np.mean(err * err)))
    mae = float(np.mean(np.abs(err)))
    mape = float(np.mean(np.abs(err) / np.abs(actual)))
    # rmse >= mae by the power-mean inequality; it fails only when the
    # errors overflow, and then mae - tolerance is nan.
    if not rmse >= mae - 1e-12 * max(1.0, mae):
        raise DataError(f"rmse {rmse!r} below mae {mae!r}: prediction errors overflow")
    return rmse, mae, mape


def batch_metrics(model: str, batch: int, split: str,
                  predictions: np.ndarray, actual: np.ndarray) -> BatchMetrics:
    rmse, mae, mape = metrics(predictions, actual)
    return BatchMetrics(model=model, batch=batch, split=split,
                        rmse=rmse, mae=mae, mape=mape)


def persistence_baseline(close: np.ndarray, anchors: np.ndarray,
                         batch: int = 0, split: str = "test") -> BatchMetrics:
    """Tomorrow's close = today's close: close[anchors] predicts
    close[anchors + 1], the rows a SampleSet with these anchors scores."""
    close = np.asarray(close, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.int64)
    if anchors.size and not (0 <= anchors.min() and anchors.max() + 1 < len(close)):
        raise DataError(f"anchors {anchors.min()}..{anchors.max()} out of bounds "
                        f"for {len(close)} rows")
    return batch_metrics("persistence", batch, split,
                         predictions=close[anchors], actual=close[anchors + 1])


@dataclass(frozen=True)
class EvaluationReport:
    runs: tuple[BatchMetrics, ...]
    mean: dict
    median: dict


def _model_order(models: list[str]) -> list[str]:
    known = [m for m in MODEL_ORDER if m in models]
    return known + sorted(m for m in models if m not in MODEL_ORDER)


def aggregate(runs: list[BatchMetrics]) -> EvaluationReport:
    """Mean and median of each metric across batches per (model, split)."""
    if not runs:
        raise EmptyGroup()
    groups: dict[tuple[str, str], list[BatchMetrics]] = {}
    for run in runs:
        groups.setdefault((run.model, run.split), []).append(run)

    models = _model_order(sorted({m for m, _ in groups}))
    mean: dict = {}
    median: dict = {}
    for model in models:
        mean[model] = {}
        median[model] = {}
        for split in SPLIT_ORDER:
            if (model, split) not in groups:
                continue
            rows = groups[(model, split)]
            mean[model][split] = {
                metric: float(np.mean([r.value(metric) for r in rows]))
                for metric in METRIC_NAMES
            }
            median[model][split] = {
                metric: float(np.median([r.value(metric) for r in rows]))
                for metric in METRIC_NAMES
            }
    rank = {model: i for i, model in enumerate(models)}
    ordered = sorted(runs, key=lambda r: (rank[r.model], r.batch, SPLIT_ORDER.index(r.split)))
    return EvaluationReport(runs=tuple(ordered), mean=mean, median=median)


# Benchmark results reported for this architecture comparison on the
# historical BTC dataset (mean and median over walk-forward batches).
# Reader-facing context only: synthetic runs are not expected to hit them.
PUBLISHED_REFERENCE = {
    "source": "Table 1",
    "asserted": False,
    "mean": {
        "lr": {"train": {"rmse": 378.9091, "mae": 246.3711, "mape": 0.1945},
               "test": {"rmse": 674.032, "mae": 546.109, "mape": 0.22664}},
        "svr": {"train": {"rmse": 380.7813, "mae": 239.8385, "mape": 0.1370},
                "test": {"rmse": 898.2263, "mae": 738.6972, "mape": 0.1850}},
        "lstm": {"train": {"rmse": 262.8562, "mae": 149.1471, "mape": 0.0297},
                 "test": {"rmse": 455.5994, "mae": 377.3157, "mape": 0.0337}},
        "proposed": {"train": {"rmse": 268.3314, "mae": 152.8135, "mape": 0.0312},
                     "test": {"rmse": 450.3816, "mae": 334.6625, "mape": 0.0316}},
    },
    "median": {
        "lr": {"train": {"rmse": 298.8742, "mae": 216.6750, "mape": 0.0554},
               "test": {"rmse": 373.9383, "mae": 312.1933, "mape": 0.0687}},
        "svr": {"train": {"rmse": 299.1291, "mae": 201.6113, "mape": 0.05493},
                "test": {"rmse": 403.4483, "mae": 340.4691, "mape": 0.0856}},
        "lstm": {"train": {"rmse": 211.8146, "mae": 122.4450, "mape": 0.0258},
                 "test": {"rmse": 215.4055, "mae": 154.995, "mape": 0.03073}},
        "proposed": {"train": {"rmse": 215.9530, "mae": 125.0576, "mape": 0.02647},
                     "test": {"rmse": 197.4914, "mae": 135.7671, "mape": 0.0316}},
    },
}


def report_to_json(report: EvaluationReport, config: dict) -> str:
    """Deterministic JSON: config block, per-batch runs, aggregates, and the
    labeled published reference values."""
    blob: dict = {
        "config": config,
        "runs": [
            {"model": r.model, "batch": r.batch, "split": r.split,
             "rmse": r.rmse, "mae": r.mae, "mape": r.mape}
            for r in report.runs
        ],
        "aggregates": {"mean": report.mean, "median": report.median},
        "reference": PUBLISHED_REFERENCE,
    }
    return json.dumps(blob, indent=2)


def render_table(report: EvaluationReport) -> str:
    """Fixed-width table: one block per aggregation, models as rows, and
    train/test columns under each metric."""
    lines: list[str] = []
    header = (
        f"{'':14s} {'RMSE':>21s}   {'MAE':>21s}   {'MAPE':>21s}\n"
        f"{'Methods':14s} {'train':>10s} {'test':>10s}   "
        f"{'train':>10s} {'test':>10s}   {'train':>10s} {'test':>10s}"
    )
    for label, block in (("Mean", report.mean), ("Median", report.median)):
        lines.append(label)
        lines.append(header)
        for model in block:
            cells: list[str] = []
            for metric in METRIC_NAMES:
                for split in SPLIT_ORDER:
                    value = block[model].get(split, {}).get(metric)
                    cells.append(f"{value:>10.4f}" if value is not None else f"{'-':>10s}")
            lines.append(
                f"{model:14s} {cells[0]} {cells[1]}   {cells[2]} {cells[3]}   "
                f"{cells[4]} {cells[5]}"
            )
        lines.append("")
    return "\n".join(lines)


def write_chart_svg(
    path: str,
    actual: np.ndarray,
    predictions: dict[str, np.ndarray],
    boundaries: list[int],
    title: str = "Predicted vs actual close",
) -> None:
    """Static line chart of the concatenated test rows; vertical rules mark
    batch boundaries."""
    actual = np.asarray(actual, dtype=np.float64)
    series = {"actual": actual, **{k: np.asarray(v, dtype=np.float64)
                                   for k, v in predictions.items()}}
    for name, vals in series.items():
        if vals.shape != actual.shape:
            raise DataError(f"chart series {name!r} length differs from actual")
    width, height, pad = 960, 420, 45
    lo = min(float(v.min()) for v in series.values())
    hi = max(float(v.max()) for v in series.values())
    span = (hi - lo) or 1.0
    n = len(actual)

    def sx(i: int) -> float:
        return pad + (width - 2 * pad) * (i / max(1, n - 1))

    def sy(v: float) -> float:
        return height - pad - (height - 2 * pad) * ((v - lo) / span)

    palette = ("#222222", "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{pad}" y="24" font-family="sans-serif" font-size="15">{title}</text>',
    ]
    for b in boundaries:
        x = f"{sx(b):.2f}"
        parts.append(f'<line x1="{x}" y1="{pad}" x2="{x}" y2="{height - pad}" '
                     f'stroke="#cccccc" stroke-dasharray="4 3"/>')
    for idx, (name, vals) in enumerate(series.items()):
        color = palette[idx % len(palette)]
        points = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(vals))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{pad + 110 * idx}" y="{height - 12}" '
                     f'font-family="sans-serif" font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def save_runs(runs: list[BatchMetrics], path: str) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(
            {"runs": [
                {"model": r.model, "batch": r.batch, "split": r.split,
                 "rmse": r.rmse, "mae": r.mae, "mape": r.mape}
                for r in runs
            ]},
            indent=2,
        ))


def load_runs(path: str) -> list[BatchMetrics]:
    with open(path) as f:
        try:
            blob = json.load(f)
            return [
                BatchMetrics(model=r["model"], batch=r["batch"], split=r["split"],
                             rmse=r["rmse"], mae=r["mae"], mape=r["mape"])
                for r in blob["runs"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad metrics JSON in {path}: {exc}") from exc
