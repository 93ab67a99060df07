"""Robust column scaling: center on the median, scale by the IQR.

Quantiles interpolate linearly at position q*(m-1). Parameters are always
fitted on an explicit row subset (the training rows of a batch) and then
applied to every row, so test rows never leak into the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

_BLOCK = 1 << 16  # values per column block that fit copies at once


@dataclass(frozen=True)
class ScalerParams:
    columns: tuple[str, ...]
    center: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        if len(self.center) != len(self.columns) or len(self.scale) != len(self.columns):
            raise DataError(
                f"{len(self.columns)} columns with {len(self.center)} centers "
                f"and {len(self.scale)} scales"
            )


def fit(matrix: np.ndarray, rows: np.ndarray | range | slice, columns: tuple[str, ...]) -> ScalerParams:
    """Fit per-column median/IQR on matrix[rows]; a zero IQR becomes 1.0."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(columns):
        raise DataError(f"matrix has {matrix.shape} shape for {len(columns)} columns")
    sub = matrix[rows]
    if sub.shape[0] == 0:
        raise DataError("row range selects no rows")
    if not np.isfinite(sub).all():
        raise DataError("scaler fit rows contain non-finite values")
    # column blocks: each statistic partitions a copy of one block at a time,
    # never of the whole matrix, and columns are independent, so the bits
    # are those of one call over every column
    width = max(1, _BLOCK // len(sub))
    blocks = [sub[:, lo:lo + width] for lo in range(0, sub.shape[1], width)]
    center = np.concatenate([np.median(block, axis=0) for block in blocks])
    q1, q3 = np.concatenate([np.quantile(block, [0.25, 0.75], axis=0) for block in blocks], axis=1)
    scale = q3 - q1
    scale[scale == 0.0] = 1.0
    return ScalerParams(columns=tuple(columns), center=center, scale=scale)


def _check_width(matrix: np.ndarray, params: ScalerParams) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    width = matrix.shape[-1] if matrix.ndim else 0
    if matrix.ndim not in (1, 2) or width != len(params.columns):
        raise DataError(f"shape {matrix.shape} does not fit {len(params.columns)} columns")
    return matrix


def transform(matrix: np.ndarray, params: ScalerParams,
              out: np.ndarray | None = None) -> np.ndarray:
    """(matrix - center) / scale, written into out when given; out may be
    matrix itself, which then holds the scaled values."""
    out = np.subtract(_check_width(matrix, params), params.center, out=out)
    out /= params.scale
    return out


def inverse_transform(matrix: np.ndarray, params: ScalerParams) -> np.ndarray:
    return _check_width(matrix, params) * params.scale + params.center
