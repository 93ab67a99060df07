"""From-scratch random-forest regressor for impurity-based feature ranking.

Trees are CART variance-reduction trees: each is grown on a bootstrap of n
draws with replacement, each node considers mtry features drawn without
replacement, candidate thresholds are midpoints between consecutive distinct
sorted values, and the winning split minimizes the size-weighted child
variance. Importance of a feature is the bootstrap-fraction-weighted
impurity decrease summed over the nodes that split on it, averaged over
trees and normalized to sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionMismatch, KTooLarge


@dataclass(frozen=True)
class ForestConfig:
    seed: int
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 5
    mtry: int | None = None

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ConfigError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError(f"mtry must be >= 1 or None, got {self.mtry}")

    def resolve_mtry(self, p: int) -> int:
        mtry = self.mtry if self.mtry is not None else math.ceil(p / 3)
        if mtry > p:
            raise ConfigError(f"mtry={mtry} exceeds feature count {p}")
        return mtry


class _TreeBuilder:
    """Grows one tree; nodes land in parallel lists, children depth-first."""

    def __init__(self, x: np.ndarray, y: np.ndarray, config: ForestConfig,
                 mtry: int, rng: np.random.Generator) -> None:
        self.x = x
        self.y = y
        self.config = config
        self.mtry = mtry
        self.rng = rng
        self.n = len(y)
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.n_samples: list[int] = []
        self.decrease: list[float] = []

    def _new_node(self, idx: np.ndarray) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(self.y[idx].mean()))
        self.n_samples.append(len(idx))
        self.decrease.append(0.0)
        return node

    def grow(self, idx: np.ndarray, depth: int) -> int:
        node = self._new_node(idx)
        cfg = self.config
        m = len(idx)
        yv = self.y[idx]
        if m < 2 * cfg.min_samples_leaf:
            return node
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            return node
        if np.ptp(yv) == 0.0:
            return node

        feats = self.rng.choice(self.x.shape[1], size=self.mtry, replace=False)
        split = _best_split(self.x[idx][:, feats], yv, cfg.min_samples_leaf)
        if split is None:
            return node
        col, threshold, child_sse = split
        j = int(feats[col])
        go_left = self.x[idx, j] <= threshold

        node_sse = float(np.sum((yv - yv.mean()) ** 2))
        self.feature[node] = j
        self.threshold[node] = threshold
        self.decrease[node] = max(0.0, (node_sse - child_sse) / m)
        self.left[node] = self.grow(idx[go_left], depth + 1)
        self.right[node] = self.grow(idx[~go_left], depth + 1)
        return node


def _best_split(xs: np.ndarray, y: np.ndarray, min_leaf: int) -> tuple[int, float, float] | None:
    """Minimum weighted-child-SSE split over every candidate column.

    Returns (column, midpoint threshold, child SSE sum) or None when no
    column offers a valid cut.
    """
    m, q = xs.shape
    order = np.argsort(xs, axis=0, kind="stable")
    sorted_x = np.take_along_axis(xs, order, axis=0)
    sorted_y = y[order]

    csum = np.cumsum(sorted_y, axis=0)
    csq = np.cumsum(sorted_y * sorted_y, axis=0)
    total_sum = csum[-1]
    total_sq = csq[-1]

    left_n = np.arange(1, m, dtype=np.float64)[:, None]
    right_n = m - left_n
    left_sum = csum[:-1]
    left_sq = csq[:-1]
    sse = (left_sq - left_sum * left_sum / left_n) \
        + ((total_sq - left_sq) - (total_sum - left_sum) ** 2 / right_n)

    valid = sorted_x[1:] != sorted_x[:-1]
    if min_leaf > 1:
        valid[: min_leaf - 1] = False
        valid[m - min_leaf:] = False
    sse = np.where(valid, sse, np.inf)

    flat = int(np.argmin(sse))
    cut, col = divmod(flat, q)
    best = sse[cut, col]
    if not np.isfinite(best):
        return None
    threshold = float((sorted_x[cut, col] + sorted_x[cut + 1, col]) / 2.0)
    if threshold >= sorted_x[cut + 1, col]:
        # midpoint of two adjacent floats can round up; keep the cut exact
        threshold = float(sorted_x[cut, col])
    return col, threshold, float(best)


@dataclass(frozen=True)
class RegressionTree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    decrease: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.feature)


@dataclass(frozen=True)
class Forest:
    trees: tuple[RegressionTree, ...]
    n_features: int
    n_samples: int
    config: ForestConfig
    degenerate_target: bool


def fit_forest(x: np.ndarray, y: np.ndarray, config: ForestConfig) -> Forest:
    """Fit config.n_trees trees; tree i draws from generator seed + i."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise DataError(f"bad training shapes {x.shape} / {y.shape}")
    n, p = x.shape
    if n < 2:
        raise DataError(f"need at least 2 rows to fit, got {n}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("forest training data contains non-finite values")
    mtry = config.resolve_mtry(p)

    degenerate = bool(np.ptp(y) == 0.0)
    trees = []
    for i in range(config.n_trees):
        rng = np.random.default_rng(config.seed + i)
        boot = rng.integers(0, n, size=n)
        builder = _TreeBuilder(x[boot], y[boot], config, mtry, rng)
        if degenerate:
            builder._new_node(np.arange(n))
        else:
            builder.grow(np.arange(n), depth=0)
        trees.append(
            RegressionTree(
                feature=np.asarray(builder.feature, dtype=np.int32),
                threshold=np.asarray(builder.threshold, dtype=np.float64),
                left=np.asarray(builder.left, dtype=np.int32),
                right=np.asarray(builder.right, dtype=np.int32),
                value=np.asarray(builder.value, dtype=np.float64),
                n_samples=np.asarray(builder.n_samples, dtype=np.int64),
                decrease=np.asarray(builder.decrease, dtype=np.float64),
            )
        )
    return Forest(trees=tuple(trees), n_features=p, n_samples=n,
                  config=config, degenerate_target=degenerate)


@dataclass(frozen=True)
class ImportanceRanking:
    names: tuple[str, ...]
    importance: np.ndarray
    order: np.ndarray


def importances(forest: Forest, names: tuple[str, ...] | None = None) -> ImportanceRanking:
    """Normalized impurity importances; ties rank by ascending column index."""
    p = forest.n_features
    if names is None:
        names = tuple(f"f{j}" for j in range(p))
    if len(names) != p:
        raise DimensionMismatch(p, len(names))
    total = np.zeros(p)
    for tree in forest.trees:
        split = tree.feature >= 0
        np.add.at(
            total,
            tree.feature[split],
            (tree.n_samples[split] / forest.n_samples) * tree.decrease[split],
        )
    total /= len(forest.trees)
    mass = total.sum()
    if mass > 0.0:
        total = total / mass
    order = np.argsort(-total, kind="stable")
    return ImportanceRanking(names=tuple(names), importance=total, order=order)


def top_k(ranking: ImportanceRanking, k: int) -> list[str]:
    if not (1 <= k <= len(ranking.names)):
        raise KTooLarge(k, len(ranking.names))
    return [ranking.names[j] for j in ranking.order[:k]]
