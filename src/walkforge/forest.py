"""From-scratch random-forest regressor for impurity-based feature ranking.

Trees are CART variance-reduction trees: each is grown on a bootstrap of n
draws with replacement, each node considers mtry features drawn without
replacement, candidate thresholds are midpoints between consecutive distinct
sorted values, and the winning split minimizes the size-weighted child
variance. Importance of a feature is the bootstrap-fraction-weighted
impurity decrease summed over the nodes that split on it, averaged over
trees and normalized to sum to one.

Splits are searched on exact integer ranks. Each column's floats are sorted
once per fit into dense keys; each tree packs the keys of its bootstrap rows
together with the row numbers into codes that are unique per column; and
each node sorts the small integer codes of its rows. That order equals a
stable sort of the node's x values, so the trees are the ones a per-node
float sort would grow, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from .errors import ConfigError, DataError


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


_BLOCK = 1 << 16  # values per column block while ranking x: ~1 MB of temporaries


def _dense_keys(x: np.ndarray) -> np.ndarray:
    """(p, n) dense rank of every value within its column: equal values
    (+0.0 and -0.0 included) share a key, and keys order as the values do.
    int16 when n <= 32767, int32 otherwise."""
    n, p = x.shape
    dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
    keys = np.empty((p, n), dtype=dtype)
    width = max(1, _BLOCK // n)
    for lo in range(0, p, width):
        block = x[:, lo:lo + width].T
        order = np.argsort(block, axis=1)
        ordered = np.take_along_axis(block, order, axis=1)
        dense = np.zeros(order.shape, dtype=dtype)
        np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, dtype=dtype, out=dense[:, 1:])
        np.put_along_axis(keys[lo:lo + width], order, dense, axis=1)
    return keys


class _TreeBuilder:
    """Grows one tree on a bootstrap; nodes land in parallel lists,
    children depth-first.

    `code[r, j]` packs bootstrap row r's dense key in column j above r
    itself, so codes are unique per column and order by value, then by row.
    Rows are contiguous, so a node gathers its rows' codes row by row.
    A node keeps its rows in increasing order, so sorting its codes gives
    the order a stable sort of its x values would, without a float copy of
    x: the row and the key come back out of each sorted code.
    """

    def __init__(self, x: np.ndarray, keys: np.ndarray, boot: np.ndarray, y: np.ndarray,
                 config: ForestConfig, mtry: int, rng: np.random.Generator) -> None:
        self.x = x
        self.boot = boot
        self.y = y
        self.config = config
        self.mtry = mtry
        self.rng = rng
        n = len(boot)
        self.shift = 8 * keys.dtype.itemsize
        dtype = np.int32 if self.shift == 16 else np.int64
        self.code = keys.T[boot].astype(dtype)
        self.code <<= self.shift
        self.code |= np.arange(n, dtype=dtype)[:, None]
        self.row_mask = (1 << self.shift) - 1
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

        feats = self.rng.choice(self.code.shape[1], size=self.mtry, replace=False)
        split = self._best_split(idx, feats)
        if split is None:
            return node
        j, threshold, cut_code, child_sse = split
        go_left = self.code[idx, j] <= cut_code

        node_sse = float(np.sum((yv - yv.mean()) ** 2))
        self.feature[node] = j
        self.threshold[node] = threshold
        self.decrease[node] = max(0.0, (node_sse - child_sse) / m)
        self.left[node] = self.grow(idx[go_left], depth + 1)
        self.right[node] = self.grow(idx[~go_left], depth + 1)
        return node

    def _best_split(self, idx: np.ndarray, feats: np.ndarray) -> tuple[int, float, int, float] | None:
        """Minimum weighted-child-SSE split of the node's rows over feats.

        Returns (feature, midpoint threshold, code of the last row sent
        left, child SSE sum) or None when no column offers a valid cut.
        Ties go to the lowest cut, then to the earliest column in feats.
        """
        m = len(idx)
        codes = np.take(self.code[idx], feats, axis=1).T.copy()
        codes.sort(axis=1)
        sorted_y = self.y[codes & self.row_mask]

        csum = np.cumsum(sorted_y, axis=1)
        csq = np.cumsum(sorted_y * sorted_y, axis=1)
        total_sum = csum[:, -1:]
        total_sq = csq[:, -1:]

        left_n = np.arange(1, m, dtype=np.float64)
        right_n = m - left_n
        left_sum = csum[:, :-1]
        left_sq = csq[:, :-1]
        # sse = (left_sq - left_sum * left_sum / left_n)
        #     + ((total_sq - left_sq) - (total_sum - left_sum) ** 2 / right_n),
        # evaluated in place, operation for operation in that order
        sse = left_sum * left_sum
        sse /= left_n
        np.subtract(left_sq, sse, out=sse)
        right = total_sum - left_sum
        right *= right
        right /= right_n
        np.subtract(total_sq - left_sq, right, out=right)
        sse += right

        keys = codes >> self.shift
        valid = keys[:, 1:] != keys[:, :-1]
        min_leaf = self.config.min_samples_leaf
        if min_leaf > 1:
            valid[:, : min_leaf - 1] = False
            valid[:, m - min_leaf:] = False
        sse[~valid] = np.inf

        cuts = sse.argmin(axis=1)
        col_best = sse[np.arange(len(feats)), cuts]
        best = col_best.min()
        if not np.isfinite(best):
            return None
        ties = np.flatnonzero(col_best == best)
        col = int(ties[np.argmin(cuts[ties])])
        cut = int(cuts[col])
        j = int(feats[col])
        lo, hi = self.x[self.boot[codes[col, cut:cut + 2] & self.row_mask], j]
        threshold = float((lo + hi) / 2.0)
        if threshold >= hi:
            # midpoint of two adjacent floats can round up; keep the cut exact
            threshold = float(lo)
        return j, threshold, int(codes[col, cut]), float(best)


@dataclass(frozen=True)
class RegressionTree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    decrease: np.ndarray


@dataclass(frozen=True)
class Forest:
    trees: tuple[RegressionTree, ...]
    n_features: int
    n_samples: int
    config: ForestConfig


def fit_forest(x: np.ndarray, y: np.ndarray, config: ForestConfig) -> Forest:
    """Fit config.n_trees trees; tree i draws from generator seed + i.

    The dense keys are ranked once, before the trees fan out over the
    worker pool, so every worker shares them."""
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

    keys = _dense_keys(x)

    def grow(i: int) -> RegressionTree:
        rng = np.random.default_rng(config.seed + i)
        boot = rng.integers(0, n, size=n)
        builder = _TreeBuilder(x, keys, boot, y[boot], config, mtry, rng)
        builder.grow(np.arange(n), depth=0)
        return RegressionTree(
            feature=np.asarray(builder.feature, dtype=np.int32),
            threshold=np.asarray(builder.threshold, dtype=np.float64),
            left=np.asarray(builder.left, dtype=np.int32),
            right=np.asarray(builder.right, dtype=np.int32),
            value=np.asarray(builder.value, dtype=np.float64),
            n_samples=np.asarray(builder.n_samples, dtype=np.int64),
            decrease=np.asarray(builder.decrease, dtype=np.float64),
        )

    trees = _pool.run_tasks(grow, range(config.n_trees))
    return Forest(trees=tuple(trees), n_features=p, n_samples=n, config=config)


@dataclass(frozen=True)
class ImportanceRanking:
    names: tuple[str, ...]
    importance: np.ndarray
    order: np.ndarray


def importances(forest: Forest, names: tuple[str, ...]) -> ImportanceRanking:
    """Normalized impurity importances; ties rank by ascending column index."""
    p = forest.n_features
    if len(names) != p:
        raise DataError(f"expected {p} features, got {len(names)}")
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
        raise ConfigError(f"cannot take top {k} of {len(ranking.names)} ranked features")
    return [ranking.names[j] for j in ranking.order[:k]]
