"""Regression forest: split optimality, importances, and determinism."""

import numpy as np
import pytest

from walkforge.errors import ConfigError, DataError, DimensionMismatch, KTooLarge
from walkforge.forest import (
    Forest,
    ForestConfig,
    ImportanceRanking,
    fit_forest,
    importances,
    top_k,
)


def predict(forest, x):
    """Mean leaf value over the trees, walking each row down each tree."""
    out = np.zeros(len(x))
    for tree in forest.trees:
        for r, row in enumerate(x):
            node = 0
            while tree.feature[node] >= 0:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            out[r] += tree.value[node]
    return out / len(forest.trees)


def split_sse(x, y, j, threshold):
    mask = x[:, j] <= threshold
    left, right = y[mask], y[~mask]
    return (
        float(((left - left.mean()) ** 2).sum())
        + float(((right - right.mean()) ** 2).sum())
    )


def enumerate_best_sse(x, y, min_leaf):
    """Try every midpoint cut on every feature; return the lowest child SSE."""
    best = np.inf
    for j in range(x.shape[1]):
        vals = np.unique(x[:, j])
        for a, b in zip(vals[:-1], vals[1:]):
            mask = x[:, j] <= (a + b) / 2.0
            if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
                continue
            best = min(best, split_sse(x, y, j, (a + b) / 2.0))
    return best


TREE_DTYPES = {"feature": np.int32, "threshold": np.float64, "left": np.int32,
               "right": np.int32, "value": np.float64, "n_samples": np.int64,
               "decrease": np.float64}


def oracle_split(xs, y, min_leaf):
    """The per-node float search: stable argsort of every candidate column."""
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
    cut, col = divmod(int(np.argmin(sse)), q)
    best = sse[cut, col]
    if not np.isfinite(best):
        return None
    threshold = float((sorted_x[cut, col] + sorted_x[cut + 1, col]) / 2.0)
    if threshold >= sorted_x[cut + 1, col]:
        threshold = float(sorted_x[cut, col])
    return col, threshold, float(best)


def oracle_forest(x, y, config):
    """Trees grown by the float search, as {field: array} per tree."""
    n, p = x.shape
    mtry = config.resolve_mtry(p)
    trees = []
    for i in range(config.n_trees):
        rng = np.random.default_rng(config.seed + i)
        boot = rng.integers(0, n, size=n)
        xb, yb = x[boot], y[boot]
        nodes = {name: [] for name in TREE_DTYPES}

        def grow(idx, depth):
            node = len(nodes["feature"])
            yv = yb[idx]
            for name, init in zip(TREE_DTYPES, (-1, 0.0, -1, -1, float(yv.mean()), len(idx), 0.0)):
                nodes[name].append(init)
            if len(idx) < 2 * config.min_samples_leaf or np.ptp(yv) == 0.0 or (
                    config.max_depth is not None and depth >= config.max_depth):
                return node
            feats = rng.choice(p, size=mtry, replace=False)
            split = oracle_split(xb[idx][:, feats], yv, config.min_samples_leaf)
            if split is None:
                return node
            col, threshold, child_sse = split
            j = int(feats[col])
            go_left = xb[idx, j] <= threshold
            node_sse = float(np.sum((yv - yv.mean()) ** 2))
            nodes["feature"][node] = j
            nodes["threshold"][node] = threshold
            nodes["decrease"][node] = max(0.0, (node_sse - child_sse) / len(idx))
            nodes["left"][node] = grow(idx[go_left], depth + 1)
            nodes["right"][node] = grow(idx[~go_left], depth + 1)
            return node

        grow(np.arange(n), 0)
        trees.append({name: np.asarray(nodes[name], dtype=dtype)
                      for name, dtype in TREE_DTYPES.items()})
    return trees


def assert_same_trees(forest, oracle):
    assert len(forest.trees) == len(oracle)
    for tree, want in zip(forest.trees, oracle):
        for name in TREE_DTYPES:
            got = getattr(tree, name)
            assert got.dtype == want[name].dtype, name
            assert got.tobytes() == want[name].tobytes(), name


class TestFloatSearchOracle:
    """fit_forest grows, byte for byte, the trees of the per-node float search."""

    @pytest.mark.parametrize("grid", ["integers", "signed_zeros", "mixed"])
    def test_trees_byte_identical(self, grid):
        rng = np.random.default_rng({"integers": 1, "signed_zeros": 2, "mixed": 3}[grid])
        checked = 0
        for case in range(60):
            n = int(rng.integers(2, 90))
            p = int(rng.integers(1, 6))
            if grid == "integers":
                x = rng.integers(0, int(rng.integers(1, 6)), size=(n, p)).astype(np.float64)
            elif grid == "signed_zeros":
                x = rng.choice([-0.0, 0.0, -1.5, 1.5], size=(n, p))
            else:
                x = rng.normal(size=(n, p))
                x[:, 0] = np.round(x[:, 0])
            y = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
            config = ForestConfig(
                seed=case, n_trees=int(rng.integers(1, 4)),
                max_depth=(None, 2, 5)[case % 3],
                min_samples_leaf=case % 5 + 1,
                mtry=int(rng.integers(1, p + 1)),
            )
            forest = fit_forest(x, y, config)
            assert_same_trees(forest, oracle_forest(x, y, config))
            checked += sum(tree.node_count > 1 for tree in forest.trees)
        assert checked >= 40

    def test_mtry_below_p_on_real_valued_columns(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(150, 12))
        x[:, 3] = np.round(x[:, 3], 1)
        y = x[:, 3] - 0.5 * x[:, 7] + 0.1 * rng.normal(size=150)
        config = ForestConfig(seed=4, n_trees=3, mtry=4, min_samples_leaf=2)
        assert_same_trees(fit_forest(x, y, config), oracle_forest(x, y, config))

    def test_int32_keys_beyond_int16_rows(self):
        # n > 32767 switches dense keys to int32 and codes to int64
        rng = np.random.default_rng(6)
        n = 32800
        x = np.column_stack([rng.integers(0, 40000, n).astype(np.float64),
                             np.round(rng.normal(size=n), 2)])
        y = x[:, 0] / 40000.0 + rng.normal(size=n)
        config = ForestConfig(seed=1, n_trees=1, max_depth=2, mtry=2)
        assert_same_trees(fit_forest(x, y, config), oracle_forest(x, y, config))


class TestSplitOptimality:
    def test_root_split_is_variance_optimal_exhaustively(self):
        # Small nodes, every candidate cut enumerated by brute force. The
        # fitted root must attain the same child SSE as the enumerated best
        # on the bootstrap sample its tree actually saw (generator seed + 0,
        # per the fitting contract).
        rng = np.random.default_rng(123)
        checked = 0
        for trial in range(150):
            n = int(rng.integers(2, 13))
            p = int(rng.integers(1, 4))
            # Small integer grids force duplicate values and tied cuts.
            x = rng.integers(0, 5, size=(n, p)).astype(np.float64)
            y = np.round(rng.normal(size=n), 1)
            if np.ptp(y) == 0.0:
                continue
            seed = 1000 + trial
            forest = fit_forest(
                x, y, ForestConfig(seed=seed, n_trees=1, min_samples_leaf=1, mtry=p)
            )
            tree = forest.trees[0]
            boot = np.random.default_rng(seed).integers(0, n, size=n)
            xb, yb = x[boot], y[boot]
            want = enumerate_best_sse(xb, yb, min_leaf=1)
            if tree.feature[0] < 0:
                # No valid cut (bootstrap collapsed the node); the oracle
                # must agree nothing was available.
                assert not np.isfinite(want) or np.ptp(yb) == 0.0
                continue
            got = split_sse(xb, yb, int(tree.feature[0]), float(tree.threshold[0]))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            checked += 1
        assert checked >= 100

    def test_exact_target_function_of_one_feature(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.normal(size=60), np.zeros(60)])
        y = x[:, 0].copy()
        forest = fit_forest(x, y, ForestConfig(seed=1, n_trees=10, mtry=2))
        for tree in forest.trees:
            assert tree.feature[0] == 0


class TestPredict:
    def test_in_bag_fit_quality_on_learnable_target(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(300, 3))
        y = 3.0 * x[:, 1]
        forest = fit_forest(
            x, y, ForestConfig(seed=7, n_trees=30, min_samples_leaf=2, mtry=3)
        )
        preds = predict(forest, x)
        r2 = 1.0 - np.sum((y - preds) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2 > 0.9


class TestImportances:
    def test_signal_feature_outranks_decoys(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(400, 21))
            y = 3.0 * x[:, 1] + 0.1 * rng.normal(size=400)
            forest = fit_forest(x, y, ForestConfig(seed=seed, n_trees=50))
            ranking = importances(forest)
            assert ranking.order[0] == 1

    def test_importances_sum_to_one(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(200, 5))
        y = x[:, 0] + 2.0 * x[:, 3] + 0.1 * rng.normal(size=200)
        forest = fit_forest(x, y, ForestConfig(seed=3, n_trees=25))
        ranking = importances(forest)
        assert ranking.importance.sum() == pytest.approx(1.0, abs=1e-9)
        assert (ranking.importance >= 0).all()

    def test_permuted_decoy_stays_out_of_top_spot(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(400, 21))
        y = 3.0 * x[:, 1] + 0.1 * rng.normal(size=400)
        x[:, 7] = rng.permutation(x[:, 7])
        forest = fit_forest(x, y, ForestConfig(seed=5, n_trees=50))
        ranking = importances(forest)
        assert ranking.order[0] == 1
        assert ranking.order[0] != 7

    def test_tied_importances_rank_by_column_index(self):
        # A constant target grows single-leaf trees: all importances are
        # zero, so ranking falls back to ascending column order.
        x = np.random.default_rng(0).normal(size=(50, 4))
        forest = fit_forest(x, np.full(50, 2.5), ForestConfig(seed=0, n_trees=5))
        ranking = importances(forest, names=("a", "b", "c", "d"))
        assert list(ranking.order) == [0, 1, 2, 3]
        assert top_k(ranking, 3) == ["a", "b", "c"]

    def test_importances_invariant_under_tree_order(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(120, 4))
        y = x[:, 2] + 0.05 * rng.normal(size=120)
        forest = fit_forest(x, y, ForestConfig(seed=2, n_trees=12))
        flipped = Forest(
            trees=tuple(reversed(forest.trees)),
            n_features=forest.n_features,
            n_samples=forest.n_samples,
            config=forest.config,
            degenerate_target=forest.degenerate_target,
        )
        np.testing.assert_allclose(
            importances(forest).importance,
            importances(flipped).importance,
            rtol=1e-12,
        )

    def test_top_k_frozen_example(self):
        ranking = ImportanceRanking(
            names=("f0", "f1", "f2"),
            importance=np.array([0.5, 0.3, 0.2]),
            order=np.array([0, 1, 2]),
        )
        assert top_k(ranking, 2) == ["f0", "f1"]

    def test_k_beyond_feature_count_rejected(self):
        ranking = ImportanceRanking(
            names=("f0", "f1"), importance=np.array([0.6, 0.4]),
            order=np.array([0, 1]),
        )
        with pytest.raises(KTooLarge):
            top_k(ranking, 3)
        with pytest.raises(KTooLarge):
            top_k(ranking, 0)

    def test_name_count_must_match(self):
        x = np.random.default_rng(0).normal(size=(30, 3))
        forest = fit_forest(x, x[:, 0], ForestConfig(seed=0, n_trees=2))
        with pytest.raises(DimensionMismatch):
            importances(forest, names=("a", "b"))


class TestDeterminism:
    def test_same_seed_same_forest(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(150, 6))
        y = x[:, 0] - x[:, 5] + 0.1 * rng.normal(size=150)
        a = fit_forest(x, y, ForestConfig(seed=17, n_trees=10))
        b = fit_forest(x, y, ForestConfig(seed=17, n_trees=10))
        np.testing.assert_array_equal(
            importances(a).importance, importances(b).importance
        )
        grid = rng.normal(size=(20, 6))
        np.testing.assert_array_equal(predict(a, grid), predict(b, grid))

    def test_different_seed_different_forest(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(150, 6))
        y = x[:, 0] + 0.5 * rng.normal(size=150)
        a = fit_forest(x, y, ForestConfig(seed=17, n_trees=5))
        b = fit_forest(x, y, ForestConfig(seed=18, n_trees=5))
        grid = rng.normal(size=(20, 6))
        assert not np.array_equal(predict(a, grid), predict(b, grid))


class TestDegenerateTarget:
    def test_constant_target_flagged_with_leaf_only_trees(self):
        x = np.random.default_rng(1).normal(size=(40, 3))
        forest = fit_forest(x, np.full(40, 7.0), ForestConfig(seed=0, n_trees=4))
        assert forest.degenerate_target
        for tree in forest.trees:
            assert tree.node_count == 1
        np.testing.assert_allclose(predict(forest, x), 7.0)
        np.testing.assert_allclose(importances(forest).importance, 0.0)

    def test_varying_target_not_flagged(self):
        x = np.random.default_rng(1).normal(size=(40, 3))
        forest = fit_forest(x, x[:, 0], ForestConfig(seed=0, n_trees=2))
        assert not forest.degenerate_target


class TestConfig:
    def test_default_mtry_is_third_of_features(self):
        assert ForestConfig(seed=0).resolve_mtry(851) == 284
        assert ForestConfig(seed=0).resolve_mtry(3) == 1
        assert ForestConfig(seed=0, mtry=5).resolve_mtry(10) == 5

    def test_mtry_beyond_p_rejected(self):
        with pytest.raises(ConfigError):
            ForestConfig(seed=0, mtry=11).resolve_mtry(10)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            ForestConfig(seed=0, n_trees=0)
        with pytest.raises(ConfigError):
            ForestConfig(seed=0, min_samples_leaf=0)
        with pytest.raises(ConfigError):
            ForestConfig(seed=0, max_depth=0)

    def test_bad_training_data_rejected(self):
        config = ForestConfig(seed=0, n_trees=2)
        with pytest.raises(DataError):
            fit_forest(np.zeros((3, 2)), np.array([1.0, 2.0]), config)
        with pytest.raises(DataError):
            fit_forest(np.array([[np.nan, 0.0]] * 4), np.ones(4), config)
        with pytest.raises(DataError):
            fit_forest(np.zeros((1, 2)), np.ones(1), config)
