"""Acceptance gate: ten go/no-go checks on the assembled system.

Each test is one criterion, checked at its stated tolerance and time budget
against independent oracles (plain-loop indicator recomputation, exhaustive
split enumeration, finite differences, an SLSQP quadratic-program solve).
The conftest hook prints a `criterion N: PASS|FAIL` line for each at the end
of the run; test names mirror the numbering.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from walkforge import baselines, cli, forest, indicators, ingest, nets, scaling, splitter
from walkforge.errors import DataError


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: FAIL ({detail})"


# ---------------------------------------------------------------------------
# criterion 1: every indicator kind matches a plain-loop oracle


def _oracle_ema(x, window):
    alpha = 2.0 / (window + 1)
    out = [x[0]]
    for t in range(1, len(x)):
        out.append(alpha * x[t] + (1 - alpha) * out[-1])
    return out


def _oracle_all_kinds(x, w):
    """Every indicator recomputed one value at a time with Python loops."""
    n = len(x)
    nan = float("nan")
    e1 = _oracle_ema(x, w)
    e2 = _oracle_ema(e1, w)
    e3 = _oracle_ema(e2, w)
    slow = _oracle_ema(x, 2 * w)
    out = {
        "ema": e1,
        "dema": [2 * e1[t] - e2[t] for t in range(n)],
        "tema": [3 * e1[t] - 3 * e2[t] + e3[t] for t in range(n)],
        "macd": [e1[t] - slow[t] for t in range(n)],
    }
    for kind in ("sma", "wma", "std", "var", "rsi", "roc", "boll_up", "boll_lo"):
        out[kind] = [nan] * n
    for t in range(n):
        if t >= w - 1:
            seg = x[t - w + 1:t + 1]
            mean = sum(seg) / w
            var = sum((s - mean) ** 2 for s in seg) / (w - 1)  # sample variance
            out["sma"][t] = mean
            out["wma"][t] = sum((i + 1) * seg[i] for i in range(w)) / (w * (w + 1) / 2)
            out["var"][t] = var
            out["std"][t] = math.sqrt(var)
            out["boll_up"][t] = mean + 2 * math.sqrt(var)
            out["boll_lo"][t] = mean - 2 * math.sqrt(var)
        if t >= w:
            diffs = [x[i] - x[i - 1] for i in range(t - w + 1, t + 1)]
            ups = sum(d for d in diffs if d > 0) / w
            downs = sum(-d for d in diffs if d < 0) / w
            out["rsi"][t] = 50.0 if ups + downs == 0 else 100.0 * ups / (ups + downs)
            out["roc"][t] = 100.0 * (x[t] - x[t - w]) / x[t - w]
    return out


def test_criterion_01_indicators_match_brute_force_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        x = 100.0 * np.cumprod(1.0 + 0.01 * rng.standard_normal(300))
        w = (5, 14, 30)[seed % 3]
        oracle = _oracle_all_kinds(list(x), w)
        values, starts = indicators.compute_indicator(x, w)
        for kind, got, valid_from in zip(indicators.KINDS, values, starts):
            want = np.array(oracle[kind])
            assert np.isnan(got[:valid_from]).all()
            scale = np.maximum(np.abs(want[valid_from:]), 1.0)
            err = np.max(np.abs(got[valid_from:] - want[valid_from:]) / scale)
            worst = max(worst, float(err))
    elapsed = time.perf_counter() - start
    _verdict(1, worst <= 1e-9 and elapsed < 10.0,
             f"worst rel err {worst:.3g}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: the full expansion is 851 named features usable from row 179


def test_criterion_02_feature_expansion_shape():
    raw = ingest.synthesize(400, seed=5)
    matrix = indicators.expand_features(raw, (7, 30, 90))
    ok = (len(matrix.names) == 851
          and len(set(matrix.names)) == 851
          and matrix.usable_from == 179
          and matrix.usable().shape == (400 - 179, 851))
    _verdict(2, ok, f"{len(matrix.names)} names, usable_from {matrix.usable_from}")


# ---------------------------------------------------------------------------
# criterion 3: robust scaling standardizes fit rows and inverts exactly


def test_criterion_03_scaler_round_trip_and_standardization():
    rng = np.random.default_rng(7)
    data = rng.normal(50.0, 20.0, size=(200, 6))
    data[::17] *= 100.0  # outliers beyond the fit rows must not matter
    params = scaling.fit(data, slice(0, 120), tuple("abcdef"))
    z = scaling.transform(data, params)
    back = scaling.inverse_transform(z, params)

    round_err = float(np.max(np.abs(back - data) / np.maximum(1.0, np.abs(data))))
    med_err = float(np.max(np.abs(np.median(z[:120], axis=0))))
    iqr = np.quantile(z[:120], 0.75, axis=0) - np.quantile(z[:120], 0.25, axis=0)
    iqr_err = float(np.max(np.abs(iqr - 1.0)))
    ok = round_err <= 1e-12 and med_err <= 1e-12 and iqr_err <= 1e-12
    _verdict(3, ok, f"round {round_err:.2g}, median {med_err:.2g}, iqr {iqr_err:.2g}")


# ---------------------------------------------------------------------------
# criterion 4: the forest finds the signal and its splits are SSE-optimal


def _enumerated_best_sse(x, y, min_leaf):
    n, p = x.shape
    best = None
    for j in range(p):
        order = np.argsort(x[:, j], kind="stable")
        xs, ys = x[order, j], y[order]
        for i in range(min_leaf - 1, n - min_leaf):
            if xs[i] == xs[i + 1]:
                continue
            left, right = ys[:i + 1], ys[i + 1:]
            sse = float(((left - left.mean()) ** 2).sum()
                        + ((right - right.mean()) ** 2).sum())
            if best is None or sse < best:
                best = sse
    return best


def _root_split_sse(xb, yb, tree):
    j, thr = int(tree.feature[0]), float(tree.threshold[0])
    mask = xb[:, j] <= thr
    left, right = yb[mask], yb[~mask]
    return float(((left - left.mean()) ** 2).sum()
                 + ((right - right.mean()) ** 2).sum())


def test_criterion_04_forest_signal_recovery_and_split_optimality():
    start = time.perf_counter()

    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        x = rng.normal(0.0, 1.0, size=(400, 21))
        y = 3.0 * x[:, 1] + 0.1 * rng.normal(size=400)
        model = forest.fit_forest(x, y, forest.ForestConfig(
            seed=seed, n_trees=20, max_depth=None, min_samples_leaf=5, mtry=None))
        ranking = forest.importances(model, tuple(f"f{j}" for j in range(21)))
        total = float(ranking.importance.sum())
        assert abs(total - 1.0) <= 1e-9 and ranking.importance.min() >= 0.0
        hits += int(ranking.order[0] == 1)

    checked = 0
    optimal = True
    for trial in range(40):
        rng = np.random.default_rng(4000 + trial)
        n = 2 + trial % 11  # 2..12: small enough to enumerate every split
        p = 1 + trial % 3
        x = rng.integers(0, 6, size=(n, p)).astype(np.float64)
        y = np.round(rng.normal(size=n), 1)
        cfg = forest.ForestConfig(seed=7000 + trial, n_trees=1, max_depth=None,
                                  min_samples_leaf=1, mtry=p)
        model = forest.fit_forest(x, y, cfg)
        rows = np.random.default_rng(cfg.seed).integers(0, n, size=n)
        xb, yb = x[rows], y[rows]
        tree = model.trees[0]
        best = _enumerated_best_sse(xb, yb, 1)
        if np.ptp(y) == 0.0 or best is None:
            continue
        if len(tree.feature) == 1:
            continue
        checked += 1
        if not np.isclose(_root_split_sse(xb, yb, tree), best, rtol=1e-9, atol=1e-9):
            optimal = False

    elapsed = time.perf_counter() - start
    ok = hits >= 19 and optimal and checked >= 25 and elapsed < 60.0
    _verdict(4, ok, f"signal {hits}/20, {checked} splits optimal={optimal}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: walk-forward batches tile the horizon and match enumeration


def test_criterion_05_walk_forward_plan():
    plan = splitter.make_batches(1100, 500, 100, 100)
    spans = [(b.train_start, b.train_end, b.test_start, b.test_end)
             for b in plan.batches]
    expected = [(k * 100, k * 100 + 500, k * 100 + 500, k * 100 + 600)
                for k in range(6)]
    tiles = spans == expected  # 6 batches, contiguous disjoint tests on [500, 1100)

    agreement = True
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(1, 2000))
        train = int(rng.integers(1, 800))
        test = int(rng.integers(1, 300))
        stride = int(rng.integers(1, 300))
        want = []
        k = 0
        while k * stride + train + test <= n:
            s = k * stride
            want.append((s, s + train, s + train, s + train + test))
            k += 1
        try:
            got = [(b.train_start, b.train_end, b.test_start, b.test_end)
                   for b in splitter.make_batches(n, train, test, stride).batches]
        except DataError:
            got = None
        if (got if got is not None else []) != want or (got is None) != (not want):
            agreement = False
    _verdict(5, tiles and agreement, f"tiling={tiles}, oracle agreement={agreement}")


# ---------------------------------------------------------------------------
# criterion 6: backpropagation matches central finite differences


def test_criterion_06_gradients_match_finite_differences():
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(600 + seed)
        h1 = 2 + seed % 3
        h2 = 2 + (seed // 3) % 3
        lookback = 1 + seed % 3
        n_feat = 1 + (seed // 2) % 3
        net = nets.build_network(n_feat, hidden1=h1, hidden2=h2, dropout_rate=0.0,
                                 bidirectional=bool(seed % 2), seed=seed)
        # Jitter every parameter off the freshly-initialized point: with the
        # candidate biases at exactly zero, a sample whose first-layer
        # activations are all ReLU-dead parks the second layer's output
        # exactly on the ReLU kink, where the loss is not differentiable and
        # central differences halve the one-sided slope.
        for arr in net.param_dict().values():
            arr += rng.uniform(-0.05, 0.05, size=arr.shape)
        x = rng.normal(size=(3, lookback, n_feat))
        targets = rng.normal(size=3)

        preds, cache = nets.network_forward(net, x, "train", seed=0)
        _, d_preds = nets.logcosh_loss(np.atleast_1d(preds), targets)
        grads = nets.network_backward(net, cache, d_preds)

        def loss_now():
            preds, _ = nets.network_forward(net, x, "eval")
            loss, _ = nets.logcosh_loss(np.atleast_1d(preds), targets)
            return loss

        for key, arr in net.param_dict().items():
            flat = arr.ravel()
            for idx in range(flat.size):
                old = flat[idx]
                flat[idx] = old + h
                up = loss_now()
                flat[idx] = old - h
                down = loss_now()
                flat[idx] = old
                fd = (up - down) / (2 * h)
                got = float(np.asarray(grads[key]).ravel()[idx])
                rel = abs(got - fd) / max(abs(got) + abs(fd), 1e-4)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _verdict(6, worst < 1e-5 and elapsed < 30.0,
             f"worst rel err {worst:.3g}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: the loss is quadratic near zero, linear far out, never inf


def test_criterion_07_loss_asymptotics():
    quad_ok = True
    for r in [0.0, 1e-9, 1e-6, 1e-4, 1e-3, -1e-3, -1e-5]:
        loss, _ = nets.logcosh_loss(np.array([r]), np.array([0.0]))
        quad_ok &= abs(loss - r * r / 2.0) <= 1e-9

    lin_ok = True
    for r in [20.0, -20.0, 50.0, -50.0, 300.0, -300.0]:
        loss, grad = nets.logcosh_loss(np.array([r]), np.array([0.0]))
        lin_ok &= abs(loss - (abs(r) - math.log(2.0))) <= 1e-6
        lin_ok &= abs(grad[0] - math.copysign(1.0, r)) <= 1e-12

    loss, grad = nets.logcosh_loss(np.array([1e300, -1e300]), np.zeros(2))
    big_ok = np.isfinite(loss) and np.isfinite(grad).all()
    _verdict(7, quad_ok and lin_ok and bool(big_ok),
             f"quadratic={quad_ok}, linear={lin_ok}, 1e300 finite={bool(big_ok)}")


# ---------------------------------------------------------------------------
# criterion 8: SVR duals match a quadratic-programming oracle


def _qp_min_dual(k, y, c, epsilon):
    n = len(y)

    def objective(v):
        beta = v[:n] - v[n:]
        return 0.5 * beta @ k @ beta - y @ beta + epsilon * v.sum()

    def gradient(v):
        kb = k @ (v[:n] - v[n:])
        return np.concatenate([kb - y + epsilon, -kb + y + epsilon])

    constraint = {
        "type": "eq",
        "fun": lambda v: float(np.sum(v[:n]) - np.sum(v[n:])),
        "jac": lambda v: np.concatenate([np.ones(n), -np.ones(n)]),
    }
    best = np.inf
    for start in range(3):
        x0 = np.random.default_rng(start).uniform(0.0, min(c, 1.0), 2 * n)
        res = minimize(objective, x0, jac=gradient, method="SLSQP",
                       bounds=[(0.0, c)] * 2 * n, constraints=[constraint],
                       options={"maxiter": 1000, "ftol": 1e-14})
        best = min(best, res.fun)
    return best


def _kkt_worst(model, x, y):
    n = len(y)
    beta = np.zeros(n)
    beta[model.support_idx] = model.dual_coef
    err = (baselines.rbf_kernel(x, x, model.gamma) @ beta + model.bias) - y
    eps, c = model.epsilon, model.c
    atol = 1e-8 * max(1.0, c)
    worst = 0.0
    for i in range(n):
        if abs(beta[i]) <= atol:
            viol = max(0.0, abs(err[i]) - eps)
        elif beta[i] >= c - atol:
            viol = max(0.0, err[i] + eps)
        elif beta[i] <= -c + atol:
            viol = max(0.0, eps - err[i])
        elif beta[i] > 0:
            viol = abs(err[i] + eps)
        else:
            viol = abs(err[i] - eps)
        worst = max(worst, float(viol))
    return worst


def test_criterion_08_svr_optimality():
    c, eps, gamma = 10.0, 0.1, 1.0
    gap_worst = 0.0
    kkt_worst = 0.0
    all_converged = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-2.0, 2.0, size=4))[:, None]
        while np.min(np.diff(x[:, 0])) < 1e-3:
            x = np.sort(rng.uniform(-2.0, 2.0, size=4))[:, None]
        y = rng.normal(size=4)
        model = baselines.fit_svr(x, y, c=c, epsilon=eps, gamma=gamma,
                                  tol=1e-6, max_iter=50_000)
        all_converged &= model.converged
        oracle = _qp_min_dual(baselines.rbf_kernel(x, x, gamma), y, c, eps)
        gap_worst = max(gap_worst, abs(model.dual_objective - oracle))
        kkt_worst = max(kkt_worst, _kkt_worst(model, x, y))
    ok = all_converged and gap_worst <= 1e-4 and kkt_worst < 1e-3
    _verdict(8, ok, f"converged={all_converged}, dual gap {gap_worst:.2g}, "
                    f"kkt {kkt_worst:.2g}")


# ---------------------------------------------------------------------------
# criteria 9 and 10: the reference pipeline command beats drift-free
# persistence within 10% and reproduces byte-identically


_REFERENCE_ARGS = ["--synthetic", "1100", "--seed", "7", "--h1", "16",
                   "--h2", "32", "--lookback", "7", "--epochs", "30"]


def _run_reference(out_dir):
    start = time.perf_counter()
    rc = cli.main(["pipeline", *_REFERENCE_ARGS, "--out", str(out_dir)])
    return rc, time.perf_counter() - start


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference") / "out"
    rc, elapsed = _run_reference(out)
    return out, rc, elapsed


def test_criterion_09_reference_run_quality(reference_run):
    out, rc, elapsed = reference_run
    with open(os.path.join(str(out), "report.json")) as f:
        blob = json.load(f)

    complete = True
    for block in ("mean", "median"):
        for model in ("lr", "svr", "lstm", "proposed", "persistence"):
            for split in ("train", "test"):
                complete &= split in blob["aggregates"][block].get(model, {})

    proposed = blob["aggregates"]["mean"]["proposed"]["test"]["mape"]
    persistence = blob["aggregates"]["mean"]["persistence"]["test"]["mape"]
    ratio = proposed / persistence
    ok = rc == 0 and elapsed < 600.0 and complete and ratio <= 1.1
    _verdict(9, ok, f"rc={rc}, {elapsed:.0f}s, complete={complete}, "
                    f"mape ratio {ratio:.3f} (<= 1.1)")


def test_criterion_10_reference_run_reproducibility(reference_run, tmp_path):
    out, rc, _ = reference_run
    out2 = tmp_path / "out2"
    rc2, _ = _run_reference(out2)
    with open(os.path.join(str(out), "report.json"), "rb") as f:
        first = f.read()
    with open(os.path.join(str(out2), "report.json"), "rb") as f:
        second = f.read()
    ok = rc == 0 and rc2 == 0 and first == second
    _verdict(10, ok, f"byte-identical={first == second}")
