"""Linear and kernel baselines: closed-form checks, QP oracle, KKT."""

import numpy as np
import pytest
from scipy.optimize import minimize

from walkforge import baselines
from walkforge.baselines import (
    LinearModel,
    dual_objective,
    fit_linear,
    fit_svr,
    load_linear,
    load_svr,
    predict_linear,
    predict_svr,
    rbf_kernel,
    save_linear,
    save_svr,
)
from walkforge.errors import ConfigError, DataError

# --- linear ------------------------------------------------------------------


class TestLinear:
    def test_exact_line_recovered(self):
        x = np.linspace(-3, 3, 40)[:, None]
        y = 2.0 * x[:, 0] + 1.0
        model = fit_linear(x, y)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-6)
        assert model.bias == pytest.approx(1.0, abs=1e-6)

    def test_constant_target_is_all_bias(self):
        x = np.random.default_rng(0).normal(size=(30, 3))
        model = fit_linear(x, np.full(30, 4.25))
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-6)
        assert model.bias == pytest.approx(4.25, abs=1e-6)

    def test_duplicated_column_changes_nothing(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 2))
        y = x[:, 0] - 0.5 * x[:, 1] + 0.1 * rng.normal(size=50)
        plain = fit_linear(x, y)
        doubled = fit_linear(np.hstack([x, x[:, :1]]), y)
        grid = rng.normal(size=(10, 2))
        np.testing.assert_allclose(
            predict_linear(doubled, np.hstack([grid, grid[:, :1]])),
            predict_linear(plain, grid),
            atol=1e-6,
        )

    def test_normal_equation_stationarity(self):
        # At the fit, the ridge-regularized gradient over [x, 1] vanishes.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        model = fit_linear(x, y)
        a = np.hstack([x, np.ones((60, 1))])
        beta = np.append(model.weights, model.bias)
        grad = a.T @ (a @ beta - y) + baselines.RIDGE * beta
        assert np.linalg.norm(grad) <= 1e-6 * max(1.0, np.linalg.norm(a.T @ y))

    def test_predict_one_row(self):
        model = LinearModel(weights=np.array([2.0]), bias=1.0)
        np.testing.assert_allclose(predict_linear(model, np.array([[3.0]])), [7.0])

    def test_width_mismatch_rejected(self):
        model = LinearModel(weights=np.array([1.0, 2.0]), bias=0.0)
        with pytest.raises(DataError, match="expected 2 features, got 3"):
            predict_linear(model, np.zeros((4, 3)))

    def test_bad_inputs_rejected(self):
        with pytest.raises(DataError, match="non-finite values"):
            fit_linear(np.array([[np.nan]]), np.array([1.0]))
        with pytest.raises(DataError):
            fit_linear(np.zeros((3, 2)), np.zeros(4))

    def test_save_load_round_trip(self, tmp_path):
        model = fit_linear(np.linspace(0, 1, 20)[:, None],
                           np.linspace(3, 5, 20))
        path = str(tmp_path / "linear.bin")
        save_linear(model, path)
        back = load_linear(path)
        np.testing.assert_array_equal(back.weights, model.weights)
        assert back.bias == model.bias


# --- kernel ------------------------------------------------------------------


class TestRbfKernel:
    def test_unit_diagonal_and_hand_value(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        k = rbf_kernel(a, a, gamma=0.5)
        np.testing.assert_allclose(np.diag(k), 1.0)
        assert k[0, 1] == pytest.approx(np.exp(-0.5 * 2.0))
        assert k[0, 1] == k[1, 0]

    def test_gram_matrix_exactly_symmetric(self):
        # The SVR solver reads kernel rows in place of columns.
        x = np.random.default_rng(3).normal(size=(60, 70))
        k = rbf_kernel(x, x, gamma=1.0 / 70)
        np.testing.assert_array_equal(k, k.T)

    def test_distance_monotone(self):
        a = np.array([[0.0]])
        b = np.array([[1.0], [2.0], [3.0]])
        k = rbf_kernel(a, b, gamma=1.0)[0]
        assert k[0] > k[1] > k[2]


def brute_force_min_dual(k, y, c, epsilon):
    """Minimize 0.5 b'Kb - y'b + eps*||b||_1 s.t. sum(b) = 0, |b_i| <= c,
    via the smooth positive/negative split solved by SLSQP."""
    n = len(y)

    def objective(v):
        beta = v[:n] - v[n:]
        return 0.5 * beta @ k @ beta - y @ beta + epsilon * v.sum()

    def gradient(v):
        beta = v[:n] - v[n:]
        kb = k @ beta
        return np.concatenate([kb - y + epsilon, -kb + y + epsilon])

    constraint = {
        "type": "eq",
        "fun": lambda v: float(np.sum(v[:n]) - np.sum(v[n:])),
        "jac": lambda v: np.concatenate([np.ones(n), -np.ones(n)]),
    }
    best = np.inf
    for start in range(3):
        x0 = np.random.default_rng(start).uniform(0.0, min(c, 1.0), 2 * n)
        res = minimize(
            objective, x0, jac=gradient, method="SLSQP",
            bounds=[(0.0, c)] * 2 * n, constraints=[constraint],
            options={"maxiter": 1000, "ftol": 1e-14},
        )
        if res.fun < best:
            best, beta = res.fun, res.x[:n] - res.x[n:]
    return best, beta


def kkt_residuals(model, x, y):
    """Independent statement of the optimality conditions at the fit."""
    n = len(y)
    beta = np.zeros(n)
    beta[model.support_idx] = model.dual_coef
    err = (rbf_kernel(x, x, model.gamma) @ beta + model.bias) - y
    eps, c = model.epsilon, model.c
    atol = 1e-8 * max(1.0, c)
    out = np.zeros(n)
    for i in range(n):
        if abs(beta[i]) <= atol:
            out[i] = max(0.0, abs(err[i]) - eps)
        elif beta[i] >= c - atol:
            out[i] = max(0.0, err[i] + eps)
        elif beta[i] <= -c + atol:
            out[i] = max(0.0, eps - err[i])
        elif beta[i] > 0:
            out[i] = abs(err[i] + eps)
        else:
            out[i] = abs(err[i] - eps)
    return out


def four_point_instance(seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-2.0, 2.0, size=4))[:, None]
    while np.min(np.diff(x[:, 0])) < 1e-3:
        x = np.sort(rng.uniform(-2.0, 2.0, size=4))[:, None]
    y = rng.normal(size=4)
    return x, y


class TestSvrOptimality:
    @pytest.mark.parametrize("seed", range(20))
    def test_dual_matches_qp_oracle_on_four_points(self, seed):
        x, y = four_point_instance(seed)
        c, eps, gamma = 10.0, 0.1, 1.0
        # tol=1e-6 is the tightest the pairwise steps can certify before
        # float rounding stalls the KKT metric at the optimum itself.
        model = fit_svr(x, y, c=c, epsilon=eps, gamma=gamma,
                        tol=1e-6, max_iter=50_000)
        assert model.converged
        k = rbf_kernel(x, x, gamma)
        want, beta_star = brute_force_min_dual(k, y, c, eps)
        assert model.dual_objective == pytest.approx(want, abs=1e-4)

        # With an interior support vector the oracle's bias is pinned, so
        # the two solutions must predict alike on the training points.
        atol = 1e-6 * c
        interior = (np.abs(beta_star) > atol) & (np.abs(beta_star) < c - atol)
        if interior.any():
            i = int(np.nonzero(interior)[0][0])
            bias_star = y[i] - (k @ beta_star)[i] - eps * np.sign(beta_star[i])
            want_preds = k @ beta_star + bias_star
            np.testing.assert_allclose(predict_svr(model, x), want_preds, atol=1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kkt_residuals_below_tolerance(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(25, 3))
        y = np.sin(x[:, 0]) + 0.3 * x[:, 1]
        model = fit_svr(x, y, c=5.0, epsilon=0.05, tol=1e-4)
        assert model.converged
        assert kkt_residuals(model, x, y).max() < 1e-3

    def test_stored_dual_matches_recomputation(self):
        x, y = four_point_instance(3)
        model = fit_svr(x, y, c=10.0, epsilon=0.1, gamma=1.0)
        n = len(y)
        beta = np.zeros(n)
        beta[model.support_idx] = model.dual_coef
        k = rbf_kernel(x, x, 1.0)
        assert model.dual_objective == pytest.approx(
            dual_objective(k, y, beta, 0.1), rel=1e-12, abs=1e-15
        )


def pipeline_shaped_instance(n=500, lookback=7, width=10, seed=0):
    """Flattened lookback windows of median/IQR-scaled random walks, as
    stage_train feeds the SVR: p = lookback * width columns, target the
    next level."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(size=(n + lookback, width)), axis=0)
    q1, median, q3 = np.percentile(walk, [25, 50, 75], axis=0)
    walk = (walk - median) / (q3 - q1)
    x = np.stack([walk[t:t + lookback].ravel() for t in range(n)])
    return x, walk[lookback:, 0]


class TestSvrSolver:
    def test_pipeline_shaped_problem_converges(self):
        x, y = pipeline_shaped_instance()
        assert x.shape == (500, 70)
        model = fit_svr(x, y, c=100.0, epsilon=0.1, tol=1e-3)
        assert model.converged
        assert model.iterations < 100_000
        assert kkt_residuals(model, x, y).max() < 1e-3

    def test_dual_objective_never_increases(self):
        x, y = pipeline_shaped_instance(n=60, seed=1)
        objs = [fit_svr(x, y, c=100.0, epsilon=0.1, max_iter=m).dual_objective
                for m in range(1, 51)]
        assert objs[-1] < objs[0]
        assert np.all(np.diff(objs) <= 1e-12 * np.abs(objs[:-1]))

    def test_full_check_alone_sets_converged(self, monkeypatch):
        x, y = pipeline_shaped_instance(n=60, seed=2)
        passed = fit_svr(x, y, c=100.0, epsilon=0.1)
        assert passed.converged and passed.iterations < 100_000

        def always_violated(beta, err, epsilon, c):
            return np.ones_like(beta)

        # the pair gap still stops the loop at the same iteration
        monkeypatch.setattr(baselines, "_kkt_violations", always_violated)
        failed = fit_svr(x, y, c=100.0, epsilon=0.1)
        assert failed.iterations == passed.iterations
        assert not failed.converged


def set_based_pair_delta(beta_i, beta_j, gd, eta, epsilon, c):
    """The pair step as first written: candidates gathered in a set, kinks
    through a sorted list, the objective change as a closure. Returns
    (result, every candidate that attains the result's change)."""
    s = beta_i + beta_j
    lo = max(-c, s - c)
    hi = min(c, s + c)
    if not lo < hi:
        return None, []

    def delta(t):
        step = t - beta_i
        return (
            0.5 * eta * step * step
            + gd * step
            + epsilon * (abs(t) - abs(beta_i))
            + epsilon * (abs(s - t) - abs(beta_j))
        )

    candidates = {lo, hi}
    breaks = sorted({lo, hi} | {b for b in (0.0, s) if lo < b < hi})
    if eta > 0.0:
        for left, right in zip(breaks[:-1], breaks[1:]):
            mid = (left + right) / 2.0
            sign1 = 1.0 if mid >= 0.0 else -1.0
            sign2 = 1.0 if (s - mid) >= 0.0 else -1.0
            t_star = beta_i - (gd + epsilon * (sign1 - sign2)) / eta
            candidates.add(min(max(t_star, left), right))
    candidates.update(b for b in (0.0, s) if lo <= b <= hi)

    best_t, best_d = None, -1e-14
    for t in candidates:
        d = delta(t)
        if d < best_d:
            best_t, best_d = t, d
    if best_t is None:
        return None, []
    return (float(best_t), float(best_d)), [t for t in candidates if delta(t) == best_d]


def pair_delta_inputs(count, seed):
    """Random pairs inside the box, and pairs built from kinks, box ends,
    zero curvature and zero epsilon."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        c = float(rng.choice([0.5, 1.0, 2.0, 100.0]))
        if k % 2:
            grid = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 50.0, -50.0, 1e-13, c, -c, c / 3]
            beta_i, beta_j = (max(-c, min(c, float(rng.choice(grid)))) for _ in range(2))
            gd = float(rng.choice([0.0, 0.1, -0.1, 0.2, -0.2, 1.0, -3.0]))
            eta = float(rng.choice([0.0, 1e-12, 0.5, 1.0, 2.0]))
            epsilon = float(rng.choice([0.0, 0.05, 0.1]))
        else:
            beta_i, beta_j = (float(v) for v in rng.uniform(-c, c, size=2))
            gd = float(rng.normal() * rng.choice([0.01, 1.0, 10.0]))
            eta = float(abs(rng.normal()) * rng.choice([0.0, 1e-6, 1.0, 2.0]))
            epsilon = float(rng.choice([0.0, 0.1, 1.0]))
        yield beta_i, beta_j, gd, eta, epsilon, c


class TestPairDelta:
    def test_matches_set_based_step(self):
        # The result is the same (t, change) pair. Where several candidates
        # tie on the change, the set's iteration order picked one of them,
        # so any tied candidate is accepted there.
        exact = tied = 0
        for args in pair_delta_inputs(20_000, seed=0):
            got = baselines._pair_delta(*args)
            want, ties = set_based_pair_delta(*args)
            if want is None or len(set(ties)) == 1:
                assert got == want, args
                exact += 1
            else:
                assert got is not None and got[1] == want[1], args
                assert got[0] in ties, args
                tied += 1
        assert exact >= 19_000 and tied < 1_000


class TestSvrBehavior:
    def test_flat_tube_needs_no_support_vectors(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        y = 3.0 + 0.01 * rng.normal(size=20)
        model = fit_svr(x, y, c=10.0, epsilon=0.5)
        assert model.converged
        assert len(model.dual_coef) == 0
        preds = predict_svr(model, x)
        np.testing.assert_allclose(preds, model.bias)
        assert np.all(np.abs(preds - y) <= 0.5 + 1e-9)

    def test_model_without_support_vectors_round_trips(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        model = fit_svr(x, 3.0 + 0.01 * rng.normal(size=20), c=10.0, epsilon=0.5)
        path = str(tmp_path / "svr.bin")
        save_svr(model, path)
        back = load_svr(path)
        assert back.support_vectors.shape == model.support_vectors.shape == (0, 2)
        assert back.bias == model.bias
        np.testing.assert_array_equal(predict_svr(back, x), predict_svr(model, x))

    def test_points_inside_the_tube_carry_no_weight(self):
        rng = np.random.default_rng(5)
        x = np.linspace(-2, 2, 30)[:, None]
        y = np.sin(x[:, 0]) + 0.02 * rng.normal(size=30)
        eps = 0.15
        model = fit_svr(x, y, c=50.0, epsilon=eps, gamma=1.0,
                        tol=1e-6)
        assert model.converged
        beta = np.zeros(30)
        beta[model.support_idx] = model.dual_coef
        err = np.abs(predict_svr(model, x) - y)
        inside = err < eps - 1e-6
        assert np.all(np.abs(beta[inside]) < 1e-8)

    def test_coefficients_balance_to_zero(self):
        x, y = four_point_instance(6)
        model = fit_svr(x, y, c=10.0, epsilon=0.05, gamma=1.0)
        assert abs(model.dual_coef.sum()) < 1e-6
        rng = np.random.default_rng(7)
        x2 = rng.normal(size=(30, 2))
        y2 = x2[:, 0] ** 2
        model2 = fit_svr(x2, y2, c=3.0, epsilon=0.05)
        beta = np.zeros(30)
        beta[model2.support_idx] = model2.dual_coef
        assert abs(beta.sum()) < 1e-6

    def test_prediction_is_kernel_expansion(self):
        x, y = four_point_instance(8)
        model = fit_svr(x, y, c=10.0, epsilon=0.05, gamma=1.0)
        grid = np.linspace(-3, 3, 9)[:, None]
        want = rbf_kernel(grid, model.support_vectors, 1.0) @ model.dual_coef + model.bias
        np.testing.assert_allclose(predict_svr(model, grid), want, rtol=1e-15)

    def test_iteration_starvation_returns_flagged_model(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 2))
        y = np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1])
        model = fit_svr(x, y, c=100.0, epsilon=0.01, max_iter=3)
        assert not model.converged
        assert model.iterations == 3
        assert np.isfinite(predict_svr(model, x)).all()

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(25, 2))
        y = x[:, 0] - x[:, 1] ** 2
        a = fit_svr(x, y, c=5.0, epsilon=0.05)
        b = fit_svr(x, y, c=5.0, epsilon=0.05)
        np.testing.assert_array_equal(a.dual_coef, b.dual_coef)
        assert a.bias == b.bias
        assert a.iterations == b.iterations

    def test_gamma_defaults_to_one_over_features(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(10, 4))
        model = fit_svr(x, rng.normal(size=10), c=1.0, epsilon=0.1)
        assert model.gamma == pytest.approx(0.25)

    def test_bad_parameters_rejected(self):
        x = np.zeros((4, 1))
        y = np.zeros(4)
        with pytest.raises(ConfigError):
            fit_svr(x, y, c=0.0)
        with pytest.raises(ConfigError):
            fit_svr(x, y, epsilon=-0.1)
        with pytest.raises(ConfigError):
            fit_svr(x, y, gamma=0.0)
        with pytest.raises(ConfigError):
            fit_svr(x, y, max_iter=0)

    def test_save_load_round_trip(self, tmp_path):
        x, y = four_point_instance(12)
        model = fit_svr(x, y, c=10.0, epsilon=0.05, gamma=1.0)
        path = str(tmp_path / "svr.bin")
        save_svr(model, path)
        back = load_svr(path)
        assert back.converged == model.converged
        assert back.bias == model.bias
        assert back.dual_objective == model.dual_objective
        grid = np.linspace(-2, 2, 7)[:, None]
        np.testing.assert_array_equal(
            predict_svr(back, grid), predict_svr(model, grid)
        )

    def test_linear_checkpoint_is_not_an_svr(self, tmp_path):
        model = fit_linear(np.linspace(0, 1, 10)[:, None], np.linspace(0, 1, 10))
        path = str(tmp_path / "model.bin")
        save_linear(model, path)
        with pytest.raises(DataError, match="holds a 'linear' artifact, expected 'svr'"):
            load_svr(path)
