"""Non-recurrent baselines over flattened lookback windows.

Linear regression solves the ridge-jittered normal equations. The epsilon-
insensitive RBF support-vector regressor is trained by sequential minimal
optimization on the net dual coefficients beta_i = alpha_i - alpha_i*:
pick a pair by second-order working-set selection, solve the two-variable
subproblem exactly (the epsilon|beta| kinks make it piecewise quadratic
over at most three segments), and stop when the pair gap falls below tol.
A full per-point KKT check at the end decides whether the fit converged.
The equality constraint sum(beta) = 0 is preserved exactly by every pair
update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _binio
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y) or len(y) < 1:
        raise DataError(f"bad training shapes {x.shape} / {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("inputs contain non-finite values")
    return x, y


# The ridge jitter fit_linear adds to the Gram diagonal, for rank safety.
RIDGE = 1e-8


def fit_linear(x: np.ndarray, y: np.ndarray) -> LinearModel:
    """Normal equations on [x, 1] with the RIDGE jitter."""
    x, y = _check_xy(x, y)
    a = np.hstack([x, np.ones((len(x), 1))])
    gram = a.T @ a + RIDGE * np.eye(a.shape[1])
    beta = np.linalg.solve(gram, a.T @ y)
    return LinearModel(weights=beta[:-1], bias=float(beta[-1]))


def predict_linear(model: LinearModel, x: np.ndarray) -> np.ndarray:
    """One prediction per row of the 2-D x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != len(model.weights):
        raise DataError(f"expected {len(model.weights)} features, got {x.shape[1]}")
    return x @ model.weights + model.bias


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for every pair of rows."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass(frozen=True)
class SvrModel:
    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    gamma: float
    c: float
    epsilon: float
    tol: float
    max_iter: int
    support_idx: np.ndarray
    converged: bool
    iterations: int
    dual_objective: float


def dual_objective(k: np.ndarray, y: np.ndarray, beta: np.ndarray, epsilon: float) -> float:
    """0.5 b'Kb - y'b + eps*||b||_1, the minimization form of the dual."""
    return float(0.5 * beta @ k @ beta - y @ beta + epsilon * np.abs(beta).sum())


def _kkt_violations(beta: np.ndarray, err: np.ndarray, epsilon: float, c: float) -> np.ndarray:
    """Per-point KKT residual given err = f(x) - y at the current bias.

    Free points must sit inside the tube, positive (negative) coefficients
    pin err to -eps (+eps), and bound coefficients may only overshoot.
    """
    atol = 1e-9 * max(1.0, c)
    at_zero = np.abs(beta) <= atol
    at_upper = beta >= c - atol
    at_lower = beta <= -c + atol
    pos_free = (beta > atol) & ~at_upper
    neg_free = (beta < -atol) & ~at_lower

    viol = np.zeros_like(beta)
    viol[at_zero] = np.maximum(0.0, np.abs(err[at_zero]) - epsilon)
    viol[pos_free] = np.abs(err[pos_free] + epsilon)
    viol[neg_free] = np.abs(err[neg_free] - epsilon)
    viol[at_upper & ~at_zero] = np.maximum(0.0, err[at_upper & ~at_zero] + epsilon)
    viol[at_lower & ~at_zero] = np.maximum(0.0, epsilon - err[at_lower & ~at_zero])
    return viol


def _bias(beta: np.ndarray, g_minus_y: np.ndarray, epsilon: float, c: float) -> float:
    atol = 1e-9 * max(1.0, c)
    interior = (np.abs(beta) > atol) & (np.abs(beta) < c - atol)
    if interior.any():
        # interior coefficients pin f(x_i) = y_i - eps*sign(beta_i) exactly
        return float(np.mean(-g_minus_y[interior] - epsilon * np.sign(beta[interior])))
    # otherwise the midpoint of the bias interval the bound points leave open
    up = g_minus_y + epsilon * np.where(beta >= 0.0, 1.0, -1.0)
    dn = -g_minus_y + epsilon * np.where(beta <= 0.0, 1.0, -1.0)
    can_up, can_dn = beta < c, beta > -c
    lo = -np.min(up[can_up]) if can_up.any() else None
    hi = np.min(dn[can_dn]) if can_dn.any() else None
    if lo is None:
        return float(hi)
    if hi is None:
        return float(lo)
    return float((lo + hi) / 2.0)


def _pair_delta(
    beta_i: float, beta_j: float, gd: float, eta: float, epsilon: float, c: float,
) -> tuple[float, float] | None:
    """Exact minimizer of the dual restricted to beta_i + beta_j constant.

    gd is (g - y)_i - (g - y)_j and eta is K_ii + K_jj - 2 K_ij. Returns
    (new beta_i, objective change) or None when no strict descent exists
    along this pair.
    """
    s = beta_i + beta_j
    # the box [lo, hi] and the kinks of epsilon|t| and epsilon|s - t|, in order
    if s > 0.0:
        lo, hi, kinks = s - c, c, (0.0, s)
    elif s < 0.0:
        lo, hi, kinks = -c, s + c, (s, 0.0)
    else:
        lo, hi, kinks = -c, c, (0.0,)
    if not lo < hi:
        return None

    # the minimum lies at an end, at a kink inside the box, or at the
    # stationary point inside one segment between them; each is listed once
    candidates = [lo, hi]
    left = lo
    for right in (*kinks, hi):
        if not left < right <= hi:  # a kink outside (lo, hi]
            continue
        if right < hi:
            candidates.append(right)
        if eta > 0.0:
            mid = (left + right) / 2.0
            sign1 = 1.0 if mid >= 0.0 else -1.0
            sign2 = 1.0 if (s - mid) >= 0.0 else -1.0
            t_star = beta_i - (gd + epsilon * (sign1 - sign2)) / eta
            if left < t_star < right:
                candidates.append(t_star)
        left = right

    abs_i, abs_j = abs(beta_i), abs(beta_j)
    best_t, best_d = None, -1e-14
    for t in candidates:
        step = t - beta_i
        d = (
            0.5 * eta * step * step
            + gd * step
            + epsilon * (abs(t) - abs_i)
            + epsilon * (abs(s - t) - abs_j)
        )
        if d < best_d:
            best_t, best_d = t, d
    if best_t is None:
        return None
    return float(best_t), float(best_d)


def _offsets(b: float, epsilon: float, c: float) -> tuple[float, float]:
    """Slope offsets of raising and of lowering one coefficient at b: the
    epsilon|b| kink picks the sign, and inf marks a side the box closes."""
    up = math.inf if b >= c else (epsilon if b >= 0.0 else -epsilon)
    dn = math.inf if b <= -c else (epsilon if b <= 0.0 else -epsilon)
    return up, dn


_TAU = 1e-12  # added to pair curvatures so duplicate points never divide by zero


def check_svr(c: float, epsilon: float, gamma: float | None, tol: float, max_iter: int) -> None:
    """fit_svr's ranges, which RunConfig also checks; gamma None stands for
    1 / n_features, which is positive."""
    if c <= 0 or epsilon < 0 or tol <= 0 or max_iter < 1:
        raise ConfigError(
            f"need c > 0, epsilon >= 0, tol > 0, max_iter >= 1; "
            f"got {c}/{epsilon}/{tol}/{max_iter}"
        )
    if gamma is not None and gamma <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")


def fit_svr(
    x: np.ndarray,
    y: np.ndarray,
    c: float = 100.0,
    epsilon: float = 0.1,
    gamma: float | None = None,
    tol: float = 1e-3,
    max_iter: int = 100_000,
) -> SvrModel:
    """SMO on the precomputed RBF Gram matrix; gamma defaults to
    1 / n_features.

    Each iteration raises the coefficient with the steepest upward slope
    and lowers the partner that maximises the second-order gain
    (up_i + dn_j)^2 / eta_ij (Fan, Chen & Lin 2005), falling back to the
    steepest downward slope when that pair cannot descend. The loop stops
    when the pair gap -(min up + min dn) drops below tol, when no pair
    descends, or at max_iter. converged is then set by the full per-point
    KKT check alone. Hitting max_iter returns the best-so-far model with
    converged=False instead of raising. The solver is deterministic.
    """
    x, y = _check_xy(x, y)
    check_svr(c, epsilon, gamma, tol, max_iter)
    n, p = x.shape
    if gamma is None:
        gamma = 1.0 / p

    k = rbf_kernel(x, x, gamma)  # exactly symmetric: row k[i] is column i
    diag = k.diagonal()
    half_diag = 0.5 * diag
    beta = np.zeros(n)
    gy = -y  # (K @ beta) - y, updated in place
    up_off = np.full(n, epsilon)  # up_i = gy_i + up_off_i
    dn_off = np.full(n, epsilon)  # dn_i = -gy_i + dn_off_i
    up, dn, gain, half_eta, work = (np.empty(n) for _ in range(5))
    iterations = 0

    for iterations in range(1, max_iter + 1):
        np.add(gy, up_off, out=up)
        np.subtract(dn_off, gy, out=dn)
        i = int(up.argmin())
        j_steep = int(dn.argmin())
        up_i = float(up[i])
        if -(up_i + float(dn[j_steep])) < tol:
            break

        # second-order choice of j: minimise b|b| / eta_ij over b = up_i + dn_j,
        # which is -b^2 / eta_ij on the descending partners; halving eta does
        # not move the argmin, and _TAU keeps duplicate points off zero
        k_i = k[i]
        np.subtract(half_diag, k_i, out=half_eta)
        half_eta += half_diag[i] + _TAU
        np.add(dn, up_i, out=gain)
        np.abs(gain, out=work)
        gain *= work
        gain /= half_eta
        beta_i, gy_i = float(beta[i]), float(gy[i])
        move = None
        for j in (int(gain.argmin()), j_steep):
            if j != i:
                eta = float(diag[i] + diag[j] - 2.0 * k_i[j])
                found = _pair_delta(beta_i, float(beta[j]), gy_i - float(gy[j]),
                                    eta, epsilon, c)
                if found is not None:
                    move = j, found[0]
                    break
        if move is None:
            break

        j, new_i = move
        beta_j = float(beta[j])
        new_j = (beta_i + beta_j) - new_i
        np.multiply(k_i, new_i - beta_i, out=work)
        gy += work
        np.multiply(k[j], new_j - beta_j, out=work)
        gy += work
        beta[i] = new_i
        beta[j] = new_j
        up_off[i], dn_off[i] = _offsets(new_i, epsilon, c)
        up_off[j], dn_off[j] = _offsets(new_j, epsilon, c)

    # the full check starts from an exact K @ beta, free of update drift
    g_minus_y = k @ beta - y
    bias = _bias(beta, g_minus_y, epsilon, c)
    converged = bool(_kkt_violations(beta, g_minus_y + bias, epsilon, c).max() < tol)

    support = np.abs(beta) > 1e-12
    return SvrModel(
        support_vectors=x[support].copy(),
        dual_coef=beta[support].copy(),
        bias=bias,
        gamma=gamma,
        c=c,
        epsilon=epsilon,
        tol=tol,
        max_iter=max_iter,
        support_idx=np.nonzero(support)[0],
        converged=converged,
        iterations=iterations,
        dual_objective=dual_objective(k, y, beta, epsilon),
    )


def predict_svr(model: SvrModel, x: np.ndarray) -> np.ndarray:
    """One prediction per row of the 2-D x."""
    x = np.asarray(x, dtype=np.float64)
    p = model.support_vectors.shape[1]
    if x.shape[1] != p:
        raise DataError(f"expected {p} features, got {x.shape[1]}")
    return rbf_kernel(x, model.support_vectors, model.gamma) @ model.dual_coef + model.bias


def save_linear(model: LinearModel, path: str) -> None:
    _binio.save(path, "linear", {"bias": float(model.bias)}, {"weights": model.weights})


def load_linear(path: str) -> LinearModel:
    def build(meta: dict, specs: list[_binio.Spec]) -> tuple[LinearModel, dict]:
        arrays = _binio.empty(specs)
        return LinearModel(weights=arrays["weights"], bias=float(meta["bias"])), arrays

    return _binio.load(path, "linear", build)


def save_svr(model: SvrModel, path: str) -> None:
    meta = {
        "bias": float(model.bias), "gamma": float(model.gamma), "c": float(model.c),
        "epsilon": float(model.epsilon), "tol": float(model.tol),
        "max_iter": int(model.max_iter), "converged": bool(model.converged),
        "iterations": int(model.iterations), "dual_objective": float(model.dual_objective),
    }
    arrays = {"support_vectors": model.support_vectors, "dual_coef": model.dual_coef,
              "support_idx": model.support_idx}
    _binio.save(path, "svr", meta, arrays)


def load_svr(path: str) -> SvrModel:
    def build(meta: dict, specs: list[_binio.Spec]) -> tuple[SvrModel, dict]:
        arrays = _binio.empty(specs)
        return SvrModel(**meta, **arrays), arrays

    return _binio.load(path, "svr", build)

