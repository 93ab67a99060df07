"""Recurrent sequence regressors built on numpy: fused-gate LSTM layers,
bidirectional layers, log-cosh loss, and Adam with global-norm gradient clipping.

The two-layer network is recurrent layer -> ReLU -> dropout -> recurrent
layer -> ReLU -> dropout -> last time step -> affine head. The head is
linear in scaled space: targets are robust-scaled and routinely negative,
so predictions are left unclamped here and floored at zero only after the
inverse transform back to price units.

Backpropagation runs through both the hidden-state and cell-state
recurrences of every layer. All training randomness (shuffling, dropout
masks) comes from one seeded generator, so a training run is a pure
function of (initial network, samples, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _binio
from .errors import (
    ConfigError,
    DataError,
    DivergedLoss,
    LengthMismatch,
    NonFiniteActivation,
    ShapeMismatch,
    StaleCache,
)

@dataclass
class LstmParams:
    """One direction of one layer, the four gates stacked in the order
    candidate, update, forget, output (c, u, f, o): input weights w_x
    (4h, d), recurrent weights w_a (4h, h) and bias b (4h,). Gate k owns
    rows k*h:(k+1)*h of all three."""

    w_x: np.ndarray
    w_a: np.ndarray
    b: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w_a.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]


def init_lstm_params(hidden: int, input_dim: int, rng: np.random.Generator) -> LstmParams:
    """Uniform +-1/sqrt(fan_in) weights, zero biases except forget gate at 1.

    Each gate in turn draws one (h, h+d) block over [a_prev, x]; its first
    h columns are recurrent weights and the rest input weights."""
    bound = 1.0 / math.sqrt(hidden + input_dim)
    w_x = np.empty((4 * hidden, input_dim))
    w_a = np.empty((4 * hidden, hidden))
    for k in range(4):
        block = rng.uniform(-bound, bound, size=(hidden, hidden + input_dim))
        w_a[k * hidden: (k + 1) * hidden] = block[:, :hidden]
        w_x[k * hidden: (k + 1) * hidden] = block[:, hidden:]
    b = np.zeros(4 * hidden)
    b[2 * hidden: 3 * hidden] = 1.0
    return LstmParams(w_x=w_x, w_a=w_a, b=b)


def lstm_layer_forward(params: LstmParams, seq: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run the layer across seq (m, L, d) from zero initial state.

    The input projection of all L steps is one GEMM before the time loop,
    so each step makes one recurrent GEMM. Work is time-major: the (m, L, h)
    output is a view of (L, m, h) storage."""
    m, length, d = seq.shape
    h = params.hidden
    if d != params.input_dim:
        raise ShapeMismatch(f"layer expects input width {params.input_dim}, got {d}")
    xs = np.ascontiguousarray(seq.transpose(1, 0, 2)).reshape(length * m, d)
    gates = (xs @ params.w_x.T).reshape(length, m, 4 * h)
    gates += params.b
    c_all = np.empty((length, m, h))
    tc = np.empty((length, m, h))
    out = np.empty((length, m, h))
    for t in range(length):
        g = gates[t]
        if t:
            g += out[t - 1] @ params.w_a.T
        np.tanh(g[:, :h], out=g[:, :h])
        sig = g[:, h:]  # sigmoid(z) = 0.5 * (1 + tanh(z / 2)) for u, f, o
        sig *= 0.5
        np.tanh(sig, out=sig)
        sig += 1.0
        sig *= 0.5
        c = c_all[t]
        np.multiply(g[:, h: 2 * h], g[:, :h], out=c)
        if t:
            c += g[:, 2 * h: 3 * h] * c_all[t - 1]
        np.tanh(c, out=tc[t])
        np.multiply(g[:, 3 * h:], tc[t], out=out[t])
    if not np.isfinite(out).all():
        raise NonFiniteActivation("lstm layer")
    cache = {"xs": xs, "gates": gates, "c": c_all, "tc": tc, "a": out}
    return out.transpose(1, 0, 2), cache


def lstm_layer_backward(
    params: LstmParams, cache: dict, d_out: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backpropagate through time, through both the a and c recurrences.

    The loop carries only the recurrent gradients; each step's gate
    pre-activation gradients land in one (L, m, 4h) buffer, from which the
    weight, bias and input gradients each take one GEMM or reduction over
    all L*m rows."""
    gates, c_all, tc = cache["gates"], cache["c"], cache["tc"]
    length, m, h4 = gates.shape
    h = h4 // 4
    d_gates = np.empty_like(gates)
    da = np.zeros((m, h))
    dc = np.zeros((m, h))
    for t in range(length - 1, -1, -1):
        g, dg = gates[t], d_gates[t]
        cand, gu, gf, go = g[:, :h], g[:, h: 2 * h], g[:, 2 * h: 3 * h], g[:, 3 * h:]
        da += d_out[:, t, :]
        dc += da * go * (1.0 - tc[t] * tc[t])
        dg[:, :h] = dc * gu * (1.0 - cand * cand)
        np.subtract(1.0, g[:, h:], out=dg[:, h:])
        dg[:, h:] *= g[:, h:]  # sigmoid slopes of u, f, o
        dg[:, h: 2 * h] *= dc * cand
        dg[:, 3 * h:] *= da * tc[t]
        if t:
            dg[:, 2 * h: 3 * h] *= dc * c_all[t - 1]
            dc *= gf
            da = dg @ params.w_a
        else:
            dg[:, 2 * h: 3 * h] = 0.0
    rows = d_gates.reshape(length * m, h4)
    grads = {
        "w_x": rows.T @ cache["xs"],
        "w_a": rows[m:].T @ cache["a"][:-1].reshape(-1, h),
        "b": rows.sum(axis=0),
    }
    d_seq = (rows @ params.w_x).reshape(length, m, -1).transpose(1, 0, 2)
    return d_seq, grads


def bilstm_forward(
    fwd: LstmParams, bwd: LstmParams, seq: np.ndarray
) -> tuple[np.ndarray, dict]:
    """output[t] = concat(forward[t], backward-on-reversed-input re-reversed [t])."""
    out_f, cache_f = lstm_layer_forward(fwd, seq)
    out_b_rev, cache_b = lstm_layer_forward(bwd, seq[:, ::-1, :])
    out = np.concatenate([out_f, out_b_rev[:, ::-1, :]], axis=2)
    return out, {"fwd": cache_f, "bwd": cache_b}


def bilstm_backward(
    fwd: LstmParams, bwd: LstmParams, cache: dict, d_out: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, np.ndarray]]:
    h = fwd.hidden
    d_seq_f, grads_f = lstm_layer_backward(fwd, cache["fwd"], d_out[:, :, :h])
    d_seq_b, grads_b = lstm_layer_backward(bwd, cache["bwd"], d_out[:, ::-1, h:])
    return d_seq_f + d_seq_b[:, ::-1, :], grads_f, grads_b


@dataclass
class BiLstmNetwork:
    """Two recurrent layers with ReLU + dropout between, affine head on the
    last time step. layer*_bwd is None for the unidirectional variant."""

    layer1_fwd: LstmParams
    layer1_bwd: LstmParams | None
    layer2_fwd: LstmParams
    layer2_bwd: LstmParams | None
    dense_w: np.ndarray
    dense_b: np.ndarray
    dropout_rate: float

    @property
    def bidirectional(self) -> bool:
        return self.layer1_bwd is not None

    @property
    def input_dim(self) -> int:
        return self.layer1_fwd.input_dim

    @property
    def hidden1(self) -> int:
        return self.layer1_fwd.hidden

    @property
    def hidden2(self) -> int:
        return self.layer2_fwd.hidden

    def param_dict(self) -> dict[str, np.ndarray]:
        """Live references in a fixed order; the optimizer mutates in place."""
        cells = [("l1f", self.layer1_fwd), ("l1b", self.layer1_bwd),
                 ("l2f", self.layer2_fwd), ("l2b", self.layer2_bwd)]
        out: dict[str, np.ndarray] = {}
        for prefix, cell in cells:
            if cell is None:
                continue
            out[f"{prefix}.w_x"] = cell.w_x
            out[f"{prefix}.w_a"] = cell.w_a
            out[f"{prefix}.b"] = cell.b
        out["dense.w"] = self.dense_w
        out["dense.b"] = self.dense_b
        return out


def build_network(
    input_dim: int,
    hidden1: int = 800,
    hidden2: int = 1000,
    dropout_rate: float = 0.2,
    bidirectional: bool = True,
    seed: int = 0,
) -> BiLstmNetwork:
    if input_dim < 1 or hidden1 < 1 or hidden2 < 1:
        raise ConfigError(
            f"widths must be positive, got input={input_dim}, h1={hidden1}, h2={hidden2}"
        )
    if not (0.0 <= dropout_rate < 1.0):
        raise ConfigError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    rng = np.random.default_rng(seed)
    width1 = 2 * hidden1 if bidirectional else hidden1
    dense_in = 2 * hidden2 if bidirectional else hidden2
    layer1_fwd = init_lstm_params(hidden1, input_dim, rng)
    layer1_bwd = init_lstm_params(hidden1, input_dim, rng) if bidirectional else None
    layer2_fwd = init_lstm_params(hidden2, width1, rng)
    layer2_bwd = init_lstm_params(hidden2, width1, rng) if bidirectional else None
    bound = 1.0 / math.sqrt(dense_in)
    return BiLstmNetwork(
        layer1_fwd=layer1_fwd,
        layer1_bwd=layer1_bwd,
        layer2_fwd=layer2_fwd,
        layer2_bwd=layer2_bwd,
        dense_w=rng.uniform(-bound, bound, size=dense_in),
        dense_b=np.zeros(1),
        dropout_rate=dropout_rate,
    )


def _layer_pass(net: BiLstmNetwork, which: int, seq: np.ndarray) -> tuple[np.ndarray, dict]:
    fwd = net.layer1_fwd if which == 1 else net.layer2_fwd
    bwd = net.layer1_bwd if which == 1 else net.layer2_bwd
    if bwd is None:
        out, cache = lstm_layer_forward(fwd, seq)
        return out, {"fwd": cache, "bwd": None}
    return bilstm_forward(fwd, bwd, seq)


def network_forward(
    net: BiLstmNetwork,
    inputs: np.ndarray,
    mode: str = "eval",
    seed: int | None = None,
) -> tuple[np.ndarray | float, dict]:
    """Predict in scaled space. mode="train" applies inverted-scaling dropout
    from a generator seeded with `seed`; mode="eval" is deterministic."""
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    inputs = np.asarray(inputs, dtype=np.float64)
    single = inputs.ndim == 2
    if single:
        inputs = inputs[None, :, :]
    if inputs.ndim != 3 or inputs.shape[2] != net.input_dim:
        raise ShapeMismatch(
            f"inputs must be (m, L, {net.input_dim}), got {inputs.shape}"
        )
    if not np.isfinite(inputs).all():
        raise NonFiniteActivation("network inputs")

    rate = net.dropout_rate if mode == "train" else 0.0
    rng = np.random.default_rng(seed) if rate > 0.0 else None

    def dropout(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        if rng is None:
            return arr, None
        keep = (rng.random(arr.shape) >= rate) / (1.0 - rate)
        return arr * keep, keep

    out1, cache1 = _layer_pass(net, 1, inputs)
    relu1 = out1 > 0.0
    act1, drop1 = dropout(out1 * relu1)

    out2, cache2 = _layer_pass(net, 2, act1)
    relu2 = out2 > 0.0
    act2, drop2 = dropout(out2 * relu2)

    last = act2[:, -1, :]
    preds = last @ net.dense_w + net.dense_b[0]
    if not np.isfinite(preds).all():
        raise NonFiniteActivation("dense head")
    cache = {
        "mode": mode, "l1": cache1, "l2": cache2,
        "relu1": relu1, "relu2": relu2, "drop1": drop1, "drop2": drop2,
        "last": last, "m_l_k": act2.shape,
    }
    return (float(preds[0]) if single else preds), cache


def _layer_back(
    net: BiLstmNetwork, which: int, cache: dict, d_out: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    fwd = net.layer1_fwd if which == 1 else net.layer2_fwd
    bwd = net.layer1_bwd if which == 1 else net.layer2_bwd
    prefix = f"l{which}"
    if bwd is None:
        d_seq, g_f = lstm_layer_backward(fwd, cache["fwd"], d_out)
        g_b = None
    else:
        d_seq, g_f, g_b = bilstm_backward(fwd, bwd, cache, d_out)
    for gate, arr in g_f.items():
        grads[f"{prefix}f.{gate}"] = arr
    if g_b is not None:
        for gate, arr in g_b.items():
            grads[f"{prefix}b.{gate}"] = arr
    return d_seq


def network_backward(
    net: BiLstmNetwork, cache: dict, d_preds: np.ndarray | float
) -> dict[str, np.ndarray]:
    """Gradients of the scalar loss for every parameter, keyed like
    param_dict. Needs a cache produced by a train-mode forward pass."""
    if cache.get("mode") != "train":
        raise StaleCache()
    d_preds = np.atleast_1d(np.asarray(d_preds, dtype=np.float64))
    m, length, k = cache["m_l_k"]
    if d_preds.shape != (m,):
        raise ShapeMismatch(f"upstream gradient must be ({m},), got {d_preds.shape}")

    grads: dict[str, np.ndarray] = {}
    grads["dense.w"] = cache["last"].T @ d_preds
    grads["dense.b"] = np.array([d_preds.sum()])

    d_act2 = np.zeros((m, length, k))
    d_act2[:, -1, :] = np.outer(d_preds, net.dense_w)
    if cache["drop2"] is not None:
        d_act2 = d_act2 * cache["drop2"]
    d_out2 = d_act2 * cache["relu2"]

    d_act1 = _layer_back(net, 2, cache["l2"], d_out2, grads)
    if cache["drop1"] is not None:
        d_act1 = d_act1 * cache["drop1"]
    d_out1 = d_act1 * cache["relu1"]
    _layer_back(net, 1, cache["l1"], d_out1, grads)

    ordered = net.param_dict()
    return {name: grads[name] for name in ordered}


def logcosh_loss(preds: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean log-cosh of the residuals in the overflow-proof form
    |r| + log1p(exp(-2|r|)) - log 2, with gradient tanh(r)/m."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.ndim != 1 or preds.shape != targets.shape:
        raise LengthMismatch(preds.shape[0] if preds.ndim else 0,
                             targets.shape[0] if targets.ndim else 0)
    if preds.size == 0:
        raise LengthMismatch(0, 0)
    r = preds - targets
    a = np.abs(r)
    loss = float(np.mean(a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)))
    return loss, np.tanh(r) / r.size


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    dropout_rate: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must be in [0, 1)")
        if self.eps <= 0 or self.clip_norm < 0:
            raise ConfigError("eps must be positive and clip_norm non-negative")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    work: np.ndarray | None = None  # buffer reused across parameters and steps


def init_adam_state(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(arr) for name, arr in params.items()},
        v={name: np.zeros_like(arr) for name, arr in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update after global-norm clipping.

    Parameters, moments and gradients are all updated in place: each
    gradient array is overwritten with its step. The arithmetic, operation
    for operation, is

        g = grad * factor
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        param -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
    """
    if set(params) != set(grads):
        raise ShapeMismatch("parameter and gradient key sets differ")
    sq = 0.0
    for name, arr in params.items():
        if arr.shape != grads[name].shape:
            raise ShapeMismatch(
                f"{name}: parameter {arr.shape} vs gradient {grads[name].shape}"
            )
        sq += float(np.sum(grads[name] * grads[name]))
    norm = math.sqrt(sq)
    factor = 1.0
    if config.clip_norm > 0.0 and norm > config.clip_norm:
        factor = config.clip_norm / norm

    state.step += 1
    t = state.step
    m_corr = 1.0 - config.beta1 ** t
    v_corr = 1.0 - config.beta2 ** t
    largest = max((arr.size for arr in params.values()), default=0)
    if state.work is None or state.work.size < largest:
        state.work = np.empty(largest)
    for name, arr in params.items():
        m, v = state.m[name], state.v[name]
        g = grads[name]
        tmp = state.work[: arr.size].reshape(arr.shape)
        g *= factor
        np.multiply(g, 1.0 - config.beta1, out=tmp)
        m *= config.beta1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - config.beta2
        v *= config.beta2
        v += tmp
        np.divide(v, v_corr, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += config.eps
        np.divide(m, m_corr, out=g)
        g *= config.learning_rate
        g /= tmp
        arr -= g
    return params, state


def train(net: BiLstmNetwork, inputs: np.ndarray, targets: np.ndarray,
          config: TrainConfig) -> tuple[BiLstmNetwork, list[float]]:
    """Mini-batch training; returns the trained net and mean loss per epoch.

    The net's dropout rate is taken from config so one config block drives
    both architecture and optimization.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 3 or targets.ndim != 1 or len(inputs) != len(targets):
        raise DataError(f"bad training shapes {inputs.shape} / {targets.shape}")
    m = len(targets)
    if m < 1:
        raise DataError("need at least one training sample")
    net.dropout_rate = config.dropout_rate

    rng = np.random.default_rng(config.seed)
    params = net.param_dict()
    state = init_adam_state(params)
    losses: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(m)
        total = 0.0
        for lo in range(0, m, config.batch_size):
            chunk = perm[lo: lo + config.batch_size]
            step_seed = int(rng.integers(0, 2**63 - 1))
            preds, cache = network_forward(net, inputs[chunk], "train", step_seed)
            loss, d_preds = logcosh_loss(preds, targets[chunk])
            grads = network_backward(net, cache, d_preds)
            adam_step(params, grads, state, config)
            total += loss * len(chunk)
            del cache, grads  # so the next step does not hold two sets
        epoch_loss = total / m
        if not math.isfinite(epoch_loss):
            raise DivergedLoss(epoch)
        losses.append(epoch_loss)
    return net, losses


def save_losses(losses: list[float], path: str) -> None:
    with open(path, "w") as f:
        f.write("epoch,loss\n")
        for epoch, loss in enumerate(losses):
            f.write(f"{epoch},{loss!r}\n")


def save_network(net: BiLstmNetwork, path: str) -> None:
    _binio.save(path, "network", {"dropout_rate": net.dropout_rate}, net.param_dict())


def load_network(path: str) -> BiLstmNetwork:
    """Inverse of save_network; the arrays read from the file become the
    network's parameters, so no initial weights are drawn."""

    def build(meta: dict, params: dict[str, np.ndarray]) -> BiLstmNetwork:
        def cell(prefix: str) -> LstmParams:
            return LstmParams(w_x=params[f"{prefix}.w_x"], w_a=params[f"{prefix}.w_a"],
                              b=params[f"{prefix}.b"])

        bidirectional = "l1b.b" in params
        return BiLstmNetwork(
            layer1_fwd=cell("l1f"),
            layer1_bwd=cell("l1b") if bidirectional else None,
            layer2_fwd=cell("l2f"),
            layer2_bwd=cell("l2b") if bidirectional else None,
            dense_w=params["dense.w"],
            dense_b=params["dense.b"],
            dropout_rate=float(meta["dropout_rate"]),
        )

    return _binio.load(path, "network", build)
