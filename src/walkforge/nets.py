"""Recurrent sequence regressors built on numpy: fused-gate LSTM layers,
bidirectional layers, log-cosh loss, and Adam with global-norm gradient clipping.

The two-layer network is recurrent layer -> ReLU -> dropout -> recurrent
layer -> ReLU -> dropout -> last time step -> affine head; the top layer
computes only that last step (see layer_forward). The head is linear in
scaled space: targets are robust-scaled and routinely negative,
so predictions are left unclamped here and floored at zero only after the
inverse transform back to price units.

Backpropagation runs through both the hidden-state and cell-state
recurrences of every layer. All training randomness (shuffling, dropout
masks) comes from one seeded generator, so a training run is a pure
function of (initial network, samples, config).

Large products are split over threads along their larger side, by rows or
by columns (`_pool.run_blocks`); the time loops by hidden units, the
threads advancing step by step in lockstep (`_pool.run_lockstep`); and
the Adam step by pieces of the parameters. Each split gives the bits of the
whole computation (see `_split_work`).

A network computes in its parameters' dtype: build_network draws float64
by default, and every other function takes its dtype from the arrays it is
given, so a float32 network trains, checkpoints and predicts in float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _binio, _pool
from .errors import ConfigError, DataError, NumericError

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


def init_lstm_params(hidden: int, input_dim: int, rng: np.random.Generator,
                     dtype: type = np.float64) -> LstmParams:
    """Uniform +-1/sqrt(fan_in) weights, zero biases except forget gate at 1.

    Each gate in turn draws one (h, h+d) block over [a_prev, x] in float64;
    its first h columns are recurrent weights and the rest input weights,
    stored in arrays of `dtype`. So the draws do not depend on the dtype.
    The gates share one block buffer, filled with the arithmetic of
    rng.uniform(-bound, bound), low + (high - low) * random(), bit for bit."""
    bound = 1.0 / math.sqrt(hidden + input_dim)
    w_x = np.empty((4 * hidden, input_dim), dtype=dtype)
    w_a = np.empty((4 * hidden, hidden), dtype=dtype)
    block = np.empty((hidden, hidden + input_dim))
    for k in range(4):
        rng.random(out=block)
        block *= 2.0 * bound
        block -= bound
        w_a[k * hidden: (k + 1) * hidden] = block[:, :hidden]
        w_x[k * hidden: (k + 1) * hidden] = block[:, hidden:]
    b = np.zeros(4 * hidden, dtype=dtype)
    b[2 * hidden: 3 * hidden] = 1.0
    return LstmParams(w_x=w_x, w_a=w_a, b=b)


# Column blocks and hidden-unit blocks start at multiples of this many
# columns: the groups of 8 of the rule in _split_work.
_ALIGN = 8


def _split_work(m: int, k: int, n: int) -> int:
    """The work run_blocks weighs to split an (m, k) @ (k, n) product by
    rows, or by columns in blocks that start at multiples of _ALIGN: m*k*n,
    or 0, which keeps it whole, when n is not a multiple of 8. Each output
    element keeps its whole sum, so a block gets the bits the whole product
    gives it, except in a one-row block (numpy's matrix-vector path) or one
    under about 10^6 multiply-adds (OpenBLAS's small-matrix kernels), which
    run_blocks never makes, and in the last n % 8 columns, whose bits depend
    on the shape of the call they fall in (README "Inside one fit" has the
    scans; in float32 none differed, so the rule is conservative there).
    A time loop split by hidden units takes the rule of its backward step's
    product (m, 4h) @ (4h, h): with h a multiple of 8, each gate's block of
    units also starts on a group of 8 columns of the forward step's
    (m, h) @ (h, 4h)."""
    return m * k * n if n % 8 == 0 else 0


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, split over threads along its larger side when the product is
    large: by blocks of columns when it has more columns than rows, so each
    thread packs only its share of b, and by blocks of rows otherwise. Each
    block writes its part of the one output in place."""
    (m, k), n = a.shape, b.shape[1]
    out = np.empty((m, n), dtype=np.result_type(a, b))
    work = _split_work(m, k, n)
    if n > m:
        def columns(lo: int, hi: int) -> None:
            np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])

        _pool.run_blocks(columns, n, work, _ALIGN)
    else:
        def rows(lo: int, hi: int) -> None:
            np.matmul(a[lo:hi], b, out=out[lo:hi])

        _pool.run_blocks(rows, m, work)
    return out


def lstm_layer_forward(params: LstmParams, seq: np.ndarray,
                       steps: int) -> tuple[np.ndarray, dict]:
    """Run the layer's first `steps` steps across seq (m, L, d) from zero
    initial state.

    The input projection of all L steps is one GEMM before the time loop,
    so each step makes one recurrent GEMM; the projection keeps its L*m rows,
    and so its bits, whatever `steps` is. Work is time-major: the
    (m, steps, h) output is a view of (steps, m, h) storage. A split loop
    gives each thread a block of hidden units for every step: the thread
    computes its units' columns of the four gates' recurrent products, one
    stacked matmul over w_a's rows for them, and then their gate and cell
    arithmetic. The threads advance in lockstep, each waiting before it
    reads the previous step's whole output. One block makes the whole
    (m, h) @ (h, 4h) product per step, as the per-gate products at small
    widths do not give its bits."""
    m, length, d = seq.shape
    h = params.hidden
    if d != params.input_dim:
        raise DataError(f"layer expects input width {params.input_dim}, got {d}")
    xs = np.ascontiguousarray(seq.transpose(1, 0, 2)).reshape(length * m, d)
    gates = _matmul(xs, params.w_x.T).reshape(length, m, 4, h)[:steps]
    c_all = np.empty((steps, m, h), dtype=gates.dtype)
    tc = np.empty_like(c_all)
    out = np.empty_like(c_all)
    w_gates = params.w_a.reshape(4, h, h)  # gate k's rows of w_a
    b_gates = params.b.reshape(4, h)

    def loop(lo: int, hi: int, wait: Callable[[], object]) -> None:
        units = slice(lo, hi)  # this block's views of every step
        g_all, b_units = gates[..., units], b_gates[:, units]  # gates (m, 4, units): c, u, f, o
        c_units, tc_units, out_units = c_all[..., units], tc[..., units], out[..., units]
        rec = np.empty((m, 4, hi - lo), dtype=gates.dtype)  # a step's recurrent product
        if hi - lo == h:
            rec_out, w_rec = rec.reshape(m, 4 * h), params.w_a.T
        else:
            rec_out, w_rec = rec.transpose(1, 0, 2), w_gates[:, units].transpose(0, 2, 1)
        for t in range(steps):
            g = g_all[t]
            g += b_units
            if t:
                wait()  # every block has written out[t - 1]
                np.matmul(out[t - 1], w_rec, out=rec_out)
                g += rec
            cand = g[:, 0]
            np.tanh(cand, out=cand)
            sig = g[:, 1:]  # sigmoid(z) = 0.5 * (1 + tanh(z / 2)) for u, f, o
            sig *= 0.5
            np.tanh(sig, out=sig)
            sig += 1.0
            sig *= 0.5
            c = c_units[t]
            np.multiply(g[:, 1], cand, out=c)
            if t:
                c += g[:, 2] * c_units[t - 1]
            np.tanh(c, out=tc_units[t])
            np.multiply(g[:, 3], tc_units[t], out=out_units[t])

    _pool.run_lockstep(loop, h, _split_work(m, 4 * h, h), _ALIGN)
    if not np.isfinite(out).all():
        raise NumericError("non-finite activation in lstm layer")
    cache = {"xs": xs, "gates": gates.reshape(steps, m, 4 * h), "c": c_all, "tc": tc,
             "a": out}
    return out.transpose(1, 0, 2), cache


def lstm_layer_backward(
    params: LstmParams, cache: dict, d_out: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backpropagate through time, through both the a and c recurrences,
    over the steps the forward pass ran; d_out is (m, steps, h).

    The loop carries only the recurrent gradients; each step's gate
    pre-activation gradients land in one (L, m, 4h) buffer, zero past the
    steps that ran, from which the input weight, bias and input gradients
    each take one GEMM or reduction over all L*m rows, the rows the forward
    projection had. The recurrent weight gradient takes the rows of steps
    1..steps-1. A split loop gives each thread a block of hidden units, as
    the forward pass does: the thread runs its units' elementwise steps,
    waits until every block has written the step's gate gradients, and
    then computes its units' columns of the next step's da."""
    gates, c_all, tc = cache["gates"], cache["c"], cache["tc"]
    steps, m, h4 = gates.shape
    length = len(cache["xs"]) // m
    h = h4 // 4
    d_gates = np.empty((length, m, h4), dtype=gates.dtype)
    d_gates[steps:] = 0.0
    by_gate = gates.reshape(steps, m, 4, h)
    d_by_gate = d_gates.reshape(length, m, 4, h)

    def loop(lo: int, hi: int, wait: Callable[[], object]) -> None:
        units = slice(lo, hi)  # this block's views of every step
        g_all, dg_all = by_gate[..., units], d_by_gate[..., units]
        c_units, tc_units, d_out_units = c_all[..., units], tc[..., units], d_out[..., units]
        w_units = params.w_a[:, units]
        da = np.zeros((m, hi - lo), dtype=gates.dtype)
        dc = np.zeros_like(da)
        for t in range(steps - 1, -1, -1):
            g, dg, tc_t = g_all[t], dg_all[t], tc_units[t]
            cand, gu, gf, go = g[:, 0], g[:, 1], g[:, 2], g[:, 3]
            da += d_out_units[:, t]
            dc += da * go * (1.0 - tc_t * tc_t)
            dg[:, 0] = dc * gu * (1.0 - cand * cand)
            np.subtract(1.0, g[:, 1:], out=dg[:, 1:])
            dg[:, 1:] *= g[:, 1:]  # sigmoid slopes of u, f, o
            dg[:, 1] *= dc * cand
            dg[:, 3] *= da * tc_t
            if t:
                dg[:, 2] *= dc * c_units[t - 1]
                dc *= gf
                wait()  # every block has written d_gates[t]
                np.matmul(d_gates[t], w_units, out=da)
            else:
                dg[:, 2] = 0.0

    _pool.run_lockstep(loop, h, _split_work(m, h4, h), _ALIGN)
    rows = d_gates.reshape(length * m, h4)
    grads = {
        "w_x": _matmul(rows.T, cache["xs"]),
        "w_a": _matmul(rows[m: steps * m].T, cache["a"][:-1].reshape(-1, h)),
        "b": rows.sum(axis=0),
    }
    d_seq = _matmul(rows, params.w_x).reshape(length, m, -1).transpose(1, 0, 2)
    return d_seq, grads


# Each direction of a layer: its parameter-name tag and the order in which
# it reads the time axis. The backward direction reads the sequence reversed.
_DIRECTIONS = (("f", 1), ("b", -1))


def layer_forward(
    layer: tuple[LstmParams, ...], seq: np.ndarray, top: bool
) -> tuple[np.ndarray, list[dict]]:
    """Run every direction of one layer over seq (m, L, d).

    output[t] concatenates each direction's output at step t: the backward
    direction runs on the reversed sequence and its output is re-reversed.
    The top layer returns only the last step, (m, 1, k), the one the head
    reads. Its backward half is the backward direction's first step, so
    there that direction runs one step. A one-direction layer returns its
    output view without a copy."""
    length = seq.shape[1]
    outs, caches = [], []
    for params, (_, step) in zip(layer, _DIRECTIONS):
        out, cache = lstm_layer_forward(params, seq[:, ::step, :],
                                        1 if top and step < 0 else length)
        out = out[:, ::step, :]
        outs.append(out[:, -1:, :] if top else out)
        caches.append(cache)
    return (outs[0] if len(outs) == 1 else np.concatenate(outs, axis=2)), caches


def layer_backward(
    layer: tuple[LstmParams, ...], caches: list[dict], d_out: np.ndarray
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Backpropagate one layer: each direction takes its own feature block
    of d_out in its own time order. The top layer's d_out holds only the
    last step, which the forward direction gets zero-padded to the steps it
    ran. The input gradient is the forward direction's part plus the
    re-reversed backward part."""
    h = layer[0].hidden
    parts, grads = [], []
    for k, (params, cache, (_, step)) in enumerate(zip(layer, caches, _DIRECTIONS)):
        d_dir = d_out[:, ::step, k * h: (k + 1) * h]
        ran = len(cache["a"])
        if d_dir.shape[1] < ran:
            padded = np.zeros((len(d_out), ran, h), dtype=d_out.dtype)  # top forward direction
            padded[:, -1:] = d_dir
            d_dir = padded
        d_part, g = lstm_layer_backward(params, cache, d_dir)
        grads.append(g)
        parts.append(d_part[:, ::step, :])
    return (parts[0] if len(parts) == 1 else parts[0] + parts[1]), grads


@dataclass
class BiLstmNetwork:
    """Two recurrent layers with ReLU + dropout between, affine head on the
    last time step. Each layer is a tuple of directions: (forward,) for the
    unidirectional LSTM, (forward, backward) for the Bi-LSTM."""

    layers: tuple[tuple[LstmParams, ...], ...]
    dense_w: np.ndarray
    dense_b: np.ndarray
    dropout_rate: float

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter, and of everything the net computes."""
        return self.dense_w.dtype

    def param_dict(self) -> dict[str, np.ndarray]:
        """Live references in a fixed order (l1f, l1b, l2f, l2b, dense);
        the optimizer mutates in place."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers, 1):
            for cell, (tag, _) in zip(layer, _DIRECTIONS):
                out[f"l{i}{tag}.w_x"] = cell.w_x
                out[f"l{i}{tag}.w_a"] = cell.w_a
                out[f"l{i}{tag}.b"] = cell.b
        out["dense.w"] = self.dense_w
        out["dense.b"] = self.dense_b
        return out


def check_dropout(rate: float) -> None:
    """The dropout rate's range, which build_network and RunConfig check."""
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout_rate must be in [0, 1), got {rate}")


def build_network(
    input_dim: int,
    hidden1: int = 800,
    hidden2: int = 1000,
    dropout_rate: float = 0.2,
    bidirectional: bool = True,
    seed: int = 0,
    dtype: type = np.float64,
) -> BiLstmNetwork:
    """Draw l1f, l1b, l2f, l2b, then the head, from one seeded generator,
    into parameters of `dtype`; the draws are the same for every dtype."""
    if input_dim < 1 or hidden1 < 1 or hidden2 < 1:
        raise ConfigError(
            f"widths must be positive, got input={input_dim}, h1={hidden1}, h2={hidden2}"
        )
    check_dropout(dropout_rate)
    rng = np.random.default_rng(seed)
    directions = 2 if bidirectional else 1
    layers, width = [], input_dim
    for hidden in (hidden1, hidden2):
        layers.append(tuple(init_lstm_params(hidden, width, rng, dtype)
                            for _ in range(directions)))
        width = directions * hidden
    bound = 1.0 / math.sqrt(width)
    return BiLstmNetwork(
        layers=tuple(layers),
        dense_w=rng.uniform(-bound, bound, size=width).astype(dtype),
        dense_b=np.zeros(1, dtype=dtype),
        dropout_rate=dropout_rate,
    )


def network_forward(
    net: BiLstmNetwork,
    inputs: np.ndarray,
    mode: str = "eval",
    seed: int | None = None,
) -> tuple[np.ndarray, dict]:
    """Predict in scaled space for windows (m, L, F). mode="train" applies
    inverted-scaling dropout after each layer from a generator seeded with
    `seed` and keeps every layer's cache for network_backward; mode="eval"
    is deterministic and keeps only the activation between layers. Inputs
    are cast to the net's dtype, and everything after is computed in it."""
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    inputs = np.asarray(inputs, dtype=net.dtype)
    width = net.layers[0][0].input_dim
    if inputs.ndim != 3 or inputs.shape[2] != width:
        raise DataError(f"inputs must be (m, L, {width}), got {inputs.shape}")
    if not np.isfinite(inputs).all():
        raise NumericError("non-finite activation in network inputs")

    rate = net.dropout_rate if mode == "train" else 0.0
    rng = np.random.default_rng(seed) if rate > 0.0 else None
    cache: dict = {"mode": mode, "dirs": [], "relu": [], "drop": []}
    length = inputs.shape[1]
    act = inputs
    for i, layer in enumerate(net.layers):
        out, dir_caches = layer_forward(layer, act, i == len(net.layers) - 1)
        relu = out > 0.0
        act = out * relu
        if mode == "train":
            keep = None
            if rng is not None:
                # drawn for all L steps, so the generator's stream does not
                # depend on how many steps the layer returns
                draw = rng.random((len(act), length, act.shape[2]))[:, -act.shape[1]:]
                keep = (draw >= rate) * net.dtype.type(1.0 / (1.0 - rate))
                act = act * keep
            cache["dirs"].append(dir_caches)
            cache["relu"].append(relu)
            cache["drop"].append(keep)
        del out, dir_caches, relu  # an eval pass frees them before the next layer

    last = act[:, -1, :]
    preds = last @ net.dense_w + net.dense_b[0]
    if not np.isfinite(preds).all():
        raise NumericError("non-finite activation in dense head")
    cache["last"] = last
    return preds, cache


def network_backward(
    net: BiLstmNetwork, cache: dict, d_preds: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of the scalar loss for every parameter, keyed like
    param_dict. Needs a cache produced by a train-mode forward pass."""
    if cache.get("mode") != "train":
        raise DataError("backward needs a cache from a train-mode forward pass")
    d_preds = np.asarray(d_preds, dtype=net.dtype)
    m = len(cache["last"])
    if d_preds.shape != (m,):
        raise DataError(f"upstream gradient must be ({m},), got {d_preds.shape}")

    grads: dict[str, np.ndarray] = {}
    grads["dense.w"] = cache["last"].T @ d_preds
    grads["dense.b"] = np.array([d_preds.sum()])

    d_act = np.outer(d_preds, net.dense_w)[:, None, :]  # the top layer's one step
    for i in reversed(range(len(net.layers))):
        if cache["drop"][i] is not None:
            d_act = d_act * cache["drop"][i]
        # layer 1's input gradient, with respect to the network's inputs, goes unused
        d_act, layer_grads = layer_backward(net.layers[i], cache["dirs"][i],
                                            d_act * cache["relu"][i])
        for g, (tag, _) in zip(layer_grads, _DIRECTIONS):
            for name, arr in g.items():
                grads[f"l{i + 1}{tag}.{name}"] = arr

    return {name: grads[name] for name in net.param_dict()}


def logcosh_loss(preds: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean log-cosh of the residuals in the overflow-proof form
    |r| + log1p(exp(-2|r|)) - log 2, with gradient tanh(r)/m."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.ndim != 1 or preds.shape != targets.shape:
        raise DataError(f"length mismatch: {preds.shape[0] if preds.ndim else 0} vs "
                        f"{targets.shape[0] if targets.ndim else 0}")
    if preds.size == 0:
        raise DataError("length mismatch: 0 vs 0")
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


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam_state(params: dict[str, np.ndarray]) -> AdamState:
    """Zero moments in each parameter's dtype, left untouched so the first
    (threaded) step writes their pages."""
    return AdamState(
        m={name: np.zeros(arr.shape, dtype=arr.dtype) for name, arr in params.items()},
        v={name: np.zeros(arr.shape, dtype=arr.dtype) for name, arr in params.items()},
    )


# The norm pass works through each array in pieces of at most this many
# elements, and the update pass in pieces of _UPDATE_BYTES of the
# parameters' dtype (65536 float32 or 32768 float64 elements), so a piece
# stays in cache across all of its operations. The update is elementwise,
# so its piece size changes no bit; the norm's pieces fix its sum's order.
_CHUNK = 32768
_UPDATE_BYTES = 1 << 18

# Element operations per parameter in one Adam step, as the work run_blocks
# weighs: the update makes 15 passes over the chunk and the norm one more.
_ADAM_OPS = 16


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update after global-norm clipping.

    Parameters, moments and gradients (all C-contiguous) are updated in
    place: each gradient array is overwritten with its step. Both passes,
    the squares for the global norm and the update, go through the arrays'
    pieces (of _CHUNK elements for the norm, of _UPDATE_BYTES for the
    update), split over threads by run_blocks; each block keeps its
    temporaries in a one-piece work buffer of its own, in the parameters'
    dtype, and each piece runs all of its operations before the next. The
    squared norm is the sum of each piece's np.sum(g * g), in
    parameter order and then piece order, so it does not depend on the
    thread count; for an array of one piece that is np.sum(g * g). The
    arithmetic, operation for operation, is

        g = grad * factor
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        param -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
    """
    if set(params) != set(grads):
        raise DataError("parameter and gradient key sets differ")
    for name, arr in params.items():
        if arr.shape != grads[name].shape:
            raise DataError(
                f"{name}: parameter {arr.shape} vs gradient {grads[name].shape}"
            )
        if not (arr.flags.c_contiguous and grads[name].flags.c_contiguous):
            raise DataError(f"{name}: parameter and gradient must be C-contiguous")
    flats = {name: (arr.reshape(-1), state.m[name].reshape(-1), state.v[name].reshape(-1),
                    grads[name].reshape(-1)) for name, arr in params.items()}
    ops = _ADAM_OPS * sum(arr.size for arr in params.values())
    dtype = np.result_type(np.float32, *params.values())  # the widest, float32 at least

    def pieces_of(size: int) -> list[tuple[str, int, int]]:
        return [(name, lo, min(lo + size, arr.size)) for name, arr in params.items()
                for lo in range(0, arr.size, size)]

    norm_pieces = pieces_of(_CHUNK)
    squares = [0.0] * len(norm_pieces)

    def square_sums(first: int, last: int) -> None:
        buf = np.empty(_CHUNK, dtype=dtype)
        for j in range(first, last):
            name, lo, hi = norm_pieces[j]
            g = flats[name][3][lo:hi]
            np.multiply(g, g, out=buf[: hi - lo])
            squares[j] = float(np.sum(buf[: hi - lo]))

    _pool.run_blocks(square_sums, len(norm_pieces), ops)
    sq = 0.0
    for piece_sum in squares:  # not sum(), which compensates from Python 3.12
        sq += piece_sum
    norm = math.sqrt(sq)
    factor = 1.0
    if config.clip_norm > 0.0 and norm > config.clip_norm:
        factor = config.clip_norm / norm

    state.step += 1
    t = state.step
    m_corr = 1.0 - config.beta1 ** t
    v_corr = 1.0 - config.beta2 ** t

    size = _UPDATE_BYTES // dtype.itemsize
    update_pieces = pieces_of(size)

    def update(first: int, last: int) -> None:
        buf = np.empty(size, dtype=dtype)
        for j in range(first, last):
            name, lo, hi = update_pieces[j]
            p, m, v, g = (flat[lo:hi] for flat in flats[name])
            tmp = buf[: hi - lo]
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
            p -= g

    _pool.run_blocks(update, len(update_pieces), ops)
    return params, state


def train(net: BiLstmNetwork, inputs: np.ndarray, targets: np.ndarray,
          config: TrainConfig) -> tuple[BiLstmNetwork, list[float]]:
    """Mini-batch training; returns the trained net and mean loss per epoch.
    The inputs are cast once to the net's dtype; the loss is float64."""
    inputs = np.asarray(inputs, dtype=net.dtype)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 3 or targets.ndim != 1 or len(inputs) != len(targets):
        raise DataError(f"bad training shapes {inputs.shape} / {targets.shape}")
    m = len(targets)
    if m < 1:
        raise DataError("need at least one training sample")

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
            del cache  # the Adam step needs only the gradients
            adam_step(params, grads, state, config)
            total += loss * len(chunk)
            del grads  # so the next step does not hold two sets
        epoch_loss = total / m
        if not math.isfinite(epoch_loss):
            raise NumericError(f"training loss became non-finite at epoch {epoch}")
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
        directions = _DIRECTIONS if "l1b.b" in params else _DIRECTIONS[:1]
        layers = tuple(
            tuple(LstmParams(w_x=params[f"l{i}{tag}.w_x"], w_a=params[f"l{i}{tag}.w_a"],
                             b=params[f"l{i}{tag}.b"]) for tag, _ in directions)
            for i in (1, 2)
        )
        return BiLstmNetwork(layers=layers, dense_w=params["dense.w"],
                             dense_b=params["dense.b"],
                             dropout_rate=float(meta["dropout_rate"]))

    return _binio.load(path, "network", build)
