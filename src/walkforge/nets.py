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

The directions of a layer are independent recurrences of one shape, so a
layer runs them as one stack: one stacked input projection, one stacked
recurrent product per step, and the gate and cell arithmetic of every
direction in the same numpy calls. Work that depends only on the forward
pass (the bias add, the slopes of the nonlinearities) is done once over all
steps, before the time loop. Every parameter of a network lives in one flat
buffer, in param_dict order, and so do its gradients and both Adam moments
while it trains: a layer's stacked weights are strided views of it, the
backward pass writes each gradient into its view, and the Adam update runs
over the one span.

Large float32 products are split over threads along their larger side, by
rows or by columns (`_pool.run_blocks`); float32 time loops by hidden
units, the threads advancing step by step in lockstep
(`_pool.run_lockstep`); and the Adam step, in either dtype, by pieces of
the parameters. Each split gives the bits of the whole computation (see
`_split_work`).

A network computes in its parameters' dtype: build_network draws float64
by default, and every other function takes its dtype from the arrays it is
given, so a float32 network trains, checkpoints and predicts in float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _binio, _pool
from .errors import ConfigError, DataError, NumericError


@dataclass
class LstmParams:
    """The directions of one layer, stacked on a leading axis (forward,
    then backward). Each direction holds its four gates in the order
    candidate, update, forget, output (c, u, f, o): input weights w_x
    (k, 4h, d), recurrent weights w_a (k, 4h, h) and bias b (k, 4h). Gate g
    owns rows g*h:(g+1)*h of all three."""

    w_x: np.ndarray
    w_a: np.ndarray
    b: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w_a.shape[2]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[2]

    @property
    def directions(self) -> int:
        return self.w_x.shape[0]


def init_lstm_params(params: LstmParams, rng: np.random.Generator) -> None:
    """Draw every direction of a layer in turn, in place: uniform
    +-1/sqrt(fan_in) weights, zero biases except the forget gate's at 1.

    Each gate in turn draws one (h, h+d) block over [a_prev, x] in float64;
    its first h columns are recurrent weights and the rest input weights,
    rounded into the parameters' dtype. So the draws do not depend on the
    dtype. The gates share one block buffer, filled with the arithmetic of
    rng.uniform(-bound, bound), low + (high - low) * random(), bit for bit."""
    hidden, input_dim = params.hidden, params.input_dim
    bound = 1.0 / math.sqrt(hidden + input_dim)
    block = np.empty((hidden, hidden + input_dim))
    for w_x, w_a, b in zip(params.w_x, params.w_a, params.b):
        for k in range(4):
            rng.random(out=block)
            block *= 2.0 * bound
            block -= bound
            w_a[k * hidden: (k + 1) * hidden] = block[:, :hidden]
            w_x[k * hidden: (k + 1) * hidden] = block[:, hidden:]
        b[:] = 0.0
        b[2 * hidden: 3 * hidden] = 1.0


# Column blocks and hidden-unit blocks start at multiples of this many
# columns: the groups of 8 of the rule in _split_work.
_ALIGN = 8


def _split_work(m: int, k: int, n: int, dtype: np.dtype) -> int:
    """The work run_blocks or run_lockstep weighs to split an (m, k) @ (k, n)
    float32 product by rows, or by columns or hidden units in blocks that
    start at multiples of _ALIGN: m*k*n, or 0, which keeps it whole, when n
    is not a multiple of 8 or the dtype is not float32 (float64 serves
    direct callers and the tests, and never splits). Each output element
    keeps its whole sum, so a block gets the bits the whole product gives
    it, except in a one-row block (numpy's matrix-vector path) or one under
    about 10^6 multiply-adds (OpenBLAS's small-matrix kernels), which
    run_blocks never makes, and possibly in the last n % 8 columns, whose
    bits can depend on the shape of the call they fall in. A time loop
    split by hidden units takes the rule of its backward step's product
    (m, 4h) @ (4h, h): with h a multiple of 8, each gate's block of units
    also starts on a group of 8 rows of the forward step's (4h, h) @ (h, m)
    (_recurrent_product). A stack of directions is weighed as one
    direction."""
    return m * k * n if dtype == np.float32 and n % 8 == 0 else 0


def _recurrent_product(w_a: np.ndarray, out: np.ndarray, lo: int,
                       hi: int) -> tuple[Callable[[int, int], object], np.ndarray]:
    """The recurrent product of lstm_layer_forward's block of units lo:hi,
    for w_a (k, 4h, h) and the outputs out (k, S, m, h): a function of
    (n, t) that computes w_a @ a_prev^T for the first n directions'
    a_prev = out[:, t] into a (k, 4, units, m) buffer, and that buffer's
    (k, m, 4, units) view in the gates' order. With the weight on the left
    OpenBLAS packs far less of a wide weight. One block makes each
    direction's whole (4h, h) @ (h, m) product, as per-gate products at
    small widths do not give its bits; a thread's block makes one stacked
    matmul over each gate's units."""
    k, _, m, h = out.shape
    rec = np.empty((k, 4, hi - lo, m), dtype=out.dtype)
    a_prev = out.transpose(0, 1, 3, 2)  # (k, S, h, m)
    if hi - lo == h:
        w_rec, rec_out = w_a, rec.reshape(k, 4 * h, m)
    else:  # (k, 4, units, h) @ (k, 1, h, m)
        w_rec, rec_out = w_a.reshape(k, 4, h, h)[:, :, lo:hi], rec
        a_prev = a_prev[:, :, None]
    return (lambda n, t: np.matmul(w_rec[:n], a_prev[:n, t], out=rec_out[:n]),
            rec.transpose(0, 3, 1, 2))


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One product per direction, a (k, m, K) @ b (k, K, n), into out or
    a new (k, m, n) array. Each direction's product is the 2-D call it would
    be alone, so it has that call's bits. A large float32 product is split
    over threads along its larger side, as one direction's product would
    be: by blocks of columns when it has more columns than rows, so each
    thread packs only its share of b, and by blocks of rows otherwise. Each
    block writes its part of out in place."""
    m, k, n = a.shape[1], a.shape[2], b.shape[2]
    if out is None:
        out = np.empty((len(a), m, n), dtype=np.result_type(a, b))
    work = _split_work(m, k, n, out.dtype)
    if n > m:
        def columns(lo: int, hi: int) -> None:
            np.matmul(a, b[..., lo:hi], out=out[..., lo:hi])

        _pool.run_blocks(columns, n, work, _ALIGN)
    else:
        def rows(lo: int, hi: int) -> None:
            np.matmul(a[:, lo:hi], b, out=out[:, lo:hi])

        _pool.run_blocks(rows, m, work)
    return out


def _active(steps: tuple[int, ...]) -> list[int]:
    """How many directions of the stack run each step: steps[j] is the
    steps direction j runs, largest first."""
    return [sum(s > t for s in steps) for t in range(steps[0])]


def lstm_layer_forward(params: LstmParams, xs: np.ndarray,
                       steps: tuple[int, ...]) -> tuple[np.ndarray, dict]:
    """Run the k directions of a layer as one stack, from zero initial
    state, over xs (k, L, m, d): each direction's inputs, time-major, in
    the order that direction reads them. Direction j runs its first
    steps[j] steps: the first direction S = steps[0], each other S or one.
    Returns the (k, S, m, h) outputs, each direction's in its own time
    order, and the cache. At each step the stack narrows to the directions
    still running, so one that stops early keeps zeros after its first
    step and shares the one code path.

    The input projection of all L steps is one stacked GEMM before the time
    loop, so each step makes one stacked recurrent GEMM; the projection
    keeps its L*m rows, and so its bits, whatever the steps are. The bias
    is added to every step's projection at once, before the loop, and each
    step's gate arithmetic is a few calls over (k, m, 4, h). A split loop
    gives each thread a block of hidden units for every step: the thread
    computes its units' rows of the four gates' w_a @ a_prev^T
    (_recurrent_product) and then their gate and cell arithmetic. The
    threads advance in lockstep, each waiting before it reads the previous
    step's whole output."""
    k, length, m, d = xs.shape
    h = params.hidden
    if d != params.input_dim:
        raise DataError(f"layer expects input width {params.input_dim}, got {d}")
    active = _active(steps)
    gates = _matmul(xs.reshape(k, length * m, d), params.w_x.transpose(0, 2, 1))
    gates = gates.reshape(k, length, m, 4, h)
    c_all, tc, out = (np.zeros((k, len(active), m, h), dtype=gates.dtype) for _ in range(3))
    bias = params.b.reshape(k, 1, 1, 4, h)

    def loop(lo: int, hi: int, wait: Callable[[], object]) -> None:
        units = slice(lo, hi)  # this block's views of every step
        g_all = gates[:, : len(active), ..., units]  # (k, S, m, 4, units): c, u, f, o
        g_all += bias[..., units]
        c_units, tc_units, out_units = c_all[..., units], tc[..., units], out[..., units]
        product, rec = _recurrent_product(params.w_a, out, lo, hi)
        # for gates c, u, f, o: the sigmoids' halving and one, and for the candidate 1 and
        # -0.0, which change no bit of its tanh, so each step's activations are whole-row
        # calls; full-size, since a broadcast operand makes numpy loop row by row
        half, one = (np.empty((k, m, 4, hi - lo), dtype=gates.dtype) for _ in range(2))
        half[...] = np.array([1.0, 0.5, 0.5, 0.5], dtype=gates.dtype)[:, None]
        one[...] = np.array([-0.0, 1.0, 1.0, 1.0], dtype=gates.dtype)[:, None]
        for t, n in enumerate(active):
            g = g_all[:n, t]
            if t:
                wait()  # every block has written out[:, t - 1]
                product(n, t - 1)
                g += rec[:n]
            g *= half[:n]  # sigmoid(z) = 0.5 * (1 + tanh(z / 2)) for u, f, o
            np.tanh(g, out=g)
            g += one[:n]
            g *= half[:n]
            c = c_units[:n, t]
            np.multiply(g[..., 1, :], g[..., 0, :], out=c)
            if t:
                c += g[..., 2, :] * c_units[:n, t - 1]
            np.tanh(c, out=tc_units[:n, t])
            np.multiply(g[..., 3, :], tc_units[:n, t], out=out_units[:n, t])

    _pool.run_lockstep(loop, h, _split_work(m, 4 * h, h, gates.dtype), _ALIGN)
    if not np.isfinite(out).all():
        raise NumericError("non-finite activation in lstm layer")
    cache = {"xs": xs, "gates": gates, "c": c_all, "tc": tc, "a": out, "steps": steps}
    return out, cache


def lstm_layer_backward(params: LstmParams, cache: dict, d_out: np.ndarray,
                        grads: LstmParams) -> np.ndarray:
    """Backpropagate lstm_layer_forward's stack through time, through both
    the a and c recurrences, over the steps each direction ran; d_out is
    (k, S, m, h), each direction's in its own time order. Writes the
    parameters' gradients into grads, in place, and returns the input
    gradients (k, L, m, d), each direction's in its own time order.

    The slopes of the forward pass's nonlinearities (1 - cand^2,
    sigma * (1 - sigma) and 1 - tanh(c)^2) are computed once over all steps,
    before the loop, which then carries only the recurrent gradients. Each
    step's gate pre-activation gradients land in one (k, L, m, 4h) buffer,
    zero past the steps each direction ran, from which the input weight,
    bias and input gradients each take one stacked GEMM or reduction over
    all L*m rows, the rows the forward projection had. The recurrent
    weight gradient takes the rows of steps 1..S-1 of the directions that
    ran them; a direction that ran one step gets zero. A split loop gives
    each thread a block of hidden units, as the forward pass does: the
    thread runs its units' elementwise steps, waits until every block has
    written the step's gate gradients, and then computes its units'
    columns of the next step's da."""
    gates, c_all, tc, xs = cache["gates"], cache["c"], cache["tc"], cache["xs"]
    k, length, m, _, h = gates.shape
    active = _active(cache["steps"])
    ran = len(active)
    second = active[1] if ran > 1 else 0  # the directions that ran step 1
    d_gates = np.empty((k, length, m, 4, h), dtype=gates.dtype)
    d_gates[:, ran:] = 0.0

    def loop(lo: int, hi: int, wait: Callable[[], object]) -> None:
        units = slice(lo, hi)  # this block's views of every step
        g_all, dg_all = gates[:, :ran, ..., units], d_gates[:, :ran, ..., units]
        c_units, tc_units, d_out_units = c_all[..., units], tc[..., units], d_out[..., units]
        # every step's slopes: 1 - cand^2, then sigma * (1 - sigma) for u, f, o;
        # each step multiplies its gate gradients in
        np.multiply(g_all[..., 0, :], g_all[..., 0, :], out=dg_all[..., 0, :])
        np.subtract(1.0, dg_all[..., 0, :], out=dg_all[..., 0, :])
        np.subtract(1.0, g_all[..., 1:, :], out=dg_all[..., 1:, :])
        dg_all[..., 1:, :] *= g_all[..., 1:, :]
        dg_all[second:, 1:] = 0.0  # directions that ran one step
        tc_slope = tc_units * tc_units
        np.subtract(1.0, tc_slope, out=tc_slope)
        w_units = params.w_a[..., units]
        da, dc = (np.zeros((k, m, hi - lo), dtype=gates.dtype) for _ in range(2))
        f = np.empty((k, m, 4, hi - lo), dtype=gates.dtype)  # what the slopes multiply
        for t in range(ran - 1, -1, -1):
            n = active[t]
            g, f_n, da_n, dc_n = g_all[:n, t], f[:n], da[:n], dc[:n]
            da_n += d_out_units[:n, t]
            np.multiply(da_n, g[..., 3, :], out=f_n[..., 3, :])  # da * go
            f_n[..., 3, :] *= tc_slope[:n, t]
            dc_n += f_n[..., 3, :]
            np.multiply(dc_n[:, :, None], g[..., 1::-1, :], out=f_n[..., :2, :])  # u, cand
            if t:
                np.multiply(dc_n, c_units[:n, t - 1], out=f_n[..., 2, :])
            else:
                f_n[..., 2, :] = 0.0  # the zero initial cell state
            np.multiply(da_n, tc_units[:n, t], out=f_n[..., 3, :])
            dg_all[:n, t] *= f_n
            if t:
                dc_n *= g[..., 2, :]
                wait()  # every block has written d_gates[:, t]
                np.matmul(d_gates[:n, t].reshape(n, m, 4 * h), w_units[:n], out=da_n)

    _pool.run_lockstep(loop, h, _split_work(m, 4 * h, h, gates.dtype), _ALIGN)
    rows = d_gates.reshape(k, length * m, 4 * h)
    _matmul(rows.transpose(0, 2, 1), xs.reshape(k, length * m, -1), out=grads.w_x)
    a_prev = cache["a"][:second, : ran - 1].reshape(second, (ran - 1) * m, h)
    _matmul(rows[:second, m: ran * m].transpose(0, 2, 1), a_prev, out=grads.w_a[:second])
    grads.w_a[second:] = 0.0
    rows.sum(axis=1, out=grads.b)
    return _matmul(rows, params.w_x).reshape(k, length, m, -1)


# Each direction of a layer: its parameter-name tag and the order in which
# it reads the time axis. The backward direction reads the sequence reversed.
_DIRECTIONS = (("f", 1), ("b", -1))


def layer_forward(params: LstmParams, seq: np.ndarray, top: bool) -> tuple[np.ndarray, dict]:
    """Run every direction of one layer over seq (m, L, d).

    output[t] concatenates each direction's output at step t: the backward
    direction runs on the reversed sequence and its output is re-reversed.
    The top layer returns only the last step, (m, 1, k), the one the head
    reads. Its backward half is the backward direction's first step, so
    there that direction runs one step. A one-direction layer returns a
    view of its output without a copy."""
    m, length, d = seq.shape
    directions = _DIRECTIONS[: params.directions]
    xs = np.empty((len(directions), length, m, d), dtype=seq.dtype)
    for x, (_, order) in zip(xs, directions):
        x[...] = seq[:, ::order].transpose(1, 0, 2)
    steps = tuple(1 if top and order < 0 else length for _, order in directions)
    out, cache = lstm_layer_forward(params, xs, steps)
    n = 1 if top else length  # the output's last n positions
    halves = [o[length - n:] if order > 0 else o[n - 1::-1]
              for o, (_, order) in zip(out, directions)]
    both = halves[0] if len(halves) == 1 else np.concatenate(halves, axis=2)
    return both.transpose(1, 0, 2), cache


def layer_backward(params: LstmParams, cache: dict, d_out: np.ndarray,
                   grads: LstmParams) -> np.ndarray:
    """Backpropagate one layer into grads: each direction takes its own
    feature block of d_out (m, n, k*h), the output's last n positions, in
    its own time order. The top layer's d_out holds only the last
    position, the forward direction's last step and the backward
    direction's first. The input gradient is the forward direction's part
    plus the re-reversed backward part."""
    k, ran, m, h = cache["a"].shape
    length, n = cache["xs"].shape[1], d_out.shape[1]
    d_steps = np.zeros((k, ran, m, h), dtype=d_out.dtype)
    for j, (d_dir, (_, order)) in enumerate(zip(d_steps, _DIRECTIONS)):
        part = d_out[:, :, j * h: (j + 1) * h].transpose(1, 0, 2)
        if order > 0:
            d_dir[length - n:] = part
        else:
            d_dir[:n] = part[::-1]
    d_xs = lstm_layer_backward(params, cache, d_steps, grads)
    d_seq = d_xs[0]
    for d_x in d_xs[1:]:
        d_seq = d_seq + d_x[::-1]
    return d_seq.transpose(1, 0, 2)


@dataclass
class BiLstmNetwork:
    """Two recurrent layers with ReLU + dropout between, affine head on the
    last time step. Each layer stacks its directions: forward alone for the
    unidirectional LSTM, forward then backward for the Bi-LSTM.

    Every parameter is a view of one flat buffer, which holds them end to
    end in param_dict order: each direction's w_x, w_a and b, layer by
    layer, then the head's weights and bias. So a layer's stacked w_x, w_a
    and b are strided views, one direction's arrays apart, and a checkpoint
    holds the same arrays, in the same order, with the same bytes, as when
    each was an array of its own. zeros_like gives the same layout over a
    zeroed buffer, the gradients' shape."""

    flat: np.ndarray
    input_dim: int
    hiddens: tuple[int, ...]
    directions: int
    dropout_rate: float
    layers: tuple[LstmParams, ...] = field(init=False)
    dense_w: np.ndarray = field(init=False)
    dense_b: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        layers, at, width, k = [], 0, self.input_dim, self.directions
        for hidden in self.hiddens:
            rows = 4 * hidden
            size = rows * (width + hidden + 1)  # one direction's w_x, w_a and b
            block = self.flat[at: at + k * size].reshape(k, size)
            layers.append(LstmParams(
                w_x=block[:, : rows * width].reshape(k, rows, width),
                w_a=block[:, rows * width: size - rows].reshape(k, rows, hidden),
                b=block[:, size - rows:]))
            at += k * size
            width = k * hidden
        self.layers = tuple(layers)
        self.dense_w = self.flat[at: at + width]
        self.dense_b = self.flat[at + width:].reshape(1)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter, and of everything the net computes."""
        return self.flat.dtype

    def zeros_like(self) -> BiLstmNetwork:
        """The same layout over a new zeroed buffer."""
        return BiLstmNetwork(np.zeros(self.flat.shape, self.dtype), self.input_dim, self.hiddens,
                             self.directions, self.dropout_rate)

    def param_dict(self) -> dict[str, np.ndarray]:
        """Live views of flat, in its order (l1f, l1b, l2f, l2b, dense);
        the optimizer mutates them in place."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers, 1):
            for j, (tag, _) in enumerate(_DIRECTIONS[: layer.directions]):
                out[f"l{i}{tag}.w_x"] = layer.w_x[j]
                out[f"l{i}{tag}.w_a"] = layer.w_a[j]
                out[f"l{i}{tag}.b"] = layer.b[j]
        out["dense.w"] = self.dense_w
        out["dense.b"] = self.dense_b
        return out


def _network(input_dim: int, hiddens: tuple[int, ...], directions: int, dropout_rate: float,
             dtype: np.dtype) -> BiLstmNetwork:
    """A network of zeros in one new buffer of the layout's size."""
    size, width = 1, input_dim  # the head's bias, then each layer's directions
    for hidden in hiddens:
        size += directions * 4 * hidden * (width + hidden + 1)
        width = directions * hidden
    return BiLstmNetwork(np.zeros(size + width, dtype=dtype), input_dim, hiddens, directions,
                         dropout_rate)


def check_widths(input_dim: int, hidden1: int, hidden2: int) -> None:
    """build_network's widths, which RunConfig also checks."""
    if input_dim < 1 or hidden1 < 1 or hidden2 < 1:
        raise ConfigError(
            f"widths must be positive, got input={input_dim}, h1={hidden1}, h2={hidden2}"
        )


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
    check_widths(input_dim, hidden1, hidden2)
    check_dropout(dropout_rate)
    rng = np.random.default_rng(seed)
    net = _network(input_dim, (hidden1, hidden2), 2 if bidirectional else 1, dropout_rate,
                   np.dtype(dtype))
    for layer in net.layers:
        init_lstm_params(layer, rng)
    bound = 1.0 / math.sqrt(len(net.dense_w))
    net.dense_w[:] = rng.uniform(-bound, bound, size=len(net.dense_w))
    return net


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
    width = net.input_dim
    if inputs.ndim != 3 or inputs.shape[2] != width:
        raise DataError(f"inputs must be (m, L, {width}), got {inputs.shape}")
    if not np.isfinite(inputs).all():
        raise NumericError("non-finite activation in network inputs")

    rate = net.dropout_rate if mode == "train" else 0.0
    rng = np.random.default_rng(seed) if rate > 0.0 else None
    cache: dict = {"mode": mode, "layers": [], "relu": [], "drop": []}
    length = inputs.shape[1]
    act = inputs
    for i, layer in enumerate(net.layers):
        out, layer_cache = layer_forward(layer, act, i == len(net.layers) - 1)
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
            cache["layers"].append(layer_cache)
            cache["relu"].append(relu)
            cache["drop"].append(keep)
        del out, layer_cache, relu  # an eval pass frees them before the next layer

    last = act[:, -1, :]
    preds = last @ net.dense_w + net.dense_b[0]
    if not np.isfinite(preds).all():
        raise NumericError("non-finite activation in dense head")
    cache["last"] = last
    return preds, cache


def network_backward(
    net: BiLstmNetwork, cache: dict, d_preds: np.ndarray,
    grads: BiLstmNetwork | None = None,
) -> dict[str, np.ndarray]:
    """Gradients of the scalar loss for every parameter, keyed like
    param_dict: views of grads (net.zeros_like() by default), into which
    each is written in place, so a training step allocates no new set.
    Needs a cache produced by a train-mode forward pass."""
    if cache.get("mode") != "train":
        raise DataError("backward needs a cache from a train-mode forward pass")
    d_preds = np.asarray(d_preds, dtype=net.dtype)
    m = len(cache["last"])
    if d_preds.shape != (m,):
        raise DataError(f"upstream gradient must be ({m},), got {d_preds.shape}")
    if grads is None:
        grads = net.zeros_like()

    np.matmul(cache["last"].T, d_preds, out=grads.dense_w)
    grads.dense_b[0] = d_preds.sum()
    d_act = np.outer(d_preds, net.dense_w)[:, None, :]  # the top layer's one step
    for i in reversed(range(len(net.layers))):
        if cache["drop"][i] is not None:
            d_act = d_act * cache["drop"][i]
        # layer 1's input gradient, with respect to the network's inputs, goes unused
        d_act = layer_backward(net.layers[i], cache["layers"][i], d_act * cache["relu"][i],
                               grads.layers[i])
    return grads.param_dict()


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
    """Both moments, flat in the layout of the parameters' buffer."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam_state(net: BiLstmNetwork) -> AdamState:
    """Zero moments in the parameters' dtype, left untouched so the first
    (threaded) step writes their pages."""
    return AdamState(m=np.zeros(net.flat.shape, net.dtype), v=np.zeros(net.flat.shape, net.dtype))


# The norm pass works through each array in pieces of at most this many
# elements, and the update pass through the flat buffer in pieces of
# _UPDATE_BYTES of the parameters' dtype (65536 float32 or 32768 float64
# elements), so a piece stays in cache across all of its operations. The
# update is elementwise, so its piece size changes no bit; the norm's
# pieces fix its sum's order.
_CHUNK = 32768
_UPDATE_BYTES = 1 << 18

# Element operations per parameter in one Adam step, as the work run_blocks
# weighs: the update makes up to 15 passes over the chunk and the norm one more.
_ADAM_OPS = 16


def adam_step(
    params: BiLstmNetwork,
    grads: BiLstmNetwork,
    state: AdamState,
    config: TrainConfig,
) -> tuple[BiLstmNetwork, AdamState]:
    """One bias-corrected Adam update after global-norm clipping.

    The parameters, the gradients (a params.zeros_like() set) and the
    moments share one flat layout and are updated in place: the gradient
    buffer is overwritten with the step. The squares for the global norm
    go through each parameter array in pieces of _CHUNK elements, in
    param_dict order (which is the flat order); the squared norm is the sum
    of each piece's np.sum(g * g), in that order, so it does not depend on
    the thread count, and for an array of one piece it is np.sum(g * g).
    The update goes through the one flat span in pieces of _UPDATE_BYTES.
    Both passes are split over threads by run_blocks; each block keeps its
    temporaries in a work buffer of its own, of one piece or its whole span
    if that is shorter, in the parameters' dtype, and each piece runs all
    of its operations before the next. The arithmetic, operation for
    operation, is

        g = grad * factor  (skipped when the step is not clipped: factor 1)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        param -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
    """
    flat, g_flat = params.flat, grads.flat
    if not all(arr.shape == flat.shape and arr.dtype == flat.dtype
               for arr in (g_flat, state.m, state.v)):
        raise DataError(f"parameters {flat.shape} {flat.dtype}, gradients {g_flat.shape} "
                        f"{g_flat.dtype} and moments {state.m.shape} {state.m.dtype} "
                        "must share one layout")
    ops = _ADAM_OPS * flat.size
    dtype = np.result_type(np.float32, flat)  # float32 at least

    norm_pieces, at = [], 0
    for arr in grads.param_dict().values():
        norm_pieces += [(lo, min(lo + _CHUNK, at + arr.size))
                        for lo in range(at, at + arr.size, _CHUNK)]
        at += arr.size
    squares = [0.0] * len(norm_pieces)

    def square_sums(first: int, last: int) -> None:
        buf = np.empty(min(_CHUNK, flat.size), dtype=dtype)
        for j in range(first, last):
            lo, hi = norm_pieces[j]
            g = g_flat[lo:hi]
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

    def update(first: int, last: int) -> None:
        buf = np.empty(min(size, flat.size - first * size), dtype=dtype)
        for j in range(first, last):
            lo, hi = j * size, min((j + 1) * size, flat.size)
            p, m, v, g = flat[lo:hi], state.m[lo:hi], state.v[lo:hi], g_flat[lo:hi]
            tmp = buf[: hi - lo]
            if factor != 1.0:
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

    _pool.run_blocks(update, -(-flat.size // size), ops)
    return params, state


def train(net: BiLstmNetwork, inputs: np.ndarray, targets: np.ndarray,
          config: TrainConfig) -> tuple[BiLstmNetwork, list[float]]:
    """Mini-batch training; returns the trained net and mean loss per epoch.
    The inputs are cast once to the net's dtype; the loss is float64. The
    gradients and both Adam moments are one flat buffer each, reused by
    every step."""
    inputs = np.asarray(inputs, dtype=net.dtype)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 3 or targets.ndim != 1 or len(inputs) != len(targets):
        raise DataError(f"bad training shapes {inputs.shape} / {targets.shape}")
    m = len(targets)
    if m < 1:
        raise DataError("need at least one training sample")

    rng = np.random.default_rng(config.seed)
    grads = net.zeros_like()
    state = init_adam_state(net)
    losses: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(m)
        total = 0.0
        for lo in range(0, m, config.batch_size):
            chunk = perm[lo: lo + config.batch_size]
            step_seed = int(rng.integers(0, 2**63 - 1))
            preds, cache = network_forward(net, inputs[chunk], "train", step_seed)
            loss, d_preds = logcosh_loss(preds, targets[chunk])
            network_backward(net, cache, d_preds, grads)
            del cache  # the Adam step needs only the gradients
            adam_step(net, grads, state, config)
            total += loss * len(chunk)
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
    """Inverse of save_network: a new network is laid out from the shapes
    of the file's first arrays, and the file's arrays are read straight
    into its buffer, which holds them end to end in the file's order. No
    initial weights are drawn and nothing is copied; a file whose arrays
    are not that layout's, in its order, raises DataError."""

    def build(meta: dict, specs: list[_binio.Spec]) -> tuple[BiLstmNetwork, dict]:
        shapes = {name: (dtype, shape) for name, dtype, shape in specs}
        dtype, (_, input_dim) = shapes["l1f.w_x"]
        hiddens = (shapes["l1f.w_a"][1][1], shapes["l2f.w_a"][1][1])
        net = _network(input_dim, hiddens, 2 if "l1b.b" in shapes else 1,
                       float(meta["dropout_rate"]), dtype)
        return net, net.param_dict()

    return _binio.load(path, "network", build)
