"""Recurrent network: cell/layer oracles, BPTT gradient checks, loss,
optimizer, dropout, and training behavior."""

import math
import os
import struct
import types

import numpy as np
import pytest

from walkforge import _binio, _pool, nets
from walkforge.errors import ConfigError, DataError, NumericError
from walkforge.nets import (
    LstmParams,
    TrainConfig,
    adam_step,
    build_network,
    init_adam_state,
    init_lstm_params,
    layer_backward,
    layer_forward,
    load_network,
    logcosh_loss,
    lstm_layer_backward,
    lstm_layer_forward,
    network_backward,
    network_forward,
    save_network,
    train,
)

# --- independent oracle: scalar loops, math-module transcendentals ----------

GATES = ("c", "u", "f", "o")  # row-block order of the fused arrays


def sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def gate_row(params, gate, i):
    """Weights of unit i of `gate` over [a_prev, x], and its bias, read out
    of the fused (4h, .) arrays."""
    r = GATES.index(gate) * params.hidden + i
    return list(params.w_a[r]) + list(params.w_x[r]), params.b[r]


def pre_activation(params, gate, i, z):
    w, b = gate_row(params, gate, i)
    return sum(wj * zj for wj, zj in zip(w, z)) + b


def oracle_step(params, a_prev, c_prev, x):
    """One cell step for one sample; returns (a, c)."""
    z = list(a_prev) + list(x)
    new_a, new_c = [], []
    for i in range(params.hidden):
        pre = {g: pre_activation(params, g, i, z) for g in GATES}
        ci = sig(pre["u"]) * math.tanh(pre["c"]) + sig(pre["f"]) * c_prev[i]
        new_c.append(ci)
        new_a.append(sig(pre["o"]) * math.tanh(ci))
    return new_a, new_c


def oracle_layer(params, seq):
    """One sample (L, d) through the cell recurrence, scalar arithmetic."""
    h = params.hidden
    a, c = [0.0] * h, [0.0] * h
    outs = []
    for x_t in seq:
        a, c = oracle_step(params, a, c, x_t)
        outs.append(a)
    return outs


def oracle_layer_backward(params, seq, d_out):
    """Scalar BPTT for one sample: (d_seq, dW over [a_prev, x] per fused
    row, db per fused row), with per-gate loops and no fused arithmetic."""
    h, d = params.hidden, params.input_dim
    a, c = [0.0] * h, [0.0] * h
    steps = []
    for x_t in seq:
        z = list(a) + list(x_t)
        pre = {g: [pre_activation(params, g, i, z) for i in range(h)] for g in GATES}
        cand = [math.tanh(v) for v in pre["c"]]
        u, f, o = ([sig(v) for v in pre[g]] for g in ("u", "f", "o"))
        c_new = [u[i] * cand[i] + f[i] * c[i] for i in range(h)]
        steps.append((z, cand, u, f, o, c, c_new))
        a = [o[i] * math.tanh(c_new[i]) for i in range(h)]
        c = c_new
    d_w = [[0.0] * (h + d) for _ in range(4 * h)]
    d_b = [0.0] * (4 * h)
    d_seq = [None] * len(seq)
    da_next, dc_next = [0.0] * h, [0.0] * h
    for t in range(len(seq) - 1, -1, -1):
        z, cand, u, f, o, c_prev, c_t = steps[t]
        d_pre = [0.0] * (4 * h)
        for i in range(h):
            da = d_out[t][i] + da_next[i]
            tc = math.tanh(c_t[i])
            dc = dc_next[i] + da * o[i] * (1.0 - tc * tc)
            d_pre[i] = dc * u[i] * (1.0 - cand[i] ** 2)
            d_pre[h + i] = dc * cand[i] * u[i] * (1.0 - u[i])
            d_pre[2 * h + i] = dc * c_prev[i] * f[i] * (1.0 - f[i])
            d_pre[3 * h + i] = da * tc * o[i] * (1.0 - o[i])
            dc_next[i] = dc * f[i]
        dz = [0.0] * (h + d)
        for r in range(4 * h):
            w, _ = gate_row(params, GATES[r // h], r % h)
            d_b[r] += d_pre[r]
            for j in range(h + d):
                d_w[r][j] += d_pre[r] * z[j]
                dz[j] += d_pre[r] * w[j]
        da_next, d_seq[t] = dz[:h], dz[h:]
    return d_seq, d_w, d_b


def oracle_bilayer(fwd, bwd, seq):
    front = oracle_layer(fwd, seq)
    back = oracle_layer(bwd, seq[::-1])[::-1]
    return [f + b for f, b in zip(front, back)]


# --- one direction at a time ------------------------------------------------

def stack(hidden, input_dim, directions=1, dtype=np.float64):
    """An empty layer of `directions` stacked directions."""
    return LstmParams(w_x=np.empty((directions, 4 * hidden, input_dim), dtype),
                      w_a=np.empty((directions, 4 * hidden, hidden), dtype),
                      b=np.empty((directions, 4 * hidden), dtype))


def drawn(hidden, input_dim, rng, dtype=np.float64, directions=1):
    """A layer whose directions init_lstm_params draws in turn."""
    params = stack(hidden, input_dim, directions, dtype)
    init_lstm_params(params, rng)
    return params


def cell(layer, j=0):
    """Direction j of a layer as its own 2-D arrays, as the oracles read it."""
    return types.SimpleNamespace(w_x=layer.w_x[j], w_a=layer.w_a[j], b=layer.b[j],
                                 hidden=layer.hidden, input_dim=layer.input_dim)


def direction(layer, j):
    """Direction j of a layer as a one-direction layer: views, no copy."""
    return LstmParams(w_x=layer.w_x[j: j + 1], w_a=layer.w_a[j: j + 1], b=layer.b[j: j + 1])


def run_layer(params, seq, steps):
    """A one-direction layer's first `steps` steps over seq (m, L, d):
    (out (m, steps, h), cache)."""
    xs = np.ascontiguousarray(seq.transpose(1, 0, 2))[None]
    out, cache = lstm_layer_forward(params, xs, (steps,))
    return out[0].transpose(1, 0, 2), cache


def run_layer_backward(params, cache, d_out):
    """lstm_layer_backward of a one-direction layer for d_out (m, steps, h):
    (d_seq (m, L, d), {"w_x": ..., "w_a": ..., "b": ...})."""
    grads = stack(params.hidden, params.input_dim, 1, params.w_x.dtype)
    d_xs = lstm_layer_backward(params, cache, np.ascontiguousarray(d_out.transpose(1, 0, 2))[None],
                               grads)
    return d_xs[0].transpose(1, 0, 2), {"w_x": grads.w_x[0], "w_a": grads.w_a[0], "b": grads.b[0]}


def relu(row):
    return [max(0.0, v) for v in row]


def oracle_network(net, sample):
    """One sample (L, F) through both layers, ReLU between, affine head."""
    act = [list(row) for row in sample]
    for layer in net.layers:
        cells = [cell(layer, j) for j in range(layer.directions)]
        out = oracle_bilayer(*cells, act) if len(cells) == 2 else oracle_layer(cells[0], act)
        act = [relu(row) for row in out]
    return sum(w * v for w, v in zip(net.dense_w, act[-1])) + net.dense_b[0]


def zero_params(hidden, input_dim):
    return LstmParams(w_x=np.zeros((1, 4 * hidden, input_dim)),
                      w_a=np.zeros((1, 4 * hidden, hidden)), b=np.zeros((1, 4 * hidden)))


def gate_bias(params, gate):
    """The bias block of one gate of a one-direction layer: a writable view
    into the fused bias."""
    h = params.hidden
    k = GATES.index(gate)
    return params.b[0, k * h: (k + 1) * h]


class TestCell:
    """One cell step, run as a layer of length 1 (or longer where a nonzero
    previous cell state is needed)."""

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        params = drawn(3, 2, rng)
        params.b[:] = rng.normal(size=12)
        x = rng.normal(size=(1, 1, 2))
        out, cache = run_layer(params, x, 1)
        want_a, want_c = oracle_step(cell(params), [0.0] * 3, [0.0] * 3, x[0, 0])
        np.testing.assert_allclose(cache["c"][0, 0, 0], want_c, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(out[0, 0], want_a, rtol=1e-12, atol=1e-15)

    def test_all_zero_parameters_halve_everything(self):
        # Zero weights: every sigmoid gate is 1/2, and with candidate bias
        # beta the candidate is tanh(beta), so c_t = (tanh(beta) + c_{t-1})/2
        # and a_t = tanh(c_t)/2 whatever the input.
        params = zero_params(4, 2)
        beta = np.array([0.3, -1.2, 0.0, 2.5])
        gate_bias(params, "c")[:] = beta
        x = np.random.default_rng(1).normal(size=(1, 3, 2)) * 7.0
        out, cache = run_layer(params, x, 3)
        c = np.zeros(4)
        for t in range(3):
            c = 0.5 * np.tanh(beta) + 0.5 * c
            np.testing.assert_allclose(cache["c"][0, t, 0], c, rtol=1e-15)
            np.testing.assert_allclose(out[0, t], 0.5 * np.tanh(c), rtol=1e-15)

    def test_saturated_forget_gate_preserves_cell_state(self):
        # Step 0 writes tanh(beta) through a fully open update gate; later
        # steps close the update gate through the input, and a saturated
        # forget gate carries the cell state unchanged.
        params = zero_params(2, 1)
        beta = np.array([0.8, -0.4])
        gate_bias(params, "c")[:] = beta
        gate_bias(params, "f")[:] = 50.0
        params.w_x[0, 2:4, 0] = 50.0  # update gate rows
        x = np.array([[[1.0], [-1.0], [-1.0], [-1.0]]])
        _, cache = run_layer(params, x, 4)
        for t in range(4):
            np.testing.assert_allclose(cache["c"][0, t, 0], np.tanh(beta), rtol=0, atol=1e-20)

    def test_shape_mismatch_rejected(self):
        params = drawn(3, 2, np.random.default_rng(0))
        with pytest.raises(DataError, match="layer expects input width 2, got 4"):
            run_layer(params, np.zeros((1, 1, 4)), 1)


def stepwise_cell(params, a_prev, c_prev, x):
    """A numpy reference cell: four per-gate products over [a_prev, x]."""
    h = params.hidden
    z = np.concatenate([a_prev, x], axis=1)
    w = np.concatenate([params.w_a, params.w_x], axis=1)
    pre = [z @ w[k * h: (k + 1) * h].T + params.b[k * h: (k + 1) * h] for k in range(4)]
    cand = np.tanh(pre[0])
    gu, gf, go = (1.0 / (1.0 + np.exp(-p)) for p in pre[1:])
    c = gu * cand + gf * c_prev
    return go * np.tanh(c), c


class TestLayer:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        params = drawn(3, 2, rng)
        seq = rng.normal(size=(2, 4, 2))
        out, _ = run_layer(params, seq, 4)
        for s in range(2):
            want = oracle_layer(cell(params), [list(r) for r in seq[s]])
            np.testing.assert_allclose(out[s], want, rtol=1e-12, atol=1e-15)

    def test_output_at_t_ignores_the_future(self):
        rng = np.random.default_rng(2)
        params = drawn(4, 3, rng)
        seq = rng.normal(size=(2, 6, 3))
        full, _ = run_layer(params, seq, 6)
        for cut in (1, 3, 5):
            part, _ = run_layer(params, seq[:, :cut, :], cut)
            np.testing.assert_array_equal(part, full[:, :cut, :])

    def test_layer_agrees_with_stepwise_cell(self):
        rng = np.random.default_rng(3)
        params = drawn(3, 2, rng)
        seq = rng.normal(size=(2, 5, 2))
        out, _ = run_layer(params, seq, 5)
        a = np.zeros((2, 3))
        c = np.zeros((2, 3))
        for t in range(5):
            a, c = stepwise_cell(cell(params), a, c, seq[:, t, :])
            np.testing.assert_allclose(out[:, t, :], a, rtol=1e-14)


def oracle_loss(net, inputs, targets):
    """Mean log-cosh of the scalar oracle's predictions."""
    total = 0.0
    for sample, target in zip(inputs, targets):
        total += math.log(math.cosh(oracle_network(net, sample) - target))
    return total / len(targets)


class TestFusedLayer:
    @pytest.mark.parametrize("length", [1, 3])
    def test_layer_forward_and_backward_match_scalar_oracle(self, length):
        rng = np.random.default_rng(40 + length)
        params = drawn(3, 2, rng)
        params.b[:] += rng.uniform(-0.5, 0.5, size=12)
        seq = rng.normal(size=(2, length, 2))
        d_out = rng.normal(size=(2, length, 3))
        out, cache = run_layer(params, seq, length)
        d_seq, grads = run_layer_backward(params, cache, d_out)
        want_w = np.zeros((12, 5))
        want_b = np.zeros(12)
        for s in range(2):
            np.testing.assert_allclose(out[s], oracle_layer(cell(params), seq[s]),
                                       rtol=1e-12, atol=1e-15)
            o_seq, o_w, o_b = oracle_layer_backward(cell(params), seq[s], d_out[s])
            np.testing.assert_allclose(d_seq[s], o_seq, rtol=1e-11, atol=1e-14)
            want_w += np.array(o_w)
            want_b += np.array(o_b)
        np.testing.assert_allclose(grads["w_a"], want_w[:, :3], rtol=1e-11, atol=1e-14)
        np.testing.assert_allclose(grads["w_x"], want_w[:, 3:], rtol=1e-11, atol=1e-14)
        np.testing.assert_allclose(grads["b"], want_b, rtol=1e-11, atol=1e-14)

    @pytest.mark.parametrize("length", [1, 3])
    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_network_forward_and_backward_match_scalar_oracle(self, bidirectional, length):
        rng = np.random.default_rng(50 + length + 2 * bidirectional)
        net = build_network(2, hidden1=2, hidden2=3, dropout_rate=0.0,
                            bidirectional=bidirectional, seed=13)
        for arr in net.param_dict().values():
            arr += rng.uniform(-0.05, 0.05, size=arr.shape)
        inputs = rng.normal(size=(3, length, 2))
        targets = rng.normal(size=3)
        preds, cache = network_forward(net, inputs, "train", seed=0)
        for s in range(3):
            assert preds[s] == pytest.approx(oracle_network(net, inputs[s]),
                                             rel=1e-10, abs=1e-12)
        _, d_preds = logcosh_loss(preds, targets)
        grads = network_backward(net, cache, d_preds)
        # Central differences of the scalar oracle's loss.
        step = 1e-5
        worst = 0.0
        for name, arr in net.param_dict().items():
            flat = arr.ravel()
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + step
                hi = oracle_loss(net, inputs, targets)
                flat[idx] = keep - step
                lo = oracle_loss(net, inputs, targets)
                flat[idx] = keep
                fd = (hi - lo) / (2.0 * step)
                got = grads[name].ravel()[idx]
                worst = max(worst, abs(got - fd) / max(abs(got) + abs(fd), 1e-4))
        assert worst < 1e-6

    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_params_are_contiguous_and_write_through(self, bidirectional):
        net = build_network(2, hidden1=3, hidden2=2, bidirectional=bidirectional, seed=3)
        params = net.param_dict()
        assert len(params) == 3 * (4 if bidirectional else 2) + 2
        for name, arr in params.items():
            assert arr.flags.c_contiguous, name
            flat = arr.ravel()
            flat[-1] = 123.25
            assert net.param_dict()[name].ravel()[-1] == 123.25, name

    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_parameters_lie_end_to_end_in_one_buffer(self, bidirectional):
        # param_dict order is the flat order, and the layers' stacked views,
        # the named views and the buffer are one set of numbers
        net = build_network(3, hidden1=4, hidden2=5, bidirectional=bidirectional, seed=4)
        params = net.param_dict()
        assert np.concatenate([arr.ravel() for arr in params.values()]).tobytes() \
            == net.flat.tobytes()
        assert sum(arr.size for arr in params.values()) == net.flat.size
        for arr in [*params.values(), net.dense_w, net.dense_b] + [
                view for layer in net.layers for view in (layer.w_x, layer.w_a, layer.b)]:
            assert np.shares_memory(arr, net.flat)
        for i, layer in enumerate(net.layers, 1):
            for j, tag in enumerate("fb"[: layer.directions]):
                layer.w_x[j, -1, -1] = 7.5 + j
                layer.w_a[j, 0, 0] = -2.5 - j
                layer.b[j, 1] = 0.125 * (j + 1)
                assert params[f"l{i}{tag}.w_x"][-1, -1] == 7.5 + j
                assert params[f"l{i}{tag}.w_a"][0, 0] == -2.5 - j
                assert params[f"l{i}{tag}.b"][1] == 0.125 * (j + 1)
        net.flat[-1] = 3.0
        assert params["dense.b"][0] == 3.0 and net.dense_b[0] == 3.0
        grads = net.zeros_like()
        assert grads.flat.shape == net.flat.shape and not grads.flat.any()
        assert [(name, arr.shape) for name, arr in grads.param_dict().items()] == [
            (name, arr.shape) for name, arr in params.items()]
        assert not np.shares_memory(grads.flat, net.flat)


class TestBidirectional:
    def test_swap_and_reverse_identity(self):
        # Swapping direction parameters while reversing the input reverses
        # time and swaps the output halves — exactly.
        rng = np.random.default_rng(4)
        layer = drawn(3, 2, rng, directions=2)
        swapped_layer = LstmParams(w_x=layer.w_x[::-1].copy(), w_a=layer.w_a[::-1].copy(),
                                   b=layer.b[::-1].copy())
        seq = rng.normal(size=(2, 5, 2))
        a, _ = layer_forward(layer, seq, False)
        b, _ = layer_forward(swapped_layer, seq[:, ::-1, :], False)
        swapped = np.concatenate([b[:, :, 3:], b[:, :, :3]], axis=2)
        np.testing.assert_array_equal(a, swapped[:, ::-1, :])

    def test_halves_are_directional_runs(self):
        rng = np.random.default_rng(5)
        layer = drawn(2, 3, rng, directions=2)
        seq = rng.normal(size=(1, 4, 3))
        out, _ = layer_forward(layer, seq, False)
        front, _ = run_layer(direction(layer, 0), seq, 4)
        back, _ = run_layer(direction(layer, 1), seq[:, ::-1, :], 4)
        np.testing.assert_array_equal(out[:, :, :2], front)
        np.testing.assert_array_equal(out[:, :, 2:], back[:, ::-1, :])

    def test_one_direction_layer_returns_its_output_uncopied(self):
        rng = np.random.default_rng(6)
        fwd = drawn(2, 3, rng)
        seq = rng.normal(size=(2, 4, 3))
        out, cache = layer_forward(fwd, seq, False)
        alone, _ = run_layer(fwd, seq, 4)
        np.testing.assert_array_equal(out, alone)
        assert np.shares_memory(out, cache["a"])


# --- full-length reference: every direction of every layer over all L steps --

def full_length_forward(net, inputs, mode, seed=None):
    """network_forward with the top layer's backward direction run over the
    whole reversed sequence and the head reading the last step of the full
    (m, L, k) activation; returns (preds, what full_length_backward needs)."""
    rate = net.dropout_rate if mode == "train" else 0.0
    rng = np.random.default_rng(seed) if rate > 0.0 else None
    act, layers = inputs, []
    for layer in net.layers:
        outs, caches = [], []
        for j, step in zip(range(layer.directions), (1, -1)):
            out, cache = run_layer(direction(layer, j), act[:, ::step, :], act.shape[1])
            outs.append(out[:, ::step, :])
            caches.append(cache)
        out = np.concatenate(outs, axis=2)
        relu = out > 0.0
        act = out * relu
        keep = None
        if rng is not None:
            keep = (rng.random(act.shape) >= rate) / (1.0 - rate)
            act = act * keep
        layers.append((caches, relu, keep))
    last = act[:, -1, :]
    return last @ net.dense_w + net.dense_b[0], (layers, last, act.shape)


def full_length_backward(net, saved, d_preds):
    layers, last, shape = saved
    grads = {"dense.w": last.T @ d_preds, "dense.b": np.array([d_preds.sum()])}
    d_act = np.zeros(shape)
    d_act[:, -1, :] = np.outer(d_preds, net.dense_w)
    for i in reversed(range(len(net.layers))):
        caches, relu, keep = layers[i]
        if keep is not None:
            d_act = d_act * keep
        d_act = d_act * relu
        layer = net.layers[i]
        h = layer.hidden
        parts = []
        for k, (cache, step, tag) in enumerate(zip(caches, (1, -1), "fb")):
            d_part, g = run_layer_backward(direction(layer, k), cache,
                                           d_act[:, ::step, k * h: (k + 1) * h])
            parts.append(d_part[:, ::step, :])
            for name, arr in g.items():
                grads[f"l{i + 1}{tag}.{name}"] = arr
        d_act = parts[0] if len(parts) == 1 else parts[0] + parts[1]
    return grads


class TestTopLayer:
    """The top layer computes only the step the head reads, with the bits
    of the full-length computation."""

    # (h1, h2, m): the widths and batch sizes where OpenBLAS's bits would
    # depend on a product's row count: numpy's matrix-vector path at m = 1,
    # the small-matrix kernels at 64/128 and m = 13, the K blocking at m = 493
    @pytest.mark.parametrize("h1, h2, m", [(16, 32, 493), (16, 32, 1), (64, 128, 13)])
    @pytest.mark.parametrize("length", [1, 7])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_predictions_and_gradients_equal_full_length_byte_for_byte(
            self, bidirectional, length, h1, h2, m):
        rng = np.random.default_rng(h2 + length + m)
        net = build_network(10, hidden1=h1, hidden2=h2, dropout_rate=0.2,
                            bidirectional=bidirectional, seed=length)
        x = rng.normal(size=(m, length, 10))
        got_eval, _ = network_forward(net, x, "eval")
        want_eval, _ = full_length_forward(net, x, "eval")
        assert got_eval.tobytes() == want_eval.tobytes()
        got_train, cache = network_forward(net, x, "train", seed=17)
        want_train, saved = full_length_forward(net, x, "train", seed=17)
        assert got_train.tobytes() == want_train.tobytes()
        d_preds = np.tanh(got_train - 0.1) / m
        got = network_backward(net, cache, d_preds)
        want = full_length_backward(net, saved, d_preds)
        assert list(got) == list(net.param_dict())
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_top_backward_direction_caches_one_step(self):
        # the stack narrows to the forward direction after step 0, and the
        # backward direction's cache holds only its one step; zeros after it
        net = build_network(3, hidden1=4, hidden2=5, dropout_rate=0.2, seed=1)
        x = np.random.default_rng(8).normal(size=(6, 7, 3))
        _, cache = network_forward(net, x, "train", seed=2)
        assert [c["steps"] for c in cache["layers"]] == [(7, 7), (7, 1)]
        top = cache["layers"][1]
        for key in ("c", "tc", "a"):
            assert top[key].shape == (2, 7, 6, 5)
            assert top[key][1, 0].any() and not top[key][1, 1:].any(), key
        assert top["xs"].shape == (2, 7, 6, 8)
        assert cache["relu"][1].shape == cache["drop"][1].shape == (6, 1, 10)

    def test_one_step_layer_is_the_first_step_of_the_full_run(self):
        rng = np.random.default_rng(9)
        params = drawn(5, 3, rng)
        seq = rng.normal(size=(4, 6, 3))
        d_first = rng.normal(size=(4, 1, 5))
        full, full_cache = run_layer(params, seq, 6)
        one, one_cache = run_layer(params, seq, 1)
        assert one.tobytes() == full[:, :1].tobytes()
        d_full = np.zeros((4, 6, 5))
        d_full[:, :1] = d_first
        want_seq, want = run_layer_backward(params, full_cache, d_full)
        got_seq, got = run_layer_backward(params, one_cache, d_first)
        assert got_seq.tobytes() == want_seq.tobytes()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_training_leaves_top_backward_recurrent_weights_at_their_draw(self):
        # the top backward direction runs one step from zero state, so its
        # recurrent weights multiply zeros and get an exactly zero gradient
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(24, 5, 2))
        targets = 0.5 * inputs[:, -1, 0]
        net = build_network(2, hidden1=3, hidden2=4, dropout_rate=0.2, seed=6)
        start = {name: arr.copy() for name, arr in net.param_dict().items()}
        _, cache = network_forward(net, inputs, "train", seed=3)
        grads = network_backward(net, cache, np.ones(24) / 24)
        assert grads["l2b.w_a"].tobytes() == np.zeros((16, 4)).tobytes()
        net, _ = train(net, inputs, targets,
                       TrainConfig(epochs=3, batch_size=8, seed=0))
        after = net.param_dict()
        assert after["l2b.w_a"].tobytes() == start["l2b.w_a"].tobytes()
        assert all(not np.array_equal(after[name], start[name])
                   for name in start if name != "l2b.w_a")


class TestNetworkForward:
    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_matches_scalar_oracle(self, bidirectional):
        rng = np.random.default_rng(6)
        net = build_network(2, hidden1=2, hidden2=3, dropout_rate=0.0,
                            bidirectional=bidirectional, seed=11)
        inputs = rng.normal(size=(3, 3, 2))
        preds, _ = network_forward(net, inputs)
        for s in range(3):
            want = oracle_network(net, inputs[s])
            assert preds[s] == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_zero_head_weights_predict_the_bias(self):
        net = build_network(3, hidden1=2, hidden2=2, dropout_rate=0.0, seed=0)
        net.dense_w[:] = 0.0
        net.dense_b[0] = -1.75
        preds, _ = network_forward(net, np.random.default_rng(0).normal(size=(4, 5, 3)))
        np.testing.assert_allclose(preds, -1.75)

    def test_eval_mode_is_deterministic(self):
        net = build_network(2, hidden1=3, hidden2=3, dropout_rate=0.5, seed=2)
        x = np.random.default_rng(1).normal(size=(4, 3, 2))
        a, _ = network_forward(net, x, "eval")
        b, _ = network_forward(net, x, "eval")
        np.testing.assert_array_equal(a, b)

    def test_unidirectional_embeds_into_zeroed_bilstm(self):
        # A one-direction net equals a two-direction net whose backward
        # parameters are zero, once layer-2 and head weights route around
        # the silent backward half.
        h1, h2, f = 2, 3, 2
        uni = build_network(f, hidden1=h1, hidden2=h2, dropout_rate=0.0,
                            bidirectional=False, seed=3)
        bi = build_network(f, hidden1=h1, hidden2=h2, dropout_rate=0.0,
                           bidirectional=True, seed=4)
        for name in ("w_x", "w_a", "b"):
            getattr(bi.layers[0], name)[0] = getattr(uni.layers[0], name)[0]
            getattr(bi.layers[0], name)[1] = 0.0
            getattr(bi.layers[1], name)[1] = 0.0
        # Layer-2 forward sees [fwd_half | bwd_half]; copy the uni input
        # weights over fwd_half and zero the bwd_half columns.
        bi.layers[1].w_x[0] = 0.0
        bi.layers[1].w_x[0, :, :h1] = uni.layers[1].w_x[0]
        bi.layers[1].w_a[0] = uni.layers[1].w_a[0]
        bi.layers[1].b[0] = uni.layers[1].b[0]
        bi.dense_w[...] = 0.0
        bi.dense_w[:h2] = uni.dense_w
        bi.dense_b[...] = uni.dense_b

        x = np.random.default_rng(2).normal(size=(5, 3, f))
        want, _ = network_forward(uni, x)
        got, _ = network_forward(bi, x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_bad_mode_and_shapes_rejected(self):
        net = build_network(2, hidden1=2, hidden2=2, seed=0)
        with pytest.raises(ConfigError):
            network_forward(net, np.zeros((1, 3, 2)), "predict")
        with pytest.raises(DataError, match=r"inputs must be \(m, L, 2\), got \(1, 3, 5\)"):
            network_forward(net, np.zeros((1, 3, 5)))
        with pytest.raises(NumericError, match="non-finite activation in network inputs"):
            network_forward(net, np.full((1, 3, 2), np.nan))

    def test_build_rejects_bad_widths(self):
        with pytest.raises(ConfigError):
            build_network(0)
        with pytest.raises(ConfigError):
            build_network(2, dropout_rate=1.0)


class TestInitialization:
    def test_weights_bounded_by_fan_in_and_forget_bias_one(self):
        params = drawn(5, 3, np.random.default_rng(0))
        bound = 1.0 / math.sqrt(8)
        assert params.w_x.shape == (1, 20, 3) and params.w_a.shape == (1, 20, 5)
        for w in (params.w_x, params.w_a):
            assert np.abs(w).max() <= bound
        np.testing.assert_array_equal(gate_bias(params, "f"), 1.0)
        np.testing.assert_array_equal(gate_bias(params, "c"), 0.0)
        np.testing.assert_array_equal(gate_bias(params, "u"), 0.0)
        np.testing.assert_array_equal(gate_bias(params, "o"), 0.0)

    def test_fused_arrays_hold_four_per_gate_draws_in_gate_order(self):
        # Each gate draws one (h, h+d) block over [a_prev, x], c then u, f,
        # o; the fused arrays are those blocks split by column.
        hidden, input_dim = 4, 3
        params = cell(drawn(hidden, input_dim, np.random.default_rng(5)))
        rng = np.random.default_rng(5)
        bound = 1.0 / math.sqrt(hidden + input_dim)
        for k in range(4):
            block = rng.uniform(-bound, bound, size=(hidden, hidden + input_dim))
            rows = slice(k * hidden, (k + 1) * hidden)
            np.testing.assert_array_equal(params.w_a[rows], block[:, :hidden])
            np.testing.assert_array_equal(params.w_x[rows], block[:, hidden:])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_reused_block_buffer_gives_the_uniform_draws_byte_for_byte(self, dtype):
        hidden, input_dim = 24, 11
        rng = np.random.default_rng(23)
        params = cell(drawn(hidden, input_dim, rng, dtype))
        want_rng = np.random.default_rng(23)
        bound = 1.0 / math.sqrt(hidden + input_dim)
        for k in range(4):
            block = want_rng.uniform(-bound, bound, size=(hidden, hidden + input_dim))
            rows = slice(k * hidden, (k + 1) * hidden)
            assert params.w_a[rows].tobytes() == block[:, :hidden].astype(dtype).tobytes()
            assert params.w_x[rows].tobytes() == block[:, hidden:].astype(dtype).tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_param_names_and_order_are_the_checkpoint_layout(self, bidirectional):
        net = build_network(3, hidden1=4, hidden2=5, bidirectional=bidirectional, seed=0)
        cells = ["l1f", "l1b", "l2f", "l2b"] if bidirectional else ["l1f", "l2f"]
        want = [f"{cell}.{name}" for cell in cells for name in ("w_x", "w_a", "b")]
        assert list(net.param_dict()) == want + ["dense.w", "dense.b"]

    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_draws_l1f_l1b_l2f_l2b_then_the_head(self, bidirectional):
        # A replay of the draw order the checkpoints were made with: one
        # generator, each direction of layer 1, each of layer 2, the head.
        f, h1, h2, seed = 3, 4, 5, 17
        net = build_network(f, hidden1=h1, hidden2=h2, bidirectional=bidirectional, seed=seed)
        dirs = 2 if bidirectional else 1
        rng = np.random.default_rng(seed)
        want = {}
        for prefix, hidden, width in (("l1f", h1, f), ("l1b", h1, f),
                                      ("l2f", h2, dirs * h1), ("l2b", h2, dirs * h1)):
            if prefix.endswith("b") and not bidirectional:
                continue
            one = cell(drawn(hidden, width, rng))
            for name in ("w_x", "w_a", "b"):
                want[f"{prefix}.{name}"] = getattr(one, name)
        bound = 1.0 / math.sqrt(dirs * h2)
        want["dense.w"] = rng.uniform(-bound, bound, size=dirs * h2)
        want["dense.b"] = np.zeros(1)
        got = net.param_dict()
        assert list(got) == list(want)
        for name, arr in want.items():
            np.testing.assert_array_equal(got[name], arr, err_msg=name)

    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_float32_network_holds_the_float64_draws_rounded(self, bidirectional):
        want = build_network(3, hidden1=4, hidden2=5, bidirectional=bidirectional, seed=17)
        got = build_network(3, hidden1=4, hidden2=5, bidirectional=bidirectional, seed=17,
                            dtype=np.float32)
        assert got.dtype == np.float32 and want.dtype == np.float64
        for name, arr in want.param_dict().items():
            assert got.param_dict()[name].dtype == np.float32, name
            np.testing.assert_array_equal(got.param_dict()[name], arr.astype(np.float32),
                                          err_msg=name)

    def test_same_seed_same_network(self):
        a = build_network(3, hidden1=4, hidden2=4, seed=9)
        b = build_network(3, hidden1=4, hidden2=4, seed=9)
        for name, arr in a.param_dict().items():
            np.testing.assert_array_equal(arr, b.param_dict()[name])


def loss_of(net, inputs, targets):
    preds, _ = network_forward(net, inputs, "eval")
    loss, _ = logcosh_loss(np.atleast_1d(preds), targets)
    return loss


def bptt_grads(net, inputs, targets):
    preds, cache = network_forward(net, inputs, "train", seed=0)
    _, d_preds = logcosh_loss(np.atleast_1d(preds), targets)
    return network_backward(net, cache, d_preds)


class TestGradients:
    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_bptt_matches_finite_differences(self, bidirectional):
        rng = np.random.default_rng(31 if bidirectional else 32)
        net = build_network(2, hidden1=3, hidden2=2, dropout_rate=0.0,
                            bidirectional=bidirectional, seed=int(rng.integers(1000)))
        inputs = rng.normal(size=(3, 3, 2))
        targets = rng.normal(size=3)
        grads = bptt_grads(net, inputs, targets)
        step = 1e-5
        worst = 0.0
        for name, arr in net.param_dict().items():
            for idx in np.ndindex(arr.shape):
                keep = arr[idx]
                arr[idx] = keep + step
                hi = loss_of(net, inputs, targets)
                arr[idx] = keep - step
                lo = loss_of(net, inputs, targets)
                arr[idx] = keep
                fd = (hi - lo) / (2.0 * step)
                got = grads[name][idx]
                rel = abs(got - fd) / max(abs(got) + abs(fd), 1e-4)
                worst = max(worst, rel)
        assert worst < 1e-5

    def test_dense_bias_gradient_is_mean_loss_slope(self):
        # Composed with the loss gradient tanh(r)/m, the bias gradient is
        # the batch mean of each sample's loss slope.
        rng = np.random.default_rng(33)
        net = build_network(2, hidden1=2, hidden2=2, dropout_rate=0.0, seed=5)
        inputs = rng.normal(size=(4, 3, 2))
        targets = rng.normal(size=4)
        preds, cache = network_forward(net, inputs, "train", seed=0)
        _, d_preds = logcosh_loss(preds, targets)
        grads = network_backward(net, cache, d_preds)
        want = np.mean(np.tanh(preds - targets))
        assert grads["dense.b"][0] == pytest.approx(want, rel=1e-12)

    def test_backward_requires_train_cache(self):
        net = build_network(2, hidden1=2, hidden2=2, dropout_rate=0.0, seed=0)
        _, cache = network_forward(net, np.zeros((2, 3, 2)), "eval")
        with pytest.raises(DataError, match="needs a cache from a train-mode forward pass"):
            network_backward(net, cache, np.zeros(2))

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_eval_pass_keeps_no_layer_cache(self, bidirectional):
        net = build_network(2, hidden1=3, hidden2=4, dropout_rate=0.3,
                            bidirectional=bidirectional, seed=2)
        x = np.random.default_rng(5).normal(size=(4, 3, 2))
        preds, cache = network_forward(net, x, "eval")
        assert cache["layers"] == cache["relu"] == cache["drop"] == []
        _, train_cache = network_forward(net, x, "train", seed=1)
        assert len(train_cache["layers"]) == len(train_cache["relu"]) == 2
        with pytest.raises(DataError, match="needs a cache from a train-mode forward pass"):
            network_backward(net, cache, np.zeros(4))

    def test_upstream_gradient_shape_checked(self):
        net = build_network(2, hidden1=2, hidden2=2, dropout_rate=0.0, seed=0)
        _, cache = network_forward(net, np.zeros((2, 3, 2)), "train", seed=0)
        with pytest.raises(DataError, match=r"upstream gradient must be \(2,\), got \(3,\)"):
            network_backward(net, cache, np.zeros(3))


class TestLogcosh:
    def test_zero_residual_is_zero_loss_zero_grad(self):
        loss, grad = logcosh_loss(np.array([1.5]), np.array([1.5]))
        assert loss == 0.0
        assert grad[0] == 0.0

    def test_small_residuals_are_quadratic(self):
        for r in (1e-3, -1e-3, 3e-4, 1e-5):
            loss, _ = logcosh_loss(np.array([r]), np.array([0.0]))
            assert abs(loss - r * r / 2.0) < 1e-9

    def test_large_residuals_are_absolute_minus_log2(self):
        for r in (50.0, -50.0, 20.0, 300.0):
            loss, grad = logcosh_loss(np.array([r]), np.array([0.0]))
            assert abs(loss - (abs(r) - math.log(2.0))) < 1e-6
            assert grad[0] == pytest.approx(math.copysign(1.0, r))

    def test_finite_at_extreme_residuals(self):
        loss, grad = logcosh_loss(np.array([1e300]), np.array([0.0]))
        assert math.isfinite(loss)
        assert grad[0] == 1.0
        loss, grad = logcosh_loss(np.array([-1e300]), np.array([0.0]))
        assert math.isfinite(loss)
        assert grad[0] == -1.0

    def test_gradient_is_mean_scaled_tanh(self):
        rng = np.random.default_rng(7)
        preds, targets = rng.normal(size=8), rng.normal(size=8)
        _, grad = logcosh_loss(preds, targets)
        np.testing.assert_allclose(grad, np.tanh(preds - targets) / 8.0, rtol=1e-15)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError, match="length mismatch: 3 vs 4"):
            logcosh_loss(np.zeros(3), np.zeros(4))
        with pytest.raises(DataError, match="length mismatch: 0 vs 0"):
            logcosh_loss(np.zeros(0), np.zeros(0))


def in_both_dtypes(cases):
    """Each case in float64, under its plain id, then in float32, the dtype
    the pipeline's networks compute in, with "-float32" appended."""
    ids = ["-".join(map(str, case)) for case in cases]
    return ([pytest.param(*case, np.float64, id=i) for case, i in zip(cases, ids)]
            + [pytest.param(*case, np.float32, id=f"{i}-float32")
               for case, i in zip(cases, ids)])


class FlatSet:
    """Named arrays end to end in one flat buffer, in the dict's order: what
    adam_step and init_adam_state read of a network (flat, dtype and
    param_dict())."""

    def __init__(self, arrays):
        self.flat = np.concatenate([arr.ravel() for arr in arrays.values()])
        self.dtype = self.flat.dtype
        self.arrays = named(arrays, self.flat)

    def param_dict(self):
        return self.arrays


def named(like, flat):
    """Views of flat in the names, shapes and order of the dict `like`."""
    views, at = {}, 0
    for name, arr in like.items():
        views[name] = flat[at: at + arr.size].reshape(arr.shape)
        at += arr.size
    assert at == flat.size
    return views


def chunk_order_sq(grads):
    """The squared global norm in adam_step's order: each array's pieces of
    _CHUNK elements, each piece's np.sum of squares added in turn."""
    sq = 0.0
    for g in grads.values():
        flat = g.reshape(-1)
        for lo in range(0, flat.size, nets._CHUNK):
            piece = flat[lo: lo + nets._CHUNK]
            sq += float(np.sum(piece * piece))
    return sq


def squared_norm_of_step(monkeypatch, grads):
    """The squared global norm one adam_step takes the square root of."""
    seen = []
    monkeypatch.setattr(nets, "math", types.SimpleNamespace(
        sqrt=lambda x: seen.append(x) or math.sqrt(x)))
    params = FlatSet({k: np.zeros(g.shape) for k, g in grads.items()})
    adam_step(params, FlatSet(grads), init_adam_state(params), TrainConfig())
    assert len(seen) == 1
    return seen[0]


_CHUNK, _UPDATE_BYTES = 32768, 1 << 18  # the piece sizes of the per-array step below


def per_array_adam_step(params, grads, m_all, v_all, t, config):
    """Adam as it ran before the flat buffers: every pass array by array, the
    norm in each array's _CHUNK-element pieces, the update in each array's
    _UPDATE_BYTES pieces. The oracle of the flat step, bit for bit."""
    dtype = np.result_type(np.float32, *params.values())
    sq = 0.0
    for g in grads.values():
        flat = g.reshape(-1)
        for lo in range(0, flat.size, _CHUNK):
            piece = flat[lo: lo + _CHUNK]
            sq += float(np.sum(piece * piece))
    norm = math.sqrt(sq)
    factor = config.clip_norm / norm if 0.0 < config.clip_norm < norm else 1.0
    m_corr, v_corr = 1.0 - config.beta1 ** t, 1.0 - config.beta2 ** t
    size = _UPDATE_BYTES // dtype.itemsize
    for name, arr in params.items():
        flats = [x.reshape(-1) for x in (arr, m_all[name], v_all[name], grads[name])]
        for lo in range(0, arr.size, size):
            p, m, v, g = (x[lo: lo + size] for x in flats)
            tmp = np.empty(len(p), dtype)
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


class TestAdam:
    def test_first_step_closed_form(self):
        params = FlatSet({"a": np.array([1.0, 2.0, -3.0])})
        g = np.array([0.3, -0.2, 0.05])
        state = init_adam_state(params)
        config = TrainConfig(learning_rate=1e-3, clip_norm=0.0)
        adam_step(params, FlatSet({"a": g.copy()}), state, config)
        want = np.array([1.0, 2.0, -3.0]) - 1e-3 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params.arrays["a"], want, rtol=1e-12)
        assert state.step == 1

    def test_zero_gradient_leaves_parameters_alone(self):
        params = FlatSet({"a": np.array([1.0, -2.0])})
        state = init_adam_state(params)
        adam_step(params, FlatSet({"a": np.zeros(2)}), state, TrainConfig())
        np.testing.assert_array_equal(params.arrays["a"], [1.0, -2.0])

    def test_norm_ten_clipped_to_one_scales_moments_by_tenth(self):
        params = FlatSet({"a": np.array([0.0, 0.0])})
        g = np.array([6.0, 8.0])
        state = init_adam_state(params)
        adam_step(params, FlatSet({"a": g.copy()}), state, TrainConfig(clip_norm=1.0))
        np.testing.assert_allclose(state.m, 0.1 * (1.0 - 0.9) * g, rtol=1e-12)
        np.testing.assert_allclose(
            state.v, (1.0 - 0.999) * (0.1 * g) ** 2, rtol=1e-12
        )

    def test_gradients_below_the_clip_norm_pass_through(self):
        params = FlatSet({"a": np.array([0.0])})
        g = np.array([0.5])
        state = init_adam_state(params)
        adam_step(params, FlatSet({"a": g.copy()}), state, TrainConfig(clip_norm=1.0))
        np.testing.assert_allclose(state.m, 0.1 * g, rtol=1e-12)

    def test_zero_clip_norm_disables_clipping(self):
        params = FlatSet({"a": np.array([0.0, 0.0])})
        g = np.array([60.0, 80.0])
        state = init_adam_state(params)
        adam_step(params, FlatSet({"a": g.copy()}), state, TrainConfig(clip_norm=0.0))
        np.testing.assert_allclose(state.m, 0.1 * g, rtol=1e-12)

    @pytest.mark.parametrize("clip_norm", [0.0, 0.5])
    def test_matches_literal_formula_bit_for_bit(self, clip_norm):
        rng = np.random.default_rng(60)
        shapes = {"w": (4, 3), "b": (4,), "big": (5, 6)}
        params = FlatSet({k: rng.normal(size=shape) for k, shape in shapes.items()})
        want = {k: arr.copy() for k, arr in params.arrays.items()}
        m = {k: np.zeros(shape) for k, shape in shapes.items()}
        v = {k: np.zeros(shape) for k, shape in shapes.items()}
        state = init_adam_state(params)
        config = TrainConfig(learning_rate=3e-3, clip_norm=clip_norm)
        b1, b2 = config.beta1, config.beta2
        for t in range(1, 6):
            grads = {k: rng.normal(size=shape) for k, shape in shapes.items()}
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            factor = clip_norm / norm if 0.0 < clip_norm < norm else 1.0
            for k in shapes:
                g = grads[k] * factor
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
                m_hat = m[k] / (1.0 - b1 ** t)
                v_hat = v[k] / (1.0 - b2 ** t)
                want[k] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
            adam_step(params, FlatSet(grads), state, config)
            got_m, got_v = named(params.arrays, state.m), named(params.arrays, state.v)
            for k in shapes:
                np.testing.assert_array_equal(params.arrays[k], want[k])
                np.testing.assert_array_equal(got_m[k], m[k])
                np.testing.assert_array_equal(got_v[k], v[k])
        assert state.step == 5

    def test_gradients_or_moments_of_another_layout_rejected(self):
        params = FlatSet({"a": np.zeros(2)})
        state = init_adam_state(params)
        for grads in (FlatSet({"a": np.zeros(3)}), FlatSet({"a": np.zeros(2, np.float32)})):
            with pytest.raises(DataError, match="must share one layout"):
                adam_step(params, grads, state, TrainConfig())
        state.m = np.zeros(3)
        with pytest.raises(DataError, match="must share one layout"):
            adam_step(params, FlatSet({"a": np.zeros(2)}), state, TrainConfig())
        assert state.step == 0

    @pytest.mark.parametrize("n", [1, 7, 8, 129, nets._CHUNK - 1, nets._CHUNK, nets._CHUNK + 1,
                                   2 * nets._CHUNK + 8, 4_000_001])
    def test_squared_norm_is_the_in_order_sum_of_chunk_sums(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        grads = {"w": rng.normal(size=n) * rng.uniform(0.0, 5.0, size=n),
                 "b": rng.normal(size=40)}
        assert squared_norm_of_step(monkeypatch, grads).hex() == chunk_order_sq(grads).hex()

    def test_squared_norm_is_per_array_np_sum_when_arrays_fit_one_chunk(self, monkeypatch):
        # true of every array at the reference and all_models widths
        rng = np.random.default_rng(64)
        shapes = {"w_x": (64, 10), "w_a": (64, 64), "b": (64,), "big": (nets._CHUNK,)}
        grads = {k: rng.normal(size=shape) * 3.0 for k, shape in shapes.items()}
        sq = 0.0
        for g in grads.values():
            sq += float(np.sum(g * g))
        assert squared_norm_of_step(monkeypatch, grads).hex() == sq.hex()

    @pytest.mark.parametrize("clip_norm, dtype", in_both_dtypes([(0.0,), (1.0,)]))
    def test_chunked_step_matches_whole_array_step_byte_for_byte(self, clip_norm, dtype):
        # w spans seven norm pieces, and four update pieces in float32 (seven in float64)
        shapes = {"w": (3 * nets._UPDATE_BYTES // 32 + 5, 8), "b": (40,)}
        rng = np.random.default_rng(61)
        params = FlatSet({k: rng.normal(size=shape).astype(dtype) for k, shape in shapes.items()})
        want = {k: arr.copy() for k, arr in params.arrays.items()}
        m = {k: np.zeros(shape, dtype) for k, shape in shapes.items()}
        v = {k: np.zeros(shape, dtype) for k, shape in shapes.items()}
        state = init_adam_state(params)
        config = TrainConfig(learning_rate=3e-3, clip_norm=clip_norm)
        for t in range(1, 4):
            grads = {k: rng.normal(size=shape).astype(dtype) for k, shape in shapes.items()}
            step = FlatSet(grads)
            # the whole-array arithmetic, one operation at a time
            norm = math.sqrt(chunk_order_sq(grads))
            factor = clip_norm / norm if 0.0 < clip_norm < norm else 1.0
            for k in shapes:
                g = grads[k]
                g *= factor
                tmp = g * (1.0 - config.beta1)
                m[k] *= config.beta1
                m[k] += tmp
                tmp = g * g
                tmp *= 1.0 - config.beta2
                v[k] *= config.beta2
                v[k] += tmp
                tmp = np.sqrt(v[k] / (1.0 - config.beta2 ** t))
                tmp += config.eps
                g = m[k] / (1.0 - config.beta1 ** t)
                g *= config.learning_rate
                g /= tmp
                want[k] -= g
            adam_step(params, step, state, config)
            got_m, got_v = named(params.arrays, state.m), named(params.arrays, state.v)
            for k in shapes:
                assert params.arrays[k].tobytes() == want[k].tobytes()
                assert got_m[k].tobytes() == m[k].tobytes()
                assert got_v[k].tobytes() == v[k].tobytes()

    # (h1, h2): l2f.w_a spans 5 and 29 norm pieces; the 285k and 1.87M
    # parameters span 5 and 29 float32 update pieces (9 and 58 float64), and
    # at (300, 480) the step is split on 2 CPUs; clipped at 1e-3 and 1.0, and
    # not clipped, with clipping off (0.0) and with the norm below it (1e6)
    @pytest.mark.parametrize("widths, clip_norm, dtype", in_both_dtypes(
        [((100, 200), 0.0), ((100, 200), 1e-3), ((100, 200), 1e6), ((300, 480), 1.0)]))
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_flat_step_equals_the_per_array_step_byte_for_byte(self, monkeypatch, cpus,
                                                               widths, clip_norm, dtype):
        split_on(monkeypatch, cpus)
        net = build_network(10, *widths, seed=5, dtype=dtype)
        grads = net.zeros_like()
        rng = np.random.default_rng(widths[0])
        want = {k: arr.copy() for k, arr in net.param_dict().items()}
        m = {k: np.zeros_like(arr) for k, arr in want.items()}
        v = {k: np.zeros_like(arr) for k, arr in want.items()}
        state = init_adam_state(net)
        config = TrainConfig(learning_rate=3e-3, clip_norm=clip_norm)
        for t in range(1, 4):
            grads.flat[:] = rng.normal(size=grads.flat.size) * rng.uniform(0.1, 3.0)
            per_array = {k: g.copy() for k, g in grads.param_dict().items()}
            per_array_adam_step(want, per_array, m, v, t, config)
            adam_step(net, grads, state, config)
        got = net.param_dict()
        got_m, got_v = named(want, state.m), named(want, state.v)
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k
            assert got_m[k].tobytes() == m[k].tobytes(), k
            assert got_v[k].tobytes() == v[k].tobytes(), k


def split_on(monkeypatch, cpus):
    """Fake `cpus` allowed CPUs and one BLAS thread per call; returns the
    list each run_blocks call appends its block count to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    counts = []
    block_count = _pool._block_count

    def recording(n, work):
        counts.append(block_count(n, work))
        return counts[-1]

    monkeypatch.setattr(_pool, "_block_count", recording)
    return counts


# Every product of the paper-width `recurrent_paper` fit (10 inputs, widths
# 800 and 1000, 7 steps): batches of 32 and a last batch of 15 in training,
# 143 and 50 windows in evaluation. (m, k, n, form): "a.T" takes rows of a
# transposed operand, as the weight gradients do, "b.T" a transposed weight.
RECURRENT_PAPER_PRODUCTS = [
    (224, 10, 3200, "b.T"), (224, 800, 4000, "b.T"), (105, 800, 4000, "b.T"),  # inputs
    (32, 800, 3200, "b.T"), (32, 1000, 4000, "b.T"), (15, 1000, 4000, "b.T"),  # recurrent
    (32, 3200, 800, "ab"), (32, 4000, 1000, "ab"), (15, 4000, 1000, "ab"),  # backward steps
    (4000, 224, 800, "a.T"), (4000, 192, 1000, "a.T"),  # weight gradients
    (4000, 90, 1000, "a.T"),
    (224, 4000, 800, "ab"), (105, 4000, 800, "ab"),  # layer 2's input gradient
    (1001, 10, 3200, "b.T"), (1001, 800, 4000, "b.T"), (350, 800, 4000, "b.T"),  # eval
    (143, 800, 3200, "b.T"), (143, 1000, 4000, "b.T"), (50, 1000, 4000, "b.T"),
]


def per_direction_layer(params, seq, steps, d_out):
    """One direction's layer pass as the loops ran before directions were
    stacked: its own input projection, its first `steps` steps with one
    whole (m, h) @ (h, 4h) product per forward step and one whole
    (m, 4h) @ (4h, h) product per backward step, then the gradients as
    whole products over all L*m rows. params holds one direction's 2-D
    arrays (cell), d_out is (m, steps, h). Returns (out (m, steps, h),
    d_seq (m, L, d), {"w_x": ..., "w_a": ..., "b": ...})."""
    m, length, d = seq.shape
    h = params.hidden
    xs = np.ascontiguousarray(seq.transpose(1, 0, 2)).reshape(length * m, d)
    gates = (xs @ params.w_x.T).reshape(length, m, 4 * h)[:steps]
    c_all, tc, out = (np.empty((steps, m, h), seq.dtype) for _ in range(3))
    for t in range(steps):
        g = gates[t]
        g += params.b
        if t:
            g += out[t - 1] @ params.w_a.T
        np.tanh(g[:, :h], out=g[:, :h])
        sig = g[:, h:]
        sig *= 0.5
        np.tanh(sig, out=sig)
        sig += 1.0
        sig *= 0.5
        np.multiply(g[:, h: 2 * h], g[:, :h], out=c_all[t])
        if t:
            c_all[t] += g[:, 2 * h: 3 * h] * c_all[t - 1]
        np.tanh(c_all[t], out=tc[t])
        np.multiply(g[:, 3 * h:], tc[t], out=out[t])
    d_gates = np.zeros((length, m, 4 * h), seq.dtype)
    da, dc = np.zeros((m, h), seq.dtype), np.zeros((m, h), seq.dtype)
    for t in range(steps - 1, -1, -1):
        g, dg = gates[t], d_gates[t]
        cand, gu, gf, go = g[:, :h], g[:, h: 2 * h], g[:, 2 * h: 3 * h], g[:, 3 * h:]
        da += d_out[:, t, :]
        dc += da * go * (1.0 - tc[t] * tc[t])
        dg[:, :h] = dc * gu * (1.0 - cand * cand)
        np.subtract(1.0, g[:, h:], out=dg[:, h:])
        dg[:, h:] *= g[:, h:]
        dg[:, h: 2 * h] *= dc * cand
        dg[:, 3 * h:] *= da * tc[t]
        if t:
            dg[:, 2 * h: 3 * h] *= dc * c_all[t - 1]
            dc *= gf
            da = dg @ params.w_a
        else:
            dg[:, 2 * h: 3 * h] = 0.0
    rows = d_gates.reshape(length * m, 4 * h)
    grads = {"w_x": rows.T @ xs, "w_a": rows[m: steps * m].T @ out[:-1].reshape(-1, h),
             "b": rows.sum(axis=0)}
    d_seq = (rows @ params.w_x).reshape(length, m, d).transpose(1, 0, 2)
    return out.transpose(1, 0, 2), d_seq, grads


def per_direction_reference(layer, seq, top, d_out):
    """A layer's forward and backward pass as they ran before stacking: a
    loop over its directions, each through per_direction_layer, the
    backward direction on the reversed sequence and, in the top layer, for
    one step. Returns (output, d_seq, one gradient dict per direction)."""
    length, h = seq.shape[1], layer.hidden
    outs, parts, grads = [], [], []
    for j, step in zip(range(layer.directions), (1, -1)):
        steps = 1 if top and step < 0 else length
        d_dir = d_out[:, ::step, j * h: (j + 1) * h]
        if d_dir.shape[1] < steps:  # the top layer's forward direction
            padded = np.zeros((len(d_out), steps, h), d_out.dtype)
            padded[:, -1:] = d_dir
            d_dir = padded
        out, d_seq, g = per_direction_layer(cell(layer, j), seq[:, ::step], steps, d_dir)
        out = out[:, ::step]
        outs.append(out[:, -1:] if top else out)
        parts.append(d_seq[:, ::step])
        grads.append(g)
    out = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=2)
    return out, (parts[0] if len(parts) == 1 else parts[0] + parts[1]), grads


def a_times_w_transposed_forward(params, xs, steps):
    """lstm_layer_forward with each step's recurrent product as
    a_prev @ w_a^T, into a (k, m, 4, units) buffer, at every width: the same
    stack, split and gate arithmetic. Returns its cache's arrays: gates, c,
    tc and a, the output."""
    k, length, m, d = xs.shape
    h = params.hidden
    active = nets._active(steps)
    gates = nets._matmul(xs.reshape(k, length * m, d), params.w_x.transpose(0, 2, 1))
    gates = gates.reshape(k, length, m, 4, h)
    c_all, tc, out = (np.zeros((k, len(active), m, h), dtype=gates.dtype) for _ in range(3))
    bias = params.b.reshape(k, 1, 1, 4, h)

    def loop(lo, hi, wait):
        units = slice(lo, hi)
        g_all = gates[:, : len(active), ..., units]
        g_all += bias[..., units]
        c_units, tc_units, out_units = c_all[..., units], tc[..., units], out[..., units]
        rec = np.empty((k, m, 4, hi - lo), dtype=gates.dtype)
        half, one = np.empty_like(rec), np.empty_like(rec)
        half[...] = np.array([1.0, 0.5, 0.5, 0.5], dtype=gates.dtype)[:, None]
        one[...] = np.array([-0.0, 1.0, 1.0, 1.0], dtype=gates.dtype)[:, None]
        if hi - lo == h:
            a_prev, w_rec, rec_out = out, params.w_a.transpose(0, 2, 1), rec.reshape(k, m, 4 * h)
        else:
            a_prev, rec_out = out[:, :, None], rec.transpose(0, 2, 1, 3)
            w_rec = params.w_a.reshape(k, 4, h, h)[:, :, units].transpose(0, 1, 3, 2)
        for t, n in enumerate(active):
            g = g_all[:n, t]
            if t:
                wait()
                np.matmul(a_prev[:n, t - 1], w_rec[:n], out=rec_out[:n])
                g += rec[:n]
            g *= half[:n]
            np.tanh(g, out=g)
            g += one[:n]
            g *= half[:n]
            c = c_units[:n, t]
            np.multiply(g[..., 1, :], g[..., 0, :], out=c)
            if t:
                c += g[..., 2, :] * c_units[:n, t - 1]
            np.tanh(c, out=tc_units[:n, t])
            np.multiply(g[..., 3, :], tc_units[:n, t], out=out_units[:n, t])

    _pool.run_lockstep(loop, h, nets._split_work(m, 4 * h, h, gates.dtype), nets._ALIGN)
    return {"gates": gates, "c": c_all, "tc": tc, "a": out}


def column_blocks(a, b, count):
    """a @ b computed over the `count` column blocks run_blocks makes with
    the bounds at multiples of 8."""
    out = np.empty((a.shape[0], b.shape[1]), np.result_type(a, b))
    bounds = _pool._bounds(b.shape[1], 1 << 40, nets._ALIGN)
    assert len(bounds) == count + 1
    for lo, hi in zip(bounds, bounds[1:]):
        np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])
    return out


class TestThreadedSplit:
    """Row, column and hidden-unit blocks on threads give the bits of the
    whole computation."""

    @pytest.mark.parametrize("m, k, n, form, dtype", in_both_dtypes(RECURRENT_PAPER_PRODUCTS))
    def test_split_product_is_byte_equal_at_recurrent_paper_shapes(self, monkeypatch,
                                                                   m, k, n, form, dtype):
        rng = np.random.default_rng(m * k + n)
        a = rng.normal(size=(k, m)).T if form == "a.T" else rng.normal(size=(m, k))
        b = rng.normal(size=(n, k)).T if form == "b.T" else rng.normal(size=(k, n))
        a, b = a.astype(dtype), b.astype(dtype)  # keeps a transposed operand's layout
        counts = split_on(monkeypatch, 2)
        monkeypatch.setattr(_pool, "_BLOCK_WORK", 1)  # split the small ones too
        assert nets._matmul(a[None], b[None])[0].tobytes() == (a @ b).tobytes()
        assert counts == [2 if dtype == np.float32 else 1]  # float64 runs whole

    # a scan: every product cut into 2, 3 and 4 column blocks, whichever
    # side _matmul splits it along; only float32 splits, and the float64
    # cases record that its kernel keeps the bits as well
    @pytest.mark.parametrize("m, k, n, form, dtype", in_both_dtypes(RECURRENT_PAPER_PRODUCTS))
    def test_column_blocks_are_byte_equal_at_recurrent_paper_shapes(self, monkeypatch,
                                                                    m, k, n, form, dtype):
        rng = np.random.default_rng(m * k + n)
        a = rng.normal(size=(k, m)).T if form == "a.T" else rng.normal(size=(m, k))
        b = rng.normal(size=(n, k)).T if form == "b.T" else rng.normal(size=(k, n))
        a, b = a.astype(dtype), b.astype(dtype)
        whole = (a @ b).tobytes()
        for cpus in (2, 3, 4):
            split_on(monkeypatch, cpus)
            assert column_blocks(a, b, cpus).tobytes() == whole, cpus

    def test_columns_not_a_multiple_of_8_stay_whole(self, monkeypatch):
        # OpenBLAS can give the last 500 % 8 columns bits that depend on the
        # call's shape, so float32 work of that width stays whole; the first
        # product would split by columns, the second by rows
        rng = np.random.default_rng(7)
        b = rng.normal(size=(2000, 500)).astype(np.float32)
        for m in (32, 600):
            a = rng.normal(size=(m, 2000)).astype(np.float32)
            counts = split_on(monkeypatch, 3)
            assert nets._matmul(a[None], b[None])[0].tobytes() == (a @ b).tobytes()
            assert counts == [1]

    # the per-step products of the paper's widths, split by hidden unit:
    # training batches of 32 and 15, evaluation batches of 143 and 50;
    # 600 is a width the layer test below uses; float64 as in the scan above
    @pytest.mark.parametrize("m, h, dtype", in_both_dtypes(
        [(32, 800), (15, 800), (143, 1000), (50, 1000), (32, 1000), (32, 600)]))
    def test_unit_blocks_of_a_step_are_byte_equal(self, monkeypatch, m, h, dtype):
        rng = np.random.default_rng(m + h)
        a_prev = rng.normal(size=(m, h)).astype(dtype)
        w_a = rng.normal(size=(4 * h, h)).astype(dtype)
        d_gates = rng.normal(size=(m, 4 * h)).astype(dtype)
        forward, backward = a_prev @ w_a.T, d_gates @ w_a
        w_gates = w_a.reshape(4, h, h)
        for cpus in (2, 3, 4):
            split_on(monkeypatch, cpus)
            rec = np.empty((m, 4, h), dtype)
            da = np.empty((m, h), dtype)
            bounds = _pool._bounds(h, 1 << 40, nets._ALIGN)
            assert len(bounds) == cpus + 1
            for lo, hi in zip(bounds, bounds[1:]):
                block = np.empty((m, 4, hi - lo), dtype)  # as lstm_layer_forward fills it
                np.matmul(a_prev, w_gates[:, lo:hi].transpose(0, 2, 1),
                          out=block.transpose(1, 0, 2))
                rec[:, :, lo:hi] = block
                np.matmul(d_gates, w_a[:, lo:hi], out=da[:, lo:hi])
            assert rec.reshape(m, 4 * h).tobytes() == forward.tobytes(), cpus
            assert da.tobytes() == backward.tobytes(), cpus

    # a step's recurrent product, m x h x 4h, is above 2^24 but at h = 700
    # (700 % 8 = 4), and at h = 32 (below 2^24), where per-gate products
    # would change bits in float32: there the loops run as one block, the
    # whole products of the reference; so does every float64 loop
    @pytest.mark.parametrize("m, h, dtype", in_both_dtypes(
        [(32, 600), (15, 600), (32, 800), (32, 700), (32, 32)]))
    def test_layer_passes_byte_identical_on_one_and_two_cpus(self, monkeypatch, m, h, dtype):
        rng = np.random.default_rng(m)
        params = drawn(h, 24, rng, dtype)
        seq = rng.normal(size=(m, 7, 24)).astype(dtype)
        d_out = rng.normal(size=(m, 7, h)).astype(dtype)
        runs = []
        for cpus in (1, 2):
            counts = split_on(monkeypatch, cpus)
            out, cache = run_layer(params, seq, 7)
            d_seq, grads = run_layer_backward(params, cache, d_out)
            runs.append([out.tobytes(), d_seq.tobytes()] + [g.tobytes() for g in grads.values()])
            work = m * 4 * h * h
            split = dtype == np.float32 and h % 8 == 0 and work >= 1 << 24
            want = min(cpus, work >> 23) if split else 1
            assert len(counts) == 6 and counts[1:3] == [want, want]  # the time loops
        assert runs[0] == runs[1]
        want_out, want_seq, want = per_direction_layer(cell(params), seq, 7, d_out)
        assert out.tobytes() == want_out.tobytes()
        assert d_seq.tobytes() == want_seq.tobytes()
        for name, g in want.items():
            assert grads[name].tobytes() == g.tobytes(), name

    # the stack of a Bi-LSTM layer against its directions run one at a
    # time: the widths of the tests, the reference and all_models runs and
    # the paper, where float32 loops split by unit on 2 CPUs; the top layer
    # narrows to its forward direction after step 0
    @pytest.mark.parametrize("h, top, dtype", in_both_dtypes(
        [(h, top) for h in (2, 16, 32, 800, 1000) for top in (False, True)]))
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_stacked_layer_equals_the_per_direction_loops_byte_for_byte(
            self, monkeypatch, cpus, h, top, dtype):
        m, length = (16, 3) if h >= 800 else (32, 7)
        rng = np.random.default_rng(h + top)
        layer = drawn(h, 24, rng, dtype, directions=2)
        layer.b[:] = rng.uniform(-0.5, 0.5, size=layer.b.shape)
        seq = rng.normal(size=(m, length, 24)).astype(dtype)
        d_out = rng.normal(size=(m, 1 if top else length, 2 * h)).astype(dtype)
        want_out, want_seq, want = per_direction_reference(layer, seq, top, d_out)
        counts = split_on(monkeypatch, cpus)
        out, cache = layer_forward(layer, seq, top)
        grads = stack(h, 24, 2, dtype)
        d_seq = layer_backward(layer, cache, d_out, grads)
        work = m * 4 * h * h
        split = dtype == np.float32 and work >= 1 << 24
        assert counts[1] == counts[2] == (min(cpus, work >> 23) if split else 1)
        assert out.tobytes() == want_out.tobytes()
        assert d_seq.tobytes() == want_seq.tobytes()
        for j, g in enumerate(want):
            for name in ("w_x", "w_a", "b"):
                assert getattr(grads, name)[j].tobytes() == g[name].tobytes(), (j, name)

    # the forward loop, which computes w_a @ a_prev^T, against a copy of the
    # a_prev @ w_a^T loop it replaced: batches of one (numpy's matrix-vector
    # path), the paper fit's 15 and 32 and its evaluation's 50 and 143, at
    # the widths of the tests, the reference run and the paper; on 2 CPUs
    # float32 loops at 800 and 1000 units split by unit from m = 15, and so
    # does a 128-unit layer over an all_models evaluation's 493 windows.
    # Same bits in float32; in float64 past 128 rows with m % 8 != 0,
    # OpenBLAS's kernel can give the last m % 8 rows other bits in the two
    # orientations
    @pytest.mark.parametrize("m, h, dtype", in_both_dtypes(
        [(m, h) for m in (1, 15, 32, 50, 143) for h in (2, 16, 32, 800, 1000)]
        + [(493, 128)]))
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_forward_loop_equals_the_a_times_w_transposed_loop_byte_for_byte(
            self, monkeypatch, cpus, m, h, dtype):
        rng = np.random.default_rng(m * h)
        layer = drawn(h, 10, rng, dtype, directions=2)
        layer.b[:] = rng.uniform(-0.5, 0.5, size=layer.b.shape)
        xs = rng.normal(size=(2, 3, m, 10)).astype(dtype)
        counts = split_on(monkeypatch, cpus)
        work = m * 4 * h * h
        split = dtype == np.float32 and h % 8 == 0 and work >= 1 << 24
        blocks = min(cpus, work >> 23) if split else 1
        same_bits = dtype == np.float32 or m <= 128 or m % 8 == 0
        for steps in ((3, 3), (3, 1)):  # both directions run on, or one stops
            want = a_times_w_transposed_forward(layer, xs.copy(), steps)
            _, cache = lstm_layer_forward(layer, xs.copy(), steps)
            for name in ("gates", "c", "tc", "a"):
                if same_bits:
                    assert cache[name].tobytes() == want[name].tobytes(), (steps, name)
                else:
                    np.testing.assert_allclose(cache[name], want[name], rtol=1e-12,
                                               atol=1e-15)
        assert counts[1::2] == [blocks] * 4  # each time loop, in both orders

    # at paper width on 2 CPUs: a product, the forward and the backward
    # loop, at m rows a multiple of 8 or not; float64 serves direct callers
    # and the tests, and runs whole
    @pytest.mark.parametrize("m", [15, 16, 193, 200])
    def test_only_float32_products_and_time_loops_split(self, monkeypatch, m):
        for dtype, blocks in ((np.float64, 1), (np.float32, 2)):
            rng = np.random.default_rng(800 + m)
            a, b = (rng.normal(size=shape).astype(dtype) for shape in ((m, 1000), (1000, 4000)))
            params = drawn(800, 10, rng, dtype)
            seq = rng.normal(size=(m, 3, 10)).astype(dtype)
            d_out = rng.normal(size=(m, 3, 800)).astype(dtype)
            counts = split_on(monkeypatch, 2)
            nets._matmul(a[None], b[None])
            _, cache = run_layer(params, seq, 3)
            run_layer_backward(params, cache, d_out)
            assert counts[0] == blocks and counts[2:4] == [blocks, blocks], dtype

    @pytest.mark.parametrize("clip_norm, dtype", in_both_dtypes([(0.0,), (1.0,)]))
    def test_multi_chunk_adam_step_byte_identical_on_one_and_two_cpus(self, monkeypatch,
                                                                       clip_norm, dtype):
        # w spans six float32 update pieces, u two
        shapes = {"w": (5 * nets._UPDATE_BYTES // 32 + 3, 8), "b": (40,),
                  "u": (nets._UPDATE_BYTES // 4 + 9,)}
        rng = np.random.default_rng(62)
        start = {k: rng.normal(size=shape).astype(dtype) for k, shape in shapes.items()}
        steps = [{k: rng.normal(size=shape).astype(dtype) for k, shape in shapes.items()}
                 for _ in range(3)]
        config = TrainConfig(learning_rate=3e-3, clip_norm=clip_norm)
        runs = []
        for cpus in (1, 2):
            counts = split_on(monkeypatch, cpus)
            monkeypatch.setattr(_pool, "_BLOCK_WORK", 1)
            params = FlatSet(start)
            state = init_adam_state(params)
            for grads in steps:
                adam_step(params, FlatSet(grads), state, config)
            runs.append([params.flat.tobytes(), state.m.tobytes(), state.v.tobytes()])
            assert counts == [cpus] * 6  # the norm and the update of each step
        assert runs[0] == runs[1]


def float_arrays(tree):
    """Every floating-point array in a nested cache of dicts and lists."""
    if isinstance(tree, dict):
        return [a for value in tree.values() for a in float_arrays(value)]
    if isinstance(tree, (list, tuple)):
        return [a for value in tree for a in float_arrays(value)]
    if isinstance(tree, np.ndarray) and tree.dtype.kind == "f":
        return [tree]
    return []


def numpy_recording_results(monkeypatch, module):
    """Replace `module.np` by numpy whose functions append the dtype of
    every floating-point array they return to the returned list; so it sees
    each buffer the module allocates and each array numpy returns to it."""
    seen = []
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)

    def recording(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, np.ndarray) and out.dtype.kind == "f":
                seen.append((fn.__name__, out.dtype))
            return out
        return call

    for name, value in np.__dict__.items():
        if callable(value) and not isinstance(value, type):
            setattr(proxy, name, recording(value))
    monkeypatch.setattr(module, "np", proxy)
    return seen


class TestFloat32:
    """A float32 network keeps float32 through a training step and an eval
    pass: one float64 temporary would cost the dtype's speed and memory."""

    def test_training_step_and_eval_forward_stay_float32(self, monkeypatch):
        rng = np.random.default_rng(70)
        net = build_network(5, hidden1=6, hidden2=7, dropout_rate=0.3, seed=3,
                            dtype=np.float32)
        inputs, targets = rng.normal(size=(9, 4, 5)), rng.normal(size=9)
        params = net.param_dict()
        with monkeypatch.context() as patch:
            seen = numpy_recording_results(patch, nets)
            preds, cache = network_forward(net, inputs, "train", seed=11)
        _, d_preds = logcosh_loss(preds, targets)  # the loss is float64 by design
        assert d_preds.dtype == np.float64
        with monkeypatch.context() as patch:
            seen_after = numpy_recording_results(patch, nets)
            grad_set = net.zeros_like()
            grads = network_backward(net, cache, d_preds, grad_set)
            state = init_adam_state(net)
            adam_step(net, grad_set, state, TrainConfig(clip_norm=1e-3))
            eval_preds, eval_cache = network_forward(net, inputs)
        for results in (seen, seen_after):
            assert results and {dtype for _, dtype in results} == {np.dtype(np.float32)}, results
        arrays = (float_arrays(cache) + list(grads.values()) + [state.m, state.v, net.flat]
                  + list(params.values()) + float_arrays(eval_cache) + [preds, eval_preds])
        assert len(float_arrays(cache)) > 10 and all(mask is not None for mask in cache["drop"])
        assert {arr.dtype for arr in arrays} == {np.dtype(np.float32)}
        assert named(params, state.m)["l1b.w_a"].any() and named(params, state.v)["l2f.w_x"].any()

    def test_train_keeps_the_net_float32(self):
        rng = np.random.default_rng(71)
        net = build_network(2, hidden1=3, hidden2=4, seed=4, dtype=np.float32)
        net, losses = train(net, rng.normal(size=(10, 3, 2)), rng.normal(size=10),
                            TrainConfig(epochs=2, batch_size=4))
        assert len(losses) == 2 and all(math.isfinite(loss) for loss in losses)
        assert {arr.dtype for arr in net.param_dict().values()} == {np.dtype(np.float32)}


class TestDropout:
    def test_rate_zero_train_equals_eval(self):
        net = build_network(2, hidden1=3, hidden2=3, dropout_rate=0.0, seed=6)
        x = np.random.default_rng(3).normal(size=(4, 3, 2))
        train_preds, cache = network_forward(net, x, "train", seed=123)
        eval_preds, _ = network_forward(net, x, "eval")
        np.testing.assert_array_equal(train_preds, eval_preds)
        assert cache["drop"] == [None, None]

    def test_masks_use_inverted_scaling(self):
        net = build_network(2, hidden1=2, hidden2=2, dropout_rate=0.2, seed=7)
        x = np.random.default_rng(4).normal(size=(3, 3, 2))
        _, cache = network_forward(net, x, "train", seed=99)
        mask = cache["drop"][1]
        assert mask is not None
        values = np.unique(mask)
        assert set(np.round(values, 12)) <= {0.0, round(1.0 / 0.8, 12)}

    def test_mask_expectation_is_identity_within_two_percent(self):
        # Inverted scaling: E[keep / (1 - rate)] = 1, so the pre-layer2
        # activation is unbiased. 200 seeded masks of 480 cells each.
        net = build_network(2, hidden1=3, hidden2=3, dropout_rate=0.2, seed=8)
        x = np.random.default_rng(5).normal(size=(20, 4, 2))
        total, count = 0.0, 0
        for seed in range(200):
            _, cache = network_forward(net, x, "train", seed=seed)
            total += cache["drop"][0].sum()
            count += cache["drop"][0].size
        assert total / count == pytest.approx(1.0, abs=0.02)

    def test_same_seed_same_mask(self):
        net = build_network(2, hidden1=2, hidden2=2, dropout_rate=0.3, seed=9)
        x = np.random.default_rng(6).normal(size=(3, 3, 2))
        a, ca = network_forward(net, x, "train", seed=41)
        b, cb = network_forward(net, x, "train", seed=41)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ca["drop"][0], cb["drop"][0])


class TestTrain:
    def toy_problem(self, m=24, seed=0):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=(m, 3, 2))
        targets = 0.5 * inputs[:, -1, 0] + 0.1 * inputs[:, 0, 1]
        return inputs, targets

    def test_constant_target_is_learned(self):
        rng = np.random.default_rng(10)
        inputs = rng.normal(size=(16, 2, 1))
        targets = np.full(16, 0.7)
        net = build_network(1, hidden1=3, hidden2=3, dropout_rate=0.0, seed=12)
        config = TrainConfig(epochs=200, batch_size=16, learning_rate=1e-2, seed=0)
        net, losses = train(net, inputs, targets, config)
        preds, _ = network_forward(net, inputs, "eval")
        assert np.all(np.abs(preds - 0.7) <= 0.05 * 0.7)
        assert len(losses) == 200

    def test_same_seed_same_history(self):
        inputs, targets = self.toy_problem()
        config = TrainConfig(epochs=5, batch_size=8, seed=3)
        net_a, hist_a = train(
            build_network(2, 3, 3, seed=1), inputs, targets, config)
        net_b, hist_b = train(
            build_network(2, 3, 3, seed=1), inputs, targets, config)
        assert hist_a == hist_b
        for name, arr in net_a.param_dict().items():
            np.testing.assert_array_equal(arr, net_b.param_dict()[name])

    def test_smoothed_losses_non_increasing_on_learnable_set(self):
        inputs, targets = self.toy_problem(m=32, seed=1)
        net = build_network(2, hidden1=4, hidden2=4, dropout_rate=0.0, seed=2)
        config = TrainConfig(epochs=40, batch_size=8, learning_rate=3e-3, seed=0)
        _, losses = train(net, inputs, targets, config)
        smoothed = [float(np.mean(losses[i: i + 5])) for i in range(0, 40, 5)]
        for prev, cur in zip(smoothed, smoothed[1:]):
            assert cur <= prev * (1.0 + 1e-6)

    def test_training_reduces_loss(self):
        inputs, targets = self.toy_problem(m=32, seed=2)
        net = build_network(2, hidden1=4, hidden2=4, dropout_rate=0.0, seed=3)
        config = TrainConfig(epochs=30, batch_size=8, learning_rate=3e-3, seed=0)
        _, losses = train(net, inputs, targets, config)
        assert losses[-1] < 0.5 * losses[0]

    def test_overflowing_epoch_loss_raises(self):
        inputs, targets = self.toy_problem(m=8)
        net = build_network(2, 2, 2, dropout_rate=0.0, seed=5)
        net.dense_b[0] = 1e308
        config = TrainConfig(epochs=1, batch_size=4, seed=0)
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="training loss became non-finite at epoch 0"):
            train(net, inputs, targets, config)

    def test_empty_and_misshapen_training_sets_rejected(self):
        net = build_network(2, 2, 2, seed=0)
        with pytest.raises(DataError, match="need at least one training sample"):
            train(net, np.zeros((0, 3, 2)), np.zeros(0), TrainConfig(epochs=1))
        with pytest.raises(DataError, match="bad training shapes"):
            train(net, np.zeros((4, 3, 2)), np.zeros(3), TrainConfig(epochs=1))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(clip_norm=-1.0)


class TestSaveLoad:
    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_round_trip_preserves_predictions(self, tmp_path, bidirectional):
        net = build_network(3, hidden1=3, hidden2=4, dropout_rate=0.15,
                            bidirectional=bidirectional, seed=21)
        path = str(tmp_path / "net.bin")
        save_network(net, path)
        back = load_network(path)
        assert [layer.directions for layer in back.layers] == [1 + bidirectional] * 2
        assert back.dropout_rate == 0.15
        x = np.random.default_rng(8).normal(size=(4, 3, 3))
        want, _ = network_forward(net, x)
        got, _ = network_forward(back, x)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_v2_round_trip_is_bit_identical(self, tmp_path, bidirectional):
        net = build_network(3, hidden1=3, hidden2=4, dropout_rate=0.25,
                            bidirectional=bidirectional, seed=22)
        path = tmp_path / "net.bin"
        save_network(net, str(path))
        assert path.read_bytes()[:6] == _binio.MAGIC + struct.pack("<H", _binio.VERSION)
        back = load_network(str(path))
        want_params, got_params = net.param_dict(), back.param_dict()
        assert list(got_params) == list(want_params)
        for name, arr in want_params.items():
            np.testing.assert_array_equal(got_params[name], arr)
        x = np.random.default_rng(9).normal(size=(5, 2, 3))
        for mode in ("eval", "train"):
            want, _ = network_forward(net, x, mode, seed=4)
            got, _ = network_forward(back, x, mode, seed=4)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bidirectional, dtype", in_both_dtypes([(True,), (False,)]))
    def test_checkpoint_bytes_equal_the_per_array_layout(self, tmp_path, bidirectional, dtype):
        # each parameter saved as an array of its own, as before the one buffer
        net = build_network(4, hidden1=5, hidden2=6, dropout_rate=0.3,
                            bidirectional=bidirectional, seed=23, dtype=dtype)
        rng = np.random.default_rng(24)
        net, _ = train(net, rng.normal(size=(10, 3, 4)), rng.normal(size=10),
                       TrainConfig(epochs=1, batch_size=4))
        save_network(net, str(tmp_path / "net.bin"))
        arrays = {name: arr.copy() for name, arr in net.param_dict().items()}
        _binio.save(str(tmp_path / "arrays.bin"), "network", {"dropout_rate": 0.3}, arrays)
        assert (tmp_path / "net.bin").read_bytes() == (tmp_path / "arrays.bin").read_bytes()
        back = load_network(str(tmp_path / "arrays.bin"))
        assert back.flat.tobytes() == net.flat.tobytes()

    # arrays the layout laid out from the file's header does not hold, in its
    # order, shapes and dtype; the file's size always matches its header
    @pytest.mark.parametrize("damage, message", [
        ("out_of_order", "array 'l1f.b' .* where 'l1f.w_a' .* belongs"),
        ("misshapen", r"array 'l2f.w_x' float64 \(3, 16\) where 'l2f.w_x' float64 \(16, 3\)"),
        ("other_dtype", "array 'dense.w' float64 .* where 'dense.w' float32"),
        ("missing_array", "7 arrays, expected 8"),
        ("truncated", "truncated"),
    ])
    def test_file_of_another_layout_rejected(self, tmp_path, damage, message):
        net = build_network(2, hidden1=3, hidden2=4, bidirectional=False, seed=1,
                            dtype=np.float64 if damage != "other_dtype" else np.float32)
        arrays = dict(net.param_dict())
        if damage == "out_of_order":
            arrays = {name: arrays[name] for name in ("l1f.w_x", "l1f.b", "l1f.w_a")} | arrays
        elif damage == "misshapen":
            arrays["l2f.w_x"] = arrays["l2f.w_x"].reshape(3, 16)
        elif damage == "other_dtype":
            arrays["dense.w"] = arrays["dense.w"].astype(np.float64)
        elif damage == "missing_array":
            del arrays["dense.b"]
        path = tmp_path / "net.bin"
        _binio.save(str(path), "network", {"dropout_rate": 0.2}, arrays)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match=message):
            load_network(str(path))

    def test_version_1_checkpoint_rejected(self, tmp_path):
        # A v1 file stored eight per-gate arrays per direction behind the old
        # WFNN header; the magic alone rejects it.
        path = tmp_path / "net.bin"
        header = b"WFNN" + struct.pack("<HBQQQd", 1, 2, 3, 2, 2, 0.2)
        path.write_bytes(header + np.zeros(200).tobytes())
        with pytest.raises(DataError, match="magic"):
            load_network(str(path))

    def test_truncated_checkpoint_rejected(self, tmp_path):
        net = build_network(2, hidden1=3, hidden2=2, seed=1)
        path = tmp_path / "net.bin"
        save_network(net, str(path))
        path.write_bytes(path.read_bytes()[:-12])
        with pytest.raises(DataError, match="truncated"):
            load_network(str(path))

    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch):
        net = build_network(2, hidden1=3, hidden2=2, seed=1)
        path = str(tmp_path / "net.bin")
        save_network(net, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_network drew initial weights")

        monkeypatch.setattr(nets, "init_lstm_params", no_draws)
        back = load_network(path)
        np.testing.assert_array_equal(back.dense_w, net.dense_w)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "net.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataError, match="bad magic"):
            load_network(str(path))
