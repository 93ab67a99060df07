"""Recurrent network: cell/layer oracles, BPTT gradient checks, loss,
optimizer, dropout, and training behavior."""

import math
import struct

import numpy as np
import pytest

from walkforge import _binio, nets
from walkforge.errors import (
    BadArtifact,
    ConfigError,
    DivergedLoss,
    LengthMismatch,
    NonFiniteActivation,
    ShapeMismatch,
    StaleCache,
)
from walkforge.nets import (
    LstmParams,
    TrainConfig,
    adam_step,
    bilstm_forward,
    build_network,
    init_adam_state,
    init_lstm_params,
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


def relu(row):
    return [max(0.0, v) for v in row]


def oracle_network(net, sample):
    """One sample (L, F) through both layers, ReLU between, affine head."""
    seq = [list(row) for row in sample]
    if net.bidirectional:
        out1 = oracle_bilayer(net.layer1_fwd, net.layer1_bwd, seq)
    else:
        out1 = oracle_layer(net.layer1_fwd, seq)
    act1 = [relu(row) for row in out1]
    if net.bidirectional:
        out2 = oracle_bilayer(net.layer2_fwd, net.layer2_bwd, act1)
    else:
        out2 = oracle_layer(net.layer2_fwd, act1)
    last = relu(out2[-1])
    return sum(w * v for w, v in zip(net.dense_w, last)) + net.dense_b[0]


def zero_params(hidden, input_dim):
    return LstmParams(w_x=np.zeros((4 * hidden, input_dim)),
                      w_a=np.zeros((4 * hidden, hidden)), b=np.zeros(4 * hidden))


def gate_bias(params, gate):
    """The bias block of one gate: a writable view into the fused bias."""
    h = params.hidden
    k = GATES.index(gate)
    return params.b[k * h: (k + 1) * h]


class TestCell:
    """One cell step, run as a layer of length 1 (or longer where a nonzero
    previous cell state is needed)."""

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        params = init_lstm_params(3, 2, rng)
        params.b[:] = rng.normal(size=12)
        x = rng.normal(size=(1, 1, 2))
        out, cache = lstm_layer_forward(params, x)
        want_a, want_c = oracle_step(params, [0.0] * 3, [0.0] * 3, x[0, 0])
        np.testing.assert_allclose(cache["c"][0, 0], want_c, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(out[0, 0], want_a, rtol=1e-12, atol=1e-15)

    def test_all_zero_parameters_halve_everything(self):
        # Zero weights: every sigmoid gate is 1/2, and with candidate bias
        # beta the candidate is tanh(beta), so c_t = (tanh(beta) + c_{t-1})/2
        # and a_t = tanh(c_t)/2 whatever the input.
        params = zero_params(4, 2)
        beta = np.array([0.3, -1.2, 0.0, 2.5])
        gate_bias(params, "c")[:] = beta
        x = np.random.default_rng(1).normal(size=(1, 3, 2)) * 7.0
        out, cache = lstm_layer_forward(params, x)
        c = np.zeros(4)
        for t in range(3):
            c = 0.5 * np.tanh(beta) + 0.5 * c
            np.testing.assert_allclose(cache["c"][t, 0], c, rtol=1e-15)
            np.testing.assert_allclose(out[0, t], 0.5 * np.tanh(c), rtol=1e-15)

    def test_saturated_forget_gate_preserves_cell_state(self):
        # Step 0 writes tanh(beta) through a fully open update gate; later
        # steps close the update gate through the input, and a saturated
        # forget gate carries the cell state unchanged.
        params = zero_params(2, 1)
        beta = np.array([0.8, -0.4])
        gate_bias(params, "c")[:] = beta
        gate_bias(params, "f")[:] = 50.0
        params.w_x[2:4, 0] = 50.0  # update gate rows
        x = np.array([[[1.0], [-1.0], [-1.0], [-1.0]]])
        _, cache = lstm_layer_forward(params, x)
        for t in range(4):
            np.testing.assert_allclose(cache["c"][t, 0], np.tanh(beta), rtol=0, atol=1e-20)

    def test_shape_mismatch_rejected(self):
        params = init_lstm_params(3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            lstm_layer_forward(params, np.zeros((1, 1, 4)))


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
        params = init_lstm_params(3, 2, rng)
        seq = rng.normal(size=(2, 4, 2))
        out, _ = lstm_layer_forward(params, seq)
        for s in range(2):
            want = oracle_layer(params, [list(r) for r in seq[s]])
            np.testing.assert_allclose(out[s], want, rtol=1e-12, atol=1e-15)

    def test_output_at_t_ignores_the_future(self):
        rng = np.random.default_rng(2)
        params = init_lstm_params(4, 3, rng)
        seq = rng.normal(size=(2, 6, 3))
        full, _ = lstm_layer_forward(params, seq)
        for cut in (1, 3, 5):
            part, _ = lstm_layer_forward(params, seq[:, :cut, :])
            np.testing.assert_array_equal(part, full[:, :cut, :])

    def test_layer_agrees_with_stepwise_cell(self):
        rng = np.random.default_rng(3)
        params = init_lstm_params(3, 2, rng)
        seq = rng.normal(size=(2, 5, 2))
        out, _ = lstm_layer_forward(params, seq)
        a = np.zeros((2, 3))
        c = np.zeros((2, 3))
        for t in range(5):
            a, c = stepwise_cell(params, a, c, seq[:, t, :])
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
        params = init_lstm_params(3, 2, rng)
        params.b[:] += rng.uniform(-0.5, 0.5, size=12)
        seq = rng.normal(size=(2, length, 2))
        d_out = rng.normal(size=(2, length, 3))
        out, cache = lstm_layer_forward(params, seq)
        d_seq, grads = lstm_layer_backward(params, cache, d_out)
        want_w = np.zeros((12, 5))
        want_b = np.zeros(12)
        for s in range(2):
            np.testing.assert_allclose(out[s], oracle_layer(params, seq[s]),
                                       rtol=1e-12, atol=1e-15)
            o_seq, o_w, o_b = oracle_layer_backward(params, seq[s], d_out[s])
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


class TestBidirectional:
    def test_swap_and_reverse_identity(self):
        # Swapping direction parameters while reversing the input reverses
        # time and swaps the output halves — exactly.
        rng = np.random.default_rng(4)
        fwd = init_lstm_params(3, 2, rng)
        bwd = init_lstm_params(3, 2, rng)
        seq = rng.normal(size=(2, 5, 2))
        a, _ = bilstm_forward(fwd, bwd, seq)
        b, _ = bilstm_forward(bwd, fwd, seq[:, ::-1, :])
        swapped = np.concatenate([b[:, :, 3:], b[:, :, :3]], axis=2)
        np.testing.assert_array_equal(a, swapped[:, ::-1, :])

    def test_halves_are_directional_runs(self):
        rng = np.random.default_rng(5)
        fwd = init_lstm_params(2, 3, rng)
        bwd = init_lstm_params(2, 3, rng)
        seq = rng.normal(size=(1, 4, 3))
        out, _ = bilstm_forward(fwd, bwd, seq)
        front, _ = lstm_layer_forward(fwd, seq)
        back, _ = lstm_layer_forward(bwd, seq[:, ::-1, :])
        np.testing.assert_array_equal(out[:, :, :2], front)
        np.testing.assert_array_equal(out[:, :, 2:], back[:, ::-1, :])


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

    def test_single_window_returns_scalar(self):
        net = build_network(2, hidden1=2, hidden2=2, dropout_rate=0.0, seed=1)
        out, _ = network_forward(net, np.zeros((3, 2)))
        assert isinstance(out, float)

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
            getattr(bi.layer1_fwd, name)[...] = getattr(uni.layer1_fwd, name)
            getattr(bi.layer1_bwd, name)[...] = 0.0
            getattr(bi.layer2_bwd, name)[...] = 0.0
        # Layer-2 forward sees [fwd_half | bwd_half]; copy the uni input
        # weights over fwd_half and zero the bwd_half columns.
        bi.layer2_fwd.w_x[...] = 0.0
        bi.layer2_fwd.w_x[:, :h1] = uni.layer2_fwd.w_x
        bi.layer2_fwd.w_a[...] = uni.layer2_fwd.w_a
        bi.layer2_fwd.b[...] = uni.layer2_fwd.b
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
        with pytest.raises(ShapeMismatch):
            network_forward(net, np.zeros((1, 3, 5)))
        with pytest.raises(NonFiniteActivation):
            network_forward(net, np.full((1, 3, 2), np.nan))

    def test_build_rejects_bad_widths(self):
        with pytest.raises(ConfigError):
            build_network(0)
        with pytest.raises(ConfigError):
            build_network(2, dropout_rate=1.0)


class TestInitialization:
    def test_weights_bounded_by_fan_in_and_forget_bias_one(self):
        params = init_lstm_params(5, 3, np.random.default_rng(0))
        bound = 1.0 / math.sqrt(8)
        assert params.w_x.shape == (20, 3) and params.w_a.shape == (20, 5)
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
        params = init_lstm_params(hidden, input_dim, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        bound = 1.0 / math.sqrt(hidden + input_dim)
        for k in range(4):
            block = rng.uniform(-bound, bound, size=(hidden, hidden + input_dim))
            rows = slice(k * hidden, (k + 1) * hidden)
            np.testing.assert_array_equal(params.w_a[rows], block[:, :hidden])
            np.testing.assert_array_equal(params.w_x[rows], block[:, hidden:])

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
        with pytest.raises(StaleCache):
            network_backward(net, cache, np.zeros(2))

    def test_upstream_gradient_shape_checked(self):
        net = build_network(2, hidden1=2, hidden2=2, dropout_rate=0.0, seed=0)
        _, cache = network_forward(net, np.zeros((2, 3, 2)), "train", seed=0)
        with pytest.raises(ShapeMismatch):
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
        with pytest.raises(LengthMismatch):
            logcosh_loss(np.zeros(3), np.zeros(4))
        with pytest.raises(LengthMismatch):
            logcosh_loss(np.zeros(0), np.zeros(0))


class TestAdam:
    def test_first_step_closed_form(self):
        params = {"a": np.array([1.0, 2.0, -3.0])}
        g = np.array([0.3, -0.2, 0.05])
        state = init_adam_state(params)
        config = TrainConfig(learning_rate=1e-3, clip_norm=0.0)
        adam_step(params, {"a": g.copy()}, state, config)
        want = np.array([1.0, 2.0, -3.0]) - 1e-3 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params["a"], want, rtol=1e-12)
        assert state.step == 1

    def test_zero_gradient_leaves_parameters_alone(self):
        params = {"a": np.array([1.0, -2.0])}
        state = init_adam_state(params)
        adam_step(params, {"a": np.zeros(2)}, state, TrainConfig())
        np.testing.assert_array_equal(params["a"], [1.0, -2.0])

    def test_norm_ten_clipped_to_one_scales_moments_by_tenth(self):
        params = {"a": np.array([0.0, 0.0])}
        g = np.array([6.0, 8.0])
        state = init_adam_state(params)
        adam_step(params, {"a": g.copy()}, state, TrainConfig(clip_norm=1.0))
        np.testing.assert_allclose(state.m["a"], 0.1 * (1.0 - 0.9) * g, rtol=1e-12)
        np.testing.assert_allclose(
            state.v["a"], (1.0 - 0.999) * (0.1 * g) ** 2, rtol=1e-12
        )

    def test_gradients_below_the_clip_norm_pass_through(self):
        params = {"a": np.array([0.0])}
        g = np.array([0.5])
        state = init_adam_state(params)
        adam_step(params, {"a": g.copy()}, state, TrainConfig(clip_norm=1.0))
        np.testing.assert_allclose(state.m["a"], 0.1 * g, rtol=1e-12)

    def test_zero_clip_norm_disables_clipping(self):
        params = {"a": np.array([0.0, 0.0])}
        g = np.array([60.0, 80.0])
        state = init_adam_state(params)
        adam_step(params, {"a": g.copy()}, state, TrainConfig(clip_norm=0.0))
        np.testing.assert_allclose(state.m["a"], 0.1 * g, rtol=1e-12)

    @pytest.mark.parametrize("clip_norm", [0.0, 0.5])
    def test_matches_literal_formula_bit_for_bit(self, clip_norm):
        rng = np.random.default_rng(60)
        shapes = {"w": (4, 3), "b": (4,), "big": (5, 6)}
        params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        want = {k: arr.copy() for k, arr in params.items()}
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
            adam_step(params, {k: g.copy() for k, g in grads.items()}, state, config)
            for k in shapes:
                np.testing.assert_array_equal(params[k], want[k])
                np.testing.assert_array_equal(state.m[k], m[k])
                np.testing.assert_array_equal(state.v[k], v[k])
        assert state.step == 5

    def test_key_and_shape_mismatches_rejected(self):
        params = {"a": np.zeros(2)}
        state = init_adam_state(params)
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"b": np.zeros(2)}, state, TrainConfig())
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"a": np.zeros(3)}, state, TrainConfig())


class TestDropout:
    def test_rate_zero_train_equals_eval(self):
        net = build_network(2, hidden1=3, hidden2=3, dropout_rate=0.0, seed=6)
        x = np.random.default_rng(3).normal(size=(4, 3, 2))
        train_preds, cache = network_forward(net, x, "train", seed=123)
        eval_preds, _ = network_forward(net, x, "eval")
        np.testing.assert_array_equal(train_preds, eval_preds)
        assert cache["drop1"] is None and cache["drop2"] is None

    def test_masks_use_inverted_scaling(self):
        net = build_network(2, hidden1=2, hidden2=2, dropout_rate=0.2, seed=7)
        x = np.random.default_rng(4).normal(size=(3, 3, 2))
        _, cache = network_forward(net, x, "train", seed=99)
        mask = cache["drop2"]
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
            total += cache["drop1"].sum()
            count += cache["drop1"].size
        assert total / count == pytest.approx(1.0, abs=0.02)

    def test_same_seed_same_mask(self):
        net = build_network(2, hidden1=2, hidden2=2, dropout_rate=0.3, seed=9)
        x = np.random.default_rng(6).normal(size=(3, 3, 2))
        a, ca = network_forward(net, x, "train", seed=41)
        b, cb = network_forward(net, x, "train", seed=41)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ca["drop1"], cb["drop1"])


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
        config = TrainConfig(epochs=200, batch_size=16, learning_rate=1e-2,
                             dropout_rate=0.0, seed=0)
        net, losses = train(net, inputs, targets, config)
        preds, _ = network_forward(net, inputs, "eval")
        assert np.all(np.abs(preds - 0.7) <= 0.05 * 0.7)
        assert len(losses) == 200

    def test_same_seed_same_history(self):
        inputs, targets = self.toy_problem()
        config = TrainConfig(epochs=5, batch_size=8, dropout_rate=0.1, seed=3)
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
        config = TrainConfig(epochs=40, batch_size=8, learning_rate=3e-3,
                             dropout_rate=0.0, seed=0)
        _, losses = train(net, inputs, targets, config)
        smoothed = [float(np.mean(losses[i: i + 5])) for i in range(0, 40, 5)]
        for prev, cur in zip(smoothed, smoothed[1:]):
            assert cur <= prev * (1.0 + 1e-6)

    def test_training_reduces_loss(self):
        inputs, targets = self.toy_problem(m=32, seed=2)
        net = build_network(2, hidden1=4, hidden2=4, dropout_rate=0.0, seed=3)
        config = TrainConfig(epochs=30, batch_size=8, learning_rate=3e-3,
                             dropout_rate=0.0, seed=0)
        _, losses = train(net, inputs, targets, config)
        assert losses[-1] < 0.5 * losses[0]

    def test_config_dropout_overrides_network_dropout(self):
        inputs, targets = self.toy_problem(m=8)
        net = build_network(2, 2, 2, dropout_rate=0.5, seed=4)
        config = TrainConfig(epochs=1, batch_size=8, dropout_rate=0.0, seed=0)
        net, _ = train(net, inputs, targets, config)
        assert net.dropout_rate == 0.0

    def test_overflowing_epoch_loss_raises(self):
        inputs, targets = self.toy_problem(m=8)
        net = build_network(2, 2, 2, dropout_rate=0.0, seed=5)
        net.dense_b[0] = 1e308
        config = TrainConfig(epochs=1, batch_size=4, dropout_rate=0.0, seed=0)
        with np.errstate(over="ignore"), pytest.raises(DivergedLoss):
            train(net, inputs, targets, config)

    def test_empty_and_misshapen_training_sets_rejected(self):
        net = build_network(2, 2, 2, seed=0)
        with pytest.raises(Exception) as err:
            train(net, np.zeros((0, 3, 2)), np.zeros(0), TrainConfig(epochs=1))
        assert "training" in str(err.value) or "sample" in str(err.value)
        with pytest.raises(Exception):
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
        with pytest.raises(ConfigError):
            TrainConfig(dropout_rate=1.0)


class TestSaveLoad:
    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_round_trip_preserves_predictions(self, tmp_path, bidirectional):
        net = build_network(3, hidden1=3, hidden2=4, dropout_rate=0.15,
                            bidirectional=bidirectional, seed=21)
        path = str(tmp_path / "net.bin")
        save_network(net, path)
        back = load_network(path)
        assert back.bidirectional == bidirectional
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

    def test_version_1_checkpoint_rejected(self, tmp_path):
        # A v1 file stored eight per-gate arrays per direction behind the old
        # WFNN header; the magic alone rejects it.
        path = tmp_path / "net.bin"
        header = b"WFNN" + struct.pack("<HBQQQd", 1, 2, 3, 2, 2, 0.2)
        path.write_bytes(header + np.zeros(200).tobytes())
        with pytest.raises(BadArtifact, match="magic"):
            load_network(str(path))

    def test_truncated_checkpoint_rejected(self, tmp_path):
        net = build_network(2, hidden1=3, hidden2=2, seed=1)
        path = tmp_path / "net.bin"
        save_network(net, str(path))
        path.write_bytes(path.read_bytes()[:-12])
        with pytest.raises(BadArtifact, match="truncated"):
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
        with pytest.raises(BadArtifact):
            load_network(str(path))
