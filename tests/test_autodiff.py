import math
import warnings

import numpy as np
import pytest

import covdec.autodiff as ad
from covdec.autodiff import Node
from covdec.errors import ConfigError, DataError, ShapeError, StateError

from conftest import complex_step_grads, gate_block, lstm_arrays, lstm_loop


def lstm_nodes(d, hidden, **biases):
    """Fused LSTM parameter nodes wx, wh and b: zero weights, zero biases
    except the gates given."""
    b = np.zeros(4 * hidden)
    for gate, value in biases.items():
        gate_block(b, gate)[:] = value
    return {"wx": Node(np.zeros((d, 4 * hidden))),
            "wh": Node(np.zeros((hidden, 4 * hidden))), "b": Node(b)}


# the matrix product is linear without a bias
def test_matmul_identity():
    out = ad.linear(Node([[1.0, 0.0], [0.0, 1.0]]), Node([[3.0], [4.0]]))
    assert np.array_equal(out.value, [[3.0], [4.0]])


def test_matmul_hand_computed():
    out = ad.linear(Node([[1.0, 2.0]]), Node([[3.0], [4.0]]))
    assert np.array_equal(out.value, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.linear(Node(np.zeros((2, 3))), Node(np.zeros((2, 2))))


def test_matmul_backward_formulas():
    rng = np.random.default_rng(0)
    a, b = Node(rng.normal(size=(3, 4))), Node(rng.normal(size=(4, 2)))
    out = ad.linear(a, b)
    g = rng.normal(size=(3, 2))
    out.grad += g - np.ones_like(g)  # so the seeded ones make the total g
    out.backward()
    assert np.allclose(a.grad, g @ b.value.T)
    assert np.allclose(b.grad, a.value.T @ g)


def test_relu_values_and_subgradient_at_zero():
    x = Node([-1.0, 0.0, 2.0])
    out = ad.relu(x)
    assert np.array_equal(out.value, [0.0, 0.0, 2.0])
    out.backward()
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_sigmoid_tanh_at_zero():
    # the LSTM's gates at zero pre-activation; a bias of 50 saturates a gate to exactly 1
    xs = Node(np.zeros((1, 2, 3)))
    # g = tanh(0) = 0 with i = o = 1: nothing enters the cell, so h = tanh(0)
    h = ad.lstm(xs, **lstm_nodes(3, 2, i=50.0, o=50.0)).value
    assert np.array_equal(h, np.zeros((1, 2, 2)))
    # i = f = o = sigmoid(0) = 0.5 with g = 1: c_1 = 0.5, c_2 = 0.5*0.5 + 0.5
    h = ad.lstm(xs, **lstm_nodes(3, 2, g=50.0)).value
    assert np.array_equal(h[0, 0], np.full(2, 0.5 * np.tanh(0.5)))
    assert np.array_equal(h[0, 1], np.full(2, 0.5 * np.tanh(0.75)))


def test_activations_stable_for_huge_inputs():
    x = Node([-1e6, 1e6])
    assert np.all(np.isfinite(ad.relu(x).value))
    # gate pre-activations of +-1e6 saturate sigmoid and tanh without overflow
    rng = np.random.default_rng(10)
    xs = Node(np.array([[[-1e6, 1e6], [1e6, -1e6]]]))
    nodes = {k: Node(v) for k, v in lstm_arrays(rng, 2, 3).items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.lstm(xs, **nodes)
        out.backward()
    assert np.all(np.isfinite(out.value))
    assert np.all(np.isfinite(xs.grad))
    assert all(np.all(np.isfinite(node.grad)) for node in nodes.values())


def test_conv1d_identity_kernel():
    out = ad.conv1d(Node([[1.0, 2.0, 3.0]]), Node([[[1.0]]]), Node([0.0]))
    assert np.array_equal(out.value, [[1.0, 2.0, 3.0]])


def test_conv1d_sliding_sum():
    out = ad.conv1d(Node([[1.0, 2.0, 3.0]]), Node([[[1.0, 1.0]]]), Node([0.0]))
    assert np.array_equal(out.value, [[3.0, 5.0]])


def test_conv1d_kernel_longer_than_input():
    with pytest.raises(ConfigError, match="kernel 4"):
        ad.conv1d(Node(np.zeros((1, 3))), Node(np.zeros((1, 1, 4))), Node(np.zeros(1)))


def test_conv1d_batched_matches_per_sample():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 2, 9))
    w = rng.normal(size=(4, 2, 3))
    b = rng.normal(size=4)
    batched = ad.conv1d(Node(x), Node(w), Node(b))
    for i in range(3):
        single = ad.conv1d(Node(x[i]), Node(w), Node(b))
        assert np.allclose(batched.value[i], single.value, atol=1e-12)


def _conv1d_loops(x, w, b, g):
    """Output and (dx, dw, db) of out[n, o, t] = b[o] + sum_{i,k} w[o,i,k] * x[n,i,t+k]
    for loss = sum(out * g), by plain loops over every index; x is [B, Cin, L]."""
    batch, cin, length = x.shape
    cout, _, k = w.shape
    steps = length - k + 1
    out = np.zeros((batch, cout, steps))
    dx, dw, db = np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)
    for n in range(batch):
        for o in range(cout):
            for t in range(steps):
                out[n, o, t] = b[o]
                db[o] += g[n, o, t]
                for i in range(cin):
                    for j in range(k):
                        out[n, o, t] += w[o, i, j] * x[n, i, t + j]
                        dw[o, i, j] += g[n, o, t] * x[n, i, t + j]
                        dx[n, i, t + j] += g[n, o, t] * w[o, i, j]
    return out, dx, dw, db


def _backward_with(out: Node, g: np.ndarray) -> None:
    # loss = sum(out * g), so d loss / d out is exactly g
    flat = ad.reshape(out, (1, g.size))
    ad.reshape(ad.linear(flat, Node(g.reshape(g.size, 1))), ()).backward()


@pytest.mark.parametrize("x_shape, w_shape", [
    ((3, 2, 9), (4, 2, 3)),   # batched, Cin < Cout
    ((5, 8), (3, 5, 3)),      # unbatched, Cin > Cout
    ((2, 3, 6), (4, 3, 1)),   # K = 1
    ((2, 3, 4), (2, 3, 4)),   # K = L, one output step
    ((6, 3, 4), (2, 3, 4)),   # K = L, unbatched
    ((2, 1, 7), (3, 1, 2)),   # Cin = 1
], ids=["batched", "unbatched", "k1", "k-eq-l", "k-eq-l-unbatched", "cin1"])
def test_conv1d_matches_loop_formula(x_shape, w_shape):
    rng = np.random.default_rng(8)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape)
    b = rng.normal(size=w_shape[0])
    xn, wn, bn = Node(x), Node(w), Node(b)
    out = ad.conv1d(xn, wn, bn)
    g = rng.normal(size=out.value.shape)
    _backward_with(out, g)

    batched_x = x.reshape(-1, *x_shape[-2:])
    ref_out, ref_dx, ref_dw, ref_db = _conv1d_loops(
        batched_x, w, b, g.reshape(batched_x.shape[0], *g.shape[-2:]))
    assert out.value.shape == x_shape[:-2] + ref_out.shape[-2:]
    for got, want in [(out.value, ref_out), (xn.grad, ref_dx),
                      (wn.grad, ref_dw), (bn.grad, ref_db)]:
        assert np.allclose(got.reshape(want.shape), want, rtol=0.0, atol=1e-12)
    assert xn.grad.shape == x.shape


def test_softmax_xent_uniform_logits_is_ln_k():
    loss = ad.softmax_xent(Node(np.zeros((2, 3))), [0, 2])
    assert float(loss.value) == pytest.approx(math.log(3.0), abs=1e-12)


def test_softmax_xent_saturated_correct_logit():
    logits = np.zeros((1, 3))
    logits[0, 1] = 1e6
    loss = ad.softmax_xent(Node(logits), [1])
    assert float(loss.value) == pytest.approx(0.0, abs=1e-12)


def test_softmax_xent_label_out_of_range_names_index():
    with pytest.raises(DataError, match=r"label 5 out of range \[0, 3\) at index 1"):
        ad.softmax_xent(Node(np.zeros((2, 3))), [0, 5])


def test_softmax_probabilities_normalized():
    rng = np.random.default_rng(2)
    probs = ad.softmax(rng.normal(size=(50, 7)) * 100.0)
    assert np.all(probs >= 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_mse_trivial_cases():
    x = Node([1.0, 2.0])
    assert float(ad.mse(x, [1.0, 2.0]).value) == 0.0
    assert float(ad.mse(Node([0.0, 0.0]), [1.0, 1.0]).value) == 1.0


def test_mse_gradient_formula():
    rng = np.random.default_rng(3)
    pred = Node(rng.normal(size=8))
    target = rng.normal(size=8)
    ad.mse(pred, target).backward()
    assert np.allclose(pred.grad, 2.0 * (pred.value - target) / 8.0)


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.mse(Node([1.0, 2.0]), [1.0, 2.0, 3.0])


def test_lstm_shape_errors():
    with pytest.raises(ShapeError, match=r"\[B, T, d\]"):
        ad.lstm(Node(np.zeros((2, 3))), **lstm_nodes(3, 4))
    nodes = lstm_nodes(3, 4)
    nodes["wx"] = Node(np.zeros((2, 16)))
    with pytest.raises(ShapeError, match=r"wx \(2, 16\) vs expected \(3, 16\)"):
        ad.lstm(Node(np.zeros((1, 5, 3))), **nodes)
    nodes = lstm_nodes(3, 4)
    nodes["wh"] = Node(np.zeros((4, 20)))
    with pytest.raises(ShapeError, match=r"wh \(4, 20\) vs expected \(4, 16\)"):
        ad.lstm(Node(np.zeros((1, 5, 3))), **nodes)
    nodes = lstm_nodes(3, 4)
    nodes["b"] = Node(np.zeros(15))
    with pytest.raises(ShapeError, match=r"b must be \[4H\], got \(15,\)"):
        ad.lstm(Node(np.zeros((1, 5, 3))), **nodes)
    with pytest.raises(ShapeError, match=r"\[B, T, H\]"):
        ad.last_step(Node(np.zeros((2, 3))))


def test_linear_vector_and_batch_agree():
    rng = np.random.default_rng(4)
    w, b = Node(rng.normal(size=(5, 3))), Node(rng.normal(size=3))
    x = rng.normal(size=(2, 5))
    batched = ad.linear(Node(x), w, b)
    # gemm vs gemv may differ in the last ulp; equality is numerical here
    assert np.allclose(batched.value[0], ad.linear(Node(x[0]), w, b).value, atol=1e-12)


def test_reshape_roundtrips_gradient():
    x = Node(np.arange(6.0).reshape(2, 3))
    out = ad.reshape(x, (6,))
    out.backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_lstm_zero_params_fixed_point():
    # h = o*tanh(c) with o = 0.5, so h = 0 means c = 0 too
    h_t = ad.lstm(Node([[[5.0, -2.0, 9.0]]]), **lstm_nodes(3, 4))
    assert np.array_equal(h_t.value, np.zeros((1, 1, 4)))


def test_lstm_saturated_gates_carry_cell_state():
    # the state starts at zero, so step 1 writes c_1 = g (i = 1, f = 0) and
    # step 2 carries it (i = 0, f = 1); o = 1 throughout, so h_t = tanh(c_t)
    d, h = 2, 3
    rng = np.random.default_rng(5)
    nodes = lstm_nodes(d, h)
    wx = {gate: gate_block(nodes["wx"].value, gate) for gate in ad.LSTM_GATES}
    wx["i"][:] = [[50.0], [-50.0]]
    wx["f"][:] = [[-50.0], [50.0]]
    wx["g"][0] = rng.normal(size=h)
    wx["o"][:] = 50.0
    out = ad.lstm(Node([[[1.0, 0.0], [0.0, 1.0]]]), **nodes).value[0]
    assert np.allclose(out[0], np.tanh(np.tanh(wx["g"][0])), atol=1e-3)
    assert np.allclose(out[1], out[0], atol=1e-3)


@pytest.mark.parametrize("batch, steps, d, hidden", [
    (3, 5, 4, 3),   # batched, d > H
    (1, 4, 2, 5),   # batch of one, d < H
    (2, 1, 3, 4),   # one step
    (2, 3, 3, 3),   # d = H
], ids=["batched", "batch1", "t1", "d-eq-h"])
def test_lstm_matches_loop_formula(batch, steps, d, hidden):
    rng = np.random.default_rng(9)
    xs = rng.normal(size=(batch, steps, d))
    arrays = lstm_arrays(rng, d, hidden)
    xn, nodes = Node(xs), {k: Node(v) for k, v in arrays.items()}
    out = ad.lstm(xn, **nodes)
    g = rng.normal(size=(batch, steps, hidden))
    _backward_with(out, g)

    names = list(arrays)

    def loss(x, *values):
        return np.sum(lstm_loop(x, dict(zip(names, values))) * g)

    want = complex_step_grads(loss, [xs, *arrays.values()])
    assert out.value.shape == (batch, steps, hidden)
    assert np.allclose(out.value, lstm_loop(xs, arrays), rtol=0.0, atol=1e-12)
    for name, got, ref in zip(["xs", *names], [xn.grad, *(n.grad for n in nodes.values())], want):
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12), name


def test_last_step_value_and_gradient():
    x = Node(np.arange(12.0).reshape(2, 3, 2))
    out = ad.last_step(x)
    assert np.array_equal(out.value, [[4.0, 5.0], [10.0, 11.0]])
    out.backward()
    want = np.zeros((2, 3, 2))
    want[:, -1] = 1.0
    assert np.array_equal(x.grad, want)


def test_backward_visits_shared_node_once():
    # y = x*x + x as linear(x, x, x): dy/dx = 2x + 1; double-counting would give more
    x = Node([3.0])
    xm = ad.reshape(x, (1, 1))
    y = ad.linear(xm, xm, x)
    assert np.array_equal(y.value, [[12.0]])
    y.backward()
    assert np.array_equal(x.grad, [7.0])


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(6)
    a_val = rng.normal(size=(4, 4))
    b_val = rng.normal(size=(4, 4))

    def one_pass():
        a, b = Node(a_val), Node(b_val)
        loss = ad.mse(ad.relu(ad.linear(a, b)), np.zeros((4, 4)))
        loss.backward()
        return a.grad.tobytes(), b.grad.tobytes()

    assert one_pass() == one_pass()


def test_gradients_accumulate_additively():
    x = Node([[2.0]])
    y1, y2 = ad.linear(x, x), ad.linear(x, x)
    y1.backward()
    y2.backward()
    assert np.array_equal(x.grad, [[8.0]])  # 4.0 from each pass


def test_no_nonfinite_from_bounded_inputs():
    rng = np.random.default_rng(7)
    x = Node(rng.uniform(-1e3, 1e3, size=(4, 1, 6)))
    nodes = {k: Node(v * 2e3) for k, v in lstm_arrays(rng, 6, 3).items()}
    w = Node(rng.uniform(-1e3, 1e3, size=(3, 3)))
    logits = ad.linear(ad.last_step(ad.lstm(x, **nodes)), w)
    loss = ad.softmax_xent(logits, [0, 1, 2, 0])
    loss.backward()
    assert np.isfinite(float(loss.value))
    assert np.all(np.isfinite(x.grad)) and np.all(np.isfinite(w.grad))
    assert all(np.all(np.isfinite(node.grad)) for node in nodes.values())


def _no_grad_ops(rng):
    """One result of each op kind from the same inputs: conv1d, linear, relu,
    reshape, lstm, last_step and both losses."""
    x = Node(rng.normal(size=(2, 3, 5)))
    w, b = Node(rng.normal(size=(4, 3, 2))), Node(rng.normal(size=4))
    lstm_params = {k: Node(v) for k, v in lstm_arrays(rng, 4, 3).items()}
    wl = Node(rng.normal(size=(3, 2)))
    conv = ad.relu(ad.conv1d(x, w, b))
    seq = ad.lstm(ad.reshape(conv, (2, 4, 4)), **lstm_params)
    logits = ad.linear(ad.last_step(seq), wl)
    return [conv, seq, logits, ad.softmax_xent(logits, [0, 1]), ad.mse(logits, np.zeros((2, 2)))]


def test_no_grad_records_no_graph_and_keeps_values():
    recorded = _no_grad_ops(np.random.default_rng(31))
    with ad.no_grad():
        unrecorded = _no_grad_ops(np.random.default_rng(31))
    for rec, unrec in zip(recorded, unrecorded):
        assert rec.parents and rec._backward is not None
        assert unrec.parents is None and unrec._backward is None
        assert unrec.value.tobytes() == rec.value.tobytes()
        assert unrec._grad is None
    with pytest.raises(StateError, match="'softmax_xent'.*no_grad"):
        unrecorded[3].backward()
    recorded[3].backward()  # the same graph, recorded, differentiates


def test_no_grad_result_is_a_constant_in_a_recorded_graph():
    rng = np.random.default_rng(32)
    x, w1, w2 = (Node(rng.normal(size=s)) for s in ((3, 4), (4, 4), (4, 2)))
    with ad.no_grad():
        h = ad.relu(ad.linear(x, w1))
    y = ad.mse(ad.linear(h, w2), np.zeros((3, 2)))
    y.backward()
    assert np.array_equal(w2.grad, h.value.T @ (2.0 / 6 * (h.value @ w2.value)))
    assert x._grad is None and w1._grad is None


def test_no_grad_nests_and_restores_recording_after_an_exception():
    x, w = Node([[1.0, 2.0]]), Node([[3.0], [4.0]])

    def records():
        return ad.linear(x, w).parents is not None

    assert records()
    with ad.no_grad():
        with ad.no_grad():
            assert not records()
        assert not records()  # leaving the inner scope keeps the outer one
        with pytest.raises(ShapeError):
            with ad.no_grad():
                ad.linear(w, w)
        assert not records()
    assert records()
    with pytest.raises(ShapeError):
        with ad.no_grad():
            ad.linear(w, w)
    assert records()
    y = ad.linear(x, w)
    y.backward()
    assert np.array_equal(w.grad, [[1.0], [2.0]])


def _lstm_before(xs, arrays, grad):
    """ad.lstm's value and gradients for loss = sum(out * grad), by the loop it
    ran before the whole-row gate activation: sigmoid gates as
    0.5 * (1 + tanh(0.5 * z)), tanh on g apart, the recurrent product made at
    every step and the gradient into the zero state computed."""
    batch, steps, d = xs.shape
    hidden = arrays["b"].size // 4
    order = ("i", "f", "o", "g")
    wx, wh, b = arrays["wx"], arrays["wh"], arrays["b"]
    x2 = xs.transpose(1, 0, 2).reshape(steps * batch, d)
    gates = (x2 @ wx).reshape(steps, batch, 4 * hidden)
    gates += b
    hs = np.zeros((steps + 1, batch, hidden))
    cs = np.zeros((steps + 1, batch, hidden))
    tanh_cs = np.empty((steps, batch, hidden))
    sig = 3 * hidden

    def split(a):
        return (a[..., k * hidden:(k + 1) * hidden] for k in range(4))

    for t in range(steps):
        z = gates[t]
        z += hs[t] @ wh
        z[:, :sig] = 0.5 * (1.0 + np.tanh(0.5 * z[:, :sig]))
        z[:, sig:] = np.tanh(z[:, sig:])
        i, f, o, g = split(z)
        cs[t + 1] = f * cs[t] + i * g
        tanh_cs[t] = np.tanh(cs[t + 1])
        hs[t + 1] = o * tanh_cs[t]

    grad_t = grad.transpose(1, 0, 2)
    dz = np.empty((steps, batch, 4 * hidden))
    dh = np.zeros((batch, hidden))
    dc = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        i, f, o, g = split(gates[t])
        di, df, do, dg = split(dz[t])
        tc = tanh_cs[t]
        dh = dh + grad_t[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        di[...] = dc * g * i * (1.0 - i)
        df[...] = dc * cs[t] * f * (1.0 - f)
        do[...] = dh * tc * o * (1.0 - o)
        dg[...] = dc * i * (1.0 - g * g)
        dc = dc * f
        dh = dz[t] @ wh.T
    dz2 = dz.reshape(steps * batch, 4 * hidden)
    fused = {
        "wx": x2.T @ dz2,
        "wh": hs[:-1].reshape(steps * batch, hidden).T @ dz2,
        "b": dz2.sum(axis=0),
    }
    grads = {"xs": (dz2 @ wx.T).reshape(steps, batch, d).transpose(1, 0, 2)}
    for kind, grad_k in fused.items():
        for gate, part in zip(order, split(grad_k)):
            grads[f"{kind}_{gate}"] = part
    return hs[1:].transpose(1, 0, 2), grads


@pytest.mark.parametrize("batch, steps, d, hidden, zero", [
    (1, 1, 6, 5, False), (1, 8, 6, 5, False), (16, 8, 6, 5, False), (16, 8, 6, 5, True),
    # the shapes the benchmark runs at the default widths: one trial and a
    # chunk of 64 over 8 rows, one trial and a minibatch of 16 over 64 rows
    (1, 8, 64, 64, False), (64, 8, 64, 64, False),
    (1, 64, 64, 64, False), (16, 64, 64, 64, False),
], ids=["b1-t1", "b1-t8", "b16-t8", "zero-params",
        "b1-t8-h64", "b64-t8-h64", "b1-t64-h64", "b16-t64-h64"])
def test_lstm_bytes_equal_loop_before_whole_row_gates(batch, steps, d, hidden, zero):
    rng = np.random.default_rng(batch * 100 + steps)
    xs = rng.normal(size=(batch, steps, d))
    arrays = lstm_arrays(rng, d, hidden)
    if zero:
        arrays = {k: np.zeros_like(v) for k, v in arrays.items()}
    grad = rng.normal(size=(batch, steps, hidden))
    xn, nodes = Node(xs), {k: Node(v) for k, v in arrays.items()}
    out = ad.lstm(xn, **nodes)
    _backward_with(out, grad)

    want_out, want_grads = _lstm_before(xs, arrays, grad)
    assert out.value.tobytes() == want_out.tobytes()
    # each gate's slice of a fused gradient is that gate's old gradient
    got_grads = {"xs": xn.grad}
    for kind, node in nodes.items():
        for gate in ad.LSTM_GATES:
            got_grads[f"{kind}_{gate}"] = gate_block(node.grad, gate)
    assert got_grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        assert got_grads[name].tobytes() == want.tobytes(), name
    with ad.no_grad():
        unrecorded = ad.lstm(Node(xs), **{k: Node(v) for k, v in arrays.items()})
    assert unrecorded.value.tobytes() == want_out.tobytes()


def _conv1d_before(x, w, b, g):
    """ad.conv1d's value and (dx, dw, db) for loss = sum(out * g), by the code
    it ran before the shifted-slice window matrix: cols as a transposed
    sliding_window_view of x, copied by reshape."""
    cout, cin, k = w.shape
    length = x.shape[-1]
    xb = x.reshape(-1, cin, length)
    batch, steps = xb.shape[0], length - k + 1
    windows = np.lib.stride_tricks.sliding_window_view(xb, k, axis=-1)
    cols = windows.transpose(0, 1, 3, 2).reshape(batch, cin * k, steps)
    w2 = w.reshape(cout, cin * k)
    out = w2 @ cols + b[:, None]
    g = g.reshape(batch, cout, steps)
    db = g.sum(axis=(0, 2))
    g2 = g.transpose(1, 0, 2).reshape(cout, batch * steps)
    cols2 = cols.transpose(0, 2, 1).reshape(batch * steps, cin * k)
    dw = (g2 @ cols2).reshape(cout, cin, k)
    dcols = (w2.T @ g).reshape(batch, cin, k, steps)
    dx = np.zeros_like(xb)
    for j in range(k):
        dx[:, :, j:j + steps] += dcols[:, :, j]
    # a fresh gradient buffer is zeros, and the op adds into it
    return out.reshape(x.shape[:-2] + (cout, steps)), 0.0 + dx.reshape(x.shape), 0.0 + dw, 0.0 + db


@pytest.mark.parametrize("x_shape, w_shape", [
    ((1, 8, 40), (6, 8, 1)), ((1, 8, 40), (6, 8, 3)), ((1, 8, 40), (6, 8, 40)),
    ((16, 8, 40), (6, 8, 1)), ((16, 8, 40), (6, 8, 3)), ((16, 8, 40), (6, 8, 40)),
    ((8, 40), (6, 8, 3)),
], ids=["b1-k1", "b1-k3", "b1-k-eq-l", "b16-k1", "b16-k3", "b16-k-eq-l", "unbatched"])
def test_conv1d_bytes_equal_sliding_window_before(x_shape, w_shape):
    rng = np.random.default_rng(x_shape[0] * 100 + w_shape[-1])
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape)
    b = rng.normal(size=w_shape[0])
    xn, wn, bn = Node(x), Node(w), Node(b)
    out = ad.conv1d(xn, wn, bn)
    g = rng.normal(size=out.value.shape)
    _backward_with(out, g)

    want = _conv1d_before(x, w, b, g)
    for name, got, ref in zip(["out", "dx", "dw", "db"],
                              [out.value, xn.grad, wn.grad, bn.grad], want):
        assert got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name
    with ad.no_grad():
        unrecorded = ad.conv1d(Node(x), Node(w), Node(b))
    assert unrecorded.value.tobytes() == want[0].tobytes()
