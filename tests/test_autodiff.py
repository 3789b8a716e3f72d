import gc
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import covdec.autodiff as ad
from covdec.autodiff import Node
from covdec.errors import ConfigError, DataError, ShapeError, StateError
from covdec.gradcheck import _weighted_sum

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


def _zeros(*shape):
    return Node(np.zeros(shape))


@pytest.mark.parametrize("build, message", [
    (lambda: ad.linear(_zeros(2, 3), _zeros(3)), "linear: weight must be 2-D, got (3,)"),
    (lambda: ad.linear(_zeros(2, 3), _zeros(3, 4), _zeros(3)),
     "linear: bias (3,) vs weight (3, 4)"),
    (lambda: ad.conv1d(_zeros(2, 6), _zeros(4, 2), _zeros(4)),
     "conv1d: weight must be [Cout, Cin, K], got (4, 2)"),
    (lambda: ad.conv1d(_zeros(6), _zeros(4, 2, 3), _zeros(4)),
     "conv1d: input must be 2-D or 3-D, got (6,)"),
    (lambda: ad.conv1d(_zeros(3, 6), _zeros(4, 2, 3), _zeros(4)),
     "conv1d: input channels 3 vs weight Cin 2"),
    (lambda: ad.conv1d(_zeros(2, 6), _zeros(4, 2, 3), _zeros(5)),
     "conv1d: bias (5,) vs Cout 4"),
    (lambda: ad.softmax_xent(_zeros(3), [0, 1, 2]),
     "softmax_xent: logits must be [B, K], got (3,)"),
    (lambda: ad.softmax_xent(_zeros(2, 3), [0, 1, 2]), "softmax_xent: 2 rows vs 3 labels"),
], ids=["linear-weight", "linear-bias", "conv1d-weight", "conv1d-input", "conv1d-channels",
        "conv1d-bias", "softmax_xent-logits", "softmax_xent-labels"])
def test_op_shape_rejections_name_the_shapes(build, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        build()


def test_matmul_backward_formulas():
    rng = np.random.default_rng(0)
    a, b = Node(rng.normal(size=(3, 4))), Node(rng.normal(size=(4, 2)))
    with ad.tape():
        out = ad.linear(a, b)
        g = rng.normal(size=(3, 2))
        ad._acc(out, g - np.ones_like(g))  # so the seeded ones make the total g
        out.backward()
    assert np.allclose(a.grad, g @ b.value.T)
    assert np.allclose(b.grad, a.value.T @ g)


def test_unbatched_linear_backward_is_the_outer_product_bit_for_bit():
    rng = np.random.default_rng(5)
    x, w, b = Node(rng.normal(size=4)), Node(rng.normal(size=(4, 3))), Node(rng.normal(size=3))
    r = rng.normal(size=3)
    with ad.tape():
        _weighted_sum(ad.linear(x, w, b), r).backward()  # the output's gradient is r
    assert w.grad.tobytes() == np.outer(x.value, r).tobytes()
    assert b.grad.tobytes() == r.tobytes()
    assert x.grad.tobytes() == (r @ w.value.T).tobytes()


def test_relu_values_and_subgradient_at_zero():
    x = Node([-1.0, 0.0, 2.0])
    with ad.tape():
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
    with warnings.catch_warnings(), ad.tape():
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
    # loss = sum(out * g), so d loss / d out is exactly g; out must be on an
    # open tape
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
    with ad.tape():
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
    with ad.tape():
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
    with ad.tape():
        ad.reshape(x, (6,)).backward()
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
    with ad.tape():
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
    with ad.tape():
        out = ad.last_step(x)
        assert np.array_equal(out.value, [[4.0, 5.0], [10.0, 11.0]])
        out.backward()
    want = np.zeros((2, 3, 2))
    want[:, -1] = 1.0
    assert np.array_equal(x.grad, want)


def test_backward_visits_shared_node_once():
    # y = x*x + x as linear(x, x, x): dy/dx = 2x + 1; double-counting would give more
    x = Node([3.0])
    with ad.tape():
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
        with ad.tape():
            ad.mse(ad.relu(ad.linear(a, b)), np.zeros((4, 4))).backward()
        return a.grad.tobytes(), b.grad.tobytes()

    assert one_pass() == one_pass()


def test_gradients_accumulate_additively():
    x = Node([[2.0]])
    for _ in range(2):  # one tape per backward pass
        with ad.tape():
            ad.linear(x, x).backward()
    assert np.array_equal(x.grad, [[8.0]])  # 4.0 from each pass


def test_no_nonfinite_from_bounded_inputs():
    rng = np.random.default_rng(7)
    x = Node(rng.uniform(-1e3, 1e3, size=(4, 1, 6)))
    nodes = {k: Node(v * 2e3) for k, v in lstm_arrays(rng, 6, 3).items()}
    w = Node(rng.uniform(-1e3, 1e3, size=(3, 3)))
    with ad.tape():
        logits = ad.linear(ad.last_step(ad.lstm(x, **nodes)), w)
        loss = ad.softmax_xent(logits, [0, 1, 2, 0])
        loss.backward()
    assert np.isfinite(float(loss.value))
    assert np.all(np.isfinite(x.grad)) and np.all(np.isfinite(w.grad))
    assert all(np.all(np.isfinite(node.grad)) for node in nodes.values())


def _ops(rng):
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


def test_outside_a_tape_nothing_records_and_values_agree():
    with ad.tape() as nodes:
        recorded = _ops(np.random.default_rng(31))
        assert all(any(node is rec for node in nodes) for rec in recorded)
    unrecorded = _ops(np.random.default_rng(31))
    for rec, unrec in zip(recorded, unrecorded):
        assert rec._backward is not None
        assert unrec._backward is None and unrec._tape is None
        assert unrec.value.tobytes() == rec.value.tobytes()
        assert unrec._grad is None
    with pytest.raises(StateError, match="'softmax_xent'.*outside an open autodiff.tape"):
        unrecorded[3].backward()
    # the same graph, recorded, differentiates once: backward empties its tape
    with ad.tape():
        loss = _ops(np.random.default_rng(31))[3]
        loss.backward()
        with pytest.raises(StateError, match="'softmax_xent'"):
            loss.backward()
    with pytest.raises(StateError, match="'softmax_xent'"):
        recorded[3].backward()  # its tape is closed


def test_result_built_outside_a_tape_is_a_constant_in_a_recorded_graph():
    rng = np.random.default_rng(32)
    x, w1, w2 = (Node(rng.normal(size=s)) for s in ((3, 4), (4, 4), (4, 2)))
    h = ad.relu(ad.linear(x, w1))
    with ad.tape():
        y = ad.mse(ad.linear(h, w2), np.zeros((3, 2)))
        y.backward()
    assert np.array_equal(w2.grad, h.value.T @ (2.0 / 6 * (h.value @ w2.value)))
    assert x._grad is None and w1._grad is None


def test_tapes_nest_and_close_after_an_exception():
    x, w = Node([[1.0, 2.0]]), Node([[3.0], [4.0]])

    def records_on(nodes):
        y = ad.linear(x, w)
        return any(node is y for node in nodes)

    def records():
        return ad.linear(x, w)._backward is not None

    assert not records()
    with ad.tape() as outer:
        assert records_on(outer)
        with ad.tape() as inner:
            assert records_on(inner)
            assert len(outer) == 1
        assert inner == []  # a closed tape holds no node
        assert records_on(outer)  # leaving the inner tape keeps the outer one
        with pytest.raises(ShapeError):
            with ad.tape() as failed:
                ad.linear(x, w)
                ad.linear(w, w)
        assert failed == []
        assert records_on(outer)
    assert not records()
    with pytest.raises(ShapeError):
        with ad.tape():
            ad.linear(w, w)
    assert not records()
    with ad.tape():
        ad.linear(x, w).backward()
    assert np.array_equal(w.grad, [[1.0], [2.0]])


def test_node_that_does_not_feed_the_root_gets_no_gradient():
    rng = np.random.default_rng(33)
    x, w1, w2 = (Node(rng.normal(size=s)) for s in ((3, 4), (4, 4), (4, 2)))
    ran = []

    def spied(node):
        inner = node._backward
        node._backward = lambda g: (ran.append(node.op), inner(g))
        return node

    with ad.tape() as nodes:
        before = spied(ad.relu(ad.linear(x, w1)))  # on the tape before the root
        loss = spied(ad.mse(spied(ad.linear(x, w2)), np.zeros((3, 2))))
        after = spied(ad.relu(loss))  # and after it
        assert sum(node is before or node is after for node in nodes) == 2
        loss.backward()
    assert ran == ["mse", "linear"]
    assert before._grad is None and after._grad is None and w1._grad is None
    assert x._grad is not None and w2._grad is not None


def test_no_node_outlives_its_use_without_the_cycle_collector():
    rng = np.random.default_rng(34)
    x = rng.normal(size=(2, 3, 5))
    params = [Node(rng.normal(size=s)) for s in ((4, 3, 2), (4,), (16, 3))]

    def loss():
        h = ad.relu(ad.conv1d(Node(x), params[0], params[1]))
        return ad.softmax_xent(ad.linear(ad.reshape(h, (2, 16)), params[2]), [0, 2])

    def live_nodes():
        return sum(isinstance(obj, Node) for obj in gc.get_objects())

    gc.collect()
    gc.disable()  # so that only reference counts free nodes
    try:
        before = live_nodes()
        float(loss().value)  # a numeric pass of gradcheck
        assert live_nodes() == before
        with ad.tape():
            value = loss()
            assert live_nodes() == before + 6  # the leaf x and five op results
            del value
        assert live_nodes() == before  # the closed tape breaks every cycle
        with ad.tape():
            value = loss()
            value.backward()
            assert live_nodes() == before + 1  # the walk freed all but the root
    finally:
        gc.enable()


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("steps", [1, 2, 3, 8])
def test_unrecorded_lstm_equals_a_recorded_pass(batch, steps):
    # outside a tape the cell state alternates between two buffers; an odd
    # and an even step count each end in a different one
    rng = np.random.default_rng(35)
    xs = Node(rng.normal(size=(batch, steps, 5)))
    params = {k: Node(v) for k, v in lstm_arrays(rng, 5, 4).items()}
    with ad.tape():
        recorded = ad.lstm(xs, **params)
    unrecorded = ad.lstm(xs, **params)
    assert recorded._backward is not None and unrecorded._backward is None
    assert unrecorded.value.tobytes() == recorded.value.tobytes()


def test_unrecorded_lstm_holds_only_gates_result_and_step_buffers():
    batch, steps, d, hidden = 96, 64, 64, 64
    rng = np.random.default_rng(36)
    xs = Node(rng.normal(size=(batch, steps, d)), "input")
    params = {k: Node(v) for k, v in lstm_arrays(rng, d, hidden).items()}
    ad.lstm(xs, **params)  # first-call allocations are not the layer's
    tracemalloc.start()
    try:
        ad.lstm(xs, **params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bh = batch * hidden * 8
    gates, result = 4 * steps * bh, steps * bh
    # beyond them: two cell buffers ([B, H] each) and the recurrent product,
    # scale and shift ([B, 4H] each), 14 [B, H] in all, plus up to two [B, H]
    # of numpy's ufunc buffers; it reads 16.1. No [T, B, H] history, nor a
    # copy of the result
    assert peak <= gates + result + 17 * bh, (peak - gates - result) / bh


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
    with ad.tape():
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
    unrecorded = ad.lstm(Node(xs), **{k: Node(v) for k, v in arrays.items()})
    assert unrecorded.value.tobytes() == want_out.tobytes()


def _lstm_step_major(xs, wx_v, wh_v, bias, grad):
    """ad.lstm's value and (dx, dwx, dwh, db) for loss = sum(out * grad), by
    the code it ran before the feature-major backward blocks: every
    per-step backward op on [B, .] slices of step-major arrays, and each
    gradient added into a zeroed buffer."""
    batch, steps, d = xs.shape
    hidden = bias.size // 4
    x2 = xs.transpose(1, 0, 2).reshape(steps * batch, d)
    gates = (x2 @ wx_v).reshape(steps, batch, 4 * hidden)
    gates += bias
    hs = np.zeros((steps + 1, batch, hidden))  # hs[0], cs[0]: the zero state
    cs = np.zeros((steps + 1, batch, hidden))
    tanh_cs = np.empty((steps, batch, hidden))
    h1, h2, sig = hidden, 2 * hidden, 3 * hidden
    scale = np.full((batch, 4 * hidden), 0.5)
    scale[:, sig:] = 1.0
    shift = np.full((batch, 4 * hidden), 0.5)
    shift[:, sig:] = -0.0
    ig = np.empty((batch, hidden))

    for t in range(steps):
        z = gates[t]
        if t:  # hs[0] is zero
            z += hs[t] @ wh_v
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        i, f, o, g = z[:, :h1], z[:, h1:h2], z[:, h2:sig], z[:, sig:]
        np.multiply(f, cs[t], out=cs[t + 1])
        np.multiply(i, g, out=ig)
        cs[t + 1] += ig
        np.tanh(cs[t + 1], out=tanh_cs[t])
        np.multiply(o, tanh_cs[t], out=hs[t + 1])

    grad_t = grad.transpose(1, 0, 2)
    dz = np.empty((steps, batch, 4 * hidden))
    dh = np.zeros((batch, hidden))
    dc = np.zeros((batch, hidden))
    deriv = np.empty((batch, hidden))  # 1 - tanh(c)^2, then 1 - g^2
    dc_step = np.empty((batch, hidden))
    one_minus_s = np.empty((batch, sig))
    for t in reversed(range(steps)):
        z, dzt = gates[t], dz[t]
        s, i, f, o, g = z[:, :sig], z[:, :h1], z[:, h1:h2], z[:, h2:sig], z[:, sig:]
        tc = tanh_cs[t]
        dh += grad_t[t]
        np.multiply(tc, tc, out=deriv)
        np.subtract(1.0, deriv, out=deriv)
        np.multiply(dh, o, out=dc_step)
        dc_step *= deriv
        dc += dc_step
        np.multiply(dc, g, out=dzt[:, :h1])
        np.multiply(dc, cs[t], out=dzt[:, h1:h2])
        np.multiply(dh, tc, out=dzt[:, h2:sig])
        dzt[:, :sig] *= s
        np.subtract(1.0, s, out=one_minus_s)
        dzt[:, :sig] *= one_minus_s
        np.multiply(g, g, out=deriv)
        np.subtract(1.0, deriv, out=deriv)
        np.multiply(dc, i, out=dzt[:, sig:])
        dzt[:, sig:] *= deriv
        dc *= f
        if t:  # dh at step 0 would flow into the zero state
            np.matmul(dzt, wh_v.T, out=dh)
    dz2 = dz.reshape(steps * batch, 4 * hidden)
    dx, dwx, dwh, db = (np.zeros_like(a) for a in (xs, wx_v, wh_v, bias))
    dx += (dz2 @ wx_v.T).reshape(steps, batch, d).transpose(1, 0, 2)
    dwx += x2.T @ dz2
    dwh += hs[:-1].reshape(steps * batch, hidden).T @ dz2
    db += dz2.sum(axis=0)
    return hs[1:].transpose(1, 0, 2), dx, dwx, dwh, db


# the recurrent product stays dz[t] @ wh.T on step-major blocks: on OpenBLAS
# 0.3.31 (SkylakeX kernels) the feature-major wh @ dz_f rounds differently at
# 36 of the batch sizes 1..129, among them 5-20 and 25-28
@pytest.mark.parametrize("d, hidden", [(64, 64), (8, 64), (3, 4)], ids=["d64-h64", "d8-h64", "d3-h4"])
@pytest.mark.parametrize("steps", [7, 8, 64], ids=lambda t: f"t{t}")
@pytest.mark.parametrize("batch", [1, 5, 16, 24, 40], ids=lambda b: f"b{b}")
def test_lstm_bytes_equal_step_major_backward(batch, steps, d, hidden):
    rng = np.random.default_rng([batch, steps, d, hidden])
    xs = rng.normal(size=(batch, steps, d))
    arrays = lstm_arrays(rng, d, hidden)
    grad = rng.normal(size=(batch, steps, hidden))
    xn, nodes = Node(xs), {k: Node(v) for k, v in arrays.items()}
    with ad.tape():
        out = ad.lstm(xn, **nodes)
        _backward_with(out, grad)

    want = _lstm_step_major(xs, arrays["wx"], arrays["wh"], arrays["b"], grad)
    got = [out.value, xn.grad, nodes["wx"].grad, nodes["wh"].grad, nodes["b"].grad]
    for name, g, w in zip(["out", "dx", "dwx", "dwh", "db"], got, want):
        assert g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


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
    with ad.tape():
        out = ad.conv1d(xn, wn, bn)
        g = rng.normal(size=out.value.shape)
        _backward_with(out, g)

    want = _conv1d_before(x, w, b, g)
    for name, got, ref in zip(["out", "dx", "dw", "db"],
                              [out.value, xn.grad, wn.grad, bn.grad], want):
        assert got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name
    unrecorded = ad.conv1d(Node(x), Node(w), Node(b))
    assert unrecorded.value.tobytes() == want[0].tobytes()
