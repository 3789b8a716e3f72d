"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Node pairs a value tensor with a same-shaped gradient buffer, which is
None until a gradient arrives. A gradient arrives only through `_acc`: every
backward closure hands it each contribution, an array the closure has just
made; the first becomes the node's buffer and later ones are added into it.
`Node.grad` reads the buffer and cannot be assigned. Inside `with tape():`
every op result appends itself to the tape, a list in creation order. Ops
read only older Nodes, so backward() on a scalar result walks its tape
newest first, a reverse topological order, skipping every node whose grad is
still None: no gradient reached it. Two identical backward passes over
freshly zeroed gradients give bit-identical results.

backward() empties its tape as it walks and drops each closure it passes, so
the graph is freed during the walk; leaving the `with` block, also by an
exception, empties the tape too. A tape opened inside another records until
it closes. Outside a tape nothing records: an op result keeps no backward
closure, so every intermediate array (conv1d's window matrix, lstm's gate
values) is freed as soon as the next op has read it, and values are
bit-identical to a recorded pass. Nor does an op build what only its
backward would read: relu's mask, softmax_xent's probabilities, lstm's
cell-state and tanh(c) histories. backward() on such a result, or on one
whose tape is empty, raises StateError.

A leaf over data, made as Node(array, "input"), wants no gradient: linear,
conv1d and lstm skip the gradient of such an input, so its grad stays None.
Every training step's graph is built over such leaves; an ordinary leaf
("leaf") gets its gradient as every op result does.

Vector arguments may be 1-D ([n]) or batched 2-D ([B, n]); conv1d accepts
[Cin, L] or [B, Cin, L]; lstm maps a [B, T, d] sequence to [B, T, H] hidden
states, and last_step picks [B, H] out of them. No broadcasting beyond what
the layer types need.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError, StateError

# the open tape, or None; a context variable, so that each thread and task
# records on its own
_tape: ContextVar[list | None] = ContextVar("covdec_autodiff_tape", default=None)


@contextmanager
def tape() -> Iterator[list]:
    """Scope whose op results record themselves for backward(); yields the tape."""
    nodes: list[Node] = []
    token = _tape.set(nodes)
    try:
        yield nodes
    finally:
        _tape.reset(token)
        nodes.clear()


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array (no copy when already one).

    0-d inputs stay 0-d; ascontiguousarray alone would promote them to 1-d.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


class Node:
    """One vertex of the computation graph.

    A leaf has no backward closure; its op is "leaf", or "input" for a leaf
    over data, whose gradient linear, conv1d and lstm skip. An op result
    built inside a tape keeps its closure and that tape; one built outside
    keeps neither.
    """

    __slots__ = ("value", "_grad", "op", "_backward", "_tape")

    def __init__(self, value, op: str = "leaf",
                 backward: Callable[[np.ndarray], None] | None = None):
        self.value = as_tensor(value)
        self._grad = None
        self.op = op
        self._tape = nodes = _tape.get() if backward is not None else None
        self._backward = backward if nodes is not None else None
        if nodes is not None:
            nodes.append(self)

    @property
    def grad(self) -> np.ndarray | None:
        """The gradient buffer, or None until a gradient arrives (`_acc`)."""
        return self._grad

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape})"

    def backward(self) -> None:
        """Seed d(self)/d(self) = 1; run each reached closure on its tape, newest first."""
        nodes = self._tape
        if not nodes:
            raise StateError(
                f"backward() on a {self.op!r} result built outside an open "
                f"autodiff.tape(), which recorded nothing"
            )
        _acc(self, np.ones_like(self.value))
        while nodes:
            node = nodes.pop()
            backward, node._backward = node._backward, None
            if node._grad is not None:
                backward(node._grad)


def _acc(node: Node, g: np.ndarray) -> None:
    # the only way a gradient reaches a node: add a contribution that the
    # calling closure has just made and no one else holds; the first one
    # becomes node's buffer
    if node._grad is None:
        node._grad = g
    else:
        node._grad += g


# ---------------------------------------------------------------------------
# affine and shape primitives
# ---------------------------------------------------------------------------


def linear(x: Node, w: Node, b: Node | None = None) -> Node:
    """Affine map x @ w (+ b). x is [n] or [B, n], w is [n, m], b is [m]."""
    if w.value.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-D, got {w.value.shape}")
    if x.value.ndim not in (1, 2) or x.value.shape[-1] != w.value.shape[0]:
        raise ShapeError(f"linear: input {x.value.shape} vs weight {w.value.shape}")
    if b is not None and b.value.shape != (w.value.shape[1],):
        raise ShapeError(f"linear: bias {b.value.shape} vs weight {w.value.shape}")

    out = x.value @ w.value
    if b is not None:
        out += b.value

    def backward(g):
        if x.op != "input":
            _acc(x, g @ w.value.T)
        # an [n] input is a batch of one
        g2 = g.reshape(-1, g.shape[-1])
        _acc(w, x.value.reshape(-1, x.value.shape[-1]).T @ g2)
        if b is not None:
            _acc(b, g2.sum(axis=0))

    return Node(out, "linear", backward)


def reshape(x: Node, shape: Sequence[int]) -> Node:
    """View x with a new shape of the same total size."""

    def backward(g):
        # a copy: a view would alias this node's gradient buffer
        _acc(x, g.copy().reshape(x.value.shape))

    return Node(x.value.reshape(shape), "reshape", backward)


def last_step(x: Node) -> Node:
    """The last step of a [B, T, H] sequence, as [B, H]."""
    if x.value.ndim != 3:
        raise ShapeError(f"last_step: input must be [B, T, H], got {x.value.shape}")

    def backward(g):
        dx = np.zeros_like(x.value)
        dx[:, -1] = g
        _acc(x, dx)

    return Node(x.value[:, -1], "last_step", backward)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: Node) -> Node:
    """max(x, 0); subgradient at 0 is 0. The backward mask is built only
    while a tape is open."""
    mask = x.value > 0 if _tape.get() is not None else None

    def backward(g):
        _acc(x, g * mask)

    return Node(np.maximum(x.value, 0.0), "relu", backward)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv1d(x: Node, w: Node, b: Node) -> Node:
    """Valid 1-D cross-correlation, stride 1, as im2col matrix products.

    x: [Cin, L] or [B, Cin, L]; w: [Cout, Cin, K]; b: [Cout].
    out[..., o, t] = b[o] + sum_{i,k} w[o, i, k] * x[..., i, t + k]

    Forward builds the window matrix cols[b, i*K + k, t] = x[b, i, t + k]
    ([B, Cin*K, T], T = L - K + 1) once, as K shifted-slice copies of x into
    an empty [B, Cin, K, T] array, and keeps it for backward, so that
    out = w.reshape(Cout, Cin*K) @ cols + b, dW is one product of g with cols
    over all (b, t), and dx is w.reshape(Cout, Cin*K).T @ g folded back onto
    the input windows (col2im), unless x is a data input. A [Cin, L] input
    runs as a batch of one.
    """
    if w.value.ndim != 3:
        raise ShapeError(f"conv1d: weight must be [Cout, Cin, K], got {w.value.shape}")
    if x.value.ndim not in (2, 3):
        raise ShapeError(f"conv1d: input must be 2-D or 3-D, got {x.value.shape}")
    cout, cin, k = w.value.shape
    if x.value.shape[-2] != cin:
        raise ShapeError(
            f"conv1d: input channels {x.value.shape[-2]} vs weight Cin {cin}"
        )
    if b.value.shape != (cout,):
        raise ShapeError(f"conv1d: bias {b.value.shape} vs Cout {cout}")
    length = x.value.shape[-1]
    if k > length:
        raise ConfigError(f"conv1d: kernel {k} longer than input length {length}")

    xb = x.value.reshape(-1, cin, length)
    batch, steps = xb.shape[0], length - k + 1
    cols = np.empty((batch, cin, k, steps))
    for j in range(k):
        cols[:, :, j] = xb[:, :, j:j + steps]
    cols = cols.reshape(batch, cin * k, steps)
    w2 = w.value.reshape(cout, cin * k)
    out = w2 @ cols + b.value[:, None]

    def backward(g):
        g = g.reshape(batch, cout, steps)
        _acc(b, g.sum(axis=(0, 2)))
        g2 = g.transpose(1, 0, 2).reshape(cout, batch * steps)
        cols2 = cols.transpose(0, 2, 1).reshape(batch * steps, cin * k)
        _acc(w, (g2 @ cols2).reshape(cout, cin, k))
        if x.op == "input":
            return
        dcols = (w2.T @ g).reshape(batch, cin, k, steps)
        dx = np.zeros_like(xb)
        for j in range(k):
            dx[:, :, j:j + steps] += dcols[:, :, j]
        _acc(x, dx.reshape(x.value.shape))

    out_shape = x.value.shape[:-2] + (cout, steps)
    return Node(out.reshape(out_shape), "conv1d", backward)


# ---------------------------------------------------------------------------
# recurrent layer
# ---------------------------------------------------------------------------

# column order of the gates in `lstm`'s fused parameters: the three sigmoid
# gates first, so that one slice holds them, then the tanh candidate
LSTM_GATES = ("i", "f", "o", "g")


def lstm(xs: Node, wx: Node, wh: Node, b: Node) -> Node:
    """One LSTM layer over a [B, T, d] sequence from a zero state; returns the
    hidden states h_1..h_T as [B, T, H].

    Per step, gates i, f, o = sigmoid(x_t@wx_* + h@wh_* + b_*) and candidate
    g = tanh(same); c_t = f*c_{t-1} + i*g; h_t = o*tanh(c_t). The layer's
    parameters are fused: wx [d, 4H], wh [H, 4H] and b [4H] hold the four
    gates' columns side by side in LSTM_GATES order (i, f, o, g). Sigmoid is
    computed via tanh so large |x| cannot overflow.

    The input projection of all T steps is one matrix product of a step-major
    [T*B, d] copy of xs, which is not kept, and each step overwrites its
    contiguous [B, 4H] block of that projection with its gate values. At batch
    1 a step's cost is its calls, not its arithmetic, so a step makes only the
    calls of its arithmetic: every per-step view (the block and its i, f, o and
    g columns, the step's [B, H] slice of the [B, T, H] result, its cell and
    tanh(c) buffers) comes from iterating over those arrays side by side, with
    no indexing inside the loop. Step t writes h_t straight into its slice of
    the result, and step t + 1's recurrent product np.matmul(h_t, wh, out=rec)
    reads it from there into one [B, 4H] buffer made per call, before adding it
    to its block: the same matmul as h_t @ wh, so the same bytes, without a new
    array per step (np.dot would copy the strided h_t first, at B > 1). Step 0
    starts from the zero state, so it skips the recurrent product, and backward
    skips the gradient that would flow into that state. A step activates the
    whole block with full-block `scale` and `shift` arrays made once per call:
    z *= scale (0.5 on the sigmoid gates, 1.0 on g), tanh in place, z *= scale,
    z += shift (0.5 on the sigmoid gates, -0.0 on g). Halving is exact, so a
    sigmoid gate is 0.5 * (1 + tanh(z / 2)) bit for bit; -0.0 is the additive
    identity, so g is tanh(z) bit for bit, a -0.0 candidate included. i*g is
    written over the first [B, H] of `rec`, which the block has read by then.
    Only while a tape records does a call keep the [T+1, B, H] cell states and
    the [T, B, H] tanh(c_t) that backward reads; outside a tape step t reads
    c_{t-1} from one of two [B, H] buffers, writes c_t into the other and then
    tanh(c_t) over c_{t-1}, which no later step reads.

    Backward runs BPTT over the stored gate values, with every per-step
    temporary in a buffer made once per call. A step copies its gates,
    c_{t-1}, tanh(c_t) and dh transposed into feature-major [4H, B] and
    [H, B] blocks, where each gate is contiguous rows, writes dc*g, dc*c_{t-1}
    and dh*tanh(c_t) into the i, f and o rows of its dz block, then scales
    those [3H, B] by s and by (1 - s), so each sigmoid-gate derivative is
    ((a*b)*s)*(1 - s). dz[t] and dh = dz[t] @ wh.T stay step-major, so every
    matrix product rounds as before (wh @ dz_f would not, at some batch
    sizes). The gradients of wx, wh and b are one product (or sum) each, over
    step-major copies of xs and of h_0..h_{T-1} made for them; xs's gradient
    is skipped for a data input.
    """
    if xs.value.ndim != 3:
        raise ShapeError(f"lstm: input must be [B, T, d], got {xs.value.shape}")
    batch, steps, d = xs.value.shape
    if b.value.ndim != 1 or b.value.size % 4:
        raise ShapeError(f"lstm: b must be [4H], got {b.value.shape}")
    hidden = b.value.size // 4
    for name, node, shape in (("wx", wx, (d, 4 * hidden)), ("wh", wh, (hidden, 4 * hidden))):
        if node.value.shape != shape:
            raise ShapeError(
                f"lstm: {name} {node.value.shape} vs expected {shape} "
                f"for input {xs.value.shape} and hidden width {hidden}"
            )
    wx_v, wh_v = wx.value, wh.value

    def xs_step_major():
        # xs as [T*B, d], so that step t is one contiguous block of rows
        return xs.value.transpose(1, 0, 2).reshape(steps * batch, d)

    # the input projections of all steps; step t's gate values overwrite its
    # projection in place, so that one [T, B, 4H] buffer serves both
    gates = (xs_step_major() @ wx_v).reshape(steps, batch, 4 * hidden)
    gates += b.value
    hs = np.empty((batch, steps, hidden))  # h_1..h_T, the result
    h1, h2, sig = hidden, 2 * hidden, 3 * hidden
    # step t reads c_{t-1} and writes c_t and tanh(c_t): from and into the
    # histories backward reads while a tape records, else from and into two
    # cell buffers in turn, tanh(c_t) over c_{t-1}; cs[0] is the zero state
    if _tape.get() is not None:
        cs = np.zeros((steps + 1, batch, hidden))
        tanh_cs = np.empty((steps, batch, hidden))
        cells = zip(cs[:-1], cs[1:], tanh_cs)
    else:
        cs = np.zeros((2, batch, hidden))
        cells = itertools.cycle(((cs[0], cs[1], cs[0]), (cs[1], cs[0], cs[1])))
    # sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5 on i, f, o; tanh(z) + -0.0 on g
    scale = np.full((batch, 4 * hidden), 0.5)
    scale[:, sig:] = 1.0
    shift = np.full((batch, 4 * hidden), 0.5)
    shift[:, sig:] = -0.0
    rec = np.empty((batch, 4 * hidden))  # the recurrent product h_{t-1} @ wh
    ig = rec.reshape(4, batch, hidden)[0]  # i*g, over rec once z has read it

    h_prev = None  # h_0 is zero
    for z, i, f, o, g, h, (c_prev, c, tc) in zip(
        gates, gates[..., :h1], gates[..., h1:h2], gates[..., h2:sig], gates[..., sig:],
        hs.transpose(1, 0, 2), cells,
    ):
        if h_prev is not None:
            np.matmul(h_prev, wh_v, out=rec)
            z += rec
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
        h_prev = h

    def backward(grad):
        grad_t = grad.transpose(1, 0, 2)
        dz = np.empty((steps, batch, 4 * hidden))
        zf, dzf = np.empty((4 * hidden, batch)), np.empty((4 * hidden, batch))
        c_prev, tc, dh, deriv, dc_step = (np.empty((hidden, batch)) for _ in range(5))
        dc = np.zeros((hidden, batch))
        one_minus_s = np.empty((sig, batch))
        dh_steps = np.zeros((batch, hidden))  # dh, step-major
        s, i, f, o, g = zf[:sig], zf[:h1], zf[h1:h2], zf[h2:sig], zf[sig:]
        for t in reversed(range(steps)):
            zf[...] = gates[t].T
            c_prev[...] = cs[t].T
            tc[...] = tanh_cs[t].T
            dh_steps += grad_t[t]
            dh[...] = dh_steps.T
            np.multiply(tc, tc, out=deriv)
            np.subtract(1.0, deriv, out=deriv)
            np.multiply(dh, o, out=dc_step)
            dc_step *= deriv
            dc += dc_step
            np.multiply(dc, g, out=dzf[:h1])
            np.multiply(dc, c_prev, out=dzf[h1:h2])
            np.multiply(dh, tc, out=dzf[h2:sig])
            dzf[:sig] *= s
            np.subtract(1.0, s, out=one_minus_s)
            dzf[:sig] *= one_minus_s
            np.multiply(g, g, out=deriv)
            np.subtract(1.0, deriv, out=deriv)
            np.multiply(dc, i, out=dzf[sig:])
            dzf[sig:] *= deriv
            dc *= f
            dz[t] = dzf.T
            if t:  # dh at step 0 would flow into the zero state
                np.matmul(dz[t], wh_v.T, out=dh_steps)
        dz2 = dz.reshape(steps * batch, 4 * hidden)
        if xs.op != "input":
            _acc(xs, (dz2 @ wx_v.T).reshape(steps, batch, d).transpose(1, 0, 2))
        _acc(wx, xs_step_major().T @ dz2)
        h_prev = np.zeros((steps, batch, hidden))  # h_0..h_{T-1}, step-major
        h_prev[1:] = hs[:, :-1].transpose(1, 0, 2)
        _acc(wh, h_prev.reshape(steps * batch, hidden).T @ dz2)
        _acc(b, dz2.sum(axis=0))

    return Node(hs, "lstm", backward)


# ---------------------------------------------------------------------------
# losses and inference softmax
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array (inference path, no graph)."""
    z = np.asarray(logits, dtype=np.float64)
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: Node, labels) -> Node:
    """Mean cross-entropy of softmax(logits) against integer labels.

    logits: [B, K]; labels: int array [B]. Backward is (softmax - onehot)/B.
    """
    if logits.value.ndim != 2:
        raise ShapeError(f"softmax_xent: logits must be [B, K], got {logits.value.shape}")
    batch, k = logits.value.shape
    lab = np.asarray(labels, dtype=np.int64).reshape(-1)
    if lab.shape[0] != batch:
        raise ShapeError(f"softmax_xent: {batch} rows vs {lab.shape[0]} labels")
    for i, v in enumerate(lab):
        if not 0 <= v < k:
            raise DataError(f"label {int(v)} out of range [0, {k}) at index {i}")

    z = logits.value
    zmax = z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)) + zmax
    logp = z - logsum
    rows = np.arange(batch)
    loss = -logp[rows, lab].mean()
    probs = np.exp(logp) if _tape.get() is not None else None

    def backward(g):
        d = probs.copy()
        d[rows, lab] -= 1.0
        _acc(logits, g * d / batch)

    return Node(loss, "softmax_xent", backward)


def mse(pred: Node, target) -> Node:
    """Mean squared error of pred against a constant same-shaped target."""
    t = as_tensor(target)
    if t.shape != pred.value.shape:
        raise ShapeError(f"mse: pred {pred.value.shape} vs target {t.shape}")
    diff = pred.value - t
    n = diff.size

    def backward(g):
        _acc(pred, g * (2.0 / n) * diff)

    return Node(np.mean(diff * diff), "mse", backward)
