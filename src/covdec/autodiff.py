"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Node pairs a value tensor with a same-shaped gradient buffer, which is
allocated as zeros on first use: a graph that is only evaluated forward
allocates no gradient buffers. Operations build a graph of Nodes; calling
backward() on a scalar result walks the graph exactly once in reverse
topological order, accumulating (+=) into each .grad. Everything is float64
and deterministic: two identical backward passes over freshly zeroed
gradients produce bit-identical results.

Inside `with no_grad():` operations record no graph: the Node an op returns
keeps neither its parents nor its backward closure, so every intermediate
array (and whatever a closure held for backward, such as conv1d's window
matrix or lstm's gate history) is freed as soon as the next op has read it.
Values are bit-identical to a recorded pass. backward() on such a result
raises StateError. The scope nests, and leaving it, also by an exception,
restores the state it was entered in.

Vector arguments may be 1-D ([n]) or batched 2-D ([B, n]); conv1d accepts
[Cin, L] or [B, Cin, L]; lstm maps a [B, T, d] sequence to [B, T, H] hidden
states, and last_step picks [B, H] out of them. No broadcasting beyond what
the layer types need.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError, StateError

# False inside no_grad(); a context variable, so that each thread and task
# has its own scope
_recording: ContextVar[bool] = ContextVar("covdec_autodiff_recording", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Scope in which operations build no backward graph (see module docstring)."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


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

    `parents` is None for an op result built inside no_grad(): it recorded no
    graph to differentiate through.
    """

    __slots__ = ("value", "_grad", "op", "parents", "_backward")

    def __init__(
        self,
        value,
        op: str = "leaf",
        parents: tuple = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ):
        self.value = as_tensor(value)
        self._grad = None
        self.op = op
        if parents and not _recording.get():
            parents, backward = None, None
        self.parents = parents
        self._backward = backward

    @property
    def grad(self) -> np.ndarray:
        """Gradient buffer, allocated as zeros shaped like value on first access."""
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, grad: np.ndarray) -> None:
        self._grad = grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape})"

    def backward(self) -> None:
        """Seed d(self)/d(self) = 1 and propagate to every ancestor once."""
        if self.parents is None:
            raise StateError(
                f"backward() on a {self.op!r} result built under no_grad(), "
                f"which recorded no graph"
            )
        order = _toposort(self)
        self.grad = self.grad + np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def _toposort(root: Node) -> list[Node]:
    # iterative DFS, so graph depth is not bounded by the recursion limit
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        # a no_grad() result reached from a recorded graph is a constant
        for parent in node.parents or ():
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


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
    batched = x.value.ndim == 2

    def backward(g):
        x.grad += g @ w.value.T
        if batched:
            w.grad += x.value.T @ g
        else:
            w.grad += np.outer(x.value, g)
        if b is not None:
            b.grad += g.sum(axis=0) if batched else g

    parents = (x, w) if b is None else (x, w, b)
    return Node(out, "linear", parents, backward)


def reshape(x: Node, shape: Sequence[int]) -> Node:
    """View x with a new shape of the same total size."""

    def backward(g):
        x.grad += g.reshape(x.value.shape)

    return Node(x.value.reshape(shape), "reshape", (x,), backward)


def last_step(x: Node) -> Node:
    """The last step of a [B, T, H] sequence, as [B, H]."""
    if x.value.ndim != 3:
        raise ShapeError(f"last_step: input must be [B, T, H], got {x.value.shape}")

    def backward(g):
        x.grad[:, -1] += g

    return Node(x.value[:, -1], "last_step", (x,), backward)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: Node) -> Node:
    """max(x, 0); subgradient at 0 is 0. The backward mask is built only
    while recording."""
    mask = x.value > 0 if _recording.get() else None

    def backward(g):
        x.grad += g * mask

    return Node(np.maximum(x.value, 0.0), "relu", (x,), backward)


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
    the input windows (col2im). A [Cin, L] input runs as a batch of one.
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
        b.grad += g.sum(axis=(0, 2))
        g2 = g.transpose(1, 0, 2).reshape(cout, batch * steps)
        cols2 = cols.transpose(0, 2, 1).reshape(batch * steps, cin * k)
        w.grad += (g2 @ cols2).reshape(cout, cin, k)
        dcols = (w2.T @ g).reshape(batch, cin, k, steps)
        dx = np.zeros_like(xb)
        for j in range(k):
            dx[:, :, j:j + steps] += dcols[:, :, j]
        x.grad += dx.reshape(x.value.shape)

    out_shape = x.value.shape[:-2] + (cout, steps)
    return Node(out.reshape(out_shape), "conv1d", (x, w, b), backward)


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

    The input projection of all T steps is one matrix product, and each step
    overwrites its contiguous [B, 4H] block of that projection with its gate
    values. A step activates the whole block with full-block `scale` and
    `shift` arrays made once per call: z *= scale (0.5 on the sigmoid gates,
    1.0 on g), tanh in place, z *= scale, z += shift (0.5 on the sigmoid
    gates, -0.0 on g). Halving is exact, so a sigmoid gate is
    0.5 * (1 + tanh(z / 2)) bit for bit; -0.0 is the additive identity, so g
    is tanh(z) bit for bit, a -0.0 candidate included. Step 0 starts from the
    zero state, so it skips the recurrent product, and backward skips the
    gradient that would flow into that state.

    Backward runs BPTT over the stored gate values, with every per-step
    temporary in a buffer made once per call. A step writes dc*g, dc*c_{t-1}
    and dh*tanh(c_t) into the i, f and o parts of its dz block, then scales
    those [B, 3H] by s and by (1 - s) in one pass each, so each sigmoid-gate
    derivative is ((a*b)*s)*(1 - s). The gradients of wx, wh and b are one
    matrix product (or sum) each over all steps, added straight into theirs.
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

    # step-major [T, B, .] arrays, so that step t is one contiguous block
    x2 = xs.value.transpose(1, 0, 2).reshape(steps * batch, d)
    # the input projections of all steps; step t's gate values overwrite its
    # projection in place, so that one [T, B, 4H] buffer serves both
    gates = (x2 @ wx_v).reshape(steps, batch, 4 * hidden)
    gates += b.value
    hs = np.zeros((steps + 1, batch, hidden))  # hs[0], cs[0]: the zero state
    cs = np.zeros((steps + 1, batch, hidden))
    tanh_cs = np.empty((steps, batch, hidden))
    h1, h2, sig = hidden, 2 * hidden, 3 * hidden
    # sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5 on i, f, o; tanh(z) + -0.0 on g
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

    def backward(grad):
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
        xs.grad += (dz2 @ wx_v.T).reshape(steps, batch, d).transpose(1, 0, 2)
        wx.grad += x2.T @ dz2
        wh.grad += hs[:-1].reshape(steps * batch, hidden).T @ dz2
        b.grad += dz2.sum(axis=0)

    return Node(hs[1:].transpose(1, 0, 2), "lstm", (xs, wx, wh, b), backward)


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
    probs = np.exp(logp)

    def backward(g):
        d = probs.copy()
        d[rows, lab] -= 1.0
        logits.grad += g * d / batch

    return Node(loss, "softmax_xent", (logits,), backward)


def mse(pred: Node, target) -> Node:
    """Mean squared error of pred against a constant same-shaped target."""
    t = as_tensor(target)
    if t.shape != pred.value.shape:
        raise ShapeError(f"mse: pred {pred.value.shape} vs target {t.shape}")
    diff = pred.value - t
    n = diff.size

    def backward(g):
        pred.grad += g * (2.0 / n) * diff

    return Node(np.mean(diff * diff), "mse", (pred,), backward)
