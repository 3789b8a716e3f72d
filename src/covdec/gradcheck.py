"""Central finite-difference oracle and the per-op gradient fidelity suite.

numeric_gradient perturbs raw parameter arrays in place and re-runs a scalar
forward closure, so it is independent of the backward code it checks. The
suite covers every layer type at small randomized shapes plus the full branch
and autoencoder compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .autoenc import dae_loss, head_graph, init_dae_params, init_head_params
from .branches import cnn_graph, init_cnn_params, init_rnn_params, rnn_graph
from .config import TrainConfig
from .errors import ConfigError

DEFAULT_EPS = 1e-5


def numeric_gradient(
    f: Callable[[], float], arrays: Sequence[np.ndarray], eps: float = DEFAULT_EPS
) -> list[np.ndarray]:
    """Central-difference gradient of scalar f() w.r.t. each array, in place.

    f must read the given arrays afresh on every call (i.e. rebuild its graph
    from the same underlying buffers).
    """
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f()
            flat[i] = orig - eps
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        grads.append(grad)
    return grads


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-based relative error between two gradient arrays."""
    diff = np.linalg.norm((analytic - numeric).ravel())
    scale = max(np.linalg.norm(analytic.ravel()), np.linalg.norm(numeric.ravel()), 1e-12)
    return float(diff / scale)


@dataclass(frozen=True)
class CheckResult:
    name: str
    rel_err: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.rel_err < self.threshold


def _weighted_sum(node: Node, weights: np.ndarray) -> Node:
    # scalarizer for ops whose output is not already a scalar
    def backward(g):
        node.grad += g * weights

    return Node(float(np.sum(node.value * weights)), "wsum", (node,), backward)


def _check(name, threshold, build_loss, arrays) -> CheckResult:
    """Backward pass vs finite differences over the given parameter arrays."""
    loss = build_loss()
    loss.backward()
    analytic = [g.copy() for g in _grads_of(loss, arrays)]
    numeric = numeric_gradient(lambda: float(build_loss().value), arrays)
    err = max(rel_error(a, n) for a, n in zip(analytic, numeric))
    return CheckResult(name, err, threshold)


def _grads_of(root: Node, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    # match graph leaves to the raw arrays they wrap (identity, not equality)
    wanted = {id(a): None for a in arrays}
    for node in ad._toposort(root):
        if id(node.value) in wanted:
            wanted[id(node.value)] = node.grad
    out = []
    for a in arrays:
        grad = wanted[id(a)]
        if grad is None:
            raise AssertionError("array not found as a graph leaf")
        out.append(grad)
    return out


def run_suite(seed: int = 0) -> list[CheckResult]:
    """Gradient checks for every layer type; deterministic under the seed."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    results = []

    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    r = rng.normal(size=(3, 2))
    results.append(_check(
        "linear", 1e-6,
        lambda: _weighted_sum(ad.linear(Node(a), Node(b)), r), [a, b],
    ))

    x = rng.normal(size=(2, 8))
    w = rng.normal(size=(4, 2, 3)) * 0.5
    bias = rng.normal(size=4) * 0.1
    rc = rng.normal(size=(4, 6))
    results.append(_check(
        "conv1d", 1e-6,
        lambda: _weighted_sum(ad.conv1d(Node(x), Node(w), Node(bias)), rc), [x, w, bias],
    ))

    # keep activation inputs away from the ReLU kink so the oracle stays smooth
    xa = rng.uniform(0.2, 2.0, size=7) * rng.choice([-1.0, 1.0], size=7)
    ra = rng.normal(size=7)
    results.append(_check(
        "relu", 1e-6, lambda: _weighted_sum(ad.relu(Node(xa)), ra), [xa],
    ))

    logits = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    results.append(_check(
        "softmax_xent", 1e-6,
        lambda: ad.softmax_xent(Node(logits), labels), [logits],
    ))

    pred = rng.normal(size=8)
    target = rng.normal(size=8)
    results.append(_check(
        "mse", 1e-6, lambda: ad.mse(Node(pred), target), [pred],
    ))

    results.append(_lstm_check(rng))
    results.append(_cnn_check(rng))
    results.append(_rnn_check(rng))
    results.append(_dae_check(rng))
    results.append(_head_check(rng))
    return results


def _lstm_check(rng) -> CheckResult:
    d, h, steps = 4, 3, 5
    # the fused parameters, four gates' columns side by side
    wx = rng.normal(size=(d, 4 * h)) * 0.5
    wh = rng.normal(size=(h, 4 * h)) * 0.5
    b = rng.normal(size=4 * h) * 0.1
    xs = rng.normal(size=(1, steps, d))
    weights = rng.normal(size=(1, steps, h))

    def build():
        return _weighted_sum(ad.lstm(Node(xs), Node(wx), Node(wh), Node(b)), weights)

    return _check("lstm", 1e-5, build, [wx, wh, b, xs])


def _cnn_check(rng) -> CheckResult:
    config = TrainConfig(cnn_filters1=4, cnn_filters2=5, cnn_fc1=16, cnn_feature=8)
    params = init_cnn_params(config, channels=6, seed=int(rng.integers(2**31)))
    mats = rng.normal(size=(2, 6, 6))
    labels = rng.integers(0, 3, size=2)

    def build():
        _, logits = cnn_graph(Node(mats), params)
        return ad.softmax_xent(logits, labels)

    arrays = [params[n].value for n in params.names()]
    return _check("cnn_forward", 1e-4, build, arrays)


def _rnn_check(rng) -> CheckResult:
    config = TrainConfig(rnn_fc1=8, rnn_fc2=6, rnn_hidden1=5, rnn_hidden2=4)
    params = init_rnn_params(config, channels=5, seed=int(rng.integers(2**31)))
    mats = rng.normal(size=(2, 5, 5))
    labels = rng.integers(0, 3, size=2)

    def build():
        _, logits = rnn_graph(mats, params)
        return ad.softmax_xent(logits, labels)

    arrays = [params[n].value for n in params.names()]
    return _check("rnn_forward", 1e-4, build, arrays)


def _dae_check(rng) -> CheckResult:
    # input width 10 = cnn_feature + rnn_hidden2
    config = TrainConfig(cnn_feature=6, rnn_hidden2=4, dae_hidden=6, dae_latent=4)
    params = init_dae_params(config, seed=int(rng.integers(2**31)))
    feats = rng.normal(size=(3, 10))
    arrays = [params[n].value for n in params.names()]
    return _check("dae_loss", 1e-4, lambda: dae_loss(feats, params), arrays)


def _head_check(rng) -> CheckResult:
    config = TrainConfig(dae_latent=6, head_hidden=4)
    params = init_head_params(config, seed=int(rng.integers(2**31)))
    latents = rng.normal(size=(3, 6))
    labels = rng.integers(0, 3, size=3)

    def build():
        return ad.softmax_xent(head_graph(Node(latents), params), labels)

    arrays = [params[n].value for n in params.names()]
    return _check("head_forward", 1e-4, build, arrays)
