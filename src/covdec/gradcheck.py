"""Central finite-difference oracle and the per-op gradient fidelity suite.

numeric_gradient perturbs raw parameter arrays in place and re-runs a scalar
forward closure outside any tape, so it is independent of the backward code
it checks. The suite covers every layer type at small randomized shapes, an
intermediate read by two ops, and the full branch and autoencoder compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .autoenc import dae_loss, head_graph, init_dae_params, init_head_params
from .branches import branch_logits, cnn_graph, init_cnn_params, init_rnn_params, rnn_graph
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
        ad._acc(node, g * weights)

    return Node(float(np.sum(node.value * weights)), "wsum", backward)


def _check(name, threshold, build_loss, leaves: Sequence[Node]) -> CheckResult:
    """A taped backward pass vs finite differences over the leaves' arrays."""
    with ad.tape():
        build_loss().backward()
    if any(leaf._grad is None for leaf in leaves):
        raise AssertionError(f"{name}: a leaf the loss does not read")
    analytic = [leaf.grad for leaf in leaves]
    numeric = numeric_gradient(lambda: float(build_loss().value),
                               [leaf.value for leaf in leaves])
    err = max(rel_error(a, n) for a, n in zip(analytic, numeric))
    return CheckResult(name, err, threshold)


def run_suite(seed: int = 0) -> list[CheckResult]:
    """Gradient checks for every layer type; deterministic under the seed."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    results = []

    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    r = rng.normal(size=(3, 2))
    an, bn = Node(a), Node(b)  # leaves over the arrays the oracle perturbs
    results.append(_check(
        "linear", 1e-6, lambda: _weighted_sum(ad.linear(an, bn), r), [an, bn],
    ))

    x = rng.normal(size=(2, 8))
    w = rng.normal(size=(4, 2, 3)) * 0.5
    bias = rng.normal(size=4) * 0.1
    rc = rng.normal(size=(4, 6))
    conv = [Node(x), Node(w), Node(bias)]
    results.append(_check(
        "conv1d", 1e-6, lambda: _weighted_sum(ad.conv1d(*conv), rc), conv,
    ))

    # keep activation inputs away from the ReLU kink so the oracle stays smooth
    xa = rng.uniform(0.2, 2.0, size=7) * rng.choice([-1.0, 1.0], size=7)
    ra = rng.normal(size=7)
    xan = Node(xa)
    results.append(_check(
        "relu", 1e-6, lambda: _weighted_sum(ad.relu(xan), ra), [xan],
    ))

    logits = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    logits_n = Node(logits)
    results.append(_check(
        "softmax_xent", 1e-6, lambda: ad.softmax_xent(logits_n, labels), [logits_n],
    ))

    pred = rng.normal(size=8)
    target = rng.normal(size=8)
    pred_n = Node(pred)
    results.append(_check(
        "mse", 1e-6, lambda: ad.mse(pred_n, target), [pred_n],
    ))

    results.append(_lstm_check(rng))
    results.append(_cnn_check(rng))
    results.append(_rnn_check(rng))
    results.append(_dae_check(rng))
    results.append(_head_check(rng))
    results.append(_shared_check(rng))
    return results


def _lstm_check(rng) -> CheckResult:
    d, h, steps = 4, 3, 5
    # the fused parameters, four gates' columns side by side
    wx = rng.normal(size=(d, 4 * h)) * 0.5
    wh = rng.normal(size=(h, 4 * h)) * 0.5
    b = rng.normal(size=4 * h) * 0.1
    xs = rng.normal(size=(1, steps, d))
    weights = rng.normal(size=(1, steps, h))
    xn, *params = (Node(v) for v in (xs, wx, wh, b))

    def build():
        return _weighted_sum(ad.lstm(xn, *params), weights)

    return _check("lstm", 1e-5, build, [*params, xn])


def _cnn_check(rng) -> CheckResult:
    config = TrainConfig(cnn_filters1=4, cnn_filters2=5, cnn_fc1=16, cnn_feature=8)
    params = init_cnn_params(config, channels=6, seed=int(rng.integers(2**31)))
    mats = rng.normal(size=(2, 6, 6))
    labels = rng.integers(0, 3, size=2)

    def build():
        return ad.softmax_xent(branch_logits(cnn_graph(mats, params), params), labels)

    return _check("cnn_graph", 1e-4, build, [node for _, node in params.items()])


def _rnn_check(rng) -> CheckResult:
    config = TrainConfig(rnn_fc1=8, rnn_fc2=6, rnn_hidden1=5, rnn_hidden2=4)
    params = init_rnn_params(config, channels=5, seed=int(rng.integers(2**31)))
    mats = rng.normal(size=(2, 5, 5))
    labels = rng.integers(0, 3, size=2)

    def build():
        return ad.softmax_xent(branch_logits(rnn_graph(mats, params), params), labels)

    return _check("rnn_graph", 1e-4, build, [node for _, node in params.items()])


def _dae_check(rng) -> CheckResult:
    # input width 10 = cnn_feature + rnn_hidden2
    config = TrainConfig(cnn_feature=6, rnn_hidden2=4, dae_hidden=6, dae_latent=4)
    params = init_dae_params(config, seed=int(rng.integers(2**31)))
    feats = rng.normal(size=(3, 10))
    return _check("dae_loss", 1e-4, lambda: dae_loss(feats, params),
                  [node for _, node in params.items()])


def _head_check(rng) -> CheckResult:
    config = TrainConfig(dae_latent=6, head_hidden=4)
    params = init_head_params(config, seed=int(rng.integers(2**31)))
    latents = rng.normal(size=(3, 6))
    labels = rng.integers(0, 3, size=3)

    def build():
        return ad.softmax_xent(head_graph(latents, params), labels)

    return _check("head_graph", 1e-4, build, [node for _, node in params.items()])


def _shared_check(rng) -> CheckResult:
    # h = a @ b feeds two ops, so its gradient gets a second contribution
    a, b, c, weights = (rng.normal(size=s) for s in ((3, 4), (4, 3), (3, 3), (3, 3)))
    leaves = [Node(a), Node(b), Node(c)]

    def build():
        h = ad.linear(*leaves[:2])
        return _weighted_sum(ad.linear(h, ad.linear(h, leaves[2])), weights)

    return _check("linear_shared", 1e-6, build, leaves)
