"""The finite-difference oracle itself plus the per-op fidelity suite."""

import time

import numpy as np
import pytest

from covdec.gradcheck import numeric_gradient, rel_error, run_suite

from conftest import pin_note

# spec'd per-op bounds: primitives 1e-6, 5-step BPTT 1e-5, full networks 1e-4
EXPECTED_OPS = {
    "linear": 1e-6,
    "conv1d": 1e-6,
    "relu": 1e-6,
    "softmax_xent": 1e-6,
    "mse": 1e-6,
    "lstm": 1e-5,
    "cnn_graph": 1e-4,
    "rnn_graph": 1e-4,
    "dae_loss": 1e-4,
    "head_graph": 1e-4,
    # an intermediate read by two ops: its gradient gets a second contribution
    "linear_shared": 1e-6,
}


def test_oracle_recovers_known_gradient():
    # f(x) = sum(x^2) has gradient 2x; checks the oracle, not the autodiff
    x = np.array([1.0, -2.0, 3.0])
    (grad,) = numeric_gradient(lambda: float(np.sum(x * x)), [x])
    assert np.allclose(grad, 2.0 * np.array([1.0, -2.0, 3.0]), atol=1e-8)
    assert np.array_equal(x, [1.0, -2.0, 3.0])  # restored in place


def test_suite_covers_every_op_at_its_bound():
    results = {r.name: r for r in run_suite(seed=0)}
    assert set(results) == set(EXPECTED_OPS)
    for name, bound in EXPECTED_OPS.items():
        r = results[name]
        assert r.threshold == bound
        assert r.rel_err < bound, f"{name}: {r.rel_err:.3e} >= {bound:g}"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_suite_passes_across_seeds(seed):
    for r in run_suite(seed=seed):
        assert r.rel_err < r.threshold, f"{r.name} @ seed {seed}: {r.rel_err:.3e}"


def test_suite_deterministic_under_seed():
    first = [(r.name, r.rel_err) for r in run_suite(seed=9)]
    second = [(r.name, r.rel_err) for r in run_suite(seed=9)]
    assert first == second


def test_suite_errors_at_seed_0_are_pinned():
    # each error compares a taped backward pass with forward passes run
    # outside a tape, so a change to the bits of either moves it
    pins = {
        "linear": "0x1.0f3198a0c3bc7p-36", "conv1d": "0x1.6548c14420031p-36",
        "relu": "0x1.24cc437bdb7b0p-38", "softmax_xent": "0x1.87befe650adf9p-35",
        "mse": "0x1.b446c6b1ffff3p-36", "lstm": "0x1.aca95e60d1425p-34",
        "cnn_graph": "0x1.0993664acaa14p-29", "rnn_graph": "0x1.1a40cc4e6a50ep-23",
        "dae_loss": "0x1.e3c8ef430eae0p-31", "head_graph": "0x1.499c40edf73bep-28",
        "linear_shared": "0x1.5189589df884bp-36",
    }
    assert {r.name: r.rel_err.hex() for r in run_suite(seed=0)} == pins, pin_note()


def test_suite_runtime_budget():
    start = time.perf_counter()
    run_suite(seed=0)
    assert time.perf_counter() - start < 60.0


def test_rel_error_scales():
    a = np.array([1.0, 2.0])
    assert rel_error(a, a) == 0.0
    assert rel_error(a, a * 1.001) == pytest.approx(1e-3, rel=1e-2)
