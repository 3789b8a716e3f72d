import weakref

import numpy as np
import pytest

from covdec.autodiff import LSTM_GATES
from covdec.autoenc import init_dae_params, init_head_params
from covdec.branches import init_cnn_params, init_rnn_params
from covdec.config import TrainConfig
from covdec.covariance import Trial
from covdec.params import ParamStore

# feature width 8 + 4 = 12 feeds the small DAE
SMALL_CONFIG = TrainConfig(
    cnn_filters1=4, cnn_filters2=5, cnn_fc1=16, cnn_feature=8,
    rnn_fc1=8, rnn_fc2=6, rnn_hidden1=5, rnn_hidden2=4,
    dae_hidden=6, dae_latent=4, head_hidden=3,
)


def zeroed(store: ParamStore) -> ParamStore:
    """Same architecture, every weight zero."""
    for _, node in store.items():
        node.value[...] = 0.0
    return store


@pytest.fixture
def small_cnn() -> ParamStore:
    return init_cnn_params(SMALL_CONFIG, channels=6, seed=42)


@pytest.fixture
def small_rnn() -> ParamStore:
    return init_rnn_params(SMALL_CONFIG, channels=6, seed=43)


@pytest.fixture
def small_dae() -> ParamStore:
    return init_dae_params(SMALL_CONFIG, seed=44)


@pytest.fixture
def small_head() -> ParamStore:
    return init_head_params(SMALL_CONFIG, seed=45)


def store_bytes(store: ParamStore) -> dict[str, bytes]:
    return {name: node.value.tobytes() for name, node in store.items()}


def rng_trial_data(rng: np.random.Generator, channels: int, samples: int) -> np.ndarray:
    return rng.normal(size=(channels, samples))


def lstm_arrays(rng: np.random.Generator, d: int, hidden: int) -> dict[str, np.ndarray]:
    """Random fused LSTM parameters "wx" [d, 4H], "wh" [H, 4H] and "b" [4H],
    as `autodiff.lstm` takes them. Each gate's blocks are drawn apart, gate
    by gate in the order i, f, g, o, then laid side by side in LSTM_GATES
    order."""
    blocks = {}
    for gate in ("i", "f", "g", "o"):
        blocks[gate] = (rng.normal(size=(d, hidden)) * 0.5,
                        rng.normal(size=(hidden, hidden)) * 0.5,
                        rng.normal(size=hidden) * 0.1)
    return {kind: np.concatenate([blocks[gate][k] for gate in LSTM_GATES], axis=-1)
            for k, kind in enumerate(("wx", "wh", "b"))}


def gate_block(fused: np.ndarray, gate: str) -> np.ndarray:
    """The columns of one gate in a fused LSTM array, as a view."""
    h = fused.shape[-1] // 4
    k = LSTM_GATES.index(gate)
    return fused[..., k * h:(k + 1) * h]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_loop(xs, arrays) -> np.ndarray:
    """h_1..h_T of one LSTM layer over [B, T, d] from a zero state, by a plain
    loop of the cell formula with every gate apart:

        i, f, o = sigmoid(x_t @ wx_* + h @ wh_* + b_*), g = tanh(same),
        c = f*c + i*g, h = o*tanh(c),

    each gate's wx_*, wh_* and b_* being its block of the fused arrays'
    columns. Every step is analytic, so it also runs on complex arrays.
    """
    batch, steps, _ = xs.shape
    hidden = arrays["b"].shape[0] // 4
    dtype = np.result_type(xs, *arrays.values())
    wx, wh, b = ({gate: gate_block(arrays[kind], gate) for gate in LSTM_GATES}
                 for kind in ("wx", "wh", "b"))
    h = np.zeros((batch, hidden), dtype)
    c = np.zeros((batch, hidden), dtype)
    out = []
    for t in range(steps):
        pre = {gate: xs[:, t] @ wx[gate] + h @ wh[gate] + b[gate] for gate in LSTM_GATES}
        c = _sigmoid(pre["f"]) * c + _sigmoid(pre["i"]) * np.tanh(pre["g"])
        h = _sigmoid(pre["o"]) * np.tanh(c)
        out.append(h)
    return np.stack(out, axis=1)


def complex_step_grads(f, arrays: list[np.ndarray], step: float = 1e-30) -> list[np.ndarray]:
    """Gradient of a real-analytic scalar f(*arrays) with respect to every entry,
    as Im f(a + i*step*e_k) / step: exact to rounding, since no two nearby
    values are subtracted, and independent of any backward code."""
    grads = []
    for k, a in enumerate(arrays):
        grad = np.zeros(a.shape)
        for idx in np.ndindex(a.shape):
            probe = list(arrays)
            probe[k] = a.astype(complex)
            probe[k][idx] += 1j * step
            grad[idx] = np.imag(f(*probe)) / step
        grads.append(grad)
    return grads


class TrialCounter:
    """Counts the trials it registers that are alive at the same time.

    `register` records a new trial, weakly, and returns it; `peak` is the most
    registered trials ever alive at once, `made` how many were registered.
    """

    def __init__(self):
        self._alive = weakref.WeakValueDictionary()  # Trial is unhashable
        self.peak = 0
        self.made = 0

    def register(self, trial: Trial) -> Trial:
        self._alive[self.made] = trial
        self.made += 1
        self.peak = max(self.peak, len(self._alive))
        return trial

    def stream(self, trials: list[Trial]):
        """Fresh copies of `trials`, made one at a time as they are asked for."""
        for t in trials:
            # no local name: a suspended generator would keep the copy alive
            yield self.register(Trial(t.data.copy(), t.label, t.subject_id, t.trial_id))
