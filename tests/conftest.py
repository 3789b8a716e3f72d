import numpy as np
import pytest

from covdec.autoenc import init_dae_params, init_head_params
from covdec.branches import init_cnn_params, init_rnn_params
from covdec.config import TrainConfig
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
