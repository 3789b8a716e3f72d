"""Deep autoencoder over concatenated branch features, plus the softmax head.

The DAE has two ReLU encoder layers, a linear-output two-layer decoder that
mirrors them, and trains unsupervised on reconstruction MSE; encoding
(`dae_encode`) runs the encoder layers only. Its input is
`TrainConfig.feature_width` wide (CNN plus RNN feature), its layers
`dae_hidden` and `dae_latent`. The head is a two-layer FC network over latent
codes, `head_hidden` wide; softmax is applied only inside the loss or at
predict time.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .branches import _he, _out_layer, _xavier
from .config import TrainConfig
from .params import ParamStore, require

DAE_PARAM_NAMES = (
    "enc1.w", "enc1.b", "enc2.w", "enc2.b",
    "dec1.w", "dec1.b", "dec2.w", "dec2.b",
)
HEAD_PARAM_NAMES = ("fc1.w", "fc1.b", "out.w", "out.b")


def init_dae_params(config: TrainConfig, seed: int) -> ParamStore:
    n, hidden, latent = config.feature_width, config.dae_hidden, config.dae_latent
    rng = np.random.default_rng(seed)
    store = ParamStore()
    store.add("enc1.w", _he(rng, n, (n, hidden)))
    store.add("enc1.b", np.zeros(hidden))
    store.add("enc2.w", _he(rng, hidden, (hidden, latent)))
    store.add("enc2.b", np.zeros(latent))
    store.add("dec1.w", _he(rng, latent, (latent, hidden)))
    store.add("dec1.b", np.zeros(hidden))
    store.add("dec2.w", _xavier(rng, hidden, n, (hidden, n)))
    store.add("dec2.b", np.zeros(n))
    return store


def init_head_params(config: TrainConfig, seed: int) -> ParamStore:
    latent, hidden, classes = config.dae_latent, config.head_hidden, config.classes
    rng = np.random.default_rng(seed)
    store = ParamStore()
    store.add("fc1.w", _he(rng, latent, (latent, hidden)))
    store.add("fc1.b", np.zeros(hidden))
    store.add("out.w", _out_layer(rng, (hidden, classes)))
    store.add("out.b", np.zeros(classes))
    return store


def dae_graph(features: Node, params: ParamStore,
              decode: bool = True) -> tuple[Node, Node | None]:
    """(latent, reconstruction) nodes for [n] or [B, n] feature input. With
    `decode` false only the encoder runs and the reconstruction is None."""
    require(params, DAE_PARAM_NAMES, "dae")
    h = ad.relu(ad.linear(features, params["enc1.w"], params["enc1.b"]))
    latent = ad.relu(ad.linear(h, params["enc2.w"], params["enc2.b"]))
    if not decode:
        return latent, None
    h = ad.relu(ad.linear(latent, params["dec1.w"], params["dec1.b"]))
    recon = ad.linear(h, params["dec2.w"], params["dec2.b"])
    return latent, recon


def dae_encode(features: np.ndarray, params: ParamStore) -> np.ndarray:
    """Deterministic latent code(s) for [n] or [B, n] features: the encoder
    alone, recording no backward graph."""
    with ad.no_grad():
        latent, _ = dae_graph(Node(features), params, decode=False)
    return latent.value


def dae_loss(features: np.ndarray, params: ParamStore) -> Node:
    """Reconstruction MSE node; gradient reaches all four layers. No labels."""
    x = Node(features)
    _, recon = dae_graph(x, params)
    return ad.mse(recon, x.value)


def head_graph(latents: Node, params: ParamStore) -> Node:
    """Logit node(s) for [n] or [B, n] latent input."""
    require(params, HEAD_PARAM_NAMES, "head")
    h = ad.relu(ad.linear(latents, params["fc1.w"], params["fc1.b"]))
    return ad.linear(h, params["out.w"], params["out.b"])


def head_forward(latent: np.ndarray, params: ParamStore) -> np.ndarray:
    """Logits for one latent code or a batch of them; records no backward graph."""
    with ad.no_grad():
        return head_graph(Node(latent), params).value
