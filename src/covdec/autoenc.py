"""Deep autoencoder over concatenated branch features, plus the softmax head.

The DAE has two ReLU encoder layers, a linear-output two-layer decoder that
mirrors them, and trains unsupervised on reconstruction MSE; encoding
(`dae_encode`) runs the encoder layers only. Its input is
`TrainConfig.feature_width` wide (CNN plus RNN feature), its layers
`dae_hidden` and `dae_latent`. The head is a two-layer FC network over latent
codes, `head_hidden` wide; softmax is applied only inside the loss or at
predict time.

Each net's parameters, their names, shapes and init rules, are one table
built from a `TrainConfig`: `dae_layout` and `head_layout`. Init draws from
it, the name tuples `require` checks are taken from it, and
`report.load_artifacts` checks a run's weight files against it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .config import TrainConfig
from .params import Layout, ParamStore, init_values, linear_layout, require


def dae_layout(config: TrainConfig) -> Layout:
    """The DAE parameters, in init order."""
    n, hidden, latent = config.feature_width, config.dae_hidden, config.dae_latent
    return [
        *linear_layout("enc1", n, hidden, "he"), *linear_layout("enc2", hidden, latent, "he"),
        *linear_layout("dec1", latent, hidden, "he"), *linear_layout("dec2", hidden, n, "xavier"),
    ]


def head_layout(config: TrainConfig) -> Layout:
    """The head parameters, in init order."""
    return [*linear_layout("fc1", config.dae_latent, config.head_hidden, "he"),
            *linear_layout("out", config.head_hidden, config.classes, "logit")]


DAE_PARAM_NAMES = tuple(name for name, _, _ in dae_layout(TrainConfig()))
HEAD_PARAM_NAMES = tuple(name for name, _, _ in head_layout(TrainConfig()))


def init_dae_params(config: TrainConfig, seed: int) -> ParamStore:
    return ParamStore(init_values(dae_layout(config), seed))


def init_head_params(config: TrainConfig, seed: int) -> ParamStore:
    return ParamStore(init_values(head_layout(config), seed))


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
    latent, _ = dae_graph(Node(features), params, decode=False)
    return latent.value


def dae_loss(features: np.ndarray, params: ParamStore) -> Node:
    """Reconstruction MSE node; gradient reaches all four layers, not the
    features, a data leaf ("input"). No labels."""
    x = Node(features, "input")
    _, recon = dae_graph(x, params)
    return ad.mse(recon, x.value)


def head_graph(latents: Node, params: ParamStore) -> Node:
    """Logit node(s) for [n] or [B, n] latent input."""
    require(params, HEAD_PARAM_NAMES, "head")
    h = ad.relu(ad.linear(latents, params["fc1.w"], params["fc1.b"]))
    return ad.linear(h, params["out.w"], params["out.b"])


def head_forward(latent: np.ndarray, params: ParamStore) -> np.ndarray:
    """Logits for one latent code or a batch of them; records no backward graph."""
    return head_graph(Node(latent), params).value
