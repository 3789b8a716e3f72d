"""Deep autoencoder over concatenated branch features, plus the softmax head.

The DAE has two ReLU encoder layers, a linear-output two-layer decoder that
mirrors them, and trains unsupervised on reconstruction MSE. `dae_graph` is
the encoder; the decoder runs only inside the loss, `dae_loss`. Its input is
`TrainConfig.feature_width` wide (CNN plus RNN feature), its layers
`dae_hidden` and `dae_latent`. The head is a two-layer FC network over latent
codes, `head_hidden` wide; softmax is applied only inside the loss or at
predict time. Both graphs take an array, a data leaf ("input") in the graph.

Each net's parameters, their names, shapes and init rules, are one table
built from a `TrainConfig`: `dae_layout` and `head_layout`. Init draws from
it, and `report.load_artifacts` checks a run's weight files against it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .config import TrainConfig
from .params import Layout, ParamStore, init_values, linear_layout


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


def init_dae_params(config: TrainConfig, seed: int) -> ParamStore:
    return ParamStore(init_values(dae_layout(config), seed))


def init_head_params(config: TrainConfig, seed: int) -> ParamStore:
    return ParamStore(init_values(head_layout(config), seed))


def dae_graph(features: np.ndarray, params: ParamStore) -> Node:
    """Latent node for [n] or [B, n] features: the encoder alone."""
    h = ad.relu(ad.linear(Node(features, "input"), params["enc1.w"], params["enc1.b"]))
    return ad.relu(ad.linear(h, params["enc2.w"], params["enc2.b"]))


def dae_encode(features: np.ndarray, params: ParamStore) -> np.ndarray:
    """Deterministic latent code(s) for [n] or [B, n] features: the encoder
    alone, recording no backward graph."""
    return dae_graph(features, params).value


def dae_loss(features: np.ndarray, params: ParamStore) -> Node:
    """Reconstruction MSE node, the decoder over `dae_graph`'s latent; gradient
    reaches all four layers, not the features. No labels."""
    h = ad.relu(ad.linear(dae_graph(features, params), params["dec1.w"], params["dec1.b"]))
    return ad.mse(ad.linear(h, params["dec2.w"], params["dec2.b"]), features)


def head_graph(latents: np.ndarray, params: ParamStore) -> Node:
    """Logit node(s) for [n] or [B, n] latent codes."""
    h = ad.relu(ad.linear(Node(latents, "input"), params["fc1.w"], params["fc1.b"]))
    return ad.linear(h, params["out.w"], params["out.b"])


def head_forward(latent: np.ndarray, params: ParamStore) -> np.ndarray:
    """Logits for one latent code or a batch of them; records no backward graph."""
    return head_graph(latent, params).value
