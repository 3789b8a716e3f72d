"""The two parallel supervised feature extractors over covariance matrices.

CNN branch: the C x C matrix is read as C input channels of length-C signals;
two valid convolutions (k=3 by default), then two ReLU FC layers. RNN branch:
matrix rows (or columns) are time steps of two stacked LSTM layers, each one
`autodiff.lstm` op over all steps. With `rnn_order = fc-first`, an
FC(128)+ReLU -> FC(64)+ReLU pair maps every step before the LSTMs; it runs
once, over the steps of all trials as one [B*C, C] batch. With `lstm-first`
the LSTMs read the raw steps and the FC pair maps the last hidden state. In
both nets the last hidden activation is the exported feature; a small affine
head on top produces logits used only while the branch itself is being
trained, so feature extraction does not run it.

Each branch's parameters, their names, shapes and init rules, are one table
built from a `TrainConfig` and the channel count: `cnn_layout` and
`rnn_layout`. Init draws from it, the name tuples `require` checks are taken
from it, and `report.load_artifacts` checks a run's weight files against it.
The CNN feature is `cnn_feature` wide and the RNN feature `rnn_feature`. In
memory each LSTM layer is the three fused parameters `autodiff.lstm` takes,
`lstmN.wx`, `lstmN.wh` and `lstmN.b`; rnn.cvdp, and `rnn_layout`, keep twelve
per-gate entries per layer (`split_rnn_gates`, `join_rnn_gates`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .config import RNN_AXES, RNN_ORDERS, TrainConfig
from .covariance import CovMatrix
from .errors import ConfigError
from .params import Layout, ParamStore, init_store, linear_layout, require

# trials per chunk of a forward-only pass over a whole set (feature
# extraction, and the epoch-0 loss and validation of a branch or of the
# head), so that its memory does not grow with the set
_CHUNK = 64


# rnn.cvdp keeps each LSTM layer as twelve per-gate entries, wx_*, wh_* and
# b_* for each gate in this order (`rnn_layout`)
_FILE_GATES = ("i", "f", "g", "o")


# ---------------------------------------------------------------------------
# CNN branch
# ---------------------------------------------------------------------------


def cnn_layout(config: TrainConfig, channels: int) -> Layout:
    """The CNN parameters for `channels`-channel matrices, in init order;
    raises ConfigError when the two valid convolutions leave no signal."""
    f1, k1, f2, k2 = (config.cnn_filters1, config.cnn_kernel1,
                      config.cnn_filters2, config.cnn_kernel2)
    length = channels - k1 - k2 + 2
    if length < 1:
        raise ConfigError(f"cnn needs at least {k1 + k2 - 1} channels, got {channels}")
    return [
        ("conv1.w", (f1, channels, k1), ("he", channels * k1, f1 * k1)),
        ("conv1.b", (f1,), ("zeros",)),
        ("conv2.w", (f2, f1, k2), ("he", f1 * k2, f2 * k2)),
        ("conv2.b", (f2,), ("zeros",)),
        *linear_layout("fc1", f2 * length, config.cnn_fc1, "he"),
        *linear_layout("fc2", config.cnn_fc1, config.cnn_feature, "he"),
        *linear_layout("out", config.cnn_feature, config.classes, "logit"),
    ]


# channels set only shapes, never names
CNN_PARAM_NAMES = tuple(name for name, _, _ in cnn_layout(TrainConfig(), 8))


def init_cnn_params(config: TrainConfig, channels: int, seed: int) -> ParamStore:
    return init_store(cnn_layout(config, channels), seed)


def cnn_graph(mats: Node, params: ParamStore, logits: bool = True) -> tuple[Node, Node | None]:
    """Forward graph over a [B, C, C] batch; returns (features, logits) nodes.
    With `logits` false the logit layer does not run and logits is None."""
    require(params, CNN_PARAM_NAMES, "cnn")
    h = ad.relu(ad.conv1d(mats, params["conv1.w"], params["conv1.b"]))
    h = ad.relu(ad.conv1d(h, params["conv2.w"], params["conv2.b"]))
    batch = h.value.shape[0]
    h = ad.reshape(h, (batch, h.value.shape[1] * h.value.shape[2]))
    h = ad.relu(ad.linear(h, params["fc1.w"], params["fc1.b"]))
    feature = ad.relu(ad.linear(h, params["fc2.w"], params["fc2.b"]))
    return feature, ad.linear(feature, params["out.w"], params["out.b"]) if logits else None


# ---------------------------------------------------------------------------
# RNN branch
# ---------------------------------------------------------------------------


def _lstm_layout(layer: str, d: int, h: int) -> Layout:
    return [entry for gate in _FILE_GATES for entry in (
        (f"{layer}.wx_{gate}", (d, h), ("xavier", d, h)),
        (f"{layer}.wh_{gate}", (h, h), ("xavier", h, h)),
        (f"{layer}.b_{gate}", (h,), ("ones",) if gate == "f" else ("zeros",)),
    )]


def rnn_layout(config: TrainConfig, channels: int) -> Layout:
    """The RNN parameters for `channels`-channel matrices as rnn.cvdp holds
    them, per-gate LSTM entries included, in init order."""
    order = config.rnn_order
    if order not in RNN_ORDERS:
        raise ConfigError(f"rnn order must be one of {RNN_ORDERS}, got {order!r}")
    fc1, fc2 = config.rnn_fc1, config.rnn_fc2
    hidden1, hidden2 = config.rnn_hidden1, config.rnn_hidden2
    fc_in, lstm_in = (channels, fc2) if order == "fc-first" else (hidden2, channels)
    return [
        *linear_layout("fc1", fc_in, fc1, "he"),
        *linear_layout("fc2", fc1, fc2, "he"),
        *_lstm_layout("lstm1", lstm_in, hidden1),
        *_lstm_layout("lstm2", hidden1, hidden2),
        *linear_layout("out", config.rnn_feature, config.classes, "logit"),
    ]


RNN_FILE_NAMES = tuple(name for name, _, _ in rnn_layout(TrainConfig(), 8))
# the in-memory names: each layer's gate entries fused, `lstmN.wx_i` -> `lstmN.wx`
RNN_PARAM_NAMES = tuple(dict.fromkeys(name.partition("_")[0] for name in RNN_FILE_NAMES))


def init_rnn_params(config: TrainConfig, channels: int, seed: int) -> ParamStore:
    return join_rnn_gates(init_store(rnn_layout(config, channels), seed).snapshot())


def split_rnn_gates(params: ParamStore) -> ParamStore:
    """The rnn.cvdp layout of an RNN store: each LSTM layer's fused wx, wh
    and b split into its twelve per-gate entries, all entries in file order."""
    require(params, RNN_PARAM_NAMES, "rnn")
    out = ParamStore()
    for name in RNN_FILE_NAMES:
        fused, _, gate = name.partition("_")
        value = params[fused].value
        if gate:
            value = np.split(value, 4, axis=-1)[ad.LSTM_GATES.index(gate)]
        out.add(name, value)
    return out


def join_rnn_gates(entries: dict[str, np.ndarray]) -> ParamStore:
    """The RNN store of the complete rnn.cvdp layout, name -> array: each
    LSTM layer's per-gate entries joined into its fused wx, wh and b
    (`autodiff.lstm`), every parameter an owned copy."""
    store = ParamStore()
    for param in RNN_PARAM_NAMES:
        if param in entries:
            store.add(param, np.array(entries[param], np.float64))
        else:
            parts = [entries[f"{param}_{gate}"] for gate in ad.LSTM_GATES]
            store.add(param, np.concatenate(parts, axis=-1, dtype=np.float64))
    return store


def rnn_graph(
    mats: np.ndarray,
    params: ParamStore,
    order: str = "fc-first",
    axis: str = "rows",
    logits: bool = True,
) -> tuple[Node, Node | None]:
    """Forward graph over a [B, C, C] batch; returns (features, logits) nodes.
    With `logits` false the logit layer does not run and logits is None."""
    require(params, RNN_PARAM_NAMES, "rnn")
    if order not in RNN_ORDERS:
        raise ConfigError(f"rnn order must be one of {RNN_ORDERS}, got {order!r}")
    if axis not in RNN_AXES:
        raise ConfigError(f"rnn axis must be one of {RNN_AXES}, got {axis!r}")
    mats = np.asarray(mats, dtype=np.float64)
    if axis == "cols":
        mats = mats.transpose(0, 2, 1)

    def lstm(x: Node, layer: str) -> Node:
        return ad.lstm(x, *(params[f"{layer}.{kind}"] for kind in ("wx", "wh", "b")))

    def fc_pair(x: Node) -> Node:
        x = ad.relu(ad.linear(x, params["fc1.w"], params["fc1.b"]))
        return ad.relu(ad.linear(x, params["fc2.w"], params["fc2.b"]))

    if order == "fc-first":
        # one FC pass over every step of every trial: [B*C, C] rows
        batch, steps, width = mats.shape
        fc = fc_pair(Node(mats.reshape(batch * steps, width)))
        seq = ad.reshape(fc, (batch, steps, fc.value.shape[1]))
        feature = ad.last_step(lstm(lstm(seq, "lstm1"), "lstm2"))
    else:
        feature = fc_pair(ad.last_step(lstm(lstm(Node(mats), "lstm1"), "lstm2")))
    return feature, ad.linear(feature, params["out.w"], params["out.b"]) if logits else None


# ---------------------------------------------------------------------------
# joint features
# ---------------------------------------------------------------------------


def _forward_in_chunks(forward: Callable[[np.ndarray], np.ndarray],
                       mats: np.ndarray) -> np.ndarray:
    """forward(chunk) over consecutive chunks of the [N, ...] batch `mats`,
    concatenated along the batch axis, recording no backward graph: the
    passes of `extract_features_batch`, and the whole-set loss passes
    (`training._xent_eval`) of the CNN, the RNN and the head.

    Every chunk holds `_CHUNK` trials except the last, which takes the
    remainder (up to 2 * _CHUNK - 1; all N when N < _CHUNK). With at least
    _CHUNK rows per chunk, no matrix product drops to the small-row BLAS
    kernels whose sums round differently, so the result is byte-identical to
    forward(mats) on this BLAS build.
    """
    n = mats.shape[0]
    bounds = [*range(0, max(1, n // _CHUNK) * _CHUNK, _CHUNK), n]
    with ad.no_grad():
        return np.concatenate(
            [forward(mats[start:stop]) for start, stop in zip(bounds, bounds[1:])]
        )


def extract_features_batch(
    mats: np.ndarray,
    cnn_params: ParamStore,
    rnn_params: ParamStore,
    order: str = "fc-first",
    axis: str = "rows",
) -> np.ndarray:
    """[B, C, C] -> [B, cnn_width + rnn_width] joint encodings, CNN first.

    A forward-only pass in chunks of trials: it records no backward graph and
    runs no branch logit layer."""

    def forward(chunk: np.ndarray) -> np.ndarray:
        cnn_feat, _ = cnn_graph(Node(chunk), cnn_params, logits=False)
        rnn_feat, _ = rnn_graph(chunk, rnn_params, order, axis, logits=False)
        return np.concatenate([cnn_feat.value, rnn_feat.value], axis=1)

    return _forward_in_chunks(forward, mats)


def extract_features(
    m: CovMatrix,
    cnn_params: ParamStore,
    rnn_params: ParamStore,
    order: str = "fc-first",
    axis: str = "rows",
) -> np.ndarray:
    """Concatenated [cnn feature || rnn feature] for one covariance matrix,
    as a batch of one."""
    return extract_features_batch(m.values[None, :, :], cnn_params, rnn_params,
                                  order, axis)[0]
