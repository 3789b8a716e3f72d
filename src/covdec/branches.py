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
trained, so feature extraction does not run it. The init functions read every
width from a `TrainConfig`: the CNN feature is `cnn_feature` wide and the RNN
feature `rnn_feature`. In memory each LSTM layer is the three fused parameters
`autodiff.lstm` takes, `lstmN.wx`, `lstmN.wh` and `lstmN.b`; rnn.cvdp keeps
twelve per-gate entries per layer (`split_rnn_gates`, `join_rnn_gates`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .config import RNN_AXES, RNN_ORDERS, TrainConfig
from .covariance import CovMatrix
from .errors import ConfigError, StateError
from .params import ParamStore, require

# trials per chunk of a forward-only pass over a whole set (feature
# extraction, and the epoch-0 loss and validation of a branch or of the
# head), so that its memory does not grow with the set
_CHUNK = 64


def _he(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _out_layer(rng: np.random.Generator, shape) -> np.ndarray:
    # small logit layer so an untrained branch predicts near-uniformly
    return rng.normal(0.0, 0.01, size=shape)


# rnn.cvdp keeps each LSTM layer as twelve per-gate entries, wx_*, wh_* and
# b_* for each gate in this order, the order init_rnn_params draws them in
_FILE_GATES = ("i", "f", "g", "o")
_LSTM_LAYERS = ("lstm1", "lstm2")


def _add_lstm_params(
    store: ParamStore, prefix: str, rng: np.random.Generator, d: int, h: int
) -> None:
    for gate in _FILE_GATES:
        store.add(f"{prefix}.wx_{gate}", _xavier(rng, d, h, (d, h)))
        store.add(f"{prefix}.wh_{gate}", _xavier(rng, h, h, (h, h)))
        bias = np.full(h, 1.0) if gate == "f" else np.zeros(h)
        store.add(f"{prefix}.b_{gate}", bias)


# ---------------------------------------------------------------------------
# CNN branch
# ---------------------------------------------------------------------------

CNN_PARAM_NAMES = (
    "conv1.w", "conv1.b", "conv2.w", "conv2.b",
    "fc1.w", "fc1.b", "fc2.w", "fc2.b", "out.w", "out.b",
)


def conv_output_length(channels: int, config: TrainConfig) -> int:
    """Signal length after the two valid convolutions; raises when too small."""
    l1 = channels - config.cnn_kernel1 + 1
    l2 = l1 - config.cnn_kernel2 + 1
    if l2 < 1:
        raise ConfigError(
            f"cnn needs at least {config.cnn_kernel1 + config.cnn_kernel2 - 1} "
            f"channels, got {channels}"
        )
    return l2


def init_cnn_params(config: TrainConfig, channels: int, seed: int) -> ParamStore:
    l2 = conv_output_length(channels, config)
    f1, k1, f2, k2 = (config.cnn_filters1, config.cnn_kernel1,
                      config.cnn_filters2, config.cnn_kernel2)
    fc1, feature, classes = config.cnn_fc1, config.cnn_feature, config.classes
    rng = np.random.default_rng(seed)
    store = ParamStore()
    store.add("conv1.w", _he(rng, channels * k1, (f1, channels, k1)))
    store.add("conv1.b", np.zeros(f1))
    store.add("conv2.w", _he(rng, f1 * k2, (f2, f1, k2)))
    store.add("conv2.b", np.zeros(f2))
    flat = f2 * l2
    store.add("fc1.w", _he(rng, flat, (flat, fc1)))
    store.add("fc1.b", np.zeros(fc1))
    store.add("fc2.w", _he(rng, fc1, (fc1, feature)))
    store.add("fc2.b", np.zeros(feature))
    store.add("out.w", _out_layer(rng, (feature, classes)))
    store.add("out.b", np.zeros(classes))
    return store


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

RNN_PARAM_NAMES = (
    "fc1.w", "fc1.b", "fc2.w", "fc2.b",
    "lstm1.wx", "lstm1.wh", "lstm1.b", "lstm2.wx", "lstm2.wh", "lstm2.b",
    "out.w", "out.b",
)
RNN_FILE_NAMES = (
    "fc1.w", "fc1.b", "fc2.w", "fc2.b",
    *(f"{layer}.{kind}_{gate}" for layer in _LSTM_LAYERS for gate in _FILE_GATES
      for kind in ("wx", "wh", "b")),
    "out.w", "out.b",
)


def init_rnn_params(config: TrainConfig, channels: int, seed: int) -> ParamStore:
    order = config.rnn_order
    if order not in RNN_ORDERS:
        raise ConfigError(f"rnn order must be one of {RNN_ORDERS}, got {order!r}")
    fc1, fc2 = config.rnn_fc1, config.rnn_fc2
    hidden1, hidden2 = config.rnn_hidden1, config.rnn_hidden2
    rng = np.random.default_rng(seed)
    store = ParamStore()
    if order == "fc-first":
        fc_in, lstm_in = channels, fc2
    else:
        fc_in, lstm_in = hidden2, channels
    store.add("fc1.w", _he(rng, fc_in, (fc_in, fc1)))
    store.add("fc1.b", np.zeros(fc1))
    store.add("fc2.w", _he(rng, fc1, (fc1, fc2)))
    store.add("fc2.b", np.zeros(fc2))
    _add_lstm_params(store, "lstm1", rng, lstm_in, hidden1)
    _add_lstm_params(store, "lstm2", rng, hidden1, hidden2)
    store.add("out.w", _out_layer(rng, (config.rnn_feature, config.classes)))
    store.add("out.b", np.zeros(config.classes))
    return join_rnn_gates({name: node.value for name, node in store.items()}, "rnn")


def split_rnn_gates(params: ParamStore) -> ParamStore:
    """The rnn.cvdp layout of an RNN store: each LSTM layer's fused wx, wh
    and b split into its twelve per-gate entries, all entries in file order."""
    require(params, RNN_PARAM_NAMES, "rnn")
    values = {name: node.value for name, node in params.items()}
    for layer in _LSTM_LAYERS:
        for kind in ("wx", "wh", "b"):
            blocks = np.split(values[f"{layer}.{kind}"], 4, axis=-1)
            values.update({f"{layer}.{kind}_{g}": v for g, v in zip(ad.LSTM_GATES, blocks)})
    out = ParamStore()
    for name in RNN_FILE_NAMES:
        out.add(name, values[name])
    return out


def join_rnn_gates(entries: dict[str, np.ndarray], source: str) -> ParamStore:
    """The RNN store of the arrays of the rnn.cvdp layout, name -> array:
    each LSTM layer's per-gate entries joined into its fused wx, wh and b
    (`autodiff.lstm`), every parameter an owned copy.

    A missing entry, or a gate entry whose shape is not its layer's
    (wx_* [d, H], wh_* [H, H], b_* [H], with H from b_i and d from wx_i),
    raises StateError naming `source` and the entry.
    """
    require(entries, RNN_FILE_NAMES, source)
    for layer in _LSTM_LAYERS:
        h = entries[f"{layer}.b_i"].size
        wx_i = entries[f"{layer}.wx_i"]
        want = {"wx": (wx_i.shape[0] if wx_i.ndim == 2 else 0, h), "wh": (h, h), "b": (h,)}
        for gate in _FILE_GATES:
            for kind, shape in want.items():
                name = f"{layer}.{kind}_{gate}"
                if entries[name].shape != shape:
                    raise StateError(
                        f"{source}: '{name}' has shape {entries[name].shape}, "
                        f"but the gates of {layer} want {shape}"
                    )
    store = ParamStore()
    for param in RNN_PARAM_NAMES:
        layer, _, kind = param.partition(".")
        if layer in _LSTM_LAYERS:
            parts = [entries[f"{layer}.{kind}_{gate}"] for gate in ad.LSTM_GATES]
            store.add(param, np.concatenate(parts, axis=-1, dtype=np.float64))
        else:
            store.add(param, np.array(entries[param], np.float64))
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
