"""Three-stage hierarchical training: branches, autoencoder, classifier head.

Stage 1 trains the CNN and RNN branches independently on cross-entropy.
Stage 2 trains the autoencoder on reconstruction MSE over features extracted
with the frozen stage-1 weights (labels never enter). Stage 3 trains the
softmax head on latents from the frozen autoencoder. Standardization stats,
shuffling, and weight init all derive from the run seed and the training
partition only; with patience set, stages 1 and 3 return the checkpoint with
minimum validation loss.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .autoenc import dae_encode, dae_loss, head_graph, init_dae_params, init_head_params
from .branches import (
    _forward_in_chunks, cnn_graph, extract_features_batch, init_cnn_params, init_rnn_params,
    rnn_graph,
)
from .config import TrainConfig
from .covariance import NormStats, Trial, covariances, prepare, standardize
from .errors import DataError, NumericError
from .params import ParamStore, adam_step


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


try:  # glibc's; other C libraries have none
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def release_freed_memory() -> None:
    """Hand the heap pages freed since the last call back to the OS.

    glibc returns freed heap memory on its own only from the top of the heap,
    so after a training run the process keeps the pages of every freed tape
    whenever some small live object happens to sit above them, and its size
    then depends on where that object landed. malloc_trim(0) releases every
    whole free page wherever it lies. A no-op without glibc.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


# ---------------------------------------------------------------------------
# dataset split
# ---------------------------------------------------------------------------


def _split_indices(
    labels: Sequence[int], fraction: float, seed: int, classes: int | None = None
) -> tuple[list[int], list[int]]:
    """Stratified, seeded partition of the indices of `labels` into
    (train, validation).

    Per class, train gets floor(n * fraction + 0.5) items (halves round
    toward train); the split is disjoint, exhaustive, and deterministic.
    """
    present = sorted(set(labels))
    if classes is not None:
        for k in range(classes):
            if k not in present:
                raise DataError(f"class {k} has no trials")
    rng = np.random.default_rng(seed)
    train: list[int] = []
    val: list[int] = []
    for k in present:
        members = [i for i, label in enumerate(labels) if label == k]
        order = rng.permutation(len(members))
        n_train = int(np.floor(len(members) * fraction + 0.5))
        train.extend(members[i] for i in order[:n_train])
        val.extend(members[i] for i in order[n_train:])
    return train, val


def split(
    trials: list[Trial], fraction: float, seed: int, classes: int | None = None
) -> tuple[list[Trial], list[Trial]]:
    """The partition `run_training` makes, as (train, validation) trial lists."""
    train, val = _split_indices([t.label for t in trials], fraction, seed, classes)
    return [trials[i] for i in train], [trials[i] for i in val]


def _derived_seeds(seed: int) -> dict[str, int]:
    keys = (
        "cnn_init", "rnn_init", "dae_init", "head_init",
        "cnn_shuffle", "rnn_shuffle", "dae_shuffle", "head_shuffle",
    )
    state = np.random.SeedSequence(seed).generate_state(len(keys))
    return {k: int(v) for k, v in zip(keys, state)}


# ---------------------------------------------------------------------------
# stage loops
# ---------------------------------------------------------------------------


@dataclass
class CurvePoint:
    epoch: int
    stage: str
    train_loss: float
    val_loss: float | None = None
    val_acc: float | None = None


@dataclass
class StageResult:
    params: ParamStore
    curves: list[CurvePoint]
    best_epoch: int      # epoch of the retained checkpoint (0 = initialization)
    epochs_run: int


def _xent_eval(graph_fn, params, x, y, chunked: bool = False) -> tuple[float, float]:
    """(cross-entropy, accuracy) of graph_fn's logits over the whole set (x, y).

    With `chunked`, the network runs in branch chunks and the loss is taken
    once over all their logits, as a single batch would sum it."""

    def logits(xs: np.ndarray) -> np.ndarray:
        return graph_fn(xs, params).value

    z = _forward_in_chunks(logits, x) if chunked else logits(x)
    loss = float(ad.softmax_xent(Node(z), y).value)
    acc = float(np.mean(np.argmax(z, axis=1) == y))
    return loss, acc


def _fit(
    loss_fn,
    params: ParamStore,
    x: np.ndarray,
    y: np.ndarray | None,
    *,
    lr: float,
    epochs: int,
    batch_size: int,
    shuffle_seed: int,
    stage: str,
    set_loss=None,
    validate=None,
    patience: int | None = None,
) -> StageResult:
    """The one training loop: minibatch Adam on loss_fn(x_batch, y_batch).

    set_loss(x, y) gives the epoch-0 loss over the whole training set
    (default: loss_fn's value). validate() returns (val_loss, val_acc) for
    every curve point. With patience set too, training stops after
    `patience` epochs without a lower validation loss and the best checkpoint
    is returned. The store keeps its values only: its gradients and Adam
    state are freed on return.
    """
    rng = np.random.default_rng(shuffle_seed)
    n = x.shape[0]

    def point(epoch: int, train_loss: float) -> CurvePoint:
        with ad.no_grad():
            return CurvePoint(epoch, stage, train_loss, *(validate() if validate else ()))

    with ad.no_grad():
        initial = float(loss_fn(x, y).value) if set_loss is None else set_loss(x, y)
        curves = [point(0, initial)]

    # the untrained weights are checkpoint candidate number zero
    best_val = curves[0].val_loss
    best_snap = params.snapshot()
    best_epoch = 0
    stale = 0
    step = 0
    for epoch in range(1, epochs + 1):
        perm = rng.permutation(n)
        batch_losses = []
        for bi, start in enumerate(range(0, n, batch_size)):
            idx = perm[start : start + batch_size]
            loss = loss_fn(x[idx], None if y is None else y[idx])
            value = float(loss.value)
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss in stage '{stage}' at epoch {epoch}, batch {bi}"
                )
            params.zero_grad()
            loss.backward()
            step += 1
            adam_step(params, lr, t=step)
            batch_losses.append(value)
        curves.append(point(epoch, float(np.mean(batch_losses))))
        if patience is not None:
            if curves[-1].val_loss < best_val:
                best_val, best_epoch, stale = curves[-1].val_loss, epoch, 0
                best_snap = params.snapshot()
            else:
                stale += 1
                if stale >= patience:
                    break

    epochs_run = len(curves) - 1
    if patience is not None:
        params.load_values(best_snap)
    else:
        best_epoch = epochs_run
    params.unpack()
    return StageResult(params, curves, best_epoch, epochs_run)


def _fit_classifier(graph_fn, params, train_x, train_y, val_x, val_y, *,
                    chunked: bool = False, **kwargs) -> StageResult:
    """_fit on cross-entropy of graph_fn's logits, validated on (val_x, val_y).

    With `chunked`, the whole-set passes (the epoch-0 loss and validation)
    run the network in branch chunks."""
    return _fit(
        lambda x, y: ad.softmax_xent(graph_fn(x, params), y), params, train_x, train_y,
        set_loss=lambda x, y: _xent_eval(graph_fn, params, x, y, chunked)[0],
        validate=lambda: _xent_eval(graph_fn, params, val_x, val_y, chunked), **kwargs,
    )


@dataclass
class Stage1Result:
    cnn: StageResult
    rnn: StageResult

    @property
    def curves(self) -> list[CurvePoint]:
        return self.cnn.curves + self.rnn.curves


def train_stage1(
    train_mats: np.ndarray,
    train_labels: np.ndarray,
    val_mats: np.ndarray,
    val_labels: np.ndarray,
    config: TrainConfig,
) -> Stage1Result:
    """Train both branches independently on standardized covariance inputs."""
    seeds = _derived_seeds(config.seed)
    channels = train_mats.shape[1]
    cnn_params = init_cnn_params(config, channels, seeds["cnn_init"])
    rnn_params = init_rnn_params(config, channels, seeds["rnn_init"])

    def cnn_fn(x, p):
        return cnn_graph(Node(x), p)[1]

    def rnn_fn(x, p):
        return rnn_graph(x, p, config.rnn_order, config.rnn_axis)[1]

    common = dict(
        lr=config.lr_stage1, epochs=config.epochs_stage1,
        batch_size=config.batch_size, patience=config.patience, chunked=True,
    )
    cnn_result = _fit_classifier(
        cnn_fn, cnn_params, train_mats, train_labels, val_mats, val_labels,
        shuffle_seed=seeds["cnn_shuffle"], stage="cnn", **common,
    )
    rnn_result = _fit_classifier(
        rnn_fn, rnn_params, train_mats, train_labels, val_mats, val_labels,
        shuffle_seed=seeds["rnn_shuffle"], stage="rnn", **common,
    )
    return Stage1Result(cnn_result, rnn_result)


def train_stage2(train_features: np.ndarray, config: TrainConfig) -> StageResult:
    """Unsupervised autoencoder training on frozen stage-1 features."""
    seeds = _derived_seeds(config.seed)
    params = init_dae_params(config, seeds["dae_init"])
    return _fit(
        lambda x, _: dae_loss(x, params), params, train_features, None,
        lr=config.lr_stage2, epochs=config.epochs_stage2,
        batch_size=config.batch_size, shuffle_seed=seeds["dae_shuffle"], stage="dae",
    )


def train_stage3(
    train_latents: np.ndarray,
    train_labels: np.ndarray,
    val_latents: np.ndarray,
    val_labels: np.ndarray,
    config: TrainConfig,
) -> StageResult:
    """Supervised head training on frozen-autoencoder latents."""
    seeds = _derived_seeds(config.seed)
    params = init_head_params(config, seeds["head_init"])

    def head_fn(z, p):
        return head_graph(Node(z), p)

    return _fit_classifier(
        head_fn, params, train_latents, train_labels, val_latents, val_labels,
        lr=config.lr_stage3, epochs=config.epochs_stage3,
        batch_size=config.batch_size, patience=config.patience,
        shuffle_seed=seeds["head_shuffle"], stage="head",
    )


# ---------------------------------------------------------------------------
# evaluation and the full run
# ---------------------------------------------------------------------------


@dataclass
class PipelineArtifacts:
    config: TrainConfig
    classes: list[str]
    cnn: ParamStore
    rnn: ParamStore
    dae: ParamStore
    head: ParamStore
    norm: NormStats


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # [K, K], rows = true class, cols = predicted
    precision: np.ndarray
    recall: np.ndarray
    count: int


def predict_batch(mats: np.ndarray, artifacts: PipelineArtifacts) -> tuple[np.ndarray, np.ndarray]:
    """(predicted labels, softmax probabilities) for standardized [N, C, C] input.

    The one inference path; a single trial is a batch of one. Ties go to the
    lowest class index. A forward-only pass: it records no backward graph.
    """
    cfg = artifacts.config
    features = extract_features_batch(
        mats, artifacts.cnn, artifacts.rnn, cfg.rnn_order, cfg.rnn_axis
    )
    latents = dae_encode(features, artifacts.dae)
    return _head_predict(latents, artifacts.head)


def _head_predict(latents: np.ndarray, head: ParamStore) -> tuple[np.ndarray, np.ndarray]:
    """predict_batch from the latent codes on."""
    with ad.no_grad():
        logits = head_graph(Node(latents), head).value
    probs = ad.softmax(logits)
    return np.argmax(probs, axis=1), probs


def evaluate_matrices(
    mats: np.ndarray, labels: np.ndarray, artifacts: PipelineArtifacts
) -> EvalResult:
    if mats.shape[0] == 0:
        raise DataError("evaluate: empty trial set")
    predicted, _ = predict_batch(mats, artifacts)
    return _score(labels, predicted, artifacts.config.classes)


def _score(labels: np.ndarray, predicted: np.ndarray, k: int) -> EvalResult:
    confusion = np.zeros((k, k), dtype=np.int64)
    for true, pred in zip(labels, predicted):
        confusion[true, pred] += 1
    total = confusion.sum()
    accuracy = float(np.trace(confusion) / total)
    col = confusion.sum(axis=0).astype(np.float64)
    row = confusion.sum(axis=1).astype(np.float64)
    diag = np.diag(confusion).astype(np.float64)
    precision = np.divide(diag, col, out=np.zeros(k), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros(k), where=row > 0)
    return EvalResult(accuracy, confusion, precision, recall, int(total))


def evaluate(trials: Iterable[Trial], artifacts: PipelineArtifacts) -> EvalResult:
    """Full-pipeline evaluation of raw trials against the stored statistics.

    `trials` may be any iterable; `prepare` reads it once, a trial at a time."""
    mats, labels, _ = prepare(trials, artifacts.config.tau, artifacts.norm)
    return evaluate_matrices(mats, labels, artifacts)


@dataclass
class RunOutcome:
    artifacts: PipelineArtifacts
    stage1: Stage1Result
    stage2: StageResult
    stage3: StageResult
    train_eval: EvalResult
    val_eval: EvalResult
    wall_clock: dict[str, float] = field(default_factory=dict)

    @property
    def curves(self) -> list[CurvePoint]:
        return self.stage1.curves + self.stage2.curves + self.stage3.curves


def run_training(
    trials: Iterable[Trial], class_names: list[str], config: TrainConfig
) -> RunOutcome:
    """Reduce trials to covariances, split, standardize, train all three
    stages, and evaluate.

    `trials` may be any iterable, read once: each trial is reduced to its
    lag-tau covariance as it arrives (`covariances`), so a lazy source holds
    one raw trial at a time. The covariances are then split on their labels
    (the `split` partition), and the standardization statistics are fitted on
    the training part only. The final train/validation evaluation reuses the
    stage-3 latents.
    """
    config.validate()
    if len(class_names) != config.classes:
        raise DataError(
            f"config declares {config.classes} classes but manifest has "
            f"{len(class_names)}"
        )
    clock: dict[str, float] = {}

    t0 = time.perf_counter()
    mats, labels = covariances(trials, config.tau)
    train_idx, val_idx = _split_indices(
        labels, config.split_fraction, config.seed, classes=config.classes
    )
    for part, idx, advice in (("training", train_idx, "raise"),
                              ("validation", val_idx, "lower")):
        if not idx:
            raise DataError(
                f"{part} split is empty ({len(labels)} trials at fraction "
                f"{config.split_fraction}); add trials or {advice} the fraction"
            )
    train_mats, val_mats = mats[train_idx], mats[val_idx]
    del mats  # the stages read the split arrays only
    train_mats, norm = standardize(train_mats)
    val_mats, _ = standardize(val_mats, norm)
    train_labels, val_labels = labels[train_idx], labels[val_idx]
    clock["prep"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    stage1 = train_stage1(train_mats, train_labels, val_mats, val_labels, config)
    clock["stage1"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    train_features = extract_features_batch(
        train_mats, stage1.cnn.params, stage1.rnn.params,
        config.rnn_order, config.rnn_axis,
    )
    stage2 = train_stage2(train_features, config)
    clock["stage2"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    val_features = extract_features_batch(
        val_mats, stage1.cnn.params, stage1.rnn.params,
        config.rnn_order, config.rnn_axis,
    )
    train_latents = dae_encode(train_features, stage2.params)
    val_latents = dae_encode(val_features, stage2.params)
    stage3 = train_stage3(train_latents, train_labels, val_latents, val_labels, config)
    clock["stage3"] = time.perf_counter() - t0

    artifacts = PipelineArtifacts(
        config=config, classes=list(class_names),
        cnn=stage1.cnn.params, rnn=stage1.rnn.params,
        dae=stage2.params, head=stage3.params, norm=norm,
    )
    t0 = time.perf_counter()
    train_pred, _ = _head_predict(train_latents, stage3.params)
    val_pred, _ = _head_predict(val_latents, stage3.params)
    train_eval = _score(train_labels, train_pred, config.classes)
    val_eval = _score(val_labels, val_pred, config.classes)
    clock["eval"] = time.perf_counter() - t0

    release_freed_memory()
    return RunOutcome(artifacts, stage1, stage2, stage3, train_eval, val_eval, clock)
