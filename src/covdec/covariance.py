"""Channel cross-covariance features from raw multichannel trials."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, DataError

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class Trial:
    """One recording: [channels, samples] float64 matrix plus a class label."""

    data: np.ndarray
    label: int
    subject_id: str = ""
    trial_id: str = ""

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            raise DataError(
                f"trial '{self.trial_id}': need at least 2 channels x 2 samples, "
                f"got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise DataError(f"trial '{self.trial_id}': non-finite samples")
        label = self.label
        if isinstance(label, bool) or not isinstance(label, (int, np.integer)) or label < 0:
            raise DataError(
                f"trial '{self.trial_id}': label must be a non-negative integer, got {label!r}"
            )
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class CovMatrix:
    """[C, C] channel covariance at integer lag (symmetric PSD at lag 0)."""

    values: np.ndarray
    lag: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, np.float64))


def ccv(trial: Trial, lag: int = 0) -> CovMatrix:
    """Channel cross-covariance of a trial at integer lag (in samples).

    out[i, j] = sum_t (x_i(t) - mu_i)(x_j(t + lag) - mu_j) / (W - 1) over the
    W = T - |lag| overlapping samples, with mu the per-channel mean of that
    window. lag 0 is the ordinary sample covariance, exactly symmetric.
    """
    return CovMatrix(_ccv(trial.data, lag)[0], lag)


def _ccv(
    x: np.ndarray, lag: int, buf: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """ccv's [C, C] values for the [C, T] samples `x`, and the buffer the
    centred windows were written to.

    At lag 0 the trial is centred once, and `a @ a.T` on that one buffer
    makes numpy call BLAS `syrk`, which is symmetric by construction and does
    half the multiply-adds. Every other lag centres its two windows on their
    own and multiplies them with `gemm`. The two kernels may round
    differently, so lag-0 entries can differ in the last bits from a `gemm`
    on two buffers. The mean is `sum / W`, the bits `mean` gives without its
    call overhead. The buffer is `buf` when it is the float64 [1, C, W]
    array (lag 0) or [2, C, W] array (any other lag) the windows need, and a
    new one otherwise, so a caller can pass it on to the next trial.
    """
    t_len = x.shape[1]
    if abs(lag) >= t_len:
        raise ConfigError(f"lag {lag} out of range for {t_len}-sample trial")
    window = t_len - abs(lag)
    if window <= 1:
        raise DataError(f"degenerate {window}-sample overlap for lag {lag}")
    shape = (2 if lag else 1, x.shape[0], window)
    if buf is None or buf.shape != shape:
        buf = np.empty(shape)
    if lag == 0:
        a = np.subtract(x, x.sum(axis=1, keepdims=True) / window, out=buf[0])
        m = a @ a.T
    else:
        # a holds x_i(t) and b x_j(t + lag), each over the window where both exist
        a, b = buf
        for out, start in ((a, max(-lag, 0)), (b, max(lag, 0))):
            w = x[:, start : start + window]
            np.subtract(w, w.sum(axis=1, keepdims=True) / window, out=out)
        m = a @ b.T
    m /= window - 1
    return m, buf


@dataclass(frozen=True)
class NormStats:
    """Per-entry mean/std computed on a training set, reused verbatim elsewhere."""

    mean: np.ndarray
    std: np.ndarray  # floored at STD_FLOOR

    def __post_init__(self):
        object.__setattr__(self, "mean", np.ascontiguousarray(self.mean, np.float64))
        object.__setattr__(self, "std", np.ascontiguousarray(self.std, np.float64))


def standardize(
    mats: np.ndarray, stats: NormStats | None = None
) -> tuple[np.ndarray, NormStats]:
    """Per-entry z-scoring of a stacked [N, C, C] float64 array, in place:
    fits the stats when none are given, then writes (mats - mean) / std over
    `mats` and returns it with them."""
    if mats.ndim != 3 or mats.shape[0] == 0:
        raise DataError(f"standardize: need a non-empty [N, C, C] array, got {mats.shape}")
    if stats is None:
        mean = mats.mean(axis=0)
        std = np.maximum(mats.std(axis=0), STD_FLOOR)
        stats = NormStats(mean, std)
    mats -= stats.mean
    mats /= stats.std
    return mats, stats


def covariances(
    trials: Iterable[Trial], tau: int, channels: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Trials -> (their lag-tau covariances as one [N, C, C] array, labels),
    one trial at a time.

    `trials` may be any iterable and is read once. Each trial is reduced to
    its covariance as it arrives and no reference to it is kept, so a lazy
    source such as `data.load` has one raw trial in memory at a time. Every
    trial must have `channels` channels (by default, the first trial's). The
    set is held twice only while it is stacked; no trials give [0, 0, 0].
    Each trial is centred into one buffer, made again only when the sample
    count changes (`_ccv`).
    """
    covs: list[np.ndarray] = []
    labels: list[int] = []
    buf = None
    for trial in trials:
        x = trial.data
        if channels is None:
            channels = x.shape[0]
        if x.shape[0] != channels:
            raise DataError(
                f"trial '{trial.trial_id}' has {x.shape[0]} channels, "
                f"expected {channels}"
            )
        m, buf = _ccv(x, tau, buf)
        covs.append(m)
        labels.append(trial.label)
        del trial, x  # release the trial before the source makes the next one
    del buf  # and the buffer before the set is stacked
    mats = np.stack(covs) if covs else np.empty((0, 0, 0))
    return mats, np.array(labels, dtype=np.int64)


def prepare(
    trials: Iterable[Trial], tau: int, norm: NormStats
) -> tuple[np.ndarray, np.ndarray]:
    """Trials -> (their lag-tau covariances standardized with `norm` as one
    [N, C, C] array, labels): the input `evaluate` and `covdec predict` give
    a trained model.

    `trials` may be any iterable, read once through `covariances`, so a lazy
    source holds one raw trial at a time, and the covariance set is
    standardized where it was stacked. Every trial must have the channel
    count of the statistics.
    """
    mats, labels = covariances(trials, tau, norm.mean.shape[0])
    if not labels.size:
        raise DataError("prepare: empty trial set")
    return standardize(mats, norm)[0], labels
