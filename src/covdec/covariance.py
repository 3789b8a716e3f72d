"""Channel cross-covariance features from raw multichannel trials."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
        if not np.all(np.isfinite(arr)):
            raise DataError(f"trial '{self.trial_id}': non-finite samples")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def samples(self) -> int:
        return self.data.shape[1]


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
    window. lag 0 is the ordinary sample covariance, mirrored for exact
    symmetry.

    At lag 0 the window is centred once and multiplied by a copy of itself.
    The copy is needed for the bits: `a @ a.T` on one buffer makes numpy call
    BLAS `syrk`, whose sums round differently from the `gemm` that two
    buffers get (entries moved by up to 6.7e-16). The mean is `sum / W`,
    which is what `mean` computes, and the result is mirrored from its upper
    triangle.
    """
    t_len = trial.samples
    if abs(lag) >= t_len:
        raise ConfigError(f"lag {lag} out of range for {t_len}-sample trial")
    window = t_len - abs(lag)
    if window <= 1:
        raise DataError(f"degenerate {window}-sample overlap for lag {lag}")

    if lag == 0:
        a = trial.data - trial.data.sum(axis=1, keepdims=True) / window
        m = (a @ a.copy().T) / (window - 1)
        rows, cols = _strict_lower(trial.channels)
        m[rows, cols] = m[cols, rows]
        return CovMatrix(m, lag)
    if lag > 0:
        a = trial.data[:, : window]
        b = trial.data[:, lag : lag + window]
    else:
        a = trial.data[:, -lag :]
        b = trial.data[:, : window]
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    return CovMatrix((a @ b.T) / (window - 1), lag)


@lru_cache(maxsize=16)
def _strict_lower(channels: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the entries below the diagonal of a [C, C] matrix."""
    return np.tril_indices(channels, -1)


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
    """
    covs: list[np.ndarray] = []
    labels: list[int] = []
    for trial in trials:
        if channels is None:
            channels = trial.channels
        if trial.channels != channels:
            raise DataError(
                f"trial '{trial.trial_id}' has {trial.channels} channels, "
                f"expected {channels}"
            )
        covs.append(ccv(trial, tau).values)
        labels.append(trial.label)
        del trial  # release it before the source makes the next one
    mats = np.stack(covs) if covs else np.empty((0, 0, 0))
    return mats, np.array(labels, dtype=np.int64)


def prepare(
    trials: Iterable[Trial], tau: int, norm: NormStats | None = None
) -> tuple[np.ndarray, np.ndarray, NormStats]:
    """Trials -> (standardized [N, C, C] lag-tau covariances, labels, stats).

    The one way trials become model input: fits the statistics when `norm` is
    None, else applies it. `trials` may be any iterable, read once through
    `covariances`, so a lazy source holds one raw trial at a time, and the
    covariance set is standardized where it was stacked. Every trial must
    have the channel count of the statistics (or of the first trial, when
    fitting).
    """
    channels = None if norm is None else norm.mean.shape[0]
    mats, labels = covariances(trials, tau, channels)
    if not labels.size:
        raise DataError("prepare: empty trial set")
    mats, norm = standardize(mats, norm)
    return mats, labels, norm
