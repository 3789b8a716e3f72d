"""Hierarchical covariance-feature decoder for imagined-speech EEG trials.

Pipeline: raw trial -> channel cross-covariance -> parallel CNN and FC+LSTM
branches -> concatenated features -> autoencoder latent -> softmax head,
trained in three hierarchical stages on a tiny deterministic reverse-mode
autodiff core.
"""

from .autodiff import Node, softmax
from .autoenc import dae_encode, dae_loss, head_forward
from .branches import extract_features
from .config import TrainConfig
from .covariance import CovMatrix, NormStats, Trial, ccv, prepare, standardize
from .data import SynthSpec, gen_synth, load, conversion_contract
from .errors import (
    ConfigError,
    CovdecError,
    DataError,
    NumericError,
    ParseError,
    ShapeError,
    StateError,
)
from .params import ParamStore, adam_step
from .training import evaluate, predict_batch, run_training, split

__version__ = "0.1.0"

__all__ = [
    "CovMatrix",
    "ConfigError",
    "CovdecError",
    "DataError",
    "Node",
    "NormStats",
    "NumericError",
    "ParamStore",
    "ParseError",
    "ShapeError",
    "StateError",
    "SynthSpec",
    "TrainConfig",
    "Trial",
    "adam_step",
    "ccv",
    "conversion_contract",
    "dae_encode",
    "dae_loss",
    "evaluate",
    "extract_features",
    "gen_synth",
    "head_forward",
    "load",
    "predict_batch",
    "prepare",
    "run_training",
    "softmax",
    "split",
    "standardize",
]
