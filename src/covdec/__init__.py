"""Hierarchical covariance-feature decoder for imagined-speech EEG trials.

Pipeline: raw trial -> channel cross-covariance -> parallel CNN and FC+LSTM
branches -> concatenated features -> autoencoder latent -> softmax head,
trained in three hierarchical stages on a tiny deterministic reverse-mode
autodiff core.
"""

from .config import TrainConfig
from .covariance import Trial, prepare
from .data import SynthSpec, gen_synth
from .errors import (
    ConfigError,
    CovdecError,
    DataError,
    NumericError,
    ParseError,
    ShapeError,
    StateError,
)
from .training import evaluate, run_training

__version__ = "0.1.0"

# the names the README uses at the top level, and the trial type they take;
# every other name is imported from its module
__all__ = [
    "ConfigError",
    "CovdecError",
    "DataError",
    "NumericError",
    "ParseError",
    "ShapeError",
    "StateError",
    "SynthSpec",
    "TrainConfig",
    "Trial",
    "evaluate",
    "gen_synth",
    "prepare",
    "run_training",
]
