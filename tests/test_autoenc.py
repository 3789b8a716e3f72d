import inspect

import numpy as np
import pytest

import covdec.autodiff as ad
from covdec.autoenc import (
    dae_encode,
    dae_loss,
    head_forward,
    init_dae_params,
    init_head_params,
)
from covdec.branches import extract_features
from covdec.config import TrainConfig
from covdec.covariance import CovMatrix, NormStats
from covdec.errors import ConfigError, StateError
from covdec.params import ParamStore
from covdec.training import PipelineArtifacts, predict_batch

from conftest import SMALL_CONFIG, zeroed


def test_zero_params_give_zero_latent(small_dae):
    latent = dae_encode(np.ones(12), zeroed(small_dae))
    assert np.array_equal(latent, np.zeros(4))


def test_latent_width_fixed_by_config():
    params = init_dae_params(TrainConfig(), seed=1)
    rng = np.random.default_rng(33)
    assert dae_encode(rng.normal(size=128), params).shape == (32,)
    assert dae_encode(rng.normal(size=(5, 128)), params).shape == (5, 32)


def test_dae_loss_zero_params_unit_input_is_one(small_dae):
    loss = dae_loss(np.ones(12), zeroed(small_dae))
    assert float(loss.value) == pytest.approx(1.0, abs=1e-12)


def test_dae_loss_zero_for_zero_input(small_dae):
    loss = dae_loss(np.zeros(12), zeroed(small_dae))
    assert float(loss.value) == 0.0


def test_dae_loss_gradient_reaches_all_layers(small_dae):
    rng = np.random.default_rng(34)
    loss = dae_loss(rng.normal(size=(4, 12)), small_dae)
    small_dae.zero_grad()
    loss.backward()
    for name in small_dae.names():
        assert np.any(small_dae[name].grad != 0.0), f"no gradient in {name}"


def test_dae_loss_api_takes_no_labels():
    # unsupervised by construction: the signature has no label argument
    names = set(inspect.signature(dae_loss).parameters)
    assert "labels" not in names and "label" not in names


def test_dae_spec_requires_compression():
    # feature width 16 + 16 = 32, not wider than the latent
    config = TrainConfig(cnn_feature=16, rnn_hidden2=16, dae_hidden=64, dae_latent=32)
    with pytest.raises(ConfigError, match="latent width"):
        config.validate()


def test_head_zero_params_uniform_prediction(small_head):
    logits = head_forward(np.ones(4), zeroed(small_head))
    assert np.array_equal(logits, np.zeros(3))
    assert np.allclose(ad.softmax(logits), 1.0 / 3.0)


def test_head_logit_length_is_class_count():
    params = init_head_params(TrainConfig(dae_latent=32, head_hidden=16, classes=5), seed=2)
    rng = np.random.default_rng(35)
    assert head_forward(rng.normal(size=32), params).shape == (5,)


def test_argmax_invariant_to_constant_logit_shift(small_head):
    rng = np.random.default_rng(36)
    logits = head_forward(rng.normal(size=4), small_head)
    probs = ad.softmax(logits)
    shifted = ad.softmax(logits + 123.456)
    assert np.argmax(probs) == np.argmax(shifted)
    assert np.allclose(probs, shifted, atol=1e-12)


def _zero_pipeline(c=6):
    from covdec.branches import init_cnn_params, init_rnn_params

    cnn = zeroed(init_cnn_params(SMALL_CONFIG, c, 0))
    rnn = zeroed(init_rnn_params(SMALL_CONFIG, c, 0))
    dae = zeroed(init_dae_params(SMALL_CONFIG, 0))
    head = zeroed(init_head_params(SMALL_CONFIG, 0))
    return cnn, rnn, dae, head


def artifacts(cnn, rnn, dae, head, c=6):
    return PipelineArtifacts(
        config=TrainConfig(), classes=["a", "b", "c"], cnn=cnn, rnn=rnn,
        dae=dae, head=head, norm=NormStats(np.zeros((c, c)), np.ones((c, c))),
    )


def predict_one(cov, cnn, rnn, dae, head):
    """predict_batch over a batch of one: (label, probabilities)."""
    labels, probs = predict_batch(cov.values[None], artifacts(cnn, rnn, dae, head))
    return int(labels[0]), probs[0]


def test_predict_zero_pipeline_uniform_and_tie_breaks_to_class_zero():
    rng = np.random.default_rng(37)
    cov = CovMatrix(rng.normal(size=(6, 6)))
    cnn, rnn, dae, head = _zero_pipeline()
    label, probs = predict_one(cov, cnn, rnn, dae, head)
    assert label == 0
    assert np.allclose(probs, 1.0 / 3.0)


def test_predict_probabilities_sum_to_one(small_cnn, small_rnn, small_dae, small_head):
    rng = np.random.default_rng(38)
    cov = CovMatrix(rng.normal(size=(6, 6)))
    _, probs = predict_one(cov, small_cnn, small_rnn, small_dae, small_head)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(probs >= 0.0)


def test_predict_equals_stagewise_composition(small_cnn, small_rnn, small_dae, small_head):
    rng = np.random.default_rng(39)
    cov = CovMatrix(rng.normal(size=(6, 6)))
    label, probs = predict_one(cov, small_cnn, small_rnn, small_dae, small_head)
    features = extract_features(cov, small_cnn, small_rnn)
    latent = dae_encode(features[None], small_dae)
    logits = head_forward(latent, small_head)
    manual = ad.softmax(logits)[0]
    assert np.array_equal(probs, manual)
    assert label == int(np.argmax(manual))


def test_predict_names_missing_stage(small_cnn, small_rnn, small_dae):
    rng = np.random.default_rng(40)
    cov = CovMatrix(rng.normal(size=(6, 6)))
    with pytest.raises(StateError, match="stage 'head'"):
        predict_one(cov, small_cnn, small_rnn, small_dae, ParamStore())
    with pytest.raises(StateError, match="stage 'dae'"):
        predict_one(cov, small_cnn, small_rnn, ParamStore(), small_dae)
