import dataclasses

import numpy as np
import pytest

import covdec.autodiff as ad
from covdec.autodiff import Node
from covdec.branches import (
    RNN_FILE_NAMES,
    RNN_PARAM_NAMES,
    cnn_graph,
    extract_features,
    extract_features_batch,
    init_cnn_params,
    init_rnn_params,
    join_rnn_gates,
    rnn_graph,
    split_rnn_gates,
)
from covdec.config import TrainConfig
from covdec.covariance import CovMatrix
from covdec.data import SynthSpec, gen_synth
from covdec.errors import ConfigError, StateError
from covdec.params import ParamStore
from covdec.report import load_artifacts, save_run
from covdec.training import predict_batch, run_training

from conftest import SMALL_CONFIG, gate_block, lstm_loop, store_bytes, zeroed


def random_cov(rng, c=6):
    base = rng.normal(size=(c, c))
    return CovMatrix(np.triu(base) + np.triu(base, 1).T)


def cnn_single(cov, params):
    """(feature, logits) of cnn_graph over a batch of one."""
    feature, logits = cnn_graph(Node(cov.values[None]), params)
    return feature.value[0], logits.value[0]


def rnn_single(cov, params, order="fc-first", axis="rows"):
    """(feature, logits) of rnn_graph over a batch of one."""
    feature, logits = rnn_graph(cov.values[None], params, order, axis)
    return feature.value[0], logits.value[0]


def rnn_reference(mats, params, order="fc-first", axis="rows"):
    """(feature, logits) of the RNN branch over [B, C, C] in plain numpy, the
    LSTMs by `lstm_loop`: rows (or columns) are steps, the FC pair maps each
    step (fc-first) or the last hidden state (lstm-first)."""
    p = {name: node.value for name, node in params.items()}
    steps = mats if axis == "rows" else mats.transpose(0, 2, 1)

    def fc(x):
        h = np.maximum(x @ p["fc1.w"] + p["fc1.b"], 0.0)
        return np.maximum(h @ p["fc2.w"] + p["fc2.b"], 0.0)

    def lstm(xs, prefix):
        return lstm_loop(xs, {name.split(".", 1)[1]: v for name, v in p.items()
                              if name.startswith(prefix + ".")})

    if order == "fc-first":
        feature = lstm(lstm(fc(steps), "lstm1"), "lstm2")[:, -1]
    else:
        feature = fc(lstm(lstm(steps, "lstm1"), "lstm2")[:, -1])
    return feature, feature @ p["out.w"] + p["out.b"]


def test_default_specs_match_contract():
    config = TrainConfig()
    assert (config.cnn_filters1, config.cnn_kernel1,
            config.cnn_filters2, config.cnn_kernel2) == (32, 3, 64, 3)
    assert (config.cnn_fc1, config.cnn_feature) == (128, 64)
    assert (config.rnn_fc1, config.rnn_fc2,
            config.rnn_hidden1, config.rnn_hidden2) == (128, 64, 64, 64)


def test_cnn_zero_params_give_zero_feature_uniform_softmax(small_cnn):
    rng = np.random.default_rng(20)
    feature, logits = cnn_single(random_cov(rng), zeroed(small_cnn))
    assert np.array_equal(feature, np.zeros(8))
    assert np.array_equal(logits, np.zeros(3))
    assert np.allclose(ad.softmax(logits), 1.0 / 3.0)


def test_rnn_zero_params_give_zero_outputs(small_rnn):
    rng = np.random.default_rng(21)
    feature, logits = rnn_single(random_cov(rng), zeroed(small_rnn))
    assert np.array_equal(feature, np.zeros(4))
    assert np.array_equal(logits, np.zeros(3))


def test_default_output_shapes_for_c8_k3():
    rng = np.random.default_rng(22)
    cov = random_cov(rng, c=8)
    cnn_params = init_cnn_params(TrainConfig(), channels=8, seed=0)
    rnn_params = init_rnn_params(TrainConfig(), channels=8, seed=0)
    cnn_feature, cnn_logits = cnn_single(cov, cnn_params)
    rnn_feature, rnn_logits = rnn_single(cov, rnn_params)
    assert cnn_feature.shape == (64,) and cnn_logits.shape == (3,)
    assert rnn_feature.shape == (64,) and rnn_logits.shape == (3,)
    assert extract_features(cov, cnn_params, rnn_params).shape == (128,)


def test_cnn_rejects_too_few_channels_at_build():
    with pytest.raises(ConfigError, match="at least 5 channels"):
        init_cnn_params(TrainConfig(), channels=4, seed=0)


def test_concatenation_preserves_branch_values_verbatim(small_cnn, small_rnn):
    rng = np.random.default_rng(23)
    cov = random_cov(rng)
    joint = extract_features(cov, small_cnn, small_rnn)
    cnn_feat, _ = cnn_single(cov, small_cnn)
    rnn_feat, _ = rnn_single(cov, small_rnn)
    assert np.array_equal(joint[: len(cnn_feat)], cnn_feat)
    assert np.array_equal(joint[len(cnn_feat) :], rnn_feat)


def test_forward_is_pure_and_deterministic(small_cnn, small_rnn):
    rng = np.random.default_rng(24)
    cov = random_cov(rng)
    a = extract_features(cov, small_cnn, small_rnn)
    b = extract_features(cov, small_cnn, small_rnn)
    assert a.tobytes() == b.tobytes()


def test_feature_extraction_never_touches_params_or_grads(small_cnn, small_rnn):
    rng = np.random.default_rng(25)
    cov = random_cov(rng)
    values = {n: small_cnn[n].value.tobytes() for n in small_cnn.names()}
    grads = {n: small_cnn[n].grad.tobytes() for n in small_cnn.names()}
    extract_features(cov, small_cnn, small_rnn)
    assert values == {n: small_cnn[n].value.tobytes() for n in small_cnn.names()}
    assert grads == {n: small_cnn[n].grad.tobytes() for n in small_cnn.names()}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    trials = gen_synth(SynthSpec(channels=6, samples=64, trials_per_class=4, seed=5))
    config = dataclasses.replace(SMALL_CONFIG, epochs_stage1=1, epochs_stage2=1,
                                 epochs_stage3=1)
    run = tmp_path_factory.mktemp("run")
    save_run(run, run_training(trials, ["a", "b", "c"], config))
    return run


@pytest.mark.parametrize("branch", ["cnn", "rnn"])
def test_forward_graph_allocates_no_gradient_buffers(branch, small_run):
    rng = np.random.default_rng(27)
    mats = np.stack([random_cov(rng).values for _ in range(3)])
    labels = [0, 1, 2]

    def build():
        if branch == "cnn":
            params = init_cnn_params(SMALL_CONFIG, channels=6, seed=42)
            _, logits = cnn_graph(Node(mats), params)
        else:
            params = init_rnn_params(SMALL_CONFIG, channels=6, seed=43)
            _, logits = rnn_graph(mats, params)
        return params, logits

    params, logits = build()
    assert all(node._grad is None for node in ad._toposort(logits))
    ad.softmax_xent(logits, labels).backward()
    lazy = {name: node._grad for name, node in params.items()}
    assert all(grad is not None for grad in lazy.values())

    # eager reference: every buffer allocated as zeros before backward adds into it
    params, logits = build()
    loss = ad.softmax_xent(logits, labels)
    for node in ad._toposort(loss):
        node.grad = np.zeros_like(node.value)
    loss.backward()
    assert ({name: grad.tobytes() for name, grad in lazy.items()}
            == {name: node.grad.tobytes() for name, node in params.items()})

    # the inference path: loading a run and decoding packs no store
    artifacts = load_artifacts(small_run)
    predict_batch(mats, artifacts)
    for store in (artifacts.cnn, artifacts.rnn, artifacts.dae, artifacts.head):
        assert store._flat is None
        assert all(node._grad is None for _, node in store.items())


def test_batched_graph_matches_per_sample_forward(small_cnn, small_rnn):
    rng = np.random.default_rng(26)
    covs = [random_cov(rng) for _ in range(4)]
    mats = np.stack([c.values for c in covs])
    cnn_feat, cnn_logits = cnn_graph(Node(mats), small_cnn)
    rnn_feat, rnn_logits = rnn_graph(mats, small_rnn)
    for i, cov in enumerate(covs):
        single_cnn = cnn_single(cov, small_cnn)
        single_rnn = rnn_single(cov, small_rnn)
        assert np.allclose(cnn_feat.value[i], single_cnn[0], atol=1e-12)
        assert np.allclose(cnn_logits.value[i], single_cnn[1], atol=1e-12)
        assert np.allclose(rnn_feat.value[i], single_rnn[0], atol=1e-12)
        assert np.allclose(rnn_logits.value[i], single_rnn[1], atol=1e-12)


def test_rnn_matches_manual_cell_chain(small_rnn):
    rng = np.random.default_rng(27)
    cov = random_cov(rng)
    feature, out_logits = rnn_single(cov, small_rnn)
    want_feature, want_logits = rnn_reference(cov.values[None], small_rnn)
    assert np.allclose(feature, want_feature[0], rtol=0.0, atol=1e-12)
    assert np.allclose(out_logits, want_logits[0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("order, axis", [("lstm-first", "rows"), ("fc-first", "cols"),
                                         ("lstm-first", "cols")],
                         ids=["lstm-first", "cols", "lstm-first-cols"])
def test_rnn_graph_matches_numpy_reference(order, axis):
    config = dataclasses.replace(SMALL_CONFIG, rnn_order=order)
    params = init_rnn_params(config, channels=6, seed=7)
    mats = np.random.default_rng(34).normal(size=(3, 6, 6))  # not symmetric
    feature, logits = rnn_graph(mats, params, order, axis)
    want_feature, want_logits = rnn_reference(mats, params, order, axis)
    assert feature.value.shape == (3, config.rnn_feature)
    assert np.allclose(feature.value, want_feature, rtol=0.0, atol=1e-12)
    assert np.allclose(logits.value, want_logits, rtol=0.0, atol=1e-12)


def test_rnn_graph_size_does_not_grow_with_channels(monkeypatch):
    # one op per layer: the node count of a decode graph is fixed, not one per step
    init = Node.__init__
    built = []

    def counting_init(node, *args, **kwargs):
        built.append(node)
        init(node, *args, **kwargs)

    counts = {}
    for channels in (8, 64):
        params = init_rnn_params(TrainConfig(), channels=channels, seed=0)
        mats = np.random.default_rng(35).normal(size=(1, channels, channels))
        built.clear()
        monkeypatch.setattr(Node, "__init__", counting_init)
        rnn_graph(mats, params)
        monkeypatch.undo()
        counts[channels] = len(built)
    assert counts == {8: 10, 64: 10}


def test_rnn_column_axis_equals_rows_on_symmetric_input(small_rnn):
    rng = np.random.default_rng(28)
    cov = random_cov(rng)  # symmetric by construction
    rows, _ = rnn_single(cov, small_rnn, axis="rows")
    cols, _ = rnn_single(cov, small_rnn, axis="cols")
    assert np.array_equal(rows, cols)


def test_rnn_lstm_first_order():
    config = dataclasses.replace(SMALL_CONFIG, rnn_order="lstm-first")
    params = init_rnn_params(config, channels=6, seed=5)
    rng = np.random.default_rng(29)
    feature, logits = rnn_single(random_cov(rng), params, order="lstm-first")
    assert feature.shape == (6,)  # feature is the fc2 output in this order
    assert logits.shape == (3,)


def test_invalid_order_and_axis_rejected(small_rnn):
    rng = np.random.default_rng(30)
    cov = random_cov(rng)
    with pytest.raises(ConfigError, match="order"):
        rnn_single(cov, small_rnn, order="sideways")
    with pytest.raises(ConfigError, match="axis"):
        rnn_single(cov, small_rnn, axis="diagonal")
    with pytest.raises(ConfigError):
        init_rnn_params(TrainConfig(rnn_order="sideways"), channels=8, seed=0)


def test_missing_weights_raise_state_error(small_cnn):
    rng = np.random.default_rng(31)
    cov = random_cov(rng)
    incomplete = ParamStore()
    incomplete.add("conv1.w", small_cnn["conv1.w"].value)
    with pytest.raises(StateError, match="stage 'cnn' missing"):
        cnn_single(cov, incomplete)
    with pytest.raises(StateError, match="stage 'rnn' missing"):
        rnn_single(cov, incomplete)


def test_he_init_statistics():
    params = init_cnn_params(TrainConfig(), channels=8, seed=123)
    w = params["fc1.w"].value
    expected = np.sqrt(2.0 / w.shape[0])
    assert abs(w.std() - expected) < 0.1 * expected
    assert np.array_equal(params["fc1.b"].value, np.zeros(128))


def test_lstm_forget_bias_is_one():
    params = init_rnn_params(TrainConfig(), channels=8, seed=123)
    assert np.array_equal(gate_block(params["lstm1.b"].value, "f"), np.ones(64))
    assert np.array_equal(gate_block(params["lstm1.b"].value, "i"), np.zeros(64))


def test_rnn_file_layout_splits_and_joins_byte_for_byte(small_rnn):
    entries = split_rnn_gates(small_rnn)
    assert entries.names() == list(RNN_FILE_NAMES)
    assert entries.names()[4:7] == ["lstm1.wx_i", "lstm1.wh_i", "lstm1.b_i"]
    for gate in ("i", "f", "g", "o"):
        assert np.array_equal(entries[f"lstm2.wh_{gate}"].value,
                              gate_block(small_rnn["lstm2.wh"].value, gate))
    joined = join_rnn_gates(entries, "rnn.cvdp")
    assert joined.names() == list(RNN_PARAM_NAMES)
    assert store_bytes(joined) == store_bytes(small_rnn)


def test_extract_features_batch_matches_singles(small_cnn, small_rnn):
    rng = np.random.default_rng(32)
    covs = [random_cov(rng) for _ in range(3)]
    mats = np.stack([c.values for c in covs])
    batch = extract_features_batch(mats, small_cnn, small_rnn)
    for i, cov in enumerate(covs):
        assert np.allclose(batch[i], extract_features(cov, small_cnn, small_rnn), atol=1e-12)


def test_batch_order_does_not_change_per_sample_outputs(small_cnn, small_rnn):
    # no batch coupling anywhere in the model: permuting rows permutes outputs
    rng = np.random.default_rng(33)
    mats = np.stack([random_cov(rng).values for _ in range(5)])
    perm = np.array([3, 0, 4, 1, 2])
    straight = extract_features_batch(mats, small_cnn, small_rnn)
    shuffled = extract_features_batch(mats[perm], small_cnn, small_rnn)
    assert np.allclose(shuffled, straight[perm], atol=1e-12)
