import hashlib
import tracemalloc

import numpy as np
import pytest

from covdec import autodiff as ad
from covdec import autoenc, branches, training
from covdec.autodiff import Node
from covdec.autoenc import dae_loss, head_graph, init_dae_params, init_head_params
from covdec.branches import (
    branch_logits, cnn_graph, extract_features_batch, init_cnn_params, init_rnn_params, rnn_graph,
    split_rnn_gates,
)
from covdec.config import TrainConfig
from covdec.covariance import NormStats, Trial, ccv, standardize
from covdec.data import SynthSpec, gen_synth
from covdec.errors import DataError, NumericError
from covdec.params import ParamStore, adam_step
from covdec.training import (
    PipelineArtifacts,
    _derived_seeds,
    _fit,
    _score,
    _xent_eval,
    evaluate,
    predict_batch,
    run_training,
    split,
    train_stage1,
    train_stage2,
    train_stage3,
)

from conftest import TrialCounter, pin_note, store_bytes, zeroed


def small_config(**overrides) -> TrainConfig:
    base = dict(
        seed=3, classes=3, batch_size=8,
        epochs_stage1=5, epochs_stage2=8, epochs_stage3=5,
        cnn_filters1=8, cnn_filters2=8, cnn_fc1=32, cnn_feature=16,
        rnn_fc1=16, rnn_fc2=12, rnn_hidden1=10, rnn_hidden2=10,
        dae_hidden=16, dae_latent=8, head_hidden=8,
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


def synth_trials(seed=5, per_class=8, channels=6, samples=64, classes=3, noise=0.05):
    return gen_synth(SynthSpec(
        channels=channels, samples=samples, classes=classes,
        trials_per_class=per_class, noise_sigma=noise, seed=seed,
    ))


def prepared(trials, config):
    train_t, val_t = split(trials, config.split_fraction, config.seed, config.classes)
    train_mats, norm = standardize(np.stack([ccv(t, config.tau).values for t in train_t]))
    val_mats, _ = standardize(np.stack([ccv(t, config.tau).values for t in val_t]), norm)
    return (
        train_mats,
        np.array([t.label for t in train_t], dtype=np.int64),
        val_mats,
        np.array([t.label for t in val_t], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_exact_rounding_10_per_class():
    trials = synth_trials(per_class=10)
    train, val = split(trials, 0.8, seed=1, classes=3)
    assert len(train) == 24 and len(val) == 6
    for k in range(3):
        assert sum(t.label == k for t in train) == 8
        assert sum(t.label == k for t in val) == 2


def test_split_seven_trials_rounds_half_toward_train():
    trials = [t for t in synth_trials(per_class=7, classes=2)]
    train, val = split(trials, 0.8, seed=1, classes=2)
    for k in range(2):
        assert sum(t.label == k for t in train) == 6
        assert sum(t.label == k for t in val) == 1


def test_split_deterministic_under_seed():
    trials = synth_trials()
    a_train, a_val = split(trials, 0.8, seed=9, classes=3)
    b_train, b_val = split(trials, 0.8, seed=9, classes=3)
    assert [t.trial_id for t in a_train] == [t.trial_id for t in b_train]
    assert [t.trial_id for t in a_val] == [t.trial_id for t in b_val]
    c_train, _ = split(trials, 0.8, seed=10, classes=3)
    assert [t.trial_id for t in a_train] != [t.trial_id for t in c_train]


def test_split_disjoint_and_exhaustive():
    trials = synth_trials(per_class=9)
    train, val = split(trials, 0.7, seed=2, classes=3)
    train_ids = {t.trial_id for t in train}
    val_ids = {t.trial_id for t in val}
    assert not train_ids & val_ids
    assert train_ids | val_ids == {t.trial_id for t in trials}


def test_split_missing_class_is_data_error():
    trials = [t for t in synth_trials() if t.label != 1]
    with pytest.raises(DataError, match="class 1"):
        split(trials, 0.8, seed=1, classes=3)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def test_stage1_zero_epochs_returns_initialization():
    config = small_config(epochs_stage1=0)
    trials = synth_trials()
    train_x, train_y, val_x, val_y = prepared(trials, config)
    cnn, rnn = train_stage1(train_x, train_y, val_x, val_y, config)
    seeds = _derived_seeds(config.seed)
    fresh_cnn = init_cnn_params(config, 6, seeds["cnn_init"])
    fresh_rnn = init_rnn_params(config, 6, seeds["rnn_init"])
    assert store_bytes(cnn.params) == store_bytes(fresh_cnn)
    assert store_bytes(rnn.params) == store_bytes(fresh_rnn)
    assert cnn.epochs_run == 0


def test_stage1_initial_loss_is_near_uniform():
    config = small_config(epochs_stage1=1)
    trials = synth_trials()
    for branch in train_stage1(*prepared(trials, config), config):
        assert branch.curves[0].epoch == 0
        assert abs(branch.curves[0].train_loss - np.log(3.0)) < 0.2


def test_stage2_deterministic_bit_for_bit():
    config = small_config()
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(20, config.feature_width))
    a = train_stage2(feats, config)
    b = train_stage2(feats, config)
    assert store_bytes(a.params) == store_bytes(b.params)


@pytest.mark.parametrize("order, digest", [
    ("fc-first", "d05e5c84037171fb1bc511bb608a88886fb60a4a92266e987e0acf1288ae6a76"),
    ("lstm-first", "c7d176c7caa911c3fecbfe43c2debe035e3ba8f8339775af59ccd11b7f3490cf"),
])
def test_initial_weights_are_pinned(order, digest):
    # default widths, 8 channels: names, draws, shapes and order of all four stores
    config = TrainConfig(seed=11, rnn_order=order).validate()
    seeds = _derived_seeds(11)
    # the RNN store as rnn.cvdp lays it out: per-gate entries in file order
    stores = [
        init_cnn_params(config, 8, seeds["cnn_init"]),
        split_rnn_gates(init_rnn_params(config, 8, seeds["rnn_init"])),
        init_dae_params(config, seeds["dae_init"]),
        init_head_params(config, seeds["head_init"]),
    ]
    h = hashlib.sha256()
    for store in stores:
        for name, node in store.items():
            h.update(name.encode("utf-8"))
            h.update(node.value.astype("<f8").tobytes())
    assert h.hexdigest() == digest


def test_stage2_zero_epochs_keeps_initial_weights():
    config = small_config(epochs_stage2=0)
    feats = np.random.default_rng(1).normal(size=(10, config.feature_width))
    result = train_stage2(feats, config)
    fresh = init_dae_params(config, _derived_seeds(config.seed)["dae_init"])
    assert store_bytes(result.params) == store_bytes(fresh)
    assert float(dae_loss(feats, result.params).value) == result.curves[0].train_loss


def test_stage2_reduces_reconstruction_error():
    config = small_config(epochs_stage2=40)
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(30, config.feature_width))
    result = train_stage2(feats, config)
    assert float(dae_loss(feats, result.params).value) < 0.5 * result.curves[0].train_loss


@pytest.mark.parametrize("graph", ["cnn", "rnn-fc-first", "rnn-lstm-first", "dae", "head"])
def test_data_leaf_gets_no_gradient_and_moves_no_parameter_gradient(graph, monkeypatch):
    # one taped step over a data leaf ("input"), and the same step over an
    # ordinary leaf: only the leaf's own gradient may differ
    config = small_config()
    rng = np.random.default_rng(57)
    mats = rng.normal(size=(4, 6, 6))
    features = rng.normal(size=(4, config.feature_width))
    latents = rng.normal(size=(4, config.dae_latent))
    labels = [0, 1, 2, 0]

    def step(op):
        leaves = []

        def leaf(value, kind="leaf"):
            leaves.append(Node(value, op if kind == "input" else kind))
            return leaves[-1]

        monkeypatch.setattr(branches, "Node", leaf)
        monkeypatch.setattr(autoenc, "Node", leaf)
        if graph == "cnn":
            params = init_cnn_params(config, 6, seed=1)
            loss = lambda: ad.softmax_xent(branch_logits(cnn_graph(mats, params), params), labels)
        elif graph.startswith("rnn"):
            order = graph[len("rnn-"):]
            params = init_rnn_params(small_config(rnn_order=order), 6, seed=2)
            loss = lambda: ad.softmax_xent(
                branch_logits(rnn_graph(mats, params, order), params), labels)
        elif graph == "dae":
            params = init_dae_params(config, seed=3)
            loss = lambda: dae_loss(features, params)
        else:
            params = init_head_params(config, seed=4)
            loss = lambda: ad.softmax_xent(head_graph(latents, params), labels)
        with ad.tape():
            params.zero_grad()
            loss().backward()
        [data] = leaves
        return data, {name: node.grad.tobytes() for name, node in params.items()}

    data, grads = step("input")
    ordinary, ordinary_grads = step("leaf")
    assert data._grad is None and ordinary._grad is not None
    assert grads == ordinary_grads


def test_training_builds_its_cnn_and_head_graphs_over_data_leaves(monkeypatch):
    # every leaf the graph modules make while stages 1 and 3 train is data
    seen = []
    for module in (branches, autoenc):
        def spy(value, op="leaf", *args, name=module.__name__):
            seen.append((name, op))
            return Node(value, op, *args)

        monkeypatch.setattr(module, "Node", spy)
    config = small_config(epochs_stage1=1, epochs_stage3=1)
    train_stage1(*prepared(synth_trials(), config), config)
    rng = np.random.default_rng(58)
    train_stage3(rng.normal(size=(12, config.dae_latent)), rng.integers(0, 3, size=12),
                 rng.normal(size=(6, config.dae_latent)), rng.integers(0, 3, size=6), config)
    assert set(seen) == {("covdec.branches", "input"), ("covdec.autoenc", "input")}


def test_stage3_zero_epochs_and_determinism():
    config = small_config(epochs_stage3=0)
    rng = np.random.default_rng(3)
    latents = rng.normal(size=(20, config.dae_latent))
    labels = rng.integers(0, 3, size=20)
    vlat = rng.normal(size=(6, config.dae_latent))
    vlab = rng.integers(0, 3, size=6)
    result = train_stage3(latents, labels, vlat, vlab, config)
    fresh = init_head_params(config, _derived_seeds(config.seed)["head_init"])
    assert store_bytes(result.params) == store_bytes(fresh)


def test_early_stopping_returns_minimum_validation_checkpoint():
    # unlearnable labels force validation loss to climb while training overfits
    config = small_config(epochs_stage3=60, patience=60, lr_stage3=5e-3)
    rng = np.random.default_rng(4)
    latents = rng.normal(size=(24, config.dae_latent))
    labels = rng.integers(0, 3, size=24)
    vlat = rng.normal(size=(9, config.dae_latent))
    vlab = rng.integers(0, 3, size=9)
    result = train_stage3(latents, labels, vlat, vlab, config)
    val_losses = [c.val_loss for c in result.curves]
    assert result.best_epoch == int(np.argmin(val_losses))
    assert result.best_epoch < result.epochs_run  # checkpoint, not last epoch

    from covdec.autoenc import head_graph
    from covdec.training import _xent_eval

    loss, _ = _xent_eval(head_graph, result.params, vlat, vlab)
    assert loss == pytest.approx(min(val_losses), abs=1e-12)


def test_restore_returns_best_epoch_values_into_the_packed_store():
    rng = np.random.default_rng(12)
    store = ParamStore({"w": rng.normal(size=(4, 3)), "b": np.zeros(3)})
    x, y = rng.normal(size=(12, 4)), rng.integers(0, 3, size=12)

    def loss_fn(xb, yb):
        return ad.softmax_xent(ad.linear(Node(xb), store["w"], store["b"]), yb)

    # epoch 0 is the untrained store; epoch 1 is best, then two stale epochs
    scripted = iter([1.0, 0.5, 0.7, 0.9])
    seen = []

    def validate():
        seen.append({name: node.value.copy() for name, node in store.items()})
        return next(scripted), 0.0

    result = _fit(loss_fn, store, x, y, lr=0.01, epochs=10, batch_size=4, shuffle_seed=3,
                  stage="head", validate=validate, patience=2)
    assert (result.best_epoch, result.epochs_run) == (1, 3)
    assert result.params is store
    assert store_bytes(store) == {name: v.tobytes() for name, v in seen[1].items()}
    assert store_bytes(store) != {name: v.tobytes() for name, v in seen[3].items()}

    store.zero_grad()
    with ad.tape():
        loss_fn(x, y).backward()
    adam_step(store, lr=0.01, t=4)
    for name in store.names():
        assert not np.array_equal(store[name].value, seen[1][name])


def test_fit_records_each_step_on_its_own_tape_and_leaves_none_open():
    rng = np.random.default_rng(13)
    store = ParamStore({"w": rng.normal(size=(4, 3)), "b": np.zeros(3)})
    x, y = rng.normal(size=(8, 4)), rng.integers(0, 3, size=8)
    tapes = []

    def loss_fn(xb, yb):
        tapes.append(ad._tape.get())
        return ad.softmax_xent(ad.linear(Node(xb), store["w"], store["b"]), yb)

    _fit(loss_fn, store, x, y, lr=0.01, epochs=2, batch_size=4, shuffle_seed=3, stage="head")
    # the epoch-0 loss records nothing; each of the four steps opens a tape
    assert tapes[0] is None and all(t is not None for t in tapes[1:]) and len(tapes) == 5
    assert len({id(t) for t in tapes[1:]}) == 4 and all(t == [] for t in tapes[1:])
    assert ad._tape.get() is None

    def diverging(xb, _):
        tapes.append(ad._tape.get())
        return ad.mse(ad.linear(Node(xb), store["w"]), np.full((len(xb), 3), np.inf))

    with pytest.raises(NumericError, match="non-finite loss in stage 'head' at epoch 1, batch 0"):
        _fit(diverging, store, x, None, lr=0.01, epochs=2, batch_size=4, shuffle_seed=3,
             stage="head")
    assert tapes[-1] == [] and ad._tape.get() is None


def test_a_stage_that_raises_leaves_its_store_unpacked():
    rng = np.random.default_rng(14)
    store = ParamStore({"w": rng.normal(size=(4, 3)), "b": np.zeros(3)})
    x, y = rng.normal(size=(12, 4)), rng.integers(0, 3, size=12)
    calls = []

    def loss_fn(xb, yb):
        # the epoch-0 loss, one step that packs and updates the store, then
        # a non-finite loss
        calls.append(len(xb))
        if len(calls) == 3:
            return Node(np.nan)
        return ad.softmax_xent(ad.linear(Node(xb), store["w"], store["b"]), yb)

    with pytest.raises(NumericError, match="stage 'head' at epoch 1, batch 1"):
        _fit(loss_fn, store, x, y, lr=0.01, epochs=2, batch_size=4, shuffle_seed=3,
             stage="head", validate=lambda: (1.0, 0.0), patience=2)
    assert store._flat is None
    for name, node in store.items():
        assert node._grad is None and node.value.flags.owndata, name


def test_patience_off_returns_final_epoch_weights():
    config = small_config(epochs_stage3=30, patience=None)
    rng = np.random.default_rng(5)
    latents = rng.normal(size=(24, config.dae_latent))
    labels = rng.integers(0, 3, size=24)
    result = train_stage3(latents, labels, latents[:6], labels[:6], config)
    assert result.best_epoch == result.epochs_run == 30


def test_early_stopping_halts_on_stale_validation():
    config = small_config(epochs_stage3=500, patience=5)
    rng = np.random.default_rng(6)
    latents = rng.normal(size=(24, config.dae_latent))
    labels = rng.integers(0, 3, size=24)
    vlat = rng.normal(size=(9, config.dae_latent))
    vlab = rng.integers(0, 3, size=9)
    result = train_stage3(latents, labels, vlat, vlab, config)
    assert result.epochs_run < 500


# ---------------------------------------------------------------------------
# evaluation and the full run
# ---------------------------------------------------------------------------


def zero_param_artifacts(config, channels=6):
    seeds = _derived_seeds(config.seed)
    return PipelineArtifacts(
        config=config,
        classes=[f"class{k}" for k in range(config.classes)],
        cnn=zeroed(init_cnn_params(config, channels, seeds["cnn_init"])),
        rnn=zeroed(init_rnn_params(config, channels, seeds["rnn_init"])),
        dae=zeroed(init_dae_params(config, seeds["dae_init"])),
        head=zeroed(init_head_params(config, seeds["head_init"])),
        norm=NormStats(np.zeros((channels, channels)), np.ones((channels, channels))),
    )


def test_evaluate_all_predictions_class_zero_on_balanced_set():
    config = small_config()
    artifacts = zero_param_artifacts(config)
    trials = synth_trials(per_class=4)
    result = evaluate(trials, artifacts)
    assert result.accuracy == pytest.approx(1.0 / 3.0)
    assert np.array_equal(result.confusion.sum(axis=0), [12, 0, 0])


def test_evaluate_perfect_predictions_give_diagonal_confusion():
    rng = np.random.default_rng(7)
    config = small_config()
    artifacts = zero_param_artifacts(config)
    mats = rng.normal(size=(9, 6, 6))
    labels = np.zeros(9, dtype=np.int64)  # zero-param pipeline predicts class 0
    predicted, _ = predict_batch(mats, artifacts)
    result = _score(labels, predicted, config.classes)
    assert result.accuracy == 1.0
    assert np.array_equal(result.confusion, np.diag([9, 0, 0]))


def test_evaluate_empty_set_is_data_error():
    config = small_config()
    with pytest.raises(DataError, match="empty"):
        evaluate([], zero_param_artifacts(config))


def test_run_training_report_invariants():
    config = small_config()
    trials = synth_trials()
    outcome = run_training(trials, ["a", "b", "c"], config)
    val = outcome.val_eval
    # confusion row sums equal per-class validation counts
    _, val_trials = split(trials, config.split_fraction, config.seed, 3)
    for k in range(3):
        assert val.confusion[k].sum() == sum(t.label == k for t in val_trials)
    assert val.accuracy == pytest.approx(np.trace(val.confusion) / val.count, abs=1e-12)
    # one record per stage, in curves.csv order, each holding its stage's store
    assert list(outcome.stages) == ["cnn", "rnn", "dae", "head"]
    assert [c.stage for c in outcome.curves] == [
        name for name, result in outcome.stages.items() for _ in result.curves]
    for name, result in outcome.stages.items():
        assert result.params is getattr(outcome.artifacts, name)


def _relabelled(trials, index, label):
    """`trials` with the one at `index` given `label`."""
    t = trials[index]
    return [*trials[:index], Trial(t.data, label, t.subject_id, t.trial_id), *trials[index + 1:]]


def test_run_training_rejects_an_out_of_range_label_before_any_stage(monkeypatch):
    def no_stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(training, "train_stage1", no_stage)
    trials = _relabelled(synth_trials(), 5, 7)
    with pytest.raises(DataError, match=r"^trial at index 5: label 7 out of range \[0, 3\)$"):
        run_training(trials, ["a", "b", "c"], small_config())


def test_evaluate_rejects_an_out_of_range_label_before_the_network_runs(monkeypatch):
    def no_pass(*args):
        raise AssertionError("the network ran")

    monkeypatch.setattr(training, "predict_batch", no_pass)
    trials = [Trial(t.data, 5, t.subject_id, t.trial_id) for t in synth_trials(per_class=1)]
    with pytest.raises(DataError, match=r"^trial at index 0: label 5 out of range \[0, 3\)$"):
        evaluate(trials, zero_param_artifacts(small_config()))


def test_run_training_class_count_mismatch():
    config = small_config()
    with pytest.raises(DataError, match="classes"):
        run_training(synth_trials(), ["a", "b"], config)


def test_stage_isolation_weights_untouched_by_later_stages():
    config = small_config()
    trials = synth_trials()
    train_x, train_y, val_x, val_y = prepared(trials, config)
    cnn, rnn = train_stage1(train_x, train_y, val_x, val_y, config)
    cnn_bytes = store_bytes(cnn.params)
    rnn_bytes = store_bytes(rnn.params)

    from covdec.branches import extract_features_batch

    feats = extract_features_batch(train_x, cnn.params, rnn.params)
    stage2 = train_stage2(feats, config)
    dae_bytes = store_bytes(stage2.params)

    from covdec.autoenc import dae_encode

    latents = dae_encode(feats, stage2.params)
    val_feats = extract_features_batch(val_x, cnn.params, rnn.params)
    val_latents = dae_encode(val_feats, stage2.params)
    train_stage3(latents, train_y, val_latents, val_y, config)

    assert store_bytes(cnn.params) == cnn_bytes
    assert store_bytes(rnn.params) == rnn_bytes
    assert store_bytes(stage2.params) == dae_bytes


def test_validation_perturbation_canary_exact_epoch_mode():
    config = small_config(patience=None)
    trials = synth_trials()
    _, val_trials = split(trials, config.split_fraction, config.seed, 3)
    val_ids = {t.trial_id for t in val_trials}
    rng = np.random.default_rng(8)
    perturbed = [
        Trial(
            t.data + (rng.normal(size=t.data.shape) if t.trial_id in val_ids else 0.0),
            t.label, t.subject_id, t.trial_id,
        )
        for t in trials
    ]
    a = run_training(trials, ["a", "b", "c"], config)
    b = run_training(perturbed, ["a", "b", "c"], config)
    for stage in ("cnn", "rnn", "dae", "head"):
        assert store_bytes(getattr(a.artifacts, stage)) == store_bytes(getattr(b.artifacts, stage))
    assert a.artifacts.norm.mean.tobytes() == b.artifacts.norm.mean.tobytes()
    assert a.artifacts.norm.std.tobytes() == b.artifacts.norm.std.tobytes()


def _eval_bytes(result):
    return (result.accuracy, result.count, result.confusion.tobytes(),
            result.precision.tobytes(), result.recall.tobytes())


def test_streamed_trials_are_held_one_at_a_time_with_identical_results():
    config = small_config()
    trials = synth_trials()
    counter = TrialCounter()
    streamed = run_training(counter.stream(trials), ["a", "b", "c"], config)
    assert counter.made == len(trials)
    assert counter.peak == 1
    listed = run_training(trials, ["a", "b", "c"], config)
    for stage in ("cnn", "rnn", "dae", "head"):
        assert (store_bytes(getattr(streamed.artifacts, stage))
                == store_bytes(getattr(listed.artifacts, stage)))
    assert streamed.artifacts.norm.mean.tobytes() == listed.artifacts.norm.mean.tobytes()
    assert streamed.artifacts.norm.std.tobytes() == listed.artifacts.norm.std.tobytes()
    assert streamed.curves == listed.curves
    assert _eval_bytes(streamed.val_eval) == _eval_bytes(listed.val_eval)

    counter = TrialCounter()
    result = evaluate(counter.stream(trials), listed.artifacts)
    assert counter.made == len(trials)
    assert counter.peak == 1
    assert _eval_bytes(result) == _eval_bytes(evaluate(trials, listed.artifacts))


def _resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * 4096


@pytest.mark.skipif(training._malloc_trim is None, reason="needs glibc malloc_trim")
def test_release_freed_memory_returns_pages_pinned_below_a_live_block():
    # 64 KiB blocks come from the heap, not from mmap; the small block made
    # after them sits above, so freeing them alone gives nothing back
    blocks = [bytearray(64 * 1024) for _ in range(400)]
    for b in blocks:  # touch every page: fresh heap from calloc is not written
        b[::4096] = b"\1" * 16
    pin = bytearray(1024)
    del blocks
    before = _resident_bytes()
    training.release_freed_memory()
    assert before - _resident_bytes() > 400 * 64 * 1024 // 2
    del pin


def test_run_training_releases_freed_memory_once_at_the_end(monkeypatch):
    calls = []
    real_stage3 = training.train_stage3
    monkeypatch.setattr(training, "train_stage3",
                        lambda *a, **k: calls.append("stage3") or real_stage3(*a, **k))
    monkeypatch.setattr(training, "release_freed_memory", lambda: calls.append("release"))
    run_training(synth_trials(), ["a", "b", "c"], small_config())
    assert calls == ["stage3", "release"]


def test_final_evaluation_equals_evaluate_on_each_split():
    # run_training scores its stage-3 latents; evaluate recomputes them from the trials
    config = small_config()
    trials = synth_trials()
    outcome = run_training(trials, ["a", "b", "c"], config)
    train_t, val_t = split(trials, config.split_fraction, config.seed, config.classes)
    assert _eval_bytes(outcome.train_eval) == _eval_bytes(evaluate(train_t, outcome.artifacts))
    assert _eval_bytes(outcome.val_eval) == _eval_bytes(evaluate(val_t, outcome.artifacts))


def _random_artifacts(channels: int) -> PipelineArtifacts:
    config = TrainConfig(classes=3).validate()
    return PipelineArtifacts(
        config=config, classes=["a", "b", "c"],
        cnn=init_cnn_params(config, channels, 1), rnn=init_rnn_params(config, channels, 2),
        dae=init_dae_params(config, 3), head=init_head_params(config, 4),
        norm=NormStats(np.zeros((channels, channels)), np.ones((channels, channels))),
    )


def test_predict_batch_peak_memory_is_at_most_half_of_a_recorded_pass():
    artifacts = _random_artifacts(channels=32)
    mats = np.random.default_rng(9).normal(size=(64, 32, 32))

    def traced_predict():
        tracemalloc.start()
        try:
            labels, probs = predict_batch(mats, artifacts)
            return tracemalloc.get_traced_memory()[1], probs.tobytes()
        finally:
            tracemalloc.stop()

    peak, probs = traced_predict()
    # the same forward pass with the backward tape recorded
    with ad.tape():
        recorded_peak, recorded_probs = traced_predict()
    assert probs == recorded_probs
    assert peak <= 0.5 * recorded_peak, (peak, recorded_peak)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 200])
def test_chunked_forward_is_byte_identical_to_one_batch(n, monkeypatch):
    import covdec.branches as branches

    artifacts = _random_artifacts(channels=8)
    cfg = artifacts.config
    mats = np.random.default_rng(n).normal(size=(n, 8, 8))

    def run():
        features = extract_features_batch(mats, artifacts.cnn, artifacts.rnn,
                                          cfg.rnn_order, cfg.rnn_axis)
        labels, probs = predict_batch(mats, artifacts)
        return features.tobytes(), labels.tobytes(), probs.tobytes()

    chunked = run()
    monkeypatch.setattr(branches, "_CHUNK", n + 1)  # one chunk: the whole batch
    assert run() == chunked, pin_note()


@pytest.mark.parametrize("n", [63, 64, 127, 128, 129, 240])
def test_chunked_head_pass_is_byte_identical_to_one_batch(n, monkeypatch):
    import covdec.branches as branches

    config = TrainConfig(classes=3).validate()
    head = init_head_params(config, 4)
    rng = np.random.default_rng(n)
    latents = np.maximum(rng.normal(size=(n, config.dae_latent)), 0.0)
    labels = rng.integers(0, config.classes, size=n)

    def run():
        loss, acc = _xent_eval(head_graph, head, latents, labels)
        return np.float64(loss).tobytes(), np.float64(acc).tobytes()

    chunked = run()
    monkeypatch.setattr(branches, "_CHUNK", n + 1)  # one chunk: the whole batch
    assert run() == chunked


def test_predict_batch_peak_memory_is_flat_in_the_trial_count():
    artifacts = _random_artifacts(channels=32)
    peaks = {}
    for n in (64, 256):
        mats = np.random.default_rng(n).normal(size=(n, 32, 32))
        tracemalloc.start()
        try:
            predict_batch(mats, artifacts)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a single batch of 256 trials would peak near four times the 64-trial pass
    assert peaks[256] <= 1.1 * peaks[64], peaks


def test_run_training_leaves_no_store_packed():
    outcome = run_training(synth_trials(), ["a", "b", "c"], small_config())
    for stage in ("cnn", "rnn", "dae", "head"):
        store = getattr(outcome.artifacts, stage)
        assert store._flat is None, stage
        for name, node in store.items():
            assert node._grad is None, (stage, name)
            assert node.value.flags.owndata, (stage, name)
