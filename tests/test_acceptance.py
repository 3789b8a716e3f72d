"""Acceptance gate: one criterion per test, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Headline per-subject accuracies on the real 15-subject
recordings (kept as non-asserted reference targets in
covdec.data.REFERENCE_LONG_WORD_ACCURACY) are not desk-reproducible; the gate
rests on the property suite below.
"""

import hashlib
import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from covdec import params as ps
from covdec.autodiff import Node
from covdec.branches import cnn_graph, rnn_graph
from covdec.cli import main
from covdec.covariance import Trial, ccv, standardize
from covdec.data import (
    REFERENCE_LONG_WORD_ACCURACY,
    SynthSpec,
    gen_synth,
    load,
    save_trial,
)
from covdec.errors import ParseError
from covdec.gradcheck import run_suite
from covdec.report import (
    STAGE_FILES, load_artifacts, load_report_json, read_curves_csv, save_run,
)
from covdec.training import run_training, split, train_stage1, train_stage2, train_stage3
from covdec.config import TrainConfig

from conftest import store_bytes
from test_covariance import brute_ccv

ACCEPT_SYNTH = dict(channels=8, samples=128, classes=3, trials_per_class=40)
ACCEPT_SEED_DATA = 7
ACCEPT_SEED_RUN = 11


def criterion(name: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def acceptance_run(tmp_path_factory):
    """Full-scale synthetic run through the CLI: gen-synth then train."""
    root = tmp_path_factory.mktemp("acceptance")
    data_dir = root / "data"
    run_dir = root / "run"
    rc = main([
        "gen-synth", "--out", str(data_dir),
        "--channels", str(ACCEPT_SYNTH["channels"]),
        "--samples", str(ACCEPT_SYNTH["samples"]),
        "--classes", str(ACCEPT_SYNTH["classes"]),
        "--trials-per-class", str(ACCEPT_SYNTH["trials_per_class"]),
        "--noise", "0.05", "--seed", str(ACCEPT_SEED_DATA),
    ])
    assert rc == 0
    start = time.perf_counter()
    rc = main([
        "train", "--data", str(data_dir / "manifest.txt"),
        "--out", str(run_dir), "--seed", str(ACCEPT_SEED_RUN),
    ])
    elapsed = time.perf_counter() - start
    assert rc == 0
    return {"data": data_dir, "run": run_dir, "train_seconds": elapsed}


def test_gradient_fidelity():
    start = time.perf_counter()
    results = run_suite(seed=0)
    elapsed = time.perf_counter() - start
    worst = max(results, key=lambda r: r.rel_err)
    ok = all(r.rel_err < 1e-4 for r in results) and elapsed < 60.0
    criterion(
        "gradient fidelity",
        ok,
        f"{len(results)} ops, worst {worst.name} rel_err {worst.rel_err:.2e} "
        f"(< 1e-4), suite {elapsed:.1f}s (< 60s)",
    )


def test_covariance_oracle():
    rng = np.random.default_rng(100)
    worst_def = 0.0
    worst_psd = 0.0
    worst_scale = 0.0
    for _ in range(100):
        c = int(rng.integers(2, 9))
        t_len = int(rng.integers(4, 65))
        data = rng.normal(size=(c, t_len)) * rng.uniform(0.1, 10.0)
        m = ccv(Trial(data, label=0)).values
        worst_def = max(worst_def, float(np.max(np.abs(m - brute_ccv(data)))))
        assert np.array_equal(m, m.T), "symmetry must be exact"
        for _ in range(100):
            x = rng.normal(size=c)
            margin = x @ m @ x + 1e-9 * (x @ x)
            worst_psd = min(worst_psd, float(margin))
        alpha = float(rng.uniform(0.5, 3.0))
        scaled = ccv(Trial(alpha * data, label=0)).values
        rel = np.max(np.abs(scaled - alpha**2 * m)) / max(np.max(np.abs(scaled)), 1e-300)
        worst_scale = max(worst_scale, float(rel))
    ok = worst_def < 1e-10 and worst_psd >= 0.0 and worst_scale < 1e-9
    criterion(
        "covariance oracle",
        ok,
        f"100 trials: |ccv - brute| max {worst_def:.2e} (< 1e-10), symmetry exact, "
        f"PSD margin ok, scale equivariance {worst_scale:.2e} (< 1e-9)",
    )


def _branch_train_accuracy(run_dir, data_dir):
    artifacts = load_artifacts(run_dir)
    cfg = artifacts.config
    trials, _ = load(data_dir / "manifest.txt")
    train_trials, _ = split(list(trials), cfg.split_fraction, cfg.seed, cfg.classes)
    mats, _ = standardize(np.stack([ccv(t, cfg.tau).values for t in train_trials]),
                          artifacts.norm)
    labels = np.array([t.label for t in train_trials])
    _, cnn_logits = cnn_graph(Node(mats), artifacts.cnn)
    _, rnn_logits = rnn_graph(mats, artifacts.rnn, cfg.rnn_order, cfg.rnn_axis)
    cnn_acc = float(np.mean(np.argmax(cnn_logits.value, axis=1) == labels))
    rnn_acc = float(np.mean(np.argmax(rnn_logits.value, axis=1) == labels))
    return cnn_acc, rnn_acc


def test_synthetic_convergence(acceptance_run):
    report = load_report_json(acceptance_run["run"])
    curves = read_curves_csv(acceptance_run["run"] / "curves.csv")
    epochs = {
        stage: max(c.epoch for c in curves if c.stage == stage)
        for stage in ("cnn", "rnn")
    }
    cnn_acc, rnn_acc = _branch_train_accuracy(
        acceptance_run["run"], acceptance_run["data"]
    )
    val_acc = report["val_accuracy"]
    train_acc = report["train_accuracy"]
    elapsed = acceptance_run["train_seconds"]
    ok = (
        cnn_acc >= 0.95 and rnn_acc >= 0.95
        and epochs["cnn"] <= 100 and epochs["rnn"] <= 100
        and val_acc >= 0.90 and train_acc >= 0.95 and elapsed < 600.0
    )
    criterion(
        "synthetic convergence",
        ok,
        f"branch train acc cnn {cnn_acc:.3f} / rnn {rnn_acc:.3f} (>= 0.95 within "
        f"{epochs['cnn']}/{epochs['rnn']} epochs <= 100), pipeline val acc "
        f"{val_acc:.3f} (>= 0.90), train acc {train_acc:.3f} (>= 0.95), "
        f"runtime {elapsed:.0f}s (< 600s)",
    )


def test_chance_level_sanity():
    spec = SynthSpec(**ACCEPT_SYNTH, noise_sigma=1000.0, seed=ACCEPT_SEED_DATA)
    trials = gen_synth(spec)
    config = TrainConfig(seed=ACCEPT_SEED_RUN, classes=3).validate()
    outcome = run_training(trials, ["class0", "class1", "class2"], config)
    val_acc = outcome.val_eval.accuracy
    chance = 1.0 / 3.0
    ok = abs(val_acc - chance) <= 0.15
    criterion(
        "chance-level sanity",
        ok,
        f"dominant noise val acc {val_acc:.3f} within 1/3 +/- 0.15",
    )


def test_hard_preset_digest(tmp_path):
    # noisy enough that accuracy is off its ceiling and early stopping fires
    # and restores a checkpoint in all three supervised stages
    trials = gen_synth(SynthSpec(seed=7, noise_sigma=2.5, trials_per_class=100))
    config = TrainConfig(seed=11, epochs_stage1=20, epochs_stage2=40, epochs_stage3=20,
                         patience=5).validate()
    outcome = run_training(trials, ["class0", "class1", "class2"], config)
    stages = {s.curves[0].stage: (s.best_epoch, s.epochs_run)
              for s in (outcome.stage1.cnn, outcome.stage1.rnn, outcome.stage2, outcome.stage3)}
    save_run(tmp_path, outcome)
    curves = hashlib.sha256((tmp_path / "curves.csv").read_bytes()).hexdigest()
    ok = (outcome.val_eval.accuracy == 48 / 60
          and outcome.val_eval.confusion.tolist() == [[14, 1, 5], [1, 19, 0], [5, 0, 15]]
          and stages == {"cnn": (3, 8), "rnn": (7, 12), "dae": (40, 40), "head": (10, 15)}
          and curves == "17c9e9be539796e5bf1180b07aadc8b448472c64bed482439a9ac3d1164fe3b5")
    criterion(
        "hard preset digest",
        ok,
        f"val acc {outcome.val_eval.accuracy:.3f}, confusion "
        f"{outcome.val_eval.confusion.tolist()}, (best epoch, epochs run) {stages}, "
        f"curves.csv sha256 {curves[:12]}",
    )


def test_dae_progress(acceptance_run):
    curves = read_curves_csv(acceptance_run["run"] / "curves.csv")
    dae = [c for c in curves if c.stage == "dae"]
    initial = next(c.train_loss for c in dae if c.epoch == 0)
    final = dae[-1].train_loss
    ok = final <= 0.5 * initial
    criterion(
        "dae progress",
        ok,
        f"stage-2 training MSE {initial:.4g} -> {final:.4g} "
        f"({100.0 * final / initial:.1f}% of epoch-0, <= 50%)",
    )


def test_determinism(acceptance_run, tmp_path):
    manifest = acceptance_run["data"] / "manifest.txt"
    runs = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = main(["train", "--data", str(manifest), "--out", str(out),
                   "--seed", "23", "--epochs", "6,8,6"])
        assert rc == 0
        runs.append(out)
    same_weights = all(
        (runs[0] / f"{stage}.cvdp").read_bytes() == (runs[1] / f"{stage}.cvdp").read_bytes()
        for stage in ("cnn", "rnn", "dae", "head", "norm")
    )
    a = load_report_json(runs[0])
    b = load_report_json(runs[1])
    a.pop("wall_clock")
    b.pop("wall_clock")
    ok = same_weights and a == b
    criterion(
        "determinism",
        ok,
        "identical seed/config: weight files byte-identical, "
        "report metric fields identical",
    )


def test_stage_isolation_and_leakage_canary():
    spec = SynthSpec(channels=6, samples=64, classes=3, trials_per_class=8,
                     noise_sigma=0.05, seed=31)
    trials = gen_synth(spec)
    config = TrainConfig(
        seed=17, classes=3, batch_size=8, patience=None,
        epochs_stage1=4, epochs_stage2=6, epochs_stage3=4,
        cnn_filters1=8, cnn_filters2=8, cnn_fc1=32, cnn_feature=16,
        rnn_fc1=16, rnn_fc2=12, rnn_hidden1=10, rnn_hidden2=10,
        dae_hidden=16, dae_latent=8, head_hidden=8,
    ).validate()

    # stage isolation: later stages leave earlier weights bit-identical
    from covdec.autoenc import dae_encode
    from covdec.branches import extract_features_batch

    train_t, val_t = split(trials, config.split_fraction, config.seed, 3)
    train_mats, norm = standardize(np.stack([ccv(t).values for t in train_t]))
    val_mats, _ = standardize(np.stack([ccv(t).values for t in val_t]), norm)
    train_y = np.array([t.label for t in train_t])
    val_y = np.array([t.label for t in val_t])

    stage1 = train_stage1(train_mats, train_y, val_mats, val_y, config)
    cnn_before = store_bytes(stage1.cnn.params)
    rnn_before = store_bytes(stage1.rnn.params)
    feats = extract_features_batch(train_mats, stage1.cnn.params, stage1.rnn.params)
    stage2 = train_stage2(feats, config)
    dae_before = store_bytes(stage2.params)
    latents = dae_encode(feats, stage2.params)
    val_feats = extract_features_batch(val_mats, stage1.cnn.params, stage1.rnn.params)
    val_latents = dae_encode(val_feats, stage2.params)
    train_stage3(latents, train_y, val_latents, val_y, config)
    isolated = (
        store_bytes(stage1.cnn.params) == cnn_before
        and store_bytes(stage1.rnn.params) == rnn_before
        and store_bytes(stage2.params) == dae_before
    )

    # leakage canary: exact-epoch runs with perturbed validation trials must
    # produce bit-identical trained weights
    val_ids = {t.trial_id for t in val_t}
    rng = np.random.default_rng(63)
    perturbed = [
        Trial(
            t.data + (rng.normal(size=t.data.shape) if t.trial_id in val_ids else 0.0),
            t.label, t.subject_id, t.trial_id,
        )
        for t in trials
    ]
    run_a = run_training(trials, ["a", "b", "c"], config)
    run_b = run_training(perturbed, ["a", "b", "c"], config)
    unleaked = all(
        store_bytes(getattr(run_a.artifacts, stage))
        == store_bytes(getattr(run_b.artifacts, stage))
        for stage in ("cnn", "rnn", "dae", "head")
    ) and run_a.artifacts.norm.mean.tobytes() == run_b.artifacts.norm.mean.tobytes()

    criterion(
        "stage isolation and leakage canary",
        isolated and unleaked,
        f"stage-1/2 weights bit-identical after later stages ({isolated}); "
        f"validation perturbation changed no trained weight ({unleaked})",
    )


def test_format_roundtrips(tmp_path):
    rng = np.random.default_rng(41)
    # TrialFile: save -> load -> save is byte-exact
    trial = Trial(
        rng.normal(size=(5, 40)).astype(np.float32).astype(np.float64),
        label=2, subject_id="S1", trial_id="t",
    )
    p1, p2 = tmp_path / "a.eegt", tmp_path / "b.eegt"
    save_trial(p1, trial, sample_rate_hz=512.0)
    from covdec.data import load_trial

    loaded, rate = load_trial(p1)
    save_trial(p2, loaded, sample_rate_hz=rate)
    trial_ok = p1.read_bytes() == p2.read_bytes()

    # ParamStore: save -> load -> save is byte-exact, moments included
    store = ps.ParamStore()
    store.add("w", rng.normal(size=(4, 3)))
    store.add("b", rng.normal(size=3))
    store["w"].grad[...] = 0.5
    store["b"].grad[...] = -0.25
    ps.adam_step(store, lr=1e-3, t=1)
    s1, s2 = tmp_path / "a.cvdp", tmp_path / "b.cvdp"
    ps.save(store, s1)
    ps.save(ps.load(s1), s2)
    store_ok = s1.read_bytes() == s2.read_bytes()

    # corrupted files fail with located parse errors
    located = 0
    blob = p1.read_bytes()
    p1.write_bytes(blob[: len(blob) - 3])
    with pytest.raises(ParseError, match=r"byte \d+"):
        load_trial(p1)
    located += 1
    blob = s1.read_bytes()
    s1.write_bytes(blob[: len(blob) - 3])
    with pytest.raises(ParseError, match=r"byte \d+"):
        ps.load(s1)
    located += 1

    ok = trial_ok and store_ok and located == 2
    criterion(
        "format round-trip",
        ok,
        f"trial bytes identical ({trial_ok}), weights bytes identical "
        f"({store_ok}), corrupted files raise located parse errors",
    )


def bench_reference():
    """bench/reference.py, the benchmark's independent decoder, imported read-only."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_weights_load_as_the_reference_reader_reads_them(acceptance_run):
    read_cvdp = bench_reference().read_cvdp
    entries = 0
    for stage in STAGE_FILES + ("norm",):
        path = acceptance_run["run"] / f"{stage}.cvdp"
        loaded, reference = ps.load(path), read_cvdp(path)
        assert loaded.names() == list(reference), stage
        for name, want in reference.items():
            got = loaded[name].value
            assert got.dtype == np.float64 and got.shape == want.shape, (stage, name)
            assert got.flags["C_CONTIGUOUS"] and got.flags["ALIGNED"], (stage, name)
            assert got.flags["WRITEABLE"], (stage, name)
            assert got.tobytes() == want.tobytes(), (stage, name)
            entries += 1
    criterion(
        "weights read as documented",
        True,
        f"{entries} entries in {len(STAGE_FILES) + 1} files: names, order, shapes and "
        f"bytes equal to the reference reader's",
    )


def test_reference_targets_recorded():
    # comparison targets for real-dataset runs; not asserted against outputs
    assert set(REFERENCE_LONG_WORD_ACCURACY) == {"S2", "S3", "S6", "S7", "S9", "S11"}
    assert all(0.0 < v <= 100.0 for v in REFERENCE_LONG_WORD_ACCURACY.values())
    criterion(
        "reference targets recorded (not desk-reproducible)",
        True,
        "per-subject long-word accuracies kept as comparison targets for "
        "real-dataset runs",
    )
