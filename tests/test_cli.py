import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covdec
import covdec.autodiff
from covdec.cli import main
from covdec.config import config_from_file
from covdec.data import load
from covdec.params import ParamStore, load as load_store, save as save_store
from covdec.report import load_artifacts, load_report_json, read_curves_csv
from covdec.training import _derived_seeds
from covdec.branches import init_cnn_params

from conftest import TrialCounter, store_bytes

CONFIG_SMALL = """
batch_size = 8
epochs_stage1 = 6
epochs_stage2 = 10
epochs_stage3 = 6
cnn_filters1 = 8
cnn_filters2 = 8
cnn_fc1 = 32
cnn_feature = 16
rnn_fc1 = 16
rnn_fc2 = 12
rnn_hidden1 = 10
rnn_hidden2 = 10
dae_hidden = 16
dae_latent = 8
head_hidden = 8
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    rc = main([
        "gen-synth", "--out", str(root), "--channels", "6", "--samples", "64",
        "--classes", "3", "--trials-per-class", "8", "--seed", "21",
    ])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, dataset):
    root = tmp_path_factory.mktemp("run")
    config = root / "config.txt"
    config.write_text(CONFIG_SMALL)
    run_dir = root / "out"
    rc = main([
        "train", "--data", str(dataset / "manifest.txt"),
        "--config", str(config), "--out", str(run_dir), "--seed", "13",
    ])
    assert rc == 0
    return run_dir


def test_train_writes_full_run_directory(trained_run):
    # exactly these files: report.json is the only report
    assert sorted(p.name for p in trained_run.iterdir()) == sorted([
        "cnn.cvdp", "rnn.cvdp", "dae.cvdp", "head.cvdp", "norm.cvdp",
        "config.txt", "classes.txt", "curves.csv", "report.json",
    ])
    report = load_report_json(trained_run)
    assert 0.0 <= report["val_accuracy"] <= 1.0
    assert report["config"]["seed"] == 13  # flag overrode the file default


def test_eval_prints_accuracy_and_confusion(trained_run, dataset, capsys):
    rc = main(["eval", "--data", str(dataset / "manifest.txt"),
               "--weights", str(trained_run)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "accuracy = " in out
    assert "confusion matrix" in out


def test_predict_probabilities_sum_to_one(trained_run, dataset, capsys):
    rc = main(["predict", "--trial", str(dataset / "trials" / "t0000.eegt"),
               "--weights", str(trained_run)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("class = class")
    probs = [float(line.split("=")[1]) for line in out.splitlines() if "p(" in line]
    assert len(probs) == 3
    assert abs(sum(probs) - 1.0) < 1e-9


def test_report_renders_summary(trained_run, capsys):
    rc = main(["report", "--run", str(trained_run)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "val accuracy" in out
    for stage in ("cnn", "rnn", "dae", "head"):
        assert f"{stage}:" in out
    report = load_report_json(trained_run)
    lines = out.splitlines()
    start = lines.index("val precision / recall per class:")
    for i, name in enumerate(report["classes"]):
        p, r = report["precision"][i], report["recall"][i]
        assert lines[start + 1 + i].split() == [name, f"{p:.4f}", "/", f"{r:.4f}"]
    start = lines.index("val confusion matrix (rows = true, cols = predicted):")
    for i, (name, row) in enumerate(zip(report["classes"], report["confusion"])):
        assert lines[start + 1 + i].split() == [name, *map(str, row)]
    start = lines.index("wall clock (seconds):")
    assert [line.split()[0] for line in lines[start + 1:]] == list(report["wall_clock"])


def test_zero_epoch_run_keeps_init_weights_and_emits_report(dataset, tmp_path, capsys):
    run_dir = tmp_path / "zero"
    rc = main(["train", "--data", str(dataset / "manifest.txt"),
               "--out", str(run_dir), "--seed", "4", "--epochs", "0,0,0"])
    assert rc == 0
    config = config_from_file(run_dir / "config.txt")
    fresh = init_cnn_params(config, 6, _derived_seeds(4)["cnn_init"])
    saved = load_store(run_dir / "cnn.cvdp")
    assert store_bytes(saved) == store_bytes(fresh)
    curves = read_curves_csv(run_dir / "curves.csv")
    assert all(c.epoch == 0 for c in curves)  # flat: only the init row per stage
    assert (run_dir / "report.json").exists()

    capsys.readouterr()
    rc = main(["report", "--run", str(run_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 epochs" in out


def test_missing_manifest_exits_3_naming_path(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "nope.txt" in err


def test_missing_stage_weights_exits_2_naming_stage(trained_run, dataset, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(trained_run, broken)
    (broken / "head.cvdp").unlink()
    rc = main(["eval", "--data", str(dataset / "manifest.txt"), "--weights", str(broken)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "head" in err


def test_config_classes_mismatch_exits_3(dataset, tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text("classes = 5\n")
    rc = main(["train", "--data", str(dataset / "manifest.txt"),
               "--config", str(config), "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "classes" in capsys.readouterr().err


@pytest.mark.parametrize("fraction, split, advice", [
    ("0.01", "training", "raise"),
    ("0.99", "validation", "lower"),
])
def test_empty_split_exits_3_naming_split_count_and_fraction(dataset, tmp_path, capsys,
                                                             fraction, split, advice):
    config = tmp_path / "config.txt"
    config.write_text(f"split_fraction = {fraction}\n")
    rc = main(["train", "--data", str(dataset / "manifest.txt"),
               "--config", str(config), "--out", str(tmp_path / "run")])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: {split} split is empty (24 trials at fraction {fraction}); "
        f"add trials or {advice} the fraction\n"
    )
    assert not (tmp_path / "run").exists()


def test_unknown_config_key_exits_2(dataset, tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text("learning_rate = 0.1\n")
    rc = main(["train", "--data", str(dataset / "manifest.txt"),
               "--config", str(config), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "learning_rate" in capsys.readouterr().err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["gen-synth", "--out", "data"], ["gradcheck"]])
def test_negative_seed_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    rc = main([*command, "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "data").exists()


def test_gradcheck_passes_and_is_deterministic(capsys):
    assert main(["gradcheck", "--seed", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["gradcheck", "--seed", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("ok") == 10


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    # test-only hook: break one op's backward and expect a named failure
    true_linear = covdec.autodiff.linear

    def corrupted(*args):
        out = true_linear(*args)
        original = out._backward

        def backward(g):
            original(g * 1.5)

        out._backward = backward
        return out

    monkeypatch.setattr(covdec.autodiff, "linear", corrupted)
    rc = main(["gradcheck", "--seed", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "linear" in err


def test_bad_epochs_flag_exits_2(dataset, tmp_path, capsys):
    rc = main(["train", "--data", str(dataset / "manifest.txt"),
               "--out", str(tmp_path / "run"), "--epochs", "1,2"])
    assert rc == 2
    assert "--epochs" in capsys.readouterr().err


def test_numeric_abort_exits_4(dataset, tmp_path, capsys, monkeypatch):
    import covdec.cli as cli
    from covdec.errors import NumericError

    def abort(*args, **kwargs):
        raise NumericError("non-finite loss in stage 'cnn' at epoch 1, batch 0")

    monkeypatch.setattr(cli, "run_training", abort)
    rc = main(["train", "--data", str(dataset / "manifest.txt"),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "non-finite loss" in err


def test_consecutive_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    import covdec.cli as cli
    from covdec.errors import NumericError

    def gen(out, classes):
        return main(["gen-synth", "--out", str(tmp_path / out), "--channels", "3",
                     "--samples", "16", "--classes", str(classes),
                     "--trials-per-class", "2"])

    seen = []

    def stop_training(trials, classes, config):
        seen.append((len(list(trials)), classes, config.seed))
        raise NumericError("stopped")

    assert gen("a", 2) == 0
    with pytest.raises(SystemExit):
        main(["train", "--data"])
    # the parser is built before run_training is replaced: the handler looks
    # it up when it runs
    monkeypatch.setattr(cli, "run_training", stop_training)
    manifest = str(tmp_path / "a" / "manifest.txt")
    for extra in (["--seed", "5"], []):
        assert main(["train", "--data", manifest, "--out", str(tmp_path / "run"),
                     *extra]) == 4
    assert gen("b", 3) == 0
    assert seen == [(4, ["class0", "class1"], 5), (4, ["class0", "class1"], 0)]
    out = capsys.readouterr().out
    assert "wrote 4 trials" in out and "wrote 6 trials" in out
    assert cli._build_parser() is cli._build_parser()


@pytest.fixture(scope="module")
def eight_channel_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("eight")
    assert main(["gen-synth", "--out", str(root), "--channels", "8", "--samples", "64",
                 "--classes", "3", "--trials-per-class", "2", "--seed", "22"]) == 0
    return root


def test_predict_channel_mismatch_exits_3(trained_run, eight_channel_dataset, capsys):
    rc = main(["predict", "--trial", str(eight_channel_dataset / "trials" / "t0000.eegt"),
               "--weights", str(trained_run)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "error: trial 't0000' has 8 channels, expected 6\n"


def test_eval_channel_mismatch_exits_3(trained_run, eight_channel_dataset, capsys):
    rc = main(["eval", "--data", str(eight_channel_dataset / "manifest.txt"),
               "--weights", str(trained_run)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "error: trial 't0000' has 8 channels, expected 6\n"


@pytest.mark.parametrize("config_text, flags, named", [
    ("seed = abc\n", [], "'seed': cannot read 'abc'"),
    ("", ["--epochs", "1,x,1"], "'epochs_stage2': cannot read 'x'"),
    ("classes = x\n", [], "'classes': cannot read 'x'"),
    # values that coerce but used to crash in init or train silently
    ("cnn_filters1 = 0\n", [], "cnn_filters1 must be >= 1, got 0"),
    ("cnn_kernel1 = 0\n", [], "cnn_kernel1 must be >= 1, got 0"),
    ("rnn_hidden1 = 0\n", [], "rnn_hidden1 must be >= 1, got 0"),
    ("dae_hidden = 0\n", [], "dae_hidden must be >= 1, got 0"),
    ("head_hidden = 0\n", [], "head_hidden must be >= 1, got 0"),
    ("lr_stage1 = -0.001\n", [], "lr_stage1 must be a finite number above 0, got -0.001"),
    ("lr_stage1 = nan\n", [], "lr_stage1 must be a finite number above 0, got nan"),
    ("", ["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_uncoercible_config_value_exits_2(dataset, tmp_path, capsys, config_text, flags, named):
    config = tmp_path / "config.txt"
    config.write_text(config_text)
    rc = main(["train", "--data", str(dataset / "manifest.txt"), "--config", str(config),
               "--out", str(tmp_path / "run"), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def _predict_args(run_dir, dataset):
    return ["predict", "--trial", str(dataset / "trials" / "t0000.eegt"),
            "--weights", str(run_dir)]


def _non_numeric_train_loss(data: bytes) -> bytes:
    lines = data.split(b"\n")
    fields = lines[1].split(b",")
    fields[2] = b"abc"
    lines[1] = b",".join(fields)
    return b"\n".join(lines)


@pytest.mark.parametrize("name, corrupt, command, named", [
    ("classes.txt", lambda data: b"class0\n\xffclass1\nclass2\n", "predict",
     ["classes.txt: invalid UTF-8 at byte 7"]),
    ("report.json", lambda data: data[: len(data) // 2], "report",
     ["report.json:", "invalid JSON"]),
    ("curves.csv", _non_numeric_train_loss, "report",
     ["curves.csv:2: bad curves row", "'abc'"]),
], ids=["classes-invalid-utf8", "report-truncated", "curves-non-numeric"])
def test_corrupt_run_directory_file_exits_3(trained_run, dataset, tmp_path, capsys,
                                            name, corrupt, command, named):
    broken = tmp_path / "broken"
    shutil.copytree(trained_run, broken)
    path = broken / name
    path.write_bytes(corrupt(path.read_bytes()))
    if command == "predict":
        rc = main(_predict_args(broken, dataset))
    else:
        rc = main(["report", "--run", str(broken)])
    captured = capsys.readouterr()
    err = captured.err
    assert rc == 3
    assert captured.out == ""  # the report is built before any of it is printed
    assert err.startswith("error: ") and err.count("\n") == 1
    for part in named:
        assert part in err


def _report_without(*keys):
    def corrupt(data: bytes) -> bytes:
        report = json.loads(data)
        for key in keys:
            del report[key]
        return json.dumps(report).encode()
    return corrupt


def _report_with(**fields):
    def corrupt(data: bytes) -> bytes:
        return json.dumps({**json.loads(data), **fields}).encode()
    return corrupt


@pytest.mark.parametrize("corrupt, named", [
    (lambda data: b"{}", "missing key 'classes'"),
    (_report_without("val_accuracy"), "missing key 'val_accuracy'"),
    (lambda data: b"[]", "expected a JSON object, got list"),
    (_report_with(train_accuracy="x"), "key 'train_accuracy' must be a number"),
    (_report_with(val_accuracy=None), "key 'val_accuracy' must be a number"),
    (_report_with(val_accuracy=True), "key 'val_accuracy' must be a number"),
    (_report_with(classes=5), "key 'classes' must be a list of strings"),
    (_report_with(precision=[1.0, 1.0]), "key 'precision' must be a list of numbers"),
    (_report_with(recall=[1.0, "x", 1.0]), "key 'recall' must be a list of numbers"),
    (_report_with(confusion=[[1, 0, 0], [0, 1], [0, 0, 1]]), "key 'confusion' must be"),
    (_report_with(confusion=[[1, 0, 0], [0, 1.5, 0], [0, 0, 1]]), "key 'confusion' must be"),
    (_report_with(wall_clock={"prep": "slow"}), "key 'wall_clock' must be an object"),
    (_report_without("wall_clock"), "missing key 'wall_clock'"),
], ids=["empty-object", "no-val-accuracy", "not-an-object", "train-accuracy-string",
        "val-accuracy-null", "val-accuracy-bool", "classes-int", "precision-short",
        "recall-string", "confusion-ragged", "confusion-float", "wall-clock-string",
        "no-wall-clock"])
def test_report_json_missing_fields_exits_3(trained_run, tmp_path, capsys, corrupt, named):
    broken = tmp_path / "broken"
    shutil.copytree(trained_run, broken)
    path = broken / "report.json"
    path.write_bytes(corrupt(path.read_bytes()))
    rc = main(["report", "--run", str(broken)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err and named in captured.err


def test_class_names_short_of_model_classes_exits_2(trained_run, dataset, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(trained_run, broken)
    (broken / "classes.txt").write_text("class0\nclass1\n", encoding="utf-8")
    rc = main(_predict_args(broken, dataset))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "classes.txt" in captured.err
    assert "2 class names" in captured.err and "3 classes" in captured.err


@pytest.mark.parametrize("name, command, rc", [
    ("t0000.eegt", "predict-trial", 3),
    ("manifest.txt", "eval-data", 3),
    ("config.txt", "train-config", 2),
    ("cnn.cvdp", "predict", 2),
    ("config.txt", "predict", 2),
    ("classes.txt", "predict", 2),
    ("report.json", "report", 2),
    ("curves.csv", "report", 2),
])
def test_path_that_is_not_a_file_fails_like_a_missing_one(trained_run, dataset, tmp_path,
                                                           capsys, name, command, rc):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    path = (tmp_path if "-" in command else run) / name
    path.unlink(missing_ok=True)
    args = {
        "predict-trial": ["predict", "--trial", str(path), "--weights", str(run)],
        "eval-data": ["eval", "--data", str(path), "--weights", str(run)],
        "train-config": ["train", "--data", str(dataset / "manifest.txt"),
                         "--config", str(path), "--out", str(tmp_path / "new")],
        "predict": _predict_args(run, dataset),
        "report": ["report", "--run", str(run)],
    }[command]
    missing = main(args), capsys.readouterr()
    path.mkdir()
    directory = main(args), capsys.readouterr()
    assert missing == directory
    assert directory[0] == rc
    assert directory[1].out == ""
    assert directory[1].err.startswith("error: ") and str(path) in directory[1].err


def test_train_out_that_is_not_a_directory_exits_2_before_training(dataset, tmp_path, capsys,
                                                                  monkeypatch):
    import covdec.cli as cli

    monkeypatch.setattr(cli, "run_training", lambda *args: pytest.fail("training started"))
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    for out in (blocker, blocker / "run"):
        rc = main(["train", "--data", str(dataset / "manifest.txt"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --out {out}: {blocker} exists and is not a directory\n")
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("flag, value, field", [
    ("--noise", "nan", "noise_sigma"), ("--noise", "inf", "noise_sigma"),
    ("--strength", "inf", "signature_strength"), ("--strength", "nan", "signature_strength"),
])
def test_gen_synth_non_finite_spec_exits_2_writing_nothing(tmp_path, capsys, flag, value,
                                                           field):
    out = tmp_path / "data"
    rc = main(["gen-synth", "--out", str(out), flag, value, "--trials-per-class", "2"])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: synth spec {field} must be finite, got {float(value)}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--noise", "1e200", "noise_sigma"), ("--noise", "1.0000001e30", "noise_sigma"),
    ("--strength", "1e308", "signature_strength"), ("--strength", "1e40", "signature_strength"),
    ("--strength", "-1e31", "signature_strength"),
])
def test_gen_synth_scale_beyond_float32_exits_2_writing_nothing(tmp_path, capsys, flag, value,
                                                                field):
    out = tmp_path / "data"
    rc = main(["gen-synth", "--out", str(out), f"{flag}={value}", "--trials-per-class", "1"])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: synth spec {field} must be at most 1e+30 in magnitude, "
            f"got {float(value)}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--noise", "--strength"])
def test_gen_synth_at_the_scale_bound_writes_finite_trials(tmp_path, capsys, flag):
    out = tmp_path / "data"
    rc = main(["gen-synth", "--out", str(out), flag, "1e30", "--trials-per-class", "1"])
    assert rc == 0
    trials, _ = load(out / "manifest.txt")
    assert all(np.isfinite(t.data).all() and np.abs(t.data).max() > 1e28 for t in trials)


def test_eval_class_order_differing_from_classes_txt_exits_3(trained_run, dataset, tmp_path,
                                                             capsys):
    text = (dataset / "manifest.txt").read_text()
    assert "classes = class0,class1,class2\n" in text
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        text.replace("classes = class0,class1,class2", "classes = class2,class1,class0")
        .replace("trial = trials/", f"trial = {dataset}/trials/"))
    rc = main(["eval", "--data", str(manifest), "--weights", str(trained_run)])
    assert rc == 3
    assert capsys.readouterr() == (
        "", "error: dataset classes class2,class1,class0 differ from the trained "
            "classes class0,class1,class2 (classes.txt order)\n")


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_closed_stdout_exits_141_without_traceback(trained_run, dataset, command):
    src = str(Path(covdec.__file__).resolve().parents[1])
    if command == "predict":
        args = ["predict", "--trial", str(dataset / "trials" / "t0000.eegt")]
    else:
        args = ["eval", "--data", str(dataset / "manifest.txt")]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from covdec.cli import main; sys.exit(main(sys.argv[1:]))",
             *args, "--weights", str(trained_run)],
            env={**os.environ, "PYTHONPATH": src}, stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_gen_synth_out_that_is_not_a_directory_exits_2_writing_nothing(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    for out in (blocker, blocker / "data"):
        rc = main(["gen-synth", "--out", str(out), "--trials-per-class", "2"])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: --out {out}: {blocker} exists and is not a directory\n")
    assert blocker.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


def _norm_store(mean, std=None):
    store = ParamStore()
    store.add("mean", mean)
    if std is not None:
        store.add("std", std)
    return store


def _head_out_b_short(store):
    store["out.b"].value = store["out.b"].value[:2]
    return store


def _rnn_gate_reshaped(store):
    # same size, other shape: the gates of lstm1 no longer fuse into one matrix
    assert store["lstm1.wh_g"].value.shape == (10, 10)
    store["lstm1.wh_g"].value = store["lstm1.wh_g"].value.reshape(5, 20)
    return store


@pytest.mark.parametrize("name, corrupt, named", [
    ("norm.cvdp", lambda s: _norm_store(s["mean"].value),
     "missing parameter(s): std"),
    ("norm.cvdp", lambda s: _norm_store(s["mean"].value, np.zeros_like(s["std"].value)),
     "std has entries below"),
    ("norm.cvdp", lambda s: _norm_store(s["mean"].value[0], s["std"].value),
     "not one square [C, C] shape"),
    ("norm.cvdp", lambda s: _norm_store(s["mean"].value[:, :5], s["std"].value[:, :5]),
     "not one square [C, C] shape"),
    ("head.cvdp", _head_out_b_short, "'out.b' has shape (2,)"),
    ("rnn.cvdp", _rnn_gate_reshaped,
     "'lstm1.wh_g' has shape (5, 20), but the gates of lstm1 want (10, 10)"),
], ids=["norm-no-std", "norm-zero-std", "norm-vector-mean", "norm-not-square",
        "head-two-classes", "rnn-gate-shape"])
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_bad_norm_or_head_exits_2(trained_run, dataset, tmp_path, capsys,
                                  name, corrupt, named, command):
    broken = tmp_path / "broken"
    shutil.copytree(trained_run, broken)
    save_store(corrupt(load_store(broken / name)), broken / name)
    if command == "predict":
        rc = main(_predict_args(broken, dataset))
    else:
        rc = main(["eval", "--data", str(dataset / "manifest.txt"), "--weights", str(broken)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(broken / name) in captured.err and named in captured.err


@pytest.mark.parametrize("key, stage, name, width", [
    ("cnn_fc1", "cnn", "fc1.b", 32), ("cnn_feature", "cnn", "fc2.b", 16),
    ("rnn_fc1", "rnn", "fc1.b", 16), ("rnn_fc2", "rnn", "fc2.b", 12),
    ("rnn_hidden1", "rnn", "lstm1.b_i", 10), ("rnn_hidden2", "rnn", "lstm2.b_i", 10),
    ("dae_hidden", "dae", "enc1.b", 16), ("dae_latent", "dae", "enc2.b", 8),
    ("head_hidden", "head", "fc1.b", 8),
])
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_config_width_disagreeing_with_weights_exits_2(trained_run, dataset, tmp_path, capsys,
                                                       key, stage, name, width, command):
    broken = tmp_path / "broken"
    shutil.copytree(trained_run, broken)
    config = broken / "config.txt"
    text = config.read_text(encoding="utf-8")
    assert f"\n{key} = {width}\n" in text
    config.write_text(text.replace(f"\n{key} = {width}\n", f"\n{key} = 3\n"), encoding="utf-8")
    if command == "predict":
        rc = main(_predict_args(broken, dataset))
    else:
        rc = main(["eval", "--data", str(dataset / "manifest.txt"), "--weights", str(broken)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(broken / f"{stage}.cvdp") in captured.err
    assert f"'{name}' has shape ({width},)" in captured.err
    assert f"config.txt sets {key} = 3" in captured.err


def test_python_m_covdec_runs_the_cli(tmp_path):
    src = str(Path(covdec.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "covdec", "gen-synth", "--out", str(tmp_path),
         "--trials-per-class", "1", "--seed", "0"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("wrote 3 trials")


def test_blas_thread_count_does_not_change_weights(tmp_path):
    # matrix products go through BLAS, which may split them across threads
    data = tmp_path / "data"
    assert main(["gen-synth", "--out", str(data), "--seed", "7"]) == 0
    src = str(Path(covdec.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from covdec.cli import main; sys.exit(main(sys.argv[1:]))",
             "train", "--data", str(data / "manifest.txt"), "--out", str(out),
             "--seed", "11", "--epochs", "2,2,2"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs[threads] = {stage: (out / f"{stage}.cvdp").read_bytes()
                         for stage in ("cnn", "rnn", "dae", "head")}
    assert runs["1"] == runs["2"]


def _run_files(run_dir: Path) -> dict[str, bytes]:
    """Every file of a run directory, report.json without its wall-clock times."""
    files = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    report = json.loads(files.pop("report.json"))
    del report["wall_clock"]
    files["report.json"] = json.dumps(report).encode()
    return files


def test_train_and_eval_hold_one_raw_trial_at_a_time(dataset, tmp_path, capsys, monkeypatch):
    import covdec.cli as cli
    import covdec.data as data

    config = tmp_path / "config.txt"
    config.write_text(CONFIG_SMALL)
    manifest = str(dataset / "manifest.txt")

    def train_and_eval(name, before_each=lambda: None):
        run_dir = tmp_path / name
        before_each()
        assert main(["train", "--data", manifest, "--config", str(config),
                     "--out", str(run_dir), "--seed", "13"]) == 0
        capsys.readouterr()
        before_each()
        assert main(["eval", "--data", manifest, "--weights", str(run_dir)]) == 0
        return _run_files(run_dir), capsys.readouterr().out

    # reference: every trial loaded into a list before training or evaluating
    load = data.load

    def load_list(path):
        trials, manifest = load(path)
        return list(trials), manifest

    with monkeypatch.context() as m:
        m.setattr(cli, "load", load_list)
        listed = train_and_eval("listed")

    counters = []
    load_trial = data.load_trial

    def counting_load_trial(*args, **kwargs):
        trial, rate = load_trial(*args, **kwargs)
        return counters[-1].register(trial), rate

    monkeypatch.setattr(data, "load_trial", counting_load_trial)
    streamed = train_and_eval("streamed", lambda: counters.append(TrialCounter()))
    # one counter for train, one for eval: each read all 24 trials, one at a time
    assert [(c.made, c.peak) for c in counters] == [(24, 1), (24, 1)]
    assert streamed == listed


def test_empty_entry_name_in_weights_exits_3_naming_file_and_offset(trained_run, dataset,
                                                                    tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(trained_run, broken)
    path = broken / "head.cvdp"
    path.write_bytes(b"CVDP" + struct.pack("<IIHII", 1, 1, 0, 1, 1) + struct.pack("<d", 0.5))
    rc = main(_predict_args(broken, dataset))
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == f"error: {path}: empty entry name at byte 12\n"


def test_gen_synth_writes_through_a_symlinked_trials_directory(tmp_path):
    args = ["--channels", "6", "--samples", "32", "--classes", "2", "--trials-per-class", "3",
            "--seed", "5"]
    expected = "task = synth\nclasses = class0,class1\nsubject = synth\n" + "".join(
        f"trial = trials/t{i:04d}.eegt\n" for i in range(6))
    plain, linked, elsewhere = tmp_path / "plain", tmp_path / "linked", tmp_path / "elsewhere"
    assert main(["gen-synth", "--out", str(plain), *args]) == 0
    assert (plain / "manifest.txt").read_text(encoding="utf-8") == expected
    elsewhere.mkdir()
    linked.mkdir()
    (linked / "trials").symlink_to(elsewhere, target_is_directory=True)
    assert main(["gen-synth", "--out", str(linked), *args]) == 0
    assert (linked / "manifest.txt").read_text(encoding="utf-8") == expected
    assert sorted(p.name for p in elsewhere.iterdir()) == [f"t{i:04d}.eegt" for i in range(6)]
    for i in range(6):
        name = f"t{i:04d}.eegt"
        assert (elsewhere / name).read_bytes() == (plain / "trials" / name).read_bytes()
    config = tmp_path / "config.txt"
    config.write_text(CONFIG_SMALL + "split_fraction = 0.66\n")
    rc = main(["train", "--data", str(linked / "manifest.txt"), "--config", str(config),
               "--epochs", "1,1,1", "--out", str(tmp_path / "run")])
    assert rc == 0
