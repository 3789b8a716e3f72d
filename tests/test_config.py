from pathlib import Path

import pytest

from covdec.cli import _build_parser
from covdec.config import TrainConfig, config_from_dict, config_values, write_config
from covdec.errors import ConfigError


def read_config(path: Path) -> TrainConfig:
    return config_from_dict(config_values(path.read_bytes(), path)[0])


def test_roundtrip_through_file(tmp_path):
    config = TrainConfig(seed=42, epochs_stage2=77, patience=None, rnn_order="lstm-first")
    path = tmp_path / "config.txt"
    write_config(path, config)
    assert read_config(path) == config


def test_patience_off_spelling(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("patience = off\n")
    assert read_config(path).patience is None
    assert TrainConfig(patience=None).to_dict()["patience"] == "off"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="momentum"):
        config_from_dict({"momentum": "0.9"})


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        read_config(path)


def test_validation_errors():
    with pytest.raises(ConfigError, match="split_fraction"):
        TrainConfig(split_fraction=1.0).validate()
    with pytest.raises(ConfigError, match="batch_size"):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError, match="patience"):
        TrainConfig(patience=0).validate()
    with pytest.raises(ConfigError, match="rnn_order"):
        TrainConfig(rnn_order="fc-last").validate()
    with pytest.raises(ConfigError, match="latent"):
        TrainConfig(dae_latent=300).validate()
    for key in ("cnn_filters1", "cnn_filters2", "cnn_kernel1", "cnn_kernel2", "cnn_fc1",
                "cnn_feature", "rnn_fc1", "rnn_fc2", "rnn_hidden1", "rnn_hidden2",
                "dae_hidden", "dae_latent", "head_hidden"):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1, got 0$"):
            TrainConfig(**{key: 0}).validate()
    for key in ("lr_stage1", "lr_stage2", "lr_stage3"):
        for lr in (0.0, -0.001, float("nan"), float("inf")):
            message = f"^{key} must be a finite number above 0, got {lr}$"
            with pytest.raises(ConfigError, match=message):
                TrainConfig(**{key: lr}).validate()
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        TrainConfig(seed=-1).validate()


@pytest.mark.parametrize("values, key", [
    ({"seed": -1}, "seed"), ({"classes": 1}, "classes"), ({"cnn_kernel2": 0}, "cnn_kernel2"),
    ({"lr_stage2": 0.0}, "lr_stage2"), ({"split_fraction": 1.0}, "split_fraction"),
    ({"batch_size": 0}, "batch_size"), ({"epochs_stage3": -1}, "epochs_stage3"),
    ({"patience": 0}, "patience"), ({"rnn_order": "x"}, "rnn_order"),
    ({"rnn_axis": "x"}, "rnn_axis"), ({"dae_latent": 300}, "dae_latent"),
])
def test_validation_error_carries_the_rejected_key(values, key):
    # a config reader turns the key into the line that set it
    with pytest.raises(ConfigError) as info:
        TrainConfig(**values).validate()
    assert info.value.key == key


def test_uncoercible_value_error_carries_its_key():
    with pytest.raises(ConfigError) as info:
        config_from_dict({"batch_size": "many"})
    assert info.value.key == "batch_size"


def test_feature_width_tracks_rnn_order():
    assert TrainConfig().feature_width == 128
    assert TrainConfig(rnn_order="lstm-first", rnn_fc2=48).feature_width == 64 + 48
    assert TrainConfig(rnn_hidden2=40).rnn_feature == 40
    assert TrainConfig(rnn_order="lstm-first", rnn_fc2=48).rnn_feature == 48


def test_missing_config_file(tmp_path):
    # `covdec train --config` refuses it after reading the manifest, before any trial
    (tmp_path / "manifest.txt").write_text("task = t\nclasses = a,b\nsubject = s\n")
    args = _build_parser().parse_args([
        "train", "--data", str(tmp_path / "manifest.txt"), "--out", str(tmp_path / "run"),
        "--config", "/no/such/config.txt",
    ])
    with pytest.raises(ConfigError, match="^config file not found: /no/such/config.txt$"):
        args.func(args)


def test_config_values_keeps_raw_strings(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("seed = 7  # comment\n\npatience = off\n")
    assert config_values(path.read_bytes(), path) == (
        {"seed": "7", "patience": "off"}, {"seed": 1, "patience": 3})


@pytest.mark.parametrize("key, raw", [("seed", "abc"), ("lr_stage1", "fast"), ("patience", "soon")])
def test_uncoercible_value_names_key_and_value(key, raw):
    with pytest.raises(ConfigError, match=f"'{key}'.*'{raw}'"):
        config_from_dict({key: raw})


def test_invalid_utf8_config_names_byte(tmp_path):
    path = tmp_path / "config.txt"
    path.write_bytes(b"seed = 1\nrnn_order = \xe9\n")
    with pytest.raises(ConfigError, match=r"config\.txt: invalid UTF-8 at byte 21"):
        read_config(path)

