"""Property tests of the inputs a user hands covdec: a trial file, a manifest,
a `--config` text and the text files of a run directory. Each is damaged by
byte flips, a truncation, appended bytes or, in a trial's header, a u32 field
set to an edge value. Reading the damaged input may raise only the errors of
its documented exit codes: DataError (ParseError included; exit 3) for trials
and manifests, ConfigError (exit 2) for a config; for a run directory,
StateError or ConfigError (exit 2) for a rejected config.txt or class count,
and ParseError (exit 3) for undecodable or malformed text. A valid trial,
manifest or config, written by covdec's own writer, reads back exactly."""

import dataclasses
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from covdec.config import (EPOCH_KEYS, RNN_AXES, RNN_ORDERS, TrainConfig, config_from_dict,
                           config_values, write_config)
from covdec.covariance import Trial
from covdec.data import (Manifest, SynthSpec, load, load_manifest, load_trial, save_manifest,
                         save_trial, write_synth_dataset)
from covdec.errors import ConfigError, DataError, ParseError, StateError
from covdec.report import load_artifacts, load_report_json, read_curves_csv, save_run
from covdec.training import run_training
from conftest import SMALL_CONFIG

# the trial header's u32 fields: version, channels, samples, label
TRIAL_U32_OFFSETS = (4, 8, 12, 16)
U32_EDGES = (0, 1, 2**31 - 1, 2**32 - 1)


@st.composite
def damaged(draw, blob: bytes, u32_offsets: tuple[int, ...] = ()) -> bytes:
    """`blob` with one drawn damage."""
    out = bytearray(blob)
    kind = draw(st.sampled_from(["flip", "truncate", "append"] + ["u32"] * bool(u32_offsets)))
    if kind == "flip":
        for at in draw(st.lists(st.integers(0, len(out) - 1), min_size=1, max_size=4)):
            out[at] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del out[draw(st.integers(0, len(out) - 1)):]
    elif kind == "append":
        out += draw(st.binary(min_size=1, max_size=16))
    else:
        offset = draw(st.sampled_from(u32_offsets))
        struct.pack_into("<I", out, offset, draw(st.sampled_from(U32_EDGES)))
    return bytes(out)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory) -> Path:
    """Two small trials, their manifest and a config file; each test writes
    its damaged input next to them, so a manifest's trial paths still resolve."""
    root = tmp_path_factory.mktemp("inputs")
    write_synth_dataset(root, SynthSpec(channels=3, samples=16, classes=2, trials_per_class=1))
    write_config(root / "config.txt", TrainConfig())
    return root


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_damaged_trial_file_raises_only_data_errors(dataset, data):
    blob = (dataset / "trials" / "t0000.eegt").read_bytes()
    path = dataset / "damaged.eegt"
    path.write_bytes(data.draw(damaged(blob, TRIAL_U32_OFFSETS)))
    try:
        load_trial(path, max_label=data.draw(st.sampled_from([None, 2])))
    except DataError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_damaged_manifest_raises_only_data_errors(dataset, data):
    path = dataset / "damaged.txt"
    path.write_bytes(data.draw(damaged((dataset / "manifest.txt").read_bytes())))
    try:
        trials, _ = load(path)
        for _ in trials:
            pass
    except DataError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_damaged_config_raises_only_config_errors(dataset, data):
    path = dataset / "config.txt"
    try:
        config_from_dict(config_values(data.draw(damaged(path.read_bytes())), path)[0])
    except ConfigError:
        pass


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    """A run directory of a one-epoch training on small trials."""
    root = tmp_path_factory.mktemp("run")
    spec = SynthSpec(channels=6, samples=32, classes=2, trials_per_class=5)
    trials, manifest = load(write_synth_dataset(root / "data", spec))
    config = dataclasses.replace(SMALL_CONFIG, classes=2, epochs_stage1=1, epochs_stage2=1,
                                 epochs_stage3=1, patience=None)
    save_run(root / "run", run_training(trials, manifest.classes, config))
    return root / "run"


# each text file of a run directory, the reader that takes it, and the errors
# that reader may raise for it
RUN_TEXT_READERS = {
    "classes.txt": (load_artifacts, (StateError, ParseError)),
    "config.txt": (load_artifacts, (StateError, ConfigError)),
    "report.json": (load_report_json, (ParseError,)),
    "curves.csv": (lambda run: read_curves_csv(run / "curves.csv"), (ParseError,)),
}


@pytest.mark.parametrize("name", list(RUN_TEXT_READERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_damaged_run_file_raises_only_its_documented_errors(run_dir, name, data):
    read, errors = RUN_TEXT_READERS[name]
    # one copy of the run per file, whose file each case overwrites
    damaged_run = run_dir.with_name(f"damaged-{name}")
    if not damaged_run.exists():
        shutil.copytree(run_dir, damaged_run)
    (damaged_run / name).write_bytes(data.draw(damaged((run_dir / name).read_bytes())))
    try:
        read(damaged_run)
    except errors:
        pass


# ---------------------------------------------------------------------------
# valid inputs round-trip exactly
# ---------------------------------------------------------------------------


FLOAT32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
# one manifest value: no comment mark or line break, nothing for strip() to take
TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8).filter(
    lambda s: "#" not in s and s == s.strip())
CLASS_NAME = TEXT.filter(lambda s: s and "," not in s)
SEGMENT = st.text("abcXYZ019_-.", min_size=1, max_size=6).filter(lambda s: s not in (".", ".."))


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       shape=st.tuples(st.integers(2, 5), st.integers(2, 8)),
       label=st.integers(0, 2**32 - 1), rate=FLOAT32)
def test_a_saved_trial_loads_as_it_was(dataset, data, shape, label, rate):
    samples = data.draw(hnp.arrays(np.float32, shape, elements=FLOAT32)).astype(np.float64)
    path = dataset / "roundtrip.eegt"
    save_trial(path, Trial(samples, label, trial_id="t"), sample_rate_hz=rate)
    loaded, loaded_rate = load_trial(path, subject_id="S1")
    assert loaded.data.tobytes() == samples.tobytes()
    assert (loaded.label, loaded_rate, loaded.subject_id, loaded.trial_id) == (
        label, rate, "S1", "roundtrip")


@settings(max_examples=100, deadline=None)
@given(task=TEXT, subject=TEXT,
       classes=st.lists(CLASS_NAME, min_size=1, max_size=4, unique=True),
       trials=st.lists(st.lists(SEGMENT, min_size=1, max_size=3), max_size=4))
def test_a_saved_manifest_loads_as_it_was(dataset, task, subject, classes, trials):
    path = dataset / "roundtrip.txt"
    root = dataset.resolve()
    manifest = Manifest(task, classes, subject, [root.joinpath(*parts) for parts in trials])
    save_manifest(path, manifest)
    assert load_manifest(path) == manifest


@st.composite
def train_configs(draw) -> TrainConfig:
    """A valid TrainConfig, every field drawn."""
    positive = st.integers(1, 300)
    lr = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    config = TrainConfig(
        seed=draw(st.integers(0, 2**64)), classes=draw(st.integers(2, 50)),
        tau=draw(st.integers(0, 20)),
        split_fraction=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        batch_size=draw(positive),
        **{key: draw(lr) for key in ("lr_stage1", "lr_stage2", "lr_stage3")},
        **{key: draw(st.integers(0, 500)) for key in EPOCH_KEYS},
        patience=draw(st.none() | positive),
        **{key: draw(positive) for key in (
            "cnn_filters1", "cnn_kernel1", "cnn_filters2", "cnn_kernel2", "cnn_fc1",
            "cnn_feature", "rnn_fc1", "rnn_fc2", "rnn_hidden1", "rnn_hidden2",
            "dae_hidden", "head_hidden")},
        rnn_order=draw(st.sampled_from(RNN_ORDERS)), rnn_axis=draw(st.sampled_from(RNN_AXES)),
    )
    config.dae_latent = draw(st.integers(1, config.feature_width - 1))
    return config.validate()


@settings(max_examples=100, deadline=None)
@given(config=train_configs())
def test_a_written_config_reads_back_as_it_was(dataset, config):
    path = dataset / "roundtrip-config.txt"
    write_config(path, config)
    values, lines = config_values(path.read_bytes(), path)
    assert list(lines.values()) == list(range(1, len(values) + 1))
    assert config_from_dict(values) == config
