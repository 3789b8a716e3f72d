"""Property tests of the inputs a user hands covdec: a trial file, a manifest,
a `--config` text and the text files of a run directory. Each is damaged by
byte flips, a truncation, appended bytes or, in a trial's header, a u32 field
set to an edge value. Reading the damaged input may raise only the errors of
its documented exit codes: DataError (ParseError included; exit 3) for trials
and manifests, ConfigError (exit 2) for a config; for a run directory,
StateError or ConfigError (exit 2) for a rejected config.txt or class count,
and ParseError (exit 3) for undecodable or malformed text."""

import dataclasses
import shutil
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covdec.config import TrainConfig, config_from_dict, config_values, write_config
from covdec.data import SynthSpec, load, load_trial, write_synth_dataset
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
