"""Byte-identity pins of whole runs through the CLI.

Each run pins the sha256 of every file that training writes except
report.json (which holds wall-clock times), and of the stdout of `predict`
and `eval` on the run. A change to the weight layout in memory, the order
in which a store is drawn or saved, or the arithmetic of any op moves one
of them.
"""

import contextlib
import hashlib
import io

import pytest

from covdec.cli import main

RUN_FILES = ("cnn.cvdp", "rnn.cvdp", "dae.cvdp", "head.cvdp", "norm.cvdp",
             "curves.csv", "config.txt", "classes.txt")

PINS = {
    "readme": {
        "config": "",
        "files": {
            "cnn.cvdp": "3372d90a392f5e2c4aca4c3d96a31e9ad4bddb7285b266c8de7ef11c2718378c",
            "rnn.cvdp": "81a1abbe15f115c9b248540eddb8c47a01a39bbdbb7d476618e566ce410724ea",
            "dae.cvdp": "e9da106be09b4cae67bf5b7ab8ba1f80658fc4906437f198048ebd4472594f58",
            "head.cvdp": "d6838eccc52ec5bdcc1097312da6b18855af80f463b86df9ed7f74b27bf7ab51",
            "norm.cvdp": "db8b0b54f5207f5caec206a73de52e379c0f1b7bcecd6cb973b99f9de0256936",
            "curves.csv": "e589e3e2b263bb39f7281a108e7266f536be1b9a2a474e8a0ec1159f4880de2d",
            "config.txt": "06fa4d0e9257ff7022fb0a2d1e6c451f9ddbca8551675e39801afc96aebbab06",
            "classes.txt": "bd4b8b80da3019d65d4062b771326b33da5a8619fd5f9a4d3b50e9aa753d666c",
        },
        "predict": "6d0b3cf596275409be507b504796b3ee1616d229dce6184f20e1fd34e10a05fb",
        "eval": "223bd18020618e6cfc890bc9cc09d3b92ff3db1dd0af25b69c9c12b5731e3508",
    },
    "lstm-first-cols-tau3": {
        "config": "rnn_order = lstm-first\nrnn_axis = cols\ntau = 3\n",
        "files": {
            "cnn.cvdp": "405dbf5cad4cf9004ad780bcafc1c01161622300dace30e4593c068a3aa9523f",
            "rnn.cvdp": "ce7ca51ee981c429a663e8398edbc6039b1ef7cf8831acdd13a103a2c99ec5a7",
            "dae.cvdp": "9e9d96c71afc6547b41171d8ff1b5f88077d6378aee1e568b3a6b9b2b2c26c7e",
            "head.cvdp": "487087b19f68409de33f1da4674c7198ed6168ee3ea6a8d7cbdeeaf27ff1228b",
            "norm.cvdp": "765a5f28c6cdf553b8bc179b7b285b14fd273ce2ac5f914ae3edbf764853ee71",
            "curves.csv": "0cdac02f377b8eaf7d476a089bf5f5d175e23e9483059218ec46f944cae7cbfd",
            "config.txt": "fceeb5cd7299cc0652f1b4a8caa2c3081f3b60a0ca98c5b73ee297b0f1fce014",
            "classes.txt": "bd4b8b80da3019d65d4062b771326b33da5a8619fd5f9a4d3b50e9aa753d666c",
        },
        "predict": "7f655557eac3853e44fa57843cdfbfdc46c88f7482332a8bbcfe0dae9846307c",
        "eval": "9ff9112b2fb1bb127844a2529ed4d5682643587927fcffc400af27ced785d690",
    },
}


@pytest.fixture(scope="module")
def readme_data(tmp_path_factory):
    """The README data set: 8 channels x 128 samples, 3 x 40 trials, seed 7."""
    root = tmp_path_factory.mktemp("readme-data")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-synth", "--out", str(root), "--seed", "7"]) == 0
    return root


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(PINS))
def test_run_files_and_decoded_output_are_pinned(readme_data, tmp_path, name):
    pin = PINS[name]
    config = tmp_path / "config.txt"
    config.write_text(pin["config"], encoding="utf-8")
    run = tmp_path / "run"
    _stdout(["train", "--data", str(readme_data / "manifest.txt"), "--config", str(config),
             "--out", str(run), "--seed", "11", "--epochs", "3,3,3"])
    files = {f: _sha((run / f).read_bytes()) for f in RUN_FILES}
    trial = sorted((readme_data / "trials").iterdir())[0]
    predict = _stdout(["predict", "--trial", str(trial), "--weights", str(run)])
    evaluated = _stdout(["eval", "--data", str(readme_data / "manifest.txt"),
                         "--weights", str(run)])
    got = {"files": files, "predict": _sha(predict.encode()), "eval": _sha(evaluated.encode())}
    assert got == {k: pin[k] for k in got}
