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

from conftest import pin_note

RUN_FILES = ("cnn.cvdp", "rnn.cvdp", "dae.cvdp", "head.cvdp", "norm.cvdp",
             "curves.csv", "config.txt", "classes.txt")

PINS = {
    "readme": {
        "data": (),
        "epochs": "3,3,3",
        "config": "",
        "files": {
            "cnn.cvdp": "13a05f2a5909d0ccc957b56808738a5060ee1bf80062cc52446c597e8e4e038e",
            "rnn.cvdp": "511cb3060179570d2f73988e88f3290a14b7eae974116a54965cbe95cf021593",
            "dae.cvdp": "91aa2404174d1144b446b1826560b87e1a65722a866d30f21279256d62a4885c",
            "head.cvdp": "94455bfdbf5688782062c45c658bd8a6c0618f52f2d5f9c12132ce8a40955802",
            "norm.cvdp": "c75f8dc201109ed0dad2742b59e965913e8c371e9ea0330af79329fc69ba99d8",
            "curves.csv": "e589e3e2b263bb39f7281a108e7266f536be1b9a2a474e8a0ec1159f4880de2d",
            "config.txt": "06fa4d0e9257ff7022fb0a2d1e6c451f9ddbca8551675e39801afc96aebbab06",
            "classes.txt": "bd4b8b80da3019d65d4062b771326b33da5a8619fd5f9a4d3b50e9aa753d666c",
        },
        "predict": "6d0b3cf596275409be507b504796b3ee1616d229dce6184f20e1fd34e10a05fb",
        "eval": "223bd18020618e6cfc890bc9cc09d3b92ff3db1dd0af25b69c9c12b5731e3508",
    },
    "lstm-first-cols-tau3": {
        "data": (),
        "epochs": "3,3,3",
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
    # nine steps per LSTM: an odd step count, so an unrecorded lstm ends in
    # the other of its two cell buffers than at the README's eight
    "channels9-odd-steps": {
        "data": ("--channels", "9"),
        "epochs": "2,2,2",
        "config": "",
        "files": {
            "cnn.cvdp": "63c3660532a339a39a4f8a0569991c0e44287388b568d206433e5e4631a4b9fa",
            "rnn.cvdp": "7c6e0b41f81e596ec51025832514a41950e3b29ed95f9b3c83fa2373e8d495b7",
            "dae.cvdp": "59e1aae7b0c5f4b0d9dee1ad39559c73ddee570f033e8fb85c6bbb092b620c22",
            "head.cvdp": "03f7ad4b3cd37f425520838cb094c7185935aa6936ab062018c30c14551e7830",
            "norm.cvdp": "8d7e374873a9566b9232cbd465277cde59b20e77b8bd89b455996450a0d0b6b3",
            "curves.csv": "6b28193799a3fce3e76557ce8eb10d95c2351c625402f6097fc89f55ac29aaeb",
            "config.txt": "b5acd923ae8ee5f6c84808c5c5ca1997a2fa3a6dee9d058383e0dc1de3cdeb85",
            "classes.txt": "bd4b8b80da3019d65d4062b771326b33da5a8619fd5f9a4d3b50e9aa753d666c",
        },
        "predict": "72b457c7b550714dafdcae8769850398d7d7269041a3518067bdf3b274ea6966",
        "eval": "4b4a2dabf0ab6843025c9eb7fc3fcec3ef147d795be5f524810df754b5d07edb",
    },
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """gen-synth's data set for extra arguments, made once per module; ()
    gives the README data set: 8 channels x 128 samples, 3 x 40 trials,
    seed 7."""
    made = {}

    def make(args: tuple[str, ...]):
        if args not in made:
            root = tmp_path_factory.mktemp("data")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["gen-synth", "--out", str(root), "--seed", "7", *args]) == 0
            made[args] = root
        return made[args]

    return make


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(PINS))
def test_run_files_and_decoded_output_are_pinned(dataset, tmp_path, name):
    pin = PINS[name]
    data = dataset(pin["data"])
    config = tmp_path / "config.txt"
    config.write_text(pin["config"], encoding="utf-8")
    run = tmp_path / "run"
    _stdout(["train", "--data", str(data / "manifest.txt"), "--config", str(config),
             "--out", str(run), "--seed", "11", "--epochs", pin["epochs"]])
    files = {f: _sha((run / f).read_bytes()) for f in RUN_FILES}
    trial = sorted((data / "trials").iterdir())[0]
    predict = _stdout(["predict", "--trial", str(trial), "--weights", str(run)])
    evaluated = _stdout(["eval", "--data", str(data / "manifest.txt"),
                         "--weights", str(run)])
    got = {"files": files, "predict": _sha(predict.encode()), "eval": _sha(evaluated.encode())}
    assert got == {k: pin[k] for k in got}, pin_note()
