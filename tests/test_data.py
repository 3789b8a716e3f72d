import hashlib
import tracemalloc

import numpy as np
import pytest

from covdec.covariance import Trial, ccv
from covdec.data import (
    Manifest,
    SynthSpec,
    conversion_contract,
    gen_synth,
    load,
    load_manifest,
    load_trial,
    save_manifest,
    save_trial,
    write_synth_dataset,
)
from covdec.errors import ConfigError, DataError, ParseError

from conftest import TrialCounter


def sample_trial(seed=0, c=4, t=16, label=1):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(c, t)).astype(np.float32).astype(np.float64)
    return Trial(data, label, subject_id="S1", trial_id="t0")


def test_trial_roundtrip_bit_identical(tmp_path):
    trial = sample_trial()
    path = tmp_path / "t0.eegt"
    save_trial(path, trial, sample_rate_hz=256.0)
    loaded, rate = load_trial(path, subject_id="S1")
    assert rate == 256.0
    assert loaded.label == trial.label
    assert loaded.data.tobytes() == trial.data.tobytes()
    again = tmp_path / "t0b.eegt"
    save_trial(again, loaded, sample_rate_hz=rate)
    assert path.read_bytes() == again.read_bytes()


def test_truncated_trial_reports_offset(tmp_path):
    trial = sample_trial()
    path = tmp_path / "t0.eegt"
    save_trial(path, trial)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(ParseError, match=rf"truncated at byte {len(blob) - 10}"):
        load_trial(path)


def test_truncated_header_reports_offset(tmp_path):
    path = tmp_path / "t0.eegt"
    path.write_bytes(b"EEGT\x01\x00")
    with pytest.raises(ParseError, match="truncated at byte 6"):
        load_trial(path)


def test_bad_magic_rejected(tmp_path):
    trial = sample_trial()
    path = tmp_path / "t0.eegt"
    save_trial(path, trial)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="bad magic"):
        load_trial(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t0.eegt"
    save_trial(path, sample_trial())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ParseError, match="trailing"):
        load_trial(path)


def test_save_trial_rejects_float32_overflow_before_writing(tmp_path):
    # finite as float64, so a valid Trial, but inf once stored as float32
    trial = Trial(np.full((2, 2), 1e39), 0, trial_id="big")
    with pytest.raises(DataError, match=r"^trial 'big': non-finite samples$"):
        save_trial(tmp_path / "big.eegt", trial)
    assert list(tmp_path.iterdir()) == []


def test_save_trial_rejects_a_label_beyond_the_u32_field_before_writing(tmp_path):
    path = tmp_path / "big.eegt"
    save_trial(path, Trial(np.eye(2), 2**32 - 1, trial_id="top"))
    assert load_trial(path)[0].label == 2**32 - 1
    path.unlink()
    with pytest.raises(DataError, match=r"^trial 'big': label 4294967296 does not fit the u32 "
                                        r"label field$"):
        save_trial(path, Trial(np.eye(2), 2**32, trial_id="big"))
    assert list(tmp_path.iterdir()) == []


def test_label_out_of_manifest_range_names_file(tmp_path):
    trial = sample_trial(label=5)
    (tmp_path / "trials").mkdir()
    save_trial(tmp_path / "trials" / "bad.eegt", trial)
    manifest = Manifest("demo", ["a", "b", "c"], "S1",
                        [(tmp_path / "trials" / "bad.eegt").resolve()])
    save_manifest(tmp_path / "manifest.txt", manifest)
    # trials are read lazily: the label is checked when the trial is read
    trials, _ = load(tmp_path / "manifest.txt")
    with pytest.raises(ParseError, match=r"bad.eegt.*label 5 out of range \[0, 3\)"):
        next(trials)


@pytest.mark.parametrize("classes, message", [
    ([], "manifest declares no classes"),
    (["a", "a"], r"duplicate class names: \['a', 'a'\]"),
])
def test_manifest_built_in_code_checks_its_class_list(classes, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        Manifest("demo", classes, "S1", [])


def test_missing_manifest_names_path():
    with pytest.raises(DataError, match="no/such/manifest.txt"):
        load("no/such/manifest.txt")


def test_a_trial_path_holding_a_nul_byte_is_a_data_error(tmp_path):
    (tmp_path / "manifest.txt").write_bytes(b"classes = x,y\ntrial = trials/t\x00.eegt\n")
    trials, _ = load(tmp_path / "manifest.txt")
    with pytest.raises(DataError, match=r"^trial file not found: '.*/trials/t\\x00\.eegt' "
                                        r"\(a path cannot hold a NUL byte\)$"):
        next(trials)


def test_manifest_roundtrip(tmp_path):
    (tmp_path / "trials").mkdir()
    save_trial(tmp_path / "trials" / "t0.eegt", sample_trial())
    manifest = Manifest("demo", ["x", "y"], "S7",
                        [(tmp_path / "trials" / "t0.eegt").resolve()])
    save_manifest(tmp_path / "manifest.txt", manifest)
    loaded = load_manifest(tmp_path / "manifest.txt")
    assert loaded.task == "demo"
    assert loaded.classes == ["x", "y"]
    assert loaded.subject == "S7"
    assert loaded.trial_paths == manifest.trial_paths


def test_save_manifest_rejects_a_trial_outside_its_directory_before_writing(tmp_path):
    out = tmp_path / "sets"
    out.mkdir()
    inside = (out / "t0.eegt").resolve()
    outside = (tmp_path / "elsewhere.eegt").resolve()
    manifest = Manifest("demo", ["x", "y"], "S7", [inside, outside])
    with pytest.raises(DataError) as exc:
        save_manifest(out / "manifest.txt", manifest)
    assert str(exc.value) == (
        f"trial {outside} lies outside the manifest directory {out.resolve()}")
    assert not (out / "manifest.txt").exists()


def test_manifest_rejects_unknown_key(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("task = t\nclasses = a,b\nbogus = 1\n")
    with pytest.raises(ParseError, match="bogus"):
        load_manifest(path)


def test_manifest_rejects_duplicate_classes(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("task = t\nclasses = a,a\nsubject = s\n")
    with pytest.raises(DataError, match="duplicate"):
        load_manifest(path)


def test_manifest_rejects_invalid_utf8_with_offset(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_bytes(b"task = t\nclasses = a,\xffb\n")
    with pytest.raises(ParseError, match=r"manifest\.txt: invalid UTF-8 at byte 21"):
        load_manifest(path)


def test_conversion_contract_class_inventories():
    contract = conversion_contract()
    assert contract["long_words"] == ["cooperate", "independent"]
    assert contract["short_words"] == ["in", "out", "up"]
    assert contract["vowels"] == ["a", "i", "u"]


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def separation_ratio(trials):
    """Between-class / within-class spread of covariance features."""
    labels = sorted({t.label for t in trials})
    covs = {k: [ccv(t).values for t in trials if t.label == k] for k in labels}
    means = {k: np.mean(np.stack(v), axis=0) for k, v in covs.items()}
    between = min(
        np.linalg.norm(means[a] - means[b])
        for a in labels for b in labels if a < b
    )
    within = np.mean([
        np.linalg.norm(c - means[k]) for k in labels for c in covs[k]
    ])
    return between / max(within, 1e-300)


def test_gen_synth_deterministic_under_seed():
    spec = SynthSpec(trials_per_class=3, seed=77)
    a, b = gen_synth(spec), gen_synth(spec)
    assert len(a) == len(b) == 9
    for x, y in zip(a, b):
        assert x.label == y.label
        assert x.data.tobytes() == y.data.tobytes()


def test_gen_synth_noiseless_classes_separate_by_10x():
    spec = SynthSpec(channels=8, samples=128, classes=2, trials_per_class=10,
                     noise_sigma=0.0, seed=5)
    assert separation_ratio(gen_synth(spec)) > 10.0


def test_gen_synth_separation_monotone_in_noise():
    ratios = []
    for sigma in (0.1, 1.0, 10.0):
        spec = SynthSpec(channels=6, samples=96, classes=2, trials_per_class=12,
                         noise_sigma=sigma, seed=6)
        ratios.append(separation_ratio(gen_synth(spec)))
    assert ratios[0] > ratios[1] > ratios[2]


def test_gen_synth_labels_and_shapes():
    spec = SynthSpec(channels=5, samples=64, classes=3, trials_per_class=4, seed=8)
    trials = gen_synth(spec)
    assert [t.label for t in trials] == [0] * 4 + [1] * 4 + [2] * 4
    assert all(t.data.shape == (5, 64) for t in trials)


def test_synth_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(trials_per_class=0)
    with pytest.raises(ConfigError):
        SynthSpec(noise_sigma=-0.1)
    with pytest.raises(ConfigError, match="channels"):
        SynthSpec(channels=40, samples=64)


@pytest.mark.parametrize("field, value", [
    ("noise_sigma", float("nan")), ("noise_sigma", float("inf")),
    ("signature_strength", float("inf")), ("signature_strength", float("nan")),
])
def test_synth_spec_rejects_non_finite_noise_and_strength(field, value):
    # nan < 0 is False, so a bound alone lets NaN through
    with pytest.raises(ConfigError, match=f"synth spec {field} must be finite, got {value}"):
        SynthSpec(**{field: value})


def test_write_synth_dataset_roundtrip(tmp_path):
    spec = SynthSpec(channels=5, samples=32, classes=2, trials_per_class=3, seed=9)
    manifest_path = write_synth_dataset(tmp_path, spec)
    trials, manifest = load(manifest_path)
    trials = list(trials)
    reference = gen_synth(spec)
    assert manifest.classes == ["class0", "class1"]
    assert len(trials) == len(reference)
    for got, want in zip(trials, reference):
        assert got.label == want.label
        assert got.data.tobytes() == want.data.tobytes()


def test_write_synth_dataset_holds_one_trial_at_a_time(tmp_path, monkeypatch):
    import covdec.data as data

    spec = SynthSpec(channels=5, samples=32, classes=2, trials_per_class=3, seed=9)
    counter = TrialCounter()
    monkeypatch.setattr(data, "Trial", lambda *a, **k: counter.register(Trial(*a, **k)))
    write_synth_dataset(tmp_path / "small", spec)
    assert counter.made == 0  # the float32 samples are written with no Trial
    monkeypatch.undo()
    # the streamed files hold what gen_synth draws, in its order
    written = [tmp_path / "small" / "trials" / f"t{i:04d}.eegt" for i in range(6)]
    for path, want in zip(written, gen_synth(spec)):
        got, _ = load_trial(path)
        assert (got.label, got.data.tobytes()) == (want.label, want.data.tobytes())

    # the writer's peak memory does not grow with the number of trials; the
    # writes above keep one-time allocations of a first call out of both peaks
    peaks = []
    for per_class in (2, 12):
        spec = SynthSpec(channels=64, samples=160, classes=2, trials_per_class=per_class, seed=9)
        tracemalloc.start()
        try:
            write_synth_dataset(tmp_path / f"n{per_class}", spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


# sha256 of every file write_synth_dataset writes, for shapes and settings that
# no run pin covers: the noise draw, a noiseless spec that skips it, and more
# classes with a negative signature strength
SYNTH_PINS = {
    "64x160-noise": (
        SynthSpec(channels=64, samples=160, classes=2, trials_per_class=2, noise_sigma=0.05,
                  seed=3),
        {
            "manifest.txt": "685a322d719b15c692b29803f10a1c40aab89b48f00e977d2655c25b7a8c4d6c",
            "trials/t0000.eegt": "d43787bc0683dd7b6539cf72d1f59051369b831eaa9d4b814276fec1c7e60f83",
            "trials/t0001.eegt": "b43653171c361966cb8804618e97a73c972151908151fbb601376908c4c52a43",
            "trials/t0002.eegt": "0f9fc90f57c136d2901d3a38a115ac1089d29d8065a7dc353a8d440d4052807b",
            "trials/t0003.eegt": "52d9df7038b604994f1974e89ceb4abcc89657c64609ac3c2b15f773ad47f34b",
        },
    ),
    "5x40-noiseless": (
        SynthSpec(channels=5, samples=40, classes=2, trials_per_class=2, noise_sigma=0.0, seed=4),
        {
            "manifest.txt": "685a322d719b15c692b29803f10a1c40aab89b48f00e977d2655c25b7a8c4d6c",
            "trials/t0000.eegt": "6b9d9442ea60008d1106706a2f7c278bd6c49a1e3c612e818339a7b42626d1ad",
            "trials/t0001.eegt": "065a1a3e7847f8490c93c3f7ec53d65eb5c2798cb9d7670ad1abaaf61b3bd54f",
            "trials/t0002.eegt": "0555a100004413548824c759931843184b73935cfa090ec662863717786435e6",
            "trials/t0003.eegt": "0a3dcdfa7f23740270761b291cc989e4f2a58f112bb79328c2563895bf82d35f",
        },
    ),
    "8x128-4class-negative": (
        SynthSpec(channels=8, samples=128, classes=4, trials_per_class=1,
                  signature_strength=-0.5, seed=5),
        {
            "manifest.txt": "3041da175e4aea5bef4b8284bbe7813a11e513e6fb5a730f9483ed1161127bed",
            "trials/t0000.eegt": "9dc94c4ce0afc8160dad1686aa5483a95903a55ecc04866ca7604c40ff463739",
            "trials/t0001.eegt": "5effedad39c6710d951e723d3195fb015ec199ace983680e03d7c4a45c9f80c3",
            "trials/t0002.eegt": "c5bb4bec5f656a872a2588f00d1d1b2f5aae0115d4b8e856cb9df2b94f64222f",
            "trials/t0003.eegt": "04b042c28fd46e02a5528c1a8f2b132453c64f2a21ea3238855e9bc062230c7c",
        },
    ),
}


@pytest.mark.parametrize("name", list(SYNTH_PINS))
def test_write_synth_dataset_bytes_are_pinned(tmp_path, name):
    spec, want = SYNTH_PINS[name]
    write_synth_dataset(tmp_path, spec)
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert got == want


def test_gen_synth_float64_bytes_are_pinned():
    trials = gen_synth(SYNTH_PINS["64x160-noise"][0])
    digest = hashlib.sha256(b"".join(t.data.tobytes() for t in trials)).hexdigest()
    assert digest == "1f0328baed0251d30291715048347d39ab9df3198c5662e1a0deada875296829"
    assert [(t.label, t.subject_id, t.trial_id) for t in trials] == [
        (0, "synth", "c0-t000"), (0, "synth", "c0-t001"),
        (1, "synth", "c1-t000"), (1, "synth", "c1-t001")]


def test_write_synth_dataset_rejects_non_finite_samples_before_writing(tmp_path):
    # SynthSpec bounds keep every sample finite; a spec past them shows the check
    spec = SynthSpec(trials_per_class=1)
    object.__setattr__(spec, "noise_sigma", float("inf"))
    with pytest.raises(DataError, match=r"^trial 'c0-t000': non-finite samples$"):
        write_synth_dataset(tmp_path, spec)
    assert list((tmp_path / "trials").iterdir()) == []


def test_manifest_entries_through_dotdot_symlinks_and_absolute_paths(tmp_path):
    real = tmp_path / "real"
    real.mkdir()
    for j in range(3):
        save_trial(real / f"t{j}.eegt", sample_trial(seed=j, label=j % 2))
    (tmp_path / "linked").symlink_to(real, target_is_directory=True)
    (real / "alias.eegt").symlink_to(real / "t0.eegt")
    sub = tmp_path / "sets" / "a"
    sub.mkdir(parents=True)
    entries = ["../../real/t0.eegt", "../../linked/t1.eegt", str(real / "t2.eegt"),
               "../../real/alias.eegt"]
    (sub / "manifest.txt").write_text(
        "task = demo\nclasses = x,y\nsubject = S1\n"
        + "".join(f"trial = {e}\n" for e in entries))

    trials, manifest = load(sub / "manifest.txt")
    # each entry is joined to the resolved manifest directory, not normalised
    assert manifest.trial_paths == [sub.resolve() / e for e in entries]
    got = list(trials)
    for trial, path in zip(got, manifest.trial_paths):
        want, _ = load_trial(path.resolve())
        assert (trial.data.tobytes(), trial.label) == (want.data.tobytes(), want.label)
    # a symlinked trial file keeps its own name as its trial id
    assert [t.trial_id for t in got] == ["t0", "t1", "t2", "alias"]

