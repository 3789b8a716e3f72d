import os
import shutil
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from covdec import autodiff as ad
from covdec import params as ps
from covdec.autodiff import Node
from covdec.cli import main
from covdec.errors import ConfigError, NumericError, ParseError
from covdec.params import ParamStore, adam_step
from covdec.report import load_artifacts
from covdec.errors import StateError

from conftest import store_bytes
from test_run_bytes import _stdout


def make_store() -> ParamStore:
    return ParamStore({"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -0.5, 0.25])})


def test_names_unique_and_ordered():
    store = make_store()
    assert store.names() == ["w", "b"]
    with pytest.raises(ConfigError, match="invalid parameter name ''"):
        ParamStore({"w": np.zeros(1), "": np.zeros(1)})
    # no name is reserved: an older writer's moment name is a parameter name
    assert ParamStore({"w": np.zeros(1), "w::adam_m": np.zeros(1)}).names() == ["w", "w::adam_m"]


def test_views_are_bound_once_when_the_store_packs():
    store = make_store()
    early = np.full((2, 3), 0.5)
    ad._acc(store["w"], early)  # a gradient that arrives before packing
    assert store["w"].grad is early and store["b"].grad is None
    flat = store.pack()
    views = {name: (node.value, node.grad) for name, node in store.items()}
    assert np.shares_memory(views["w"][1], flat) and np.array_equal(views["w"][1], early)
    assert np.array_equal(views["w"][0], np.arange(6.0).reshape(2, 3))
    assert not views["b"][1].any()
    store.zero_grad()
    adam_step(store, lr=0.1, t=1)
    store.zero_grad()
    for name, node in store.items():
        assert node.value is views[name][0] and node.grad is views[name][1]
    ad._acc(store["b"], np.ones(3))  # later gradients add into the packed row
    assert flat[1].tolist() == [0.0] * 6 + [1.0] * 3
    with pytest.raises(AttributeError):
        store["w"].grad = np.zeros((2, 3))


def test_snapshot_is_a_copy():
    # a checkpoint is one copy of the packed value row, restored with one copy
    store = make_store()
    values = store.pack()[0]
    snap = values.copy()
    store["w"].value[...] = 0.0
    assert snap[1] == 1.0
    np.copyto(values, snap)
    assert store["w"].value[0, 1] == 1.0
    assert np.array_equal(store["b"].value, [0.5, -0.5, 0.25])


def test_lookup_of_an_absent_name_raises_state_error_naming_it():
    store = make_store()
    assert store["w"] is store["w"] and store["b"].value.shape == (3,)
    with pytest.raises(StateError) as exc:
        store["fc1.w"]
    assert str(exc.value) == "missing parameter 'fc1.w'"


def test_adam_zero_gradient_leaves_parameters_unchanged():
    store = make_store()
    before = store_bytes(store)
    adam_step(store, lr=0.1, t=1)
    assert store_bytes(store) == before


def test_adam_first_step_magnitude_is_lr():
    store = ParamStore({"w": np.array([2.0])})
    store.zero_grad()
    store["w"].grad[...] = 1.0
    adam_step(store, lr=0.01, t=1)
    assert store["w"].value[0] == pytest.approx(2.0 - 0.01, abs=1e-6)


def test_adam_converges_on_quadratic():
    # minimize (w - 3)^2 from 0; convergence of the optimizer is the oracle
    store = ParamStore({"w": np.array([0.0])})
    for t in range(1, 2001):
        store.zero_grad()
        store["w"].grad[...] = 2.0 * (store["w"].value - 3.0)
        adam_step(store, lr=0.01, t=t)
    assert abs(store["w"].value[0] - 3.0) < 0.01


def test_adam_rejects_nonfinite_gradient_naming_parameter():
    # the first, a middle and the last parameter, before and after packing
    for name in ("k", "w", "b"):
        for packed in (False, True):
            store = ParamStore({"k": np.ones((2, 3, 2)), "w": np.arange(6.0).reshape(2, 3),
                                "b": np.array([0.5, -0.5, 0.25])})
            if packed:
                store.zero_grad()
            for other, node in store.items():
                g = np.full(node.value.shape, 0.125)
                if other == name:
                    g.flat[-1] = np.inf if packed else np.nan
                ad._acc(node, g)
            before = store_bytes(store)
            with pytest.raises(NumericError, match=f"parameter '{name}'$"):
                adam_step(store, lr=0.1, t=1)
            assert store_bytes(store) == before  # no parameter moved


def reference_adam(values, grads, ms, vs, lr, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step as a plain loop over the parameters, one array each;
    returns each parameter's update."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    updates = {}
    for name, g in grads.items():
        m, v = ms[name], vs[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        updates[name] = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        values[name] -= updates[name]
    return updates


def test_adam_matches_per_parameter_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    store = ParamStore({"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4),
                        "k": rng.normal(size=(2, 3, 5)),  # outside the graph
                        "s": rng.normal(size=())})
    x, target = rng.normal(size=(6, 3)), rng.normal(size=(6, 4))
    values = {name: node.value.copy() for name, node in store.items()}
    ms = {name: np.zeros_like(v) for name, v in values.items()}
    vs = {name: np.zeros_like(v) for name, v in values.items()}

    def backward():
        with ad.tape():
            pred = ad.linear(Node(x), store["w"], store["b"])
            ad.mse(pred, target * store["s"].value).backward()

    for t in range(1, 8):
        if t == 1:
            backward()  # allocates w and b's gradients lazily, before packing
        elif t == 4:
            for name, node in store.items():  # overwrites every packed view
                node.grad[...] = rng.normal(size=node.value.shape)
        else:
            store.zero_grad()
            backward()
            if t == 3:
                store["k"].grad[...] = rng.normal(size=(2, 3, 5))
            else:
                store["k"].grad[...] += rng.normal(size=(2, 3, 5))
            store["s"].grad[...] = rng.normal()
        grads = {name: np.zeros_like(v) if store[name].grad is None else store[name].grad.copy()
                 for name, v in values.items()}
        updates = reference_adam(values, grads, ms, vs, lr=0.05, t=t)
        adam_step(store, lr=0.05, t=t)
        assert store_bytes(store) == {name: v.tobytes() for name, v in values.items()}
        # the step spends each gradient slice and leaves the update there
        assert ({name: node.grad.tobytes() for name, node in store.items()}
                == {name: u.tobytes() for name, u in updates.items()})


def test_packed_store_allocates_five_rows():
    # values, gradients, Adam m and v, and one scratch row
    store = ParamStore({f"p{k}": np.ones((50, 500)) for k in range(4)})
    n = 4 * 50 * 500
    tracemalloc.start()
    try:
        store.zero_grad()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert store._flat.shape == (5, n)
    assert 5 * n * 8 <= peak < 5 * n * 8 + 16384, peak - 5 * n * 8


def test_adam_rejects_bad_step_count():
    with pytest.raises(ConfigError):
        adam_step(make_store(), lr=0.1, t=0)


def test_save_load_roundtrip_byte_exact(tmp_path):
    store = make_store()
    path = tmp_path / "weights.cvdp"
    ps.save(store, path)
    loaded = ps.load(path)
    assert loaded.names() == store.names()
    for name in store.names():
        assert np.array_equal(loaded[name].value, store[name].value)
    second = tmp_path / "again.cvdp"
    ps.save(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def entry(name: str, arr) -> bytes:
    """One CVDP entry, packed by hand from the documented layout."""
    arr = np.asarray(arr, dtype="<f8")
    name_b = name.encode("utf-8")
    head = struct.pack("<H", len(name_b)) + name_b + struct.pack("<I", arr.ndim)
    return head + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes()


def cvdp(*entries: bytes) -> bytes:
    return b"CVDP" + struct.pack("<II", 1, len(entries)) + b"".join(entries)


def entry_names(blob: bytes) -> list[str]:
    count, off, names = struct.unpack_from("<I", blob, 8)[0], 12, []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", blob, off)
        names.append(blob[off + 2 : off + 2 + n].decode("utf-8"))
        off += 2 + n
        (rank,) = struct.unpack_from("<I", blob, off)
        dims = struct.unpack_from(f"<{rank}I", blob, off + 4)
        off += 4 + 4 * rank + 8 * int(np.prod(dims, dtype=np.int64))
    return names


def test_save_writes_parameter_entries_only(tmp_path):
    store = make_store()
    store.zero_grad()
    store["w"].grad[...] = 0.25
    store["b"].grad[...] = -0.5
    adam_step(store, lr=0.01, t=1)  # moment buffers now exist in memory
    path = tmp_path / "weights.cvdp"
    ps.save(store, path)
    assert entry_names(path.read_bytes()) == ["w", "b"]
    second = tmp_path / "again.cvdp"
    ps.save(ps.load(path), second)
    assert path.read_bytes() == second.read_bytes()


def test_load_keeps_v1_moment_entries_as_extra_entries(tmp_path):
    store = make_store()
    w, b = store["w"].value, store["b"].value
    moments = {
        "w::adam_m": np.full((2, 3), 0.1), "w::adam_v": np.full((2, 3), 0.2),
        "b::adam_m": np.full(3, 0.3), "b::adam_v": np.full(3, 0.4),
    }
    path = tmp_path / "old.cvdp"
    path.write_bytes(cvdp(entry("w", w), entry("b", b),
                          *(entry(name, arr) for name, arr in moments.items())))
    loaded = ps.load(path)
    assert loaded.names() == ["w", "b", *moments]
    assert store_bytes(loaded) == {**store_bytes(store),
                                   **{name: arr.tobytes() for name, arr in moments.items()}}

    # pairing is not checked: an unpaired, orphaned or unknown moment name is
    # an entry like any other
    for extra in (("w::adam_m",), ("b::adam_m", "b::adam_v"), ("w::adam_x",)):
        path.write_bytes(cvdp(entry("w", w), *(entry(name, w) for name in extra)))
        assert ps.load(path).names() == ["w", *extra]


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory):
    """The README data set (seed 7) and a short run trained on it, made once
    per module: (data directory, run directory)."""
    root = tmp_path_factory.mktemp("readme")
    data, run = root / "data", root / "run"
    _stdout(["gen-synth", "--out", str(data), "--seed", "7"])
    _stdout(["train", "--data", str(data / "manifest.txt"), "--out", str(run),
             "--seed", "11", "--epochs", "2,2,2"])
    return data, run


def test_run_with_v1_moment_entries_decodes_byte_identically(readme_run, tmp_path):
    # every stage file as the first writer laid it out: each parameter entry
    # followed by its Adam moments, "<param>::adam_m" and "<param>::adam_v"
    data, run = readme_run
    old = tmp_path / "old"
    shutil.copytree(run, old)
    rng = np.random.default_rng(5)
    for stage in ("cnn", "rnn", "dae", "head"):
        path = old / f"{stage}.cvdp"
        entries = []
        for name, node in ps.load(path).items():
            shape = node.value.shape
            entries += [entry(name, node.value), entry(f"{name}::adam_m", rng.normal(size=shape)),
                        entry(f"{name}::adam_v", rng.random(shape))]
        path.write_bytes(cvdp(*entries))
        names = entry_names(path.read_bytes())
        assert len(names) == 3 * len(entry_names((run / path.name).read_bytes()))
        assert names[1:3] == [f"{names[0]}::adam_m", f"{names[0]}::adam_v"]
    # a loaded stage holds its layout's entries only
    loaded, written = load_artifacts(old), load_artifacts(run)
    for stage in ("cnn", "rnn", "dae", "head"):
        assert getattr(loaded, stage).names() == getattr(written, stage).names()
    trial = sorted((data / "trials").iterdir())[0]
    for command in (["predict", "--trial", str(trial)],
                    ["eval", "--data", str(data / "manifest.txt")]):
        assert (_stdout([*command, "--weights", str(old)])
                == _stdout([*command, "--weights", str(run)]))


def test_load_rejects_invalid_utf8_name_with_offset(tmp_path):
    path = tmp_path / "weights.cvdp"
    blob = cvdp(entry("w", [1.0]))
    # the name starts at byte 14, after the header and its u16 length
    path.write_bytes(blob[:14] + b"\xff" + blob[15:])
    with pytest.raises(ParseError, match=r"weights\.cvdp: .*UTF-8 at byte 14"):
        ps.load(path)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "weights.cvdp"
    ps.save(make_store(), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="bad magic"):
        ps.load(path)


def test_load_reports_truncation_offset(tmp_path):
    path = tmp_path / "weights.cvdp"
    ps.save(make_store(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 7])
    with pytest.raises(ParseError, match=r"truncated at byte \d+"):
        ps.load(path)


def test_load_rejects_dims_whose_product_overflows(tmp_path):
    # 2**31 * 2**31 * 4 wraps to 0 in int64; the exact size is far past the end
    path = tmp_path / "weights.cvdp"
    head = struct.pack("<H", 1) + b"w" + struct.pack("<I3I", 3, 2**31, 2**31, 4)
    path.write_bytes(cvdp(head))
    with pytest.raises(ParseError, match=r"weights\.cvdp: truncated at byte 31"):
        ps.load(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "weights.cvdp"
    ps.save(make_store(), path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ParseError, match="trailing"):
        ps.load(path)


def test_load_rejects_nonfinite_entries(tmp_path):
    store = ParamStore({"w": np.array([np.inf])})
    path = tmp_path / "weights.cvdp"
    ps.save(store, path)
    with pytest.raises(ParseError, match="non-finite"):
        ps.load(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(ParseError, match="not found"):
        ps.load("/nonexistent/weights.cvdp")
    with pytest.raises(ParseError, match="not found"):
        ps.load(tmp_path)


# ---------------------------------------------------------------------------
# the reader, pinned field by field
# ---------------------------------------------------------------------------


# rank 0, 1, 2 and 3 entries, then an older writer's moment pair for "w"
LAYOUT_ENTRIES = (
    ("s", np.array(-1.5)),
    ("fc.b", np.array([0.5, -0.5, 0.25])),
    ("w", np.arange(6.0).reshape(2, 3)),
    ("k", np.linspace(-1.0, 1.0, 12).reshape(2, 3, 2)),
    ("w::adam_m", np.full((2, 3), 0.1)),
    ("w::adam_v", np.full((2, 3), 0.2)),
)


def layout_fields(entries) -> list[tuple[int, int]]:
    """(offset, size) of every field the reader takes, in reading order."""
    fields, off = [], 0
    for size in (4, 4, 4):  # magic, version, count
        fields.append((off, size))
        off += size
    for name, arr in entries:
        sizes = [2, len(name.encode("utf-8")), 4] + [4] * arr.ndim + [8 * arr.size]
        for size in sizes:
            fields.append((off, size))
            off += size
    return fields


def test_truncation_at_every_length_names_the_missing_field(tmp_path):
    blob = cvdp(*(entry(name, arr) for name, arr in LAYOUT_ENTRIES))
    fields = layout_fields(LAYOUT_ENTRIES)
    assert sum(size for _, size in fields) == len(blob)
    path = tmp_path / "weights.cvdp"
    for length in range(len(blob)):
        path.write_bytes(blob[:length])
        off, need = next((o, n) for o, n in fields if o + n > length)
        with pytest.raises(ParseError) as exc:
            ps.load(path)
        assert str(exc.value) == (
            f"{path}: truncated at byte {off} (need {need} bytes, {length - off} available)"
        ), length
    path.write_bytes(blob)
    loaded = ps.load(path)
    assert loaded.names() == [name for name, _ in LAYOUT_ENTRIES]
    for name, arr in LAYOUT_ENTRIES:
        assert loaded[name].value.shape == arr.shape
        assert loaded[name].value.tobytes() == arr.tobytes()


def test_loaded_values_are_owned_aligned_writable_float64(tmp_path):
    path = tmp_path / "weights.cvdp"
    # a 1-byte name puts every payload at an odd offset of the file
    path.write_bytes(cvdp(*(entry(name, arr) for name, arr in LAYOUT_ENTRIES)))
    for name, node in ps.load(path).items():
        arr = node.value
        assert arr.dtype == np.float64 and arr.dtype.isnative, name
        assert arr.flags["C_CONTIGUOUS"] and arr.flags["ALIGNED"], name
        assert arr.flags["WRITEABLE"] and arr.flags["OWNDATA"], name


def test_load_rejects_empty_entry_name_with_offset(tmp_path):
    path = tmp_path / "weights.cvdp"
    path.write_bytes(cvdp(entry("w", [1.0]), entry("", [2.0])))
    with pytest.raises(ParseError) as exc:
        ps.load(path)
    # the second entry starts after the header (12) and the 19-byte first entry
    assert str(exc.value) == f"{path}: empty entry name at byte 31"


def test_load_rejects_dims_no_array_can_hold(tmp_path):
    path = tmp_path / "weights.cvdp"
    # a zero dim makes the payload empty, but numpy cannot shape the others
    huge = struct.pack("<H", 1) + b"w" + struct.pack("<I4I", 4, 0, 2**32 - 1, 2**32 - 1, 7)
    # 65 dims of 1: one value, more dims than an array takes
    deep = (struct.pack("<H", 1) + b"d" + struct.pack("<I", 65) + struct.pack("<65I", *[1] * 65)
            + struct.pack("<d", 1.0))
    for blob in (cvdp(huge), cvdp(entry("a", [1.0]), deep)):
        path.write_bytes(blob)
        with pytest.raises(ParseError, match=r"weights\.cvdp: entry '[wd]' at byte \d+ has "
                                             r"(4|65) dims that no array can hold \(.+\)$"):
            ps.load(path)


def test_headers_are_checked_before_any_payload(tmp_path):
    path = tmp_path / "weights.cvdp"
    bad = entry("bad", [1.0, np.nan])
    cases = [
        (cvdp(bad, entry("w", [1.0, 2.0]))[:-3], r"truncated at byte 52 \(need 16 bytes, 13 available\)"),
        (cvdp(bad, entry("w", [1.0])) + b"xy", "2 trailing bytes at byte 60"),
        (cvdp(bad, entry("bad", [1.0])), "duplicate entry 'bad' at byte 41"),
        (cvdp(bad, entry("", [1.0])), "empty entry name at byte 41"),
    ]
    for blob, message in cases:
        path.write_bytes(blob)
        with pytest.raises(ParseError, match=message):
            ps.load(path)


def test_nonfinite_payload_names_the_first_bad_entry(tmp_path):
    path = tmp_path / "weights.cvdp"
    path.write_bytes(cvdp(entry("w", [1.0]), entry("b", [np.inf]), entry("c", [np.nan]),
                          entry("w::adam_m", [np.nan]), entry("w::adam_v", [0.0])))
    with pytest.raises(ParseError) as exc:
        ps.load(path)
    assert str(exc.value) == f"{path}: non-finite values in entry 'b' at byte 31"
    path.write_bytes(cvdp(entry("w", [1.0]), entry("w::adam_m", [np.nan]),
                          entry("w::adam_v", [0.0])))
    with pytest.raises(ParseError, match="non-finite values in entry 'w::adam_m' at byte 31"):
        ps.load(path)


def test_finite_check_by_sum_names_the_entry_and_warns_of_nothing(tmp_path):
    path = tmp_path / "weights.cvdp"
    # finite values whose sums overflow, to inf and to -inf
    huge = (entry("w", [1e308, 1e308]), entry("b", [-1e308, -1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning from a sum fails the test
        path.write_bytes(cvdp(*huge))
        loaded = ps.load(path)
        assert loaded["w"].value.tolist() == [1e308, 1e308]
        assert loaded["b"].value.tolist() == [-1e308, -1e308]
        # an inf whose sum with -inf is NaN, in the third entry: after the
        # 12-byte header and two 27-byte entries
        path.write_bytes(cvdp(*huge, entry("c", [1e308, np.inf, -np.inf]), entry("d", [np.nan])))
        with pytest.raises(ParseError) as exc:
            ps.load(path)
    assert str(exc.value) == f"{path}: non-finite values in entry 'c' at byte 66"


@pytest.fixture(scope="module")
def run16(tmp_path_factory):
    """A tiny default-config run over 16 channels: cnn.cvdp is its largest file."""
    root = tmp_path_factory.mktemp("run16")
    assert main(["gen-synth", "--out", str(root / "data"), "--channels", "16",
                 "--samples", "40", "--classes", "2", "--trials-per-class", "6"]) == 0
    assert main(["train", "--data", str(root / "data" / "manifest.txt"),
                 "--out", str(root / "run"), "--epochs", "1,1,1"]) == 0
    return root / "run"


def test_load_artifacts_holds_each_payload_once(run16):
    files = {p.stem: p for p in run16.glob("*.cvdp")}
    payload = {stem: sum(a.nbytes for a in ps.read_entries(p).values())
               for stem, p in files.items()}
    assert max(files, key=lambda stem: files[stem].stat().st_size) == "cnn"
    tracemalloc.start()
    try:
        load_artifacts(run16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every payload in its own array, the RNN's gate entries once more in
    # the fused arrays, and no more than the read buffer beside them
    assert peak <= sum(payload.values()) + payload["rnn"] + (1 << 16)


def _fstat_off_by(monkeypatch, delta: int) -> None:
    """Make os.fstat report `delta` bytes more than each file holds."""
    real = os.fstat

    def fstat(fd):
        st = real(fd)
        return os.stat_result((st.st_mode, st.st_ino, st.st_dev, st.st_nlink, st.st_uid,
                               st.st_gid, st.st_size + delta, int(st.st_atime),
                               int(st.st_mtime), int(st.st_ctime)))

    monkeypatch.setattr(os, "fstat", fstat)


def _size_change_message(path, case: str) -> str:
    """What reading `path` raises when its size is 8 bytes off fstat's, by `case`."""
    size = path.stat().st_size
    if case == "grown":
        return f"{path}: 8 trailing bytes at byte {size}"
    # the last entry's payload, 8 bytes short of its end
    nbytes = list(ps.read_entries(path).values())[-1].nbytes
    return (f"{path}: truncated at byte {size - nbytes} "
            f"(need {nbytes} bytes, {nbytes - 8} available)")


@pytest.mark.parametrize("case, delta", [
    ("grown", 8),  # fstat reports 8 bytes the file does not hold
    ("short", -8),  # the file holds 8 bytes past what fstat reports
    ("shrunk", 8),  # the file loses its last 8 bytes after fstat
])
def test_a_size_change_under_the_reader_is_a_parse_error(tmp_path, run16, monkeypatch,
                                                        case, delta):
    path = tmp_path / "weights.cvdp"
    ps.save(make_store(), path)
    run = tmp_path / "run"
    shutil.copytree(run16, run)
    expected = {p: _size_change_message(p, case) for p in (path, run / "cnn.cvdp")}
    if case == "shrunk":
        for p in expected:
            p.write_bytes(p.read_bytes()[:-8])
    _fstat_off_by(monkeypatch, delta)
    for load, arg, p in ((ps.load, path, path), (load_artifacts, run, run / "cnn.cvdp")):
        with pytest.raises(ParseError) as exc:
            load(arg)
        assert str(exc.value) == expected[p]
