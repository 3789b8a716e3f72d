import struct

import numpy as np
import pytest

from covdec import autodiff as ad
from covdec import params as ps
from covdec.autodiff import Node
from covdec.errors import ConfigError, NumericError, ParseError
from covdec.params import ParamStore, adam_step, require
from covdec.errors import StateError

from conftest import store_bytes


def make_store() -> ParamStore:
    store = ParamStore()
    store.add("w", np.arange(6.0).reshape(2, 3))
    store.add("b", np.array([0.5, -0.5, 0.25]))
    return store


def test_names_unique_and_ordered():
    store = make_store()
    assert store.names() == ["w", "b"]
    with pytest.raises(ConfigError, match="duplicate"):
        store.add("w", np.zeros(1))
    with pytest.raises(ConfigError, match="invalid"):
        store.add("w::adam_m", np.zeros(1))
    with pytest.raises(ConfigError, match="invalid"):
        store.add("", np.zeros(1))
    store.zero_grad()
    with pytest.raises(StateError, match="'c' to a store packed for training"):
        store.add("c", np.zeros(1))


def test_snapshot_is_a_copy():
    store = make_store()
    snap = store.snapshot()
    store["w"].value[...] = 0.0
    assert snap["w"][0, 1] == 1.0
    store.load_values(snap)
    assert store["w"].value[0, 1] == 1.0


def test_require_names_stage_and_params():
    store = make_store()
    require(store, ["w", "b"], "cnn")
    with pytest.raises(StateError, match="stage 'cnn' missing parameter.*fc1.w"):
        require(store, ["w", "fc1.w"], "cnn")


def test_adam_zero_gradient_leaves_parameters_unchanged():
    store = make_store()
    before = store.snapshot()
    adam_step(store, lr=0.1, t=1)
    for name in store.names():
        assert np.array_equal(store[name].value, before[name])


def test_adam_first_step_magnitude_is_lr():
    store = ParamStore()
    store.add("w", np.array([2.0]))
    store["w"].grad[...] = 1.0
    adam_step(store, lr=0.01, t=1)
    assert store["w"].value[0] == pytest.approx(2.0 - 0.01, abs=1e-6)


def test_adam_converges_on_quadratic():
    # minimize (w - 3)^2 from 0; convergence of the optimizer is the oracle
    store = ParamStore()
    store.add("w", np.array([0.0]))
    for t in range(1, 2001):
        store.zero_grad()
        store["w"].grad[...] = 2.0 * (store["w"].value - 3.0)
        adam_step(store, lr=0.01, t=t)
    assert abs(store["w"].value[0] - 3.0) < 0.01


def test_adam_rejects_nonfinite_gradient_naming_parameter():
    # the first, a middle and the last parameter, before and after packing
    for name in ("k", "w", "b"):
        for packed in (False, True):
            store = ParamStore()
            store.add("k", np.ones((2, 3, 2)))
            store.add("w", np.arange(6.0).reshape(2, 3))
            store.add("b", np.array([0.5, -0.5, 0.25]))
            if packed:
                store.zero_grad()
            for other in store.names():
                store[other].grad[...] = 0.125
            store[name].grad.flat[-1] = np.inf if packed else np.nan
            before = store_bytes(store)
            with pytest.raises(NumericError, match=f"parameter '{name}'$"):
                adam_step(store, lr=0.1, t=1)
            assert store_bytes(store) == before  # no parameter moved


def reference_adam(values, grads, ms, vs, lr, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step as a plain loop over the parameters, one array each."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, g in grads.items():
        m, v = ms[name], vs[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        values[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def test_adam_matches_per_parameter_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    store = ParamStore()
    store.add("w", rng.normal(size=(3, 4)))
    store.add("b", rng.normal(size=4))
    store.add("k", rng.normal(size=(2, 3, 5)))  # outside the graph
    store.add("s", rng.normal(size=()))
    x, target = rng.normal(size=(6, 3)), rng.normal(size=(6, 4))
    values = store.snapshot()
    ms = {name: np.zeros_like(v) for name, v in values.items()}
    vs = {name: np.zeros_like(v) for name, v in values.items()}

    def backward():
        pred = ad.linear(Node(x), store["w"], store["b"])
        ad.mse(pred, target * store["s"].value).backward()

    for t in range(1, 8):
        if t == 1:
            backward()  # allocates w and b's gradients lazily, before packing
        elif t == 4:
            for name, node in store.items():  # replaces every packed view
                node.grad = rng.normal(size=node.value.shape)
        else:
            store.zero_grad()
            backward()
            if t == 3:
                store["k"].grad = rng.normal(size=(2, 3, 5))
            else:
                store["k"].grad += rng.normal(size=(2, 3, 5))
            store["s"].grad[...] = rng.normal()
        grads = {name: np.zeros_like(v) if store[name]._grad is None else store[name].grad.copy()
                 for name, v in values.items()}
        reference_adam(values, grads, ms, vs, lr=0.05, t=t)
        adam_step(store, lr=0.05, t=t)
        assert store_bytes(store) == {name: v.tobytes() for name, v in values.items()}


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
    store["w"].grad[...] = 0.25
    store["b"].grad[...] = -0.5
    adam_step(store, lr=0.01, t=1)  # moment buffers now exist in memory
    path = tmp_path / "weights.cvdp"
    ps.save(store, path)
    assert entry_names(path.read_bytes()) == ["w", "b"]
    second = tmp_path / "again.cvdp"
    ps.save(ps.load(path), second)
    assert path.read_bytes() == second.read_bytes()


def test_load_accepts_and_drops_v1_moment_entries(tmp_path):
    store = make_store()
    w, b = store["w"].value, store["b"].value
    moments = [
        entry("w::adam_m", np.full((2, 3), 0.1)), entry("w::adam_v", np.full((2, 3), 0.2)),
        entry("b::adam_m", np.full(3, 0.3)), entry("b::adam_v", np.full(3, 0.4)),
    ]
    path = tmp_path / "old.cvdp"
    path.write_bytes(cvdp(entry("w", w), entry("b", b), *moments))
    loaded = ps.load(path)
    assert loaded.names() == ["w", "b"]
    assert store_bytes(loaded) == store_bytes(store)

    path.write_bytes(cvdp(entry("w", w), entry("b", b), *moments[:3]))
    with pytest.raises(ParseError, match="unpaired"):
        ps.load(path)
    path.write_bytes(cvdp(entry("w", w), *moments))
    with pytest.raises(ParseError, match="'b::adam_m' has no parameter"):
        ps.load(path)
    path.write_bytes(cvdp(entry("w", w), entry("w::adam_x", w)))
    with pytest.raises(ParseError, match="unrecognized reserved entry"):
        ps.load(path)


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
    store = ParamStore()
    store.add("w", np.array([np.inf]))
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


# rank 0, 1, 2 and 3 entries, then a moment pair for "w"
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
    assert loaded.names() == ["s", "fc.b", "w", "k"]
    for name, arr in LAYOUT_ENTRIES[:4]:
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
