"""Property tests of the CVDP weight reader: valid stores round-trip byte for
byte, and damaged files are rejected only with covdec's own errors."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from covdec import params as ps
from covdec.errors import CovdecError
from covdec.params import ParamStore

from test_params import layout_fields

NAMES = st.text(min_size=1, max_size=6).filter(lambda s: "::" not in s)
SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def stores(draw, min_size=0):
    names = draw(st.lists(NAMES, min_size=min_size, max_size=5, unique=True))
    return [(name, draw(hnp.arrays(np.float64, draw(SHAPES), elements=FINITE)))
            for name in names]


def save_entries(entries, path) -> bytes:
    store = ParamStore()
    for name, arr in entries:
        store.add(name, arr)
    ps.save(store, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("cvdp") / "weights.cvdp"


@settings(max_examples=150, deadline=None)
@given(entries=stores())
def test_valid_store_round_trips_byte_exactly(scratch, entries):
    blob = save_entries(entries, scratch)
    loaded = ps.load(scratch)
    assert loaded.names() == [name for name, _ in entries]
    for name, arr in entries:
        assert loaded[name].value.shape == arr.shape
        assert loaded[name].value.tobytes() == arr.tobytes()
    ps.save(loaded, scratch)
    assert scratch.read_bytes() == blob


def load_or_reject(path) -> None:
    """Load, accepting a CovdecError; any other exception fails the test."""
    try:
        ps.load(path)
    except CovdecError:
        pass


@settings(max_examples=150, deadline=None)
@given(entries=stores(), data=st.data())
def test_truncations_raise_only_covdec_errors(scratch, entries, data):
    blob = save_entries(entries, scratch)
    scratch.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
    load_or_reject(scratch)


@settings(max_examples=300, deadline=None)
@given(entries=stores(), data=st.data())
def test_bit_flips_raise_only_covdec_errors(scratch, entries, data):
    blob = bytearray(save_entries(entries, scratch))
    for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=3)):
        blob[bit // 8] ^= 1 << (bit % 8)
    scratch.write_bytes(bytes(blob))
    load_or_reject(scratch)


@settings(max_examples=300, deadline=None)
@given(entries=stores(min_size=1), data=st.data())
def test_oversized_header_fields_raise_only_covdec_errors(scratch, entries, data):
    blob = bytearray(save_entries(entries, scratch))
    fields = layout_fields(entries)[3:]  # after magic, version and count
    starts, at = [], 0
    for _, arr in entries:  # each entry's fields: name_len, name, rank, dims..., payload
        starts.append(at)
        at += 4 + arr.ndim
    i = data.draw(st.integers(0, len(entries) - 1))
    ndim = entries[i][1].ndim
    field = data.draw(st.sampled_from(["name_len", "rank"] + ["dim"] * (ndim > 0)))
    if field == "name_len":
        off, _ = fields[starts[i]]
        struct.pack_into("<H", blob, off, data.draw(st.integers(0, 0xFFFF)))
    else:
        index = starts[i] + 2
        if field == "dim":
            index += 1 + data.draw(st.integers(0, ndim - 1))
        off, _ = fields[index]
        struct.pack_into("<I", blob, off, data.draw(st.integers(0, 0xFFFFFFFF)))
    scratch.write_bytes(bytes(blob))
    load_or_reject(scratch)
