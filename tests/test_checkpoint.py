"""Binary container round trips and integrity checks."""

import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import payload_header, raw_checkpoint
from rgtn.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_tensor,
    save_checkpoint,
    save_tensor,
    save_tt,
)


class TestRoundTrip:
    def test_bit_exact_arrays(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "w_x": rng.standard_normal((3, 4)),
            "scalar": np.asarray(np.pi),
            "core": rng.standard_normal((2, 3, 2, 1)) * 1e-12,
        }
        path = str(tmp_path / "model.rgtn")
        save_checkpoint(path, arrays, {"kind": "model", "config": {"seed": 3}})
        loaded, meta = load_checkpoint(path)
        assert meta["kind"] == "model"
        assert meta["format_version"] == 1
        assert meta["config"] == {"seed": 3}
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name], np.asarray(arr, float))
            assert loaded[name].dtype == np.float64

    def test_double_round_trip_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {"a": rng.standard_normal((5, 2))}
        p1, p2 = str(tmp_path / "a.rgtn"), str(tmp_path / "b.rgtn")
        save_checkpoint(p1, arrays, {"kind": "model"})
        loaded, meta = load_checkpoint(p1)
        meta.pop("format_version")
        save_checkpoint(p2, loaded, meta)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_tensor_file(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 5))
        path = str(tmp_path / "x.rgtn")
        save_tensor(path, x)
        assert np.array_equal(load_tensor(path), x)

    def test_tt_file(self, tmp_path):
        rng = np.random.default_rng(3)
        cores = [rng.standard_normal((1, 3, 2)), rng.standard_normal((2, 4, 1))]
        path = str(tmp_path / "tt.rgtn")
        save_tt(path, cores, {"ranks": [1, 2, 1]})
        loaded, meta = load_checkpoint(path)
        assert meta["kind"] == "tt" and meta["n_cores"] == 2 and meta["ranks"] == [1, 2, 1]
        assert list(loaded) == ["core0", "core1"]
        for got, expect in zip(loaded.values(), cores):
            assert np.array_equal(got, expect)


    def test_load_holds_the_payload_about_twice(self, tmp_path):
        # the file's bytes and the loaded arrays, with no copy of the payload between
        x = np.random.default_rng(4).standard_normal(1 << 19)
        path = str(tmp_path / "x.rgtn")
        save_tensor(path, x)
        tracemalloc.start()
        try:
            loaded = load_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, x)
        assert loaded.flags.writeable and loaded.flags.aligned
        assert peak <= 2.1 * x.nbytes, peak / x.nbytes

class TestIntegrity:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rgtn"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_corrupted_payload(self, tmp_path):
        path = str(tmp_path / "model.rgtn")
        save_checkpoint(path, {"w": np.ones(4)}, {"kind": "model"})
        blob = bytearray(Path(path).read_bytes())
        blob[-3] ^= 0xFF
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        import struct

        # every version but the one this reader writes, older or newer, is named
        path = str(tmp_path / "model.rgtn")
        save_checkpoint(path, {"w": np.ones(2)}, {"kind": "model"})
        for version in (99, 0):
            blob = bytearray(Path(path).read_bytes())
            blob[8:12] = struct.pack("<I", version)
            Path(path).write_bytes(bytes(blob))
            with pytest.raises(CheckpointError, match=f"format version {version} is not"):
                load_checkpoint(path)

    def test_wrong_kind_helpers(self, tmp_path):
        path = str(tmp_path / "t.rgtn")
        save_tt(path, [np.ones((1, 3, 1))])
        with pytest.raises(CheckpointError, match="not a tensor file"):
            load_tensor(path)

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "list.rgtn"
        path.write_bytes(raw_checkpoint([1, 2, 3]))
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(str(path))

    def test_count_disagrees_with_shape(self, tmp_path):
        payload = np.arange(6.0).astype("<f8").tobytes()
        entries = [{"name": "w", "shape": [2, 2], "offset": 0, "count": 6}]
        path = tmp_path / "count.rgtn"
        path.write_bytes(raw_checkpoint(payload_header(entries, payload), payload))
        with pytest.raises(CheckpointError, match="'w' has count 6"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("offsets,values,problem", [
        ((0, 0), 6, "'b' starts at value 0, not at 4"),  # b aliases a's first two values
        ((0, 5), 7, "'b' starts at value 5, not at 4"),  # one value between them
        ((1, 5), 7, "'a' starts at value 1, not at 0"),
        ((0, 4), 7, "the entries end at byte 48 of a 56-byte payload"),
        ((0, 4), 5, "truncated payload: the entries need 48 bytes, it holds 40"),
    ], ids=["aliased", "gap", "late start", "trailing values", "truncated"])
    def test_entries_must_tile_the_payload(self, tmp_path, offsets, values, problem):
        payload = np.arange(float(values)).astype("<f8").tobytes()
        entries = [{"name": "a", "shape": [2, 2], "offset": offsets[0], "count": 4},
                   {"name": "b", "shape": [2], "offset": offsets[1], "count": 2}]
        path = tmp_path / "tiles.rgtn"
        path.write_bytes(raw_checkpoint(payload_header(entries, payload), payload))
        with pytest.raises(CheckpointError, match=problem):
            load_checkpoint(str(path))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats(-1e3, 1e3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["name", "shape", "offset", "count", "meta", "params"]), inner, max_size=4
    ),
    max_leaves=10,
)
ENTRIES = st.lists(
    st.fixed_dictionaries({
        "name": st.text(max_size=2),
        "shape": st.lists(st.integers(-1, 3), max_size=3),
        "offset": st.integers(-1, 6),
        "count": st.integers(-1, 8),
    }),
    max_size=3,
)


@st.composite
def checkpoint_bytes(draw):
    """Any bytes, from noise to a well-formed file with one byte changed."""
    kind = draw(st.sampled_from(["noise", "magic", "header", "mutated"]))
    if kind == "noise":
        return draw(st.binary(max_size=64))
    if kind == "magic":
        return b"RGTNCKPT" + draw(st.binary(max_size=64))
    payload = draw(st.binary(max_size=48))
    entries = draw(ENTRIES)
    if entries and draw(st.booleans()):
        field = draw(st.sampled_from(["name", "shape", "offset", "count"]))
        entries[0][field] = draw(JSON_VALUES)
    meta = draw(st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=2) | JSON_VALUES)
    header = payload_header(entries, payload, meta)
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.dictionaries(st.sampled_from(sorted(header)), JSON_VALUES, max_size=4))
    blob = raw_checkpoint(header, payload)
    if kind == "mutated" and blob:
        at = draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1 :]
        if draw(st.booleans()):
            blob = blob[: draw(st.integers(0, len(blob)))]
    return blob


class TestAnyBytes:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(blob=checkpoint_bytes())
    def test_load_raises_only_checkpoint_error(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "any.rgtn")
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass
