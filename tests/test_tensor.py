import os
import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import discrimnet as dn


def test_serialization_golden_bytes(tmp_path):
    path = tmp_path / "b.bin"
    dn.save_bundle(path, {"kind": "k"}, {"w": np.array([[1.0, 2.0], [3.0, 4.0]])})
    manifest = b'{"entries": ["w"], "kind": "k"}'
    want = b"DTRB0001" + struct.pack("<I", len(manifest)) + manifest
    want += b"DTRN0001" + struct.pack("<I", 2) + struct.pack("<II", 2, 2)
    want += np.array([1.0, 2.0, 3.0, 4.0]).astype("<f8").tobytes()
    assert path.read_bytes() == want


def test_serialization_round_trip(tmp_path):
    path = tmp_path / "b.bin"
    values = dn.seeded_rng(5).normal(size=(3, 4, 2))
    values[0, 0, 0] = -0.0
    dn.save_bundle(path, {}, {"v": values, "f32": values.astype(np.float32),
                              "scalar": np.float64(2.5)})
    _, back = dn.load_bundle(path)
    assert back["scalar"].shape == () and back["scalar"] == 2.5
    assert back["v"].shape == (3, 4, 2) and back["v"].dtype == np.float64
    assert_array_equal(back["v"].view(np.uint64), values.view(np.uint64))  # bit for bit
    assert_array_equal(back["f32"], values.astype(np.float32).astype(np.float64))


def test_truncated_tensor_file_errors(tmp_path):
    path = tmp_path / "b.bin"
    dn.save_bundle(path, {}, {"a": np.ones((4, 4))})
    blob = path.read_bytes()
    for cut in range(len(blob)):  # inside the magic, length, manifest, record header, payload
        path.write_bytes(blob[:cut])
        with pytest.raises(dn.CheckpointError):
            dn.load_bundle(path)
    path.write_bytes(blob.replace(b"DTRN0001", b"DTRN0002"))
    with pytest.raises(dn.CheckpointError, match="bad tensor magic"):
        dn.load_bundle(path)


def test_manifest_longer_than_the_file_is_refused_before_reading(tmp_path):
    # read() would allocate the declared ~4 GiB up front.
    path = tmp_path / "b.bin"
    path.write_bytes(b"DTRB0001" + struct.pack("<I", 0xFFFFFFF0) + b"{}")
    with pytest.raises(dn.CheckpointError, match="manifest declares 4294967280 bytes, 2 are left"):
        dn.load_bundle(path)


def test_deeply_nested_manifest_is_refused(tmp_path):
    # json.loads recurses once per level and raises RecursionError.
    path = tmp_path / "b.bin"
    manifest = b"[" * 200000 + b"]" * 200000
    path.write_bytes(b"DTRB0001" + struct.pack("<I", len(manifest)) + manifest)
    with pytest.raises(dn.CheckpointError, match="unreadable manifest"):
        dn.load_bundle(path)


def test_bundle_round_trip_and_truncation(tmp_path):
    path = tmp_path / "b.bin"
    arrays = {"a": np.arange(4.0), "b": np.ones((2, 2))}
    dn.save_bundle(path, {"note": "x"}, arrays)
    manifest, back = dn.load_bundle(path)
    assert manifest["note"] == "x"
    assert manifest["entries"] == ["a", "b"]
    assert_array_equal(back["a"], arrays["a"])
    assert_array_equal(back["b"], arrays["b"])
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(dn.CheckpointError):
        dn.load_bundle(path)


def test_failed_save_keeps_the_previous_bundle(tmp_path):
    path = tmp_path / "b.bin"
    dn.save_bundle(path, {}, {"a": np.arange(4.0)})
    before = path.read_bytes()
    with pytest.raises(ValueError):  # the second array cannot become float64
        dn.save_bundle(path, {}, {"a": np.ones(3), "b": np.array(["x"])})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["b.bin"]  # no temporary file is left


def test_restore_arrays_checks_the_range_of_the_live_dtype():
    live = {"w": np.ones(2, dtype=np.float32)}
    with pytest.raises(dn.CheckpointError, match="entry w "):  # inf in float32
        dn.restore_arrays(live, {"w": np.array([1e39, 2.0])})
    assert_array_equal(live["w"], [1.0, 1.0])  # left untouched
    dn.restore_arrays(live, {"w": np.array([3e38, -3e38])})
    assert_array_equal(live["w"], np.array([3e38, -3e38], dtype=np.float32))


def test_rng_determinism():
    a = dn.seeded_rng(42).normal(size=16)
    b = dn.seeded_rng(42).normal(size=16)
    c = dn.seeded_rng(43).normal(size=16)
    assert_array_equal(a, b)
    assert np.any(a != c)


def test_rng_child_streams_are_stable_and_distinct():
    a = dn.seeded_rng(9, 0).normal(size=8)
    b = dn.seeded_rng(9, 0).normal(size=8)
    c = dn.seeded_rng(9, 1).normal(size=8)
    assert_array_equal(a, b)
    assert np.any(a != c)


@pytest.mark.parametrize("stream, want", [
    (None, [0.781483647550524, 0.3882751196385571]),
    (0, [0.7375840785500124, 0.24554757078232337]),
    (1, [0.5903226157469701, 0.5944363144311812]),
], ids=["root", "stream0", "stream1"])
def test_rng_streams_match_recorded_draws(stream, want):
    """Seed 517's PCG64 draws, pinned so a change of bit generator or of
    stream derivation shows here, not as a silent change of every run."""
    got = dn.seeded_rng(517, stream).uniform(0.0, 1.0, 2)
    assert got.tolist() == want
