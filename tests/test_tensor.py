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
    values = dn.Rng(5).normal((3, 4, 2))
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


def test_rng_determinism():
    a = dn.Rng(42).normal(16)
    b = dn.Rng(42).normal(16)
    c = dn.Rng(43).normal(16)
    assert_array_equal(a, b)
    assert np.any(a != c)


def test_rng_child_streams_are_stable_and_distinct():
    r = dn.Rng(9)
    a = r.child(0).normal(8)
    b = dn.Rng(9).child(0).normal(8)
    c = dn.Rng(9).child(1).normal(8)
    assert_array_equal(a, b)
    assert np.any(a != c)
