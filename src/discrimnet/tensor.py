"""Seeded PCG64 generators and the binary bundle format of checkpoints.

``seeded_rng(seed, stream)`` returns numpy's own Generator; the engine
calls it directly, and ``train.py`` alone maps a run's seed to streams.

A bundle is a JSON manifest followed by one DTRN0001 tensor record per
named array; records always store little-endian float64.
``restore_arrays`` is the one way they are read back into live arrays.
"""

import contextlib
import json
import math
import os
import struct

import numpy as np

TENSOR_MAGIC = b"DTRN0001"
BUNDLE_MAGIC = b"DTRB0001"


class NonFiniteError(ArithmeticError):
    """An operation produced or received NaN/Inf values."""


class CheckpointError(RuntimeError):
    """A bundle is malformed or truncated."""


def seeded_rng(seed, stream=None):
    """numpy's PCG64 Generator for ``seed``, or for stream ``stream`` of it.

    PCG64 is named, not left to ``np.random.default_rng``, whose bit
    generator numpy may change. Each stream index gives an independent
    generator of the same seed, so one stream replays without the others.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    spawn_key = () if stream is None else (int(stream),)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _write_tensor_record(f, arr):
    arr = np.asarray(arr, dtype="<f8")
    f.write(TENSOR_MAGIC)
    f.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<I", d))
    f.write(arr.tobytes())  # row-major, whatever the array's own layout


def _check_left(f, size, n, what):
    """Refuse a declared length longer than the rest of the file, before
    read() would allocate it."""
    if n > size - f.tell():
        raise CheckpointError(
            f"truncated file: {what} declares {n} bytes, {size - f.tell()} are left"
        )


def _read_exact(f, n, what):
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated file: expected {n} bytes of {what}")
    return buf


def _read_tensor_record(f, size):
    magic = _read_exact(f, 8, "tensor magic")
    if magic != TENSOR_MAGIC:
        raise CheckpointError(f"bad tensor magic {magic!r}")
    (rank,) = struct.unpack("<I", _read_exact(f, 4, "rank"))
    shape = tuple(
        struct.unpack("<I", _read_exact(f, 4, "dims"))[0] for _ in range(rank)
    )
    nbytes = 8 * math.prod(shape)
    _check_left(f, size, nbytes, "a record")
    payload = _read_exact(f, nbytes, "payload")
    arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
    return arr


def save_bundle(path, manifest, arrays):
    """Write a named collection of tensors with a JSON manifest header.

    Layout: magic DTRB0001, u32 manifest length, UTF-8 JSON manifest
    (with an "entries" list fixing record order), then one DTRN0001
    record per entry.

    The bundle is written to ``<path>.<pid>.tmp`` beside ``path`` and then
    renamed onto it, so a write that fails leaves any earlier file at
    ``path`` as it was, and removes its temporary file.
    """
    entries = list(arrays)
    head = dict(manifest)
    head["entries"] = entries
    blob = json.dumps(head, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(BUNDLE_MAGIC)
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            for name in entries:
                _write_tensor_record(f, np.asarray(arrays[name]))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_bundle(path):
    """Read a bundle back as (manifest dict, name -> float64 array)."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = _read_exact(f, 8, "bundle magic")
        if magic != BUNDLE_MAGIC:
            raise CheckpointError(f"bad bundle magic {magic!r}")
        (blob_len,) = struct.unpack("<I", _read_exact(f, 4, "manifest length"))
        _check_left(f, size, blob_len, "the manifest")
        try:
            manifest = json.loads(_read_exact(f, blob_len, "manifest"))
        except (ValueError, RecursionError) as e:
            raise CheckpointError(f"unreadable manifest: {e}") from e
        if not isinstance(manifest, dict):
            raise CheckpointError("manifest is not a JSON object")
        entries = manifest.get("entries", [])
        if not (isinstance(entries, list) and all(isinstance(e, str) for e in entries)):
            raise CheckpointError("manifest entries are not a list of names")
        arrays = {name: _read_tensor_record(f, size) for name in entries}
    return manifest, arrays


def restore_arrays(live, stored, prefix=""):
    """Copy stored checkpoint arrays into an owner's live arrays, in place.

    Each live entry ``name`` is read from ``stored[prefix + name]``, which
    must exist, have the live shape and stay finite in the live dtype
    (1e39 is finite in float64 but not in float32); the copy takes the
    live dtype. Stored entries that no live entry names are ignored.
    """
    for name, arr in live.items():
        key = prefix + name
        if key not in stored:
            raise CheckpointError(f"checkpoint is missing entry {key}")
        src = stored[key]
        if src.shape != arr.shape:
            raise CheckpointError(f"entry {key} has shape {src.shape}, expected {arr.shape}")
        if not np.all(np.abs(src) <= np.finfo(arr.dtype).max):  # NaN fails too
            raise CheckpointError(f"entry {key} holds values not finite in {arr.dtype}")
        arr[...] = src
