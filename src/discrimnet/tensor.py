"""A seeded deterministic RNG and the binary bundle format of checkpoints.

A bundle is a JSON manifest followed by one DTRN0001 tensor record per
named array; records always store little-endian float64.
``restore_arrays`` is the one way they are read back into live arrays.
"""

import json
import math
import struct

import numpy as np

TENSOR_MAGIC = b"DTRN0001"
BUNDLE_MAGIC = b"DTRB0001"


class NonFiniteError(ArithmeticError):
    """An operation produced or received NaN/Inf values."""


class CheckpointError(RuntimeError):
    """A bundle is malformed or truncated."""


class Rng:
    """Seeded deterministic random stream.

    Backed by numpy's PCG64 bit generator, whose output stream for a
    given seed is fixed, so the same seed reproduces the same samples
    across runs and platforms.
    """

    def __init__(self, seed):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self._g = np.random.Generator(np.random.PCG64(seed))

    def normal(self, shape=None, loc=0.0, scale=1.0):
        return self._g.normal(loc, scale, size=shape)

    def uniform(self, low=0.0, high=1.0, shape=None):
        return self._g.uniform(low, high, size=shape)

    def permutation(self, n):
        return self._g.permutation(n)

    def integers(self, low, high=None, shape=None):
        return self._g.integers(low, high, size=shape)

    def choice(self, n, size, replace=False):
        return self._g.choice(n, size=size, replace=replace)

    def child(self, key):
        """Derive an independent deterministic substream.

        child(k) of a given seed always yields the same stream, so a
        consumer can replay one substream (say, dataset subsetting)
        without replaying the others.
        """
        r = object.__new__(Rng)
        r.seed = self.seed
        r._g = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=(int(key),)))
        )
        return r


def _write_tensor_record(f, arr):
    arr = np.asarray(arr, dtype="<f8")
    f.write(TENSOR_MAGIC)
    f.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<I", d))
    f.write(arr.tobytes())  # row-major, whatever the array's own layout


def _read_exact(f, n, what):
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated file: expected {n} bytes of {what}")
    return buf


def _read_tensor_record(f):
    magic = _read_exact(f, 8, "tensor magic")
    if magic != TENSOR_MAGIC:
        raise CheckpointError(f"bad tensor magic {magic!r}")
    (rank,) = struct.unpack("<I", _read_exact(f, 4, "rank"))
    shape = tuple(
        struct.unpack("<I", _read_exact(f, 4, "dims"))[0] for _ in range(rank)
    )
    payload = _read_exact(f, 8 * math.prod(shape), "payload")
    arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
    return arr


def save_bundle(path, manifest, arrays):
    """Write a named collection of tensors with a JSON manifest header.

    Layout: magic DTRB0001, u32 manifest length, UTF-8 JSON manifest
    (with an "entries" list fixing record order), then one DTRN0001
    record per entry.
    """
    entries = list(arrays)
    head = dict(manifest)
    head["entries"] = entries
    blob = json.dumps(head, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(BUNDLE_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for name in entries:
            _write_tensor_record(f, np.asarray(arrays[name]))


def load_bundle(path):
    """Read a bundle back as (manifest dict, name -> float64 array)."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 8, "bundle magic")
        if magic != BUNDLE_MAGIC:
            raise CheckpointError(f"bad bundle magic {magic!r}")
        (blob_len,) = struct.unpack("<I", _read_exact(f, 4, "manifest length"))
        try:
            manifest = json.loads(_read_exact(f, blob_len, "manifest"))
        except ValueError as e:
            raise CheckpointError(f"unreadable manifest: {e}") from e
        arrays = {}
        for name in manifest.get("entries", []):
            arrays[name] = _read_tensor_record(f)
    return manifest, arrays


def restore_arrays(live, stored, prefix=""):
    """Copy stored checkpoint arrays into an owner's live arrays, in place.

    Each live entry ``name`` is read from ``stored[prefix + name]``, which
    must exist, have the live shape and be finite; the copy takes the
    live dtype. Stored entries that no live entry names are ignored.
    """
    for name, arr in live.items():
        key = prefix + name
        if key not in stored:
            raise CheckpointError(f"checkpoint is missing entry {key}")
        src = stored[key]
        if src.shape != arr.shape:
            raise CheckpointError(f"entry {key} has shape {src.shape}, expected {arr.shape}")
        if not np.all(np.isfinite(src)):
            raise CheckpointError(f"entry {key} holds non-finite values")
        arr[...] = src
