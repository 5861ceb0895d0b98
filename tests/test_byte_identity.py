"""Byte identity of training: seed-517 runs of the benchmark's three
workloads must write the ``steps.csv`` and ``epochs.csv`` whose sha256
prefixes ``PREFIXES`` records.

The bits of a BLAS product depend on the numpy build, the BLAS library,
the CPU kernels OpenBLAS picks (its core name) and the thread count, so
the table is keyed by that fingerprint. On a fingerprint it does not
list, the test skips and prints the fingerprint and the prefixes it got.
CI installs the newest numpy, whose OpenBLAS is built ``DYNAMIC_ARCH``
and picks its core from the runner's CPU, so CI may skip. A change that
moves training bits edits ``PREFIXES`` in the same commit.

Run as a script, this file trains the three workloads in the directory
it is given and prints the fingerprint and prefixes as JSON; the test
runs it in one child process per thread count, with
``OPENBLAS_NUM_THREADS`` set before numpy loads.
"""

import ctypes
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

SEED = 517
# The benchmark's workloads: a preset, then these overrides, then COMMON.
WORKLOADS = {
    "mnist28_f32_adaptive": ("mnist-combined", {
        "dtype": "float32", "synth_size": 28, "synth_per_class": 100, "epochs": 1,
    }),
    "tiny4_f64_streaming": ("mnist-combined", {
        "dtype": "float64", "lambda_discriminant": 0.01, "synth_separation": 3.0,
        "synth_size": 4, "synth_per_class": 500, "epochs": 10,
    }),
    "mnist28_f64_augment": ("mnist-baseline", {
        "dtype": "float64", "augment": True, "lambda_discriminant": 0.01,
        "lambda_center": 0.01, "synth_size": 28, "synth_per_class": 100, "epochs": 1,
    }),
}
COMMON = {"dataset": "synth", "synth_classes": 10, "batch_size": 100, "seed": SEED}

# fingerprint -> workload -> steps.csv/epochs.csv sha256 prefixes.
PREFIXES = {
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0, SkylakeX, threads 1": {
        "mnist28_f32_adaptive": "6348b486216bd0d5/f0911672b4bc5ca1",
        "tiny4_f64_streaming": "321d6a91131d0d0c/3f29d3a5433fa815",
        "mnist28_f64_augment": "f2338e9cca707ae1/a22953089f965e8e",
    },
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0, SkylakeX, threads 2": {
        "mnist28_f32_adaptive": "e6e7617b1fb552ba/f744c748e9db7bb3",
        "tiny4_f64_streaming": "93ea8fe5f5e10841/d566a25cfcba212d",
        "mnist28_f64_augment": "0eca10d75e532e06/2eaeffa5a8b946d9",
    },
}


def _openblas_query(name):
    """The result of OpenBLAS's ``openblas_get_<name>`` in this process, or
    None where no loaded OpenBLAS exports it (or mappings cannot be read)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}openblas_get_{name}{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p if name == "corename" else ctypes.c_int
                    fn.argtypes = []
                    value = fn()
                    return value.decode() if isinstance(value, bytes) else value
    return None


def fingerprint():
    import numpy as np

    config = getattr(np.__config__, "CONFIG", {})  # numpy >= 1.26
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return (f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, "
            f"{_openblas_query('corename')}, threads {_openblas_query('num_threads')}")


def _prefix(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def train_workloads(root):
    from discrimnet.config import apply_preset
    from discrimnet.train import run_training

    prefixes = {}
    for name, (preset, overrides) in WORKLOADS.items():
        out_dir = os.path.join(root, name)
        cfg = dataclasses.replace(apply_preset(preset), **overrides, **COMMON, out_dir=out_dir)
        run_training(cfg.validate())
        prefixes[name] = "/".join(_prefix(os.path.join(out_dir, f))
                                  for f in ("steps.csv", "epochs.csv"))
    return prefixes


@pytest.mark.parametrize("threads", [1, 2])
def test_training_bytes_match_the_recorded_prefixes(tmp_path, threads):
    if threads == 1 and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        pytest.skip("the 1-thread runs go with the suite's run on one BLAS thread")
    import discrimnet

    src = os.path.dirname(os.path.dirname(discrimnet.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found, got = json.loads(proc.stdout)
    if found not in PREFIXES:
        pytest.skip(f"no prefixes recorded for {found!r}; this run got {got}")
    assert got == PREFIXES[found], found


if __name__ == "__main__":
    runs = train_workloads(sys.argv[1])
    print(json.dumps([fingerprint(), runs]))
