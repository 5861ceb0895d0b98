import os
import struct
import tracemalloc

import numpy as np
import pytest

import discrimnet as dn


def finite_difference(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def small_chain(spec, input_shape, rng, taps=None, dtype="float64"):
    """A ``dn.Network`` of the layers ``spec`` lists, each sized to the
    output of the one before it on (n,) + ``input_shape`` batches.

    Entries: ``("conv", channels, padding)``, ``("dense", width)``,
    ``"dropout"``, ``"relu"``, ``"pool"``, ``"flatten"`` and ``"bn"``.
    Weights and dropout masks draw from ``rng`` in chain order, as
    ``build_architecture`` draws them. ``taps`` defaults to a ``logits``
    tap at the last layer.
    """
    shape, dt = tuple(input_shape), np.dtype(dtype)
    layers = []
    for entry in spec:
        kind, *args = (entry,) if isinstance(entry, str) else entry
        if kind == "conv":
            channels, padding = args
            layers.append(dn.Conv2d(shape[-1], channels, padding, rng, dt))
            grow = 2 * padding - 2  # a 3x3 kernel
            shape = (shape[0] + grow, shape[1] + grow, channels)
        elif kind == "dense":
            layers.append(dn.Dense(shape[-1], args[0], rng, dt))
            shape = (args[0],)
        elif kind == "pool":
            layers.append(dn.MaxPool2x2())
            shape = (shape[0] // 2, shape[1] // 2, shape[2])
        elif kind == "flatten":
            layers.append(dn.Flatten())
            shape = (int(np.prod(shape)),)
        elif kind == "bn":
            layers.append(dn.BatchNorm(shape[-1], dt))
        elif kind == "relu":
            layers.append(dn.ReLU())
        elif kind == "dropout":
            layers.append(dn.Dropout(rng))
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return dn.Network(layers, taps or {"logits": len(layers) - 1}, dtype=dtype)


def narrow_mnist_small(seed=0, channels=2, fc1=10, hidden=8, classes=3, dtype="float64"):
    """The ``mnist_small`` chain and taps at 8x8 input and narrower widths
    than the stock 32/64 channels and 256-wide fc1."""
    spec = [("conv", channels, 1), "relu", "pool", ("conv", channels, 1), "relu", "pool",
            "flatten", ("dense", fc1), "relu", ("dense", hidden), "relu", ("dense", classes)]
    taps = {"hidden_preact": 9, "logits": 11}
    return small_chain(spec, (8, 8, 1), dn.seeded_rng(seed), taps, dtype)


def rel_error(a, b):
    """Max-norm relative disagreement between two arrays.

    The floor keeps the ratio meaningful when both sides sit below
    central-difference resolution (~1e-10 at h=1e-5 in float64); such
    gradients are indistinguishable from zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def weighted_moments_direct(history, alpha):
    """Brute-force weighted mean and variance of a finite history.

    Weights are a**(N-i) for the i-th of N samples, normalized by the
    infinite geometric sum 1/(1-a) (the zero-prior convention), so
    E = (1-a) * sum(a**(N-i) * r_i) and V = E[r^2] - E[r]^2.
    Returns (mean, variance).
    """
    r = np.asarray(list(history), dtype=np.float64)
    n = r.size
    if n == 0:
        return 0.0, 0.0
    w = alpha ** np.arange(n - 1, -1, -1, dtype=np.float64)
    e1 = (1.0 - alpha) * float(np.dot(w, r))
    e2 = (1.0 - alpha) * float(np.dot(w, r * r))
    return e1, e2 - e1 * e1


def masked_weighted_mean_direct(history, alpha):
    """Brute-force gated weighted mean over (z, t) pairs.

    Computes (1-a) * sum(a**(N-i) * t_i * z_i); gated-out samples
    contribute nothing but still occupy a position in the decay window.
    """
    pairs = list(history)
    if not pairs:
        return 0.0
    z = np.asarray([p[0] for p in pairs], dtype=np.float64)
    t = np.asarray([p[1] for p in pairs], dtype=np.float64)
    w = alpha ** np.arange(z.size - 1, -1, -1, dtype=np.float64)
    return (1.0 - alpha) * float(np.dot(w, t * z))


def traced_peak(fn):
    """Run fn under tracemalloc; return (peak, held) in bytes above entry.

    ``peak`` is the most memory fn's allocations held at once, ``held``
    what they still hold when fn returns. Tracing starts at entry, so
    memory allocated earlier, and its release, count for nothing.
    """
    tracemalloc.start()
    try:
        fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held


def held_bytes(layer):
    """Bytes of the arrays a layer holds, as attributes or in a tuple
    attribute, besides its parameters, their gradients and its
    checkpointed state."""
    own = {id(a) for _, a in layer.parameters() + layer.parameter_grads() + layer.state()}
    values = [v for attr in vars(layer).values()
              for v in (attr if isinstance(attr, tuple) else (attr,))]
    return sum(a.nbytes for a in values if isinstance(a, np.ndarray) and id(a) not in own)


def separation_ratio_from_histogram(path):
    """Two-class variance ratio (within / total) of an exported neuron CSV."""
    values, targets = [], []
    with open(path, "r", encoding="utf-8") as f:
        next(f)
        for line in f:
            v, t = line.strip().split(",")
            values.append(float(v))
            targets.append(int(t))
    z = np.array(values)
    t = np.array(targets, dtype=bool)
    mu, mu_hat = z[t].mean(), z[~t].mean()
    var_within = np.where(t, (z - mu) ** 2, (z - mu_hat) ** 2).mean()
    var_total = ((z - z.mean()) ** 2).mean()
    return float(var_within / var_total)


def idx_image_bytes(images):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes()


def idx_label_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()


def write_idx_split(root, prefix, images, labels):
    """Write ``images`` (n, rows, cols) and ``labels`` as the standard-named
    IDX pair of one split (``prefix`` "train" or "t10k") in ``root``."""
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, f"{prefix}-images-idx3-ubyte"), "wb") as f:
        f.write(idx_image_bytes(images))
    with open(os.path.join(root, f"{prefix}-labels-idx1-ubyte"), "wb") as f:
        f.write(idx_label_bytes(labels))


def write_idx_dir(root, images, labels):
    """Write the same images and labels as both splits in ``root``, the
    layout ``load_idx_dir`` reads."""
    for prefix in ("train", "t10k"):
        write_idx_split(root, prefix, images, labels)


def data_root():
    candidates = [os.environ.get("DISCRIM_DATA_DIR"), "data", "/root/data"]
    for root in candidates:
        if root and os.path.isdir(os.path.join(root, "mnist")):
            return root
    return None


@pytest.fixture(scope="session")
def mnist_root():
    root = data_root()
    if root is None:
        pytest.skip(
            "MNIST IDX files not found; set DISCRIM_DATA_DIR to a directory "
            "containing mnist/train-images-idx3-ubyte etc. (see README)"
        )
    return root
