"""Dataset ingestion (IDX files), synthetic data, and affine augmentation."""

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .streaming import class_ids

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Standard filenames of the IDX distribution (MNIST, FashionMNIST).
_IDX_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

# Bounds of the training-split augmentation: per image, a rotation of up
# to MAX_ROTATION_DEG either way, a scale in SCALE_RANGE, and a shift of
# up to MAX_SHIFT_FRAC of the image side along each axis.
MAX_ROTATION_DEG = 10.0
SCALE_RANGE = (0.9, 1.1)
MAX_SHIFT_FRAC = 0.1


class IdxFormatError(ValueError):
    """IDX files that cannot be a dataset: a bad magic number, a truncated
    payload, no samples, labels out of range, or splits of different
    image sizes."""


@dataclass
class Dataset:
    """Images in [0, 1] with integer class labels.

    images: (N, h, w, c) float array; labels: (N,) ints in [0, num_classes).
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    split: str = "train"

    def __post_init__(self):
        class_ids(self.labels, self.num_classes, self.images.shape[0])

    def __len__(self):
        return self.images.shape[0]

    def subset(self, indices):
        return replace(self, images=self.images[indices], labels=self.labels[indices])


def _read_idx(path, expect_magic, expect_dims):
    with open(path, "rb") as f:
        buf = f.read()
    header = 4 + 4 * expect_dims
    if len(buf) < header:
        raise IdxFormatError(f"{path}: truncated header")
    (magic,) = struct.unpack(">I", buf[:4])
    if magic != expect_magic:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    dims = struct.unpack(f">{expect_dims}I", buf[4:header])
    count = math.prod(dims)  # exact: np.prod wraps around on huge header dims
    if len(buf) - header < count:
        raise IdxFormatError(f"{path}: truncated payload ({len(buf) - header} of {count} bytes)")
    if len(buf) - header > count:
        raise IdxFormatError(f"{path}: {len(buf) - header - count} trailing bytes")
    return np.frombuffer(buf, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(images_path, labels_path, split="train"):
    """Load a big-endian IDX image/label file pair.

    Images use magic 0x00000803 (u8, 3 dims), labels 0x00000801
    (u8, 1 dim), and the labels are class ids in [0, 10). Pixels are
    scaled to [0, 1] by dividing by 255.
    """
    raw_images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    raw_labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if raw_images.shape[0] != raw_labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {raw_images.shape[0]} images vs {raw_labels.shape[0]} labels"
        )
    if raw_labels.size == 0:
        raise IdxFormatError(f"{labels_path}: no samples")
    rows, cols = raw_images.shape[1:]
    if rows == 0 or cols == 0:
        raise IdxFormatError(f"{images_path}: images of {rows}x{cols} pixels")
    if raw_labels.max() >= 10:
        raise IdxFormatError(f"{labels_path}: label {raw_labels.max()} out of range [0, 10)")
    images = raw_images.astype(np.float64)[..., None] / 255.0
    labels = raw_labels.astype(np.int64)
    return Dataset(images=images, labels=labels, split=split, num_classes=10)


def load_idx_dir(root, split):
    """Load the standard-named IDX pair for a split from a directory."""
    if split not in _IDX_FILES:
        raise ValueError(f"unknown split {split!r}")
    img_name, lab_name = _IDX_FILES[split]
    return load_idx(os.path.join(root, img_name), os.path.join(root, lab_name), split=split)


def synth_blobs(num_classes, image_size, n_per_class, separation, rng):
    """Gaussian-blob image classes for fast tests, drawn from ``rng``.

    Each class has a mean image lighting up one distinct pixel; class
    means are exactly `separation` apart in Euclidean distance before
    the final rescale to [0, 1] (the rescale preserves separability).
    Unit-variance noise is added per pixel, so large separations give
    linearly separable data and separation 0 makes every class
    distribution identical.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    dim = image_size * image_size
    if num_classes > dim:
        raise ValueError("more classes than pixels")
    hot = rng.choice(dim, num_classes, replace=False)
    means = np.zeros((num_classes, dim))
    means[np.arange(num_classes), hot] = separation / np.sqrt(2.0)
    labels = np.repeat(np.arange(num_classes), n_per_class)
    raw = means[labels] + rng.normal(size=(len(labels), dim))
    lo, hi = float(raw.min()), float(raw.max())
    images = ((raw - lo) / (hi - lo)).reshape(-1, image_size, image_size, 1)
    return Dataset(
        images=images,
        labels=labels.astype(np.int64),
        split="train",
        num_classes=int(num_classes),
    )


def _resample(images, rotation_deg, scale, translate_y, translate_x):
    """Affine-resample a batch of (h, w, c) images, one transform each.

    The parameters are (n,) arrays. Each output pixel is mapped back into
    its source image (undo the translation, then the inverse rotation and
    scale about the center) and read by bilinear interpolation with zero
    padding. Returns float64 (n, h, w, c).

    The corners are gathered from a copy of the batch with a 2-pixel zero
    border. Source coordinates are clipped to [-2, h] and [-2, w], NaN to
    -2: the clip only moves points whose four corners all lie outside the
    image, so they still read only border zeros, with finite weights.

    Each step writes into an array it already holds wherever the formula
    allows, so at most six batch-sized arrays and the bordered copy are
    live at once. The result has the bits of the plain expressions
    ``src_y = (cos * dy + sin * dx) / scale + cy`` and
    ``out = 0 + sum over corners of weight * pixel``, in corner order.
    """
    n, h, w, c = images.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = np.deg2rad(rotation_deg)[:, None, None]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    scale = scale[:, None, None]
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy = rows - cy - translate_y[:, None, None]
    dx = cols - cx - translate_x[:, None, None]
    src_y = cos_t * dy
    src_y += sin_t * dx
    src_y /= scale
    src_y += cy
    src_x = np.multiply(-sin_t, dy, out=dy)
    src_x += cos_t * dx
    src_x /= scale
    src_x += cx
    del dx
    padded = np.zeros((n, h + 4, w + 4, c))
    padded[:, 2 : h + 2, 2 : w + 2, :] = images
    pixels = padded.reshape(-1, c)
    row = w + 4
    index = np.arange(n)[:, None, None] * ((h + 4) * row)
    floor = np.empty_like(src_y)
    for src, size, stride in ((src_y, h, row), (src_x, w, 1)):
        np.fmin(np.fmax(src, -2.0, out=src), size, out=src)
        np.floor(src, out=floor)
        src -= floor  # the fractional part: the corner weight along this axis
        cell = floor.astype(np.int64)
        cell += 2
        cell *= stride
        cell += index
        index = cell
    wy, wx = src_y, src_x
    # Corner (0, 0): its values, weighted, become the output; adding 0.0
    # turns -0.0 into +0.0 as the sum from zero does. ``mode="clip"``
    # leaves the in-range indices alone and lets ``take`` write into
    # ``out=`` unbuffered.
    weight = np.subtract(1, wy, out=floor)
    weight *= np.subtract(1, wx)
    out = np.take(pixels, index, axis=0)
    out *= weight[..., None]
    out += 0.0
    vals = np.empty_like(out)

    def add_corner(step, weight):
        """Move the index ``step`` pixels on and add the weighted values there."""
        np.add(index, step, out=index)
        np.take(pixels, index, axis=0, out=vals, mode="clip")
        np.multiply(vals, weight[..., None], out=vals)
        np.add(out, vals, out=out)

    add_corner(1, np.multiply(np.subtract(1, wy, out=weight), wx, out=weight))  # (0, 1)
    add_corner(row - 1, np.multiply(np.subtract(1, wx, out=weight), wy, out=weight))  # (1, 0)
    add_corner(1, np.multiply(wy, wx, out=wy))  # (1, 1)
    return out


def augment_batch(images, rng):
    """One random affine perturbation per image, resampled in one pass.

    Each image takes four draws within the bounds above, image by image:
    rotation, scale, rows shift, cols shift. So the result equals
    augmenting the images one at a time, as batches of one from the same
    rng, bit for bit.
    """
    images = np.asarray(images)
    n, h, w = images.shape[:3]
    low = (-MAX_ROTATION_DEG, SCALE_RANGE[0], -MAX_SHIFT_FRAC * h, -MAX_SHIFT_FRAC * w)
    high = (MAX_ROTATION_DEG, SCALE_RANGE[1], MAX_SHIFT_FRAC * h, MAX_SHIFT_FRAC * w)
    params = rng.uniform(low, high, (n, 4))
    return _resample(images.reshape(n, h, w, -1), *params.T).reshape(images.shape)
