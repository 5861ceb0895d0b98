"""Dataset ingestion (IDX files), synthetic data, and affine augmentation."""

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import Rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Standard filenames of the IDX distribution (MNIST, FashionMNIST).
_IDX_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


class IdxFormatError(ValueError):
    """An IDX file has a bad magic number or a truncated payload."""


@dataclass
class Dataset:
    """Images in [0, 1] with integer class labels.

    images: (N, h, w, c) float array; labels: (N,) ints in [0, K).
    """

    images: np.ndarray
    labels: np.ndarray
    split: str = "train"
    num_classes: int = 0
    norm: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("image and label counts disagree")
        if self.num_classes == 0:
            self.num_classes = int(self.labels.max()) + 1 if len(self.labels) else 0
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self):
        return self.images.shape[0]

    def one_hot(self):
        t = np.zeros((len(self), self.num_classes))
        t[np.arange(len(self)), self.labels] = 1.0
        return t

    def subset(self, indices):
        indices = np.asarray(indices)
        return Dataset(
            images=self.images[indices],
            labels=self.labels[indices],
            split=self.split,
            num_classes=self.num_classes,
            norm=dict(self.norm),
        )


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
    count = int(np.prod(dims))
    if len(buf) - header < count:
        raise IdxFormatError(f"{path}: truncated payload ({len(buf) - header} of {count} bytes)")
    if len(buf) - header > count:
        raise IdxFormatError(f"{path}: {len(buf) - header - count} trailing bytes")
    return np.frombuffer(buf, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(images_path, labels_path, split="train"):
    """Load a big-endian IDX image/label file pair.

    Images use magic 0x00000803 (u8, 3 dims), labels 0x00000801
    (u8, 1 dim). Pixels are scaled to [0, 1] by dividing by 255.
    """
    raw_images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    raw_labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if raw_images.shape[0] != raw_labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {raw_images.shape[0]} images vs {raw_labels.shape[0]} labels"
        )
    images = raw_images.astype(np.float64)[..., None] / 255.0
    labels = raw_labels.astype(np.int64)
    return Dataset(images=images, labels=labels, split=split, num_classes=10,
                   norm={"scale": 255.0})


def load_idx_dir(root, split):
    """Load the standard-named IDX pair for a split from a directory."""
    if split not in _IDX_FILES:
        raise ValueError(f"unknown split {split!r}")
    img_name, lab_name = _IDX_FILES[split]
    return load_idx(os.path.join(root, img_name), os.path.join(root, lab_name), split=split)


def synth_blobs(num_classes, image_size, n_per_class, separation, seed):
    """Deterministic Gaussian-blob image classes for fast tests.

    Each class has a mean image lighting up one distinct pixel; class
    means are exactly `separation` apart in Euclidean distance before
    the final rescale to [0, 1] (the rescale is recorded in norm and
    preserves separability). Unit-variance noise is added per pixel, so
    large separations give linearly separable data and separation 0
    makes every class distribution identical.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    dim = image_size * image_size
    if num_classes > dim:
        raise ValueError("more classes than pixels")
    rng = Rng(seed)
    hot = rng.choice(dim, num_classes, replace=False)
    means = np.zeros((num_classes, dim))
    means[np.arange(num_classes), hot] = separation / np.sqrt(2.0)
    labels = np.repeat(np.arange(num_classes), n_per_class)
    raw = means[labels] + rng.normal(shape=(len(labels), dim))
    lo, hi = float(raw.min()), float(raw.max())
    images = ((raw - lo) / (hi - lo)).reshape(-1, image_size, image_size, 1)
    return Dataset(
        images=images,
        labels=labels.astype(np.int64),
        split="train",
        num_classes=int(num_classes),
        norm={"lo": lo, "hi": hi, "separation": float(separation)},
    )


@dataclass
class AffineConfig:
    """Bounds for the random affine augmentation."""

    rotation_deg: float = 10.0
    translate_frac: float = 0.1
    scale_low: float = 0.9
    scale_high: float = 1.1


def _resample(images, rotation_deg, scale, translate_y, translate_x):
    """Affine-resample a batch of (h, w, c) images, one transform each.

    The parameters are (n,) arrays. Each output pixel is mapped back into
    its source image (undo the translation, then the inverse rotation and
    scale about the center) and read by bilinear interpolation with zero
    padding. Returns float64 (n, h, w, c).
    """
    n, h, w, c = images.shape
    pixels = images.reshape(n * h * w, c)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = np.deg2rad(rotation_deg)[:, None, None]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    scale = scale[:, None, None]
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy = rows - cy - translate_y[:, None, None]
    dx = cols - cx - translate_x[:, None, None]
    src_y = (cos_t * dy + sin_t * dx) / scale + cy
    src_x = (-sin_t * dy + cos_t * dx) / scale + cx
    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    wy = src_y - y0
    wx = src_x - x0
    first_pixel = (np.arange(n) * (h * w))[:, None, None]
    out = np.zeros((n, h, w, c), dtype=np.float64)
    for oy, ox, weight in (
        (0, 0, (1 - wy) * (1 - wx)),
        (0, 1, (1 - wy) * wx),
        (1, 0, wy * (1 - wx)),
        (1, 1, wy * wx),
    ):
        yy = y0 + oy
        xx = x0 + ox
        inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        vals = pixels[first_pixel + np.clip(yy, 0, h - 1) * w + np.clip(xx, 0, w - 1)]
        out += np.where(inside[..., None], weight[..., None] * vals, 0.0)
    return out


def affine_transform(image, rotation_deg=0.0, scale=1.0, translate=(0.0, 0.0)):
    """Rotate/scale about the image center, then translate by pixels.

    translate is (rows down, cols right). Bilinear resampling with zero
    padding; the output shape equals the input shape.
    """
    image = np.asarray(image)
    h, w = image.shape[:2]
    params = np.array([[rotation_deg, scale, translate[0], translate[1]]], dtype=np.float64)
    return _resample(image.reshape(1, h, w, -1), *params.T).reshape(image.shape)


def _draw_affine(rng, config, h, w):
    """One (rotation, scale, rows shift, cols shift) draw within the bounds."""
    theta = rng.uniform(-config.rotation_deg, config.rotation_deg)
    scale = rng.uniform(config.scale_low, config.scale_high)
    ty = rng.uniform(-config.translate_frac * h, config.translate_frac * h)
    tx = rng.uniform(-config.translate_frac * w, config.translate_frac * w)
    return theta, scale, ty, tx


def affine_augment(image, rng, config):
    """Apply one random affine perturbation within the config bounds."""
    theta, scale, ty, tx = _draw_affine(rng, config, *image.shape[:2])
    return affine_transform(image, rotation_deg=theta, scale=scale, translate=(ty, tx))


def augment_batch(images, rng, config):
    """affine_augment applied to each image in turn, resampled in one pass.

    The draws are made image by image in the same order, so the result
    equals stacking per-image affine_augment calls bit for bit.
    """
    images = np.asarray(images)
    n, h, w = images.shape[:3]
    params = np.array([_draw_affine(rng, config, h, w) for _ in range(n)], dtype=np.float64)
    return _resample(images.reshape(n, h, w, -1), *params.T).reshape(images.shape)
