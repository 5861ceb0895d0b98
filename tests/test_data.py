import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import discrimnet as dn
from discrimnet.data import (
    IdxFormatError,
    affine_transform,
    augment_batch,
    load_idx_dir,
)


def idx_image_bytes(images):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes()


def idx_label_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()


@pytest.fixture
def idx_pair(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    images[0, 3, 4] = 255
    images[1, 10, 10] = 128
    img_path = tmp_path / "imgs"
    lab_path = tmp_path / "labs"
    img_path.write_bytes(idx_image_bytes(images))
    lab_path.write_bytes(idx_label_bytes([7, 2]))
    return img_path, lab_path


def test_load_idx_well_formed_fixture(idx_pair):
    ds = dn.load_idx(*idx_pair)
    assert len(ds) == 2
    assert ds.images.shape == (2, 28, 28, 1)
    assert ds.images[0, 3, 4, 0] == 1.0          # pixel 255 -> exactly 1.0
    assert ds.images[1, 10, 10, 0] == 128 / 255
    assert_array_equal(ds.labels, [7, 2])


def test_load_idx_bad_magic(tmp_path, idx_pair):
    img_path, lab_path = idx_pair
    bad = tmp_path / "bad"
    blob = img_path.read_bytes()
    bad.write_bytes(struct.pack(">I", 0x00000802) + blob[4:])
    with pytest.raises(IdxFormatError, match="bad magic"):
        dn.load_idx(bad, lab_path)


def test_load_idx_truncated_payload(tmp_path, idx_pair):
    img_path, lab_path = idx_pair
    cut = tmp_path / "cut"
    cut.write_bytes(img_path.read_bytes()[:-10])
    with pytest.raises(IdxFormatError, match="truncated"):
        dn.load_idx(cut, lab_path)


def test_load_idx_count_mismatch(tmp_path, idx_pair):
    img_path, _ = idx_pair
    labs3 = tmp_path / "labs3"
    labs3.write_bytes(idx_label_bytes([1, 2, 3]))
    with pytest.raises(IdxFormatError, match="count mismatch"):
        dn.load_idx(img_path, labs3)


def test_real_mnist_test_split(mnist_root):
    ds = load_idx_dir(f"{mnist_root}/mnist", "test")
    assert len(ds) == 10000
    assert ds.labels.min() >= 0 and ds.labels.max() <= 9
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


# --- synthetic blobs ----------------------------------------------------------

def test_synth_blobs_deterministic():
    a = dn.synth_blobs(3, 8, 10, 4.0, seed=5)
    b = dn.synth_blobs(3, 8, 10, 4.0, seed=5)
    assert_array_equal(a.images, b.images)
    assert_array_equal(a.labels, b.labels)
    c = dn.synth_blobs(3, 8, 10, 4.0, seed=6)
    assert np.any(a.images != c.images)


def test_synth_blobs_exact_class_counts():
    ds = dn.synth_blobs(5, 6, 17, 3.0, seed=1)
    counts = np.bincount(ds.labels, minlength=5)
    assert_array_equal(counts, [17] * 5)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def train_logistic_one_epoch(ds, lr=0.5, batch=20, seed=0):
    # single dense layer + softmax CE, one pass
    n, h, w, c = ds.images.shape
    x = ds.images.reshape(n, -1)
    t = ds.one_hot()
    layer = dn.Dense(h * w * c, ds.num_classes, dn.Rng(seed))
    order = dn.Rng(seed).permutation(n)
    for start in range(0, n, batch):
        rows = order[start : start + batch]
        z = layer.forward(x[rows])
        _, dz = dn.softmax_cross_entropy(z, t[rows])
        layer.backward(dz)
        layer.w -= lr * layer.dw
        layer.b -= lr * layer.db
    z = layer.forward(x)
    return float((z.argmax(axis=1) == ds.labels).mean())


def test_synth_blobs_wide_separation_is_learnable():
    ds = dn.synth_blobs(2, 8, 150, 10.0, seed=2)
    assert train_logistic_one_epoch(ds) > 0.99


def test_synth_blobs_zero_separation_is_chance():
    ds = dn.synth_blobs(4, 8, 150, 0.0, seed=3)
    acc = train_logistic_one_epoch(ds)
    assert abs(acc - 0.25) < 0.12


# --- affine augmentation --------------------------------------------------------

def test_affine_identity_is_exact():
    img = dn.Rng(60).normal((12, 12, 1))
    out = affine_transform(img)
    assert np.abs(out - img).max() < 1e-12


def test_affine_pure_translation_moves_hot_pixel():
    img = np.zeros((9, 9, 1))
    img[4, 3, 0] = 1.0
    out = affine_transform(img, translate=(2.0, 0.0))
    assert out[6, 3, 0] == pytest.approx(1.0)
    assert out.sum() == pytest.approx(1.0)


def test_affine_rotation_round_trip():
    # Bilinear resampling is near-exact only for smooth content, so the
    # round-trip oracle uses a band-limited image and masks the border.
    r, c = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    img = (0.5 + 0.4 * np.sin(2 * np.pi * r / 16) * np.cos(2 * np.pi * c / 16))[..., None]
    once = affine_transform(img, rotation_deg=9.0)
    back = affine_transform(once, rotation_deg=-9.0)
    inner = (slice(4, 12), slice(4, 12), slice(None))
    assert np.abs(back[inner] - img[inner]).max() < 0.05


def test_affine_augment_respects_shape_and_determinism():
    cfg = dn.RunConfig()
    img = dn.Rng(62).normal((10, 10, 3))
    a = dn.affine_augment(img, dn.Rng(7), cfg)
    b = dn.affine_augment(img, dn.Rng(7), cfg)
    assert a.shape == img.shape
    assert_array_equal(a, b)


@pytest.mark.parametrize("shape", [(5, 9, 13, 3), (4, 28, 28, 1), (3, 6, 6)])
def test_augment_batch_equals_per_image_augment(shape):
    cfg = dn.RunConfig(augment_rotation_deg=15.0, augment_translate_frac=0.2,
                       augment_scale_low=0.8, augment_scale_high=1.2)
    images = dn.Rng(63).uniform(0.0, 1.0, shape)
    images[images < 0.2] = 0.0
    got = augment_batch(images, dn.Rng(8), cfg)
    rng = dn.Rng(8)
    want = np.stack([dn.affine_augment(im, rng, cfg) for im in images])
    assert got.dtype == want.dtype and got.shape == want.shape == images.shape
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_affine_augment_draw_order():
    # One image consumes four draws: rotation, scale, rows shift, cols shift.
    cfg = dn.RunConfig(augment_rotation_deg=12.0, augment_translate_frac=0.25,
                       augment_scale_low=0.85, augment_scale_high=1.15)
    img = dn.Rng(64).uniform(0.0, 1.0, (8, 12, 2))
    twin = dn.Rng(9)
    theta = twin.uniform(-12.0, 12.0)
    scale = twin.uniform(0.85, 1.15)
    ty = twin.uniform(-0.25 * 8, 0.25 * 8)
    tx = twin.uniform(-0.25 * 12, 0.25 * 12)
    want = affine_transform(img, rotation_deg=theta, scale=scale, translate=(ty, tx))
    assert_array_equal(dn.affine_augment(img, dn.Rng(9), cfg), want)
