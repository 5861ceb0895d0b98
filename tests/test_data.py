import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import discrimnet as dn
from discrimnet.data import IdxFormatError, _resample, augment_batch, load_idx_dir
from conftest import idx_image_bytes, idx_label_bytes, traced_peak


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


def test_load_idx_header_dims_too_large_for_int64(tmp_path):
    # 2**31 cubed wraps to 0 in int64, which an empty payload would match.
    imgs = tmp_path / "huge"
    imgs.write_bytes(struct.pack(">IIII", 0x00000803, *(2**31,) * 3))
    labs = tmp_path / "labs"
    labs.write_bytes(struct.pack(">II", 0x00000801, 2**31))
    with pytest.raises(IdxFormatError, match="truncated"):
        dn.load_idx(imgs, labs)


def test_real_mnist_test_split(mnist_root):
    ds = load_idx_dir(f"{mnist_root}/mnist", "test")
    assert len(ds) == 10000
    assert ds.labels.min() >= 0 and ds.labels.max() <= 9
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


# --- synthetic blobs ----------------------------------------------------------

def test_synth_blobs_deterministic():
    a = dn.synth_blobs(3, 8, 10, 4.0, dn.seeded_rng(5))
    b = dn.synth_blobs(3, 8, 10, 4.0, dn.seeded_rng(5))
    assert_array_equal(a.images, b.images)
    assert_array_equal(a.labels, b.labels)
    c = dn.synth_blobs(3, 8, 10, 4.0, dn.seeded_rng(6))
    assert np.any(a.images != c.images)


def test_synth_blobs_exact_class_counts():
    ds = dn.synth_blobs(5, 6, 17, 3.0, dn.seeded_rng(1))
    counts = np.bincount(ds.labels, minlength=5)
    assert_array_equal(counts, [17] * 5)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def train_logistic_one_epoch(ds, lr=0.5, batch=20, seed=0):
    # single dense layer + softmax CE, one pass
    n, h, w, c = ds.images.shape
    x = ds.images.reshape(n, -1)
    t = ds.labels
    layer = dn.Dense(h * w * c, ds.num_classes, dn.seeded_rng(seed))
    order = dn.seeded_rng(seed).permutation(n)
    for start in range(0, n, batch):
        rows = order[start : start + batch]
        z = layer.forward(x[rows], train=True)
        _, dz = dn.softmax_cross_entropy(z, t[rows])
        layer.backward(dz)
        layer.w -= lr * layer.dw
        layer.b -= lr * layer.db
    z = layer.forward(x)
    return float((z.argmax(axis=1) == ds.labels).mean())


def test_synth_blobs_wide_separation_is_learnable():
    ds = dn.synth_blobs(2, 8, 150, 10.0, dn.seeded_rng(2))
    assert train_logistic_one_epoch(ds) > 0.99


def test_synth_blobs_zero_separation_is_chance():
    ds = dn.synth_blobs(4, 8, 150, 0.0, dn.seeded_rng(3))
    acc = train_logistic_one_epoch(ds)
    assert abs(acc - 0.25) < 0.12


# --- affine augmentation --------------------------------------------------------

def affine_transform(image, rotation_deg=0.0, scale=1.0, translate=(0.0, 0.0)):
    """One fixed transform of one (h, w, c) image, through the batch resampler."""
    params = np.array([[rotation_deg, scale, translate[0], translate[1]]])
    return _resample(image[None], *params.T)[0]


def test_affine_identity_is_exact():
    img = dn.seeded_rng(60).normal(size=(12, 12, 1))
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


def reference_resample(images, rotation_deg, scale, translate_y, translate_x):
    """Per-corner masked reads, as ``_resample`` was first written: clip
    each corner into the image, gather, and zero it where it fell outside."""
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


def special_pixels(rng, shape, dtype=np.float64):
    """Signed normals with -0.0, +-inf and NaN scattered in."""
    images = rng.normal(size=shape)
    flat = images.reshape(-1)
    picks = rng.permutation(flat.size)
    for i, value in enumerate((-0.0, np.inf, -np.inf, np.nan)):
        flat[picks[i::23][:4]] = value
    return images.astype(dtype)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(6, 9, 13, 3), (8, 28, 28, 1), (5, 3, 4, 2)])
def test_resample_matches_the_masked_reference(shape, dtype):
    # Transforms from the augmentation bounds and well beyond them (half
    # turns, 0.3x to 3x, shifts past the border), over pixels that are
    # negative, -0.0, +-inf and NaN.
    rng = dn.seeded_rng(65)
    n, h, w = shape[:3]
    images = special_pixels(rng, shape, dtype)
    for low, high in (
        ((-10.0, 0.9, -0.1 * h, -0.1 * w), (10.0, 1.1, 0.1 * h, 0.1 * w)),
        ((-180.0, 0.3, -1.5 * h, -1.5 * w), (180.0, 3.0, 1.5 * h, 1.5 * w)),
    ):
        params = rng.uniform(low, high, (n, 4)).T
        assert_same_bits(_resample(images, *params), reference_resample(images, *params))


def test_resample_of_transforms_that_map_wholly_outside():
    rng = dn.seeded_rng(66)
    images = special_pixels(rng, (7, 10, 12, 2))
    params = np.array([
        [0.0, 1.0, 1e3, 0.0],
        [0.0, 1.0, 0.0, -1e3],
        [30.0, 1.0, -12.0, 14.0],
        [0.0, 1.0, 1e30, -1e30],
        [0.0, 1.0, -1e300, 0.0],
        [45.0, 1e-12, 0.0, 0.0],  # all but the center pixel thrown out
        [0.0, 1.0, 0.0, 0.0],
    ]).T
    got = _resample(images, *params)
    with np.errstate(invalid="ignore"):  # the reference casts huge floats to int64
        want = reference_resample(images, *params)
    assert_same_bits(got, want)
    assert not got[:6].any()


def test_resample_of_non_finite_coordinates_reads_zero():
    # Scale 0 and NaN or infinite parameters give NaN or infinite source
    # coordinates; the reference masks them out as outside the image.
    rng = dn.seeded_rng(67)
    images = special_pixels(rng, (5, 6, 7, 1))
    params = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [np.nan, 1.0, 0.0, 0.0],
        [0.0, 1.0, np.inf, 0.0],
        [0.0, 1.0, 0.0, -np.inf],
        [0.0, np.nan, 0.0, 0.0],
    ]).T
    with np.errstate(all="ignore"):
        got = _resample(images, *params)
        want = reference_resample(images, *params)
    assert_same_bits(got, want)


def test_resample_holds_few_batch_sized_temporaries():
    # A 100x28x28x1 float64 batch, the benchmark's augmented shape: its
    # output is 0.63 MB. Writing each step into an array already held
    # peaks at 4.60 MB at numpy 2.4, six such arrays and the bordered
    # copy; a fresh array per operation peaks at 8.37 MB.
    rng = dn.seeded_rng(68)
    images = rng.uniform(0.0, 1.0, (100, 28, 28, 1))
    params = rng.uniform((-10.0, 0.9, -2.8, -2.8), (10.0, 1.1, 2.8, 2.8), (100, 4)).T
    peak, _ = traced_peak(lambda: _resample(images, *params))
    assert peak < 6.0e6


def test_affine_augment_respects_shape_and_determinism():
    img = dn.seeded_rng(62).normal(size=(10, 10, 3))
    a = augment_batch(img[None], dn.seeded_rng(7))[0]
    b = augment_batch(img[None], dn.seeded_rng(7))[0]
    assert a.shape == img.shape
    assert_array_equal(a, b)


@pytest.mark.parametrize("shape", [(5, 9, 13, 3), (4, 28, 28, 1), (3, 6, 6)])
def test_augment_batch_equals_per_image_augment(shape):
    images = dn.seeded_rng(63).uniform(0.0, 1.0, shape)
    images[images < 0.2] = 0.0
    got = augment_batch(images, dn.seeded_rng(8))
    rng = dn.seeded_rng(8)
    want = np.stack([augment_batch(im[None], rng)[0] for im in images])
    assert got.dtype == want.dtype and got.shape == want.shape == images.shape
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_affine_augment_draw_order():
    # One image consumes four draws: rotation of up to 10 degrees either
    # way, scale in [0.9, 1.1], rows shift, cols shift of up to 0.1 of
    # the image side.
    img = dn.seeded_rng(64).uniform(0.0, 1.0, (8, 12, 2))
    twin = dn.seeded_rng(9)
    theta = twin.uniform(-10.0, 10.0)
    scale = twin.uniform(0.9, 1.1)
    ty = twin.uniform(-0.1 * 8, 0.1 * 8)
    tx = twin.uniform(-0.1 * 12, 0.1 * 12)
    want = affine_transform(img, rotation_deg=theta, scale=scale, translate=(ty, tx))
    assert_array_equal(augment_batch(img[None], dn.seeded_rng(9))[0], want)
