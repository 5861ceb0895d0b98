import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import discrimnet as dn
from conftest import finite_difference, rel_error


def layer_input_gradient_check(layer, x, train=False, tol=1e-4, h=1e-5):
    """Compare backward() against finite differences of a weighted output
    sum (random weights keep the probe non-degenerate, e.g. for
    batchnorm, whose plain output sum is input-invariant)."""
    out = layer.forward(x.copy(), train=train)
    weights = dn.Rng(987).normal(out.shape)
    got = layer.backward(weights)

    def scalar(xx):
        return float((layer.forward(xx, train=train) * weights).sum())

    fd = finite_difference(scalar, x, h=h)
    layer.forward(x.copy(), train=train)  # restore cache
    assert rel_error(got, fd) < tol


def layer_param_gradient_check(layer, x, train=False, tol=1e-4, h=1e-5):
    out = layer.forward(x.copy(), train=train)
    weights = dn.Rng(988).normal(out.shape)
    layer.backward(weights)
    analytic = {name: g.copy() for name, g in layer.parameter_grads()}
    for name, param in layer.parameters():
        def scalar(p, _name=name, _param=param):
            _param[...] = p
            return float((layer.forward(x.copy(), train=train) * weights).sum())
        orig = param.copy()
        fd = finite_difference(scalar, orig.copy(), h=h)
        param[...] = orig
        assert rel_error(analytic[name], fd) < tol, name


# --- relu --------------------------------------------------------------------

def test_relu_values():
    relu = dn.ReLU()
    out = relu.forward(np.array([-2.0, 3.0, 0.0]))
    assert_array_equal(out, [0.0, 3.0, 0.0])


def test_relu_backward_subgradient():
    relu = dn.ReLU()
    relu.forward(np.array([-2.0, 3.0, 0.0]))
    grads = relu.backward(np.ones(3))
    assert_array_equal(grads, [0.0, 1.0, 0.0])  # derivative at 0 is 0


def test_relu_finite_difference_away_from_kink():
    rng = dn.Rng(21)
    x = rng.normal((4, 6))
    x[np.abs(x) < 1e-3] = 0.5  # kink exclusion
    relu = dn.ReLU()
    layer_input_gradient_check(relu, x, tol=1e-6)


# --- dense ---------------------------------------------------------------------

def test_dense_gradients():
    rng = dn.Rng(22)
    layer = dn.Dense(5, 3, rng)
    x = rng.normal((4, 5))
    layer_input_gradient_check(layer, x)
    layer_param_gradient_check(layer, x)


def test_dense_shape_validation():
    layer = dn.Dense(5, 3, dn.Rng(0))
    with pytest.raises(ValueError):
        layer.forward(np.zeros((2, 4)))


# --- conv ----------------------------------------------------------------------

def test_conv_output_shape_with_padding():
    # 28x28x1 input, 32 filters, padding 1 keeps the resolution
    conv = dn.Conv2d(1, 32, padding=1, rng=dn.Rng(1))
    out = conv.forward(np.zeros((2, 28, 28, 1)))
    assert out.shape == (2, 28, 28, 32)


def test_conv_output_shape_without_padding():
    conv = dn.Conv2d(3, 8, padding=0, rng=dn.Rng(1))
    out = conv.forward(np.zeros((2, 8, 8, 3)))
    assert out.shape == (2, 6, 6, 8)


def test_conv_matches_direct_convolution():
    rng = dn.Rng(23)
    conv = dn.Conv2d(2, 3, padding=1, rng=rng)
    x = rng.normal((2, 5, 6, 2))
    out = conv.forward(x)
    w = conv.w.reshape(3, 3, 2, 3)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    want = np.zeros_like(out)
    for n in range(2):
        for i in range(5):
            for j in range(6):
                patch = xp[n, i : i + 3, j : j + 3, :]
                for c in range(3):
                    want[n, i, j, c] = (patch * w[:, :, :, c]).sum() + conv.b[c]
    assert np.abs(out - want).max() < 1e-12


def test_conv_gradients():
    rng = dn.Rng(24)
    for padding in (0, 1):
        conv = dn.Conv2d(2, 4, padding=padding, rng=rng)
        x = rng.normal((3, 6, 5, 2))
        layer_input_gradient_check(conv, x)
        layer_param_gradient_check(conv, x)


# --- maxpool ---------------------------------------------------------------------

def test_maxpool_shape_halves():
    pool = dn.MaxPool2x2()
    out = pool.forward(np.zeros((2, 28, 28, 3)))
    assert out.shape == (2, 14, 14, 3)


def test_maxpool_values_and_routing():
    pool = dn.MaxPool2x2()
    x = np.array(
        [[1.0, 2.0, 0.0, 0.0], [3.0, 4.0, 0.0, 5.0], [1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0]]
    ).reshape(1, 4, 4, 1)
    out = pool.forward(x)
    assert_array_equal(out[0, :, :, 0], [[4.0, 5.0], [1.0, 2.0]])
    dx = pool.backward(np.ones_like(out))
    # ties broken by first row-major position: (0,0) of each tied window
    assert dx[0, 1, 1, 0] == 1.0  # the 4
    assert dx[0, 1, 3, 0] == 1.0  # the 5
    assert dx[0, 2, 0, 0] == 1.0 and dx[0, 2, 1, 0] == 0.0  # tie in lower-left window
    assert dx[0, 2, 2, 0] == 1.0 and dx[0, 3, 3, 0] == 0.0  # tie in lower-right window
    assert dx.sum() == 4.0


def test_maxpool_gradient_check():
    rng = dn.Rng(25)
    x = rng.normal((2, 6, 6, 3))
    layer_input_gradient_check(dn.MaxPool2x2(), x, tol=1e-6)


def test_maxpool_odd_input_drops_tail():
    pool = dn.MaxPool2x2()
    x = dn.Rng(26).normal((1, 7, 7, 2))
    out = pool.forward(x)
    assert out.shape == (1, 3, 3, 2)
    dx = pool.backward(np.ones_like(out))
    assert dx.shape == x.shape
    assert np.all(dx[:, 6, :, :] == 0) and np.all(dx[:, :, 6, :] == 0)


# --- kernel oracles -----------------------------------------------------------------
# The loop-and-mask kernels the engine used before its vectorized ones,
# kept as slow references. The fast kernels must reproduce them bit for
# bit (sign of zero included), except where noted.

def _bits(a):
    a = np.asarray(a)
    return a.view(np.dtype(f"u{a.itemsize}"))


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert_array_equal(_bits(got), _bits(want))


def reference_relu(x, grad):
    mask = x > 0
    return np.where(mask, x, np.zeros((), x.dtype)), np.where(mask, grad, np.zeros((), grad.dtype))


def reference_pool_backward(x, out, grad):
    """Boolean-mask routing to the first maximum of each 2x2 window."""
    h2, w2 = out.shape[1:3]
    dx = np.zeros(x.shape, dtype=grad.dtype)
    taken = np.zeros(grad.shape, dtype=bool)
    for dy, dxo in ((0, 0), (0, 1), (1, 0), (1, 1)):
        view = x[:, dy : 2 * h2 : 2, dxo : 2 * w2 : 2, :]
        hit = (view == out) & ~taken
        dx[:, dy : 2 * h2 : 2, dxo : 2 * w2 : 2, :][hit] = grad[hit]
        taken |= hit
    return dx


def _reference_cols(x, padding):
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    oh, ow = xp.shape[1] - 2, xp.shape[2] - 2
    cols = np.concatenate(
        [xp[:, i : i + oh, j : j + ow, :] for i in range(3) for j in range(3)], axis=3
    )
    return cols.reshape(-1, cols.shape[3]), oh, ow


def reference_conv(x, w, b, padding, grad):
    """Concatenated im2col, one product per pass and a strided col2im.

    Returns (out, dw, db, dx) for the upstream gradient ``grad``."""
    n, h, wd, c = x.shape
    cols, oh, ow = _reference_cols(x, padding)
    out = (cols @ w + b).reshape(n, oh, ow, -1)
    g2 = grad.reshape(n * oh * ow, -1)
    dcols = (g2 @ w.T).reshape(n, oh, ow, -1)
    dxp = np.zeros((n, h + 2 * padding, wd + 2 * padding, c), dtype=grad.dtype)
    for block, (i, j) in enumerate((i, j) for i in range(3) for j in range(3)):
        dxp[:, i : i + oh, j : j + ow, :] += dcols[:, :, :, block * c : (block + 1) * c]
    dx = dxp[:, padding : padding + h, padding : padding + wd, :]
    return out, cols.T @ g2, g2.sum(axis=0), dx


def post_relu_input(rng, shape, dtype):
    """Rectified normals, about half exact zeros, plus ties among coarsely
    rounded positives and a few negative zeros."""
    x = np.maximum(np.round(rng.normal(shape) * 2.0) / 2.0, 0.0)
    x[rng.uniform(0.0, 1.0, shape) < 0.05] = -0.0
    return x.astype(dtype)


def signed_gradient(rng, shape, dtype):
    g = rng.normal(shape)
    g[rng.uniform(0.0, 1.0, shape) < 0.05] = -0.0
    return g.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_matches_where_reference(dtype):
    rng = dn.Rng(40)
    x = signed_gradient(rng, (3, 7, 7, 4), dtype)
    x[0, 0, 0, :] = [-0.0, 0.0, -1.0, 1.0]
    grad = signed_gradient(rng, x.shape, dtype)
    relu = dn.ReLU()
    want_out, want_dx = reference_relu(x, grad)
    assert_bitwise_equal(relu.forward(x), want_out)
    assert_bitwise_equal(relu.backward(grad), want_dx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 8, 8, 3), (3, 7, 7, 2), (2, 6, 9, 5)])
def test_maxpool_backward_matches_mask_reference(dtype, shape):
    rng = dn.Rng(41)
    x = post_relu_input(rng, shape, dtype)
    pool = dn.MaxPool2x2()
    out = pool.forward(x)
    grad = signed_gradient(rng, out.shape, dtype)
    assert_bitwise_equal(pool.backward(grad), reference_pool_backward(x, out, grad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("cin", [1, 3])
def test_conv_matches_im2col_reference(dtype, padding, cin):
    rng = dn.Rng(42)
    conv = dn.Conv2d(cin, 4, padding=padding, rng=rng)
    conv.w = conv.w.astype(dtype)
    conv.b = rng.uniform(-0.5, 0.5, 4).astype(dtype)
    x = post_relu_input(rng, (3, 7, 6, cin), dtype)
    out = conv.forward(x)
    grad = signed_gradient(rng, out.shape, dtype)
    dx = conv.backward(grad)
    want_out, want_dw, want_db, want_dx = reference_conv(x, conv.w, conv.b, padding, grad)
    assert_bitwise_equal(out, want_out)
    assert_bitwise_equal(conv.dw, want_dw)
    assert_bitwise_equal(conv.db, want_db)
    if cin > 1:
        assert_bitwise_equal(dx, want_dx)
    else:
        # One input channel makes each per-offset product a matrix-vector
        # product, which BLAS may sum in another order.
        assert dx.dtype == want_dx.dtype
        assert rel_error(dx, want_dx) < {np.float32: 1e-5, np.float64: 1e-12}[dtype]


# --- flatten ---------------------------------------------------------------------

def test_flatten_round_trip():
    flat = dn.Flatten()
    x = dn.Rng(27).normal((3, 4, 5, 2))
    out = flat.forward(x)
    assert out.shape == (3, 40)
    assert_array_equal(flat.backward(out), x)


# --- batchnorm ---------------------------------------------------------------------

def test_batchnorm_normalizes_in_training():
    rng = dn.Rng(28)
    bn = dn.BatchNorm(5)
    x = rng.normal((64, 5)) * 3.0 + 2.0
    out = bn.forward(x, train=True)
    assert np.abs(out.mean(axis=0)).max() < 1e-6
    assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4


def test_batchnorm_eval_before_training_errors():
    bn = dn.BatchNorm(3)
    with pytest.raises(RuntimeError):
        bn.forward(np.zeros((2, 3)), train=False)


def test_batchnorm_eval_uses_running_statistics():
    rng = dn.Rng(29)
    bn = dn.BatchNorm(4)
    for _ in range(200):
        bn.forward(rng.normal((32, 4)) * 2.0 + 1.0, train=True)
    x = rng.normal((16, 4)) * 2.0 + 1.0
    out = bn.forward(x, train=False)
    # running stats approximate the generating distribution
    assert np.abs(out.mean(axis=0)).max() < 0.5
    assert np.abs(bn.running_mean - 1.0).max() < 0.3
    assert np.abs(bn.running_var - 4.0).max() < 1.5


def test_batchnorm_gradients():
    rng = dn.Rng(30)
    bn = dn.BatchNorm(3)
    x = rng.normal((6, 3))
    layer_input_gradient_check(bn, x, train=True)
    layer_param_gradient_check(bn, x, train=True)


def test_batchnorm_gradients_nhwc():
    rng = dn.Rng(31)
    bn = dn.BatchNorm(2)
    x = rng.normal((2, 3, 3, 2))
    layer_input_gradient_check(bn, x, train=True)


# --- dropout -----------------------------------------------------------------------

def test_dropout_eval_is_bitwise_identity():
    drop = dn.Dropout(0.5, dn.Rng(32))
    x = dn.Rng(33).normal((4, 6))
    out = drop.forward(x, train=False)
    assert out is x


def test_dropout_training_masks_and_scales():
    drop = dn.Dropout(0.5, dn.Rng(34))
    x = np.ones((200, 50))
    out = drop.forward(x, train=True)
    kept = out != 0
    assert 0.4 < kept.mean() < 0.6
    assert_allclose(out[kept], 2.0)  # inverted scaling by 1/keep
    grads = drop.backward(np.ones_like(x))
    assert_array_equal(grads != 0, kept)
    assert_array_equal(grads, out)  # same mask and scale as forward


def test_dropout_keep_prob_validation():
    with pytest.raises(ValueError):
        dn.Dropout(0.0, dn.Rng(0))
