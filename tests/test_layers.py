import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose, assert_array_equal

import discrimnet as dn
from conftest import finite_difference, rel_error
from discrimnet import layers
from discrimnet.layers import ROWS, _column_sums, _matmul


def layer_input_gradient_check(layer, x, train=False, tol=1e-4, h=1e-5):
    """Compare backward() against finite differences of a weighted output
    sum (random weights keep the probe non-degenerate, e.g. for
    batchnorm, whose plain output sum is input-invariant)."""
    out = layer.forward(x.copy(), train=train)
    weights = dn.seeded_rng(987).normal(size=out.shape)
    got = layer.backward(weights.copy())  # ReLU's backward overwrites its argument

    def scalar(xx):
        return float((layer.forward(xx.copy(), train=train) * weights).sum())

    fd = finite_difference(scalar, x, h=h)
    layer.forward(x.copy(), train=train)  # restore cache
    assert rel_error(got, fd) < tol


def layer_param_gradient_check(layer, x, train=False, tol=1e-4, h=1e-5):
    out = layer.forward(x.copy(), train=train)
    weights = dn.seeded_rng(988).normal(size=out.shape)
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
    relu.forward(np.array([-2.0, 3.0, 0.0]), train=True)
    grads = relu.backward(np.ones(3))
    assert_array_equal(grads, [0.0, 1.0, 0.0])  # derivative at 0 is 0


def test_relu_finite_difference_away_from_kink():
    rng = dn.seeded_rng(21)
    x = rng.normal(size=(4, 6))
    x[np.abs(x) < 1e-3] = 0.5  # kink exclusion
    relu = dn.ReLU()
    layer_input_gradient_check(relu, x, train=True, tol=1e-6)


# --- dense ---------------------------------------------------------------------

def test_dense_gradients():
    rng = dn.seeded_rng(22)
    layer = dn.Dense(5, 3, rng)
    x = rng.normal(size=(4, 5))
    layer_input_gradient_check(layer, x, train=True)
    layer_param_gradient_check(layer, x, train=True)


def test_dense_shape_validation():
    layer = dn.Dense(5, 3, dn.seeded_rng(0))
    with pytest.raises(ValueError):
        layer.forward(np.zeros((2, 4)))


# --- conv ----------------------------------------------------------------------

def test_conv_output_shape_with_padding():
    # 28x28x1 input, 32 filters, padding 1 keeps the resolution
    conv = dn.Conv2d(1, 32, padding=1, rng=dn.seeded_rng(1))
    out = conv.forward(np.zeros((2, 28, 28, 1)))
    assert out.shape == (2, 28, 28, 32)


def test_conv_output_shape_without_padding():
    conv = dn.Conv2d(3, 8, padding=0, rng=dn.seeded_rng(1))
    out = conv.forward(np.zeros((2, 8, 8, 3)))
    assert out.shape == (2, 6, 6, 8)


def test_conv_matches_direct_convolution():
    rng = dn.seeded_rng(23)
    conv = dn.Conv2d(2, 3, padding=1, rng=rng)
    x = rng.normal(size=(2, 5, 6, 2))
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
    rng = dn.seeded_rng(24)
    for padding in (0, 1):
        conv = dn.Conv2d(2, 4, padding=padding, rng=rng)
        x = rng.normal(size=(3, 6, 5, 2))
        layer_input_gradient_check(conv, x, train=True)
        layer_param_gradient_check(conv, x, train=True)


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
    out = pool.forward(x, train=True)
    assert_array_equal(out[0, :, :, 0], [[4.0, 5.0], [1.0, 2.0]])
    dx = pool.backward(np.ones_like(out))
    # ties broken by first row-major position: (0,0) of each tied window
    assert dx[0, 1, 1, 0] == 1.0  # the 4
    assert dx[0, 1, 3, 0] == 1.0  # the 5
    assert dx[0, 2, 0, 0] == 1.0 and dx[0, 2, 1, 0] == 0.0  # tie in lower-left window
    assert dx[0, 2, 2, 0] == 1.0 and dx[0, 3, 3, 0] == 0.0  # tie in lower-right window
    assert dx.sum() == 4.0


def test_maxpool_gradient_check():
    rng = dn.seeded_rng(25)
    x = rng.normal(size=(2, 6, 6, 3))
    layer_input_gradient_check(dn.MaxPool2x2(), x, train=True, tol=1e-6)


def test_maxpool_odd_input_drops_tail():
    pool = dn.MaxPool2x2()
    x = dn.seeded_rng(26).normal(size=(1, 7, 7, 2))
    out = pool.forward(x, train=True)
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

    Returns (out, dw, db, dx) for the upstream gradient ``grad``. With one
    input channel ``dw`` multiplies C-contiguous patch-major columns, the
    layout ``Conv2d`` gathers there: for a few output channels BLAS sums
    that product in another order than the transposed row-major one."""
    n, h, wd, c = x.shape
    cols, oh, ow = _reference_cols(x, padding)
    out = (cols @ w + b).reshape(n, oh, ow, -1)
    g2 = grad.reshape(n * oh * ow, -1)
    dcols = (g2 @ w.T).reshape(n, oh, ow, -1)
    dxp = np.zeros((n, h + 2 * padding, wd + 2 * padding, c), dtype=grad.dtype)
    for block, (i, j) in enumerate((i, j) for i in range(3) for j in range(3)):
        dxp[:, i : i + oh, j : j + ow, :] += dcols[:, :, :, block * c : (block + 1) * c]
    dx = dxp[:, padding : padding + h, padding : padding + wd, :]
    dw = (np.ascontiguousarray(cols.T) if c == 1 else cols.T) @ g2
    return out, dw, g2.sum(axis=0), dx


def post_relu_input(rng, shape, dtype):
    """Rectified normals, about half exact zeros, plus ties among coarsely
    rounded positives and a few negative zeros."""
    x = np.maximum(np.round(rng.normal(size=shape) * 2.0) / 2.0, 0.0)
    x[rng.uniform(0.0, 1.0, shape) < 0.05] = -0.0
    return x.astype(dtype)


def signed_gradient(rng, shape, dtype):
    g = rng.normal(size=shape)
    g[rng.uniform(0.0, 1.0, shape) < 0.05] = -0.0
    return g.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_matches_where_reference(dtype):
    rng = dn.seeded_rng(40)
    x = signed_gradient(rng, (3, 7, 7, 4), dtype)
    x[0, 0, 0, :] = [-0.0, 0.0, -1.0, 1.0]
    grad = signed_gradient(rng, x.shape, dtype)
    relu = dn.ReLU()
    want_out, want_dx = reference_relu(x, grad)
    assert_bitwise_equal(relu.forward(x, train=True), want_out)
    assert_bitwise_equal(relu.backward(grad), want_dx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_overwrites_its_arguments_bit_for_bit(dtype):
    # In-place forward and backward give the bits of the out-of-place
    # forms, np.maximum(x, 0) and np.where(x > 0, grad, 0), for +-0.0,
    # NaN of either sign and +-inf in the input and in the gradient.
    rng = dn.seeded_rng(55)
    specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf], dtype)
    x = signed_gradient(rng, (3, 5, 5, 4), dtype)
    grad = signed_gradient(rng, x.shape, dtype)
    for i, row in enumerate((specials, specials[::-1], np.roll(specials, 2))):
        x.reshape(-1)[6 * i : 6 * i + 6] = row
        grad.reshape(-1)[6 * i : 6 * i + 6] = specials
    want_out = np.maximum(x, 0)
    want_dx = np.where(x > 0, grad, np.zeros((), dtype))
    relu = dn.ReLU()
    out = relu.forward(x, train=True)
    assert np.shares_memory(out, x)
    assert_bitwise_equal(out, want_out)
    dx = relu.backward(grad)
    assert np.shares_memory(dx, grad)
    assert_bitwise_equal(dx, want_dx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 8, 8, 3), (3, 7, 7, 2), (2, 6, 9, 5)])
def test_maxpool_backward_matches_mask_reference(dtype, shape):
    rng = dn.seeded_rng(41)
    x = post_relu_input(rng, shape, dtype)
    pool = dn.MaxPool2x2()
    out = pool.forward(x, train=True)
    grad = signed_gradient(rng, out.shape, dtype)
    assert_bitwise_equal(pool.backward(grad), reference_pool_backward(x, out, grad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_routes_nothing_from_nan_windows(dtype):
    # Windows holding NaN (alone, beside +-inf, or behind an earlier
    # maximum) pool to NaN, and == never matches NaN, so the reference
    # routes nothing from them; +-inf windows route like any other.
    rng = dn.seeded_rng(46)
    x = post_relu_input(rng, (3, 6, 7, 4), dtype)
    flat = x.reshape(-1)
    picks = rng.permutation(flat.size)
    flat[picks[:12]] = np.nan
    flat[picks[12:24]] = np.inf
    flat[picks[24:36]] = -np.inf
    x[0, 0:2, 0:2, 0] = [[np.inf, np.nan], [np.inf, -np.inf]]
    x[0, 2:4, 0:2, 0] = [[-np.inf, -np.inf], [-np.inf, -np.inf]]
    x[0, 4:6, 0:2, 0] = [[np.nan, np.nan], [np.nan, np.nan]]
    x[1, 0:2, 0:2, 0] = [[1.0, 2.0], [2.0, np.nan]]
    pool = dn.MaxPool2x2()
    out = pool.forward(x, train=True)
    grad = signed_gradient(rng, out.shape, dtype)
    assert np.isnan(out).sum() >= 3 and np.isinf(out).any()
    assert_bitwise_equal(pool.backward(grad), reference_pool_backward(x, out, grad))


def reference_pool_forward(x):
    """MaxPool2x2's forward in one pass over the whole batch: the output
    and the uint8 index of each window's first maximum (4 for NaN)."""
    h2, w2 = x.shape[1] // 2, x.shape[2] // 2
    out = x[:, 0 : 2 * h2 : 2, 0 : 2 * w2 : 2, :].copy()
    first = np.zeros(out.shape, dtype=np.uint8)
    moved = np.empty(out.shape, dtype=np.uint8)
    for k, (dy, dx) in enumerate(((0, 1), (1, 0), (1, 1)), start=1):
        view = x[:, dy : 2 * h2 : 2, dx : 2 * w2 : 2, :]
        np.greater(view, out, out=moved.view(np.bool_))
        moved *= k
        np.maximum(first, moved, out=first)
        np.maximum(out, view, out=out)
    np.isnan(out, out=moved.view(np.bool_))
    moved *= 4
    np.maximum(first, moved, out=first)
    return out, first


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(23, 28, 28, 4), (23, 29, 27, 3), (100, 15, 15, 2),
                                   (3, 101, 91, 1)])
def test_maxpool_sample_chunks_match_one_pass_reference(dtype, shape):
    # Forward runs near-equal chunks of whole samples of at most ROWS
    # output pixels: 8, 8 and 7 samples at 14x14 and 14x13 outputs, 34, 34
    # and 32 at 7x7, and one sample per chunk at 50x45. Ties, +-0.0, NaN
    # and +-inf windows sit in every chunk, the last one included.
    rng = dn.seeded_rng(56)
    x = (np.round(rng.normal(size=shape) * 2.0) / 2.0).astype(dtype)
    flat = x.reshape(-1)
    picks = rng.permutation(flat.size)[:60]
    flat[picks[:20]] = -0.0
    flat[picks[20:30]] = np.nan
    flat[picks[30:40]] = np.inf
    flat[picks[40:50]] = -np.inf
    for s in (0, len(x) // 2, len(x) - 1):
        x[s, 0:2, 0:2, 0] = [[np.inf, np.nan], [np.inf, -np.inf]]
        x[s, 2:4, 0:2, 0] = [[-0.0, 0.0], [0.0, -0.0]]
        x[s, 4:6, 0:2, 0] = [[1.5, 1.5], [1.5, 1.5]]
        x[s, 6:8, 0:2, 0] = [[-np.inf, -np.inf], [-np.inf, -np.inf]]
    want_out, want_first = reference_pool_forward(x)
    pool = dn.MaxPool2x2()
    assert len(layers._chunks(len(x), want_out.shape[1] * want_out.shape[2])) >= 3
    assert_bitwise_equal(pool.forward(x), want_out)
    assert pool._first is None
    assert_bitwise_equal(pool.forward(x, train=True), want_out)
    assert_bitwise_equal(pool._first, want_first)
    grad = signed_gradient(rng, want_out.shape, dtype)
    assert_bitwise_equal(pool.backward(grad), reference_pool_backward(x, want_out, grad))


@pytest.mark.parametrize("make, shape", [
    (dn.ReLU, (2, 4, 4, 3)),
    (dn.MaxPool2x2, (2, 4, 4, 3)),
    (lambda: dn.BatchNorm(3), (2, 4, 4, 3)),
    (lambda: dn.Dropout(dn.seeded_rng(48)), (2, 4, 4, 3)),
    (lambda: dn.Dense(6, 4, dn.seeded_rng(49)), (2, 6)),
    (lambda: dn.Conv2d(3, 4, padding=1, rng=dn.seeded_rng(49)), (2, 4, 4, 3)),
    (dn.Flatten, (2, 4, 4, 3)),
], ids=["relu", "maxpool", "batchnorm", "dropout", "dense", "conv", "flatten"])
def test_backward_after_an_eval_forward_raises(make, shape):
    layer = make()
    x = dn.seeded_rng(47).normal(size=shape)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones(shape))  # no forward yet
    out = layer.forward(x, train=True)
    layer.backward(np.ones_like(out))
    out = layer.forward(x, train=False)  # drops the training forward's state
    with pytest.raises(RuntimeError, match="train=True"):
        layer.backward(np.ones_like(out))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("cin", [1, 3])
def test_conv_matches_im2col_reference(dtype, padding, cin):
    rng = dn.seeded_rng(42)
    conv = dn.Conv2d(cin, 4, padding=padding, rng=rng)
    conv.w = conv.w.astype(dtype)
    conv.b = rng.uniform(-0.5, 0.5, 4).astype(dtype)
    x = post_relu_input(rng, (3, 7, 6, cin), dtype)
    out = conv.forward(x, train=True)
    grad = signed_gradient(rng, out.shape, dtype)
    dx = conv.backward(grad)
    want_out, want_dw, want_db, want_dx = reference_conv(x, conv.w, conv.b, padding, grad)
    assert_bitwise_equal(out, want_out)
    assert_bitwise_equal(conv.dw, want_dw)
    assert_bitwise_equal(conv.db, want_db)
    assert_conv_dx(dx, want_dx, cin)


def assert_conv_dx(dx, want_dx, cin):
    """The per-offset input gradient against the reference's one
    ``g2 @ w.T``, for the fixed shapes of the tests that call this: there
    BLAS sums both alike for more than one input channel. That is BLAS's
    blocking, not a rule: at other shapes (64 output channels over a few
    input channels, or one output pixel) the bits differ, so
    ``assert_conv_step`` holds dx to ``assert_close``."""
    if cin > 1:
        assert_bitwise_equal(dx, want_dx)
    else:
        # One input channel makes each per-offset product a matrix-vector
        # product, which BLAS may sum in another order.
        assert_close(dx, want_dx)


def assert_close(got, want):
    """Equal up to the order in which BLAS sums a product."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert rel_error(got, want) < {np.float32: 1e-5, np.float64: 1e-12}[got.dtype.type]


@pytest.mark.parametrize("padding", [0, 1])
def test_conv_reuses_its_workspace_and_returns_fresh_outputs(padding):
    rng = dn.seeded_rng(43)
    conv = dn.Conv2d(2, 3, padding=padding, rng=rng)
    first = conv.forward(rng.normal(size=(2, 6, 5, 2)))
    kept = first.copy()
    cols = conv._cols
    second = conv.forward(rng.normal(size=(2, 6, 5, 2)))
    assert conv._cols is cols
    assert second is not first and not np.shares_memory(first, second)
    assert_bitwise_equal(first, kept)


@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("cin", [1, 3])
def test_conv_workspace_follows_batch_size_and_dtype(padding, cin):
    # The same layer sees batch 3, then batch 2, then batch 3 again, then
    # float32: each call must match the reference as if the layer were
    # new. The smaller batch and the return to the larger one use the
    # leading rows of the batch-3 workspace; float32 gets a new one. An
    # eval forward comes before and after each training step: with one
    # input channel it writes patch-major columns into the same
    # workspace, and must still give the training output bit for bit.
    rng = dn.seeded_rng(44)
    conv = dn.Conv2d(cin, 4, padding=padding, rng=rng)
    conv.b = rng.uniform(-0.5, 0.5, 4)
    cols = None
    for n, dtype, reused in ((3, np.float64, False), (2, np.float64, True),
                             (3, np.float64, True), (2, np.float32, False)):
        conv.w, conv.b = conv.w.astype(dtype), conv.b.astype(dtype)
        x = post_relu_input(rng, (n, 7, 6, cin), dtype)
        evaluated = conv.forward(x)
        assert (conv._cols is cols) == reused
        cols = conv._cols
        out = conv.forward(x, train=True)
        assert conv._cols is cols
        grad = signed_gradient(rng, out.shape, dtype)
        dx = conv.backward(grad)
        want_out, want_dw, want_db, want_dx = reference_conv(x, conv.w, conv.b, padding, grad)
        assert_bitwise_equal(out, want_out)
        assert_bitwise_equal(evaluated, want_out)
        assert_bitwise_equal(conv.dw, want_dw)
        assert_bitwise_equal(conv.db, want_db)
        assert_conv_dx(dx, want_dx, cin)
        assert_bitwise_equal(conv.forward(x), want_out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv_one_output_channel_eval_matches_training(dtype, padding):
    # One output channel makes the forward product a matrix-vector
    # product, whose sum order depends on the column layout. Eval and
    # training forwards pick the layout from the input's channel count
    # alone (patch-major here), so they agree bit for bit.
    rng = dn.seeded_rng(50)
    conv = dn.Conv2d(1, 1, padding=padding, rng=rng, dtype=dtype)
    x = post_relu_input(rng, (3, 7, 6, 1), dtype)
    out = conv.forward(x, train=True)
    assert_bitwise_equal(conv.forward(x), out)


def one_chunk(out):
    """Whether the batch of a convolution's output ran as one chunk."""
    return len(out) <= max(1, ROWS // (out.shape[1] * out.shape[2]))


def assert_conv_out(conv, out, want_out):
    """Bit for bit when the batch ran as one chunk, except for one input
    and one output channel, a matrix-vector product whose sum order
    follows the patch-major layout. Over several chunks, a chunk's
    product need not have the bits of the same rows of one product (seen
    with up to 9 output channels), so the fixed-shape tests pin those."""
    if one_chunk(out) and not conv.in_channels == conv.out_channels == 1:
        assert_bitwise_equal(out, want_out)
    else:
        assert_close(out, want_out)


def assert_conv_step(conv, x, rng):
    """One training forward and backward of ``conv`` on ``x`` against
    ``reference_conv``. db must match bit for bit, out as
    ``assert_conv_out`` says, and dw when the batch ran as one chunk:
    over several chunks it sums the same terms in another order. dx is
    held to ``assert_close`` (see ``assert_conv_dx``). Returned arrays
    must not alias the workspace. Returns out, dx and the reference's
    out and dx."""
    out = conv.forward(x, train=True)
    grad = signed_gradient(rng, out.shape, x.dtype)
    dx = conv.backward(grad)
    want_out, want_dw, want_db, want_dx = reference_conv(x, conv.w, conv.b, conv.padding, grad)
    assert_conv_out(conv, out, want_out)
    assert_bitwise_equal(conv.db, want_db)
    if one_chunk(out):
        assert_bitwise_equal(conv.dw, want_dw)
    else:
        assert_close(conv.dw, want_dw)
    assert_close(dx, want_dx)
    for kept in (conv._cols, conv._padded):
        assert not np.shares_memory(out, kept) and not np.shares_memory(dx, kept)
    return out, dx, want_out, want_dx


@st.composite
def conv_calls(draw):
    """A per-sample size and a sequence of (batch, train) calls. Small
    inputs run as one chunk; 2-3 samples of 35-40 pixels a side, more than
    ROWS // 2 output pixels each even without padding, run one chunk per
    sample."""
    if draw(st.booleans()):
        side, batch = st.integers(35, 40), st.integers(2, 3)
    else:
        side, batch = st.integers(3, 8), st.integers(1, 5)
    size = (draw(side), draw(side))
    return size, draw(st.lists(st.tuples(batch, st.booleans()), min_size=1, max_size=5))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    cin=st.sampled_from([1, 2, 3, 8, 32]),
    cout=st.sampled_from([1, 2, 3, 4, 9, 16, 64]),
    padding=st.sampled_from([0, 1]),
    dtype=st.sampled_from([np.float32, np.float64]),
    size_calls=conv_calls(),
    seed=st.integers(0, 2**16),
)
def test_conv_matches_im2col_reference_across_calls(cin, cout, padding, dtype, size_calls, seed):
    # One layer sees a sequence of batch sizes, training steps and eval
    # forwards interleaved, so each call runs on a workspace left by
    # calls of other sizes and modes, and large inputs accumulate dw
    # over several chunks.
    size, calls = size_calls
    rng = dn.seeded_rng(seed)
    conv = dn.Conv2d(cin, cout, padding=padding, rng=rng, dtype=dtype)
    conv.b = rng.uniform(-0.5, 0.5, cout).astype(dtype)
    for n, train in calls:
        x = post_relu_input(rng, (n, *size, cin), dtype)
        if train:
            assert_conv_step(conv, x, rng)
            continue
        evaluated = conv.forward(x)
        want_out = reference_conv(x, conv.w, conv.b, padding, np.zeros_like(evaluated))[0]
        assert_conv_out(conv, evaluated, want_out)
        assert not np.shares_memory(evaluated, conv._cols)
        with pytest.raises(RuntimeError, match="train=True"):
            conv.backward(np.ones_like(evaluated))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [100, 37])
@pytest.mark.parametrize("cin, cout, side", [(1, 32, 28), (32, 64, 14)], ids=["conv0", "conv1"])
def test_preset_conv_shapes_match_im2col_reference_over_chunks(dtype, n, cin, cout, side):
    # The two convolutions of mnist_small, at the preset batch and an odd
    # one. Forward runs near-equal chunks of whole samples: 2 at a time
    # for conv0's 784 output pixels per sample (1 in the last chunk at
    # batch 37), 10 for conv1's 196 (10, 10, 10 and 7 at batch 37).
    # Backward gathers the same chunks again and accumulates dw over
    # them, so dw is held to a tolerance; out, db and dx keep their bits.
    rng = dn.seeded_rng(51)
    conv = dn.Conv2d(cin, cout, padding=1, rng=rng, dtype=dtype)
    conv.b = rng.uniform(-0.5, 0.5, cout).astype(dtype)
    x = post_relu_input(rng, (n, side, side, cin), dtype)
    out, dx, want_out, want_dx = assert_conv_step(conv, x, rng)
    assert_bitwise_equal(out, want_out)
    assert_conv_dx(dx, want_dx, cin)
    assert_bitwise_equal(conv.forward(x), want_out)


def test_conv_forward_chunks_are_whole_near_equal_samples(monkeypatch):
    # 196 output pixels per sample: at most ROWS // 196 = 10 samples per
    # chunk, and near-equal chunks, so none is short (as _matmul's blocks).
    rows = []
    matmul = layers._matmul

    def spy(a, b, out=None):
        rows.append(len(a))
        return matmul(a, b, out=out)

    monkeypatch.setattr(layers, "_matmul", spy)
    rng = dn.seeded_rng(53)
    conv = dn.Conv2d(2, 3, padding=1, rng=rng)
    for n in (1, 9, 10, 11, 37, 100, 101):
        rows.clear()
        conv.forward(rng.normal(size=(n, 14, 14, 2)), train=True)
        samples = [r // 196 for r in rows]
        assert [s * 196 for s in samples] == rows and sum(samples) == n
        assert len(samples) == -(-n // 10) and max(samples) <= 10
        assert max(samples) - min(samples) < len(samples)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [100, 37])
def test_one_channel_conv_dw_layouts_agree_at_the_preset_shape(dtype, n):
    # conv0 of mnist_small gathers patch-major columns for its weight
    # gradient. At its 32 output channels BLAS sums them, chunk by chunk,
    # as it sums the transposed row-major columns, so the layout leaves
    # training's bits alone. CI runs this at 1 and 2 BLAS threads.
    rng = dn.seeded_rng(57)
    conv = dn.Conv2d(1, 32, padding=1, rng=rng, dtype=dtype)
    out = conv.forward(post_relu_input(rng, (n, 28, 28, 1), dtype), train=True)
    g2 = signed_gradient(rng, out.shape, dtype).reshape(-1, 32)
    conv.backward(g2.reshape(out.shape), input_grad=False)
    # Row-major columns, (n, pixels, 9), summed over the chunks backward walks.
    windows = sliding_window_view(conv._padded[:n], (3, 3), axis=(1, 2))
    cols = np.ascontiguousarray(windows[:, :, :, 0]).reshape(n, 28 * 28, 9)
    g3 = g2.reshape(n, 28 * 28, 32)
    want = None
    for samples in layers._chunks(n, 28 * 28):
        part = cols[samples].reshape(-1, 9).T @ g3[samples].reshape(-1, 32)
        want = part if want is None else want + part
    assert_bitwise_equal(conv.dw, want)


def held_bytes(layer):
    """Bytes of the arrays a layer holds besides its parameters and their gradients."""
    own = {id(a) for _, a in layer.parameters() + layer.parameter_grads()}
    return sum(a.nbytes for a in vars(layer).values()
               if isinstance(a, np.ndarray) and id(a) not in own)


@pytest.mark.parametrize("cin, cout, side, chunk", [(1, 32, 28, 2), (32, 64, 14, 10)],
                         ids=["conv0", "conv1"])
def test_conv_holds_its_padded_input_and_one_forward_chunk(cin, cout, side, chunk):
    # The convolutions of mnist_small at batch 100, float64, hold after
    # forward and after backward only their padded input and the columns
    # of one forward chunk of ROWS // (side * side) samples: conv1
    # 100x16x16x32 (6.6 MB) and 10x14x14 by 9*32 (4.5 MB), conv0
    # 100x30x30x1 (0.72 MB) and 2x28x28 by 9 (0.11 MB). The whole batch's
    # columns are 45.2 and 5.6 MB.
    rng = dn.seeded_rng(52)
    conv = dn.Conv2d(cin, cout, padding=1, rng=rng)
    out = conv.forward(rng.normal(size=(100, side, side, cin)), train=True)
    bound = (100 * (side + 2) ** 2 * cin + chunk * side * side * 9 * cin) * 8
    assert held_bytes(conv) <= bound
    conv.backward(np.ones_like(out))
    assert held_bytes(conv) <= bound


@pytest.mark.parametrize("make, shape", [
    (lambda rng: dn.Conv2d(3, 4, padding=1, rng=rng), (2, 5, 5, 3)),
    (lambda rng: dn.Conv2d(3, 4, padding=0, rng=rng), (2, 5, 5, 3)),
    (lambda rng: dn.Dense(6, 4, rng), (5, 6)),
    (lambda rng: dn.BatchNorm(3), (4, 3)),
    (lambda rng: dn.ReLU(), (2, 4, 4, 3)),
    (lambda rng: dn.MaxPool2x2(), (2, 4, 4, 3)),
    (lambda rng: dn.Flatten(), (2, 4, 4, 3)),
    (lambda rng: dn.Dropout(rng), (4, 6)),
], ids=["conv-pad1", "conv-pad0", "dense", "batchnorm-train", "relu", "maxpool", "flatten",
        "dropout"])
def test_backward_without_input_grad_keeps_parameter_grads(make, shape):
    rng = dn.seeded_rng(45)
    layer = make(rng)
    out = layer.forward(rng.normal(size=shape), train=True)
    grad = rng.normal(size=out.shape)
    assert layer.backward(grad).shape == shape
    want = [(name, g.copy()) for name, g in layer.parameter_grads()]
    assert layer.backward(grad, input_grad=False) is None
    got = layer.parameter_grads()
    assert [name for name, _ in got] == [name for name, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert_bitwise_equal(g, w)


# Each layer class's named arrays, in the order SGD and the checkpoints
# take them: (parameter name, attribute), (gradient name, attribute) and
# (state name, attribute).
NAMED_ARRAYS = [
    (lambda rng: dn.Dense(6, 4, rng), (5, 6),
     [("w", "w"), ("b", "b")], [("w", "dw"), ("b", "db")], []),
    (lambda rng: dn.Conv2d(3, 4, padding=1, rng=rng), (2, 4, 4, 3),
     [("w", "w"), ("b", "b")], [("w", "dw"), ("b", "db")], []),
    (lambda rng: dn.BatchNorm(3), (2, 4, 4, 3),
     [("gamma", "gamma"), ("beta", "beta")], [("gamma", "dgamma"), ("beta", "dbeta")],
     [("running_mean", "running_mean"), ("running_var", "running_var"),
      ("batches_seen", "batches_seen")]),
    (lambda rng: dn.ReLU(), (2, 4, 4, 3), [], [], []),
    (lambda rng: dn.MaxPool2x2(), (2, 4, 4, 3), [], [], []),
    (lambda rng: dn.Flatten(), (2, 4, 4, 3), [], [], []),
    (lambda rng: dn.Dropout(rng), (4, 6), [], [], []),
]


@pytest.mark.parametrize("make, shape, params, grads, state", NAMED_ARRAYS,
                         ids=["dense", "conv", "batchnorm", "relu", "maxpool", "flatten",
                              "dropout"])
def test_layers_hand_out_their_live_arrays_by_name(make, shape, params, grads, state):
    rng = dn.seeded_rng(46)
    layer = make(rng)

    def check(pairs, want):
        assert [name for name, _ in pairs] == [name for name, _ in want]
        for (_, arr), (_, attr) in zip(pairs, want):
            assert arr is getattr(layer, attr)

    check(layer.parameters(), params)
    check(layer.parameter_grads(), grads)  # no gradient yet
    check(layer.state(), state)
    out = layer.forward(rng.normal(size=shape), train=True)
    layer.backward(rng.normal(size=out.shape))
    check(layer.parameters(), params)
    check(layer.parameter_grads(), grads)
    assert all(isinstance(arr, np.ndarray) for _, arr in layer.parameter_grads())
    check(layer.state(), state)
    # The cases cover every layer class the module defines.
    classes = {cls for cls in vars(layers).values()
               if isinstance(cls, type) and issubclass(cls, layers.Layer)
               and cls is not layers.Layer and not cls.__name__.startswith("_")}
    assert {type(case[0](rng)) for case in NAMED_ARRAYS} == classes


def test_check_size_takes_integers_of_at_least_one():
    for value in (1, 28, np.int64(3), np.uint8(2)):
        size = layers.check_size(value)
        assert size == value and type(size) is int
    for value in (True, np.bool_(False), 4.7, np.float64(8.0), "8", None):
        with pytest.raises(TypeError, match="not an integer"):
            layers.check_size(value)
    for value in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match="layer sizes must be positive"):
            layers.check_size(value)


@pytest.mark.parametrize("make, error", [
    (lambda rng: dn.Dense(4.7, 3, rng), TypeError),
    (lambda rng: dn.Dense(4, np.float64(3.0), rng), TypeError),
    (lambda rng: dn.Conv2d(True, 4, 1, rng), TypeError),
    (lambda rng: dn.Conv2d(1, 4.0, 1, rng), TypeError),
    (lambda rng: dn.BatchNorm(2.5), TypeError),
    (lambda rng: dn.BatchNorm(0), ValueError),  # built an empty layer
], ids=["dense-float-in", "dense-numpy-float-out", "conv-bool-in", "conv-float-out",
        "batchnorm-float", "batchnorm-zero"])
def test_layer_constructors_refuse_sizes_check_size_refuses(make, error):
    # int() took 4.7 as 4 and True as 1.
    with pytest.raises(error):
        make(dn.seeded_rng(0))


# --- row-blocked products ----------------------------------------------------------
# A product of a few rows gets other bits than the same rows of a larger
# product (1 row for every engine shape, up to 37 rows for K=64, N=32), so
# a split into blocks of ROWS with a short tail block (M = ROWS + 1) would
# fail these.

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, n, transposed, largest", [
    (288, 64, False, 19600),    # conv1 forward, columns @ kernel
    (64, 32, True, 78400),      # conv1 input gradient, grad @ w[offset].T
    (9, 32, False, 78400),      # conv0 forward
    (3136, 256, False, 2 * ROWS + 1),  # dense0 forward
], ids=["conv1-fwd", "conv1-dx", "conv0-fwd", "dense0-fwd"])
def test_matmul_blocks_match_one_product(dtype, k, n, transposed, largest):
    # The largest M is the product's own at batch 100 (78400 rows for the
    # 28x28 layers), or 2 * ROWS + 1 where that would take over 100 MB.
    rng = dn.seeded_rng(46)
    b = rng.normal(size=(n, k) if transposed else (k, n)).astype(dtype)
    b = b.T if transposed else b
    for m in (ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1, 19600, 78400):
        if m > largest:
            continue
        a = rng.normal(size=(m, k)).astype(dtype)
        want = np.matmul(a, b)
        assert_bitwise_equal(_matmul(a, b), want)
        out = np.empty((m, n), dtype)
        assert _matmul(a, b, out=out) is out
        assert_bitwise_equal(out, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_blocks_a_transposed_left_operand(dtype):
    # dense0's weight gradient, x.T @ grad: 3136 rows of a transposed view.
    rng = dn.seeded_rng(47)
    x = rng.normal(size=(100, 3136)).astype(dtype)
    g = rng.normal(size=(100, 256)).astype(dtype)
    assert_bitwise_equal(_matmul(x.T, g), np.matmul(x.T, g))


def test_matmul_blocks_are_near_equal_and_never_short(monkeypatch):
    rows = []
    matmul = np.matmul

    def spy(a, b, out=None):
        rows.append(len(a))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    b = np.ones((1, 1))
    for m in [1, ROWS - 1, ROWS, 78400, *range(ROWS + 1, 64 * ROWS, 97)]:
        rows.clear()
        _matmul(np.ones((m, 1)), b)
        assert sum(rows) == m
        assert len(rows) == -(-m // ROWS)
        if m > ROWS:
            assert min(rows) >= ROWS // 2 and max(rows) <= ROWS
            assert max(rows) - min(rows) < len(rows)


@st.composite
def column_sum_inputs(draw):
    """A 1-5000 by 1-512 array of zero-heavy data with negative zeros,
    C- or F-ordered, or a strided or reversed view into a larger one."""
    rows, cols = draw(st.integers(1, 5000)), draw(st.integers(1, 512))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    layout = draw(st.sampled_from(["C", "F", "rows-strided", "cols-strided", "reversed"]))
    rng = dn.seeded_rng(draw(st.integers(0, 2**16)))
    row_step, col_step = {"rows-strided": (2, 1), "cols-strided": (1, 3)}.get(layout, (1, 1))
    a = rng.normal(size=(rows * row_step, cols * col_step))
    a[rng.uniform(0.0, 1.0, a.shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    a[rng.uniform(0.0, 1.0, a.shape) < 0.05] = -0.0
    a = a.astype(dtype)[::row_step, ::col_step]
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "reversed":
        a = a[::-1, ::-1]
    return a


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(a=column_sum_inputs())
@example(a=dn.seeded_rng(58).normal(size=(10000, 1))[::2])  # one strided column
@example(a=np.asfortranarray(dn.seeded_rng(59).normal(size=(5000, 7)).astype(np.float32)))
def test_column_sums_match_sum_over_rows(a):
    # einsum must add the rows in the order sum(axis=0) does, in every
    # numpy the package supports. The examples are layouts where einsum
    # gets other bits, so _column_sums must keep sum for them.
    assert_bitwise_equal(_column_sums(a), a.sum(axis=0))


# --- flatten ---------------------------------------------------------------------

def test_flatten_round_trip():
    flat = dn.Flatten()
    x = dn.seeded_rng(27).normal(size=(3, 4, 5, 2))
    out = flat.forward(x, train=True)
    assert out.shape == (3, 40)
    assert_array_equal(flat.backward(out), x)


# --- batchnorm ---------------------------------------------------------------------

def test_batchnorm_normalizes_in_training():
    rng = dn.seeded_rng(28)
    bn = dn.BatchNorm(5)
    x = rng.normal(size=(64, 5)) * 3.0 + 2.0
    out = bn.forward(x, train=True)
    assert np.abs(out.mean(axis=0)).max() < 1e-6
    assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4


def test_batchnorm_eval_before_training_errors():
    bn = dn.BatchNorm(3)
    with pytest.raises(RuntimeError):
        bn.forward(np.zeros((2, 3)), train=False)


def test_batchnorm_eval_uses_running_statistics():
    rng = dn.seeded_rng(29)
    bn = dn.BatchNorm(4)
    for _ in range(200):
        bn.forward(rng.normal(size=(32, 4)) * 2.0 + 1.0, train=True)
    x = rng.normal(size=(16, 4)) * 2.0 + 1.0
    out = bn.forward(x, train=False)
    # running stats approximate the generating distribution
    assert np.abs(out.mean(axis=0)).max() < 0.5
    assert np.abs(bn.running_mean - 1.0).max() < 0.3
    assert np.abs(bn.running_var - 4.0).max() < 1.5


def test_batchnorm_gradients():
    rng = dn.seeded_rng(30)
    bn = dn.BatchNorm(3)
    x = rng.normal(size=(6, 3))
    layer_input_gradient_check(bn, x, train=True)
    layer_param_gradient_check(bn, x, train=True)


def test_batchnorm_gradients_nhwc():
    rng = dn.seeded_rng(31)
    bn = dn.BatchNorm(2)
    x = rng.normal(size=(2, 3, 3, 2))
    layer_input_gradient_check(bn, x, train=True)


# --- dropout -----------------------------------------------------------------------

def test_dropout_eval_is_bitwise_identity():
    drop = dn.Dropout(dn.seeded_rng(32))
    x = dn.seeded_rng(33).normal(size=(4, 6))
    out = drop.forward(x, train=False)
    assert out is x


def test_dropout_training_masks_and_scales():
    drop = dn.Dropout(dn.seeded_rng(34))
    x = np.ones((200, 50))
    out = drop.forward(x, train=True)
    kept = out != 0
    assert 0.4 < kept.mean() < 0.6
    assert_allclose(out[kept], 2.0)  # inverted scaling by 1/keep
    grads = drop.backward(np.ones_like(x))
    assert_array_equal(grads != 0, kept)
    assert_array_equal(grads, out)  # same mask and scale as forward
