"""Network layers with manual forward/backward passes.

Activations flow as numpy arrays in NHWC layout (batch, height, width,
channels) for image tensors and (batch, features) after flattening.
Each layer caches what its backward pass needs during forward; backward
reads what the last training forward (``train=True``) kept, stores
parameter gradients on the layer, and returns the gradient with respect
to its input, or None when called with ``input_grad=False`` (the first
layer of a network, whose input gradient nothing reads). Eval forwards
keep no backward state and drop what the last training forward kept, so
a backward after one raises RuntimeError.
ReLU works in place: forward overwrites the array it is given and
returns it, and backward does the same with the gradient. No other
layer keeps its own output, so the caller (``Network``) only has to own
what it hands the chain.
Dense and Conv2d write their weight gradient ``dw`` into a buffer they
own, reallocated only when its shape or dtype changes.
Every layer product runs through ``_matmul`` in near-equal row blocks
of at most ``ROWS`` rows. They bound the packing buffer that OpenBLAS
keeps resident, out of tracemalloc's sight. They give the same bits as
one product when the right operand is wide enough, as every preset
convolution's is (see ``ROWS``).
"""

import numbers
import operator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Layer:
    """A layer names its arrays once: ``PARAMS`` its trainable parameters
    and ``STATE`` the non-trainable arrays checkpoints keep, each an
    attribute of that name. The gradient of parameter ``name`` is
    attribute ``"d" + name``. The accessors hand out the live arrays as
    (name, array) pairs, in declaration order."""

    PARAMS = STATE = ()

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, grad, input_grad=True):
        raise NotImplementedError

    def parameters(self):
        return [(name, getattr(self, name)) for name in self.PARAMS]

    def parameter_grads(self):
        return [(name, getattr(self, "d" + name)) for name in self.PARAMS]

    def state(self):
        return [(name, getattr(self, name)) for name in self.STATE]


def check_size(value):
    """A layer size as an int: TypeError for a bool (numpy's is no
    ``Integral``) or any other non-integer, such as 4.7 or
    ``np.float64(8.0)``, and ValueError below 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"size {value!r} is not an integer")
    if value < 1:
        raise ValueError(f"layer sizes must be positive, got {value!r}")
    return operator.index(value)


def _select(mask, values, out=None):
    """``np.where(mask, values, 0)`` bit for bit, several times faster.

    Multiplies the values' bit patterns, as unsigned integers, by the 0/1
    mask: selected entries keep every bit (the sign of a zero, NaN), the
    rest become +0.0. ``mask`` and ``values`` may broadcast. ``out=values``
    selects in place.
    """
    uint = np.dtype(f"u{values.itemsize}")
    bits = np.multiply(mask, values.view(uint), out=None if out is None else out.view(uint))
    return bits.view(values.dtype)


# Rows per matrix product. OpenBLAS keeps a packing buffer the size of the
# largest left operand it has run resident, so products run in row blocks
# of at most ROWS rows. A short block changes the output's bits (a 1-row
# product differs from the same row of a larger one), so blocks are
# near-equal and never shorter than ROWS // 2. Such blocks keep the bits of
# one product only for a wide enough right operand: scans with OpenBLAS
# 0.3.31 (Haswell kernels) found other bits at some widths of 1-24 columns
# in float32 and 1-28 in float64, e.g. (2178, 288) @ (288, 3), and none
# from 29 to 129. Preset convolutions multiply 32 or more columns; a dense
# layer runs one product up to a batch of ROWS.
ROWS = 2048


def _chunks(n, rows):
    """Slices that split ``n`` items of ``rows`` rows each into near-equal
    chunks of whole items, each of at most ``ROWS`` rows (one item where an
    item alone has more): no chunk is short, for the reason given at
    ``ROWS``."""
    chunks = -(-n // max(1, ROWS // rows))
    step = -(-n // chunks) if chunks else 1
    return [slice(start, start + step) for start in range(0, n, step)]


def _matmul(a, b, out=None):
    """``np.matmul(a, b, out=out)`` for 2-D operands, run over near-equal
    blocks of at most ``ROWS`` rows of ``a``: bit for bit when ``b`` is
    wide enough (see ``ROWS``)."""
    m = a.shape[0]
    if m <= ROWS:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((m, b.shape[1]), dtype=np.result_type(a, b))
    for rows in _chunks(m, 1):
        np.matmul(a[rows], b, out=out[rows])
    return out


def _column_sums(a):
    """``a.sum(axis=0)`` of a 2-D array, bit for bit. Where rows are the
    outer axis, ``sum`` adds them in order with one inner-loop call per
    row, and einsum adds them in the same order in one loop. One column,
    or a layout whose rows are the inner axis, puts the rows in numpy's
    inner loop, which ``sum`` adds pairwise, so those keep ``sum``."""
    if a.shape[1] == 1 or abs(a.strides[1]) >= abs(a.strides[0]):
        return a.sum(axis=0)
    return np.einsum("ij->j", a)


def _he_uniform(rng, fan_in, shape, dtype):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, shape).astype(dtype)


class _Affine(Layer):
    """A layer with weight ``w``, bias ``b`` and their gradients ``dw``, ``db``."""

    PARAMS = ("w", "b")
    dw = db = None

    def _weight_grad(self, a, b):
        """Write the product ``a @ b`` into the owned ``dw`` buffer."""
        dtype = np.result_type(a, b)
        if self.dw is None or self.dw.shape != self.w.shape or self.dw.dtype != dtype:
            self.dw = np.empty(self.w.shape, dtype=dtype)
        _matmul(a, b, out=self.dw)


class Dense(_Affine):
    """Fully connected layer: y = x @ w + b."""

    def __init__(self, in_dim, out_dim, rng, dtype=np.float64):
        self.in_dim = check_size(in_dim)
        self.out_dim = check_size(out_dim)
        self.w = _he_uniform(rng, self.in_dim, (self.in_dim, self.out_dim), dtype)
        self.b = np.zeros(self.out_dim, dtype=dtype)
        self._x = None

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected (N, {self.in_dim}) input, got {x.shape}")
        self._x = x if train else None
        out = _matmul(x, self.w)
        out += self.b
        return out

    def backward(self, grad, input_grad=True):
        if self._x is None:
            raise _no_state(self)
        self._weight_grad(self._x.T, grad)
        self.db = _column_sums(grad)
        return _matmul(grad, self.w.T) if input_grad else None


class Conv2d(_Affine):
    """3x3 convolution, stride 1, padding 0 or 1, NHWC layout.

    The kernel is stored as (3*3*in_channels, out_channels) with patch
    entries ordered (row offset, col offset, channel). Forward copies the
    input into a padded buffer (zero-bordered for padding 1) and keeps it
    for backward. Both passes walk the batch in the same near-equal chunks
    of whole samples that ``_chunks`` gives, each of at most ``ROWS``
    output pixels, and ``_columns`` gathers each chunk's columns from a
    strided sliding-window view of the padded input into one chunk-sized
    workspace. Forward multiplies a chunk's columns by the kernel and adds
    the bias while they are still in cache; backward gathers them again
    and adds ``cols.T @ grad[chunk]`` into ``dw``. So no pass builds a
    column matrix for the whole batch. Only a batch that runs as one chunk
    is sure to get the bits of one whole-batch product, though: over several
    chunks ``dw`` sums in another order, and with few output channels a
    chunk's ``out`` may differ from the same rows of one product.

    Both passes gather the columns of a one-channel input patch-major, as
    (3*3, rows): row-major columns of one channel are copied in runs of 3
    elements (one kernel row), patch-major ones in runs of a whole output
    row, several times faster for a 28x28 input. Forward multiplies through
    their transpose; backward's ``cols.T`` is then C-contiguous. The layout
    can change a product's bits. Scans with OpenBLAS 0.3.31 found other
    bits in forward only with one output channel (a matrix-vector
    product), and in ``dw`` at some widths of up to 12 output channels,
    and 24 in float32. At the 32 output channels of ``mnist_small``'s first
    layer both layouts give the same bits in both dtypes.

    The input gradient multiplies by the kernel once per kernel offset,
    ``grad @ w[offset].T``, into one (N*oh*ow, in_channels) buffer, and
    adds each result into its shifted window of the padded input
    gradient. ``_matmul`` runs those products in row blocks of at most
    ``ROWS`` rows, which keeps OpenBLAS's resident packing buffer at the
    size of one block.

    The padded input and the column workspace are sized for the largest
    batch seen, and reallocated only on a new per-sample shape, a new
    dtype or a larger batch, so a trailing partial batch reuses their
    leading entries. The output and the input gradient are fresh arrays
    on every call, since callers keep them. An eval forward uses the
    workspace too, but leaves the layer marked untrained, so a backward
    after it raises rather than return the eval batch's gradients.
    """

    KSIZE = 3

    def __init__(self, in_channels, out_channels, padding, rng, dtype=np.float64):
        if padding not in (0, 1):
            raise ValueError("padding must be 0 or 1")
        self.in_channels = check_size(in_channels)
        self.out_channels = check_size(out_channels)
        self.padding = int(padding)
        fan_in = self.KSIZE * self.KSIZE * self.in_channels
        self.w = _he_uniform(rng, fan_in, (fan_in, self.out_channels), dtype)
        self.b = np.zeros(self.out_channels, dtype=dtype)
        self._padded = None
        self._cols = None
        self._in_shape = None
        self._trained = False

    def _columns(self, n):
        """Yield ``(row, cols)`` per chunk of the first ``n`` padded samples:
        the chunk's first output row and its (rows, 3*3*in_channels) columns,
        gathered into the workspace, which the next chunk overwrites. A
        one-channel input's columns are gathered patch-major."""
        k = self.KSIZE
        windows = sliding_window_view(self._padded[:n], (k, k), axis=(1, 2))
        _, oh, ow, c = windows.shape[:4]
        pixels = oh * ow
        for samples in _chunks(n, pixels):
            chunk = windows[samples]
            m = len(chunk) * pixels
            cols = self._cols[: m * k * k * c]
            if c == 1:
                # (k*k, m) patch-major columns: one copy of whole output
                # rows, used through the transpose.
                patches = cols.reshape(k, k, len(chunk), oh, ow)
                patches[...] = chunk[:, :, :, 0].transpose(3, 4, 0, 1, 2)
                yield samples.start * pixels, patches.reshape(k * k, m).T
            else:
                # (n, oh, ow, c, k, k) window view -> (n, oh, ow, k, k, c): one
                # copy into (row offset, col offset, channel) columns.
                cols.reshape(len(chunk), oh, ow, k, k, c)[...] = chunk.transpose(0, 1, 2, 4, 5, 3)
                yield samples.start * pixels, cols.reshape(m, k * k * c)

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ValueError(f"expected NHWC input with {self.in_channels} channels, got {x.shape}")
        n, h, w, c = x.shape
        p, k = self.padding, self.KSIZE
        oh = h + 2 * p - k + 1
        ow = w + 2 * p - k + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"input {h}x{w} too small for a 3x3 kernel with padding {p}")
        if (
            self._cols is None
            or x.shape[1:] != self._in_shape[1:]
            or x.dtype != self._cols.dtype
            or n > len(self._padded)
        ):
            self._padded = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
            chunk = min(n, max(1, ROWS // (oh * ow)))
            self._cols = np.empty(chunk * oh * ow * k * k * c, dtype=x.dtype)
        self._in_shape = x.shape
        self._trained = train
        self._padded[:n, p : p + h, p : p + w, :] = x
        out = np.empty((n * oh * ow, self.out_channels), dtype=np.result_type(x, self.w))
        for row, cols in self._columns(n):
            part = out[row : row + len(cols)]
            _matmul(cols, self.w, out=part)
            part += self.b
        return out.reshape(n, oh, ow, self.out_channels)

    def backward(self, grad, input_grad=True):
        if not self._trained:
            raise _no_state(self)
        n, oh, ow, _ = grad.shape
        _, h, w, c = self._in_shape
        p, k, m = self.padding, self.KSIZE, n * oh * ow
        g2 = grad.reshape(m, self.out_channels)
        for row, cols in self._columns(n):
            part = g2[row : row + len(cols)]
            if row:  # later chunks add to the first chunk's product
                self.dw += _matmul(cols.T, part)
            else:
                self._weight_grad(cols.T, part)
        self.db = _column_sums(g2)
        if not input_grad:
            return None
        dxp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=grad.dtype)
        w_blocks = self.w.reshape(k, k, c, self.out_channels)
        prod = np.empty((m, c), dtype=np.result_type(g2, self.w))
        for i in range(k):
            for j in range(k):
                _matmul(g2, w_blocks[i, j].T, out=prod)
                dxp[:, i : i + oh, j : j + ow, :] += prod.reshape(n, oh, ow, c)
        return dxp[:, p : p + h, p : p + w, :] if p else dxp


def _no_state(layer):
    return RuntimeError(
        f"{type(layer).__name__}.backward needs a training forward (train=True) first"
    )


class ReLU(Layer):
    """max(x, 0), in place. A training forward keeps the boolean mask
    x > 0; backward keeps the gradient where it is set and zeroes it
    elsewhere, so the derivative at exactly 0 is 0.

    Forward overwrites ``x`` with the result and returns it, and backward
    overwrites ``grad`` the same way, so neither allocates an
    activation-sized array. Pass a copy to keep the argument.
    """

    _mask = None

    def forward(self, x, train=False):
        self._mask = None  # free the last training forward's mask first
        if train:
            self._mask = x > 0
        return np.maximum(x, 0, out=x)

    def backward(self, grad, input_grad=True):
        if self._mask is None:
            raise _no_state(self)
        return _select(self._mask, grad, out=grad) if input_grad else None


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2.

    Odd trailing rows/columns are dropped, and receive zero gradient.
    Backward routes each output gradient to the first maximal element of
    its window in row-major (row offset, col offset) order. A training
    forward keeps one uint8 per output element, the ``_OFFSETS`` index of
    that element and nothing else. Offset k moves the index to k where
    it is strictly greater than the running maximum, so ties and +-0 keep
    the first. Later offsets have larger indices, so the move is a
    ``maximum`` with ``k * (view > out)``; masked stores are several
    times slower. Forward makes these passes chunk by chunk, over the
    near-equal chunks of whole samples of at most ``ROWS`` output pixels
    that ``_chunks`` gives, so a chunk's output, index and scratch stay in
    cache across them. A window whose maximum is NaN gets index 4, which
    matches no offset, so it routes nothing, as ``x == max`` never holds
    for NaN. Backward views the input gradient as (n, h/2, 2, w/2, 2, c)
    windows and writes it with one select on ``first == offset``
    broadcast over them.
    """

    _OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))
    # The index of each window offset, laid out like the 6-D window view.
    _OFFSET_INDEX = np.arange(4, dtype=np.uint8).reshape(1, 1, 2, 1, 2, 1)
    _first = None

    def forward(self, x, train=False):
        n, h, w, c = x.shape
        h2, w2 = h // 2, w // 2
        if h2 == 0 or w2 == 0:
            raise ValueError(f"input {h}x{w} too small for 2x2 pooling")
        self._in_shape = x.shape
        self._first = None  # free the last training forward's index first
        out = np.empty((n, h2, w2, c), dtype=x.dtype)
        if train:
            first = np.zeros(out.shape, dtype=np.uint8)
            scratch = np.empty_like(first[: max(1, ROWS // (h2 * w2))])  # one chunk
        for samples in _chunks(n, h2 * w2):
            xs, outs = x[samples], out[samples]
            outs[...] = xs[:, 0 : 2 * h2 : 2, 0 : 2 * w2 : 2, :]
            if train:
                firsts, moved = first[samples], scratch[: len(outs)]
            for k, (dy, dx) in enumerate(self._OFFSETS[1:], start=1):
                view = xs[:, dy : 2 * h2 : 2, dx : 2 * w2 : 2, :]
                if train:
                    np.greater(view, outs, out=moved.view(np.bool_))
                    moved *= k
                    np.maximum(firsts, moved, out=firsts)
                np.maximum(outs, view, out=outs)
            if train:
                np.isnan(outs, out=moved.view(np.bool_))
                moved *= len(self._OFFSETS)
                np.maximum(firsts, moved, out=firsts)
        if train:
            self._first = first
        return out

    def backward(self, grad, input_grad=True):
        if self._first is None:
            raise _no_state(self)
        if not input_grad:
            return None
        n, h, w, c = self._in_shape
        h2, w2 = h // 2, w // 2
        hits = self._first[:, :, None, :, None, :] == self._OFFSET_INDEX
        routed = _select(hits, grad[:, :, None, :, None, :]).reshape(n, 2 * h2, 2 * w2, c)
        if (h, w) == (2 * h2, 2 * w2):
            return routed
        dx = np.zeros(self._in_shape, dtype=grad.dtype)
        dx[:, : 2 * h2, : 2 * w2, :] = routed
        return dx


class Flatten(Layer):
    _in_shape = None

    def forward(self, x, train=False):
        self._in_shape = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad, input_grad=True):
        if self._in_shape is None:
            raise _no_state(self)
        return grad.reshape(self._in_shape) if input_grad else None


class BatchNorm(Layer):
    """Per-channel normalization over the trailing axis, with running
    statistics for evaluation mode. Evaluating before any training batch
    is an error because the running statistics are undefined. Training
    batches move the running statistics in place, by MOMENTUM, and keep
    the normalized input for backward."""

    PARAMS = ("gamma", "beta")
    STATE = ("running_mean", "running_var", "batches_seen")
    MOMENTUM = 0.1
    EPS = 1e-5
    _xhat = None

    def __init__(self, channels, dtype=np.float64):
        self.channels = check_size(channels)
        self.gamma = np.ones(self.channels, dtype=dtype)
        self.beta = np.zeros(self.channels, dtype=dtype)
        self.running_mean = np.zeros(self.channels, dtype=np.float64)
        self.running_var = np.ones(self.channels, dtype=np.float64)
        self.batches_seen = np.zeros(1)  # training batches, as checkpoints store it
        self.dgamma = None
        self.dbeta = None

    def forward(self, x, train=False):
        if x.shape[-1] != self.channels:
            raise ValueError(f"expected trailing axis of {self.channels} channels, got {x.shape}")
        axes = tuple(range(x.ndim - 1))
        self._xhat = None  # free the last training forward's state first
        if train:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.MOMENTUM
            self.running_mean *= 1.0 - m
            self.running_mean += m * mean.astype(np.float64)
            self.running_var *= 1.0 - m
            self.running_var += m * var.astype(np.float64)
            self.batches_seen += 1
        else:
            if self.batches_seen[0] == 0:
                raise RuntimeError("batchnorm evaluated before any training batch")
            mean = self.running_mean.astype(x.dtype)
            var = self.running_var.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat = (x - mean) * inv_std
        if train:
            self._xhat, self._inv_std = xhat, inv_std
        return self.gamma * xhat + self.beta

    def backward(self, grad, input_grad=True):
        xhat = self._xhat
        if xhat is None:
            raise _no_state(self)
        axes = tuple(range(grad.ndim - 1))
        self.dgamma = (grad * xhat).sum(axis=axes)
        self.dbeta = grad.sum(axis=axes)
        if not input_grad:
            return None
        dxhat = grad * self.gamma
        m = 1
        for ax in axes:
            m *= grad.shape[ax]
        return (self._inv_std / m) * (
            m * dxhat - dxhat.sum(axis=axes) - xhat * (dxhat * xhat).sum(axis=axes)
        )


class Dropout(Layer):
    """Inverted dropout at keep probability ``KEEP``: active only in
    training mode, identity in eval.

    A training forward draws its keep mask from ``rng`` and keeps it,
    scaled by 1/KEEP, for backward."""

    KEEP = 0.5

    def __init__(self, rng):
        self._rng = rng
        self._mask = None

    def forward(self, x, train=False):
        if not train:
            self._mask = None
            return x
        keep = self._rng.uniform(0.0, 1.0, x.shape) < self.KEEP
        self._mask = keep.astype(x.dtype) / self.KEEP
        return x * self._mask

    def backward(self, grad, input_grad=True):
        if self._mask is None:
            raise _no_state(self)
        return grad * self._mask if input_grad else None
