"""Network layers with manual forward/backward passes.

Activations flow as numpy arrays in NHWC layout (batch, height, width,
channels) for image tensors and (batch, features) after flattening.
Backward stores parameter gradients on the layer and returns the
gradient with respect to its input, or None when called with
``input_grad=False`` (the first layer of a network, whose input gradient
nothing reads). A layer keeps what its backward needs only from its
training forward to that backward (see ``Layer``), so between steps it
holds its parameters and their gradients, and no activation-sized array.
Backward refuses a gradient of another shape than that forward's output.
ReLU works in place: forward overwrites the array it is given and
returns it, and backward does the same with the gradient. Its mask is
kept as packed bits, an eighth of a byte per element. No other layer
keeps its own output, and every other backward returns a fresh array,
so the caller (``Network``) only has to own what it hands the chain.
Dense and Conv2d write their weight gradient ``dw`` into a buffer they
own, reallocated only when its shape or dtype changes.
Every layer product runs through ``_matmul`` in near-equal row blocks
of at most ``ROWS`` rows. They bound the packing buffer that OpenBLAS
keeps resident, out of tracemalloc's sight. They give the same bits as
one product when the right operand is wide enough, as every preset
convolution's is (see ``ROWS``).
"""

import math
import numbers
import operator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Layer:
    """A layer names its arrays once: ``PARAMS`` its trainable parameters
    and ``STATE`` the non-trainable arrays checkpoints keep, each an
    attribute of that name. The gradient of parameter ``name`` is
    attribute ``"d" + name``. The accessors hand out the live arrays as
    (name, array) pairs, in declaration order.

    A training forward (``train=True``) keeps what its backward needs in
    ``_kept``, with ``_keep``, and that backward takes it with
    ``_take(grad)``, which drops it: one backward per training forward.
    Every forward clears ``_kept`` before it allocates, so the last
    training forward's state is freed first, and an eval forward keeps
    nothing. So a backward after an eval forward, or a second backward
    after one training forward, raises RuntimeError. A gradient of
    another shape than that forward's output raises ValueError and leaves
    the state kept."""

    PARAMS = STATE = ()
    _kept = None

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, grad, input_grad=True):
        raise NotImplementedError

    def _keep(self, state, shape):
        """Keep ``state`` for the backward of a training forward whose
        output has ``shape``."""
        self._kept, self._out_shape = state, shape

    def _take(self, grad):
        """The kept backward state, which the layer no longer holds, once
        ``grad`` has the shape of the training forward's output."""
        name = type(self).__name__
        if self._kept is None:
            raise RuntimeError(f"{name}.backward needs a training forward (train=True) first")
        if grad.shape != self._out_shape:
            raise ValueError(f"{name}.backward got a gradient of shape {grad.shape}, "
                             f"its training forward's output {self._out_shape}")
        kept, self._kept = self._kept, None
        return kept

    def parameters(self):
        return [(name, getattr(self, name)) for name in self.PARAMS]

    def parameter_grads(self):
        return [(name, getattr(self, "d" + name)) for name in self.PARAMS]

    def state(self):
        return [(name, getattr(self, name)) for name in self.STATE]


def _integer(value, what):
    """``value`` as an int: TypeError for a bool (numpy's is no
    ``Integral``) or any other non-integer, such as 4.7 or
    ``np.float64(8.0)``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} {value!r} is not an integer")
    return operator.index(value)


def check_size(value):
    """A layer size as an int: TypeError for a non-integer, as ``_integer``
    gives, and ValueError below 1."""
    size = _integer(value, "size")
    if size < 1:
        raise ValueError(f"layer sizes must be positive, got {value!r}")
    return size


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


def _row_major(a, size):
    """Yield ``(start, part)``: the elements of ``a`` in row-major order,
    ``size`` at a time, as 1-D arrays the caller may overwrite. Where the
    strides of ``a`` allow no flat view they are parts of one copy, which
    is written back into ``a`` after the last part."""
    flat = a.reshape(-1)
    for start in range(0, flat.size, size):
        yield start, flat[start : start + size]
    if not np.may_share_memory(flat, a):
        a[...] = flat.reshape(a.shape)


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


def _overlap(shift, outs, ins):
    """Slices ``(inputs, outputs)`` of the positions ``o < outs`` whose
    input ``o + shift`` lies in ``range(ins)``."""
    lo, hi = max(0, -shift), min(outs, ins - shift)
    return slice(lo + shift, hi + shift), slice(lo, hi)


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

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected (N, {self.in_dim}) input, got {x.shape}")
        self._kept = None
        if train:
            self._keep(x, (len(x), self.out_dim))
        out = _matmul(x, self.w)
        out += self.b
        return out

    def backward(self, grad, input_grad=True):
        x = self._take(grad)
        self._weight_grad(x.T, grad)
        self.db = _column_sums(grad)
        return _matmul(grad, self.w.T) if input_grad else None


class Conv2d(_Affine):
    """3x3 convolution, stride 1, padding 0 or 1, NHWC layout.

    The kernel is stored as (3*3*in_channels, out_channels) with patch
    entries ordered (row offset, col offset, channel). Forward copies the
    input into a fresh padded array (zero-bordered for padding 1), which
    a training forward keeps. Both passes walk the batch in the same
    near-equal chunks of whole samples that ``_chunks`` gives, each of at
    most ``ROWS`` output pixels, and ``_columns`` gathers each chunk's
    columns from a strided sliding-window view of the padded input into
    one column buffer of a chunk's size, allocated by each call and freed
    when it returns. Forward multiplies
    a chunk's columns by the kernel and adds the bias while they are
    still in cache; backward gathers them again and adds
    ``cols.T @ grad[chunk]`` into ``dw``. So no pass builds a column
    matrix for the whole batch. Only a batch that runs as one chunk is
    sure to get the bits of one whole-batch product, though: over several
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
    adds each result straight into a fresh (N, h, w, in_channels) array,
    over its shifted window clipped to the input. So every element sums
    the terms a padded buffer's interior would, in the same offset order,
    and no padded buffer stays alive behind the returned gradient.
    ``_matmul`` runs those products in row blocks of at most ``ROWS``
    rows, which keeps OpenBLAS's resident packing buffer at the size of
    one block.
    """

    KSIZE = 3

    def __init__(self, in_channels, out_channels, padding, rng, dtype=np.float64):
        self.padding = _integer(padding, "padding")
        if self.padding not in (0, 1):
            raise ValueError("padding must be 0 or 1")
        self.in_channels = check_size(in_channels)
        self.out_channels = check_size(out_channels)
        fan_in = self.KSIZE * self.KSIZE * self.in_channels
        self.w = _he_uniform(rng, fan_in, (fan_in, self.out_channels), dtype)
        self.b = np.zeros(self.out_channels, dtype=dtype)

    def _columns(self, padded):
        """Yield ``(row, cols)`` per chunk of the padded batch: the chunk's
        first output row and its (rows, 3*3*in_channels) columns, gathered
        into one buffer of the first (longest) chunk's size, which the
        next chunk overwrites. A one-channel input's columns are gathered
        patch-major."""
        k = self.KSIZE
        windows = sliding_window_view(padded, (k, k), axis=(1, 2))
        n, oh, ow, c = windows.shape[:4]
        pixels = oh * ow
        chunks = _chunks(n, pixels)
        longest = chunks[0].stop if chunks else 0
        buffer = np.empty(longest * pixels * k * k * c, dtype=padded.dtype)
        for samples in chunks:
            chunk = windows[samples]
            m = len(chunk) * pixels
            cols = buffer[: m * k * k * c]
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

    def _kernel_grad(self, padded, g2):
        """Sum ``cols.T @ g2[chunk]`` over the column chunks of ``padded``
        into ``dw``. An empty batch has no chunks, and writes the zero
        product that Dense's does."""
        if not len(g2):
            self._weight_grad(np.empty((len(self.w), 0), padded.dtype), g2)
        for row, cols in self._columns(padded):
            part = g2[row : row + len(cols)]
            if row:  # later chunks add to the first chunk's product
                self.dw += _matmul(cols.T, part)
            else:
                self._weight_grad(cols.T, part)

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ValueError(f"expected NHWC input with {self.in_channels} channels, got {x.shape}")
        n, h, w, c = x.shape
        p, k = self.padding, self.KSIZE
        oh = h + 2 * p - k + 1
        ow = w + 2 * p - k + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"input {h}x{w} too small for a 3x3 kernel with padding {p}")
        self._kept = None
        padded = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
        padded[:, p : p + h, p : p + w, :] = x
        if train:
            self._keep(padded, (n, oh, ow, self.out_channels))
        out = np.empty((n * oh * ow, self.out_channels), dtype=np.result_type(x, self.w))
        for row, cols in self._columns(padded):
            part = out[row : row + len(cols)]
            _matmul(cols, self.w, out=part)
            part += self.b
        return out.reshape(n, oh, ow, self.out_channels)

    def backward(self, grad, input_grad=True):
        padded = self._take(grad)
        n, oh, ow, _ = grad.shape
        p, k, m = self.padding, self.KSIZE, n * oh * ow
        h, w, c = padded.shape[1] - 2 * p, padded.shape[2] - 2 * p, padded.shape[3]
        g2 = grad.reshape(m, self.out_channels)
        self._kernel_grad(padded, g2)
        del padded  # free the input before the input gradient is built
        self.db = _column_sums(g2)
        if not input_grad:
            return None
        dx = np.zeros((n, h, w, c), dtype=grad.dtype)
        w_blocks = self.w.reshape(k, k, c, self.out_channels)
        prod = np.empty((m, c), dtype=np.result_type(g2, self.w))
        terms = prod.reshape(n, oh, ow, c)
        for i in range(k):
            rows, out_rows = _overlap(i - p, oh, h)
            for j in range(k):
                cols, out_cols = _overlap(j - p, ow, w)
                _matmul(g2, w_blocks[i, j].T, out=prod)
                dx[:, rows, cols, :] += terms[:, out_rows, out_cols, :]
        return dx


class ReLU(Layer):
    """max(x, 0), in place. A training forward keeps the mask x > 0 for
    its backward, which keeps the gradient where it is set and zeroes it
    elsewhere, so the derivative at exactly 0 (and at NaN) is 0.

    The mask is kept as packed bits: one uint8 per 8 elements, the
    ``np.packbits`` of ``x > 0`` in row-major element order, so relu0 of
    ``mnist_small`` keeps 0.31 MB at batch 100 where a boolean took 2.5
    MB. Forward tests, packs and rectifies ``PACK`` elements at a time,
    so its scratch is one chunk's boolean and packed bytes, and no
    full-size boolean exists. Backward unpacks ``UNPACK`` elements at a
    time, a byte each, and selects the gradient with them as ``_select``
    does; numpy casts the bytes to the gradient's bit width in a buffer
    of up to ``np.getbufsize()`` elements, so that buffer plus 8 KB is
    all backward allocates. Both walk the array through ``_row_major``,
    so any strides work.

    Forward overwrites ``x`` with the result and returns it, and backward
    overwrites ``grad`` the same way, so neither allocates an
    activation-sized array (except a flat copy where the strides allow no
    flat view). Pass a copy to keep the argument.
    """

    PACK = 65536
    UNPACK = 8192

    def forward(self, x, train=False):
        self._kept = None
        if not train:
            return np.maximum(x, 0, out=x)
        packed = np.empty(-(-x.size // 8), dtype=np.uint8)
        for start, part in _row_major(x, self.PACK):
            packed[start // 8 : (start + len(part) + 7) // 8] = np.packbits(part > 0)
            np.maximum(part, 0, out=part)
        self._keep(packed, x.shape)
        return x

    def backward(self, grad, input_grad=True):
        packed = self._take(grad)
        if not input_grad:
            return None
        # _select on the gradient's bits, viewed once for all the chunks.
        uint = grad.view(f"u{grad.itemsize}")
        for start, part in _row_major(uint, self.UNPACK):
            mask = np.unpackbits(packed[start // 8 : (start + self.UNPACK) // 8], count=len(part))
            np.multiply(mask, part, out=part)
        return grad


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
    for NaN. Backward walks the same chunks and, per offset, writes the
    strided view of the input gradient at that offset with one select on
    ``first == offset``, so it builds no boolean larger than one chunk's
    output.
    """

    _OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def forward(self, x, train=False):
        n, h, w, c = x.shape
        h2, w2 = h // 2, w // 2
        if h2 == 0 or w2 == 0:
            raise ValueError(f"input {h}x{w} too small for 2x2 pooling")
        self._kept = None
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
            self._keep((first, x.shape), out.shape)
        return out

    def backward(self, grad, input_grad=True):
        first, shape = self._take(grad)
        if not input_grad:
            return None
        n, h, w, c = shape
        h2, w2 = h // 2, w // 2
        even = (h, w) == (2 * h2, 2 * w2)
        dx = (np.empty if even else np.zeros)(shape, dtype=grad.dtype)
        hit = np.empty_like(first[: max(1, ROWS // (h2 * w2))], dtype=np.bool_)  # one chunk
        for samples in _chunks(n, h2 * w2):
            firsts, grads, dxs = first[samples], grad[samples], dx[samples]
            hits = hit[: len(firsts)]
            for k, (oy, ox) in enumerate(self._OFFSETS):
                np.equal(firsts, k, out=hits)
                _select(hits, grads, out=dxs[:, oy : 2 * h2 : 2, ox : 2 * w2 : 2, :])
        return dx


class Flatten(Layer):
    def forward(self, x, train=False):
        self._kept = None
        out = x.reshape(x.shape[0], math.prod(x.shape[1:]))  # -1 fails on no rows
        if train:
            self._keep(x.shape, out.shape)
        return out

    def backward(self, grad, input_grad=True):
        shape = self._take(grad)
        return grad.reshape(shape) if input_grad else None


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
        self._kept = None
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
            self._keep((xhat, inv_std), x.shape)
        return self.gamma * xhat + self.beta

    def backward(self, grad, input_grad=True):
        xhat, inv_std = self._take(grad)
        axes = tuple(range(grad.ndim - 1))
        self.dgamma = (grad * xhat).sum(axis=axes)
        self.dbeta = grad.sum(axis=axes)
        if not input_grad:
            return None
        dxhat = grad * self.gamma
        m = 1
        for ax in axes:
            m *= grad.shape[ax]
        return (inv_std / m) * (
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

    def forward(self, x, train=False):
        self._kept = None
        if not train:
            return x
        keep = self._rng.uniform(0.0, 1.0, x.shape) < self.KEEP
        self._keep(keep.astype(x.dtype) / self.KEEP, x.shape)
        return x * self._kept

    def backward(self, grad, input_grad=True):
        mask = self._take(grad)
        return grad * mask if input_grad else None
