"""Network layers with manual forward/backward passes.

Activations flow as numpy arrays in NHWC layout (batch, height, width,
channels) for image tensors and (batch, features) after flattening.
Each layer caches what its backward pass needs during forward; backward
consumes the cache, stores parameter gradients on the layer, and returns
the gradient with respect to its input, or None when called with
``input_grad=False`` (the first layer of a network, whose input gradient
nothing reads).
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Layer:
    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, grad, input_grad=True):
        raise NotImplementedError

    def parameters(self):
        return []

    def parameter_grads(self):
        return []

    def state(self):
        """Live (name, array) pairs of non-trainable state that checkpoints keep."""
        return []


def _select(mask, values):
    """``np.where(mask, values, 0)`` bit for bit, several times faster.

    Multiplies the values' bit patterns, as unsigned integers, by the 0/1
    mask: selected entries keep every bit (the sign of a zero, NaN), the
    rest become +0.0. ``mask`` and ``values`` may broadcast.
    """
    bits = values.view(np.dtype(f"u{values.itemsize}"))
    return (mask * bits).view(values.dtype)


def _he_uniform(rng, fan_in, shape, dtype):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, shape).astype(dtype)


class Dense(Layer):
    """Fully connected layer: y = x @ w + b."""

    def __init__(self, in_dim, out_dim, rng, dtype=np.float64):
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.w = _he_uniform(rng, self.in_dim, (self.in_dim, self.out_dim), dtype)
        self.b = np.zeros(self.out_dim, dtype=dtype)
        self.dw = None
        self.db = None
        self._x = None

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected (N, {self.in_dim}) input, got {x.shape}")
        self._x = x
        out = x @ self.w
        out += self.b
        return out

    def backward(self, grad, input_grad=True):
        self.dw = self._x.T @ grad
        self.db = grad.sum(axis=0)
        return grad @ self.w.T if input_grad else None

    def parameters(self):
        return [("w", self.w), ("b", self.b)]

    def parameter_grads(self):
        return [("w", self.dw), ("b", self.db)]


class Conv2d(Layer):
    """3x3 convolution, stride 1, padding 0 or 1, NHWC layout.

    The kernel is stored as (3*3*in_channels, out_channels) with patch
    entries ordered (row offset, col offset, channel). Forward copies a
    strided sliding-window view of the padded input into that column
    order and runs one matrix product; the weight gradient is one
    product against the cached columns. The input gradient runs one
    product per kernel offset, ``grad @ w[offset].T``, and adds each
    (N, oh, ow, in_channels) result into its shifted window of the
    padded input gradient.

    The layer owns one workspace: a zero-bordered padded-input buffer
    (padding 1 only) and the column matrix. Forward writes into them in
    place and allocates new ones only when the input shape or dtype
    changes, so the columns of the previous call are overwritten rather
    than kept alive beside new ones. The output and the input gradient
    are fresh arrays on every call, since callers keep them.
    """

    KSIZE = 3

    def __init__(self, in_channels, out_channels, padding, rng, dtype=np.float64):
        if padding not in (0, 1):
            raise ValueError("padding must be 0 or 1")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.padding = int(padding)
        fan_in = self.KSIZE * self.KSIZE * self.in_channels
        self.w = _he_uniform(rng, fan_in, (fan_in, self.out_channels), dtype)
        self.b = np.zeros(self.out_channels, dtype=dtype)
        self.dw = None
        self.db = None
        self._padded = None
        self._cols = None
        self._in_shape = None

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ValueError(f"expected NHWC input with {self.in_channels} channels, got {x.shape}")
        n, h, w, c = x.shape
        p, k = self.padding, self.KSIZE
        oh = h + 2 * p - k + 1
        ow = w + 2 * p - k + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"input {h}x{w} too small for a 3x3 kernel with padding {p}")
        if x.shape != self._in_shape or x.dtype != self._cols.dtype:
            self._cols = np.empty((n * oh * ow, k * k * c), dtype=x.dtype)
            if p:
                self._padded = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
            self._in_shape = x.shape
        if p:
            self._padded[:, p : p + h, p : p + w, :] = x
        windows = sliding_window_view(self._padded if p else x, (k, k), axis=(1, 2))
        # (n, oh, ow, c, k, k) window view -> (n, oh, ow, k, k, c): one copy
        # into (row offset, col offset, channel) columns.
        self._cols.reshape(n, oh, ow, k, k, c)[...] = windows.transpose(0, 1, 2, 4, 5, 3)
        out = self._cols @ self.w
        out += self.b
        return out.reshape(n, oh, ow, self.out_channels)

    def backward(self, grad, input_grad=True):
        n, oh, ow, _ = grad.shape
        g2 = grad.reshape(n * oh * ow, self.out_channels)
        self.dw = self._cols.T @ g2
        self.db = g2.sum(axis=0)
        if not input_grad:
            return None
        _, h, w, c = self._in_shape
        p = self.padding
        dxp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=grad.dtype)
        w_blocks = self.w.reshape(self.KSIZE, self.KSIZE, c, self.out_channels)
        for i in range(self.KSIZE):
            for j in range(self.KSIZE):
                dxp[:, i : i + oh, j : j + ow, :] += (g2 @ w_blocks[i, j].T).reshape(n, oh, ow, c)
        return dxp[:, p : p + h, p : p + w, :] if p else dxp

    def parameters(self):
        return [("w", self.w), ("b", self.b)]

    def parameter_grads(self):
        return [("w", self.dw), ("b", self.db)]


class ReLU(Layer):
    """max(x, 0). Forward keeps the boolean mask x > 0; backward keeps
    the gradient where it is set and zeroes it elsewhere, so the
    derivative at exactly 0 is 0."""

    def forward(self, x, train=False):
        self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad, input_grad=True):
        return _select(self._mask, grad) if input_grad else None


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2.

    Odd trailing rows/columns are dropped, and receive zero gradient.
    Backward routes each output gradient to the first maximal element of
    its window in row-major (row offset, col offset) order: it views the
    input as (n, h/2, 2, w/2, 2, c) windows, compares them once against
    the pooled output, keeps the first hit per window, and writes the
    gradient with one select broadcast over the windows.
    """

    _OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def forward(self, x, train=False):
        n, h, w, c = x.shape
        h2, w2 = h // 2, w // 2
        if h2 == 0 or w2 == 0:
            raise ValueError(f"input {h}x{w} too small for 2x2 pooling")
        self._in_shape = x.shape
        self._x = x
        out = None
        for dy, dx in self._OFFSETS:
            view = x[:, dy : 2 * h2 : 2, dx : 2 * w2 : 2, :]
            out = view.copy() if out is None else np.maximum(out, view, out=out)
        self._out = out
        return out

    def backward(self, grad, input_grad=True):
        if not input_grad:
            return None
        n, h, w, c = self._in_shape
        h2, w2 = h // 2, w // 2
        windows = (n, h2, 2, w2, 2, c)
        hits = self._x[:, : 2 * h2, : 2 * w2, :].reshape(windows) == self._out[:, :, None, :, None, :]
        taken = hits[:, :, 0, :, 0, :].copy()
        for dy, dxo in self._OFFSETS[1:]:
            hit = hits[:, :, dy, :, dxo, :]  # a view: clearing it edits hits
            hit &= ~taken
            taken |= hit
        routed = _select(hits, grad[:, :, None, :, None, :]).reshape(n, 2 * h2, 2 * w2, c)
        if (h, w) == (2 * h2, 2 * w2):
            return routed
        dx = np.zeros(self._in_shape, dtype=grad.dtype)
        dx[:, : 2 * h2, : 2 * w2, :] = routed
        return dx


class Flatten(Layer):
    def forward(self, x, train=False):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad, input_grad=True):
        return grad.reshape(self._in_shape) if input_grad else None


class BatchNorm(Layer):
    """Per-channel normalization over the trailing axis, with running
    statistics for evaluation mode. Evaluating before any training batch
    is an error because the running statistics are undefined."""

    def __init__(self, channels, momentum=0.1, eps=1e-5, dtype=np.float64):
        self.channels = int(channels)
        self.momentum = float(momentum)
        self.eps = float(eps)
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
        if train:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean = (1.0 - m) * self.running_mean + m * mean.astype(np.float64)
            self.running_var = (1.0 - m) * self.running_var + m * var.astype(np.float64)
            self.batches_seen += 1
        else:
            if self.batches_seen[0] == 0:
                raise RuntimeError("batchnorm evaluated before any training batch")
            mean = self.running_mean.astype(x.dtype)
            var = self.running_var.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        self._xhat = xhat
        self._inv_std = inv_std
        self._axes = axes
        self._train = train
        return self.gamma * xhat + self.beta

    def backward(self, grad, input_grad=True):
        xhat = self._xhat
        axes = self._axes
        self.dgamma = (grad * xhat).sum(axis=axes)
        self.dbeta = grad.sum(axis=axes)
        if not input_grad:
            return None
        dxhat = grad * self.gamma
        if not self._train:
            return dxhat * self._inv_std
        m = 1
        for ax in axes:
            m *= grad.shape[ax]
        return (self._inv_std / m) * (
            m * dxhat - dxhat.sum(axis=axes) - xhat * (dxhat * xhat).sum(axis=axes)
        )

    def parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def parameter_grads(self):
        return [("gamma", self.dgamma), ("beta", self.dbeta)]

    def state(self):
        return [
            ("running_mean", self.running_mean),
            ("running_var", self.running_var),
            ("batches_seen", self.batches_seen),
        ]


class Dropout(Layer):
    """Inverted dropout: active only in training mode, identity in eval."""

    def __init__(self, keep_prob, rng):
        if not 0.0 < keep_prob <= 1.0:
            raise ValueError(f"keep probability must lie in (0, 1], got {keep_prob}")
        self.keep_prob = float(keep_prob)
        self._rng = rng
        self._mask = None

    def forward(self, x, train=False):
        if not train:
            self._mask = None
            return x
        keep = self._rng.uniform(0.0, 1.0, x.shape) < self.keep_prob
        self._mask = keep.astype(x.dtype) / self.keep_prob
        return x * self._mask

    def backward(self, grad, input_grad=True):
        if not input_grad:
            return None
        if self._mask is None:
            return grad
        return grad * self._mask
