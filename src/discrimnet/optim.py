"""SGD with momentum, coupled weight decay, and a step learning-rate drop."""

import sys

import numpy as np

from .tensor import NonFiniteError

BLOCK = 1 << 15  # elements per update block: 256 KB of float64 scratch
MOMENTUM = 0.9  # the published protocol's SGD momentum
LR_DROP_FACTOR = 10.0  # each drop divides the learning rate tenfold
MAX_DROPS = sys.float_info.max_10_exp  # the most drops whose LR_DROP_FACTOR power is finite


def lr_at_epoch(epoch, base_lr, drop_period):
    """Step schedule: base_lr divided by LR_DROP_FACTOR every drop_period epochs.

    Past MAX_DROPS drops the factor's power overflows a float, so the rest
    divide in steps of at most MAX_DROPS drops each, until the rate
    underflows to 0.0: the rate never rises, and no epoch raises.
    """
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    if base_lr <= 0 or drop_period < 1:
        raise ValueError("base_lr and drop_period must be positive")
    drops = int(epoch) // int(drop_period)
    lr = base_lr / LR_DROP_FACTOR ** min(drops, MAX_DROPS)
    while drops > MAX_DROPS and lr:
        drops -= MAX_DROPS
        lr /= LR_DROP_FACTOR ** min(drops, MAX_DROPS)
    return lr


class SGD:
    """Momentum SGD with L2 weight decay folded into the gradient.

    Per parameter: g' = g + weight_decay * w; v <- MOMENTUM * v + g';
    w <- w - lr * v. Decay applies to weights and biases alike. Each
    (name, array) pair given gets a zeroed velocity in its own dtype;
    parameters must be C-contiguous, since they are updated through flat
    views. The step aborts, touching nothing, if any gradient is
    non-finite. The caller passes each step's lr, for example from
    ``lr_at_epoch``.

    The finiteness check and the update walk each flattened array in
    blocks of ``BLOCK`` elements through scratch blocks that the
    optimizer owns, one boolean and one per dtype, so a step allocates
    nothing parameter-sized. Every gradient is checked before any
    parameter moves. Each update block runs the operations of the
    whole-array formula in the same order, so the result is the same
    bit for bit.
    """

    def __init__(self, params, weight_decay=0.01):
        self.params = list(params)
        for name, w in self.params:
            if not w.flags.c_contiguous:
                raise ValueError(f"parameter {name} is not C-contiguous")
        self.weight_decay = float(weight_decay)
        self.velocity = {name: np.zeros_like(w) for name, w in self.params}
        self._scratch = {w.dtype: np.empty(BLOCK, w.dtype) for _, w in self.params}
        self._finite = np.empty(BLOCK, np.bool_)

    def step(self, grads, lr):
        """Apply one update to every parameter.

        grads maps parameter names to gradient arrays of matching shape.
        """
        for name, w in self.params:
            g = grads[name]
            if g.shape != w.shape:
                raise ValueError(f"gradient for {name} has shape {g.shape}, "
                                 f"parameter has {w.shape}")
            g_flat = g.reshape(-1)
            for start in range(0, g_flat.size, BLOCK):
                g_b = g_flat[start : start + BLOCK]
                if not np.isfinite(g_b, out=self._finite[: g_b.size]).all():
                    raise NonFiniteError(f"non-finite gradient for parameter {name}; step aborted")
        wd = self.weight_decay
        for name, w in self.params:
            w_flat = w.reshape(-1)
            g_flat = grads[name].reshape(-1)
            v_flat = self.velocity[name].reshape(-1)
            scratch = self._scratch[w.dtype]
            for start in range(0, w_flat.size, BLOCK):
                blk = slice(start, start + BLOCK)
                w_b, g_b, v_b = w_flat[blk], g_flat[blk], v_flat[blk]
                s = scratch[: w_b.size]
                if wd:
                    np.multiply(w_b, wd, out=s)
                    s += g_b
                v_b *= MOMENTUM
                v_b += s if wd else g_b
                np.multiply(v_b, lr, out=s)
                w_b -= s

    def state_arrays(self):
        return {f"velocity.{name}": v for name, v in self.velocity.items()}
