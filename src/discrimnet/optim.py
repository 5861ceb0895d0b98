"""SGD with momentum, coupled weight decay, and a step learning-rate drop."""

import numpy as np

from .tensor import NonFiniteError


def lr_at_epoch(epoch, base_lr, drop_factor, drop_period):
    """Step schedule: base_lr divided by drop_factor every drop_period epochs."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    if base_lr <= 0 or drop_factor <= 0 or drop_period < 1:
        raise ValueError("base_lr, drop_factor and drop_period must be positive")
    return base_lr / drop_factor ** (int(epoch) // int(drop_period))


class SGD:
    """Momentum SGD with L2 weight decay folded into the gradient.

    Per parameter: g' = g + weight_decay * w; v <- momentum * v + g';
    w <- w - lr * v. Decay applies to weights and biases alike. Each
    (name, array) pair given gets a zeroed velocity in its own dtype. The
    step aborts, touching nothing, if any gradient is non-finite. The
    caller passes each step's lr, for example from ``lr_at_epoch``.
    """

    def __init__(self, params, momentum=0.9, weight_decay=0.01):
        self.params = list(params)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {name: np.zeros_like(w) for name, w in self.params}

    def step(self, grads, lr):
        """Apply one update to every parameter.

        grads maps parameter names to gradient arrays of matching shape.
        """
        for name, w in self.params:
            g = grads[name]
            if g.shape != w.shape:
                raise ValueError(f"gradient for {name} has shape {g.shape}, "
                                 f"parameter has {w.shape}")
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient for parameter {name}; step aborted")
        for name, w in self.params:
            g = grads[name]
            if self.weight_decay:
                g = g + self.weight_decay * w
            v = self.velocity[name]
            v *= self.momentum
            v += g
            w -= lr * v

    def state_arrays(self):
        return {f"velocity.{name}": v for name, v in self.velocity.items()}
