"""Exponential-forgetting online statistics.

``NeuronClassStats`` and ``CenterBank.update_sample`` share one
recurrence family with forgetting factor ``a`` in (0, 1): a fresh state
is zero (equivalent to an infinite stream of zeros preceding the first
sample, which makes the recurrences exact rather than approximate), and
one update folds in one sample:

    mean:      v <- a*v + (1-a)*z
    variance:  s <- a*s + a*(1-a)*(z - v_pre)**2    (v_pre: mean before update)

Taking the deviation from the pre-update mean is what makes the variance
equal the moment form E[z^2] - E[z]^2 of the same weighted stream.

Direct-summation closed forms of the same quantities live at the bottom
of the module; they exist for tests and are never used in training.
"""

import numpy as np

from .tensor import NonFiniteError


def _check_alpha(alpha):
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"forgetting factor must lie strictly in (0, 1), got {alpha}")
    return alpha


def _check_finite(z, what="input"):
    if not np.all(np.isfinite(z)):
        raise NonFiniteError(f"non-finite {what} fed to a forgetting accumulator")


class NeuronClassStats:
    """Per-neuron forgetting statistics of a labeled scalar stream.

    For each of K output neurons this tracks, over the stream of
    (logit row, one-hot label row) samples: the target-class mean, the
    non-target mean, the total mean, and the within-class and total
    variances, all under one shared forgetting factor. One ``update``
    advances every accumulator exactly once, computing variance terms
    from pre-update means before any mean moves.
    """

    def __init__(self, num_classes, alpha):
        self.num_classes = int(num_classes)
        self.alpha = _check_alpha(alpha)
        k = self.num_classes
        self.mu = np.zeros(k)          # target-class mean per neuron
        self.mu_hat = np.zeros(k)      # non-target mean per neuron
        self.mu_total = np.zeros(k)    # total mean per neuron
        self.var_within = np.zeros(k)
        self.var_total = np.zeros(k)
        self.steps = np.zeros(1)       # samples folded in, as checkpoints store it

    def update(self, z_row, t_row):
        """Advance all accumulators by one labeled sample.

        z_row: K logits for one sample; t_row: its one-hot label row.
        """
        z = np.asarray(z_row, dtype=np.float64)
        t = np.asarray(t_row, dtype=np.float64)
        if z.shape != (self.num_classes,) or t.shape != (self.num_classes,):
            raise ValueError(
                f"expected rows of length {self.num_classes}, "
                f"got {z.shape} and {t.shape}"
            )
        _check_finite(z)
        a = self.alpha
        aa = a * (1.0 - a)
        dev_w = t * (z - self.mu) ** 2 + (1.0 - t) * (z - self.mu_hat) ** 2
        self.var_within = a * self.var_within + aa * dev_w
        self.var_total = a * self.var_total + aa * (z - self.mu_total) ** 2
        self.mu = a * self.mu + (1.0 - a) * t * z
        self.mu_hat = a * self.mu_hat + (1.0 - a) * (1.0 - t) * z
        self.mu_total = a * self.mu_total + (1.0 - a) * z
        self.steps += 1

    def state_arrays(self):
        return {
            "mu": self.mu,
            "mu_hat": self.mu_hat,
            "mu_total": self.mu_total,
            "var_within": self.var_within,
            "var_total": self.var_total,
            "steps": self.steps,
        }


class CenterBank:
    """Per-class centroid vectors and their two update rules.

    ``update_sample`` (adaptive center loss) moves one class centroid by
    the forgetting-mean recurrence c <- a*c + (1-a)*x.
    ``update_minibatch`` (center loss) moves every centroid once per
    batch by a damped delta rule,
    c <- c - beta * sum(c - x_i over class members) / (1 + count).
    """

    def __init__(self, num_classes, dim, alpha=0.99, beta=1.0):
        self.num_classes = int(num_classes)
        self.dim = int(dim)
        self.alpha = _check_alpha(alpha)
        beta = float(beta)
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {beta}")
        self.beta = beta
        self.centers = np.zeros((self.num_classes, self.dim))
        self.steps = np.zeros(1)       # updates applied, as checkpoints store it

    def _check_vec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of dimension {self.dim}, got {x.shape}")
        _check_finite(x)
        return x

    def update_sample(self, x, class_id):
        """Fold one feature vector into its class centroid."""
        x = self._check_vec(x)
        k = int(class_id)
        if not 0 <= k < self.num_classes:
            raise ValueError(f"class id {k} out of range")
        a = self.alpha
        self.centers[k] = a * self.centers[k] + (1.0 - a) * x
        self.steps += 1

    def update_minibatch(self, features, labels_onehot):
        """Apply the damped delta rule for every class.

        Classes with no members in the batch are left unchanged.
        """
        x = np.asarray(features, dtype=np.float64)
        t = np.asarray(labels_onehot, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"features must be N x {self.dim}, got {x.shape}")
        if t.shape != (x.shape[0], self.num_classes):
            raise ValueError(f"labels must be N x {self.num_classes}, got {t.shape}")
        _check_finite(x)
        counts = t.sum(axis=0)                                   # members per class
        sums = t.T @ x                                           # K x D
        delta = (counts[:, None] * self.centers - sums) / (1.0 + counts)[:, None]
        self.centers = self.centers - self.beta * delta
        self.steps += 1

    def state_arrays(self):
        return {"centers": self.centers, "steps": self.steps}


# ---------------------------------------------------------------------------
# Direct-summation reference forms (test oracles, never used in training).
# ---------------------------------------------------------------------------

def weighted_moments_direct(history, alpha):
    """Brute-force weighted mean and variance of a finite history.

    Weights are a**(N-i) for the i-th of N samples, normalized by the
    infinite geometric sum 1/(1-a) (the zero-prior convention), so
    E = (1-a) * sum(a**(N-i) * r_i) and V = E[r^2] - E[r]^2.
    Returns (mean, variance).
    """
    alpha = _check_alpha(alpha)
    r = np.asarray(list(history), dtype=np.float64)
    _check_finite(r, "history")
    n = r.size
    if n == 0:
        return 0.0, 0.0
    w = alpha ** np.arange(n - 1, -1, -1, dtype=np.float64)
    e1 = (1.0 - alpha) * float(np.dot(w, r))
    e2 = (1.0 - alpha) * float(np.dot(w, r * r))
    return e1, e2 - e1 * e1


def masked_weighted_mean_direct(history, alpha):
    """Brute-force gated weighted mean over (z, t) pairs.

    Computes (1-a) * sum(a**(N-i) * t_i * z_i); gated-out samples
    contribute nothing but still occupy a position in the decay window.
    """
    alpha = _check_alpha(alpha)
    pairs = list(history)
    if not pairs:
        return 0.0
    z = np.asarray([p[0] for p in pairs], dtype=np.float64)
    t = np.asarray([p[1] for p in pairs], dtype=np.float64)
    _check_finite(z, "history")
    n = z.size
    w = alpha ** np.arange(n - 1, -1, -1, dtype=np.float64)
    return (1.0 - alpha) * float(np.dot(w, t * z))
