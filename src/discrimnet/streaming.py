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

The package holds no closed-form oracle of these quantities; the tests
keep their own direct summations to check the recurrences against.
"""

import functools
import operator

import numpy as np

from .tensor import NonFiniteError


def _check_alpha(alpha):
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"forgetting factor must lie strictly in (0, 1), got {alpha}")
    return alpha


def check_finite(z):
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("non-finite input fed to a forgetting accumulator")


def class_ids(labels, num_classes, n=None):
    """Checked class ids in [0, num_classes): an integer array of shape (n,),
    or one int when n is None. Anything else raises ValueError."""
    if n is None:
        try:
            if isinstance(labels, bool):  # operator.index takes True for 1
                raise TypeError
            ids = lo = hi = operator.index(labels)
        except TypeError:
            raise ValueError(f"a class id must be an integer, got {labels!r}") from None
    else:
        ids = np.asarray(labels)
        if ids.dtype.kind not in "iu" or ids.shape != (n,):
            raise ValueError(f"labels must be {n} integer class ids, got {ids.dtype} {ids.shape}")
        lo, hi = ids.min(initial=0), ids.max(initial=0)
    if lo < 0 or hi >= num_classes:
        raise ValueError(f"class id {lo if lo < 0 else hi} out of range [0, {num_classes})")
    return ids


@functools.cache
def _identity(num_classes):
    eye = np.eye(num_classes)
    eye.flags.writeable = False  # class_targets hands out views of its rows
    return eye


def class_targets(labels, num_classes, n=None):
    """The float64 0/1 target rows of ``class_ids``: row i is 1 in column
    labels[i]. Losses and accumulators build their target masks only here."""
    return _identity(num_classes)[class_ids(labels, num_classes, n)]


class NeuronClassStats:
    """Per-neuron forgetting statistics of a labeled scalar stream.

    For each of K output neurons this tracks, over the stream of
    (logit row, class id) samples: the gated target and non-target
    means, the total mean, and the within-class and total variances,
    all under one shared forgetting factor. One ``update`` advances
    every accumulator exactly once, in place, computing variance terms
    from pre-update means before any mean moves.

    The gated means are not class means. Every sample decays both, and
    only samples of neuron k's own class (or only the others) add to
    ``mu[k]`` (or ``mu_hat[k]``). So on a stationary stream where class
    k has share p_k, ``mu[k]`` tends to p_k * E[z_k | y = k] and
    ``mu_hat[k]`` to (1 - p_k) * E[z_k | y != k]: with 10 equally likely
    classes and a target-class mean of 5, ``mu[k]`` sits near 0.5.
    ``mu_total`` is a true forgetting mean of the whole stream, as are
    ``CenterBank``'s per-sample centroids of each class's own samples.
    """

    def __init__(self, num_classes, alpha):
        self.num_classes = int(num_classes)
        self.alpha = _check_alpha(alpha)
        k = self.num_classes
        self.mu = np.zeros(k)          # gated target mean: p_k * E[z_k | y = k] in the limit
        self.mu_hat = np.zeros(k)      # gated non-target mean: (1 - p_k) * E[z_k | y != k]
        self.mu_total = np.zeros(k)    # forgetting mean of each neuron over every sample
        self.var_within = np.zeros(k)
        self.var_total = np.zeros(k)
        self.steps = np.zeros(1)       # samples folded in, as checkpoints store it

    def update(self, z_row, label):
        """Advance all accumulators by one labeled sample.

        z_row: K logits for one sample; label: its integer class id.
        Returns (dev, centered), the sample's deviations from the pre-update
        means: the target-class mean on the label's neuron and the
        non-target mean elsewhere, and the total mean.
        """
        z = np.asarray(z_row, dtype=np.float64)
        if z.shape != (self.num_classes,):
            raise ValueError(f"expected a row of {self.num_classes} logits, got {z.shape}")
        t = class_targets(label, self.num_classes)
        t_hat = 1.0 - t                # non-target gate
        check_finite(z)
        a = self.alpha
        aa = a * (1.0 - a)
        dev = t * (z - self.mu) + t_hat * (z - self.mu_hat)
        centered = z - self.mu_total
        self.var_within *= a
        self.var_within += aa * dev**2
        self.var_total *= a
        self.var_total += aa * centered**2
        self.mu *= a
        self.mu += (1.0 - a) * t * z
        self.mu_hat *= a
        self.mu_hat += (1.0 - a) * t_hat * z
        self.mu_total *= a
        self.mu_total += (1.0 - a) * z
        self.steps += 1
        return dev, centered

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
    the forgetting-mean recurrence c <- a*c + (1-a)*x, so each centroid
    is a true forgetting mean of its own class's samples.
    ``update_minibatch`` (center loss) moves every centroid once per
    batch by a damped delta rule,
    c <- c - sum(c - x_i over class members) / (1 + count).
    Both move the centroids in place.
    """

    def __init__(self, num_classes, dim, alpha=0.99):
        self.num_classes = int(num_classes)
        self.dim = int(dim)
        self.alpha = _check_alpha(alpha)
        self.centers = np.zeros((self.num_classes, self.dim))
        self.steps = np.zeros(1)       # updates applied, as checkpoints store it

    def _check_vec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of dimension {self.dim}, got {x.shape}")
        check_finite(x)
        return x

    def update_sample(self, x, class_id):
        """Fold one feature vector into the centroid of its integer class id."""
        x = self._check_vec(x)
        k = class_ids(class_id, self.num_classes)
        a = self.alpha
        self.centers[k] = a * self.centers[k] + (1.0 - a) * x
        self.steps += 1

    def update_minibatch(self, features, labels):
        """Apply the damped delta rule for every class, given the features'
        integer class ids. Classes with no members in the batch are left
        unchanged.
        """
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"features must be N x {self.dim}, got {x.shape}")
        t = class_targets(labels, self.num_classes, x.shape[0])
        check_finite(x)
        counts = t.sum(axis=0)                                   # members per class
        sums = t.T @ x                                           # K x D
        delta = (counts[:, None] * self.centers - sums) / (1.0 + counts)[:, None]
        self.centers -= delta
        self.steps += 1

    def state_arrays(self):
        return {"centers": self.centers, "steps": self.steps}

