"""Classification losses with values and input gradients.

Five losses: softmax cross-entropy, the per-neuron discriminant
criterion (batch statistics), center loss (minibatch centers), and the
adaptive variants of the latter two driven by exponential-forgetting
accumulators. ``combined_objective`` assembles the weighted mix that an
``AuxState``'s own copy of the run config picks, and reports
per-tap-point gradients for backpropagation.

Gradient conventions: the batch discriminant criterion is differentiated
exactly, through its batch means and variances. The adaptive losses
treat their running statistics as constants (stop-gradient); each
sample's gradient uses the deviations its own fold returns, taken from
the pre-update means it was folded in against, and the post-batch
variances. Running statistics and centroids are never trained by
backprop; they move only by their own update rules.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .streaming import CenterBank, NeuronClassStats, check_finite, class_ids, class_targets
from .tensor import NonFiniteError

# Floor of the discriminant losses' total-variance denominators.
VAR_FLOOR = 1e-8


def _as2d(x, name):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 2-D batch, got shape {x.shape}")
    return x


def softmax_cross_entropy(z, labels):
    """Mean cross-entropy of softmax(z) against integer class ids.

    Returns (loss, dz). Both are divided by the batch size so
    auxiliary-loss weights stay batch-size independent.
    """
    z = _as2d(z, "logits")
    n, k = z.shape
    t = class_targets(labels, k, n)
    shifted = z - z.max(axis=1, keepdims=True)    # max subtraction: exp cannot overflow
    e = np.exp(shifted)
    row_sums = e.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(row_sums)
    loss = -float((t * log_probs).sum()) / n
    dz = (e / row_sums - t) / n
    return loss, dz


def _ratio_loss(var_within, var_total, dev, centered, coef):
    """Summed per-neuron var_within / var_total and its gradient, given each
    sample's deviations ``dev`` from its side's mean and ``centered`` from
    the total mean. Zero-variance denominators fall back to VAR_FLOOR;
    healthy ones stay exact, so hand-computed fixtures hold to 1e-12."""
    denom = np.maximum(var_total, VAR_FLOOR)
    loss = float(np.sum(var_within / denom))
    return loss, coef * (dev / denom - (var_within / denom**2) * centered)


def discriminant_criterion(z, labels):
    """Per-neuron within/total variance ratio over one batch, summed.

    For each output neuron the batch is split into target and non-target
    samples; the loss adds sigma_within^2 / sigma_total^2 computed from
    the batch means. Low values mean each neuron separates its class
    from the rest; labels are the samples' integer class ids. Returns
    (loss, dz) with dz the exact gradient through all batch statistics. A
    class absent from the batch (or occupying the whole batch) simply
    contributes no deviation terms on the empty side.
    """
    z = _as2d(z, "logits")
    n, k = z.shape
    if n < 2:
        raise ValueError("discriminant criterion needs a batch of at least 2")
    t = class_targets(labels, k, n)
    counts = t.sum(axis=0)
    counts_hat = n - counts
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(counts > 0, (t * z).sum(axis=0) / np.maximum(counts, 1.0), 0.0)
        mu_hat = np.where(
            counts_hat > 0, ((1.0 - t) * z).sum(axis=0) / np.maximum(counts_hat, 1.0), 0.0
        )
    mu_total = z.mean(axis=0)
    dev = t * (z - mu) + (1.0 - t) * (z - mu_hat)           # N x K
    var_within = (dev**2).mean(axis=0)
    var_total = ((z - mu_total) ** 2).mean(axis=0)
    # The mean terms drop out of the derivative: sum(t*(z - mu)) == 0 by
    # construction, so only the explicit deviations remain.
    return _ratio_loss(var_within, var_total, dev, z - mu_total, 2.0 / n)


def absent_class_sides(labels, num_classes):
    """Classes with an empty target or non-target side among these class ids."""
    n = np.size(labels)
    counts = np.bincount(class_ids(labels, num_classes, n), minlength=num_classes)
    flags = []
    for k in range(num_classes):
        if counts[k] == 0:
            flags.append(f"class {k} absent from batch")
        elif counts[k] == n:
            flags.append(f"class {k} fills the whole batch")
    return flags


def adaptive_discriminant(z, labels, stats):
    """Forgetting-statistics version of the discriminant criterion.

    Every sample in the batch advances the accumulators once, in row
    order, with its integer class id from ``labels``. The loss is the
    post-batch ratio sum; the gradient treats all statistics as
    constants, pairing each sample with the deviations its fold returns.
    A non-finite batch raises before any sample is folded in. Mutates
    ``stats``; returns (loss, dz).
    """
    z = _as2d(z, "logits")
    n, k = z.shape
    if k != stats.num_classes:
        raise ValueError(f"stats track {stats.num_classes} classes, batch has {k}")
    labels = class_ids(labels, k, n)
    check_finite(z)
    dev = np.empty_like(z)
    centered = np.empty_like(z)
    for i in range(n):
        dev[i], centered[i] = stats.update(z[i], labels[i])
    a = stats.alpha
    return _ratio_loss(stats.var_within, stats.var_total, dev, centered, 2.0 * a * (1.0 - a))


def center_loss(x, labels, bank):
    """Mean squared distance of features to their class ids' centroids.

    Returns (loss, dx); the bank's centroids are read, never moved.
    """
    x = _as2d(x, "features")
    n, d = x.shape
    centers = bank.centers
    if centers.shape[1] != d:
        raise ValueError(f"centers shape {centers.shape} does not match {d} dims")
    diff = x - centers[class_ids(labels, centers.shape[0], n)]
    loss = float((diff**2).sum() / n)
    dx = (2.0 / n) * diff
    return loss, dx


def adaptive_center_loss(x, labels, bank):
    """Center loss against forgetting centroids.

    Each sample first folds itself into the centroid of its integer
    class id, in row order; the loss and gradient are then taken against
    the post-batch centroids, which are treated as constants. A
    non-finite batch raises before any sample is folded in. Mutates
    ``bank``; returns (loss, dx).
    """
    x = _as2d(x, "features")
    labels = class_ids(labels, bank.num_classes, x.shape[0])
    check_finite(x)
    for i in range(x.shape[0]):
        bank.update_sample(x[i], labels[i])
    return center_loss(x, labels, bank)


CSV_COLUMNS = ("step", "total", "L_S", "L_D", "L_AD", "L_C", "L_AC")

_CSV_KEYS = {
    "L_S": "cross_entropy",
    "L_D": "discriminant",
    "L_AD": "adaptive_discriminant",
    "L_C": "center",
    "L_AC": "adaptive_center",
}


def component_cells(components):
    """The ``CSV_COLUMNS[2:]`` cells of a component map; absent ones are None."""
    return [components.get(_CSV_KEYS[col]) for col in CSV_COLUMNS[2:]]


def csv_line(cells):
    """One CSV line of ``repr`` cells; a None cell stays empty."""
    return ",".join("" if v is None else repr(v) for v in cells)


@dataclass
class LossReport:
    """One training step's objective breakdown and tap-point gradients."""

    total: float
    components: dict
    gradients: dict
    notes: list = field(default_factory=list)

    def csv_row(self, step):
        """Render the step as a CSV row; absent components stay empty."""
        return csv_line([step, self.total] + component_cells(self.components))


class AuxState:
    """One training run's objective settings and mutable accumulators.

    Keeps a validated private copy of the run's RunConfig as ``cfg``, and
    from it the per-neuron forgetting statistics when
    ``lambda_adaptive_discriminant`` is on, a ``hidden_width``-wide centroid
    bank (``alpha``) when either center weight is on.
    ``combined_objective`` is their only writer.
    """

    def __init__(self, cfg, num_classes):
        self.cfg = cfg = replace(cfg).validate()
        self.neuron_stats = None
        self.center_bank = None
        if cfg.lambda_adaptive_discriminant > 0:
            self.neuron_stats = NeuronClassStats(num_classes, cfg.alpha)
        if cfg.lambda_center > 0 or cfg.lambda_adaptive_center > 0:
            self.center_bank = CenterBank(num_classes, cfg.hidden_width, cfg.alpha)

    def state_arrays(self):
        """Live arrays of the enabled accumulators, by checkpoint name."""
        arrays = {}
        for owner, stats in (("neuron_stats", self.neuron_stats), ("center_bank", self.center_bank)):
            if stats is not None:
                arrays.update({f"{owner}.{k}": v for k, v in stats.state_arrays().items()})
        return arrays


def combined_objective(state, taps, labels):
    """Evaluate the full training objective at the network's tap points.

    Every weight comes from ``state.cfg``; a ``lambda_*`` weight of zero
    disables its loss. Cross-entropy and the discriminant losses read the
    ``logits`` tap, the center losses read ``hidden_preact``. labels are
    the batch's integer class ids. Every enabled loss with state advances
    it in ``state``: the adaptive losses fold each sample in before they
    are evaluated, and the minibatch center rule moves the centroids
    after the center loss has read them. ``total`` is the cross-entropy
    plus each enabled ``weight * component``, added in a fixed order:
    discriminant, adaptive discriminant, then center or adaptive center.
    Returns a LossReport whose gradients are, per tap point, the weighted
    sum of the enabled component gradients in that order, in the tap's dtype.
    """
    cfg = state.cfg
    z = np.asarray(taps["logits"], dtype=np.float64)
    total, dz = softmax_cross_entropy(z, labels)
    components = {"cross_entropy": total}
    sums = {"logits": dz}
    notes = []
    terms = []  # (component, weight, tap, (loss, gradient)), in the order they are added
    if cfg.lambda_discriminant > 0 and z.shape[0] < 2:
        # Batch statistics need two samples; a trailing batch of one skips them.
        notes.append("discriminant criterion skipped: batch of 1")
    elif cfg.lambda_discriminant > 0:
        terms.append(("discriminant", cfg.lambda_discriminant, "logits",
                      discriminant_criterion(z, labels)))
        notes.extend(absent_class_sides(labels, z.shape[1]))
    if cfg.lambda_adaptive_discriminant > 0:
        terms.append(("adaptive_discriminant", cfg.lambda_adaptive_discriminant, "logits",
                      adaptive_discriminant(z, labels, state.neuron_stats)))
    if cfg.lambda_center > 0 or cfg.lambda_adaptive_center > 0:
        x = np.asarray(taps["hidden_preact"], dtype=np.float64)
        if cfg.lambda_center > 0:
            terms.append(("center", cfg.lambda_center, "hidden_preact",
                          center_loss(x, labels, state.center_bank)))
        else:
            terms.append(("adaptive_center", cfg.lambda_adaptive_center, "hidden_preact",
                          adaptive_center_loss(x, labels, state.center_bank)))
    for name, weight, tap, (loss, grad) in terms:
        components[name] = loss
        total += weight * loss
        sums[tap] = sums[tap] + weight * grad if tap in sums else weight * grad
    for name, value in components.items():
        if not np.isfinite(value):
            raise NonFiniteError(f"loss component {name!r} is non-finite ({value})")
    if cfg.lambda_center > 0:
        state.center_bank.update_minibatch(x, labels)

    gradients = {tap: g.astype(np.asarray(taps[tap]).dtype, copy=False) for tap, g in sums.items()}
    return LossReport(total=float(total), components=components,
                      gradients=gradients, notes=notes)
