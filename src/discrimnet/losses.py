"""Classification losses with values and input gradients.

Five losses: softmax cross-entropy, the per-neuron discriminant
criterion (batch statistics), center loss (minibatch centers), and the
adaptive variants of the latter two driven by exponential-forgetting
accumulators. ``combined_objective`` assembles any weighted mix and
reports per-tap-point gradients for backpropagation.

Gradient conventions: the batch discriminant criterion is differentiated
exactly, through its batch means and variances. The adaptive losses
treat their running statistics as constants (stop-gradient); each
sample's gradient uses the pre-update means it was folded in against and
the post-batch variances. Running statistics and centroids are never
trained by backprop; they move only by their own update rules.
"""

from dataclasses import dataclass, field

import numpy as np

from .streaming import CenterBank, NeuronClassStats
from .tensor import NonFiniteError


def _as2d(x, name):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 2-D batch, got shape {x.shape}")
    return x


def _check_onehot(t, n, name="labels"):
    if t.shape[0] != n:
        raise ValueError(f"{name} rows ({t.shape[0]}) != batch rows ({n})")
    rows = t.sum(axis=1)
    if not (np.all((t == 0.0) | (t == 1.0)) and np.all(rows == 1.0)):
        raise ValueError(f"{name} must be one-hot rows")


def softmax(z):
    """Row-wise softmax, computed with max subtraction so it cannot overflow."""
    z = _as2d(z, "logits")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(z, t, reduction="mean"):
    """Cross-entropy of softmax(z) against one-hot targets.

    Returns (loss, dz). Reduction "mean" divides by the batch size so
    auxiliary-loss weights stay batch-size independent; "sum" gives the
    plain summed form.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    z = _as2d(z, "logits")
    t = _as2d(t, "labels")
    n = z.shape[0]
    _check_onehot(t, n)
    shifted = z - z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -float((t * log_probs).sum())
    dz = softmax(z) - t
    if reduction == "mean":
        loss /= n
        dz = dz / n
    return loss, dz


def _guard(var, eps):
    # Degenerate (zero-variance) denominators fall back to eps; healthy
    # ones stay exact so hand-computed fixtures hold to 1e-12.
    return np.maximum(var, eps)


def discriminant_criterion(z, t, eps=1e-8):
    """Per-neuron within/total variance ratio over one batch, summed.

    For each output neuron the batch is split into target and non-target
    samples; the loss adds sigma_within^2 / sigma_total^2 computed from
    the batch means. Low values mean each neuron separates its class
    from the rest. Returns (loss, dz) with dz the exact gradient through
    all batch statistics. A class absent from the batch (or occupying
    the whole batch) simply contributes no deviation terms on the empty
    side.
    """
    z = _as2d(z, "logits")
    t = _as2d(t, "labels")
    n, k = z.shape
    if n < 2:
        raise ValueError("discriminant criterion needs a batch of at least 2")
    _check_onehot(t, n)
    counts = t.sum(axis=0)
    counts_hat = n - counts
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(counts > 0, (t * z).sum(axis=0) / np.maximum(counts, 1.0), 0.0)
        mu_hat = np.where(
            counts_hat > 0, ((1.0 - t) * z).sum(axis=0) / np.maximum(counts_hat, 1.0), 0.0
        )
    mu_total = z.mean(axis=0)
    dev = t * (z - mu) + (1.0 - t) * (z - mu_hat)           # N x K
    var_within = (t * (z - mu) ** 2 + (1.0 - t) * (z - mu_hat) ** 2).mean(axis=0)
    var_total = ((z - mu_total) ** 2).mean(axis=0)
    denom = _guard(var_total, eps)
    loss = float(np.sum(var_within / denom))
    # The mean terms drop out of the derivative: sum(t*(z - mu)) == 0 by
    # construction, so only the explicit deviations remain.
    dz = (2.0 / n) * (dev / denom - (var_within / denom**2) * (z - mu_total))
    return loss, dz


def absent_class_sides(t):
    """Classes with an empty target or non-target side in this batch."""
    t = _as2d(t, "labels")
    counts = t.sum(axis=0)
    n = t.shape[0]
    flags = []
    for k in range(t.shape[1]):
        if counts[k] == 0:
            flags.append(f"class {k} absent from batch")
        elif counts[k] == n:
            flags.append(f"class {k} fills the whole batch")
    return flags


def adaptive_discriminant(z, t, stats, eps=1e-8):
    """Forgetting-statistics version of the discriminant criterion.

    Every sample in the batch advances the accumulators once, in row
    order. The loss is the post-batch ratio sum; the gradient treats all
    statistics as constants, pairing each sample with the means that
    were current when it was folded in. Mutates ``stats``; returns
    (loss, dz).
    """
    z = _as2d(z, "logits")
    t = _as2d(t, "labels")
    n, k = z.shape
    _check_onehot(t, n)
    if k != stats.num_classes:
        raise ValueError(f"stats track {stats.num_classes} classes, batch has {k}")
    mu_pre = np.empty_like(z)
    mu_hat_pre = np.empty_like(z)
    mu_total_pre = np.empty_like(z)
    for i in range(n):
        mu_pre[i] = stats.mu
        mu_hat_pre[i] = stats.mu_hat
        mu_total_pre[i] = stats.mu_total
        stats.update(z[i], t[i])
    var_w = stats.var_within
    denom = _guard(stats.var_total, eps)
    loss = float(np.sum(var_w / denom))
    a = stats.alpha
    coef = 2.0 * a * (1.0 - a)
    dev = t * (z - mu_pre) + (1.0 - t) * (z - mu_hat_pre)
    dz = coef * (dev / denom - (var_w / denom**2) * (z - mu_total_pre))
    return loss, dz


def center_loss(x, t, bank):
    """Mean squared distance of features to their class centroids.

    Returns (loss, dx); the bank's centroids are read, never moved.
    """
    x = _as2d(x, "features")
    t = _as2d(t, "labels")
    n = x.shape[0]
    _check_onehot(t, n)
    centers = bank.centers
    if centers.shape != (t.shape[1], x.shape[1]):
        raise ValueError(
            f"centers shape {centers.shape} does not match "
            f"{t.shape[1]} classes x {x.shape[1]} dims"
        )
    assigned = t @ centers                       # per-row class centroid
    diff = x - assigned
    loss = float((diff**2).sum() / n)
    dx = (2.0 / n) * diff
    return loss, dx


def adaptive_center_loss(x, t, bank):
    """Center loss against forgetting centroids.

    Each sample first folds itself into its class centroid, in row
    order; the loss and gradient are then taken against
    the post-batch centroids, which are treated as constants. Mutates
    ``bank``; returns (loss, dx).
    """
    x = _as2d(x, "features")
    t = _as2d(t, "labels")
    n = x.shape[0]
    _check_onehot(t, n)
    labels = t.argmax(axis=1)
    for i in range(n):
        bank.update_sample(x[i], labels[i])
    return center_loss(x, t, bank)


CSV_COLUMNS = ("step", "total", "L_S", "L_D", "L_AD", "L_C", "L_AC")

_CSV_KEYS = {
    "L_S": "cross_entropy",
    "L_D": "discriminant",
    "L_AD": "adaptive_discriminant",
    "L_C": "center",
    "L_AC": "adaptive_center",
}


@dataclass
class LossReport:
    """One training step's objective breakdown and tap-point gradients."""

    total: float
    components: dict
    gradients: dict
    notes: list = field(default_factory=list)

    def csv_row(self, step):
        """Render the step as a CSV row; absent components stay empty."""
        cells = [str(step), repr(self.total)]
        for col in CSV_COLUMNS[2:]:
            v = self.components.get(_CSV_KEYS[col])
            cells.append("" if v is None else repr(v))
        return ",".join(cells)


class AuxState:
    """Mutable accumulators owned by one training run.

    Built from the run's validated RunConfig: the per-neuron forgetting
    statistics when ``lambda_adaptive_discriminant`` is on, the centroid
    bank (``alpha``, ``beta``) when either center weight is on.
    ``combined_objective`` is their only writer.
    """

    def __init__(self, cfg, num_classes, feature_dim):
        cfg.validate()
        self.neuron_stats = None
        self.center_bank = None
        if cfg.lambda_adaptive_discriminant > 0:
            self.neuron_stats = NeuronClassStats(num_classes, cfg.alpha)
        if cfg.lambda_center > 0 or cfg.lambda_adaptive_center > 0:
            self.center_bank = CenterBank(num_classes, feature_dim, cfg.alpha, cfg.beta)

    def state_arrays(self):
        """Live arrays of the enabled accumulators, by checkpoint name."""
        arrays = {}
        for owner, stats in (("neuron_stats", self.neuron_stats), ("center_bank", self.center_bank)):
            if stats is not None:
                arrays.update({f"{owner}.{k}": v for k, v in stats.state_arrays().items()})
        return arrays


def combined_objective(cfg, taps, labels_onehot, state=None):
    """Evaluate the full training objective at the network's tap points.

    cfg is the run's RunConfig; a ``lambda_*`` weight of zero disables its
    loss. Cross-entropy and the discriminant losses read the ``logits``
    tap, the center losses read ``hidden_preact``. labels_onehot is the
    batch's one-hot label matrix. Every enabled loss with state advances
    it in ``state``: the adaptive losses fold each sample in before they
    are evaluated, and the minibatch center rule moves the centroids
    after the center loss has read them. Returns a LossReport
    whose gradients are, per tap point, the weighted sum of the enabled
    component gradients (in the tap's own dtype).
    """
    cfg.validate()
    z_raw = taps["logits"]
    z = np.asarray(z_raw, dtype=np.float64)
    t = _as2d(np.asarray(labels_onehot), "labels")

    components = {}
    notes = []
    ls, dz_ce = softmax_cross_entropy(z, t, reduction=cfg.ce_reduction)
    components["cross_entropy"] = ls
    dz_total = dz_ce
    total = ls

    if cfg.lambda_discriminant > 0 and z.shape[0] < 2:
        # Batch statistics need two samples; a trailing batch of one skips them.
        notes.append("discriminant criterion skipped: batch of 1")
    elif cfg.lambda_discriminant > 0:
        ld, dz = discriminant_criterion(z, t, eps=cfg.epsilon)
        components["discriminant"] = ld
        notes.extend(absent_class_sides(t))
        dz_total = dz_total + cfg.lambda_discriminant * dz
        total += cfg.lambda_discriminant * ld

    if cfg.lambda_adaptive_discriminant > 0:
        if state is None or state.neuron_stats is None:
            raise ValueError("adaptive discriminant loss needs AuxState.neuron_stats")
        lad, dz = adaptive_discriminant(z, t, state.neuron_stats, eps=cfg.epsilon)
        components["adaptive_discriminant"] = lad
        dz_total = dz_total + cfg.lambda_adaptive_discriminant * dz
        total += cfg.lambda_adaptive_discriminant * lad

    dx_total = None
    if cfg.lambda_center > 0 or cfg.lambda_adaptive_center > 0:
        x_raw = taps["hidden_preact"]
        x = np.asarray(x_raw, dtype=np.float64)
        if state is None or state.center_bank is None:
            raise ValueError("center losses need AuxState.center_bank")
        if cfg.lambda_center > 0:
            lc, dx = center_loss(x, t, state.center_bank)
            components["center"] = lc
            dx_total = cfg.lambda_center * dx
            total += cfg.lambda_center * lc
        else:
            lac, dx = adaptive_center_loss(x, t, state.center_bank)
            components["adaptive_center"] = lac
            dx_total = cfg.lambda_adaptive_center * dx
            total += cfg.lambda_adaptive_center * lac

    for name, value in components.items():
        if not np.isfinite(value):
            raise NonFiniteError(f"loss component {name!r} is non-finite ({value})")
    if cfg.lambda_center > 0:
        state.center_bank.update_minibatch(x, t)

    gradients = {"logits": dz_total.astype(np.asarray(z_raw).dtype, copy=False)}
    if dx_total is not None:
        gradients["hidden_preact"] = dx_total.astype(np.asarray(x_raw).dtype, copy=False)
    return LossReport(total=float(total), components=components,
                      gradients=gradients, notes=notes)
