import copy

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import discrimnet as dn
from conftest import finite_difference, rel_error


def onehot(labels, k):
    t = np.zeros((len(labels), k))
    t[np.arange(len(labels)), labels] = 1.0
    return t


def random_instance(rng, n, k):
    z = rng.normal(size=(n, k)) * 2.0
    labels = rng.integers(0, k, n)
    return z, labels


# --- softmax cross-entropy ----------------------------------------------------

def cross_entropy_probabilities(z, labels):
    """softmax(z), read back from the cross-entropy gradient (p - onehot) / n."""
    _, dz = dn.softmax_cross_entropy(z, labels)
    return len(labels) * dz + onehot(labels, dz.shape[1])


def test_cross_entropy_probabilities_symmetry():
    assert_allclose(cross_entropy_probabilities(np.array([[0.0, 0.0]]), np.array([0])),
                    [[0.5, 0.5]])


def test_cross_entropy_huge_logits_do_not_overflow():
    z, labels = np.array([[1000.0, 0.0]]), np.array([0])
    loss, _ = dn.softmax_cross_entropy(z, labels)
    y = cross_entropy_probabilities(z, labels)
    assert np.isfinite(loss) and np.all(np.isfinite(y))
    assert y[0, 0] == pytest.approx(1.0)
    assert y[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_cross_entropy_shift_invariance_and_row_sums():
    rng = dn.seeded_rng(2)
    z = rng.normal(size=(16, 5)) * 3.0
    labels = rng.integers(0, 5, 16)
    c = 7.3
    p = cross_entropy_probabilities(z, labels)
    assert np.abs(cross_entropy_probabilities(z + c, labels) - p).max() < 1e-12
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12


def test_cross_entropy_uniform_fixture():
    loss, dz = dn.softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    assert loss == pytest.approx(np.log(2.0), rel=1e-14)
    assert_allclose(dz, [[-0.5, 0.5]])


def test_cross_entropy_confident_prediction_vanishes():
    z = np.array([[30.0, 0.0, 0.0]])
    t = np.array([0])
    loss, _ = dn.softmax_cross_entropy(z, t)
    assert loss < 1e-12


def test_cross_entropy_sum_vs_mean():
    rng = dn.seeded_rng(3)
    z, labels = random_instance(rng, 6, 4)
    t = onehot(labels, 4)
    loss_mean, dz_mean = dn.softmax_cross_entropy(z, labels)
    e = np.exp(z)
    row_loss = np.log(e.sum(axis=1)) - (t * z).sum(axis=1)  # -log p(target), row by row
    assert loss_mean == pytest.approx(row_loss.sum() / 6.0, rel=1e-14)
    assert_allclose(dz_mean, (e / e.sum(axis=1, keepdims=True) - t) / 6.0, rtol=1e-14)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = dn.seeded_rng(4)
    z, t = random_instance(rng, 8, 4)
    _, dz = dn.softmax_cross_entropy(z, t)
    fd = finite_difference(lambda zz: dn.softmax_cross_entropy(zz, t)[0], z)
    assert rel_error(dz, fd) < 1e-6


# Labels that break the class-id contract for a batch of 2 in 3 classes.
BAD_LABELS = {
    "float": np.array([0.0, 1.0]),
    "negative": np.array([0, -1]),
    "too_large": np.array([0, 3]),
    "wrong_length": np.array([0, 1, 2]),
    "two_dim": np.array([[0], [1]]),
}


def test_cross_entropy_rejects_bad_labels():
    for labels in BAD_LABELS.values():
        with pytest.raises(ValueError, match="class id"):
            dn.softmax_cross_entropy(np.zeros((2, 3)), labels)


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
@pytest.mark.parametrize("call", [
    lambda y: dn.discriminant_criterion(np.zeros((2, 3)), y),
    lambda y: dn.adaptive_discriminant(np.zeros((2, 3)), y, dn.NeuronClassStats(3, 0.5)),
    lambda y: dn.center_loss(np.zeros((2, 4)), y, dn.CenterBank(3, 4)),
    lambda y: dn.adaptive_center_loss(np.zeros((2, 4)), y, dn.CenterBank(3, 4)),
    lambda y: dn.CenterBank(3, 4).update_minibatch(np.zeros((2, 4)), y),
    lambda y: dn.combined_objective(dn.AuxState(dn.RunConfig(), 3),
                                    {"logits": np.zeros((2, 3))}, y),
], ids=["discriminant", "adaptive_discriminant", "center", "adaptive_center",
        "update_minibatch", "combined"])
def test_losses_and_accumulators_reject_labels_that_are_not_class_ids(call, case):
    with pytest.raises(ValueError, match="class id"):
        call(BAD_LABELS[case])


@pytest.mark.parametrize("case", sorted(set(BAD_LABELS) - {"wrong_length"}))
def test_absent_class_sides_rejects_labels_that_are_not_class_ids(case):
    with pytest.raises(ValueError, match="class id"):
        dn.losses.absent_class_sides(BAD_LABELS[case], 3)


@pytest.mark.parametrize("label", [1.7, -1, 3, np.array([1]), "1", True, False])
def test_per_sample_updates_reject_a_label_that_is_not_one_class_id(label):
    stats, bank = dn.NeuronClassStats(3, 0.5), dn.CenterBank(3, 2)
    with pytest.raises(ValueError, match="class id"):
        stats.update(np.zeros(3), label)
    with pytest.raises(ValueError, match="class id"):
        bank.update_sample(np.zeros(2), label)
    assert stats.steps == 0 and bank.steps == 0


# --- batch discriminant criterion ---------------------------------------------

def test_discriminant_hand_fixture():
    # neuron 0: target values {2, 4}, non-target {0, 0}; neuron 1 is
    # constant, so its guarded ratio is exactly 0 and the loss is the
    # neuron-0 ratio alone: 0.5 / 2.75 = 2/11.
    z = np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    t = np.array([0, 0, 1, 1])
    loss, _ = dn.discriminant_criterion(z, t)
    assert abs(loss - 2.0 / 11.0) < 1e-12


def test_discriminant_zero_within_scatter_is_minimum():
    # all targets equal, all non-targets equal (per neuron) -> within = 0
    z = np.array([[3.0, -1.0], [3.0, -1.0], [-1.0, 3.0], [-1.0, 3.0]])
    t = np.array([0, 0, 1, 1])
    loss, dz = dn.discriminant_criterion(z, t)
    assert loss == 0.0


def test_discriminant_degenerate_constant_neuron():
    z = np.full((4, 2), 5.0)
    t = np.array([0, 0, 1, 1])
    loss, dz = dn.discriminant_criterion(z, t)
    assert loss == 0.0
    assert_array_equal(dz, np.zeros_like(z))


def test_discriminant_needs_two_samples():
    with pytest.raises(ValueError):
        dn.discriminant_criterion(np.zeros((1, 2)), np.array([0]))


def test_discriminant_absent_class_contributes_nothing_and_is_flagged():
    z = np.array([[1.0, 0.5, 2.0], [2.0, -0.5, 1.0], [0.0, 0.25, -1.0]])
    t = np.array([0, 0, 1])  # class 2 absent
    loss, dz = dn.discriminant_criterion(z, t)
    assert np.isfinite(loss) and np.all(np.isfinite(dz))
    flags = dn.losses.absent_class_sides(t, 3)
    assert any("class 2" in f for f in flags)


def test_discriminant_gradient_matches_finite_differences():
    rng = dn.seeded_rng(6)
    for n, k in [(6, 3), (8, 4), (5, 2)]:
        z, t = random_instance(rng, n, k)
        _, dz = dn.discriminant_criterion(z, t)
        fd = finite_difference(lambda zz: dn.discriminant_criterion(zz, t)[0], z)
        assert rel_error(dz, fd) < 1e-6


def test_discriminant_loss_ratios_bounded_below():
    rng = dn.seeded_rng(7)
    for _ in range(20):
        z, t = random_instance(rng, 10, 4)
        loss, _ = dn.discriminant_criterion(z, t)
        assert 0.0 <= loss < np.inf


# --- adaptive discriminant criterion -------------------------------------------

def adaptive_surrogate(z, t, mu_pre, mu_hat_pre, mu_total_pre, var_w, denom, alpha):
    # Frozen-statistics function whose exact gradient the implementation claims.
    aa = alpha * (1.0 - alpha)
    dev = t * (z - mu_pre) ** 2 + (1.0 - t) * (z - mu_hat_pre) ** 2
    return float(
        np.sum(aa * dev / denom - (var_w / denom**2) * aa * (z - mu_total_pre) ** 2)
    )


def run_adaptive(z, labels, alpha, warm=None):
    stats = dn.NeuronClassStats(z.shape[1], alpha)
    if warm is not None:
        for zr, label in warm:
            stats.update(zr, label)
    pre = copy.deepcopy(stats)
    loss, dz = dn.adaptive_discriminant(z, labels, stats)
    return loss, dz, pre, stats


def capture_surrogate(z, labels, pre_stats):
    stats = copy.deepcopy(pre_stats)
    n, k = z.shape
    mu_pre = np.empty_like(z)
    mu_hat_pre = np.empty_like(z)
    mu_total_pre = np.empty_like(z)
    for i in range(n):
        mu_pre[i] = stats.mu
        mu_hat_pre[i] = stats.mu_hat
        mu_total_pre[i] = stats.mu_total
        stats.update(z[i], labels[i])
    denom = np.maximum(stats.var_total, 1e-8)
    return mu_pre, mu_hat_pre, mu_total_pre, stats.var_within, denom


def test_adaptive_discriminant_single_sample_matches_recurrences():
    z = np.array([[2.0, -1.0]])
    t = np.array([0])
    loss, dz, _, stats = run_adaptive(z, t, alpha=0.5)
    # one-step values: var_w = a(1-a) z^2 with zero prior (same for var_t)
    assert_allclose(stats.var_within, [1.0, 0.25])
    assert_allclose(stats.var_total, [1.0, 0.25])
    assert loss == pytest.approx(2.0, rel=1e-12)


def test_adaptive_discriminant_gradient_matches_frozen_surrogate_fd():
    rng = dn.seeded_rng(8)
    warm = [(rng.normal(size=3), int(rng.integers(0, 3))) for _ in range(12)]
    z, labels = random_instance(rng, 8, 3)
    t = onehot(labels, 3)
    loss, dz, pre, _ = run_adaptive(z, labels, alpha=0.9, warm=warm)
    frozen = capture_surrogate(z, labels, pre)

    def surrogate_loss(zz):
        return adaptive_surrogate(zz, t, *frozen, alpha=0.9)

    fd = finite_difference(surrogate_loss, z)
    assert rel_error(dz, fd) < 1e-5


def test_adaptive_discriminant_concentrated_stream_drives_loss_down():
    # Target values of each neuron pinned at +2, non-target at -2. Under
    # the gated-mean recurrence the class means settle at duty-weighted
    # values, so the ratio converges to a small positive constant (not
    # 0), well below both its zero-prior start (1 per neuron) and the
    # level an uninformative stream holds.
    stats = dn.NeuronClassStats(2, 0.9)
    z = np.array([[2.0, -2.0], [-2.0, 2.0]])
    t = np.array([0, 1])
    losses = []
    for _ in range(400):
        loss, _ = dn.adaptive_discriminant(z.copy(), t, stats)
        losses.append(loss)
    assert losses[0] > 1.5  # zero-prior transient starts near ratio 1 per neuron
    assert losses[-1] < 0.6
    assert losses[-1] < losses[5]

    rng = dn.seeded_rng(77)
    noise_stats = dn.NeuronClassStats(2, 0.9)
    for _ in range(400):
        zz = rng.normal(size=(2, 2))
        noise_loss, _ = dn.adaptive_discriminant(zz, t, noise_stats)
    assert losses[-1] < 0.5 * noise_loss


# --- center loss ----------------------------------------------------------------

def make_bank(centers):
    centers = np.asarray(centers, dtype=np.float64)
    bank = dn.CenterBank(centers.shape[0], centers.shape[1])
    bank.centers = centers.copy()
    return bank


def test_center_loss_hand_fixture():
    bank = make_bank([[2.0, 0.0]])
    x = np.array([[1.0, 0.0], [3.0, 0.0]])
    t = np.array([0, 0])
    loss, dx = dn.center_loss(x, t, bank)
    assert loss == 1.0
    assert_array_equal(dx, [[-1.0, 0.0], [1.0, 0.0]])
    assert_array_equal(bank.centers, [[2.0, 0.0]])  # untouched


def test_center_loss_zero_at_centers():
    bank = make_bank([[1.0, 2.0], [-1.0, 0.0]])
    x = np.array([[1.0, 2.0], [-1.0, 0.0]])
    t = np.array([0, 1])
    loss, dx = dn.center_loss(x, t, bank)
    assert loss == 0.0
    assert_array_equal(dx, np.zeros_like(x))


def test_center_loss_gradient_matches_finite_differences():
    rng = dn.seeded_rng(11)
    bank = make_bank(rng.normal(size=(4, 6)))
    x = rng.normal(size=(8, 6))
    t = rng.integers(0, 4, 8)
    _, dx = dn.center_loss(x, t, bank)
    fd = finite_difference(lambda xx: dn.center_loss(xx, t, bank)[0], x)
    assert rel_error(dx, fd) < 1e-6


def test_center_loss_translation_covariance():
    rng = dn.seeded_rng(12)
    bank = make_bank(rng.normal(size=(3, 4)))
    x = rng.normal(size=(6, 4))
    t = rng.integers(0, 3, 6)
    shift = np.array([0.3, -1.2, 4.0, 0.01])
    loss1, dx1 = dn.center_loss(x, t, bank)
    bank2 = make_bank(bank.centers + shift)
    loss2, dx2 = dn.center_loss(x + shift, t, bank2)
    assert loss2 == pytest.approx(loss1, rel=1e-12, abs=1e-12)
    assert np.abs(dx1 - dx2).max() < 1e-12


def test_center_loss_dimension_mismatch():
    bank = make_bank([[0.0, 0.0]])
    with pytest.raises(ValueError):
        dn.center_loss(np.zeros((2, 3)), np.zeros(2, dtype=np.int64), bank)


# --- adaptive center loss ---------------------------------------------------------

def test_adaptive_center_fresh_bank_fixture():
    bank = dn.CenterBank(2, 2, alpha=0.5)
    x = np.array([[2.0, 2.0]])
    t = np.array([0])
    loss, dx = dn.adaptive_center_loss(x, t, bank)
    assert_array_equal(bank.centers[0], [1.0, 1.0])
    assert loss == 2.0  # squared distance (2,2) -> (1,1)
    assert_array_equal(dx, [[2.0, 2.0]])


def test_adaptive_center_near_one_alpha_approaches_plain_center_loss():
    rng = dn.seeded_rng(13)
    centers = rng.normal(size=(3, 4))
    x = rng.normal(size=(6, 4))
    t = rng.integers(0, 3, 6)
    bank = dn.CenterBank(3, 4, alpha=1 - 1e-9)
    bank.centers = centers.copy()
    loss_a, dx_a = dn.adaptive_center_loss(x, t, bank)
    loss_c, dx_c = dn.center_loss(x, t, make_bank(centers))
    assert loss_a == pytest.approx(loss_c, rel=1e-6)
    assert rel_error(dx_a, dx_c) < 1e-6


def test_adaptive_center_gradient_matches_frozen_center_fd():
    rng = dn.seeded_rng(14)
    bank = dn.CenterBank(3, 5, alpha=0.9)
    bank.centers = rng.normal(size=(3, 5))
    x = rng.normal(size=(7, 5))
    labels = rng.integers(0, 3, 7)
    t = onehot(labels, 3)
    before = bank.centers.copy()
    loss, dx = dn.adaptive_center_loss(x, labels, bank)
    frozen = bank.centers.copy()  # post-update centers

    def surrogate(xx):
        diff = xx - t @ frozen
        return float((diff**2).sum() / len(xx))

    fd = finite_difference(surrogate, x)
    assert rel_error(dx, fd) < 1e-6
    assert np.any(before != bank.centers)


def test_center_loss_equals_the_one_hot_formula_bitwise():
    # center_loss gathers each row's centroid; the one-hot product picks
    # the same numbers, since every other term it adds is an exact zero.
    rng = dn.seeded_rng(16)
    for _ in range(20):
        k, d, n = (int(v) for v in rng.integers(1, 12, 3))
        bank = make_bank(rng.normal(size=(k, d)) * 3.0)
        x = rng.normal(size=(n, d)) * 3.0
        labels = rng.integers(0, k, n)
        diff = x - onehot(labels, k) @ bank.centers
        loss, dx = dn.center_loss(x, labels, bank)
        assert loss == float((diff**2).sum() / n)
        assert_array_equal(dx, (2.0 / n) * diff)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_batch_leaves_the_forgetting_state_untouched(bad):
    # The last row is the bad one, so a check per fold would raise only
    # after the rows before it had moved the state.
    rng = dn.seeded_rng(17)
    stats = dn.NeuronClassStats(3, 0.9)
    bank = dn.CenterBank(3, 4, alpha=0.9)
    for _ in range(5):
        label = int(rng.integers(0, 3))
        stats.update(rng.normal(size=3), label)
        bank.update_sample(rng.normal(size=4), label)
    labels = rng.integers(0, 3, 4)
    z = rng.normal(size=(4, 3))
    z[-1, 1] = bad
    x = rng.normal(size=(4, 4))
    x[-1, 2] = bad
    for loss, batch, state in ((dn.adaptive_discriminant, z, stats),
                               (dn.adaptive_center_loss, x, bank)):
        before = copy.deepcopy(state.state_arrays())
        with pytest.raises(dn.NonFiniteError):
            loss(batch, labels, state)
        for name, value in state.state_arrays().items():
            assert_array_equal(value, before[name], err_msg=name)


def test_batch_loss_permutation_equivariance():
    rng = dn.seeded_rng(15)
    z, t = random_instance(rng, 9, 3)
    perm = rng.permutation(9)
    for fn in (
        lambda zz, tt: dn.softmax_cross_entropy(zz, tt),
        lambda zz, tt: dn.discriminant_criterion(zz, tt),
        lambda zz, tt: dn.center_loss(zz, tt, make_bank(rng.normal(size=(3, 3)) * 0 + 0.5)),
    ):
        loss1, g1 = fn(z, t)
        loss2, g2 = fn(z[perm], t[perm])
        assert loss2 == pytest.approx(loss1, rel=1e-12)
        assert np.abs(g2 - g1[perm]).max() < 1e-12


# --- combined objective -----------------------------------------------------------

def test_combined_all_weights_zero_is_pure_cross_entropy():
    rng = dn.seeded_rng(16)
    z, t = random_instance(rng, 5, 3)
    report = dn.combined_objective(dn.AuxState(dn.RunConfig(), 3), {"logits": z}, t)
    ls, dz = dn.softmax_cross_entropy(z, t)
    assert report.total == ls
    assert_array_equal(report.gradients["logits"], dz)
    assert set(report.components) == {"cross_entropy"}


def test_combined_published_mnist_setting_and_component_sum():
    rng = dn.seeded_rng(17)
    n, k, d = 6, 4, 5
    z, t = random_instance(rng, n, k)
    x = rng.normal(size=(n, d))
    cfg = dn.RunConfig(
        lambda_adaptive_discriminant=0.001,
        lambda_adaptive_center=1.0,
        alpha=0.99,
        hidden_width=d,
    )
    state = dn.AuxState(cfg, num_classes=k)
    report = dn.combined_objective(state, {"logits": z, "hidden_preact": x}, t)
    recomputed = (
        report.components["cross_entropy"]
        + 0.001 * report.components["adaptive_discriminant"]
        + 1.0 * report.components["adaptive_center"]
    )
    assert abs(report.total - recomputed) < 1e-12
    assert report.gradients["hidden_preact"].shape == x.shape


def assert_same_bits(actual, expected, name):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape), name
    assert actual.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("n", [7, 1])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("center", [None, "center", "adaptive_center"])
@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("batch", [False, True])
def test_combined_gradients_are_weighted_sums(batch, adaptive, center, dtype, n):
    # Bit for bit: the public losses added left to right in the documented
    # order, cross-entropy, discriminant, adaptive discriminant, center.
    rng = dn.seeded_rng(18)
    k, d = 3, 4
    weights = {"discriminant": 0.3 * batch, "adaptive_discriminant": 0.7 * adaptive,
               "center": 0.11 * (center == "center"),
               "adaptive_center": 0.13 * (center == "adaptive_center")}
    cfg = dn.RunConfig(hidden_width=d, alpha=0.9,
                       **{f"lambda_{name}": w for name, w in weights.items()})
    state = dn.AuxState(cfg, k)
    for _ in range(5):  # warm the accumulators away from their zero start
        label = int(rng.integers(0, k))
        if state.neuron_stats is not None:
            state.neuron_stats.update(rng.normal(size=k) * 2.0, label)
        if state.center_bank is not None:
            state.center_bank.update_sample(rng.normal(size=d) * 2.0, label)
    expected = copy.deepcopy(state)
    z, labels = random_instance(rng, n, k)
    z = z.astype(dtype)
    x = (rng.normal(size=(n, d)) * 2.0).astype(dtype)
    taps = {"logits": z, "hidden_preact": x} if center else {"logits": z}

    report = dn.combined_objective(state, taps, labels)

    z64, x64 = z.astype(np.float64), x.astype(np.float64)
    total, dz = dn.softmax_cross_entropy(z64, labels)
    dx = None
    if batch and n > 1:
        loss, grad = dn.discriminant_criterion(z64, labels)
        total += weights["discriminant"] * loss
        dz = dz + weights["discriminant"] * grad
    if adaptive:
        loss, grad = dn.adaptive_discriminant(z64, labels, expected.neuron_stats)
        total += weights["adaptive_discriminant"] * loss
        dz = dz + weights["adaptive_discriminant"] * grad
    if center == "center":
        loss, grad = dn.center_loss(x64, labels, expected.center_bank)
        expected.center_bank.update_minibatch(x64, labels)
    elif center == "adaptive_center":
        loss, grad = dn.adaptive_center_loss(x64, labels, expected.center_bank)
    if center:
        total += weights[center] * loss
        dx = weights[center] * grad

    assert_same_bits(report.total, np.float64(total), "total")
    assert_same_bits(report.gradients["logits"], dz.astype(dtype), "logits")
    if center:
        assert_same_bits(report.gradients["hidden_preact"], dx.astype(dtype), "hidden_preact")
    else:
        assert "hidden_preact" not in report.gradients
    after, want = state.state_arrays(), expected.state_arrays()
    assert after.keys() == want.keys()
    for name in want:
        assert_same_bits(after[name], want[name], name)


def test_combined_unresolved_tap_point():
    state = dn.AuxState(dn.RunConfig(lambda_center=1.0, hidden_width=3), num_classes=2)
    z = np.zeros((2, 2))
    t = np.array([0, 1])
    with pytest.raises(KeyError):
        dn.combined_objective(state, {"logits": z}, t)


def test_combined_detects_non_finite_components():
    # NaN logits give a NaN cross-entropy, which the objective names.
    z = np.array([[np.nan, 0.0], [1.0, 0.0]])
    with pytest.raises(dn.NonFiniteError, match="cross_entropy"):
        dn.combined_objective(dn.AuxState(dn.RunConfig(), 2), {"logits": z}, np.array([0, 1]))


def test_loss_report_csv_row():
    report = dn.LossReport(
        total=1.5,
        components={"cross_entropy": 1.0, "adaptive_center": 0.5},
        gradients={},
    )
    row = report.csv_row(7)
    cells = row.split(",")
    assert cells[0] == "7"
    assert cells[1] == repr(1.5)
    assert cells[2] == repr(1.0)   # L_S
    assert cells[3] == ""          # L_D absent
    assert cells[4] == ""          # L_AD absent
    assert cells[5] == ""          # L_C absent
    assert cells[6] == repr(0.5)   # L_AC
    assert dn.losses.CSV_COLUMNS == ("step", "total", "L_S", "L_D", "L_AD", "L_C", "L_AC")


def test_objective_config_validation():
    for bad in (
        {"lambda_center": -1.0},
        {"lambda_adaptive_discriminant": -0.5},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"lambda_center": 1.0, "lambda_adaptive_center": 1.0},
    ):
        with pytest.raises(dn.ConfigError):
            dn.RunConfig(**bad).validate()
    with pytest.raises(dn.ConfigError):
        dn.AuxState(dn.RunConfig(lambda_center=1.0, lambda_adaptive_center=1.0), 2)
    with pytest.raises(dn.ConfigError):
        dn.AuxState(dn.RunConfig(alpha=1.5), 2)


def test_aux_state_keeps_its_own_copy_of_the_config():
    # Editing the caller's config after building the state moves neither
    # the weights the next step uses nor the accumulators it advances.
    rng = dn.seeded_rng(19)
    n, k, d = 6, 3, 4
    z, t = random_instance(rng, n, k)
    taps = {"logits": z, "hidden_preact": rng.normal(size=(n, d))}
    settings = dict(lambda_discriminant=0.1, lambda_adaptive_discriminant=0.01,
                    lambda_center=0.5, alpha=0.9, hidden_width=d)
    cfg = dn.RunConfig(**settings)
    state = dn.AuxState(cfg, k)
    reference = dn.AuxState(dn.RunConfig(**settings), k)
    cfg.lambda_discriminant, cfg.lambda_adaptive_discriminant = 0.0, 1.0
    cfg.lambda_center, cfg.lambda_adaptive_center = 0.0, 2.0
    cfg.alpha, cfg.hidden_width = 0.5, d + 1
    report = dn.combined_objective(state, taps, t)
    expected = dn.combined_objective(reference, taps, t)
    assert state.cfg == dn.RunConfig(**settings)
    assert report.total == expected.total
    assert report.components == expected.components
    for tap in ("logits", "hidden_preact"):
        assert_array_equal(report.gradients[tap], expected.gradients[tap])
    arrays = state.state_arrays()
    assert arrays.keys() == reference.state_arrays().keys()
    for name, value in reference.state_arrays().items():
        assert_array_equal(arrays[name], value, err_msg=name)


def test_combined_report_flags_absent_classes():
    z = np.array([[1.0, 0.0, 2.0], [0.5, 1.0, -1.0], [2.0, 0.3, 0.1]])
    t = np.array([0, 0, 1])  # class 2 absent
    cfg = dn.RunConfig(lambda_discriminant=0.1)
    report = dn.combined_objective(dn.AuxState(cfg, 3), {"logits": z}, t)
    assert any("class 2" in note for note in report.notes)


def test_combined_skips_batch_discriminant_for_one_sample():
    z = np.array([[1.0, 0.0, 2.0]])
    t = np.array([1])
    cfg = dn.RunConfig(lambda_discriminant=0.1)
    report = dn.combined_objective(dn.AuxState(cfg, 3), {"logits": z}, t)
    assert "discriminant" not in report.components
    assert any("batch of 1" in note for note in report.notes)
    _, dz_ce = dn.softmax_cross_entropy(z, t)
    assert_array_equal(report.gradients["logits"], dz_ce)
    with pytest.raises(ValueError, match="at least 2"):
        dn.discriminant_criterion(z, t)  # direct callers still get the error
