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
    z = rng.normal((n, k)) * 2.0
    labels = rng.integers(0, k, n)
    return z, onehot(labels, k)


# --- softmax ----------------------------------------------------------------

def test_softmax_symmetry():
    assert_allclose(dn.softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])


def test_softmax_huge_logits_do_not_overflow():
    y = dn.softmax(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(y))
    assert y[0, 0] == pytest.approx(1.0)
    assert y[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_shift_invariance_and_row_sums():
    rng = dn.Rng(2)
    z = rng.normal((16, 5)) * 3.0
    c = 7.3
    assert np.abs(dn.softmax(z + c) - dn.softmax(z)).max() < 1e-12
    assert np.abs(dn.softmax(z).sum(axis=1) - 1.0).max() < 1e-12


# --- softmax cross-entropy ----------------------------------------------------

def test_cross_entropy_uniform_fixture():
    loss, dz = dn.softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert loss == pytest.approx(np.log(2.0), rel=1e-14)
    assert_allclose(dz, [[-0.5, 0.5]])


def test_cross_entropy_confident_prediction_vanishes():
    z = np.array([[30.0, 0.0, 0.0]])
    t = np.array([[1.0, 0.0, 0.0]])
    loss, _ = dn.softmax_cross_entropy(z, t)
    assert loss < 1e-12


def test_cross_entropy_sum_vs_mean():
    rng = dn.Rng(3)
    z, t = random_instance(rng, 6, 4)
    loss_sum, dz_sum = dn.softmax_cross_entropy(z, t, reduction="sum")
    loss_mean, dz_mean = dn.softmax_cross_entropy(z, t, reduction="mean")
    assert loss_mean == pytest.approx(loss_sum / 6.0, rel=1e-14)
    assert_allclose(dz_mean, dz_sum / 6.0, rtol=1e-14)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = dn.Rng(4)
    z, t = random_instance(rng, 8, 4)
    _, dz = dn.softmax_cross_entropy(z, t)
    fd = finite_difference(lambda zz: dn.softmax_cross_entropy(zz, t)[0], z)
    assert rel_error(dz, fd) < 1e-6


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        dn.softmax_cross_entropy(np.zeros((2, 3)), np.array([[1.0, 1.0, 0.0]] * 2))


# --- batch discriminant criterion ---------------------------------------------

def test_discriminant_hand_fixture():
    # neuron 0: target values {2, 4}, non-target {0, 0}; neuron 1 is
    # constant, so its guarded ratio is exactly 0 and the loss is the
    # neuron-0 ratio alone: 0.5 / 2.75 = 2/11.
    z = np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    t = onehot([0, 0, 1, 1], 2)
    loss, _ = dn.discriminant_criterion(z, t)
    assert abs(loss - 2.0 / 11.0) < 1e-12


def test_discriminant_zero_within_scatter_is_minimum():
    # all targets equal, all non-targets equal (per neuron) -> within = 0
    z = np.array([[3.0, -1.0], [3.0, -1.0], [-1.0, 3.0], [-1.0, 3.0]])
    t = onehot([0, 0, 1, 1], 2)
    loss, dz = dn.discriminant_criterion(z, t)
    assert loss == 0.0


def test_discriminant_degenerate_constant_neuron():
    z = np.full((4, 2), 5.0)
    t = onehot([0, 0, 1, 1], 2)
    loss, dz = dn.discriminant_criterion(z, t)
    assert loss == 0.0
    assert_array_equal(dz, np.zeros_like(z))


def test_discriminant_needs_two_samples():
    with pytest.raises(ValueError):
        dn.discriminant_criterion(np.zeros((1, 2)), onehot([0], 2))


def test_discriminant_absent_class_contributes_nothing_and_is_flagged():
    z = np.array([[1.0, 0.5, 2.0], [2.0, -0.5, 1.0], [0.0, 0.25, -1.0]])
    t = onehot([0, 0, 1], 3)  # class 2 absent
    loss, dz = dn.discriminant_criterion(z, t)
    assert np.isfinite(loss) and np.all(np.isfinite(dz))
    flags = dn.losses.absent_class_sides(t)
    assert any("class 2" in f for f in flags)


def test_discriminant_gradient_matches_finite_differences():
    rng = dn.Rng(6)
    for n, k in [(6, 3), (8, 4), (5, 2)]:
        z, t = random_instance(rng, n, k)
        _, dz = dn.discriminant_criterion(z, t)
        fd = finite_difference(lambda zz: dn.discriminant_criterion(zz, t)[0], z)
        assert rel_error(dz, fd) < 1e-6


def test_discriminant_loss_ratios_bounded_below():
    rng = dn.Rng(7)
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


def run_adaptive(z, t, alpha, warm=None):
    stats = dn.NeuronClassStats(z.shape[1], alpha)
    if warm is not None:
        for zr, tr in warm:
            stats.update(zr, tr)
    pre = copy.deepcopy(stats)
    loss, dz = dn.adaptive_discriminant(z, t, stats)
    return loss, dz, pre, stats


def capture_surrogate(z, t, pre_stats):
    stats = copy.deepcopy(pre_stats)
    n, k = z.shape
    mu_pre = np.empty_like(z)
    mu_hat_pre = np.empty_like(z)
    mu_total_pre = np.empty_like(z)
    for i in range(n):
        mu_pre[i] = stats.mu
        mu_hat_pre[i] = stats.mu_hat
        mu_total_pre[i] = stats.mu_total
        stats.update(z[i], t[i])
    denom = np.maximum(stats.var_total, 1e-8)
    return mu_pre, mu_hat_pre, mu_total_pre, stats.var_within, denom


def test_adaptive_discriminant_single_sample_matches_recurrences():
    z = np.array([[2.0, -1.0]])
    t = np.array([[1.0, 0.0]])
    loss, dz, _, stats = run_adaptive(z, t, alpha=0.5)
    # one-step values: var_w = a(1-a) z^2 with zero prior (same for var_t)
    assert_allclose(stats.var_within, [1.0, 0.25])
    assert_allclose(stats.var_total, [1.0, 0.25])
    assert loss == pytest.approx(2.0, rel=1e-12)


def test_adaptive_discriminant_gradient_matches_frozen_surrogate_fd():
    rng = dn.Rng(8)
    warm = [(rng.normal(3), onehot([int(rng.integers(0, 3))], 3)[0]) for _ in range(12)]
    z, t = random_instance(rng, 8, 3)
    loss, dz, pre, _ = run_adaptive(z, t, alpha=0.9, warm=warm)
    frozen = capture_surrogate(z, t, pre)

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
    t = onehot([0, 1], 2)
    losses = []
    for _ in range(400):
        loss, _ = dn.adaptive_discriminant(z.copy(), t, stats)
        losses.append(loss)
    assert losses[0] > 1.5  # zero-prior transient starts near ratio 1 per neuron
    assert losses[-1] < 0.6
    assert losses[-1] < losses[5]

    rng = dn.Rng(77)
    noise_stats = dn.NeuronClassStats(2, 0.9)
    for _ in range(400):
        zz = rng.normal((2, 2))
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
    t = np.array([[1.0], [1.0]])
    loss, dx = dn.center_loss(x, t, bank)
    assert loss == 1.0
    assert_array_equal(dx, [[-1.0, 0.0], [1.0, 0.0]])
    assert_array_equal(bank.centers, [[2.0, 0.0]])  # untouched


def test_center_loss_zero_at_centers():
    bank = make_bank([[1.0, 2.0], [-1.0, 0.0]])
    x = np.array([[1.0, 2.0], [-1.0, 0.0]])
    t = onehot([0, 1], 2)
    loss, dx = dn.center_loss(x, t, bank)
    assert loss == 0.0
    assert_array_equal(dx, np.zeros_like(x))


def test_center_loss_gradient_matches_finite_differences():
    rng = dn.Rng(11)
    bank = make_bank(rng.normal((4, 6)))
    x = rng.normal((8, 6))
    t = onehot(rng.integers(0, 4, 8), 4)
    _, dx = dn.center_loss(x, t, bank)
    fd = finite_difference(lambda xx: dn.center_loss(xx, t, bank)[0], x)
    assert rel_error(dx, fd) < 1e-6


def test_center_loss_translation_covariance():
    rng = dn.Rng(12)
    bank = make_bank(rng.normal((3, 4)))
    x = rng.normal((6, 4))
    t = onehot(rng.integers(0, 3, 6), 3)
    shift = np.array([0.3, -1.2, 4.0, 0.01])
    loss1, dx1 = dn.center_loss(x, t, bank)
    bank2 = make_bank(bank.centers + shift)
    loss2, dx2 = dn.center_loss(x + shift, t, bank2)
    assert loss2 == pytest.approx(loss1, rel=1e-12, abs=1e-12)
    assert np.abs(dx1 - dx2).max() < 1e-12


def test_center_loss_dimension_mismatch():
    bank = make_bank([[0.0, 0.0]])
    with pytest.raises(ValueError):
        dn.center_loss(np.zeros((2, 3)), np.ones((2, 1)), bank)


# --- adaptive center loss ---------------------------------------------------------

def test_adaptive_center_fresh_bank_fixture():
    bank = dn.CenterBank(2, 2, alpha=0.5)
    x = np.array([[2.0, 2.0]])
    t = np.array([[1.0, 0.0]])
    loss, dx = dn.adaptive_center_loss(x, t, bank)
    assert_array_equal(bank.centers[0], [1.0, 1.0])
    assert loss == 2.0  # squared distance (2,2) -> (1,1)
    assert_array_equal(dx, [[2.0, 2.0]])


def test_adaptive_center_near_one_alpha_approaches_plain_center_loss():
    rng = dn.Rng(13)
    centers = rng.normal((3, 4))
    x = rng.normal((6, 4))
    t = onehot(rng.integers(0, 3, 6), 3)
    bank = dn.CenterBank(3, 4, alpha=1 - 1e-9)
    bank.centers = centers.copy()
    loss_a, dx_a = dn.adaptive_center_loss(x, t, bank)
    loss_c, dx_c = dn.center_loss(x, t, make_bank(centers))
    assert loss_a == pytest.approx(loss_c, rel=1e-6)
    assert rel_error(dx_a, dx_c) < 1e-6


def test_adaptive_center_gradient_matches_frozen_center_fd():
    rng = dn.Rng(14)
    bank = dn.CenterBank(3, 5, alpha=0.9)
    bank.centers = rng.normal((3, 5))
    x = rng.normal((7, 5))
    t = onehot(rng.integers(0, 3, 7), 3)
    before = bank.centers.copy()
    loss, dx = dn.adaptive_center_loss(x, t, bank)
    frozen = bank.centers.copy()  # post-update centers

    def surrogate(xx):
        diff = xx - t @ frozen
        return float((diff**2).sum() / len(xx))

    fd = finite_difference(surrogate, x)
    assert rel_error(dx, fd) < 1e-6
    assert np.any(before != bank.centers)


def test_batch_loss_permutation_equivariance():
    rng = dn.Rng(15)
    z, t = random_instance(rng, 9, 3)
    perm = rng.permutation(9)
    for fn in (
        lambda zz, tt: dn.softmax_cross_entropy(zz, tt),
        lambda zz, tt: dn.discriminant_criterion(zz, tt),
        lambda zz, tt: dn.center_loss(zz, tt, make_bank(rng.normal((3, 3)) * 0 + 0.5)),
    ):
        loss1, g1 = fn(z, t)
        loss2, g2 = fn(z[perm], t[perm])
        assert loss2 == pytest.approx(loss1, rel=1e-12)
        assert np.abs(g2 - g1[perm]).max() < 1e-12


# --- combined objective -----------------------------------------------------------

def test_combined_all_weights_zero_is_pure_cross_entropy():
    rng = dn.Rng(16)
    z, t = random_instance(rng, 5, 3)
    cfg = dn.RunConfig()
    report = dn.combined_objective(cfg, {"logits": z}, t, state=None)
    ls, dz = dn.softmax_cross_entropy(z, t)
    assert report.total == ls
    assert_array_equal(report.gradients["logits"], dz)
    assert set(report.components) == {"cross_entropy"}


def test_combined_published_mnist_setting_and_component_sum():
    rng = dn.Rng(17)
    n, k, d = 6, 4, 5
    z, t = random_instance(rng, n, k)
    x = rng.normal((n, d))
    cfg = dn.RunConfig(
        lambda_adaptive_discriminant=0.001,
        lambda_adaptive_center=1.0,
        alpha=0.99,
    )
    state = dn.AuxState(cfg, num_classes=k, feature_dim=d)
    report = dn.combined_objective(cfg, {"logits": z, "hidden_preact": x}, t, state=state)
    recomputed = (
        report.components["cross_entropy"]
        + 0.001 * report.components["adaptive_discriminant"]
        + 1.0 * report.components["adaptive_center"]
    )
    assert abs(report.total - recomputed) < 1e-12
    assert report.gradients["hidden_preact"].shape == x.shape


def test_combined_gradients_are_weighted_sums():
    rng = dn.Rng(18)
    n, k = 7, 3
    z, t = random_instance(rng, n, k)
    lam = 0.25
    cfg = dn.RunConfig(lambda_discriminant=lam)
    report = dn.combined_objective(cfg, {"logits": z}, t, state=None)
    _, dz_ce = dn.softmax_cross_entropy(z, t)
    _, dz_d = dn.discriminant_criterion(z, t)
    assert_allclose(report.gradients["logits"], dz_ce + lam * dz_d, rtol=1e-14)


def test_combined_unresolved_tap_point():
    cfg = dn.RunConfig(lambda_center=1.0)
    state = dn.AuxState(cfg, num_classes=2, feature_dim=3)
    z = np.zeros((2, 2))
    t = onehot([0, 1], 2)
    with pytest.raises(KeyError):
        dn.combined_objective(cfg, {"logits": z}, t, state=state)


def test_combined_detects_non_finite_components():
    # cooked state: negative epsilon is rejected before anything runs
    with pytest.raises(dn.ConfigError):
        dn.RunConfig(epsilon=0.0).validate()


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
        {"beta": -0.1},
        {"beta": 2.0},
        {"epsilon": -1e-8},
        {"ce_reduction": "median"},
        {"lambda_center": 1.0, "lambda_adaptive_center": 1.0},
    ):
        with pytest.raises(dn.ConfigError):
            dn.RunConfig(**bad).validate()
    with pytest.raises(dn.ConfigError):
        dn.AuxState(dn.RunConfig(lambda_center=1.0, lambda_adaptive_center=1.0), 2, 3)
    with pytest.raises(dn.ConfigError):
        dn.combined_objective(dn.RunConfig(alpha=1.5), {"logits": np.zeros((2, 2))},
                              onehot([0, 1], 2))


def test_combined_report_flags_absent_classes():
    z = np.array([[1.0, 0.0, 2.0], [0.5, 1.0, -1.0], [2.0, 0.3, 0.1]])
    t = onehot([0, 0, 1], 3)  # class 2 absent
    cfg = dn.RunConfig(lambda_discriminant=0.1)
    report = dn.combined_objective(cfg, {"logits": z}, t, state=None)
    assert any("class 2" in note for note in report.notes)


def test_combined_skips_batch_discriminant_for_one_sample():
    z = np.array([[1.0, 0.0, 2.0]])
    t = onehot([1], 3)
    cfg = dn.RunConfig(lambda_discriminant=0.1)
    report = dn.combined_objective(cfg, {"logits": z}, t, state=None)
    assert "discriminant" not in report.components
    assert any("batch of 1" in note for note in report.notes)
    _, dz_ce = dn.softmax_cross_entropy(z, t)
    assert_array_equal(report.gradients["logits"], dz_ce)
    with pytest.raises(ValueError, match="at least 2"):
        dn.discriminant_criterion(z, t)  # direct callers still get the error
