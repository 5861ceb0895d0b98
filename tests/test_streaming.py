import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import discrimnet as dn
from discrimnet.streaming import masked_weighted_mean_direct, weighted_moments_direct

ALPHAS = (0.5, 0.9, 0.99)


def feed(pairs, alpha):
    # One neuron: mu_total is the plain mean, mu the mean gated by t, mu_hat
    # the mean gated by 1 - t, and var_total the moment-form variance.
    stats = dn.NeuronClassStats(1, alpha)
    for z, t in pairs:
        stats.update([z], [t])
    return stats


def within_variance_unrolled(pairs, alpha):
    # Decayed sum of per-step deviation terms, with the two gated means
    # recomputed by their own scalar recurrences.
    mu = mu_hat = 0.0
    devs = []
    for z, t in pairs:
        devs.append(t * (z - mu) ** 2 + (1 - t) * (z - mu_hat) ** 2)
        mu = alpha * mu + (1 - alpha) * t * z
        mu_hat = alpha * mu_hat + (1 - alpha) * (1 - t) * z
    n = len(devs)
    return sum(alpha ** (n - m) * alpha * (1 - alpha) * d for m, d in enumerate(devs, start=1))


# --- the direct-summation oracles themselves -------------------------------

def test_oracle_empty_history_is_zero():
    assert weighted_moments_direct([], 0.5) == (0.0, 0.0)
    assert masked_weighted_mean_direct([], 0.5) == 0.0


def test_oracle_single_example():
    e, v = weighted_moments_direct([1.0, 2.0, 3.0], 0.5)
    assert e == 0.5 * (0.25 * 1 + 0.5 * 2 + 1 * 3)  # == 2.125
    assert e == 2.125


def test_oracle_append_equals_recurrence():
    rng = dn.Rng(1)
    for _ in range(50):
        history = list(rng.uniform(-10, 10, int(rng.integers(0, 30))))
        z = float(rng.uniform(-10, 10))
        e_old, _ = weighted_moments_direct(history, 0.5)
        e_new, _ = weighted_moments_direct(history + [z], 0.5)
        assert_allclose(e_new, 0.5 * e_old + 0.5 * z, rtol=1e-12)


def test_geometric_sum_identity():
    alpha = 0.99
    s = np.cumsum(alpha ** np.arange(10**4 + 1))[-1]
    assert abs(s - 1.0 / (1.0 - alpha)) / (1.0 / (1.0 - alpha)) < 1e-12


# --- running mean -----------------------------------------------------------

def test_mean_update_from_zero_prior():
    stats = dn.NeuronClassStats(1, 0.99)
    assert stats.mu_total[0] == 0.0
    stats.update([1.0], [1.0])
    assert stats.mu_total[0] == (1.0 - 0.99) * 1.0


def test_mean_update_sequence_closed_form():
    assert feed([(1.0, 1), (2.0, 0), (3.0, 1)], 0.5).mu_total[0] == 2.125


def test_mean_update_converges_to_constant():
    stats = feed([(4.25, 1)] * 200, 0.9)
    assert abs(stats.mu_total[0] - 4.25) < 1e-8


def test_mean_update_rejects_non_finite():
    with pytest.raises(dn.NonFiniteError):
        dn.NeuronClassStats(1, 0.5).update([np.nan], [1.0])


def test_alpha_bounds_enforced():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            dn.NeuronClassStats(1, bad)


# --- gated (masked) means ---------------------------------------------------

def test_masked_update_active_sample():
    stats = feed([(4.0, 1)], 0.5)
    assert stats.mu[0] == 2.0
    assert stats.mu_hat[0] == 0.0


def test_masked_update_gated_out_sample_decays_state():
    stats = dn.NeuronClassStats(1, 0.5)
    stats.mu[0] = 2.0
    stats.update([99.0], [0.0])
    assert stats.mu[0] == 1.0
    assert stats.mu_hat[0] == 49.5


def test_masked_update_sequence_closed_form():
    # 0.5 * (0.25*1 + 0 + 1*3) = 1.625; the complement gate gives 0.5 * (0.5*5) = 1.25
    pairs = [(1, 1), (5, 0), (3, 1)]
    stats = feed(pairs, 0.5)
    assert stats.mu[0] == 1.625
    assert masked_weighted_mean_direct(pairs, 0.5) == 1.625
    assert stats.mu_hat[0] == 1.25
    assert masked_weighted_mean_direct([(z, 1 - t) for z, t in pairs], 0.5) == 1.25


# --- total variance ---------------------------------------------------------

def test_total_variance_first_step():
    stats = feed([(1.0, 1)], 0.5)
    assert stats.var_total[0] == 0.25  # a*(1-a)*(1-0)^2


def test_total_variance_two_equal_samples():
    stats = feed([(1.0, 1), (1.0, 0)], 0.5)
    assert stats.var_total[0] == 0.1875
    e, v = weighted_moments_direct([1.0, 1.0], 0.5)
    assert_allclose(v, 0.1875, rtol=1e-15)


def test_constant_stream_variance_decays_to_zero():
    # Closed form for a constant c from the zero prior: var_n = c^2 * a^n (1 - a^n),
    # monotone decreasing once a^n <= 1/2 (from step 1 when a = 0.5).
    stats = feed([(3.0, 1)], 0.5)
    prev = stats.var_total[0]
    for n in range(2, 40):
        stats.update([3.0], [1.0])
        assert stats.var_total[0] == pytest.approx(9.0 * 0.5**n * (1 - 0.5**n), rel=1e-12)
        assert stats.var_total[0] < prev
        prev = stats.var_total[0]
    assert prev < 1e-8

    slow = dn.NeuronClassStats(1, 0.9)
    values = []
    for _ in range(300):
        slow.update([3.0], [1.0])
        values.append(slow.var_total[0])
    peak = int(np.argmax(values))
    assert all(b < a for a, b in zip(values[peak:], values[peak + 1 :]))
    assert values[-1] < 1e-8


# --- per-neuron labeled statistics ------------------------------------------

def test_within_variance_zero_prior():
    stats = dn.NeuronClassStats(1, 0.5)
    stats.update([2.0], [1.0])
    assert stats.var_within[0] == 1.0  # 0.5*0.5*(2-0)^2


def test_within_variance_second_step_uses_pre_update_mean():
    stats = dn.NeuronClassStats(1, 0.5)
    stats.update([2.0], [1.0])
    assert stats.mu[0] == 1.0
    stats.update([2.0], [1.0])
    assert stats.var_within[0] == 0.75  # 0.5*1.0 + 0.25*(2-1)^2


def test_matching_mean_stream_decays_by_alpha_exactly():
    alpha = 0.5
    stats = dn.NeuronClassStats(1, alpha)
    seed_pairs = [(3.0, 1.0), (-1.0, 0.0), (2.0, 1.0)]
    for z, t in seed_pairs:
        stats.update([z], [t])
    expect_target = True
    for _ in range(6):
        before = stats.var_within[0]
        if expect_target:
            stats.update([stats.mu[0]], [1.0])
        else:
            stats.update([stats.mu_hat[0]], [0.0])
        assert stats.var_within[0] == alpha * before
        expect_target = not expect_target


def test_neuron_stats_all_share_one_alpha_and_validate_rows():
    stats = dn.NeuronClassStats(3, 0.9)
    with pytest.raises(ValueError):
        stats.update([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(dn.NonFiniteError):
        stats.update([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0])


# --- centroid bank ----------------------------------------------------------

def test_adaptive_center_single_step():
    bank = dn.CenterBank(2, 2, alpha=0.99)
    bank.update_sample([1.0, 1.0], 0)
    assert_array_equal(bank.centers[0], (1.0 - 0.99) * np.ones(2))
    assert_array_equal(bank.centers[1], np.zeros(2))


def test_adaptive_center_fixed_point():
    bank = dn.CenterBank(1, 2, alpha=0.5)
    bank.centers = np.array([[0.25, -1.5]])
    bank.update_sample([0.25, -1.5], 0)
    assert_array_equal(bank.centers[0], [0.25, -1.5])


def test_adaptive_center_sequence_matches_componentwise_closed_form():
    bank = dn.CenterBank(1, 2, alpha=0.5)
    bank.update_sample([2.0, 0.0], 0)
    bank.update_sample([0.0, 2.0], 0)
    # per component: (1-a) * sum(a^(n-i) x_i) = (0.5*(0.5*2), 0.5*(1*2))
    want = np.array(
        [
            masked_weighted_mean_direct([(2.0, 1), (0.0, 1)], 0.5),
            masked_weighted_mean_direct([(0.0, 1), (2.0, 1)], 0.5),
        ]
    )
    assert_array_equal(bank.centers[0], want)
    assert_array_equal(bank.centers[0], [0.5, 1.0])


def test_minibatch_center_single_member():
    bank = dn.CenterBank(2, 2, beta=1.0)
    bank.centers = np.array([[1.0, 1.0], [0.0, 0.0]])
    bank.update_minibatch([[0.0, 0.0]], [[1.0, 0.0]])
    assert_array_equal(bank.centers[0], [0.5, 0.5])


def test_minibatch_center_symmetric_pair_is_stationary():
    bank = dn.CenterBank(1, 2, beta=1.0)
    bank.centers = np.array([[2.0, -1.0]])
    feats = [[3.0, -1.0], [1.0, -1.0]]  # symmetric about the center
    bank.update_minibatch(feats, [[1.0], [1.0]])
    assert_array_equal(bank.centers[0], [2.0, -1.0])


def test_minibatch_center_absent_class_unchanged():
    bank = dn.CenterBank(2, 2, beta=0.7)
    bank.centers = np.array([[1.0, 2.0], [3.0, 4.0]])
    bank.update_minibatch([[5.0, 5.0]], [[1.0, 0.0]])
    assert_array_equal(bank.centers[1], [3.0, 4.0])


def test_bank_validation():
    with pytest.raises(ValueError):
        dn.CenterBank(2, 3, beta=1.5)
    with pytest.raises(ValueError):
        dn.CenterBank(2, 3, alpha=1.0)
    bank = dn.CenterBank(2, 3)
    with pytest.raises(ValueError):
        bank.update_sample([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        bank.update_sample([1.0, 2.0, 3.0], 2)
    with pytest.raises(ValueError):
        bank.update_minibatch([[1.0, 2.0, 3.0]], [[1.0, 0.0, 0.0]])


# --- recurrence/closed-form equivalence sweeps ------------------------------

def test_recurrence_matches_closed_forms_over_random_sequences():
    rng = dn.Rng(123)
    for trial in range(300):
        alpha = ALPHAS[trial % len(ALPHAS)]
        n = int(rng.integers(1, 65))
        z = rng.uniform(-10, 10, n)
        t = (rng.uniform(0, 1, n) < 0.5).astype(float)

        pairs = list(zip(z, t))
        stats = feed(pairs, alpha)

        e_direct, v_direct = weighted_moments_direct(z, alpha)
        m_direct = masked_weighted_mean_direct(pairs, alpha)
        m_hat_direct = masked_weighted_mean_direct(zip(z, 1 - t), alpha)
        w_unrolled = within_variance_unrolled(pairs, alpha)
        for got, want in (
            (stats.mu_total[0], e_direct),
            (stats.var_total[0], v_direct),
            (stats.mu[0], m_direct),
            (stats.mu_hat[0], m_hat_direct),
            (stats.var_within[0], w_unrolled),
        ):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_variances_never_go_negative():
    rng = dn.Rng(321)
    for alpha in ALPHAS:
        stats = dn.NeuronClassStats(4, alpha)
        for _ in range(200):
            z = rng.uniform(-50, 50, 4)
            t = np.zeros(4)
            t[int(rng.integers(0, 4))] = 1.0
            stats.update(z, t)
            assert np.all(stats.var_within >= 0)
            assert np.all(stats.var_total >= 0)


# --- snapshot / restore -----------------------------------------------------

def test_state_round_trip_through_bundle(tmp_path):
    stats = dn.NeuronClassStats(3, 0.9)
    rng = dn.Rng(5)
    for _ in range(20):
        t = np.zeros(3)
        t[int(rng.integers(0, 3))] = 1.0
        stats.update(rng.normal(3), t)
    bank = dn.CenterBank(3, 4, alpha=0.9)
    for _ in range(10):
        bank.update_sample(rng.normal(4), int(rng.integers(0, 3)))

    path = tmp_path / "state.bin"
    arrays = {f"s.{k}": v for k, v in stats.state_arrays().items()}
    arrays.update({f"b.{k}": v for k, v in bank.state_arrays().items()})
    dn.save_bundle(path, {}, arrays)
    _, loaded = dn.load_bundle(path)

    stats2 = dn.NeuronClassStats(3, 0.9)
    dn.restore_arrays(stats2.state_arrays(), loaded, prefix="s.")
    bank2 = dn.CenterBank(3, 4, alpha=0.9)
    dn.restore_arrays(bank2.state_arrays(), loaded, prefix="b.")

    assert_array_equal(stats2.var_within, stats.var_within)
    assert_array_equal(stats2.mu_hat, stats.mu_hat)
    assert stats2.steps == stats.steps
    assert_array_equal(bank2.centers, bank.centers)

    z = rng.normal(3)
    stats.update(z, [1.0, 0.0, 0.0])
    stats2.update(z, [1.0, 0.0, 0.0])
    assert_array_equal(stats2.var_total, stats.var_total)
