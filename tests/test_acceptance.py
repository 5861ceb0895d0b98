"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 5 and 6 train real models on MNIST at desk scale and dominate
the runtime (tens of minutes); everything else finishes in seconds.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import copy
import functools
import os
import time

import numpy as np
import pytest

import discrimnet as dn
from discrimnet.cli import main as cli_main, separation_ratio_from_histogram
from discrimnet.config import apply_preset
from discrimnet.train import load_run_datasets
from conftest import finite_difference, rel_error


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL [{time.time() - start:.1f}s]")
                raise
            print(f"\nACCEPTANCE {number} ({name}): PASS [{time.time() - start:.1f}s]")
        return run
    return wrap


def onehot(labels, k):
    t = np.zeros((len(labels), k))
    t[np.arange(len(labels)), labels] = 1.0
    return t


# -----------------------------------------------------------------------------
# 1. Streaming-statistics oracle equivalence: 1,000 random sequences.
# -----------------------------------------------------------------------------

@criterion(1, "streaming oracle equivalence")
def test_1_streaming_oracle_equivalence():
    rng = dn.Rng(1000)
    alphas = (0.5, 0.9, 0.99)
    start = time.time()
    for trial in range(1000):
        alpha = alphas[trial % 3]
        n = int(rng.integers(1, 65))
        z = rng.uniform(-10, 10, n)
        t = (rng.uniform(0, 1, n) < 0.5).astype(float)

        mean_acc = dn.ForgettingMean(alpha)
        masked_acc = dn.ForgettingMean(alpha)
        mv = dn.ForgettingMeanVar(alpha)
        stats = dn.NeuronClassStats(1, alpha)
        for value, gate in zip(z, t):
            mean_acc.update(value)
            masked_acc.masked_update(value, gate)
            mv.update(value)
            stats.update([value], [gate])

        e_direct, v_direct = dn.weighted_moments_direct(z, alpha)
        m_direct = dn.masked_weighted_mean_direct(zip(z, t), alpha)

        mu = mu_hat = 0.0
        devs = []
        for value, gate in zip(z, t):
            devs.append(gate * (value - mu) ** 2 + (1 - gate) * (value - mu_hat) ** 2)
            mu = alpha * mu + (1 - alpha) * gate * value
            mu_hat = alpha * mu_hat + (1 - alpha) * (1 - gate) * value
        w_unrolled = sum(
            alpha ** (n - m) * alpha * (1 - alpha) * d for m, d in enumerate(devs, 1)
        )

        def close(a, b):
            return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

        assert close(mean_acc.value, e_direct), "total mean"
        assert close(masked_acc.value, m_direct), "masked mean"
        assert close(mv.var, v_direct), "total variance (moment form)"
        assert close(stats.var_within[0], w_unrolled), "within variance (unrolled)"
    assert time.time() - start < 5.0, "criterion 1 runtime budget"


# -----------------------------------------------------------------------------
# 2. Gradient verification on 50 random instances per loss.
# -----------------------------------------------------------------------------

def _random_case(rng):
    n = int(rng.integers(2, 9))       # N <= 8
    k = int(rng.integers(2, 5))       # K <= 4
    d = int(rng.integers(2, 7))       # D <= 6
    z = rng.normal((n, k)) * 2.0
    x = rng.normal((n, d)) * 2.0
    t = onehot(rng.integers(0, k, n), k)
    return z, x, t


@criterion(2, "gradient verification, 50 instances per loss")
def test_2_gradient_verification():
    rng = dn.Rng(2000)
    start = time.time()
    for _ in range(50):
        z, x, t = _random_case(rng)
        n, k = z.shape
        d = x.shape[1]

        _, dz = dn.softmax_cross_entropy(z, t)
        fd = finite_difference(lambda v: dn.softmax_cross_entropy(v, t)[0], z)
        assert rel_error(dz, fd) < 1e-4, "softmax cross-entropy"

        _, dz = dn.discriminant_criterion(z, t)
        fd = finite_difference(lambda v: dn.discriminant_criterion(v, t)[0], z)
        assert rel_error(dz, fd) < 1e-4, "batch discriminant"

        centers = rng.normal((k, d))
        bank = dn.CenterBank(k, d, beta=1.0)
        bank.centers = centers.copy()
        _, dx = dn.center_loss(x, t, bank)
        fd = finite_difference(lambda v: dn.center_loss(v, t, bank)[0], x)
        assert rel_error(dx, fd) < 1e-4, "center loss"

        # adaptive discriminant: finite differences of the frozen-statistics
        # surrogate (per-sample pre-update means, post-batch variances)
        alpha = 0.9
        warm_stats = dn.NeuronClassStats(k, alpha)
        for _ in range(5):
            warm_stats.update(rng.normal(k), onehot([int(rng.integers(0, k))], k)[0])
        stats_for_grad = copy.deepcopy(warm_stats)
        _, dz = dn.adaptive_discriminant(z, t, stats_for_grad)

        replay = copy.deepcopy(warm_stats)
        mu_pre = np.empty_like(z)
        mu_hat_pre = np.empty_like(z)
        mu_total_pre = np.empty_like(z)
        for i in range(n):
            mu_pre[i] = replay.mu
            mu_hat_pre[i] = replay.mu_hat
            mu_total_pre[i] = replay.mu_total
            replay.update(z[i], t[i])
        var_w = replay.var_within
        denom = np.maximum(replay.var_total, 1e-8)
        aa = alpha * (1 - alpha)

        def surrogate_ad(v):
            dev = t * (v - mu_pre) ** 2 + (1 - t) * (v - mu_hat_pre) ** 2
            return float(np.sum(aa * dev / denom
                                - (var_w / denom**2) * aa * (v - mu_total_pre) ** 2))

        fd = finite_difference(surrogate_ad, z)
        assert rel_error(dz, fd) < 1e-4, "adaptive discriminant (surrogate)"

        # adaptive center: finite differences against post-update centers
        abank = dn.CenterBank(k, d, alpha=alpha)
        abank.centers = centers.copy()
        _, dx = dn.adaptive_center_loss(x, t, abank)
        frozen = abank.centers.copy()

        def surrogate_ac(v):
            diff = v - t @ frozen
            return float((diff**2).sum() / n)

        fd = finite_difference(surrogate_ac, x)
        assert rel_error(dx, fd) < 1e-4, "adaptive center (surrogate)"
    assert time.time() - start < 30.0, "criterion 2 runtime budget"


# -----------------------------------------------------------------------------
# 3. Full-network gradient check with the combined objective.
# -----------------------------------------------------------------------------

@criterion(3, "full-network gradient check, combined objective")
def test_3_full_network_gradient_check():
    start = time.time()
    lam_ad, lam_ac = 0.001, 0.01
    cfg = dn.RunConfig(
        lambda_adaptive_discriminant=lam_ad,
        lambda_adaptive_center=lam_ac,
        alpha=0.9,
    )
    net = dn.build_architecture(
        "mnist_small", input_shape=(8, 8, 1), num_classes=3, rng=dn.Rng(30),
        conv_channels=(2, 2), fc1_width=16, hidden_width=8,
    )
    rng = dn.Rng(31)
    x = rng.normal((4, 8, 8, 1))
    t = onehot(rng.integers(0, 3, 4), 3)

    # warm the accumulators so denominators are healthy
    state = dn.AuxState(cfg, num_classes=3, feature_dim=8)
    taps0 = net.forward(rng.normal((6, 8, 8, 1)), train=True)
    dn.combined_objective(cfg, taps0, onehot(rng.integers(0, 3, 6), 3), state=state)

    # analytic pass: advance a copy of the state, capture frozen statistics
    state_for_grad = copy.deepcopy(state)
    taps = net.forward(x, train=True)
    report = dn.combined_objective(cfg, taps, t, state=state_for_grad)
    net.backward(report.gradients)
    analytic = {k: v.copy() for k, v in net.gradients().items()}

    replay = copy.deepcopy(state)
    z = taps["logits"]
    mu_pre = np.empty_like(z)
    mu_hat_pre = np.empty_like(z)
    mu_total_pre = np.empty_like(z)
    for i in range(4):
        mu_pre[i] = replay.neuron_stats.mu
        mu_hat_pre[i] = replay.neuron_stats.mu_hat
        mu_total_pre[i] = replay.neuron_stats.mu_total
        replay.neuron_stats.update(z[i], t[i])
    labels = t.argmax(axis=1)
    for i in range(4):
        replay.center_bank.update_sample(taps["hidden_preact"][i], labels[i])
    var_w = replay.neuron_stats.var_within
    denom = np.maximum(replay.neuron_stats.var_total, cfg.epsilon)
    frozen_centers = replay.center_bank.centers.copy()
    aa = cfg.alpha * (1 - cfg.alpha)

    def frozen_loss():
        taps_now = net.forward(x, train=True)
        zz = taps_now["logits"]
        hh = taps_now["hidden_preact"]
        ce, _ = dn.softmax_cross_entropy(zz, t)
        dev = t * (zz - mu_pre) ** 2 + (1 - t) * (zz - mu_hat_pre) ** 2
        ad = float(np.sum(aa * dev / denom
                          - (var_w / denom**2) * aa * (zz - mu_total_pre) ** 2))
        diff = hh - t @ frozen_centers
        ac = float((diff**2).sum() / len(hh))
        return ce + lam_ad * ad + lam_ac * ac

    checked = 0
    for name, param in net.parameters():
        def scalar(p, _param=param):
            _param[...] = p
            return frozen_loss()
        orig = param.copy()
        fd = finite_difference(scalar, orig.copy())
        param[...] = orig
        assert rel_error(analytic[name], fd) < 1e-3, name
        checked += param.size
    assert checked > 300
    assert time.time() - start < 120.0, "criterion 3 runtime budget"


# -----------------------------------------------------------------------------
# 4. Hand-computed loss values, exact to 1e-12.
# -----------------------------------------------------------------------------

@criterion(4, "hand-computed loss fixtures")
def test_4_hand_computed_values():
    # discriminant ratio 2/11 on the {2,4} target / {0,0} non-target fixture
    z = np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    t = onehot([0, 0, 1, 1], 2)
    loss, _ = dn.discriminant_criterion(z, t)
    assert abs(loss - 2.0 / 11.0) < 1e-12

    # center loss 1.0 on the two-point fixture
    bank = dn.CenterBank(1, 2, beta=1.0)
    bank.centers = np.array([[2.0, 0.0]])
    loss, dx = dn.center_loss(
        np.array([[1.0, 0.0], [3.0, 0.0]]), np.array([[1.0], [1.0]]), bank
    )
    assert abs(loss - 1.0) < 1e-12
    assert np.abs(dx - [[-1.0, 0.0], [1.0, 0.0]]).max() < 1e-12

    # minibatch center update lands on (0.5, 0.5)
    bank = dn.CenterBank(2, 2, beta=1.0)
    bank.centers = np.array([[1.0, 1.0], [0.0, 0.0]])
    bank.update_minibatch([[0.0, 0.0]], [[1.0, 0.0]])
    assert np.abs(bank.centers[0] - [0.5, 0.5]).max() < 1e-12


# -----------------------------------------------------------------------------
# 5 & 6. Desk-scale qualitative reproduction on MNIST.
# -----------------------------------------------------------------------------

DESK_SEEDS = (0, 1, 2)


def _train_desk(preset, seed, out_root, mnist_root, **overrides):
    cfg = apply_preset(preset)
    cfg.data_dir = mnist_root
    cfg.seed = seed
    cfg.out_dir = os.path.join(out_root, f"{preset}-s{seed}" + (
        "-" + "-".join(f"{k}{v}" for k, v in overrides.items()) if overrides else ""))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    run_dir = dn.run_training(cfg)
    return run_dir


def _final_metrics(run_dir):
    last = open(os.path.join(run_dir, "epochs.csv")).read().splitlines()[-1].split(",")
    return {"train_loss": float(last[2]), "train_acc": float(last[3]),
            "test_loss": float(last[4]), "test_acc": float(last[5])}


def _test_logit_ratio(run_dir):
    """Output-layer discriminant ratio sum over the run's test subset."""
    net, cfg, _ = dn.load_checkpoint(os.path.join(run_dir, "final.ckpt"))
    _, test = load_run_datasets(cfg)
    z = net.predict(test.images, 250)["logits"]
    loss, _ = dn.discriminant_criterion(z, onehot(test.labels, test.num_classes))
    return loss


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory, mnist_root):
    out_root = str(tmp_path_factory.mktemp("desk"))
    runs = {}
    for preset in ("mnist-baseline-desk", "mnist-combined-desk"):
        for seed in DESK_SEEDS:
            t0 = time.time()
            runs[(preset, seed)] = _train_desk(preset, seed, out_root, mnist_root)
            print(f"\n[desk] {preset} seed {seed}: {time.time() - t0:.0f}s "
                  f"{_final_metrics(runs[(preset, seed)])}")
    return runs


@criterion(5, "desk-scale accuracy and separation vs baseline, 3 seeds")
def test_5_desk_scale_reproduction(desk_runs):
    base_accs, comb_accs, base_ratios, comb_ratios = [], [], [], []
    for seed in DESK_SEEDS:
        base = desk_runs[("mnist-baseline-desk", seed)]
        comb = desk_runs[("mnist-combined-desk", seed)]
        base_accs.append(_final_metrics(base)["test_acc"])
        comb_accs.append(_final_metrics(comb)["test_acc"])
        base_ratios.append(_test_logit_ratio(base))
        comb_ratios.append(_test_logit_ratio(comb))
    print(f"\n[desk] baseline accs {base_accs} mean {np.mean(base_accs):.4f}")
    print(f"[desk] combined accs {comb_accs} mean {np.mean(comb_accs):.4f}")
    print(f"[desk] baseline test ratios {base_ratios}")
    print(f"[desk] combined test ratios {comb_ratios}")
    assert np.mean(comb_accs) >= np.mean(base_accs) - 0.001
    assert np.mean(comb_ratios) < np.mean(base_ratios)


@criterion(6, "histogram and scatter export qualitative reproduction")
def test_6_export_reproduction(desk_runs, tmp_path_factory, mnist_root):
    out = tmp_path_factory.mktemp("exports")

    # Fig.-2-style neuron histograms: combined model separates better
    ratios = {}
    for preset in ("mnist-baseline-desk", "mnist-combined-desk"):
        ckpt = os.path.join(desk_runs[(preset, 0)], "final.ckpt")
        per_neuron = []
        for k in range(10):
            path = str(out / f"{preset}-n{k}.csv")
            code = cli_main(["export-histogram", "--ckpt", ckpt, "--neuron", str(k),
                             "--out", path, "--split", "train"])
            assert code == 0
            rows = open(path).read().splitlines()
            assert len(rows) == 1 + 10000  # one row per training-subset sample
            per_neuron.append(separation_ratio_from_histogram(path))
        ratios[preset] = float(np.mean(per_neuron))
        print(f"\n[export] {preset} mean per-neuron histogram ratio {ratios[preset]:.4f}")
    assert ratios["mnist-combined-desk"] < ratios["mnist-baseline-desk"]

    # Fig.-3-style 2-D scatter: adaptive center compacts classes
    scatter_root = str(out / "scatter")
    spreads = {}
    for preset in ("mnist-baseline-desk", "mnist-adaptive-center-desk"):
        run_dir = _train_desk(preset, 0, scatter_root, mnist_root,
                              hidden_width=2, train_subset=6000, epochs=8)
        ckpt = os.path.join(run_dir, "final.ckpt")
        path = str(out / f"{preset}-scatter.csv")
        means_path = str(out / f"{preset}-means.csv")
        code = cli_main(["export-scatter", "--ckpt", ckpt, "--out", path,
                         "--means-out", means_path, "--split", "train"])
        assert code == 0
        rows = open(path).read().splitlines()[1:]
        pts = np.array([[float(v) for v in r.split(",")[:2]] for r in rows])
        labels = np.array([int(r.split(",")[2]) for r in rows])
        means_rows = open(means_path).read().splitlines()[1:]
        assert len(means_rows) == 10
        dists = []
        for row in means_rows:
            k, x1, x2 = row.split(",")
            members = pts[labels == int(k)]
            center = np.array([float(x1), float(x2)])
            assert np.abs(members.mean(axis=0) - center).max() < 1e-9
            dists.append(np.linalg.norm(members - center, axis=1).mean())
        spreads[preset] = float(np.mean(dists))
        print(f"\n[export] {preset} mean within-class spread {spreads[preset]:.4f}")
    assert spreads["mnist-adaptive-center-desk"] < spreads["mnist-baseline-desk"]


# -----------------------------------------------------------------------------
# 7. Determinism: identical config and seed give identical logs.
# -----------------------------------------------------------------------------

@criterion(7, "bitwise determinism of loss logs")
def test_7_determinism(tmp_path):
    def run(name):
        cfg = apply_preset("mnist-combined")
        cfg.dataset = "synth"
        cfg.synth_classes = 4
        cfg.synth_size = 8
        cfg.synth_per_class = 100
        cfg.epochs = 4
        cfg.batch_size = 32
        cfg.seed = 5
        cfg.dtype = "float64"
        cfg.out_dir = str(tmp_path / name)
        return dn.run_training(cfg)

    run_a = run("a")
    run_b = run("b")
    steps_a = open(os.path.join(run_a, "steps.csv")).read().splitlines()
    steps_b = open(os.path.join(run_b, "steps.csv")).read().splitlines()
    assert len(steps_a) > 10
    assert steps_a[:11] == steps_b[:11]  # header + first 10 steps, bitwise
    final_a = open(os.path.join(run_a, "epochs.csv")).read().splitlines()[-1]
    final_b = open(os.path.join(run_b, "epochs.csv")).read().splitlines()[-1]
    assert final_a == final_b
