import os
import re
import subprocess
import sys

import numpy as np
import pytest

import discrimnet as dn
from discrimnet.cli import main, separation_ratio_from_histogram
from discrimnet.config import (
    PRESETS,
    ConfigError,
    RunConfig,
    apply_preset,
    config_to_text,
    load_config_file,
    parse_config_text,
)
from discrimnet.train import load_run_datasets


def synth_config(tmp_path, name="run", **overrides):
    cfg = RunConfig(
        dataset="synth",
        synth_classes=3,
        synth_size=8,
        synth_per_class=60,
        synth_separation=6.0,
        epochs=2,
        batch_size=24,
        seed=11,
        out_dir=str(tmp_path / name),
        lambda_adaptive_discriminant=0.001,
        lambda_adaptive_center=0.01,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def write_config(cfg, path):
    path.write_text(config_to_text(cfg))
    return str(path)


def run_cli(*args):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    src = os.path.dirname(os.path.dirname(dn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "discrimnet.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


# --- config files ------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = synth_config(tmp_path, lr=0.005, augment=True)
    path = tmp_path / "c.txt"
    write_config(cfg, path)
    back = load_config_file(path)
    assert back == cfg


def test_config_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("not_a_key = 3\n")


def test_config_parse_types_and_comments():
    cfg = parse_config_text(
        "# comment\nepochs = 7\nlr = 0.5\naugment = true\ndataset = synth  # trailing\n"
    )
    assert cfg.epochs == 7 and cfg.lr == 0.5 and cfg.augment is True
    assert cfg.dataset == "synth"


def test_config_validation_failures():
    with pytest.raises(ConfigError):
        RunConfig(dataset="imagenet").validate()
    with pytest.raises(ConfigError):
        RunConfig(dtype="float16").validate()
    with pytest.raises(ConfigError):
        RunConfig(lambda_center=-2.0).validate()
    with pytest.raises(ConfigError):
        parse_config_text("epochs = many")


# --- presets -------------------------------------------------------------------

def test_preset_published_tuples():
    combined = apply_preset("mnist-combined")
    assert combined.lambda_adaptive_discriminant == 0.001
    # published center weight 1.0, expressed per the engine's batch-mean
    # convention (divided by the 100-unit hidden width)
    assert combined.lambda_adaptive_center * 100 == 1.0
    assert combined.alpha == 0.99
    assert (combined.epochs, combined.batch_size) == (100, 100)
    assert (combined.lr, combined.momentum, combined.weight_decay) == (0.01, 0.9, 0.01)
    assert (combined.lr_drop_factor, combined.lr_drop_period) == (10.0, 50)

    acenter = apply_preset("mnist-adaptive-center")
    assert acenter.alpha == 0.99
    assert acenter.lambda_adaptive_center * 100 == 1.0

    adisc = apply_preset("mnist-adaptive-discriminant")
    assert adisc.lambda_adaptive_discriminant == 0.01 and adisc.alpha == 0.99

    disc = apply_preset("mnist-discriminant")
    assert disc.lambda_discriminant == 0.01

    center = apply_preset("mnist-center")
    assert center.beta == 1.0 and center.lambda_center * 100 == 1.0

    comparison = apply_preset("cifar100-combined")
    assert comparison.arch == "comparison"
    assert comparison.weight_decay == 0.001
    assert comparison.lr_drop_period == 100 and comparison.epochs == 500
    assert comparison.augment is True


def test_desk_presets_shrink_protocol():
    desk = apply_preset("mnist-combined-desk")
    assert desk.train_subset == 10000 and desk.test_subset == 2000
    assert desk.epochs == 15 and desk.dtype == "float32"
    assert desk.lambda_adaptive_center == apply_preset("mnist-combined").lambda_adaptive_center


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        apply_preset("mnist-quantum")


def test_every_preset_validates():
    for name in PRESETS:
        apply_preset(name).validate()


def test_every_preset_builds_its_network():
    # MNIST and Fashion-MNIST images are 28x28; synth presets stand in
    # for a dataset at its own image side. float32 keeps the 96x96
    # comparison network cheap to build.
    for name in PRESETS:
        cfg = apply_preset(name)
        size, classes = (cfg.synth_size, cfg.synth_classes) if cfg.dataset == "synth" else (28, 10)
        dn.build_architecture(
            cfg.arch, input_shape=(size, size, 1), num_classes=classes,
            hidden_width=cfg.hidden_width, fc_width=cfg.fc_width, dtype="float32",
        )


# --- training runs on synthetic data ---------------------------------------------

@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("runs")
    cfg = synth_config(tmp_path, epochs=3)
    run_dir = dn.run_training(cfg)
    return cfg, run_dir


def test_run_directory_contents(synth_run):
    _, run_dir = synth_run
    for name in ("config.txt", "steps.csv", "epochs.csv", "final.ckpt", "summary.txt"):
        assert os.path.exists(os.path.join(run_dir, name)), name


def test_epoch_log_shape_and_headers(synth_run):
    _, run_dir = synth_run
    lines = open(os.path.join(run_dir, "epochs.csv")).read().splitlines()
    assert lines[0] == "epoch,lr,train_loss,train_acc,test_loss,test_acc,L_S,L_D,L_AD,L_C,L_AC"
    assert len(lines) == 1 + 3
    steps = open(os.path.join(run_dir, "steps.csv")).read().splitlines()
    assert steps[0] == "step,total,L_S,L_D,L_AD,L_C,L_AC"
    assert len(steps) == 1 + 3 * (144 // 24)  # 144 train rows, batch 24, 3 epochs


def test_rerun_is_bitwise_identical(synth_run, tmp_path):
    cfg, run_dir = synth_run
    cfg2 = synth_config(tmp_path, name="again", epochs=3)
    run_dir2 = dn.run_training(cfg2)
    for name in ("steps.csv", "epochs.csv"):
        a = open(os.path.join(run_dir, name), "rb").read()
        b = open(os.path.join(run_dir2, name), "rb").read()
        assert a == b, name


def test_resolved_config_reproduces_run(synth_run, tmp_path):
    _, run_dir = synth_run
    cfg = load_config_file(os.path.join(run_dir, "config.txt"))
    cfg.out_dir = str(tmp_path / "replay")
    replay_dir = dn.run_training(cfg)
    a = open(os.path.join(run_dir, "epochs.csv"), "rb").read()
    b = open(os.path.join(replay_dir, "epochs.csv"), "rb").read()
    assert a == b


def test_eval_consistency_with_logged_train_accuracy(synth_run):
    cfg, run_dir = synth_run
    net, loaded_cfg, _ = dn.load_checkpoint(os.path.join(run_dir, "final.ckpt"))
    train, test = dn.load_run_datasets(loaded_cfg)
    train_loss, train_acc = dn.evaluate(net, train, loaded_cfg.batch_size)
    last = open(os.path.join(run_dir, "epochs.csv")).read().splitlines()[-1].split(",")
    assert abs(float(last[2]) - train_loss) < 1e-6
    assert abs(float(last[3]) - train_acc) < 1e-6


def test_untrained_model_is_at_chance_level():
    ds = dn.synth_blobs(4, 8, 100, 6.0, seed=3)
    net = dn.build_architecture(
        "mnist_small", input_shape=(8, 8, 1), num_classes=4, rng=dn.Rng(5),
        conv_channels=(4, 4), fc1_width=16, hidden_width=8,
    )
    _, acc = dn.evaluate(net, ds, 50)
    assert abs(acc - 0.25) < 0.05 or acc < 0.4  # near 1/K for a fresh net


# --- CLI ---------------------------------------------------------------------------

def test_cli_train_eval_and_exports(tmp_path):
    cfg = synth_config(tmp_path, name="cli", epochs=2, hidden_width=2)
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    ckpt = str(tmp_path / "cli" / "final.ckpt")

    assert main(["eval", "--ckpt", ckpt, "--split", "test"]) == 0
    assert main(["eval", "--ckpt", ckpt, "--split", "train"]) == 0

    hist = str(tmp_path / "hist.csv")
    assert main(["export-histogram", "--ckpt", ckpt, "--neuron", "1", "--out", hist]) == 0
    lines = open(hist).read().splitlines()
    train_ds, _ = load_run_datasets(cfg)
    assert lines[0] == "logit,is_target"
    assert len(lines) == 1 + len(train_ds)
    is_target = np.array([int(l.split(",")[1]) for l in lines[1:]])
    assert is_target.sum() == int((train_ds.labels == 1).sum())
    assert separation_ratio_from_histogram(hist) >= 0.0

    scatter = str(tmp_path / "scatter.csv")
    assert main(["export-scatter", "--ckpt", ckpt, "--out", scatter]) == 0
    rows = open(scatter).read().splitlines()
    assert rows[0] == "x1,x2,class"
    assert len(rows) == 1 + len(train_ds)
    means = open(str(tmp_path / "scatter_means.csv")).read().splitlines()
    assert means[0] == "class,x1,x2"
    assert len(means) == 1 + train_ds.num_classes
    # companion means equal arithmetic means of the scatter rows
    pts = np.array([[float(a) for a in r.split(",")[:2]] for r in rows[1:]])
    classes = np.array([int(r.split(",")[2]) for r in rows[1:]])
    for row in means[1:]:
        k, x1, x2 = row.split(",")
        want = pts[classes == int(k)].mean(axis=0)
        assert abs(float(x1) - want[0]) < 1e-9
        assert abs(float(x2) - want[1]) < 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_scatter_means_skip_classes_absent_from_the_split(tmp_path):
    # 4 classes x 2 samples leave a held-out split of 2 rows, so 2+ classes miss it.
    cfg = synth_config(tmp_path, name="few", synth_classes=4, synth_per_class=2,
                       epochs=1, hidden_width=2)
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    ckpt = str(tmp_path / "few" / "final.ckpt")
    scatter = str(tmp_path / "s.csv")
    assert main(["export-scatter", "--ckpt", ckpt, "--out", scatter, "--split", "test"]) == 0
    _, test = load_run_datasets(cfg)
    means = open(tmp_path / "s_means.csv").read().splitlines()
    assert [int(row.split(",")[0]) for row in means[1:]] == sorted(set(test.labels.tolist()))
    assert len(means) - 1 < cfg.synth_classes and "nan" not in "".join(means)


def test_cli_scatter_requires_width_two(tmp_path):
    cfg = synth_config(tmp_path, name="w100", epochs=1)  # hidden width 100
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    ckpt = str(tmp_path / "w100" / "final.ckpt")
    assert main(["export-scatter", "--ckpt", ckpt, "--out", str(tmp_path / "s.csv")]) == 2


def test_cli_invalid_neuron_and_missing_config(tmp_path):
    cfg = synth_config(tmp_path, name="n", epochs=1)
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    ckpt = str(tmp_path / "n" / "final.ckpt")
    assert main(["export-histogram", "--ckpt", ckpt, "--neuron", "9", "--out",
                 str(tmp_path / "h.csv")]) == 2
    assert main(["train"]) == 2  # neither --config nor --preset


def test_cli_truncated_checkpoint(tmp_path):
    cfg = synth_config(tmp_path, name="t", epochs=1)
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    ckpt = tmp_path / "t" / "final.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:200])
    assert main(["eval", "--ckpt", str(ckpt)]) == 1


@pytest.mark.parametrize("edit, named", [
    (lambda m: m["config"].update(not_a_field=1), "not_a_field"),
    (lambda m: m["config"].update(alpha=1.5), "alpha"),
    (lambda m: m["arch_params"].update(not_a_param=3), "not_a_param"),
    (lambda m: m.pop("config"), "run config"),
    (lambda m: m.update(arch_params=5), "arch_params"),
    (lambda m: m["arch_params"].update(input_shape=7), "arch_params"),
    (lambda m: m["config"].update(hidden_width=7), "hidden_width"),
    (lambda m: m["config"].update(hidden_width=7, lambda_adaptive_center=0.0), "hidden_width"),
], ids=["unknown-config-key", "invalid-config-value", "unknown-arch-param", "no-config",
        "arch-params-not-a-mapping", "input-shape-not-a-sequence",
        "hidden-width-mismatch-with-center-loss", "hidden-width-mismatch-without-center-loss"])
def test_cli_rejects_malformed_checkpoint_manifest(synth_run, tmp_path, edit, named):
    _, run_dir = synth_run
    manifest, arrays = dn.load_bundle(os.path.join(run_dir, "final.ckpt"))
    edit(manifest)
    ckpt = str(tmp_path / "bad.ckpt")
    dn.save_bundle(ckpt, manifest, arrays)
    proc = run_cli("eval", "--ckpt", ckpt)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and named in proc.stderr
    assert "Traceback" not in proc.stderr


def _assert_eval_rejects(ckpt_path, name, capsys, tmp_path):
    """Eval exits 1, naming the entry, when it is deleted, reshaped or NaN."""
    manifest, arrays = dn.load_bundle(ckpt_path)
    missing = {k: v for k, v in arrays.items() if k != name}
    nan = arrays[name].copy()
    nan.flat[0] = np.nan
    reshaped = arrays[name].reshape(1, -1)
    for how, damaged in (("missing", missing), ("misshapen", {**arrays, name: reshaped}),
                         ("non-finite", {**arrays, name: nan})):
        ckpt = str(tmp_path / "bad.ckpt")
        dn.save_bundle(ckpt, manifest, damaged)
        # In process, an exception escaping main (a traceback) fails the test.
        assert main(["eval", "--ckpt", ckpt]) == 1, (name, how)
        err = capsys.readouterr().err
        assert err.startswith("error:"), (name, how, err)
        assert re.search(rf"\bentry {re.escape(name)}(\s|$)", err), (name, how, err)


def test_cli_rejects_malformed_checkpoint_state(synth_run, tmp_path, capsys):
    # Every entry eval reads back: the parameters and the adaptive-loss state.
    _, run_dir = synth_run
    ckpt = os.path.join(run_dir, "final.ckpt")
    names = [n for n in dn.load_bundle(ckpt)[1] if not n.startswith("optim.")]
    assert "aux.neuron_stats.steps" in names and "aux.center_bank.centers" in names
    for name in names:
        _assert_eval_rejects(ckpt, name, capsys, tmp_path)


def test_cli_rejects_malformed_batchnorm_state(tmp_path, capsys):
    cfg = synth_config(tmp_path, name="cmp", arch="comparison", synth_size=32, synth_classes=2,
                       synth_per_class=4, epochs=1, fc_width=8, hidden_width=8, dtype="float32")
    run_dir = dn.run_training(cfg)
    ckpt = os.path.join(run_dir, "final.ckpt")
    for name in ("layers.1.state.running_mean", "layers.1.state.batches_seen"):
        _assert_eval_rejects(ckpt, name, capsys, tmp_path)


def test_cli_bad_config_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("dataset = synth\nwat = 9\n")
    assert main(["train", "--config", str(bad), "--quiet"]) == 2


@pytest.mark.parametrize("override", [
    {"lr": 0.0},
    {"synth_classes": 1},
    {"hidden_width": 0},
    {"lr_drop_period": 0},
    {"lr_drop_factor": 0.0},
    {"synth_per_class": 0},
    {"lambda_center": 0.01},  # together with synth_config's adaptive center
    {"synth_size": 6},  # mnist_small halves the input twice
    {"synth_size": 8, "arch": "comparison"},  # its unpadded convolutions need 32
    {"seed": -1},
    {"seed": 2**64},
    {"lambda_adaptive_discriminant": float("nan")},
    {"lr": float("nan")},
    {"lr": float("inf")},
    {"momentum": float("nan")},
])
def test_cli_rejects_invalid_values_with_exit_2(tmp_path, override):
    cfg = synth_config(tmp_path, name="bad", **{"synth_size": 4, "epochs": 1, **override})
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    proc = run_cli("train", "--config", cfg_path, "--quiet")
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trailing_batch_of_one_with_batch_discriminant(tmp_path):
    # 10 classes x 8 = 80 samples, 64 train rows: batches of 63 and 1.
    cfg = synth_config(tmp_path, name="one", synth_classes=10, synth_size=4,
                       synth_per_class=8, batch_size=63, epochs=2,
                       lambda_discriminant=0.01)
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    steps = [line.split(",") for line in open(tmp_path / "one" / "steps.csv").read().splitlines()]
    ld = steps[0].index("L_D")
    assert [row[ld] == "" for row in steps[1:]] == [False, True, False, True]


def test_cli_seed_and_out_overrides(tmp_path):
    cfg = synth_config(tmp_path, name="base", epochs=1)
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    out = str(tmp_path / "forced")
    assert main(["train", "--config", cfg_path, "--quiet", "--seed", "99", "--out", out]) == 0
    forced = load_config_file(os.path.join(out, "config.txt"))
    assert forced.seed == 99 and forced.out_dir == out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_exit_code(tmp_path):
    # a huge learning rate reliably drives the objective non-finite
    cfg = synth_config(tmp_path, name="blow", epochs=3, lr=1e9,
                       lambda_adaptive_discriminant=0.0, lambda_adaptive_center=0.0,
                       dtype="float32")
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    code = main(["train", "--config", cfg_path, "--quiet"])
    assert code == 3


def test_checkpoint_restores_accumulator_state(synth_run):
    _, run_dir = synth_run
    net, cfg, aux = dn.load_checkpoint(os.path.join(run_dir, "final.ckpt"))
    stats = aux.neuron_stats
    bank = aux.center_bank
    assert stats is not None and stats.steps == 3 * 144  # one advance per sample
    assert np.any(stats.var_within > 0) and np.any(stats.var_total > 0)
    assert bank is not None and bank.steps == 3 * 144  # the per-sample rule ran
    assert np.any(bank.centers != 0)


def test_float32_checkpoint_owns_its_dtype(tmp_path):
    run_dir = dn.run_training(synth_config(tmp_path, name="f32", epochs=1, dtype="float32"))
    ckpt = os.path.join(run_dir, "final.ckpt")
    net, manifest, _ = dn.Network.load(ckpt)
    assert net.dtype == np.float32 and manifest["arch_params"]["dtype"] == "float32"
    assert all(arr.dtype == np.float32 for _, arr in net.parameters())
    assert open(ckpt, "rb").read().count(b"DTRN0001") == len(manifest["entries"])
    loaded, _, _ = dn.load_checkpoint(ckpt)
    assert loaded.dtype == np.float32
    fresh = dn.build_architecture("mnist_small", input_shape=(8, 8, 1), num_classes=3)
    assert fresh.dtype == np.float64  # loading changed no process-wide default
    assert all(arr.dtype == np.float64 for _, arr in fresh.parameters())


def test_evaluation_never_augments(tmp_path):
    cfg = synth_config(tmp_path, name="aug", epochs=2, augment=True)
    run_dir = dn.run_training(cfg)
    net, loaded_cfg, _ = dn.load_checkpoint(os.path.join(run_dir, "final.ckpt"))
    train, test = dn.load_run_datasets(loaded_cfg)
    first = dn.evaluate(net, test, loaded_cfg.batch_size)
    second = dn.evaluate(net, test, loaded_cfg.batch_size)
    assert first == second  # no randomness consumed in eval paths
    logged = open(os.path.join(run_dir, "epochs.csv")).read().splitlines()[-1].split(",")
    assert abs(float(logged[4]) - first[0]) < 1e-12


def test_minibatch_center_trainer_path(tmp_path):
    cfg = synth_config(tmp_path, name="mbcenter", epochs=2,
                       lambda_adaptive_discriminant=0.0,
                       lambda_adaptive_center=0.0,
                       lambda_center=0.01, beta=1.0)
    run_dir = dn.run_training(cfg)
    steps = open(os.path.join(run_dir, "steps.csv")).read().splitlines()
    header = steps[0].split(",")
    first = steps[1].split(",")
    assert first[header.index("L_C")] != ""      # center component logged
    assert first[header.index("L_AC")] == ""     # adaptive column empty
    _, cfg_loaded, aux = dn.load_checkpoint(os.path.join(run_dir, "final.ckpt"))
    assert aux.center_bank.steps == 2 * (144 // 24)  # the batch rule ran once per step
    assert np.any(aux.center_bank.centers != 0)  # delta rule moved the centers


def test_sum_reduction_switch(tmp_path):
    mean_cfg = synth_config(tmp_path, name="mean1", epochs=1,
                            lambda_adaptive_discriminant=0.0,
                            lambda_adaptive_center=0.0, lr=1e-4)
    sum_cfg = synth_config(tmp_path, name="sum1", epochs=1,
                           lambda_adaptive_discriminant=0.0,
                           lambda_adaptive_center=0.0, lr=1e-4,
                           ce_reduction="sum")
    mean_dir = dn.run_training(mean_cfg)
    sum_dir = dn.run_training(sum_cfg)
    mean_first = float(open(os.path.join(mean_dir, "steps.csv")).read().splitlines()[1].split(",")[2])
    sum_first = float(open(os.path.join(sum_dir, "steps.csv")).read().splitlines()[1].split(",")[2])
    assert sum_first == pytest.approx(mean_first * 24, rel=1e-12)  # batch size 24

