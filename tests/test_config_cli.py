import dataclasses
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import discrimnet as dn
import discrimnet.optim as optim
import discrimnet.train as train_mod
from discrimnet.cli import main
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
from discrimnet.tensor import BUNDLE_MAGIC, TENSOR_MAGIC
from conftest import (
    narrow_mnist_small,
    separation_ratio_from_histogram,
    write_idx_dir,
    write_idx_split,
)


_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


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
        assert key in _FIELDS, f"{key} is not a RunConfig field"
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
    with pytest.raises(ConfigError, match="lr must be finite"):
        RunConfig(lr=10**400).validate()  # an int too large for a float
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
    assert (combined.lr, combined.weight_decay, combined.lr_drop_period) == (0.01, 0.01, 50)
    assert (optim.MOMENTUM, optim.LR_DROP_FACTOR) == (0.9, 10.0)

    acenter = apply_preset("mnist-adaptive-center")
    assert acenter.alpha == 0.99
    assert acenter.lambda_adaptive_center * 100 == 1.0

    adisc = apply_preset("mnist-adaptive-discriminant")
    assert adisc.lambda_adaptive_discriminant == 0.01 and adisc.alpha == 0.99

    disc = apply_preset("mnist-discriminant")
    assert disc.lambda_discriminant == 0.01

    center = apply_preset("mnist-center")
    assert center.lambda_center * 100 == 1.0

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


# Classes of the dataset each preset family is named after.
DATASET_CLASSES = {"mnist": 10, "fashionmnist": 10, "cifar10": 10, "cifar100": 100, "stl10": 10}


def test_every_preset_builds_its_network():
    # MNIST and Fashion-MNIST images are 28x28; synth presets stand in
    # for a dataset at its own image side and class count. float32 keeps
    # the 96x96 comparison network cheap to build and run.
    for name in PRESETS:
        cfg = apply_preset(name)
        size, classes = (cfg.synth_size, cfg.synth_classes) if cfg.dataset == "synth" else (28, 10)
        net = dn.build_architecture(
            cfg.arch, input_shape=(size, size, 1), num_classes=classes,
            hidden_width=cfg.hidden_width, dtype="float32",
        )
        logits = net.forward(np.zeros((2, size, size, 1), np.float32), train=True)["logits"]
        assert logits.shape == (2, DATASET_CLASSES[name.split("-")[0]]), name


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


def test_logged_train_metrics_are_epoch_running_means(tmp_path, monkeypatch):
    # train_loss / train_acc come from the training-mode forwards of the
    # epoch's own steps: recompute them from every batch's logits and labels.
    seen, objective = [], train_mod.combined_objective

    def spy(state, taps, labels):
        seen.append((np.array(taps["logits"], dtype=np.float64), np.array(labels)))
        return objective(state, taps, labels)

    monkeypatch.setattr(train_mod, "combined_objective", spy)
    cfg = synth_config(tmp_path, epochs=3, batch_size=25)
    n = len(load_run_datasets(cfg)[0])
    assert n % cfg.batch_size  # a ragged last batch, weighted by its size
    run_dir = dn.run_training(cfg)

    rows = [l.split(",") for l in open(os.path.join(run_dir, "epochs.csv")).read().splitlines()[1:]]
    per_epoch = -(-n // cfg.batch_size)
    assert len(rows) == cfg.epochs and len(seen) == cfg.epochs * per_epoch
    for epoch, row in enumerate(rows):
        batches = seen[epoch * per_epoch:(epoch + 1) * per_epoch]
        assert sum(len(labels) for _, labels in batches) == n
        assert len(batches[-1][1]) == n % cfg.batch_size
        ce_sum, correct = 0.0, 0
        for z, labels in batches:
            m = z.max(axis=1)
            lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
            ce_sum += float((lse - z[np.arange(len(labels)), labels]).sum())
            correct += int((z.argmax(axis=1) == labels).sum())
        assert float(row[3]) == correct / n
        assert float(row[2]) == pytest.approx(ce_sum / n, rel=1e-12, abs=0)


def test_each_epoch_evaluates_only_the_test_split(tmp_path, monkeypatch):
    splits, evaluate = [], train_mod.evaluate

    def spy(net, dataset, batch_size=100):
        splits.append(dataset.split)
        return evaluate(net, dataset, batch_size)

    monkeypatch.setattr(train_mod, "evaluate", spy)
    cfg = synth_config(tmp_path, epochs=3)
    dn.run_training(cfg)
    assert splits == ["test"] * cfg.epochs


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_evaluation_reads_the_test_split_in_the_network_dtype(tmp_path, monkeypatch, dtype):
    # The test split is cast once, as the training split is, so each eval
    # batch enters Network.forward in its dtype and is not cast again.
    dtypes, evaluate = [], train_mod.evaluate

    def spy(net, dataset, batch_size=100):
        dtypes.append((dataset.images.dtype, net.dtype))
        return evaluate(net, dataset, batch_size)

    monkeypatch.setattr(train_mod, "evaluate", spy)
    cfg = synth_config(tmp_path, epochs=2, dtype=dtype)
    dn.run_training(cfg)
    assert dtypes == [(np.dtype(dtype), np.dtype(dtype))] * cfg.epochs


def test_subsets_apply_to_synth_data(tmp_path):
    full_train, full_test = load_run_datasets(synth_config(tmp_path))
    cfg = synth_config(tmp_path, train_subset=10, test_subset=5)
    train, test = load_run_datasets(cfg)
    assert (len(train), len(test)) == (10, 5)
    assert test.split == "test"
    again = load_run_datasets(cfg)
    for split, full, repeat in ((train, full_train, again[0]), (test, full_test, again[1])):
        np.testing.assert_array_equal(split.images, repeat.images)
        np.testing.assert_array_equal(split.labels, repeat.labels)
        # every subset row is a row of its full split
        rows = full.images.reshape(len(full), -1)
        for image in split.images.reshape(len(split), -1):
            assert (rows == image).all(axis=1).any()


def test_untrained_model_is_at_chance_level():
    ds = dn.synth_blobs(4, 8, 100, 6.0, dn.seeded_rng(3))
    net = narrow_mnist_small(seed=5, channels=4, fc1=16, classes=4)
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


def test_cli_scatter_means_path_keeps_a_dotted_directory(tmp_path, monkeypatch):
    # An extension-less --out in a dotted directory: the default means
    # file goes beside it, not to a name cut at the directory's dot.
    cfg = synth_config(tmp_path, name="dots", epochs=1, hidden_width=2)
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    ckpt = str(tmp_path / "dots" / "final.ckpt")
    (tmp_path / "runs.v2").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["export-scatter", "--ckpt", ckpt, "--out", "runs.v2/scatter"]) == 0
    assert sorted(os.listdir(tmp_path / "runs.v2")) == ["scatter", "scatter_means.csv"]
    assert not (tmp_path / "runs_means.csv").exists()
    means = (tmp_path / "runs.v2" / "scatter_means.csv").read_text().splitlines()
    assert means[0] == "class,x1,x2"


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


def test_cli_readers_check_the_data_override_against_the_network(tmp_path, capsys):
    # Ten 8x8 classes, so 8x8 IDX files (always ten classes) fit the network.
    cfg = synth_config(tmp_path, name="ten", synth_classes=10, synth_per_class=6, epochs=1)
    assert main(["train", "--config", write_config(cfg, tmp_path / "ten.txt"), "--quiet"]) == 0
    cfg = synth_config(tmp_path, name="three", synth_per_class=10, epochs=1)
    assert main(["train", "--config", write_config(cfg, tmp_path / "three.txt"), "--quiet"]) == 0
    ten, three = (str(tmp_path / name / "final.ckpt") for name in ("ten", "three"))
    labels = np.arange(20) % 10
    for size in (8, 28):
        images = np.zeros((20, size, size), dtype=np.uint8)
        images[np.arange(20), labels % size, labels % size] = 255
        write_idx_dir(str(tmp_path / f"idx{size}" / "mnist"), images, labels)
    idx8, idx28 = str(tmp_path / "idx8"), str(tmp_path / "idx28")

    assert main(["eval", "--ckpt", ten, "--data", "mnist", "--data-dir", idx8]) == 0
    capsys.readouterr()
    assert main(["eval", "--ckpt", ten, "--data", "foo"]) == 2
    assert "unknown dataset 'foo'" in capsys.readouterr().err
    assert main(["eval", "--ckpt", ten, "--data", "mnist", "--data-dir", idx28]) == 2
    assert "(28, 28, 1) images" in capsys.readouterr().err
    assert main(["eval", "--ckpt", three, "--data", "mnist", "--data-dir", idx8]) == 2
    assert "10 classes" in capsys.readouterr().err
    hist = str(tmp_path / "h.csv")
    assert main(["export-histogram", "--ckpt", ten, "--neuron", "0", "--out", hist,
                 "--data", "mnist", "--data-dir", idx28]) == 2
    assert not os.path.exists(hist)


@pytest.mark.parametrize("edit, named", [
    (lambda m: m["config"].update(not_a_field=1), "not_a_field"),
    (lambda m: m["config"].update(alpha=1.5), "alpha"),
    (lambda m: m["config"].update(lr=10**400), "lr"),
    (lambda m: m["arch_params"].update(not_a_param=3), "not_a_param"),
    (lambda m: m.update(arch="no_such_arch"), "no_such_arch"),
    (lambda m: m.pop("config"), "run config"),
    (lambda m: m.update(arch_params=5), "arch_params"),
    (lambda m: m["arch_params"].update(input_shape=7), "arch_params"),
    (lambda m: m["arch_params"].update(rng=5), "arch_params"),
    (lambda m: m["config"].update(hidden_width=7), "hidden_width"),
    (lambda m: m["config"].update(hidden_width=7, lambda_adaptive_center=0.0), "hidden_width"),
    (lambda m: m["config"].update(epsilon=0.5), "epsilon"),
    (lambda m: m["config"].update(augment_rotation_deg=-10.0), "augment_rotation_deg"),
    # stored values of the wrong type
    (lambda m: m["config"].update(batch_size=2.5), "batch_size"),
    (lambda m: m["config"].update(synth_per_class=2.5), "synth_per_class"),
    (lambda m: m["config"].update(train_subset=1.5), "train_subset"),
    (lambda m: m["config"].update(epochs="3"), "epochs"),
    (lambda m: m["config"].update(augment=1), "augment"),
    # zero-sized layers
    (lambda m: m["arch_params"].update(fc1_width=0), "arch_params"),
    (lambda m: m["arch_params"].update(conv_channels=[0, 0]), "arch_params"),
    (lambda m: m["arch_params"].update(input_shape=[0, 0, 1]), "arch_params"),
    # sizes that are not integers, which a build through int() would truncate
    (lambda m: m["arch_params"].update(input_shape=[8.9, 8, 1]), "arch_params"),
    (lambda m: m["arch_params"].update(input_shape=[8, 8, True]), "arch_params"),
    (lambda m: m["arch_params"].update(num_classes=3.0), "arch_params"),
    (lambda m: m["arch_params"].update(hidden_width=100.7), "arch_params"),
    # retired build parameters off the widths every run built
    (lambda m: m["arch_params"].update(dropout_keep=0.3), "arch_params"),
    (lambda m: m["arch_params"].update(fc_width=8), "arch_params"),
    (lambda m: m["config"].update(fc_width=8), "fc_width"),
    (lambda m: m["config"].update(momentum=0.5), "momentum"),
    (lambda m: m["config"].update(lr_drop_factor=2.0), "lr_drop_factor"),
    (lambda m: m["config"].update(beta=0.5), "beta"),
], ids=["unknown-config-key", "invalid-config-value", "int-beyond-float-lr",
        "unknown-arch-param", "unknown-arch",
        "no-config", "arch-params-not-a-mapping", "input-shape-not-a-sequence",
        "rng-arch-param",
        "hidden-width-mismatch-with-center-loss", "hidden-width-mismatch-without-center-loss",
        "retired-key-off-its-value", "retired-augment-bound-off-its-value",
        "float-batch-size", "float-synth-per-class", "float-train-subset", "string-epochs",
        "int-augment", "zero-fc1-width", "zero-conv-channels", "zero-input-shape",
        "float-input-shape", "bool-input-shape", "float-num-classes", "float-hidden-width",
        "retired-dropout-keep-off-its-value", "retired-arch-fc-width-off-its-value",
        "retired-config-fc-width-off-its-value", "retired-momentum-off-its-value",
        "retired-lr-drop-factor-off-its-value", "retired-beta-off-its-value"])
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


def _assert_eval_rejects_value(ckpt_path, name, value, capsys, tmp_path):
    """Eval exits 1 with one ``error:`` line naming the entry when its
    first stored value is ``value``."""
    manifest, arrays = dn.load_bundle(ckpt_path)
    damaged = arrays[name].copy()
    damaged.flat[0] = value
    ckpt = str(tmp_path / "bad.ckpt")
    dn.save_bundle(ckpt, manifest, {**arrays, name: damaged})
    # In process, an exception escaping main (a traceback) fails the test.
    assert main(["eval", "--ckpt", ckpt]) == 1, (name, value)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), (name, value, lines)
    assert re.search(rf"\bentry {re.escape(name)}(\s|$)", lines[0]), (name, value, lines)


def test_cli_rejects_malformed_batchnorm_state(tmp_path, capsys):
    cfg = synth_config(tmp_path, name="cmp", arch="comparison", synth_size=32, synth_classes=2,
                       synth_per_class=4, epochs=1, hidden_width=8, dtype="float32")
    run_dir = dn.run_training(cfg)
    ckpt = os.path.join(run_dir, "final.ckpt")
    for name in ("layers.1.state.running_mean", "layers.1.state.batches_seen"):
        _assert_eval_rejects(ckpt, name, capsys, tmp_path)
    # State that no run of training batches leaves: none seen, a negative variance.
    _assert_eval_rejects_value(ckpt, "layers.1.state.batches_seen", 0.0, capsys, tmp_path)
    _assert_eval_rejects_value(ckpt, "layers.1.state.running_var", -1.0, capsys, tmp_path)


def _mnist4_train(tmp_path, train=(), test=()):
    """Train args for a run on a 4x4 ``mnist`` IDX dir; ``train`` or
    ``test`` replaces that split's (images, labels)."""
    good = (np.zeros((20, 4, 4)), np.arange(20) % 10)
    root = str(tmp_path / "data" / "mnist")
    write_idx_split(root, "train", *(train or good))
    write_idx_split(root, "t10k", *(test or good))
    cfg = synth_config(tmp_path, dataset="mnist", data_dir=str(tmp_path / "data"), epochs=1)
    return ["train", "--config", write_config(cfg, tmp_path / "c.txt"), "--quiet"]


def _bundle_eval(tmp_path, manifest, records=b""):
    """Eval args for a bundle of a raw JSON manifest and raw record bytes."""
    path = tmp_path / "bad.ckpt"
    blob = manifest.encode("utf-8")
    path.write_bytes(BUNDLE_MAGIC + struct.pack("<I", len(blob)) + blob + records)
    return ["eval", "--ckpt", str(path)]


def _taken_out_dir(tmp_path):
    (tmp_path / "taken").write_text("")
    cfg = synth_config(tmp_path, out_dir=str(tmp_path / "taken"), epochs=1)
    return ["train", "--config", write_config(cfg, tmp_path / "c.txt"), "--quiet"]


def _latin1_config(tmp_path):
    (tmp_path / "c.txt").write_bytes("dataset = synth  # caf\u00e9\n".encode("latin-1"))
    return ["train", "--config", str(tmp_path / "c.txt"), "--quiet"]


# Bad input files, by the exit code they must give: name -> (argv maker, code).
CLI_INPUT_ERRORS = {
    "idx-label-out-of-range": (lambda p: _mnist4_train(
        p, train=(np.zeros((2, 4, 4)), [3, 10])), 1),
    "idx-empty-train-split": (lambda p: _mnist4_train(p, train=(np.zeros((0, 4, 4)), [])), 1),
    "idx-empty-test-split": (lambda p: _mnist4_train(p, test=(np.zeros((0, 4, 4)), [])), 1),
    "idx-test-images-of-another-size": (lambda p: _mnist4_train(
        p, test=(np.zeros((20, 8, 8)), np.arange(20) % 10)), 1),
    "idx-images-without-pixels": (lambda p: _mnist4_train(
        p, train=(np.zeros((20, 0, 0)), np.arange(20) % 10),
        test=(np.zeros((20, 0, 0)), np.arange(20) % 10)), 1),
    "bundle-manifest-is-an-array": (lambda p: _bundle_eval(p, "[1, 2]"), 1),
    "bundle-entries-not-a-list": (lambda p: _bundle_eval(p, '{"entries": 5}'), 1),
    "bundle-record-larger-than-the-file": (lambda p: _bundle_eval(
        p, '{"entries": ["w"]}', TENSOR_MAGIC + struct.pack("<4I", 3, *(2**31,) * 3)), 1),
    "config-is-a-directory": (lambda p: ["train", "--config", str(p), "--quiet"], 1),
    "out-dir-is-a-file": (_taken_out_dir, 1),
    "config-not-utf8": (_latin1_config, 2),
}


@pytest.mark.parametrize("case", sorted(CLI_INPUT_ERRORS))
def test_cli_bad_input_files_exit_without_a_traceback(tmp_path, case):
    make_args, code = CLI_INPUT_ERRORS[case]
    proc = run_cli(*make_args(tmp_path))
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith({1: "error: ", 2: "config error: "}[code]), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "run").exists()  # no run started: no step was taken


def test_cli_bad_config_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("dataset = synth\nwat = 9\n")
    assert main(["train", "--config", str(bad), "--quiet"]) == 2


# What config files and checkpoints written before these keys were retired
# list for them: each key at the value the engine fixed. They are refused
# now, like any other unknown name.
RETIRED_LINES = """\
epsilon = 1e-08
ce_reduction = mean
augment_rotation_deg = 10.0
augment_translate_frac = 0.1
augment_scale_low = 0.9
augment_scale_high = 1.1
fc_width = 1024
momentum = 0.9
lr_drop_factor = 10.0
beta = 1.0
"""
RETIRED_CONFIG = dict(
    epsilon=1e-8, ce_reduction="mean", augment_rotation_deg=10.0,
    augment_translate_frac=0.1, augment_scale_low=0.9, augment_scale_high=1.1,
    fc_width=1024, momentum=0.9, lr_drop_factor=10.0, beta=1.0,
)
# The build parameters checkpoints listed before the stock widths were fixed.
RETIRED_ARCH_PARAMS = dict(conv_channels=[32, 64], fc1_width=256, fc_width=1024, dropout_keep=0.5)
RETIRED_CASES = (
    [("config-file", line.split(" = ")[0], line) for line in RETIRED_LINES.splitlines()]
    + [("config", key, value) for key, value in RETIRED_CONFIG.items()]
    + [("arch_params", key, value) for key, value in RETIRED_ARCH_PARAMS.items()]
)


@pytest.mark.parametrize("where, key, value", RETIRED_CASES,
                         ids=[f"{where}-{key}" for where, key, _ in RETIRED_CASES])
def test_retired_keys_are_refused_at_their_old_fixed_values(
        synth_run, tmp_path, capsys, where, key, value):
    # In process, an exception escaping main (a traceback) fails the test.
    if where == "config-file":
        path = tmp_path / "old.txt"
        path.write_text(config_to_text(synth_config(tmp_path, epochs=1)) + value + "\n")
        code, args = 2, ["train", "--config", str(path), "--quiet"]
    else:
        _, run_dir = synth_run
        manifest, arrays = dn.load_bundle(os.path.join(run_dir, "final.ckpt"))
        manifest[where][key] = value
        old = str(tmp_path / "old.ckpt")
        dn.save_bundle(old, manifest, arrays)
        code, args = 1, ["eval", "--ckpt", old]
    assert main(args) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith({1: "error: ", 2: "config error: "}[code]) and key in lines[0]
    assert not (tmp_path / "run").exists()  # no run started


@pytest.mark.parametrize("line", [
    "epsilon = 0.5", "ce_reduction = sum", "augment_rotation_deg = -10",
    "augment_translate_frac = -0.1", "augment_scale_low = 0", "augment_scale_high = nan",
    "fc_width = 8", "momentum = nan", "momentum = -0.5", "momentum = 1.0",
    "lr_drop_factor = 0.0", "lr_drop_factor = -1.0", "beta = -0.1", "beta = 2.0",
])
def test_cli_rejects_retired_keys_off_their_fixed_values(tmp_path, capsys, line):
    path = tmp_path / "cfg.txt"
    path.write_text(config_to_text(synth_config(tmp_path)) + line + "\n")
    # In process, an exception escaping main (a traceback) fails the test.
    assert main(["train", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and line.split()[0] in err, err


@pytest.mark.parametrize("key, value", [
    ("out_dir", "exp#1"), ("out_dir", "pad "), ("out_dir", "two\nlines"),
    ("data_dir", " data"), ("data_dir", "data#2"), ("data_dir", "one\u2028more"),
])
def test_cli_refuses_a_path_config_txt_cannot_carry(synth_run, tmp_path, capsys, key, value):
    # config.txt reads '#' as a comment, strips each value and splits
    # lines, so such a path would read back as another one.
    flag = {"out_dir": "--out", "data_dir": "--data-dir"}[key]
    path = str(tmp_path / value) if key == "out_dir" else value
    cfg_path = write_config(synth_config(tmp_path, epochs=1), tmp_path / "cfg.txt")
    assert main(["train", "--config", cfg_path, "--quiet", flag, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err, err
    assert os.listdir(tmp_path) == ["cfg.txt"]  # no run directory was made
    # A checkpoint that stores such a path still loads and evaluates.
    _, run_dir = synth_run
    ckpt = os.path.join(run_dir, "final.ckpt")
    assert main(["eval", "--ckpt", ckpt]) == 0
    want = capsys.readouterr().out
    manifest, arrays = dn.load_bundle(ckpt)
    manifest["config"][key] = path
    stored = str(tmp_path / "stored.ckpt")
    dn.save_bundle(stored, manifest, arrays)
    assert main(["eval", "--ckpt", stored]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("override", [
    {"lr": 0.0},
    {"synth_classes": 1},
    {"hidden_width": 0},
    {"lr_drop_period": 0},
    {"synth_per_class": 0},
    {"lambda_center": 0.01},  # together with synth_config's adaptive center
    {"synth_size": 6},  # mnist_small halves the input twice
    {"synth_size": 8, "arch": "comparison"},  # its unpadded convolutions need 32
    {"seed": -1},
    {"seed": 2**64},
    {"lambda_adaptive_discriminant": float("nan")},
    {"lr": float("nan")},
    {"lr": float("inf")},
    {"weight_decay": -0.01},
    {"synth_size": -4},  # (-4)**2 would pass the class-count check
    {"out_dir": ""},  # os.makedirs("") fails with an OS error
])
def test_cli_rejects_invalid_values_with_exit_2(tmp_path, override):
    cfg = synth_config(tmp_path, name="bad", **{"synth_size": 4, "epochs": 1, **override})
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    proc = run_cli("train", "--config", cfg_path, "--quiet")
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_rejects_an_empty_out_flag_with_exit_2(tmp_path):
    # The command-line form of the empty out_dir case above.
    cfg_path = write_config(synth_config(tmp_path, epochs=1), tmp_path / "cfg.txt")
    proc = run_cli("train", "--config", cfg_path, "--quiet", "--out", "")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "config error: out_dir must not be empty\n"


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


def test_non_finite_loss_exit_code(tmp_path):
    # a huge learning rate reliably drives the objective non-finite
    cfg = synth_config(tmp_path, name="blow", epochs=3, lr=1e9,
                       lambda_adaptive_discriminant=0.0, lambda_adaptive_center=0.0,
                       dtype="float32")
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    code = main(["train", "--config", cfg_path, "--quiet"])
    assert code == 3


def test_non_finite_held_out_loss_exits_3(tmp_path):
    # One step at lr 1e300 leaves weights whose held-out logits are NaN,
    # though the step's own loss was finite. A fresh interpreter shows
    # whatever else reaches stderr, numpy's warnings among it.
    cfg = synth_config(tmp_path, name="nan", synth_size=4, synth_classes=2, synth_per_class=10,
                       epochs=1, batch_size=100, lr=1e300, lambda_adaptive_discriminant=0.0,
                       lambda_adaptive_center=0.0)
    cfg_path = write_config(cfg, tmp_path / "cfg.txt")
    proc = run_cli("train", "--config", cfg_path, "--quiet")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "non-finite loss: cross-entropy on the test split is non-finite (nan)\n"
    run_dir = tmp_path / "nan"
    assert not (run_dir / "final.ckpt").exists()
    assert (run_dir / "epochs.csv").read_text().count("\n") == 1  # the header alone


def test_eval_of_a_non_finite_held_out_loss_exits_3(synth_run, tmp_path):
    _, run_dir = synth_run
    manifest, arrays = dn.load_bundle(os.path.join(run_dir, "final.ckpt"))
    for name in arrays:
        if re.fullmatch(r"layers\.\d+\.w", name):
            arrays[name] = np.full_like(arrays[name], 1e300)
    path = str(tmp_path / "huge.ckpt")
    dn.save_bundle(path, manifest, arrays)
    proc = run_cli("eval", "--ckpt", path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "non-finite loss: cross-entropy on the test split is non-finite (nan)\n"


# Each size asks for an array of at least 1 PiB, more than a 64-bit
# process can map, so numpy refuses it before anything is allocated.
@pytest.mark.parametrize("command, override", [
    ("train", {"hidden_width": 10**12}),  # a 256 x 10**12 weight
    ("train", {"synth_size": 10**7}),  # 2 class means of 10**14 pixels
    ("eval", {"input_shape": [8, 8, 10**13]}),  # a 9*10**13 x 32 kernel
], ids=["hidden-width", "synth-size", "input-channels"])
def test_an_allocation_too_large_for_memory_exits_1(synth_run, tmp_path, capsys, command,
                                                     override):
    if command == "train":
        cfg_path = write_config(synth_config(tmp_path, epochs=1, **override), tmp_path / "cfg.txt")
        argv = ["train", "--config", cfg_path, "--quiet"]
    else:
        manifest, arrays = dn.load_bundle(os.path.join(synth_run[1], "final.ckpt"))
        manifest["arch_params"].update(override)
        argv = ["eval", "--ckpt", str(tmp_path / "wide.ckpt")]
        dn.save_bundle(argv[-1], manifest, arrays)
    assert main(argv) == 1  # a traceback would escape main and fail the test
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err


def test_checkpoint_restores_accumulator_state(synth_run):
    _, run_dir = synth_run
    net, cfg, aux = dn.load_checkpoint(os.path.join(run_dir, "final.ckpt"))
    stats = aux.neuron_stats
    bank = aux.center_bank
    assert stats is not None and stats.steps == 3 * 144  # one advance per sample
    assert np.any(stats.var_within > 0) and np.any(stats.var_total > 0)
    assert bank is not None and bank.steps == 3 * 144  # the per-sample rule ran
    assert np.any(bank.centers != 0)


def test_float32_checkpoint_owns_its_dtype(tmp_path, capsys):
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
    # 1e39 is finite in the bundle's float64 records, but float32 would load it as inf.
    _assert_eval_rejects_value(ckpt, "layers.0.w", 1e39, capsys, tmp_path)


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
                       lambda_center=0.01)
    run_dir = dn.run_training(cfg)
    steps = open(os.path.join(run_dir, "steps.csv")).read().splitlines()
    header = steps[0].split(",")
    first = steps[1].split(",")
    assert first[header.index("L_C")] != ""      # center component logged
    assert first[header.index("L_AC")] == ""     # adaptive column empty
    _, cfg_loaded, aux = dn.load_checkpoint(os.path.join(run_dir, "final.ckpt"))
    assert aux.center_bank.steps == 2 * (144 // 24)  # the batch rule ran once per step
    assert np.any(aux.center_bank.centers != 0)  # delta rule moved the centers

