"""Training orchestration: data resolution, the epoch loop, logging,
checkpointing, and evaluation."""

import dataclasses
import os
import time

import numpy as np

from .config import ConfigError, RunConfig, save_config_file
from .data import augment_batch, load_idx_dir, synth_blobs
from .losses import (
    _CSV_KEYS,
    CSV_COLUMNS,
    AuxState,
    combined_objective,
    softmax_cross_entropy,
)
from .network import Network, build_architecture
from .optim import SGD, lr_at_epoch
from .tensor import CheckpointError, Rng, restore_arrays

EPOCH_COLUMNS = (
    "epoch", "lr", "train_loss", "train_acc", "test_loss", "test_acc",
) + CSV_COLUMNS[2:]

# One master stream per run, split into fixed-purpose substreams so a
# later eval can replay dataset selection without replaying training.
_DATA_STREAM, _MODEL_STREAM = 0, 1


def resolve_data_dir(cfg):
    if cfg.data_dir:
        return cfg.data_dir
    env = os.environ.get("DISCRIM_DATA_DIR")
    return env if env else "data"


def load_run_datasets(cfg):
    """Resolve the train/test datasets for a config, including subsetting.

    Subset selection is a pure function of the config, so checkpoints can
    be re-evaluated on exactly the data they were trained on.
    """
    if cfg.dataset == "synth":
        full = synth_blobs(
            cfg.synth_classes, cfg.synth_size, cfg.synth_per_class,
            cfg.synth_separation, cfg.seed,
        )
        n = len(full)
        split = max(1, int(n * 0.8))
        order = Rng(cfg.seed).child(_DATA_STREAM).permutation(n)
        train = full.subset(order[:split])
        test = full.subset(order[split:])
        test.split = "test"
    else:
        root = os.path.join(resolve_data_dir(cfg), cfg.dataset)
        train = load_idx_dir(root, "train")
        test = load_idx_dir(root, "test")
        rng = Rng(cfg.seed).child(_DATA_STREAM)
        if cfg.train_subset:
            train = train.subset(rng.permutation(len(train))[: cfg.train_subset])
        if cfg.test_subset:
            test = test.subset(rng.permutation(len(test))[: cfg.test_subset])
    return train, test


def _batch_ranges(n, batch_size):
    for start in range(0, n, batch_size):
        yield np.arange(start, min(start + batch_size, n))


def evaluate(net, dataset, batch_size=100):
    """Mean cross-entropy and top-1 accuracy of a network on a dataset."""
    z = net.predict(dataset.images, batch_size)["logits"]
    ce, _ = softmax_cross_entropy(z, dataset.one_hot(), reduction="sum")
    n = len(dataset)
    return ce / n, int((z.argmax(axis=1) == dataset.labels).sum()) / n


def _fmt(values):
    return ",".join("" if v is None else repr(v) for v in values)


def run_training(cfg: RunConfig, progress=False):
    """Train per the config; returns the run directory.

    The run directory receives the resolved config, a per-step loss CSV,
    a per-epoch metrics CSV, a summary, and the final checkpoint.
    """
    cfg.validate()
    train, test = load_run_datasets(cfg)
    num_classes = train.num_classes
    model_rng = Rng(cfg.seed).child(_MODEL_STREAM)
    h, w, c = train.images.shape[1:]
    try:
        net = build_architecture(
            cfg.arch, input_shape=(h, w, c), num_classes=num_classes, rng=model_rng,
            hidden_width=cfg.hidden_width, fc_width=cfg.fc_width, dtype=cfg.dtype,
        )
    except ValueError as e:  # the input size does not fit the architecture
        raise ConfigError(str(e)) from e
    aux = AuxState(cfg, num_classes, cfg.hidden_width)
    opt = SGD(net.parameters(), momentum=cfg.momentum, weight_decay=cfg.weight_decay)

    run_dir = cfg.out_dir
    os.makedirs(run_dir, exist_ok=True)
    save_config_file(cfg, os.path.join(run_dir, "config.txt"))

    train_x = train.images.astype(net.dtype, copy=False)
    train_t = train.one_hot()
    step = 0
    best = None
    t_start = time.time()
    with open(os.path.join(run_dir, "steps.csv"), "w", encoding="utf-8") as steps_f, \
         open(os.path.join(run_dir, "epochs.csv"), "w", encoding="utf-8") as epochs_f:
        steps_f.write(",".join(CSV_COLUMNS) + "\n")
        epochs_f.write(",".join(EPOCH_COLUMNS) + "\n")
        for epoch in range(cfg.epochs):
            lr = lr_at_epoch(epoch, cfg.lr, cfg.lr_drop_factor, cfg.lr_drop_period)
            order = model_rng.permutation(len(train))
            sums, counts = {}, {}
            for rows in _batch_ranges(len(train), cfg.batch_size):
                batch = order[rows]
                x = train_x[batch]
                if cfg.augment:
                    x = augment_batch(x, model_rng, cfg).astype(net.dtype)
                t = train_t[batch]
                taps = net.forward(x, train=True)
                report = combined_objective(cfg, taps, t, state=aux)
                steps_f.write(report.csv_row(step) + "\n")
                net.backward(report.gradients)
                opt.step(net.gradients(), lr)
                for name, value in report.components.items():
                    sums[name] = sums.get(name, 0.0) + value
                    counts[name] = counts.get(name, 0) + 1
                step += 1
            train_loss, train_acc = evaluate(net, train, cfg.batch_size)
            test_loss, test_acc = evaluate(net, test, cfg.batch_size)
            means = {name: sums[name] / counts[name] for name in sums}
            row = [epoch, lr, train_loss, train_acc, test_loss, test_acc] + [
                means.get(_CSV_KEYS[col]) for col in CSV_COLUMNS[2:]
            ]
            epochs_f.write(_fmt(row) + "\n")
            if best is None or test_acc > best[1]:
                best = (epoch, test_acc)
            if progress:
                print(
                    f"epoch {epoch}: lr {lr:g} train {train_loss:.4f}/{train_acc:.4f} "
                    f"test {test_loss:.4f}/{test_acc:.4f}",
                    flush=True,
                )

    extra_arrays = {f"optim.{k}": v for k, v in opt.state_arrays().items()}
    extra_arrays.update({f"aux.{k}": v for k, v in aux.state_arrays().items()})
    net.save(
        os.path.join(run_dir, "final.ckpt"),
        extra_manifest={"config": dataclasses.asdict(cfg)},
        extra_arrays=extra_arrays,
    )
    with open(os.path.join(run_dir, "summary.txt"), "w", encoding="utf-8") as f:
        f.write(f"final_epoch {cfg.epochs - 1} test_acc {test_acc!r}\n")
        f.write(f"best_epoch {best[0]} test_acc {best[1]!r}\n")
        f.write(f"wall_seconds {time.time() - t_start:.1f}\n")
    return run_dir


def load_checkpoint(path):
    """Load a trainer checkpoint: (network, run config, aux state).

    The network comes back in the dtype it was trained in.
    """
    net, manifest, arrays = Network.load(path)
    try:
        cfg = RunConfig(**manifest.get("config")).validate()
    except (TypeError, ValueError) as e:  # no config, an unknown key or an invalid value
        raise CheckpointError(f"checkpoint carries an invalid run config: {e}") from e
    width = net.arch_params["hidden_width"]
    if cfg.hidden_width != width:
        raise CheckpointError(
            f"checkpoint config has hidden_width {cfg.hidden_width}, "
            f"but its network was built with {width}"
        )
    aux = AuxState(cfg, net.arch_params["num_classes"], width)
    restore_arrays(aux.state_arrays(), arrays, prefix="aux.")
    return net, cfg, aux
