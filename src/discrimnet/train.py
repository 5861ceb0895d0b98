"""Training orchestration: data resolution, the epoch loop, logging,
checkpointing, and evaluation.

Each epoch runs one evaluation pass, over the test split. The epoch's
``train_loss`` and ``train_acc`` are sample-weighted running means over
the training-mode forwards the steps already make (so for ``comparison``
they see dropout and batchnorm in training mode); ``discrimnet eval
--split train`` gives the end-of-run full-pass figure."""

import dataclasses
import math
import os
import time

from .config import ConfigError, RunConfig, config_from_stored, config_to_text
from .data import IdxFormatError, augment_batch, load_idx_dir, synth_blobs
from .losses import (
    CSV_COLUMNS,
    AuxState,
    combined_objective,
    component_cells,
    csv_line,
    softmax_cross_entropy,
)
from .network import Network, build_architecture
from .optim import SGD, lr_at_epoch
from .tensor import CheckpointError, NonFiniteError, restore_arrays, seeded_rng

EPOCH_COLUMNS = (
    "epoch", "lr", "train_loss", "train_acc", "test_loss", "test_acc",
) + CSV_COLUMNS[2:]

# The seed map, kept here and nowhere else. A run's seed gives three
# generators: ``seeded_rng(seed)`` draws the synth images, the data
# stream draws the train/test split and the subsets, and the model
# stream draws the init, the epoch shuffles, the augmentation and the
# dropout masks. So a later eval replays dataset selection without
# replaying training.
_DATA_STREAM, _MODEL_STREAM = 0, 1


def resolve_data_dir(cfg):
    if cfg.data_dir:
        return cfg.data_dir
    env = os.environ.get("DISCRIM_DATA_DIR")
    return env if env else "data"


def load_run_datasets(cfg):
    """Resolve the train/test datasets for a config, including subsetting.

    The data stream draws the synth split, then the train and test
    subsets, for either dataset. Subset selection is a pure function of
    the config, so checkpoints can be re-evaluated on exactly the data
    they were trained on.
    """
    rng = seeded_rng(cfg.seed, _DATA_STREAM)
    if cfg.dataset == "synth":
        full = synth_blobs(
            cfg.synth_classes, cfg.synth_size, cfg.synth_per_class,
            cfg.synth_separation, seeded_rng(cfg.seed),
        )
        n = len(full)
        split = max(1, int(n * 0.8))
        order = rng.permutation(n)
        train = full.subset(order[:split])
        test = full.subset(order[split:])
        test.split = "test"
    else:
        root = os.path.join(resolve_data_dir(cfg), cfg.dataset)
        train = load_idx_dir(root, "train")
        test = load_idx_dir(root, "test")
        if train.images.shape[1:] != test.images.shape[1:]:
            raise IdxFormatError(
                f"{root}: train images are {train.images.shape[1:]}, "
                f"test images {test.images.shape[1:]}"
            )
    if cfg.train_subset:
        train = train.subset(rng.permutation(len(train))[: cfg.train_subset])
    if cfg.test_subset:
        test = test.subset(rng.permutation(len(test))[: cfg.test_subset])
    return train, test


def evaluate(net, dataset, batch_size=100):
    """Mean cross-entropy and top-1 accuracy of a network on a dataset;
    NonFiniteError where the cross-entropy is not finite."""
    z = net.predict(dataset.images, batch_size)["logits"]
    ce, _ = softmax_cross_entropy(z, dataset.labels)
    if not math.isfinite(ce):
        raise NonFiniteError(f"cross-entropy on the {dataset.split} split is non-finite ({ce})")
    return ce, int((z.argmax(axis=1) == dataset.labels).sum()) / len(dataset)


def run_training(cfg: RunConfig, progress=False):
    """Train per the config; returns the run directory.

    The run directory receives the resolved config, a per-step loss CSV,
    a per-epoch metrics CSV, a summary, and the final checkpoint. In the
    per-epoch CSV, ``train_loss`` is each batch's cross-entropy weighted
    by its size and ``train_acc`` the share of samples whose logits, taken
    before that batch's update, put the label first; ``test_loss`` and
    ``test_acc`` come from a full eval-mode pass after the epoch.
    """
    cfg.validate()
    config_text = config_to_text(cfg)
    train, test = load_run_datasets(cfg)
    num_classes = train.num_classes
    model_rng = seeded_rng(cfg.seed, _MODEL_STREAM)
    h, w, c = train.images.shape[1:]
    try:
        net = build_architecture(
            cfg.arch, input_shape=(h, w, c), num_classes=num_classes, rng=model_rng,
            hidden_width=cfg.hidden_width, dtype=cfg.dtype,
        )
    except ValueError as e:  # the input size does not fit the architecture
        raise ConfigError(str(e)) from e
    aux = AuxState(cfg, num_classes)
    opt = SGD(net.parameters(), weight_decay=cfg.weight_decay)

    run_dir = cfg.out_dir
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.txt"), "w", encoding="utf-8") as f:
        f.write(config_text)

    # One copy of the train images in the network's dtype, so training
    # batches and augment_batch run in it.
    train.images = train.images.astype(net.dtype, copy=False)
    step = 0
    best = None
    t_start = time.time()
    with open(os.path.join(run_dir, "steps.csv"), "w", encoding="utf-8") as steps_f, \
         open(os.path.join(run_dir, "epochs.csv"), "w", encoding="utf-8") as epochs_f:
        steps_f.write(",".join(CSV_COLUMNS) + "\n")
        epochs_f.write(",".join(EPOCH_COLUMNS) + "\n")
        for epoch in range(cfg.epochs):
            lr = lr_at_epoch(epoch, cfg.lr, cfg.lr_drop_period)
            order = model_rng.permutation(len(train))
            sums, counts = {}, {}
            ce_sum, correct = 0.0, 0
            for start in range(0, len(train), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                x = train.images[batch]
                if cfg.augment:
                    x = augment_batch(x, model_rng).astype(net.dtype, copy=False)
                y = train.labels[batch]
                taps = net.forward(x, train=True)
                report = combined_objective(aux, taps, y)
                steps_f.write(report.csv_row(step) + "\n")
                ce_sum += report.components["cross_entropy"] * len(batch)
                correct += int((taps["logits"].argmax(axis=1) == y).sum())
                net.backward(report.gradients)
                opt.step(net.gradients(), lr)
                for name, value in report.components.items():
                    sums[name] = sums.get(name, 0.0) + value
                    counts[name] = counts.get(name, 0) + 1
                step += 1
            train_loss, train_acc = ce_sum / len(train), correct / len(train)
            test_loss, test_acc = evaluate(net, test, cfg.batch_size)
            means = {name: sums[name] / counts[name] for name in sums}
            row = [epoch, lr, train_loss, train_acc, test_loss, test_acc] + component_cells(means)
            epochs_f.write(csv_line(row) + "\n")
            if best is None or test_acc > best[1]:
                best = (epoch, test_acc)
            if progress:
                print(
                    f"epoch {epoch}: lr {lr:g} train (running) {train_loss:.4f}/{train_acc:.4f} "
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
        cfg = config_from_stored(manifest.get("config"))
    except (TypeError, ValueError) as e:  # no config, an unknown key or an invalid value
        raise CheckpointError(f"checkpoint carries an invalid run config: {e}") from e
    width = net.arch_params["hidden_width"]
    if cfg.hidden_width != width:
        raise CheckpointError(
            f"checkpoint config has hidden_width {cfg.hidden_width}, "
            f"but its network was built with {width}"
        )
    aux = AuxState(cfg, net.arch_params["num_classes"])
    restore_arrays(aux.state_arrays(), arrays, prefix="aux.")
    return net, cfg, aux
