"""Command-line interface: train, eval, export-histogram, export-scatter.

Exit codes: 0 success; 1 a malformed checkpoint or IDX data, a file
that cannot be opened or made (a directory given as a file, a run
directory that is a file), or an array too large for memory;
2 configuration problems, a config file that is not UTF-8 and an empty
out_dir among them; 3 a non-finite loss in a training step, or a
non-finite cross-entropy on the evaluated split in training or eval (the
offending quantity is named in a one-line diagnostic).
"""

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, apply_preset, load_config_file, PRESETS
from .data import IdxFormatError
from .tensor import CheckpointError, NonFiniteError
from .train import evaluate, load_checkpoint, load_run_datasets, run_training


def _build_run_config(args):
    cfg = RunConfig()
    if args.preset:
        cfg = apply_preset(args.preset, base=cfg)
    if args.config:
        cfg = load_config_file(args.config, base=cfg)
    if not args.preset and not args.config:
        raise ConfigError("provide --config and/or --preset")
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.data_dir is not None:
        cfg.data_dir = args.data_dir
    return cfg.validate()


def _dataset_for(args, net, cfg):
    """The split a checkpoint reader reads: the run's own data, or the
    dataset that --data and --data-dir name, which must fit the network."""
    if args.data_dir:
        cfg.data_dir = args.data_dir
    if args.data:
        cfg.dataset = args.data
    train, test = load_run_datasets(cfg.validate())
    dataset = train if args.split == "train" else test
    shape, classes = tuple(net.arch_params["input_shape"]), net.arch_params["num_classes"]
    if (dataset.images.shape[1:], dataset.num_classes) != (shape, classes):
        raise ConfigError(
            f"dataset {cfg.dataset!r} has {dataset.images.shape[1:]} images in "
            f"{dataset.num_classes} classes, but the network takes {shape} in {classes}"
        )
    return dataset


def cmd_train(args):
    cfg = _build_run_config(args)
    run_dir = run_training(cfg, progress=not args.quiet)
    print(f"run written to {run_dir}")
    return 0


def cmd_eval(args):
    net, cfg, _ = load_checkpoint(args.ckpt)
    dataset = _dataset_for(args, net, cfg)
    loss, acc = evaluate(net, dataset, batch_size=cfg.batch_size)
    print(f"split {args.split} loss {loss!r} accuracy {acc!r}")
    return 0


def cmd_export_histogram(args):
    net, cfg, _ = load_checkpoint(args.ckpt)
    dataset = _dataset_for(args, net, cfg)
    k = args.neuron
    if not 0 <= k < dataset.num_classes:
        raise ConfigError(f"neuron {k} out of range for {dataset.num_classes} classes")
    logits = net.predict(dataset.images, cfg.batch_size)["logits"]
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("logit,is_target\n")
        for value, label in zip(logits[:, k], dataset.labels):
            f.write(f"{float(value)!r},{int(label == k)}\n")
    print(f"wrote {len(dataset)} rows to {args.out}")
    return 0


def cmd_export_scatter(args):
    net, cfg, _ = load_checkpoint(args.ckpt)
    width = net.arch_params.get("hidden_width")
    if width != 2:
        raise ConfigError(
            f"scatter export needs a checkpoint trained with hidden width 2, got {width}"
        )
    dataset = _dataset_for(args, net, cfg)
    hidden = net.predict(dataset.images, cfg.batch_size)["hidden_preact"]
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("x1,x2,class\n")
        for (x1, x2), label in zip(hidden, dataset.labels):
            f.write(f"{float(x1)!r},{float(x2)!r},{int(label)}\n")
    means_path = args.means_out or (os.path.splitext(args.out)[0] + "_means.csv")
    with open(means_path, "w", encoding="utf-8") as f:
        f.write("class,x1,x2\n")
        for k in np.unique(dataset.labels):  # classes absent from the split have no mean
            mean = hidden[dataset.labels == k].mean(axis=0)
            f.write(f"{k},{float(mean[0])!r},{float(mean[1])!r}\n")
    print(f"wrote {len(dataset)} rows to {args.out} and means to {means_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="discrimnet",
        description="Train small CNNs with discriminant and center auxiliary losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The checkpoint readers' shared flags; each reader sets its own --split default.
    ckpt = argparse.ArgumentParser(add_help=False)
    ckpt.add_argument("--ckpt", required=True)
    ckpt.add_argument("--data", help="override the checkpoint's dataset")
    ckpt.add_argument("--data-dir")

    p = sub.add_parser("train", help="train a model from a config and/or preset")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--preset", help=f"one of: {', '.join(sorted(PRESETS))}")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="run directory")
    p.add_argument("--data-dir")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[ckpt], help="evaluate a checkpoint")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "export-histogram", parents=[ckpt],
        help="per-sample logit of one output neuron with target membership",
    )
    p.add_argument("--neuron", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.set_defaults(func=cmd_export_histogram)

    p = sub.add_parser(
        "export-scatter", parents=[ckpt],
        help="2-D hidden features per sample plus per-class mean points",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--means-out")
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.set_defaults(func=cmd_export_scatter)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A non-finite value ends the command in one named diagnostic, so
        # numpy's floating-point warnings would only repeat it.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NonFiniteError as e:
        print(f"non-finite loss: {e}", file=sys.stderr)
        return 3
    except (CheckpointError, IdxFormatError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
