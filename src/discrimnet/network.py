"""Layer chains with named feature tap points, builders, and checkpoints.

A network is an ordered list of layers plus named tap points: positions
whose forward output is exposed to auxiliary losses and where those
losses inject gradients during backward. Every network declares a
``logits`` tap at its final layer; the classification builders also
declare ``hidden_preact``, the input of the ReLU that follows the
second-to-last fully connected layer.
"""

import numpy as np

from .layers import BatchNorm, Conv2d, Dense, Dropout, Flatten, MaxPool2x2, ReLU, check_size
from .tensor import CheckpointError, load_bundle, restore_arrays, save_bundle, seeded_rng

# Each stock network: its conv stages, as (out_channels, padding) of each
# 3x3 conv with a pool after each stage; its first Dense width; and whether
# it is regularized, with batchnorm after each conv and dropout after each
# hidden Dense.
_STOCK = {
    "mnist_small": ((((32, 1),), ((64, 1),)), 256, False),
    "comparison": ((((128, 1),) * 3, ((256, 1),) * 3, ((512, 0), (256, 0), (128, 0))),
                   1024, True),
}
ARCHITECTURES = tuple(_STOCK)
DTYPES = ("float32", "float64")


class Network:
    def __init__(self, layers, taps, arch="custom", arch_params=None, dtype=np.float64):
        self.layers = list(layers)
        if "logits" not in taps:
            raise ValueError("a network must declare a 'logits' tap")
        for name, idx in taps.items():
            if not 0 <= idx < len(self.layers):
                raise ValueError(f"tap {name!r} points at layer {idx}, out of range")
        self.taps = dict(taps)
        self.arch = arch
        self.arch_params = dict(arch_params or {})
        self.dtype = np.dtype(dtype)
        # The last training forward's final output (shape, dtype) and tap
        # output shapes, kept until the backward that reads them.
        self._last_out = None

    def forward(self, x, train=False):
        """Run the chain in the network's dtype; returns a dict of tap
        name -> feature batch.

        Only the tap outputs are kept past their consumer, together with
        a training forward's final shape and dtype and its tap shapes for
        ``backward``; every other layer output is freed as soon as the
        next layer has read it. An eval forward keeps no backward state,
        so ``backward`` after it raises RuntimeError.

        Layers may overwrite the array they are given (ReLU does), so the
        network owns every array it hands one: the batch is copied on
        entry, and a tap output is copied before the next layer reads it.
        No array the caller holds, ``x`` or a returned tap, is overwritten.
        """
        x = np.array(x, dtype=self.dtype)  # a copy on every numpy version
        tapped = set(self.taps.values())
        last = len(self.layers) - 1
        kept = {}
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, train=train)
            if i in tapped:
                kept[i] = x
                if i < last:
                    x = x.copy()
        taps = {name: kept[idx] for name, idx in self.taps.items()}
        self._last_out = None
        if train:
            self._last_out = (x.shape, x.dtype), {name: f.shape for name, f in taps.items()}
        return taps

    def backward(self, tap_grads):
        """Backpropagate gradients injected at tap points.

        tap_grads maps tap names to gradients of the objective with
        respect to that tap's output, each of that output's shape.
        Parameter gradients end up on the layers. The first layer is asked
        for no input gradient, since nothing reads it, so nothing is
        returned. One backward consumes the training forward's state, so a
        second one raises RuntimeError until the next training forward.
        """
        if self._last_out is None:
            raise RuntimeError("backward needs a training forward (train=True) first")
        out, tap_shapes = self._last_out
        unknown = set(tap_grads) - set(self.taps)
        if unknown:
            raise KeyError(f"gradients for unknown tap points {sorted(unknown)}")
        for name, g in tap_grads.items():
            if np.shape(g) != tap_shapes[name]:
                raise ValueError(f"gradient for tap {name!r} has shape {np.shape(g)}, "
                                 f"its output {tap_shapes[name]}")
        self._last_out = None
        by_index = {self.taps[name]: g for name, g in tap_grads.items()}
        grad = np.zeros(*out)
        for i in range(len(self.layers) - 1, -1, -1):
            if i in by_index:
                grad = grad + by_index[i]
            grad = self.layers[i].backward(grad, input_grad=i > 0)

    def predict(self, images, batch_size):
        """Evaluation-mode forward over ``images`` in batches of
        ``batch_size``; returns tap name -> features of every image.

        Each tap's output is allocated once, after the first batch, and
        every batch is copied into its rows. Zero images run one empty
        batch, so each tap comes back with no rows.
        """
        out = None
        for start in range(0, len(images), batch_size) or [0]:
            taps = self.forward(images[start : start + batch_size], train=False)
            if out is None:
                out = {
                    name: np.empty((len(images),) + f.shape[1:], dtype=f.dtype)
                    for name, f in taps.items()
                }
            for name, f in taps.items():
                out[name][start : start + len(f)] = f
        return out

    def parameters(self):
        return [(f"layers.{i}.{name}", arr)
                for i, layer in enumerate(self.layers) for name, arr in layer.parameters()]

    def gradients(self):
        return {f"layers.{i}.{name}": arr
                for i, layer in enumerate(self.layers) for name, arr in layer.parameter_grads()}

    def state_arrays(self):
        """Live checkpointed arrays by name: the parameters, then each
        layer's persistent state as ``layers.{i}.state.{name}``."""
        arrays = dict(self.parameters())
        arrays.update((f"layers.{i}.state.{name}", arr)
                      for i, layer in enumerate(self.layers) for name, arr in layer.state())
        return arrays

    def save(self, path, extra_manifest=None, extra_arrays=None):
        """Write a checkpoint bundle: parameters, persistent layer state,
        architecture identity, and any caller-supplied extras. ``load``
        rebuilds only the stock architectures, so saving any other network
        raises ValueError and writes nothing."""
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"cannot save arch {self.arch!r}: Network.load rebuilds only "
                             f"{', '.join(ARCHITECTURES)}")
        arrays = self.state_arrays()
        if extra_arrays:
            arrays.update(extra_arrays)
        manifest = {
            "kind": "discrimnet-checkpoint",
            "arch": self.arch,
            "arch_params": self.arch_params,
        }
        if extra_manifest:
            manifest.update(extra_manifest)
        save_bundle(path, manifest, arrays)

    @classmethod
    def load(cls, path):
        """Rebuild a network from a checkpoint, in the dtype it was saved in.

        Returns (network, manifest, every stored array by name), so a
        caller can restore its own entries from the same bundle. The
        bundle overwrites every parameter, so the build takes no seed.
        """
        manifest, arrays = load_bundle(path)
        if manifest.get("kind") != "discrimnet-checkpoint":
            raise CheckpointError("not a checkpoint bundle")
        try:
            params = dict(manifest.get("arch_params", {}))
            unknown = sorted(set(params) - set(_ARCH_PARAMS))
            if unknown:
                raise ValueError(f"unknown entries {unknown}")
            net = build_architecture(manifest.get("arch"), **params)
        except (TypeError, ValueError) as e:  # bad arch, entry or size
            raise CheckpointError(f"checkpoint carries an invalid arch or arch_params: {e}") from e
        restore_arrays(net.state_arrays(), arrays)
        for i, layer in enumerate(net.layers):
            if isinstance(layer, BatchNorm):  # state that no run of training batches leaves
                if layer.batches_seen[0] < 1:
                    raise CheckpointError(f"entry layers.{i}.state.batches_seen is below 1")
                if np.any(layer.running_var < 0):
                    raise CheckpointError(f"entry layers.{i}.state.running_var is negative")
        return net, manifest, arrays


# The arch_params entries build_architecture records, the only ones a load builds from.
_ARCH_PARAMS = ("input_shape", "num_classes", "hidden_width", "dtype")


def _check_pool_chain(h, w, pools):
    side = 2**pools
    if min(h, w) < side or h % side or w % side:
        raise ValueError(
            f"input {h}x{w} is incompatible with the pooling chain "
            f"({pools} halvings)"
        )


def build_architecture(
    arch,
    input_shape=(28, 28, 1),
    num_classes=10,
    rng=None,
    hidden_width=100,
    dtype="float64",
):
    """Construct a stock classification network from its ``_STOCK`` entry.

    One loop builds both: each 3x3 conv of a stage, then batchnorm where
    the entry is regularized, then ReLU; a pool after each stage; Flatten;
    Dense and ReLU, then dropout at keep probability ``Dropout.KEEP`` where
    regularized, at the entry's first width and again at ``hidden_width``;
    a last Dense of ``num_classes`` units. The loop walks the spatial side,
    which gives the first Dense's fan-in. An input side that is no multiple
    of 4, or a pool on a side below 2, raises ValueError. Both networks tap
    ``hidden_preact`` at the output of the second-to-last Dense and
    ``logits`` at the output of the last. Parameters and activations are
    ``dtype``, float32 or float64. Weights, and the dropout masks of
    "comparison", draw from ``rng``, a numpy Generator that defaults to
    ``seeded_rng(0)``. Every size in ``input_shape``, ``num_classes`` and
    ``hidden_width`` goes through ``check_size``, the layers' one rule: an
    integer of at least 1, never a float or a bool.
    """
    if rng is None:
        rng = seeded_rng(0)
    dt = np.dtype(dtype)
    if dt.name not in DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}; use float32 or float64")
    h, w, c = (check_size(d) for d in input_shape)
    num_classes, hidden_width = check_size(num_classes), check_size(hidden_width)
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}")
    _check_pool_chain(h, w, 2)
    stages, first_width, regularized = _STOCK[arch]
    layers, channels, side_h, side_w = [], c, h, w
    for stage in stages:
        for out_channels, padding in stage:
            layers.append(Conv2d(channels, out_channels, padding=padding, rng=rng, dtype=dt))
            layers += [BatchNorm(out_channels, dtype=dt), ReLU()] if regularized else [ReLU()]
            channels = out_channels
            side_h, side_w = side_h + 2 * padding - 2, side_w + 2 * padding - 2
        if side_h < 2 or side_w < 2:
            raise ValueError(f"input {h}x{w} is incompatible with the pooling chain "
                             f"(its convolutions leave {side_h}x{side_w} before a pool)")
        layers.append(MaxPool2x2())
        side_h, side_w = side_h // 2, side_w // 2
    layers.append(Flatten())
    fan_in = side_h * side_w * channels
    for width in (first_width, hidden_width):
        layers += [Dense(fan_in, width, rng, dt), ReLU()] + ([Dropout(rng)] if regularized else [])
        fan_in = width
    layers.append(Dense(fan_in, num_classes, rng, dt))
    dense = [i for i, layer in enumerate(layers) if isinstance(layer, Dense)]
    taps = {"hidden_preact": dense[-2], "logits": dense[-1]}
    arch_params = {"input_shape": (h, w, c), "num_classes": num_classes,
                   "hidden_width": hidden_width, "dtype": dt.name}
    return Network(layers, taps, arch=arch, arch_params=arch_params, dtype=dt)
