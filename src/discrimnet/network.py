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

ARCHITECTURES = ("mnist_small", "comparison")
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
        self._last_out = None  # (shape, dtype) of the last training forward's final output

    def forward(self, x, train=False):
        """Run the chain in the network's dtype; returns a dict of tap
        name -> feature batch.

        Only the tap outputs are kept past their consumer, together with
        a training forward's final shape and dtype for ``backward``; every
        other layer output is freed as soon as the next layer has read it.
        An eval forward keeps no backward state, so ``backward`` after it
        raises RuntimeError.

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
        self._last_out = (x.shape, x.dtype) if train else None
        return {name: kept[idx] for name, idx in self.taps.items()}

    def backward(self, tap_grads):
        """Backpropagate gradients injected at tap points.

        tap_grads maps tap names to gradients of the objective with
        respect to that tap's output. Parameter gradients end up on the
        layers. The first layer is asked for no input gradient, since
        nothing reads it, so nothing is returned.
        """
        if self._last_out is None:
            raise RuntimeError("backward needs a training forward (train=True) first")
        unknown = set(tap_grads) - set(self.taps)
        if unknown:
            raise KeyError(f"gradients for unknown tap points {sorted(unknown)}")
        by_index = {self.taps[name]: g for name, g in tap_grads.items()}
        grad = np.zeros(*self._last_out)
        for i in range(len(self.layers) - 1, -1, -1):
            if i in by_index:
                grad = grad + by_index[i]
            grad = self.layers[i].backward(grad, input_grad=i > 0)

    def predict(self, images, batch_size):
        """Evaluation-mode forward over ``images`` in batches of
        ``batch_size``; returns tap name -> features of every image.

        Each tap's output is allocated once, after the first batch, and
        every batch is copied into its rows.
        """
        out = None
        for start in range(0, len(images), batch_size):
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
            for key, fixed in _RETIRED.items():
                value = params.pop(key, fixed)
                if value != fixed:
                    raise ValueError(f"{key} is retired; it must be {fixed!r}, got {value!r}")
            unknown = sorted(set(params) - set(_ARCH_PARAMS))
            if unknown:
                raise ValueError(f"unknown entries {unknown}")
            net = build_architecture(manifest.get("arch"), **params)
        except (TypeError, ValueError) as e:  # bad arch, entry or size; retired entry off its value
            raise CheckpointError(f"checkpoint carries an invalid arch or arch_params: {e}") from e
        restore_arrays(net.state_arrays(), arrays)
        for i, layer in enumerate(net.layers):
            if isinstance(layer, BatchNorm):  # state that no run of training batches leaves
                if layer.batches_seen[0] < 1:
                    raise CheckpointError(f"entry layers.{i}.state.batches_seen is below 1")
                if np.any(layer.running_var < 0):
                    raise CheckpointError(f"entry layers.{i}.state.running_var is negative")
        return net, manifest, arrays


# Former build_architecture parameters, fixed at the widths every run built.
# Older checkpoints list them in arch_params; each loads only at that value.
_RETIRED = {"conv_channels": [32, 64], "fc1_width": 256, "fc_width": 1024,
            "dropout_keep": Dropout.KEEP}
# The arch_params entries build_architecture records, the only ones a load builds from.
_ARCH_PARAMS = ("input_shape", "num_classes", "hidden_width", "dtype")


# comparison's conv stages: (out_channels, padding) of each 3x3 conv. The
# last stage's three unpadded convs shrink each side of its input by 6.
_COMPARISON_STAGES = (
    ((128, 1), (128, 1), (128, 1)),
    ((256, 1), (256, 1), (256, 1)),
    ((512, 0), (256, 0), (128, 0)),
)


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
    """Construct one of the two stock classification networks.

    "mnist_small": conv/pool stages of 32 and 64 channels, then dense
    layers of 256, ``hidden_width`` and ``num_classes`` units. "comparison":
    the three conv stages of ``_COMPARISON_STAGES``, each conv followed by
    batchnorm and each stage by a pool, then dense layers of 1024,
    ``hidden_width`` and ``num_classes`` units, each of the first two
    followed by dropout at keep probability ``Dropout.KEEP``. Both networks
    tap ``hidden_preact`` at the output of the second-to-last Dense (width
    ``hidden_width``) and ``logits`` at the output of the last. Parameters
    and activations are ``dtype``, float32 or float64. Weights, and the
    dropout masks of "comparison", draw from ``rng``, a numpy Generator
    that defaults to ``seeded_rng(0)``. Every size in ``input_shape``,
    ``num_classes`` and ``hidden_width`` goes through ``check_size``, the
    layers' one rule: an integer of at least 1, never a float or a bool.
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
    if arch == "mnist_small":
        layers = [
            Conv2d(c, 32, padding=1, rng=rng, dtype=dt),
            ReLU(),
            MaxPool2x2(),
            Conv2d(32, 64, padding=1, rng=rng, dtype=dt),
            ReLU(),
            MaxPool2x2(),
            Flatten(),
            Dense((h // 4) * (w // 4) * 64, 256, rng, dt),
            ReLU(),
            Dense(256, hidden_width, rng, dt),
            ReLU(),
            Dense(hidden_width, num_classes, rng, dt),
        ]
    else:
        side_h, side_w = h // 4 - 6, w // 4 - 6
        if side_h < 2 or side_w < 2:
            raise ValueError(
                f"input {h}x{w} is incompatible with the pooling chain "
                f"(unpadded convolutions leave {side_h}x{side_w})"
            )
        layers, channels = [], c
        for stage in _COMPARISON_STAGES:
            for out_channels, padding in stage:
                conv = Conv2d(channels, out_channels, padding=padding, rng=rng, dtype=dt)
                layers.extend([conv, BatchNorm(out_channels, dtype=dt), ReLU()])
                channels = out_channels
            layers.append(MaxPool2x2())
        layers += [
            Flatten(),
            Dense((side_h // 2) * (side_w // 2) * channels, 1024, rng, dt),
            ReLU(),
            Dropout(rng),
            Dense(1024, hidden_width, rng, dt),
            ReLU(),
            Dropout(rng),
            Dense(hidden_width, num_classes, rng, dt),
        ]
    dense = [i for i, layer in enumerate(layers) if isinstance(layer, Dense)]
    taps = {"hidden_preact": dense[-2], "logits": dense[-1]}
    arch_params = {"input_shape": (h, w, c), "num_classes": num_classes,
                   "hidden_width": hidden_width, "dtype": dt.name}
    return Network(layers, taps, arch=arch, arch_params=arch_params, dtype=dt)
