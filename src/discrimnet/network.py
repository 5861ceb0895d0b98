"""Layer chains with named feature tap points, builders, and checkpoints.

A network is an ordered list of layers plus named tap points: positions
whose forward output is exposed to auxiliary losses and where those
losses inject gradients during backward. Every network declares a
``logits`` tap at its final layer; the classification builders also
declare ``hidden_preact``, the input of the ReLU that follows the
second-to-last fully connected layer.
"""

import numpy as np

from .layers import BatchNorm, Conv2d, Dense, Dropout, Flatten, MaxPool2x2, ReLU
from .tensor import CheckpointError, Rng, load_bundle, restore_arrays, save_bundle

ARCHITECTURES = ("mnist_small", "comparison")


class Network:
    def __init__(self, layers, taps, arch="custom", arch_params=None, seed=None,
                 dtype=np.float64):
        self.layers = list(layers)
        if "logits" not in taps:
            raise ValueError("a network must declare a 'logits' tap")
        for name, idx in taps.items():
            if not 0 <= idx < len(self.layers):
                raise ValueError(f"tap {name!r} points at layer {idx}, out of range")
        self.taps = dict(taps)
        self.arch = arch
        self.arch_params = dict(arch_params or {})
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self._last_out = None  # (shape, dtype) of the last forward's final output

    def forward(self, x, train=False):
        """Run the chain in the network's dtype; returns a dict of tap
        name -> feature batch.

        Only the tap outputs are kept past their consumer, together with
        the final output's shape and dtype for ``backward``; every other
        layer output is freed as soon as the next layer has read it.
        """
        x = np.asarray(x, dtype=self.dtype)
        tapped = set(self.taps.values())
        kept = {}
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, train=train)
            if i in tapped:
                kept[i] = x
        self._last_out = (x.shape, x.dtype)
        return {name: kept[idx] for name, idx in self.taps.items()}

    def backward(self, tap_grads):
        """Backpropagate gradients injected at tap points.

        tap_grads maps tap names to gradients of the objective with
        respect to that tap's output. Parameter gradients end up on the
        layers. The first layer is asked for no input gradient, since
        nothing reads it, so nothing is returned.
        """
        if self._last_out is None:
            raise RuntimeError("backward called before forward")
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
        ``batch_size``; returns tap name -> features of every image."""
        batches = [
            self.forward(images[start : start + batch_size], train=False)
            for start in range(0, len(images), batch_size)
        ]
        return {name: np.concatenate([taps[name] for taps in batches]) for name in self.taps}

    def trace_shapes(self, x):
        """Per-layer output shapes for a given input batch (audit helper)."""
        x = np.asarray(x, dtype=self.dtype)
        shapes = []
        for layer in self.layers:
            x = layer.forward(x, train=True)
            shapes.append(x.shape)
        return shapes

    def parameters(self):
        items = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.parameters():
                items.append((f"layers.{i}.{name}", arr))
        return items

    def gradients(self):
        grads = {}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.parameter_grads():
                grads[f"layers.{i}.{name}"] = arr
        return grads

    def state_arrays(self):
        """Live checkpointed arrays by name: the parameters, then each
        layer's persistent state as ``layers.{i}.state.{name}``."""
        arrays = dict(self.parameters())
        for i, layer in enumerate(self.layers):
            for name, arr in layer.state():
                arrays[f"layers.{i}.state.{name}"] = arr
        return arrays

    def save(self, path, extra_manifest=None, extra_arrays=None):
        """Write a checkpoint bundle: parameters, persistent layer state,
        architecture identity, and any caller-supplied extras."""
        arrays = self.state_arrays()
        if extra_arrays:
            arrays.update(extra_arrays)
        manifest = {
            "kind": "discrimnet-checkpoint",
            "arch": self.arch,
            "arch_params": self.arch_params,
            "seed": self.seed,
        }
        if extra_manifest:
            manifest.update(extra_manifest)
        save_bundle(path, manifest, arrays)

    @classmethod
    def load(cls, path):
        """Rebuild a network from a checkpoint, in the dtype it was saved in.

        Returns (network, manifest, every stored array by name), so a
        caller can restore its own entries from the same bundle.
        """
        manifest, arrays = load_bundle(path)
        if manifest.get("kind") != "discrimnet-checkpoint":
            raise CheckpointError("not a checkpoint bundle")
        arch = manifest.get("arch")
        if arch not in ARCHITECTURES:
            raise CheckpointError(f"checkpoint names unknown architecture {arch!r}")
        try:
            params = dict(manifest.get("arch_params", {}))
            net = build_architecture(arch, rng=Rng(manifest.get("seed") or 0), **params)
        except (TypeError, ValueError) as e:  # an unknown or invalid arch_params entry
            raise CheckpointError(f"checkpoint carries invalid arch_params: {e}") from e
        net.seed = manifest.get("seed")
        restore_arrays(net.state_arrays(), arrays)
        return net, manifest, arrays


def _check_pool_chain(h, w, pools):
    if h % (2**pools) or w % (2**pools):
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
    fc_width=1024,
    conv_channels=None,
    fc1_width=256,
    dropout_keep=0.5,
    dtype="float64",
):
    """Construct one of the two stock classification networks.

    "mnist_small": two conv/pool stages then three fully connected
    layers. "comparison": nine conv stages with batchnorm, three pools,
    then three fully connected layers with dropout. Both expose the
    ``hidden_preact`` tap (width ``hidden_width``) feeding the final
    classifier, and the ``logits`` tap at the output. Parameters and
    activations are ``dtype``, float32 or float64.
    """
    if rng is None:
        rng = Rng(0)
    dt = np.dtype(dtype)
    if dt.name not in ("float32", "float64"):
        raise ValueError(f"unsupported dtype {dtype!r}; use float32 or float64")
    h, w, c = (int(d) for d in input_shape)
    arch_params = {
        "input_shape": (h, w, c),
        "num_classes": int(num_classes),
        "hidden_width": int(hidden_width),
        "dtype": dt.name,
    }
    if arch == "mnist_small":
        cc = tuple(conv_channels) if conv_channels else (32, 64)
        _check_pool_chain(h, w, 2)
        arch_params.update({"conv_channels": cc, "fc1_width": int(fc1_width)})
        flat = (h // 4) * (w // 4) * cc[1]
        layers = [
            Conv2d(c, cc[0], padding=1, rng=rng, dtype=dt),
            ReLU(),
            MaxPool2x2(),
            Conv2d(cc[0], cc[1], padding=1, rng=rng, dtype=dt),
            ReLU(),
            MaxPool2x2(),
            Flatten(),
            Dense(flat, fc1_width, rng, dt),
            ReLU(),
            Dense(fc1_width, hidden_width, rng, dt),
            ReLU(),
            Dense(hidden_width, num_classes, rng, dt),
        ]
        taps = {"hidden_preact": 9, "logits": 11}
    elif arch == "comparison":
        _check_pool_chain(h, w, 2)
        side_h, side_w = h // 4 - 6, w // 4 - 6
        if side_h < 2 or side_w < 2:
            raise ValueError(
                f"input {h}x{w} is incompatible with the pooling chain "
                f"(unpadded convolutions leave {side_h}x{side_w})"
            )
        arch_params.update({"fc_width": int(fc_width), "dropout_keep": float(dropout_keep)})
        flat = (side_h // 2) * (side_w // 2) * 128
        layers = []

        def conv_block(cin, cout, padding):
            conv = Conv2d(cin, cout, padding=padding, rng=rng, dtype=dt)
            layers.extend([conv, BatchNorm(cout, dtype=dt), ReLU()])

        conv_block(c, 128, 1)
        conv_block(128, 128, 1)
        conv_block(128, 128, 1)
        layers.append(MaxPool2x2())
        conv_block(128, 256, 1)
        conv_block(256, 256, 1)
        conv_block(256, 256, 1)
        layers.append(MaxPool2x2())
        conv_block(256, 512, 0)
        conv_block(512, 256, 0)
        conv_block(256, 128, 0)
        layers.append(MaxPool2x2())
        layers.append(Flatten())
        layers.extend(
            [
                Dense(flat, fc_width, rng, dt),
                ReLU(),
                Dropout(dropout_keep, rng),
                Dense(fc_width, hidden_width, rng, dt),
                ReLU(),
                Dropout(dropout_keep, rng),
                Dense(hidden_width, num_classes, rng, dt),
            ]
        )
        hidden_idx = len(layers) - 4  # the Dense feeding the last ReLU/Dropout pair
        taps = {"hidden_preact": hidden_idx, "logits": len(layers) - 1}
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    return Network(layers, taps, arch=arch, arch_params=arch_params, seed=rng.seed, dtype=dt)
