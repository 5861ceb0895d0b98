"""Timing `train.run_training` from outside, by wrapping public functions.

The benchmark changes nothing under `src/`. It replaces module and class
attributes with timing wrappers for the length of one training run and
restores them afterwards. A function is patched where it is looked up:
`train.py` binds `combined_objective`, `augment_batch`, `evaluate` and
the data loaders by name, so those are patched on the `train` module;
the loss functions call each other through the `losses` module; the
streaming accumulators and the network are patched on their classes,
and each layer on its instance.

Untraced runs install only the step clock: five wrappers, each called
once or twice per step, that find the step, epoch and set-up boundaries.
Traced runs add a span around every public call the engine makes during
training. A span holds its name, start, end, parent span and step id;
spans are kept in memory and turned into per-module self time at the end.
"""

import contextlib
import math
import time

import numpy as np

from discrimnet import losses, network, optim, streaming, train
from discrimnet.layers import Conv2d, Dense, Flatten, MaxPool2x2, ReLU

_LAYER_KINDS = {Conv2d: "conv", ReLU: "relu", MaxPool2x2: "pool", Flatten: "flatten", Dense: "dense"}


def layer_names(layers):
    """`conv0`, `relu0`, ..., `flatten`: kind plus index, no index when a kind occurs once."""
    kinds = [_LAYER_KINDS.get(type(layer), type(layer).__name__.lower()) for layer in layers]
    seen = {}
    names = []
    for kind in kinds:
        index = seen.get(kind, 0)
        seen[kind] = index + 1
        names.append(kind if kinds.count(kind) == 1 else f"{kind}{index}")
    return names


class Recorder:
    """Step, epoch and set-up clock of one `run_training` call, plus optional spans."""

    def __init__(self, spans):
        self.spans = spans
        self.names = []
        self._name_ids = {}
        self.name_id, self.start, self.end, self.parent, self.step = [], [], [], [], []
        self._stack = []
        self.conv_inputs = {}      # conv layer name -> (input shape, itemsize, padding, out channels)
        self.param_bytes = 0
        self.run_start = None
        self.setup_s = None
        self.steps_started = 0
        self.step_s = []           # one duration per step, in step order
        self.epoch_s = []
        self.test_eval = []        # (seconds, samples, cross-entropy) per test evaluate
        self._mark = None          # end of the last step or evaluate
        self._epoch_start = None
        self._step_open = False
        self._step_start = None
        self._step_span = None     # parent of top-level spans: the current or just-closed step

    # -- step clock -----------------------------------------------------

    def begin(self):
        self.run_start = time.perf_counter()

    def step_entry(self):
        """First public call of a training step (augment or forward)."""
        if self._step_open:
            return
        now = time.perf_counter()
        if self._mark is None:
            # The first step of the run starts here; everything before is set-up.
            self.setup_s = now - self.run_start
            self._mark = self._epoch_start = now
        self._step_open = True
        self._step_start = self._mark
        self.step_s.append(math.nan)
        if self.spans:
            self._step_span = None
            self._step_span = self._open("train.step", self._step_start, step=self.steps_started)
        self.steps_started += 1

    def step_exit(self):
        """After `SGD.step`, and again after a trailing centre update."""
        now = time.perf_counter()
        self._step_open = False
        self.step_s[-1] = now - self._step_start
        self._mark = now
        if self._step_span is not None:
            self.end[self._step_span] = now

    def eval_done(self, dataset, seconds, result):
        now = time.perf_counter()
        self._mark = now
        if dataset.split == "test":
            self.test_eval.append((seconds, len(dataset), result[0]))
            self.epoch_s.append(now - self._epoch_start)
            self._epoch_start = now

    # -- spans ----------------------------------------------------------

    def _open(self, name, start, step=None):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else self._step_span
        index = len(self.start)
        self.name_id.append(name_id)
        self.start.append(start)
        self.end.append(math.nan)
        self.parent.append(-1 if parent is None else parent)
        self.step.append(step if step is not None else (-1 if parent is None else self.step[parent]))
        return index

    @contextlib.contextmanager
    def span(self, name):
        if not self.spans:
            yield
            return
        index = self._open(name, time.perf_counter())
        self._stack.append(index)
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        # `span` inlined: this runs about 200 times per step on the streaming
        # workload, so it skips the cost of entering a context manager.
        def traced(*args, **kwargs):
            index = self._open(name, time.perf_counter())
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter()
                self._stack.pop()

        return traced

    def span_table(self):
        """Spans as arrays, with each span's self time: its duration minus its children's."""
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = end - start
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return {
            "names": list(self.names),
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "step": np.asarray(self.step, dtype=np.int64),
            "duration": duration,
            "self": duration - children,
        }

    # -- patching -------------------------------------------------------

    def _clock_patches(self):
        rec = self
        forward = network.Network.forward
        sgd_step = optim.SGD.step
        augment = train.augment_batch
        update_minibatch = streaming.CenterBank.update_minibatch
        evaluate = train.evaluate

        def forward_clock(net, x, train=False):
            if not train:
                with rec.span("network.eval_forward"):
                    return forward(net, x, train=False)
            rec.step_entry()
            with rec.span("network.forward"):
                return forward(net, x, train=True)

        def augment_clock(*args, **kwargs):
            rec.step_entry()
            with rec.span("data.augment_batch"):
                return augment(*args, **kwargs)

        def sgd_clock(opt, *args, **kwargs):
            with rec.span("optim.sgd_step"):
                out = sgd_step(opt, *args, **kwargs)
            rec.step_exit()
            return out

        def minibatch_clock(bank, *args, **kwargs):
            with rec.span("streaming.center_minibatch"):
                out = update_minibatch(bank, *args, **kwargs)
            if not rec._step_open and not rec._stack:
                rec.step_exit()  # train.py updates the centres after SGD: same step
            return out

        def evaluate_clock(net, dataset, *args, **kwargs):
            rec._step_span = None
            t0 = time.perf_counter()
            with rec.span("train.evaluate"):
                result = evaluate(net, dataset, *args, **kwargs)
            rec.eval_done(dataset, time.perf_counter() - t0, result)
            return result

        return [
            (network.Network, "forward", forward_clock),
            (optim.SGD, "step", sgd_clock),
            (train, "augment_batch", augment_clock),
            (streaming.CenterBank, "update_minibatch", minibatch_clock),
            (train, "evaluate", evaluate_clock),
        ]

    def _span_patches(self):
        rec = self
        build = train.build_architecture

        def build_traced(*args, **kwargs):
            net = build(*args, **kwargs)
            rec.param_bytes = sum(arr.nbytes for _, arr in net.parameters())
            for name, layer in zip(layer_names(net.layers), net.layers):
                rec._wrap_layer(name, layer)
            return net

        patches = [(train, "build_architecture", build_traced)]
        for owner, attr, name in (
            (train, "load_run_datasets", "train.load_run_datasets"),
            (train, "synth_blobs", "data.synth_blobs"),
            (train, "combined_objective", "losses.objective"),
            (losses, "softmax_cross_entropy", "losses.softmax_ce"),
            (losses, "discriminant_criterion", "losses.discriminant"),
            (losses, "adaptive_discriminant", "losses.adaptive_discriminant"),
            (losses, "center_loss", "losses.center"),
            (losses, "adaptive_center_loss", "losses.adaptive_center"),
            (streaming.NeuronClassStats, "update", "streaming.neuron_update"),
            (streaming.CenterBank, "update_sample", "streaming.center_sample"),
            (network.Network, "backward", "network.backward"),
            (network.Network, "save", "network.save"),
            (network, "save_bundle", "tensor.save_bundle"),
        ):
            patches.append((owner, attr, self.wrap(name, getattr(owner, attr))))
        return patches

    def _wrap_layer(self, name, layer):
        forward, backward = layer.forward, layer.backward
        rec = self
        fwd_span = f"layers.{name}.fwd"

        def forward_traced(x, train=False):
            if not train:
                return forward(x, train=False)
            if isinstance(layer, Conv2d) and name not in rec.conv_inputs:
                rec.conv_inputs[name] = (x.shape, x.dtype.itemsize, layer.padding, layer.out_channels)
            with rec.span(fwd_span):
                return forward(x, train=True)

        layer.forward = forward_traced
        layer.backward = self.wrap(f"layers.{name}.bwd", backward)

    @contextlib.contextmanager
    def installed(self):
        """Patch the engine for one training run; always restore it."""
        patches = self._clock_patches()
        if self.spans:
            patches += self._span_patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
