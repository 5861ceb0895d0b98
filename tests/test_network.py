import hashlib
import itertools
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import discrimnet as dn
from conftest import (
    finite_difference,
    held_bytes,
    narrow_mnist_small,
    rel_error,
    small_chain,
    traced_peak,
)


def stock_net(seed=0):
    """The stock mnist_small at its own widths, on 8x8 input in 3 classes."""
    return dn.build_architecture("mnist_small", input_shape=(8, 8, 1), num_classes=3,
                                 rng=dn.seeded_rng(seed), hidden_width=8)


def layer_shapes(net, x):
    """Each layer's output shape in one training-mode pass over x."""
    x = np.asarray(x, dtype=net.dtype)
    shapes = []
    for layer in net.layers:
        x = layer.forward(x, train=True)
        shapes.append(x.shape)
    return shapes


def test_mnist_small_shape_chain():
    net = dn.build_architecture("mnist_small", input_shape=(28, 28, 1), num_classes=10,
                                rng=dn.seeded_rng(0))
    shapes = layer_shapes(net, np.zeros((2, 28, 28, 1)))
    want = [
        (2, 28, 28, 32),  # conv 3x3 pad 1
        (2, 28, 28, 32),  # relu
        (2, 14, 14, 32),  # maxpool
        (2, 14, 14, 64),
        (2, 14, 14, 64),
        (2, 7, 7, 64),
        (2, 3136),        # flatten
        (2, 256),
        (2, 256),
        (2, 100),
        (2, 100),
        (2, 10),
    ]
    assert shapes == want


def test_comparison_shape_chain_32x32():
    net = dn.build_architecture("comparison", input_shape=(32, 32, 3), num_classes=10,
                                rng=dn.seeded_rng(0))
    shapes = layer_shapes(net, np.zeros((1, 32, 32, 3)))
    assert shapes[0] == (1, 32, 32, 128)    # conv 3x3 pad 1
    # after two pools: 8x8; three unpadded convs: 6x6x512, 4x4x256, 2x2x128
    assert shapes[9] == (1, 16, 16, 128)    # first maxpool
    assert shapes[19] == (1, 8, 8, 256)     # second maxpool
    assert shapes[20] == (1, 6, 6, 512)
    assert shapes[23] == (1, 4, 4, 256)
    assert shapes[26] == (1, 2, 2, 128)
    assert shapes[29] == (1, 1, 1, 128)     # third maxpool
    assert shapes[30] == (1, 128)           # flatten
    assert shapes[31] == (1, 1024)          # fc width default
    assert shapes[34] == (1, 100)           # hidden width
    assert shapes[-1] == (1, 10)
    assert net.taps == {"hidden_preact": 34, "logits": 37}


def test_hidden_preact_tap_width():
    for arch, shape in (("mnist_small", (28, 28, 1)), ("comparison", (32, 32, 3))):
        net = dn.build_architecture(arch, input_shape=shape, num_classes=10, rng=dn.seeded_rng(0))
        taps = net.forward(np.zeros((3,) + shape, dtype=np.float64), train=True)
        assert taps["hidden_preact"].shape == (3, 100)
        assert taps["logits"].shape == (3, 10)


def test_pooling_chain_validation():
    with pytest.raises(ValueError):
        dn.build_architecture("mnist_small", input_shape=(30, 28, 1), rng=dn.seeded_rng(0))
    with pytest.raises(ValueError):
        dn.build_architecture("comparison", input_shape=(28, 28, 3), rng=dn.seeded_rng(0))
    with pytest.raises(ValueError):
        dn.build_architecture("no_such_arch", input_shape=(28, 28, 1), rng=dn.seeded_rng(0))
    # Zero sizes: sides below 2**pools pass the divisibility test (0 % 4 == 0),
    # and an empty layer has a zero fan-in.
    for sizes in ({"input_shape": (0, 0, 1)}, {"input_shape": (2, 2, 1)},
                  {"input_shape": (8, 8, 0)}, {"hidden_width": 0}, {"num_classes": 0}):
        with pytest.raises(ValueError, match="pooling chain|layer sizes must be positive"):
            dn.build_architecture("mnist_small", **{"input_shape": (8, 8, 1), **sizes})


# The stock networks' layer classes, in order.
MNIST_SMALL = ([dn.Conv2d, dn.ReLU, dn.MaxPool2x2] * 2 + [dn.Flatten]
               + [dn.Dense, dn.ReLU] * 2 + [dn.Dense])
COMPARISON = (([dn.Conv2d, dn.BatchNorm, dn.ReLU] * 3 + [dn.MaxPool2x2]) * 3 + [dn.Flatten]
              + [dn.Dense, dn.ReLU, dn.Dropout] * 2 + [dn.Dense])


@pytest.mark.parametrize("arch, shape, classes, taps, digest", [
    ("mnist_small", (28, 28, 1), MNIST_SMALL, {"hidden_preact": 9, "logits": 11},
     "b403b8feb8dcee0a"),
    ("comparison", (32, 32, 3), COMPARISON, {"hidden_preact": 34, "logits": 37},
     "55821329ad934202"),
    ("comparison", (36, 40, 3), COMPARISON, {"hidden_preact": 34, "logits": 37},
     "5287705dc33a0b40"),
])
def test_stock_builders_keep_their_layers_draws_and_inputs(arch, shape, classes, taps, digest):
    # Pins each stock network's layer list, taps and every parameter and
    # state bit its seeded build draws, so a rewrite of the builders that
    # moves a layer or a draw shows here.
    net = dn.build_architecture(arch, input_shape=shape, num_classes=10, rng=dn.seeded_rng(0),
                                hidden_width=8, dtype="float32")
    assert [type(layer) for layer in net.layers] == classes
    assert net.taps == taps
    h = hashlib.sha256()
    for name, arr in net.state_arrays().items():
        h.update(name.encode("utf-8"))
        h.update(arr.tobytes())
    assert h.hexdigest()[:16] == digest

    # The inputs the builders refuse, and one they accept.
    refused = [("mnist_small", {"input_shape": (30, 28, 1)}),
               ("comparison", {"input_shape": (28, 28, 3)}),
               ("comparison", {"input_shape": (32, 28, 3)}),
               ("no_such_arch", {})]
    refused += [(name, {"input_shape": (0, 0, 3)}) for name in ("mnist_small", "comparison")]
    refused += [(arch, {size: 0}) for size in ("hidden_width", "num_classes")]
    for name, sizes in refused:
        with pytest.raises(ValueError):
            dn.build_architecture(name, **{"input_shape": shape, **sizes})
    dn.build_architecture("comparison", input_shape=(36, 36, 3), num_classes=10,
                          hidden_width=8, dtype="float32")  # its third pool gets an odd side


def test_builders_accept_the_sides_their_pools_take_on_a_grid():
    # Sides must be multiples of 4, and comparison's unpadded convs must
    # leave a side of at least 2 for its third pool: h // 4 - 6 >= 2. The
    # first Dense's fan-in is what the last pool leaves, times its channels.
    sides = (2, 3, 4, 6, 28, 30, 32, 36, 40)
    rules = {
        "mnist_small": (lambda h, w: True, lambda h, w: (h // 4) * (w // 4) * 64),
        "comparison": (lambda h, w: min(h, w) // 4 - 6 >= 2,
                       lambda h, w: ((h // 4 - 6) // 2) * ((w // 4 - 6) // 2) * 128),
    }
    for arch, (fits, in_dim) in rules.items():
        for h, w, c in itertools.product(sides, sides, (1, 3)):
            shape = (h, w, c)
            if h % 4 or w % 4 or not fits(h, w):
                with pytest.raises(ValueError, match="pooling chain"):
                    dn.build_architecture(arch, input_shape=shape, num_classes=2,
                                          hidden_width=2, dtype="float32")
                continue
            net = dn.build_architecture(arch, input_shape=shape, num_classes=2,
                                        hidden_width=2, dtype="float32")
            first = next(layer for layer in net.layers if isinstance(layer, dn.Dense))
            assert first.in_dim == in_dim(h, w), (arch, shape)


@pytest.mark.parametrize("sizes", [
    {"input_shape": (8.9, 8, 1)},
    {"input_shape": (8, 8, np.bool_(True))},
    {"hidden_width": 4.7},
    {"num_classes": True},
    {"num_classes": np.float64(3.0)},
], ids=["float-side", "numpy-bool-channels", "float-width", "bool-classes",
        "numpy-float-classes"])
def test_build_architecture_refuses_non_integer_sizes(sizes):
    # int() took 8.9 as 8 and 4.7 as 4, and built a network of other sizes.
    with pytest.raises(TypeError, match="not an integer"):
        dn.build_architecture("mnist_small", **{"input_shape": (8, 8, 1), "num_classes": 3,
                                                "hidden_width": 4, **sizes})


def test_numpy_integer_sizes_build_and_record_python_ints(tmp_path):
    net = dn.build_architecture("mnist_small", input_shape=np.array([8, 8, 1]),
                                num_classes=np.int64(3), hidden_width=np.int32(4))
    want = {"input_shape": (8, 8, 1), "num_classes": 3, "hidden_width": 4, "dtype": "float64"}
    assert net.arch_params == want
    sizes = [*net.arch_params["input_shape"], net.arch_params["num_classes"],
             net.arch_params["hidden_width"]]
    assert all(type(size) is int for size in sizes)
    path = str(tmp_path / "net.ckpt")
    net.save(path)
    loaded, manifest, _ = dn.Network.load(path)
    assert manifest["arch_params"] == {**want, "input_shape": [8, 8, 1]}
    assert loaded.arch_params == want


def test_forward_is_deterministic_bitwise():
    x = dn.seeded_rng(40).normal(size=(4, 8, 8, 1))
    a = stock_net(seed=7).forward(x)["logits"]
    b = stock_net(seed=7).forward(x)["logits"]
    assert_array_equal(a, b)


def test_different_seeds_differ():
    x = dn.seeded_rng(41).normal(size=(2, 8, 8, 1))
    a = stock_net(seed=1).forward(x)["logits"]
    b = stock_net(seed=2).forward(x)["logits"]
    assert np.any(a != b)


def test_backward_fills_all_parameter_gradients():
    net = narrow_mnist_small()
    x = dn.seeded_rng(42).normal(size=(4, 8, 8, 1))
    taps = net.forward(x, train=True)
    net.backward({"logits": np.ones_like(taps["logits"])})
    grads = net.gradients()
    params = dict(net.parameters())
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape


def test_full_network_gradient_check_with_logits_loss():
    net = narrow_mnist_small(seed=3)
    rng = dn.seeded_rng(43)
    x = rng.normal(size=(4, 8, 8, 1))
    t = rng.integers(0, 3, 4)

    def loss_for_current_params():
        taps = net.forward(x, train=True)
        return dn.softmax_cross_entropy(taps["logits"], t)[0]

    taps = net.forward(x, train=True)
    _, dz = dn.softmax_cross_entropy(taps["logits"], t)
    net.backward({"logits": dz})
    analytic = {k: v.copy() for k, v in net.gradients().items()}

    for name, param in net.parameters():
        def scalar(p, _param=param):
            _param[...] = p
            return loss_for_current_params()
        orig = param.copy()
        fd = finite_difference(scalar, orig.copy())
        param[...] = orig
        assert rel_error(analytic[name], fd) < 1e-3, name


def test_tap_gradient_injection_adds_to_backprop():
    # Injecting a gradient at hidden_preact must change earlier-layer
    # gradients but leave later layers' parameter gradients alone.
    net = narrow_mnist_small(seed=5)
    x = dn.seeded_rng(44).normal(size=(4, 8, 8, 1))
    taps = net.forward(x, train=True)
    dz = np.ones_like(taps["logits"])
    net.backward({"logits": dz})
    base = {k: v.copy() for k, v in net.gradients().items()}

    net.forward(x, train=True)
    dx = np.ones_like(taps["hidden_preact"])
    net.backward({"logits": dz, "hidden_preact": dx})
    combined = net.gradients()

    assert_array_equal(combined["layers.11.w"], base["layers.11.w"])  # final FC untouched
    assert np.any(combined["layers.9.w"] != base["layers.9.w"])       # hidden FC sees injection
    assert np.any(combined["layers.0.w"] != base["layers.0.w"])


def test_backward_rejects_unknown_taps_and_requires_forward():
    net = narrow_mnist_small()
    with pytest.raises(RuntimeError):
        net.backward({"logits": np.zeros((1, 3))})
    net.forward(np.zeros((1, 8, 8, 1)), train=True)
    with pytest.raises(KeyError):
        net.backward({"nonsense": np.zeros((1, 3))})
    # A gradient of another shape than its tap's output would broadcast
    # into a wrong weight gradient; it is refused, naming both shapes.
    taps = net.forward(dn.seeded_rng(51).normal(size=(5, 8, 8, 1)), train=True)
    for name, grad in (("logits", np.ones(3)), ("hidden_preact", np.ones((1, 8)))):
        with pytest.raises(ValueError, match=rf"{name}.*{re.escape(str(grad.shape))}.*\(5, "):
            net.backward({name: grad})
    net.backward({name: np.ones_like(f) for name, f in taps.items()})  # the state is intact


def test_backward_after_an_eval_forward_raises():
    net = narrow_mnist_small()
    x = dn.seeded_rng(52).normal(size=(2, 8, 8, 1))
    taps = net.forward(x, train=True)
    net.backward({"logits": np.ones_like(taps["logits"])})
    with pytest.raises(RuntimeError, match="train=True"):
        net.backward({"logits": np.ones_like(taps["logits"])})  # the first backward consumed it
    net.forward(x, train=True)
    taps = net.forward(x, train=False)
    with pytest.raises(RuntimeError, match="train=True"):
        net.backward({"logits": np.ones_like(taps["logits"])})


def test_checkpoint_round_trip(tmp_path):
    net = stock_net(seed=9)
    x = dn.seeded_rng(45).normal(size=(2, 8, 8, 1))
    want = net.forward(x)["logits"]
    path = tmp_path / "net.ckpt"
    net.save(path, extra_manifest={"config": {"note": 1}}, extra_arrays={"extra.v": np.ones(3)})
    loaded, manifest, arrays = dn.Network.load(path)
    assert manifest["config"] == {"note": 1}
    assert_array_equal(arrays["extra.v"], np.ones(3))
    got = loaded.forward(x)["logits"]
    assert_array_equal(got, want)


def test_save_refuses_a_network_load_cannot_rebuild(tmp_path):
    path = tmp_path / "net.ckpt"
    with pytest.raises(ValueError, match="custom"):
        narrow_mnist_small().save(path)
    assert not path.exists()


def test_predict_concatenates_batches_in_the_network_dtype():
    net = narrow_mnist_small(seed=3, dtype="float32")
    x = dn.seeded_rng(47).normal(size=(7, 8, 8, 1))
    whole = net.forward(x)
    got = net.predict(x, 3)  # batches of 3, 3 and 1
    per_batch = [net.forward(x[start : start + 3]) for start in (0, 3, 6)]
    assert set(got) == {"hidden_preact", "logits"}
    for name, features in got.items():
        assert features.dtype == np.float32 and features.shape == whole[name].shape
        assert_allclose(features, whole[name], rtol=1e-5, atol=1e-6)
        assert_array_equal(features, np.concatenate([taps[name] for taps in per_batch]))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_predict_on_zero_images_gives_empty_taps(dtype):
    # predict allocated its outputs after the first batch and zero images
    # run none, so it returned None; Flatten's reshape(n, -1) also refused
    # a batch of no samples.
    net = dn.build_architecture("mnist_small", input_shape=(8, 8, 1), num_classes=3,
                                hidden_width=4, dtype=dtype)
    got = net.predict(np.zeros((0, 8, 8, 1)), 5)
    assert {name: (f.shape, f.dtype) for name, f in got.items()} == {
        "hidden_preact": ((0, 4), np.dtype(dtype)), "logits": ((0, 3), np.dtype(dtype))}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_predict_equals_training_forwards_bit_for_bit(dtype):
    # Eval forwards of the one-channel first convolution write patch-major
    # columns, training forwards row-major ones; BLAS packs both into the
    # same panels, so every held-out figure keeps its bits.
    net = dn.build_architecture("mnist_small", input_shape=(28, 28, 1), num_classes=10,
                                rng=dn.seeded_rng(5), dtype=dtype)
    x = dn.seeded_rng(58).uniform(0.0, 1.0, (250, 28, 28, 1))
    got = net.predict(x, 100)  # batches of 100, 100 and 50
    per_batch = [net.forward(x[start : start + 100], train=True) for start in (0, 100, 200)]
    for name, features in got.items():
        want = np.concatenate([taps[name] for taps in per_batch])
        assert features.dtype == want.dtype == np.dtype(dtype)
        uint = np.dtype(f"u{want.itemsize}")
        assert_array_equal(features.view(uint), want.view(uint))


def test_predict_holds_each_output_once():
    # Keeping every batch's taps and concatenating them at the end holds
    # each output twice (a peak of 2.13 times the returned bytes at numpy
    # 2.4); writing each batch into preallocated rows holds it once, plus
    # one batch of activations (1.16 times).
    net = narrow_mnist_small(seed=4, hidden=256, classes=10)
    x = dn.seeded_rng(53).normal(size=(2000, 8, 8, 1))
    got = {}
    peak, _ = traced_peak(lambda: got.update(net.predict(x, 40)))
    returned = sum(features.nbytes for features in got.values())
    assert returned == 2000 * (256 + 10) * 8
    assert peak < 1.25 * returned


def _warm_mnist_small_f32():
    """A float32 28x28 mnist_small after one training step and one eval
    forward at batch 100, and a batch for its next forward."""
    net = dn.build_architecture("mnist_small", input_shape=(28, 28, 1), num_classes=10,
                                rng=dn.seeded_rng(0), dtype="float32")
    x = dn.seeded_rng(54).normal(size=(100, 28, 28, 1)).astype(np.float32)
    taps = net.forward(x, train=True)
    net.backward({"logits": np.ones_like(taps["logits"])})
    net.forward(x, train=False)
    return net, x


def test_eval_forward_keeps_no_backward_state():
    # What an eval forward still holds when it returns is what the layers
    # keep until the next forward: a few input shapes, under 1 KB at numpy
    # 2.4. Keeping backward state in eval holds 22.8 MB: pool0's and
    # pool1's inputs and outputs (18.75 MB), the ReLU masks (3.9 MB) and
    # the dense inputs; the dense inputs alone are 1.4 MB.
    net, x = _warm_mnist_small_f32()
    _, held = traced_peak(lambda: net.forward(x, train=False))
    assert held < 64e3


def test_training_step_leaves_no_activation_sized_array_in_the_layers():
    # Each backward drops what its training forward kept, so after a step
    # the layers hold their parameters and gradients and nothing else.
    # Keeping backward state from one step into the next held 12.1 MB of
    # arrays in the layers (the ReLU masks, pool indices, dense inputs
    # and the conv padded inputs and column workspaces), 6.1 MB of it
    # allocated by the step itself.
    net, x = _warm_mnist_small_f32()

    def step():
        taps = net.forward(x, train=True)
        net.backward({"logits": np.ones_like(taps["logits"])})

    _, held = traced_peak(step)
    assert sum(held_bytes(layer) for layer in net.layers) == 0
    assert held < 64e3


def _warm_mnist_small_sgd(dtype="float64"):
    """A 28x28 mnist_small after one training step, its optimizer, and a
    batch at 100 for the next step."""
    net = dn.build_architecture("mnist_small", input_shape=(28, 28, 1), num_classes=10,
                                rng=dn.seeded_rng(0), dtype=dtype)
    x = dn.seeded_rng(57).normal(size=(100, 28, 28, 1)).astype(dtype)
    opt = dn.SGD(net.parameters())
    taps = net.forward(x, train=True)
    net.backward({"logits": np.ones_like(taps["logits"])})
    opt.step(net.gradients(), 1e-3)
    return net, x, opt


def test_float64_training_steps_peak_below_the_kept_state_bound():
    # Every array of two float64 mnist_small training steps at batch 100,
    # the benchmark's float64 shape, from the build on: parameters,
    # gradients, the optimizer's scratch, the batch and the steps'
    # activations. The live peak is 49.2 MB at numpy 2.4 when each
    # backward drops its forward's state and routes the pool gradient
    # without a full-size boolean, ReLU keeps packed bits and the conv
    # input gradient is built unpadded (52.1 MB with boolean masks and a
    # padded one), and 70.1 MB when the layers keep that state from one
    # step into the next (masks, pool indices, dense inputs, conv padded
    # inputs and column workspaces). The bound sits between the last two,
    # so a re-growth fails here and not only in the benchmark's
    # peak_rss_mb; the warmed-step test below pins the smaller moves.
    def train_two_steps():
        net = dn.build_architecture("mnist_small", input_shape=(28, 28, 1), num_classes=10,
                                    rng=dn.seeded_rng(0), dtype="float64")
        opt = dn.SGD(net.parameters())
        x = dn.seeded_rng(60).normal(size=(100, 28, 28, 1))
        for _ in range(2):
            taps = net.forward(x, train=True)
            net.backward({"logits": np.ones_like(taps["logits"])})
            opt.step(net.gradients(), 1e-3)

    peak, _ = traced_peak(train_two_steps)
    assert peak < 60e6


@pytest.mark.parametrize("dtype, bound", [("float32", 14.5e6), ("float64", 28.0e6)])
def test_warmed_training_step_peak(dtype, bound):
    # One mnist_small step at batch 100 (forward, backward and SGD) after
    # a first one peaks at 14.40 MB float32 and 27.85 MB float64 at numpy
    # 2.4, in conv1's forward; pool0's forward and backward, which hold
    # conv0's output or its gradient beside their pooled quarter, come
    # within 1 MB of it. Boolean ReLU masks and a conv input gradient left
    # as a view of its padded buffer peaked at 17.00 and 30.80 MB. Each
    # bound sits between the two.
    net, x, opt = _warm_mnist_small_sgd(dtype)

    def step():
        taps = net.forward(x, train=True)
        net.backward({"logits": np.ones_like(taps["logits"])})
        opt.step(net.gradients(), 1e-3)

    peak, _ = traced_peak(step)
    assert peak < bound


def test_relu_allocates_only_its_mask():
    # relu0 sees 100x28x28x32 float64 activations (20.1 MB). In place, its
    # forward allocates the packed mask, ceil(size / 8) bytes (0.31 MB),
    # and one chunk's scratch: a boolean per element and its packed bytes,
    # PACK + PACK / 8 bytes (72 KB), plus 16 KB for numpy's and Python's
    # small objects. Its backward allocates one chunk of unpacked bits,
    # UNPACK bytes (8 KB), and numpy's cast buffer for them (bufsize
    # elements of the gradient's dtype, 64 KB). A boolean mask takes 2.5
    # MB, and unpacking twice as many bits per chunk breaks the backward
    # bound; a fresh output or gradient each call peaks at 22.6 and 20.1
    # MB. A training forward frees the last one's mask before it makes its
    # own, so two in a row at the same shape never hold two masks.
    net, x, _ = _warm_mnist_small_sgd()
    act = net.layers[0].forward(x, train=True)
    act2 = net.layers[0].forward(x, train=True)
    relu0 = net.layers[1]

    def two_forwards():
        relu0.forward(act, train=True)
        relu0.forward(act2, train=True)

    peak, _ = traced_peak(two_forwards)
    assert peak <= -(-act.size // 8) + dn.ReLU.PACK * 9 // 8 + 16 * 1024
    grad = np.ones_like(act)
    peak, _ = traced_peak(lambda: relu0.backward(grad))
    assert peak < np.getbufsize() * grad.itemsize + 16 * 1024


def test_sgd_step_allocates_no_parameter_sized_temporaries():
    # The finiteness check and the update need only their scratch blocks,
    # allocated with the optimizer. A whole-array finiteness check
    # allocates a boolean per dense0 weight (0.8 MB), and the whole-array
    # formula peaks at 12.85 MB.
    net, x, opt = _warm_mnist_small_sgd()
    taps = net.forward(x, train=True)
    net.backward({"logits": np.ones_like(taps["logits"])})
    grads = net.gradients()
    peak, _ = traced_peak(lambda: opt.step(grads, 1e-3))
    assert peak < 0.3e6


def test_forward_leaves_the_callers_arrays_unchanged():
    # The network copies the batch before ReLU, its first layer, rectifies
    # it in place, and the tap at index 2 before ReLU 3 reads it. Backward
    # adds each tap gradient into a fresh array before a layer sees it.
    rng = dn.seeded_rng(58)
    net = dn.Network([dn.ReLU(), dn.Dense(6, 5, rng), dn.ReLU(), dn.Dense(5, 3, rng)],
                     {"act": 2, "logits": 3})
    x = rng.normal(size=(4, 6))
    kept = x.copy()
    for train in (False, True):
        taps = net.forward(x, train=train)
        assert_array_equal(x, kept)
        assert (x < 0).any()
    grads = {name: rng.normal(size=f.shape) for name, f in taps.items()}
    kept_grads = {name: g.copy() for name, g in grads.items()}
    net.backward(grads)
    for name, g in grads.items():
        assert_array_equal(g, kept_grads[name])


@pytest.mark.parametrize("train", [False, True])
def test_hidden_preact_tap_keeps_its_negative_entries(train):
    # hidden_preact (layer 9) feeds relu3, which works in place, so the
    # network must copy it first. Reference: each layer run on a copy of
    # the previous output.
    net = narrow_mnist_small(seed=5)
    x = dn.seeded_rng(59).normal(size=(6, 8, 8, 1))
    want = []
    a = x.copy()
    for layer in net.layers:
        a = layer.forward(a.copy(), train=train)
        want.append(a)
    taps = net.forward(x, train=train)
    for name, idx in net.taps.items():
        assert_array_equal(taps[name], want[idx])
    assert (taps["hidden_preact"] < 0).any()


def test_forward_keeps_only_tap_outputs():
    net = narrow_mnist_small()
    conv0 = net.layers[0]
    forward = conv0.forward
    refs = []

    def recording(x, train=False):
        out = forward(x, train=train)
        refs.append(weakref.ref(out))
        return out

    conv0.forward = recording
    taps = net.forward(dn.seeded_rng(48).normal(size=(2, 8, 8, 1)), train=True)
    assert refs[0]() is None
    assert net.backward({"logits": np.ones_like(taps["logits"])}) is None  # no input gradient


def test_second_step_peak_is_a_few_activations():
    # tracemalloc counts numpy's array buffers, so the figure is a byte
    # count, not a timing. Tracing starts after a first same-shape step,
    # which leaves the layers holding no backward state, and the second
    # step keeps no untapped layer output past its consumer; its peak
    # (4.13 MB at numpy 2.4, float32, batch 16) is then a few activations,
    # their gradients and one call's padded input and column chunk.
    net = dn.build_architecture("mnist_small", input_shape=(28, 28, 1), num_classes=10,
                                rng=dn.seeded_rng(0), dtype="float32")
    x = dn.seeded_rng(49).normal(size=(16, 28, 28, 1)).astype(np.float32)

    def step():
        taps = net.forward(x, train=True)
        net.backward({"logits": np.ones_like(taps["logits"])})

    step()
    peak, _ = traced_peak(step)
    assert peak < 5.0e6


def test_second_backward_allocates_no_second_weight_gradient():
    # Tracing starts after the first step, so the peak counts what the
    # second backward allocates. Each weight gradient goes into the buffer
    # the first backward allocated; the peak (3.25 MB at numpy 2.4, float32,
    # batch 16) is then the activation gradients. A fresh dw per step adds
    # dense0's 3.2 MB weight gradient, which coexists with the previous
    # one until it replaces it (6.64 MB). The bound sits between the two.
    net = dn.build_architecture("mnist_small", input_shape=(28, 28, 1), num_classes=10,
                                rng=dn.seeded_rng(0), dtype="float32")
    x = dn.seeded_rng(50).normal(size=(16, 28, 28, 1)).astype(np.float32)
    taps = net.forward(x, train=True)
    net.backward({"logits": np.ones_like(taps["logits"])})
    first = net.gradients()
    taps = net.forward(x, train=True)
    grad = {"logits": np.ones_like(taps["logits"])}
    peak, _ = traced_peak(lambda: net.backward(grad))
    assert peak < 5.0e6
    second = net.gradients()
    assert all(second[name] is first[name] for name in first if name.endswith(".w"))


def test_checkpoint_truncation_is_a_clean_error(tmp_path):
    net = stock_net()
    path = tmp_path / "net.ckpt"
    net.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(dn.CheckpointError):
        dn.Network.load(path)


def test_checkpoint_preserves_batchnorm_state(tmp_path):
    net = dn.build_architecture("comparison", input_shape=(32, 32, 3), num_classes=4,
                                rng=dn.seeded_rng(11), hidden_width=8)
    rng = dn.seeded_rng(46)
    for _ in range(2):
        net.forward(rng.normal(size=(2, 32, 32, 3)), train=True)
    x = rng.normal(size=(2, 32, 32, 3))
    want = net.forward(x, train=False)["logits"]
    path = tmp_path / "bn.ckpt"
    net.save(path)
    loaded, _, _ = dn.Network.load(path)
    got = loaded.forward(x, train=False)["logits"]
    assert_allclose(got, want, rtol=1e-12)


def test_comparison_shape_chain_96x96_float32():
    # the larger native input exercises the odd-sized pooling tail:
    # 96 -> 24 after two pools, 22/20/18 through the unpadded convs,
    # 18 -> 9 at the last pool, flat 9*9*128
    net = dn.build_architecture("comparison", input_shape=(96, 96, 3),
                                num_classes=10, rng=dn.seeded_rng(0), dtype="float32")
    shapes = layer_shapes(net, np.zeros((1, 96, 96, 3), dtype=np.float32))
    assert shapes[9] == (1, 48, 48, 128)
    assert shapes[19] == (1, 24, 24, 256)
    assert shapes[20] == (1, 22, 22, 512)
    assert shapes[23] == (1, 20, 20, 256)
    assert shapes[26] == (1, 18, 18, 128)
    assert shapes[29] == (1, 9, 9, 128)
    assert shapes[30] == (1, 9 * 9 * 128)
    assert shapes[34] == (1, 100)
    assert shapes[-1] == (1, 10)


def test_state_arrays_stay_live_through_training_steps():
    # A checkpoint or resume that keeps the state_arrays() dicts must see
    # the trained values: every owner updates its arrays in place.
    net = dn.build_architecture("comparison", input_shape=(32, 32, 3), num_classes=4,
                                rng=dn.seeded_rng(12), hidden_width=4)
    auxes = [dn.AuxState(dn.apply_preset(name, dn.RunConfig(hidden_width=4)), 4)
             for name in ("mnist-combined", "mnist-center")]
    opt = dn.SGD(net.parameters())
    owners = {"net": net, "combined": auxes[0], "center": auxes[1], "optim": opt}
    live = {f"{owner}.{name}": arr for owner, obj in owners.items()
            for name, arr in obj.state_arrays().items()}
    before = {name: arr.copy() for name, arr in live.items()}
    rng = dn.seeded_rng(51)
    t = np.array([0, 1, 2, 3, 0, 1])
    for _ in range(2):
        taps = net.forward(rng.normal(size=(6, 32, 32, 3)), train=True)
        reports = [dn.combined_objective(aux, taps, t) for aux in auxes]
        net.backward(reports[0].gradients)
        opt.step(net.gradients(), 0.01)
    after = {f"{owner}.{name}": arr for owner, obj in owners.items()
             for name, arr in obj.state_arrays().items()}
    assert after.keys() == live.keys()
    stale = sorted(name for name in live if after[name] is not live[name])
    assert not stale, f"{len(stale)} state arrays were replaced: {stale}"
    unmoved = sorted(name for name in live if np.array_equal(live[name], before[name]))
    assert not unmoved, f"state arrays that training left unchanged: {unmoved}"


# --- randomized chains: the network's ownership and in-place rules ------------


def reference_outputs(net, x, train):
    """Each layer's output, with each layer run on its own copy of the
    previous output, and the linear piece the chain is on: the sign of
    every ReLU input and the first maximum of every pool window."""
    outs, piece = [], []
    a = np.asarray(x, dtype=net.dtype)
    for layer in net.layers:
        if isinstance(layer, dn.ReLU):
            piece.append(a > 0)
        elif isinstance(layer, dn.MaxPool2x2):
            n, h, w, c = a.shape
            h2, w2 = h // 2, w // 2
            windows = a[:, : 2 * h2, : 2 * w2].reshape(n, h2, 2, w2, 2, c)
            piece.append(windows.transpose(0, 1, 3, 5, 2, 4).reshape(n, h2, w2, c, 4).argmax(-1))
        a = layer.forward(a.copy(), train=train)
        outs.append(a)
    return outs, piece


def tap_functional(net, outs, weights):
    return sum(float(np.vdot(weights[name], outs[idx])) for name, idx in net.taps.items())


def assert_tap_gradients_match_finite_differences(net, x, rng, before_forward=lambda: None):
    """Backward with random tap gradients against central differences of
    the linear functional they define, along one random unit direction
    per parameter array. ``before_forward`` runs before every forward."""
    before_forward()
    outs, piece = reference_outputs(net, x, train=True)
    weights = {name: rng.normal(size=outs[idx].shape) for name, idx in net.taps.items()}
    before_forward()
    net.forward(x, train=True)
    net.backward(weights)
    grads = net.gradients()
    eps = 1e-6
    for name, param in net.parameters():
        v = rng.normal(size=param.shape)
        v /= np.linalg.norm(v)
        orig = param.copy()
        sides = []
        for sign in (1.0, -1.0):
            param[...] = orig + sign * eps * v
            before_forward()
            shifted, shifted_piece = reference_outputs(net, x, train=True)
            # Both sides on the same linear piece: no ReLU input or pool
            # maximum changes sides, so the difference quotient is exact
            # up to rounding (and batchnorm's smooth curvature).
            assume(all(np.array_equal(a, b) for a, b in zip(piece, shifted_piece)))
            sides.append(tap_functional(net, shifted, weights))
        param[...] = orig
        fd = (sides[0] - sides[1]) / (2 * eps)
        analytic = float(np.vdot(grads[name], v))
        assert abs(fd - analytic) <= 1e-5 * np.linalg.norm(grads[name]) + 1e-7, name


@st.composite
def chains(draw):
    """(spec, input shape, taps) of a small float64 chain: an image stage
    with a conv and a pool, a flatten, then a dense stage ending in the
    logits layer."""
    side = draw(st.sampled_from([4, 6, 8]))
    shape = (side, side, draw(st.integers(1, 2)))
    kinds = draw(st.lists(st.sampled_from(["conv", "relu", "pool", "bn"]), min_size=1, max_size=4))
    if "conv" not in kinds:
        kinds.insert(draw(st.integers(0, len(kinds))), "conv")
    if "pool" not in kinds:
        kinds.append("pool")
    spec = []
    for kind in kinds:
        if kind == "conv":
            padding = draw(st.sampled_from([0, 1])) if side >= 3 else 1
            spec.append(("conv", draw(st.integers(1, 3)), padding))
            side += 2 * padding - 2
        elif kind == "pool" and side >= 2:
            spec.append("pool")
            side //= 2
        else:
            spec.append("relu" if kind == "pool" else kind)
    spec.append("flatten")
    for kind in draw(st.lists(st.sampled_from(["dense", "relu", "bn"]), max_size=3)):
        spec.append(("dense", draw(st.integers(1, 4))) if kind == "dense" else kind)
    spec.append(("dense", draw(st.integers(1, 3))))
    last = len(spec) - 1
    tapped = set(draw(st.lists(st.integers(0, last - 1), max_size=3)))
    if draw(st.booleans()):
        first = draw(st.integers(0, last - 1))
        tapped |= {first, first + 1}  # adjacent taps
    taps = {f"tap{i}": i for i in sorted(tapped - {last})}
    taps["logits"] = last
    return spec, shape, taps


# conv, relu, pool, flatten, dense: taps at the conv, which the in-place
# ReLU reads next, and on the flatten and the logits, adjacent.
FIXED_CHAIN = ([("conv", 2, 1), "relu", "pool", "flatten", ("dense", 3)], (4, 4, 1),
               {"conv": 0, "flat": 3, "logits": 4})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chain=chains(), seed=st.integers(0, 2**16))
@example(chain=FIXED_CHAIN, seed=0)
def test_random_chains_keep_the_ownership_and_in_place_rules(chain, seed):
    spec, shape, taps = chain
    rng = dn.seeded_rng(seed)
    net = small_chain(spec, shape, rng, taps)
    x = rng.normal(size=(4,) + shape)
    kept_x = x.copy()
    assert_tap_gradients_match_finite_differences(net, x, rng)

    # The returned taps are the layers' own outputs, and neither they nor
    # the caller's batch change through a backward and a second forward.
    want, _ = reference_outputs(net, x, train=True)
    got = net.forward(x, train=True)
    for name, idx in taps.items():
        assert_array_equal(got[name], want[idx])
    kept = {name: f.copy() for name, f in got.items()}
    net.backward({name: rng.normal(size=f.shape) for name, f in got.items()})
    net.forward(x, train=True)
    assert_array_equal(x, kept_x)
    for name, f in got.items():
        assert_array_equal(f, kept[name])

    # Batches of b, b and a short one, each at least large enough that
    # every conv and pool runs more than one chunk.
    pixels = [out.shape[1] * out.shape[2] for layer, out in zip(net.layers, want)
              if isinstance(layer, (dn.Conv2d, dn.MaxPool2x2))]
    b = dn.layers.ROWS // min(pixels) + 1
    images = rng.normal(size=(2 * b + b // 2 + 1,) + shape)
    predicted = net.predict(images, b)
    batches = [net.forward(images[i : i + b]) for i in range(0, len(images), b)]
    for name, features in predicted.items():
        want_bits = np.concatenate([batch[name] for batch in batches])
        assert_array_equal(features.view(np.uint64), want_bits.view(np.uint64))

    # An eval forward leaves no backward state, in the network or any layer.
    with pytest.raises(RuntimeError, match="^backward needs a training forward"):
        net.backward({name: np.ones_like(f) for name, f in got.items()})
    for layer, out in zip(net.layers, want):
        with pytest.raises(RuntimeError, match="needs a training forward"):
            layer.backward(np.ones_like(out))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16))
def test_dropout_chain_gradients_with_a_reseeded_generator(seed):
    # Every forward restores the generator's state, so each draws the
    # same dropout mask and the finite differences see one function.
    rng = dn.seeded_rng(seed)
    net = small_chain([("dense", 6), "relu", "dropout", ("dense", 4), "dropout", ("dense", 3)],
                      (5,), rng, {"dropped": 2, "logits": 5})
    state = rng.bit_generator.state  # after the weights: only the masks draw from here

    def reseed():
        rng.bit_generator.state = state

    x = dn.seeded_rng(seed + 1).normal(size=(7, 5))
    kept_x = x.copy()
    assert_tap_gradients_match_finite_differences(net, x, dn.seeded_rng(seed + 2), reseed)
    assert_array_equal(x, kept_x)
    dropped = net.forward(x, train=True)["dropped"]
    eval_taps = net.forward(x, train=False)
    want, _ = reference_outputs(net, x, train=False)
    assert_array_equal(eval_taps["logits"], want[-1])
    assert_array_equal(eval_taps["dropped"], want[1])  # eval dropout is the identity
    assert not np.array_equal(dropped, eval_taps["dropped"])  # training dropout is not
    with pytest.raises(RuntimeError, match="^backward needs a training forward"):
        net.backward({name: np.ones_like(f) for name, f in eval_taps.items()})
