import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import discrimnet as dn
from conftest import finite_difference, rel_error


def small_net(seed=0, hidden=8, classes=3, dtype="float64"):
    return dn.build_architecture(
        "mnist_small",
        input_shape=(8, 8, 1),
        num_classes=classes,
        rng=dn.Rng(seed),
        conv_channels=(2, 2),
        fc1_width=10,
        hidden_width=hidden,
        dtype=dtype,
    )


def test_mnist_small_shape_chain():
    net = dn.build_architecture("mnist_small", input_shape=(28, 28, 1), num_classes=10,
                                rng=dn.Rng(0))
    shapes = net.trace_shapes(np.zeros((2, 28, 28, 1)))
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
                                rng=dn.Rng(0))
    shapes = net.trace_shapes(np.zeros((1, 32, 32, 3)))
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
        net = dn.build_architecture(arch, input_shape=shape, num_classes=10, rng=dn.Rng(0))
        taps = net.forward(np.zeros((3,) + shape, dtype=np.float64), train=True)
        assert taps["hidden_preact"].shape == (3, 100)
        assert taps["logits"].shape == (3, 10)


def test_pooling_chain_validation():
    with pytest.raises(ValueError):
        dn.build_architecture("mnist_small", input_shape=(30, 28, 1), rng=dn.Rng(0))
    with pytest.raises(ValueError):
        dn.build_architecture("comparison", input_shape=(28, 28, 3), rng=dn.Rng(0))
    with pytest.raises(ValueError):
        dn.build_architecture("no_such_arch", input_shape=(28, 28, 1), rng=dn.Rng(0))


def test_forward_is_deterministic_bitwise():
    x = dn.Rng(40).normal((4, 8, 8, 1))
    a = small_net(seed=7).forward(x)["logits"]
    b = small_net(seed=7).forward(x)["logits"]
    assert_array_equal(a, b)


def test_different_seeds_differ():
    x = dn.Rng(41).normal((2, 8, 8, 1))
    a = small_net(seed=1).forward(x)["logits"]
    b = small_net(seed=2).forward(x)["logits"]
    assert np.any(a != b)


def test_backward_fills_all_parameter_gradients():
    net = small_net()
    x = dn.Rng(42).normal((4, 8, 8, 1))
    taps = net.forward(x, train=True)
    net.backward({"logits": np.ones_like(taps["logits"])})
    grads = net.gradients()
    params = dict(net.parameters())
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape


def test_full_network_gradient_check_with_logits_loss():
    net = small_net(seed=3)
    rng = dn.Rng(43)
    x = rng.normal((4, 8, 8, 1))
    t = np.zeros((4, 3))
    t[np.arange(4), rng.integers(0, 3, 4)] = 1.0

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
    net = small_net(seed=5)
    x = dn.Rng(44).normal((4, 8, 8, 1))
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
    net = small_net()
    with pytest.raises(RuntimeError):
        net.backward({"logits": np.zeros((1, 3))})
    net.forward(np.zeros((1, 8, 8, 1)))
    with pytest.raises(KeyError):
        net.backward({"nonsense": np.zeros((1, 3))})


def test_checkpoint_round_trip(tmp_path):
    net = small_net(seed=9)
    x = dn.Rng(45).normal((2, 8, 8, 1))
    want = net.forward(x)["logits"]
    path = tmp_path / "net.ckpt"
    net.save(path, extra_manifest={"config": {"note": 1}}, extra_arrays={"extra.v": np.ones(3)})
    loaded, manifest, arrays = dn.Network.load(path)
    assert manifest["config"] == {"note": 1}
    assert_array_equal(arrays["extra.v"], np.ones(3))
    got = loaded.forward(x)["logits"]
    assert_array_equal(got, want)


def test_predict_concatenates_batches_in_the_network_dtype():
    net = small_net(seed=3, dtype="float32")
    x = dn.Rng(47).normal((7, 8, 8, 1))
    whole = net.forward(x)
    got = net.predict(x, 3)  # batches of 3, 3 and 1
    per_batch = [net.forward(x[start : start + 3]) for start in (0, 3, 6)]
    assert set(got) == {"hidden_preact", "logits"}
    for name, features in got.items():
        assert features.dtype == np.float32 and features.shape == whole[name].shape
        assert_allclose(features, whole[name], rtol=1e-5, atol=1e-6)
        assert_array_equal(features, np.concatenate([taps[name] for taps in per_batch]))


def test_forward_keeps_only_tap_outputs():
    net = small_net()
    conv0 = net.layers[0]
    forward = conv0.forward
    refs = []

    def recording(x, train=False):
        out = forward(x, train=train)
        refs.append(weakref.ref(out))
        return out

    conv0.forward = recording
    taps = net.forward(dn.Rng(48).normal((2, 8, 8, 1)), train=True)
    assert refs[0]() is None
    assert net.backward({"logits": np.ones_like(taps["logits"])}) is None  # no input gradient


def test_second_step_allocates_no_second_workspace():
    # tracemalloc counts numpy's array buffers, so the figure is a byte
    # count, not a timing. A second same-shape step reuses each conv
    # layer's column workspace and keeps no untapped layer output; the
    # peak above entry (3.26 MB at numpy 2.4) is then the dense0 weight
    # gradient plus a few activations. Allocating fresh columns while
    # the old ones are held, and keeping every layer output, raises it
    # to 7.75 MB. The bound sits between the two.
    net = dn.build_architecture("mnist_small", input_shape=(28, 28, 1), num_classes=10,
                                rng=dn.Rng(0), dtype="float32")
    x = dn.Rng(49).normal((16, 28, 28, 1)).astype(np.float32)

    def step():
        taps = net.forward(x, train=True)
        net.backward({"logits": np.ones_like(taps["logits"])})

    tracemalloc.start()
    try:
        step()
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry < 5.0e6


def test_checkpoint_truncation_is_a_clean_error(tmp_path):
    net = small_net()
    path = tmp_path / "net.ckpt"
    net.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(dn.CheckpointError):
        dn.Network.load(path)


def test_checkpoint_preserves_batchnorm_state(tmp_path):
    net = dn.build_architecture("comparison", input_shape=(32, 32, 3), num_classes=4,
                                rng=dn.Rng(11), fc_width=32, hidden_width=8)
    rng = dn.Rng(46)
    for _ in range(2):
        net.forward(rng.normal((2, 32, 32, 3)), train=True)
    x = rng.normal((2, 32, 32, 3))
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
                                num_classes=10, rng=dn.Rng(0), dtype="float32")
    shapes = net.trace_shapes(np.zeros((1, 96, 96, 3), dtype=np.float32))
    assert shapes[9] == (1, 48, 48, 128)
    assert shapes[19] == (1, 24, 24, 256)
    assert shapes[20] == (1, 22, 22, 512)
    assert shapes[23] == (1, 20, 20, 256)
    assert shapes[26] == (1, 18, 18, 128)
    assert shapes[29] == (1, 9, 9, 128)
    assert shapes[30] == (1, 9 * 9 * 128)
    assert shapes[34] == (1, 100)
    assert shapes[-1] == (1, 10)
