import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import discrimnet as dn


def test_sgd_hand_fixture():
    # w=1, g=0, wd=0.01, lr=0.01 -> g'=0.01, v=0.01, w=0.9999
    w = np.array([1.0])
    opt = dn.SGD([("w", w)], momentum=0.9, weight_decay=0.01)
    opt.step({"w": np.array([0.0])}, lr=0.01)
    assert_allclose(opt.velocity["w"], [0.01], rtol=1e-15)
    assert_allclose(w, [0.9999], rtol=1e-15)


def test_sgd_degenerates_to_plain_gradient_descent():
    rng = dn.Rng(50)
    w = rng.normal(6)
    g = rng.normal(6)
    want = w - 0.1 * g
    opt = dn.SGD([("w", w)], momentum=0.0, weight_decay=0.0)
    opt.step({"w": g}, lr=0.1)
    assert_array_equal(w, want)


def test_sgd_velocity_persists_with_zero_gradient():
    w = np.array([0.0])
    opt = dn.SGD([("w", w)], momentum=0.5, weight_decay=0.0)
    opt.velocity["w"][...] = 1.0
    opt.step({"w": np.array([0.0])}, lr=1.0)
    assert_allclose(w, [-0.5])
    opt.step({"w": np.array([0.0])}, lr=1.0)
    assert_allclose(w, [-0.75])


def test_sgd_aborts_atomically_on_non_finite_gradient():
    w1 = np.array([1.0])
    w2 = np.array([2.0])
    opt = dn.SGD([("a", w1), ("b", w2)])
    with pytest.raises(dn.NonFiniteError):
        opt.step({"a": np.array([0.5]), "b": np.array([np.nan])}, lr=0.1)
    assert w1[0] == 1.0 and w2[0] == 2.0  # nothing moved
    assert not np.any(opt.velocity["a"])


def test_sgd_shape_mismatch():
    opt = dn.SGD([("w", np.zeros(3))])
    with pytest.raises(ValueError):
        opt.step({"w": np.zeros(4)}, lr=0.1)


def test_sgd_preserves_shapes_and_finiteness():
    rng = dn.Rng(51)
    params = [(f"p{i}", rng.normal((3, 4))) for i in range(4)]
    opt = dn.SGD(params, momentum=0.9, weight_decay=0.01)
    for _ in range(25):
        grads = {name: rng.normal((3, 4)) for name, _ in params}
        opt.step(grads, lr=0.05)
    for _, w in params:
        assert w.shape == (3, 4)
        assert np.all(np.isfinite(w))


def test_lr_schedule_published_values():
    assert dn.lr_at_epoch(0, 0.01, 10.0, 50) == 0.01
    assert dn.lr_at_epoch(49, 0.01, 10.0, 50) == 0.01
    assert dn.lr_at_epoch(50, 0.01, 10.0, 50) == 0.001
    assert dn.lr_at_epoch(100, 0.01, 10.0, 50) == pytest.approx(0.0001)


def test_lr_schedule_is_non_increasing():
    values = [dn.lr_at_epoch(e, 0.01, 10.0, 50) for e in range(400)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    for bad in ((-1, 0.01, 10.0, 50), (0, 0.0, 10.0, 50), (0, 0.01, 0.0, 50), (0, 0.01, 10.0, 0)):
        with pytest.raises(ValueError):
            dn.lr_at_epoch(*bad)


def test_optimizer_state_round_trip(tmp_path):
    rng = dn.Rng(52)
    for dtype in (np.float64, np.float32):
        w = rng.normal(5).astype(dtype)
        opt = dn.SGD([("w", w)], momentum=0.9)
        opt.step({"w": rng.normal(5).astype(dtype)}, lr=0.1)
        path = tmp_path / "opt.bin"
        dn.save_bundle(path, {}, opt.state_arrays())
        _, arrays = dn.load_bundle(path)
        opt2 = dn.SGD([("w", np.zeros(5, dtype=dtype))], momentum=0.9)
        dn.restore_arrays(opt2.state_arrays(), arrays)
        assert opt2.velocity["w"].dtype == dtype  # restored in the parameter's dtype
        assert_array_equal(opt2.velocity["w"], opt.velocity["w"])
