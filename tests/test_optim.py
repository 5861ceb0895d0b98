import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import discrimnet as dn
from discrimnet.optim import BLOCK


def test_sgd_hand_fixture():
    # w=1, g=0, wd=0.01, lr=0.01 -> g'=0.01, v=0.01, w=0.9999
    w = np.array([1.0])
    opt = dn.SGD([("w", w)], weight_decay=0.01)
    opt.step({"w": np.array([0.0])}, lr=0.01)
    assert_allclose(opt.velocity["w"], [0.01], rtol=1e-15)
    assert_allclose(w, [0.9999], rtol=1e-15)


def test_sgd_first_step_is_a_plain_gradient_step():
    # From zero velocity, the first step without decay is w - lr * g.
    rng = dn.seeded_rng(50)
    w = rng.normal(size=6)
    g = rng.normal(size=6)
    want = w - 0.1 * g
    opt = dn.SGD([("w", w)], weight_decay=0.0)
    opt.step({"w": g}, lr=0.1)
    assert_array_equal(w, want)
    assert_array_equal(opt.velocity["w"], g)


def test_sgd_velocity_persists_with_zero_gradient():
    w = np.array([0.0])
    opt = dn.SGD([("w", w)], weight_decay=0.0)
    opt.velocity["w"][...] = 1.0
    opt.step({"w": np.array([0.0])}, lr=1.0)
    assert_allclose(w, [-0.9])
    opt.step({"w": np.array([0.0])}, lr=1.0)
    assert_allclose(w, [-1.71])


def test_sgd_aborts_atomically_on_non_finite_gradient():
    w1 = np.array([1.0])
    w2 = np.array([2.0])
    opt = dn.SGD([("a", w1), ("b", w2)])
    with pytest.raises(dn.NonFiniteError):
        opt.step({"a": np.array([0.5]), "b": np.array([np.nan])}, lr=0.1)
    assert w1[0] == 1.0 and w2[0] == 2.0  # nothing moved
    assert not np.any(opt.velocity["a"])


@pytest.mark.parametrize("where", [0, BLOCK - 1, BLOCK, -1])
def test_sgd_checks_every_block_before_any_update(where):
    # The finiteness check walks the gradients in blocks; a non-finite
    # entry in any block of the last parameter stops the whole step.
    rng = dn.seeded_rng(52)
    params = [("a", rng.normal(size=BLOCK + 5)), ("b", rng.normal(size=(3, BLOCK)))]
    kept = [w.copy() for _, w in params]
    opt = dn.SGD(params)
    grads = {name: rng.normal(size=w.shape) for name, w in params}
    grads["b"].reshape(-1)[where] = np.inf
    with pytest.raises(dn.NonFiniteError):
        opt.step(grads, lr=0.1)
    for (name, w), w0 in zip(params, kept):
        assert_array_equal(w, w0)
        assert not np.any(opt.velocity[name])


def test_sgd_shape_mismatch():
    opt = dn.SGD([("w", np.zeros(3))])
    with pytest.raises(ValueError):
        opt.step({"w": np.zeros(4)}, lr=0.1)


def test_sgd_preserves_shapes_and_finiteness():
    rng = dn.seeded_rng(51)
    params = [(f"p{i}", rng.normal(size=(3, 4))) for i in range(4)]
    opt = dn.SGD(params, weight_decay=0.01)
    for _ in range(25):
        grads = {name: rng.normal(size=(3, 4)) for name, _ in params}
        opt.step(grads, lr=0.05)
    for _, w in params:
        assert w.shape == (3, 4)
        assert np.all(np.isfinite(w))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_sgd_blocks_match_the_whole_array_formula(dtype, weight_decay):
    # Parameters of 1, BLOCK - 1, BLOCK, BLOCK + 1 and 2.5 BLOCK elements,
    # the last one 2-D, against the whole-array update, bit for bit.
    rng = dn.seeded_rng(53)
    shapes = [(1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (5, BLOCK // 2)]
    params = [(f"p{i}", rng.normal(size=shape).astype(dtype)) for i, shape in enumerate(shapes)]
    want = {name: w.copy() for name, w in params}
    velocity = {name: np.zeros_like(w) for name, w in params}
    opt = dn.SGD(params, weight_decay=weight_decay)
    for lr in (0.05, 0.05, 0.005):
        grads = {name: rng.normal(size=w.shape).astype(dtype) for name, w in params}
        opt.step(grads, lr=lr)
        for name, w in want.items():
            g = grads[name]
            if weight_decay:
                g = g + weight_decay * w
            velocity[name] *= 0.9
            velocity[name] += g
            w -= lr * velocity[name]
    for name, w in params:
        assert w.dtype == dtype
        assert_array_equal(w.view(np.uint8), want[name].view(np.uint8))
        assert_array_equal(opt.velocity[name].view(np.uint8), velocity[name].view(np.uint8))


def test_sgd_rejects_a_parameter_it_cannot_update_in_place():
    with pytest.raises(ValueError, match="C-contiguous"):
        dn.SGD([("w", np.zeros((3, 4)).T)])


def test_lr_schedule_published_values():
    assert dn.lr_at_epoch(0, 0.01, 50) == 0.01
    assert dn.lr_at_epoch(49, 0.01, 50) == 0.01
    assert dn.lr_at_epoch(50, 0.01, 50) == 0.001
    assert dn.lr_at_epoch(100, 0.01, 50) == pytest.approx(0.0001)


def test_lr_schedule_is_non_increasing():
    values = [dn.lr_at_epoch(e, 0.01, 50) for e in range(400)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    for bad in ((-1, 0.01, 50), (0, 0.0, 50), (0, 0.01, 0)):
        with pytest.raises(ValueError):
            dn.lr_at_epoch(*bad)


def test_lr_schedule_past_the_largest_finite_drop_factor():
    # 10.0 ** 309 overflows, so a run of epochs = 310 at lr_drop_period = 1
    # raised OverflowError at its last epoch.
    assert dn.lr_at_epoch(308, 0.01, 1) == 0.01 / 10.0**308  # unchanged while finite
    assert dn.lr_at_epoch(309, 1e300, 1) == pytest.approx(1e-9, rel=1e-12)
    assert 0.0 < dn.lr_at_epoch(309, 0.01, 1) < dn.lr_at_epoch(308, 0.01, 1)
    assert dn.lr_at_epoch(400, 1e300, 1) == pytest.approx(1e-100, rel=1e-12)
    assert dn.lr_at_epoch(400, 0.01, 1) == 0.0  # 1e-402 underflows
    assert dn.lr_at_epoch(10**400, 1e300, 1) == 0.0
    assert dn.lr_at_epoch(10**400, 0.01, 10**399) == pytest.approx(1e-12, rel=1e-12)
    for base_lr in (0.01, 1e300, np.finfo(np.float64).max):
        values = [dn.lr_at_epoch(e, base_lr, 1) for e in range(300, 1000)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0


def test_optimizer_state_round_trip(tmp_path):
    rng = dn.seeded_rng(52)
    for dtype in (np.float64, np.float32):
        w = rng.normal(size=5).astype(dtype)
        opt = dn.SGD([("w", w)])
        opt.step({"w": rng.normal(size=5).astype(dtype)}, lr=0.1)
        path = tmp_path / "opt.bin"
        dn.save_bundle(path, {}, opt.state_arrays())
        _, arrays = dn.load_bundle(path)
        opt2 = dn.SGD([("w", np.zeros(5, dtype=dtype))])
        dn.restore_arrays(opt2.state_arrays(), arrays)
        assert opt2.velocity["w"].dtype == dtype  # restored in the parameter's dtype
        assert_array_equal(opt2.velocity["w"], opt.velocity["w"])
