import numpy as np
import pytest

from fairweigh.autodiff import Tensor
from fairweigh.nn import (
    Adam,
    MomentumSGD,
    ParamStore,
    learning_rate,
    load_params,
    mlp_forward,
    save_params,
)


def test_param_store_shapes_and_determinism():
    a = ParamStore(42)
    a.add_group("g", [(3, 8), (8, 2)])
    b = ParamStore(42)
    b.add_group("g", [(3, 8), (8, 2)])
    for (w1, b1), (w2, b2) in zip(a.group("g"), b.group("g")):
        assert np.array_equal(w1.data, w2.data)
        assert np.all(b1.data == 0.0)
    assert a.group("g")[0][0].data.shape == (3, 8)
    bound = np.sqrt(6.0 / (3 + 8))
    assert np.max(np.abs(a.group("g")[0][0].data)) <= bound


def test_zero_final_layer_outputs_zero():
    store = ParamStore(1)
    store.add_group("critic", [(1, 8), (8, 8), (8, 1)], zero_final=True)
    out = mlp_forward(store.group("critic"), np.linspace(0, 1, 7).reshape(-1, 1), "linear")
    assert np.all(out == 0.0)


def test_duplicate_group_rejected():
    store = ParamStore(0)
    store.add_group("g", [(2, 2)])
    with pytest.raises(ValueError):
        store.add_group("g", [(2, 2)])


def test_logistic_head_of_zero_net_is_half():
    store = ParamStore(3)
    store.add_group("g", [(4, 5), (5, 1)], zero_final=True)
    out = mlp_forward(store.group("g"), np.random.default_rng(0).normal(size=(9, 4)), "logistic")
    assert np.allclose(out, 0.5)


def test_softmax_head_sums_to_one():
    store = ParamStore(4)
    store.add_group("g", [(3, 6), (6, 4)])
    out = mlp_forward(store.group("g"), np.random.default_rng(1).normal(size=(11, 3)), "softmax")
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(out >= 0.0)


def test_momentum_sgd_closed_form():
    p = Tensor(np.zeros(1))
    opt = MomentumSGD([p], lr=0.1, momentum=0.0)
    opt.step([np.ones(1)])
    assert np.allclose(p.data, -0.1)

    q = Tensor(np.zeros(1))
    opt = MomentumSGD([q], lr=0.1, momentum=0.9)
    opt.step([np.ones(1)])
    first = -q.data.copy()
    opt.step([np.ones(1)])
    second = -(q.data.copy()) - first
    assert np.allclose(second, 1.9 * first)


def test_adam_first_step_displacement_is_lr():
    p = Tensor(np.zeros(3))
    opt = Adam([p], lr=1e-3)
    opt.step([np.ones(3)])
    assert np.allclose(-p.data, 1e-3, rtol=1e-6)


def test_flat_adam_is_bit_equal_to_the_per_array_formula():
    rng = np.random.default_rng(21)
    shapes = [(3, 4), (4,), (4, 1), (1,)]
    params = [Tensor(rng.normal(size=shape)) for shape in shapes]
    reference = [p.data.copy() for p in params]
    m = [np.zeros(shape) for shape in shapes]
    v = [np.zeros(shape) for shape in shapes]
    opt = Adam(params, lr=1e-2)
    for t in range(1, 51):
        grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3) for shape in shapes]
        opt.step(grads)
        b1c, b2c = 1.0 - Adam.beta1**t, 1.0 - Adam.beta2**t
        for i, g in enumerate(grads):
            m[i] = Adam.beta1 * m[i] + (1.0 - Adam.beta1) * g
            v[i] = Adam.beta2 * v[i] + (1.0 - Adam.beta2) * g**2
            m_hat, v_hat = m[i] / b1c, v[i] / b2c
            reference[i] = reference[i] - opt.lr * m_hat / (np.sqrt(v_hat) + Adam.eps)
        for p, r in zip(params, reference):
            assert p.data.shape == r.shape and np.array_equal(p.data, r)


def test_nan_gradient_aborts_step():
    p = Tensor(np.zeros(2))
    opt = MomentumSGD([p], lr=0.1)
    with pytest.raises(FloatingPointError):
        opt.step([np.array([1.0, np.nan])])
    adam = Adam([p])
    with pytest.raises(FloatingPointError):
        adam.step([np.array([np.inf, 0.0])])


def test_learning_rate_schedule():
    assert learning_rate(0.01, 0.0) == 0.01
    # frozen from direct evaluation: 0.01 * 11 ** -0.75
    assert abs(learning_rate(0.01, 1.0) - 0.0016556) < 1e-6
    grid = [learning_rate(0.01, p) for p in np.linspace(0, 1, 100)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        learning_rate(0.01, 1.5)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    store = ParamStore(17)
    store.add_group("one", [(3, 4), (4, 1)])
    store.add_group("two", [(2, 2)])
    # make values non-trivial
    store.group("one")[0][1].data = np.array([0.1, -0.2, 0.3, 1e-17])
    path = tmp_path / "params.npz"
    save_params(store, path, meta={"tag": "x"})
    loaded, meta = load_params(path)
    assert meta == {"tag": "x"}
    assert loaded.seed == 17
    for name in ("one", "two"):
        for (w1, b1), (w2, b2) in zip(store.group(name), loaded.group(name)):
            assert np.array_equal(w1.data, w2.data)
            assert np.array_equal(b1.data, b2.data)


def test_snapshot_restore_checks_shapes():
    store = ParamStore(0)
    store.add_group("g", [(2, 2)])
    store.add_group("h", [(1, 1)])
    snap = store.snapshot()
    snap["h"][0] = np.zeros((3, 3))
    snap["g"][0] = np.ones((2, 2))
    with pytest.raises(ValueError, match="shape mismatch in group 'h'"):
        store.restore(snap)
    assert not np.array_equal(store.group("g")[0][0].data, snap["g"][0])  # nothing restored
    partial = store.snapshot()
    del partial["h"]
    with pytest.raises(ValueError, match="lacks parameter group 'h'"):
        store.restore(partial)
