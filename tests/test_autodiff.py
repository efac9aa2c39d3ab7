import gc

import numpy as np
import pytest

from fairweigh.autodiff import Tensor, _matmul, affine, backward, concat, no_grad
from fairweigh.nn import (
    ParamStore,
    finite_difference,
    gradient_penalty,
    layer_sizes,
    mlp_forward,
)

from conftest import relative_error


def random_net(seed, sizes=((3, 8), (8, 8), (8, 1))):
    store = ParamStore(seed)
    store.add_group("net", sizes)
    return store


def test_forward_matches_straight_line_reference():
    store = random_net(0)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (5, 3))
    out = mlp_forward(store.group("net"), Tensor(x), "linear")

    h = x
    for w, b in [(p[0].data, p[1].data) for p in store.group("net")][:-1]:
        h = np.tanh(h @ w + b)
    w, b = store.group("net")[-1][0].data, store.group("net")[-1][1].data
    expected = h @ w + b
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_linear_layer_gradient_is_summed_input():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (4, 3))
    w = Tensor(np.zeros((3, 1)))
    loss = affine(Tensor(x), w, Tensor(np.zeros(1))).sum()
    (grad,) = backward(loss, [w])
    assert np.allclose(grad[:, 0], x.sum(axis=0))


def test_constant_loss_has_zero_gradients():
    w = Tensor(np.ones((3, 2)))
    loss = Tensor(np.zeros(())) + 5.0
    (grad,) = backward(loss, [w])
    assert np.all(grad == 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences(seed):
    store = random_net(seed, sizes=((3, 6), (6, 4), (4, 1)))
    rng = np.random.default_rng(seed + 100)
    x = Tensor(rng.uniform(-1, 1, (5, 3)))
    y = Tensor(rng.uniform(0, 1, (5, 1)))
    params = store.parameters()

    def loss_fn():
        p = mlp_forward(store.group("net"), x, "logistic")
        return -(y * (p + 1e-12).log() + (1.0 - y) * (1.0 - p + 1e-12).log()).mean()

    grads = backward(loss_fn(), params)
    reference = finite_difference(loss_fn, params)
    for g, r in zip(grads, reference):
        assert relative_error(g, r) < 1e-4


def test_softmax_concat_path_matches_finite_differences():
    store = ParamStore(5)
    store.add_group("net", [(4, 6), (6, 3)])
    rng = np.random.default_rng(6)
    a = Tensor(rng.uniform(-1, 1, (5, 2)))
    b = Tensor(rng.uniform(-1, 1, (5, 2)))
    target = Tensor(np.eye(3)[rng.integers(0, 3, 5)])
    params = store.parameters()

    def loss_fn():
        p = mlp_forward(store.group("net"), concat([a, b]), "softmax")
        return -(target * (p + 1e-12).log()).sum(axis=1).mean()

    grads = backward(loss_fn(), params)
    reference = finite_difference(loss_fn, params)
    for g, r in zip(grads, reference):
        assert relative_error(g, r) < 1e-4


SMALL_CRITIC = ((2, 5), (5, 4), (4, 1))
MODEL_CRITIC = tuple(layer_sizes(1, (32, 32, 32), 1))


@pytest.mark.parametrize(
    "seed, sizes",
    [(seed, SMALL_CRITIC) for seed in range(10)] + [(10, MODEL_CRITIC)],
    ids=[*map(str, range(10)), "model-critic"],
)
def test_double_backprop_penalty_matches_finite_differences(seed, sizes):
    """(||grad_x D(x)|| - 1)^2 differentiated in the parameters."""
    store = random_net(seed, sizes=sizes)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1, 1, (4, sizes[0][0]))
    params = store.parameters()

    def penalty_fn():
        return gradient_penalty(store.group("net"), x0)

    grads = backward(penalty_fn(), params)
    reference = finite_difference(penalty_fn, params)
    for g, r in zip(grads, reference):
        assert relative_error(g, r) < 1e-4


@pytest.mark.parametrize("sizes", [SMALL_CRITIC, MODEL_CRITIC])
def test_penalty_value_matches_finite_difference_input_gradient(sizes):
    store = random_net(16, sizes=sizes)
    x0 = np.random.default_rng(17).uniform(-1, 1, (6, sizes[0][0]))

    def critic(x):
        return mlp_forward(store.group("net"), Tensor(x), "linear").data[:, 0]

    step = 1e-6
    grad_x = np.zeros_like(x0)
    for j in range(x0.shape[1]):
        bump = np.zeros_like(x0)
        bump[:, j] = step
        grad_x[:, j] = (critic(x0 + bump) - critic(x0 - bump)) / (2 * step)
    expected = np.mean((np.sqrt((grad_x**2).sum(axis=1)) - 1.0) ** 2)
    value = float(gradient_penalty(store.group("net"), x0).data)
    assert abs(value - expected) < 1e-8 * max(1.0, abs(expected))


def test_penalty_rejects_a_wide_head():
    store = random_net(18, sizes=((3, 4), (4, 2)))
    with pytest.raises(ValueError, match="width 1"):
        gradient_penalty(store.group("net"), np.zeros((5, 3)))


@pytest.mark.parametrize("shape", [((640, 1), (1, 32)), ((5, 1), (1, 1)), ((3, 1), (1, 7))])
def test_matmul_at_inner_dimension_one_is_exact(shape):
    rng = np.random.default_rng(19)
    a = rng.normal(size=shape[0])
    b = rng.normal(size=shape[1])
    assert np.array_equal(_matmul(a, b), a @ b)


def test_no_grad_produces_leaves():
    store = random_net(13)
    a = Tensor(np.full((2, 3), 0.5))
    b = Tensor(np.full((3, 2), 2.0))
    primitives = {
        "add": lambda: a + 1.0,
        "sub": lambda: a - 1.0,
        "rsub": lambda: 1.0 - a,
        "mul": lambda: a * 2.0,
        "neg": lambda: -a,
        "pow": lambda: a**2,
        "affine": lambda: affine(a, b, Tensor(np.ones(2))),
        "log": lambda: a.log(),
        "tanh": lambda: a.tanh(),
        "sigmoid": lambda: a.sigmoid(),
        "softmax": lambda: a.softmax(axis=1),
        "sum": lambda: a.sum(),
        "mean": lambda: a.mean(axis=0),
        "concat": lambda: concat([a, a]),
        "mlp": lambda: mlp_forward(store.group("net"), Tensor(np.ones((2, 3))), "linear"),
    }
    with no_grad():
        for name, make in primitives.items():
            out = make()
            assert out.parents == () and out._vjp is None, name


def test_tape_is_freed_without_the_cycle_collector():
    """A recorded forward, input-gradient penalty and backward leave no
    reference cycle behind: every node is freed by reference counting."""
    store = random_net(14)
    x = np.random.default_rng(15).uniform(-1, 1, (6, 3))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        out = mlp_forward(store.group("net"), Tensor(x), "logistic")
        loss = (out * out).mean() + gradient_penalty(store.group("net"), x)
        backward(loss, store.parameters())
        del out, loss
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_backward_returns_arrays_of_the_operand_shapes():
    w = Tensor(np.full((3, 2), 0.5))
    c = Tensor(np.array(2.0))
    unused = Tensor(np.ones(4))
    loss = (w * c).sum() + c
    grads = backward(loss, [w, c, unused])
    assert all(type(g) is np.ndarray for g in grads)
    assert [g.shape for g in grads] == [(3, 2), (), (4,)]
    assert np.array_equal(grads[0], np.full((3, 2), 2.0))
    assert grads[1] == 4.0 and not grads[2].any()


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        backward(x + 1.0, [x])


def test_shared_subexpression_accumulates_once_per_use():
    # loss = sum(a*a + a) -> d/da = 2a + 1
    a = Tensor(np.array([[1.0, -2.0]]))
    loss = (a * a + a).sum()
    (grad,) = backward(loss, [a])
    assert np.allclose(grad, 2 * a.data + 1)


def test_broadcast_bias_gradient_shape():
    x = Tensor(np.ones((4, 3)))
    b = Tensor(np.zeros(3))
    loss = (x + b).sum()
    (grad,) = backward(loss, [b])
    assert grad.shape == (3,)
    assert np.allclose(grad, 4.0)


def test_determinism_across_runs():
    def run():
        store = random_net(21)
        x = Tensor(np.linspace(-1, 1, 12).reshape(4, 3))
        loss = (mlp_forward(store.group("net"), x, "logistic") ** 2).mean()
        return backward(loss, store.parameters())

    first = run()
    second = run()
    for g1, g2 in zip(first, second):
        assert np.array_equal(g1, g2)
