import gc

import numpy as np
import pytest

from fairweigh.autodiff import Tensor, backward
from fairweigh.data import Column, ColumnarDataset, Encoder
from fairweigh.graph import parse_graph, total_path_set
from fairweigh.model import StructuredModel
from fairweigh.nn import (
    ParamStore,
    _matmul,
    critic_loss,
    gradient_penalty,
    layer_sizes,
    mlp_activations,
    mlp_backward,
    mlp_forward,
)

from conftest import finite_difference, relative_error


def random_net(seed, sizes=((3, 8), (8, 8), (8, 1))):
    store = ParamStore(seed)
    store.add_group("net", sizes)
    return store


def net_gradient(store, x, head, grad_at_out):
    """mlp_backward of a loss whose gradient at the head output is
    ``grad_at_out(out)``."""
    layers = store.group("net")
    hs, out = mlp_activations(layers, x, head)
    return mlp_backward(layers, hs, out, head, grad_at_out(out))


def test_forward_matches_straight_line_reference():
    store = random_net(0)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (5, 3))
    out = mlp_forward(store.group("net"), x, "linear")

    h = x
    for w, b in [(p[0].data, p[1].data) for p in store.group("net")][:-1]:
        h = np.tanh(h @ w + b)
    w, b = store.group("net")[-1][0].data, store.group("net")[-1][1].data
    expected = h @ w + b
    assert np.max(np.abs(out - expected)) < 1e-12


def test_linear_layer_gradient_is_summed_input():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (4, 3))
    store = random_net(2, sizes=((3, 1),))
    grad_w, _ = net_gradient(store, x, "linear", np.ones_like)  # loss: sum of outputs
    assert np.allclose(grad_w[:, 0], x.sum(axis=0))


def test_constant_loss_has_zero_gradients():
    w = Tensor(np.ones((3, 2)))
    (grad,) = backward(Tensor(5.0), [w])
    assert np.all(grad == 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences(seed):
    """Mean binary cross entropy through a logistic head."""
    store = random_net(seed, sizes=((3, 6), (6, 4), (4, 1)))
    rng = np.random.default_rng(seed + 100)
    x = rng.uniform(-1, 1, (5, 3))
    y = rng.uniform(0, 1, (5, 1))

    def loss_fn():
        p = mlp_forward(store.group("net"), x, "logistic")
        return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean()

    grads = net_gradient(store, x, "logistic", lambda p: (p - y) / (p * (1.0 - p)) / 5.0)
    reference = finite_difference(loss_fn, store.parameters())
    for g, r in zip(grads, reference):
        assert relative_error(g, r) < 1e-4


def test_softmax_concat_path_matches_finite_differences():
    store = ParamStore(5)
    store.add_group("net", [(4, 6), (6, 3)])
    rng = np.random.default_rng(6)
    x = np.concatenate([rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (5, 2))], axis=1)
    target = np.eye(3)[rng.integers(0, 3, 5)]

    def loss_fn():
        p = mlp_forward(store.group("net"), x, "softmax")
        return -(target * np.log(p)).sum(axis=1).mean()

    grads = net_gradient(store, x, "softmax", lambda p: -target / p / 5.0)
    reference = finite_difference(loss_fn, store.parameters())
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
        return mlp_forward(store.group("net"), x, "linear")[:, 0]

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


def test_tape_is_freed_without_the_cycle_collector():
    """Nothing records a computation any more: a forward, a backward and a
    critic loss leave no reference cycle behind, so reference counting frees
    every array they made."""
    store = random_net(14)
    x = np.random.default_rng(15).uniform(-1, 1, (6, 3))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        grads = net_gradient(store, x, "logistic", lambda out: 2.0 * out / out.size)
        loss = critic_loss(store.group("net"), x, x[::-1], 0.5, x, 10.0)[0]
        backward(loss, store.parameters())
        del grads, loss
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_backward_returns_arrays_of_the_operand_shapes():
    store = random_net(20, sizes=((3, 2), (2, 1)))
    x = np.full((4, 3), 0.5)
    loss = critic_loss(store.group("net"), x, 0.5 * x, 1.0, x, 1.0)[0]
    unused = Tensor(np.ones(4))
    params = store.parameters()
    grads = backward(loss, [*params, unused])
    assert all(type(g) is np.ndarray for g in grads)
    assert [g.shape for g in grads] == [(3, 2), (2,), (2, 1), (1,), (4,)]
    assert not grads[-1].any()


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        backward(x, [x])


BINARY_CHILD_DOC = """
[nodes]
a continuous
s categorical 2
y categorical 2
[edges]
a -> s
a -> y
s -> y
[roles]
sensitive s
outcome y
"""


def test_shared_subexpression_accumulates_once_per_use():
    """A binary node's output p feeds both columns of its block (1 - p, p);
    the fit gradient sums the two uses, once each."""
    rng = np.random.default_rng(22)
    m = 7
    ds = ColumnarDataset(
        [
            Column("a", "continuous", rng.normal(size=m)),
            Column("s", "categorical", np.array(list("0110100"))),
            Column("y", "categorical", np.array(list("1001101"))),
        ]
    )
    enc = Encoder().fit(ds)
    graph = parse_graph(BINARY_CHILD_DOC)
    model = StructuredModel(graph, enc, total_path_set(graph), seed=22, hidden=(3,))
    x, weights = enc.transform(ds), rng.uniform(0.5, 1.5, m)
    params = model.params.parameters(model.sub_network_nodes)
    grads = backward(model.fit_loss(x, weights), params)
    reference = finite_difference(lambda: model.fit_loss(x, weights), params)
    for g, r in zip(grads, reference):
        assert relative_error(g, r) < 1e-6


def test_broadcast_bias_gradient_shape():
    store = random_net(23, sizes=((3, 3),))
    (_, grad_b) = net_gradient(store, np.ones((4, 3)), "linear", np.ones_like)
    assert grad_b.shape == (3,)
    assert np.allclose(grad_b, 4.0)


def test_determinism_across_runs():
    def run():
        store = random_net(21)
        x = np.linspace(-1, 1, 12).reshape(4, 3)
        return net_gradient(store, x, "logistic", lambda out: 2.0 * out / out.size)

    first = run()
    second = run()
    for g1, g2 in zip(first, second):
        assert np.array_equal(g1, g2)
