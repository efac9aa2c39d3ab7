import numpy as np
import pytest

from fairweigh import nn
from fairweigh.autodiff import Tensor
from fairweigh.nn import (
    BLOCK_ROWS,
    Adam,
    MomentumSGD,
    ParamStore,
    layer_sizes,
    learning_rate,
    critic_loss,
    load_params,
    mlp_activations,
    mlp_backward,
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


@pytest.mark.parametrize("head, width", [("linear", 1), ("logistic", 1), ("softmax", 3)])
@pytest.mark.parametrize(
    "rows", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 2, 3 * BLOCK_ROWS + 1]
)
def test_blocked_forward_matches_one_pass(head, width, rows):
    """Rows are independent, so the blocks' outputs are those of one pass;
    BLAS may pick another kernel for a block's shape, hence the tolerance."""
    store = ParamStore(5)
    store.add_group("g", layer_sizes(4, (32, 32), width))
    x = np.random.default_rng(rows).normal(size=(rows, 4))
    blocked = mlp_forward(store.group("g"), x, head)
    one_pass = mlp_activations(store.group("g"), x, head)[1]
    assert blocked.shape == one_pass.shape == (rows, width)
    np.testing.assert_allclose(blocked, one_pass, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "rows, blocks",
    [
        (BLOCK_ROWS, [BLOCK_ROWS]),
        (BLOCK_ROWS + 1, [BLOCK_ROWS + 1]),
        (BLOCK_ROWS + 2, [BLOCK_ROWS, 2]),
        (3 * BLOCK_ROWS + 1, [BLOCK_ROWS, BLOCK_ROWS, BLOCK_ROWS + 1]),
    ],
)
def test_forward_blocks_start_at_multiples_and_never_hold_one_row(monkeypatch, rows, blocks):
    store = ParamStore(6)
    store.add_group("g", layer_sizes(2, (8,), 1))
    seen = []
    original = nn.mlp_activations

    def recorded(layers, x, head, scratch=None):
        seen.append(len(x))
        return original(layers, x, head, scratch)

    monkeypatch.setattr(nn, "mlp_activations", recorded)
    mlp_forward(store.group("g"), np.zeros((rows, 2)), "linear")
    assert seen == blocks


# A plain re-implementation of the kernels' formulas, the reference for the
# folded, transposed and BLAS-summed forms in nn: each bias added on its own,
# row sums by .sum(axis=0), products against transposed views and the -2 of
# d(1 - h^2)/dh inside the penalty's injection.


def reference_forward(weights, biases, x):
    hs = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        hs.append(np.tanh(hs[-1] @ w + b))
    return hs


def reference_sweep(weights, hs, g, inject, grad_w, grad_b):
    for l in range(len(hs) - 1, 0, -1):
        if inject is not None:
            g = g + inject[l]
        a = g * (1.0 - hs[l] ** 2)
        grad_w[l - 1] += hs[l - 1].T @ a
        grad_b[l - 1] += a.sum(axis=0)
        g = a @ weights[l - 1].T


def reference_critic_loss(weights, biases, x_high, x_low, coef, x_hat, penalty_coef):
    grad_w, grad_b = [np.zeros_like(w) for w in weights], [np.zeros_like(b) for b in biases]
    objective = 0.0
    for x, sign in ((x_high, 1.0), (x_low, -1.0)):
        hs = reference_forward(weights, biases, x)
        c = np.broadcast_to(np.reshape(coef, (-1, 1)), (len(x), 1))
        objective += sign * float((c * (hs[-1] @ weights[-1] + biases[-1])).sum())
        top = -sign * c
        grad_w[-1] += hs[-1].T @ top
        grad_b[-1] += top.sum(axis=0)
        reference_sweep(weights, hs, top @ weights[-1].T, None, grad_w, grad_b)
    hs = reference_forward(weights, biases, x_hat)
    depth, rows = len(weights) - 1, len(x_hat)
    slopes = [None] + [1.0 - h**2 for h in hs[1:]]
    r = [None] * depth + [np.broadcast_to(weights[-1][:, 0], (rows, weights[-1].shape[0]))]
    rho = [None] * (depth + 1)
    for l in range(depth, 0, -1):
        rho[l] = r[l] * slopes[l]
        r[l - 1] = rho[l] @ weights[l - 1].T
    norm = np.sqrt((r[0] ** 2).sum(axis=1, keepdims=True) + 1e-24)
    penalty = float(((norm - 1.0) ** 2).mean())
    big_r = (penalty_coef * 2.0 / rows) * (norm - 1.0) / norm * r[0]
    inject = [None] * (depth + 1)
    for l in range(1, depth + 1):
        grad_w[l - 1] += big_r.T @ rho[l]
        q = big_r @ weights[l - 1]
        inject[l] = -2.0 * q * r[l] * hs[l]
        big_r = q * slopes[l]
    grad_w[depth] += big_r.sum(axis=0).reshape(-1, 1)
    reference_sweep(weights, hs, 0.0, inject, grad_w, grad_b)
    grads = [g for pair in zip(grad_w, grad_b) for g in pair]
    return penalty_coef * penalty - objective, objective, penalty, grads


def reference_mlp_backward(weights, biases, x, head, grad_out):
    hs = reference_forward(weights, biases, x)
    z = hs[-1] @ weights[-1] + biases[-1]
    if head == "logistic":
        out = 1.0 / (1.0 + np.exp(-z))
        grad_out = grad_out * out * (1.0 - out)
    elif head == "softmax":
        out = np.exp(z - z.max(axis=1, keepdims=True))
        out /= out.sum(axis=1, keepdims=True)
        grad_out = out * (grad_out - (grad_out * out).sum(axis=1, keepdims=True))
    grad_w = [np.zeros_like(w) for w in weights[:-1]] + [hs[-1].T @ grad_out]
    grad_b = [np.zeros_like(b) for b in biases[:-1]] + [grad_out.sum(axis=0)]
    reference_sweep(weights, hs, grad_out @ weights[-1].T, None, grad_w, grad_b)
    return [g for pair in zip(grad_w, grad_b) for g in pair]


def random_layers(seed, sizes):
    """A net whose weights and biases are all random and non-zero."""
    rng = np.random.default_rng(seed)
    return [
        (Tensor(rng.normal(size=(fan_in, fan_out)) * 0.5), Tensor(rng.normal(size=fan_out) * 0.3))
        for fan_in, fan_out in sizes
    ]


def assert_close(actual, expected, rtol=1e-12):
    """Norm-relative agreement: the kernels round in another order."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


KERNEL_NETS = [
    (layer_sizes(1, (32, 32, 32), 1), 640),
    (layer_sizes(13, (32, 32, 32), 1), 256),
    (layer_sizes(5, (), 1), 64),
]


@pytest.mark.parametrize("per_row", [True, False])
@pytest.mark.parametrize("sizes, rows", KERNEL_NETS)
def test_critic_loss_matches_the_reference_formulas(sizes, rows, per_row):
    layers = random_layers(rows, sizes)
    rng = np.random.default_rng(len(sizes))
    x_high, x_low, x_hat = (rng.normal(size=(rows, sizes[0][0])) for _ in range(3))
    coef = rng.random(rows) / rows if per_row else 1.0 / rows
    loss, objective, penalty = critic_loss(layers, x_high, x_low, coef, x_hat, 10.0)
    weights, biases = [w.data for w, _ in layers], [b.data for _, b in layers]
    want = reference_critic_loss(weights, biases, x_high, x_low, coef, x_hat, 10.0)
    for got, expected in zip((loss.data, objective, penalty), want):
        assert_close(got, expected)
    params = [p for layer in layers for p in layer]
    for p, expected in zip(params, want[3]):
        assert_close(loss.grads[id(p)], expected)


@pytest.mark.parametrize("head, width", [("linear", 1), ("logistic", 1), ("softmax", 3)])
@pytest.mark.parametrize("sizes, rows", KERNEL_NETS)
def test_mlp_backward_matches_the_reference_formulas(sizes, rows, head, width):
    sizes = [*sizes[:-1], (sizes[-1][0], width)]
    layers = random_layers(rows + width, sizes)
    rng = np.random.default_rng(width)
    x = rng.normal(size=(rows, sizes[0][0]))
    grad_out = rng.normal(size=(rows, width))
    hs, out = mlp_activations(layers, x, head)
    grads = mlp_backward(layers, hs, out, head, grad_out)
    weights, biases = [w.data for w, _ in layers], [b.data for _, b in layers]
    want = reference_mlp_backward(weights, biases, x, head, grad_out)
    assert len(grads) == len(want)
    for got, expected in zip(grads, want):
        assert_close(got, expected)


@pytest.mark.parametrize("rows", [BLOCK_ROWS - 1, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 1])
def test_one_wide_blocked_forward_with_biases_matches_one_pass(rows):
    """The folded first layer [x, 1] [W_1; b_1] keeps blocks equal to one pass."""
    layers = random_layers(3, layer_sizes(1, (32, 32, 32), 1))
    x = np.random.default_rng(rows).random((rows, 1))
    blocked = mlp_forward(layers, x, "linear")
    one_pass = mlp_activations(layers, x, "linear")[1]
    np.testing.assert_array_equal(blocked, one_pass)
