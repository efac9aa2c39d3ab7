"""Property test: the closed-form critic loss gives the objective of two
plain critic forwards, the gradient penalty of a finite-difference input
gradient and the parameter gradient of central finite differences; and a
:class:`~fairweigh.nn.Scratch` reused across calls changes no bit of it."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fairweigh.autodiff import backward  # noqa: E402
from fairweigh.nn import (  # noqa: E402
    ParamStore,
    Scratch,
    critic_loss,
    layer_sizes,
    mlp_forward,
)

from conftest import finite_difference, relative_error  # noqa: E402


@st.composite
def critics(draw):
    """Input width (the outcome column plus context), hidden widths, rows,
    whether the objective weights are one scalar or one per row, the penalty
    coefficient and a seed for every array."""
    width = 1 + draw(st.integers(0, 3))
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=0, max_size=3)))
    rows = draw(st.integers(1, 9))
    per_row = draw(st.booleans())
    penalty_coef = draw(st.sampled_from([0.0, 1.0, 10.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return width, hidden, rows, per_row, penalty_coef, seed


def build(case):
    width, hidden, rows, per_row, penalty_coef, seed = case
    rng = np.random.default_rng(seed)
    store = ParamStore(seed)
    store.add_group("critic", layer_sizes(width, hidden, 1))
    # random biases and head: the zero defaults would hide part of the gradient
    for w, b in store.group("critic"):
        w.data = rng.uniform(-1, 1, w.data.shape)
        b.data = rng.uniform(-1, 1, b.data.shape)
    x_high, x_low, x_hat = (rng.uniform(-1, 1, (rows, width)) for _ in range(3))
    coef = rng.uniform(0.1, 2.0, rows) / rows if per_row else float(rng.uniform(0.1, 2.0))
    return store, (store.group("critic"), x_high, x_low, coef, x_hat, penalty_coef)


def reference_values(layers, x_high, x_low, coef, x_hat, penalty_coef):
    """The objective from plain forwards; the penalty from a central-difference
    input gradient of the critic at ``x_hat``."""
    def critic(x):
        return mlp_forward(layers, x, "linear")

    c = np.broadcast_to(np.reshape(coef, (-1, 1)), (x_high.shape[0], 1))
    objective = float((c * critic(x_high)).sum() - (c * critic(x_low)).sum())
    step = 1e-6
    grad_x = np.zeros_like(x_hat)
    for j in range(x_hat.shape[1]):
        bump = np.zeros_like(x_hat)
        bump[:, j] = step
        grad_x[:, j] = (critic(x_hat + bump) - critic(x_hat - bump))[:, 0] / (2 * step)
    penalty = float(np.mean((np.sqrt((grad_x**2).sum(axis=1)) - 1.0) ** 2))
    return objective, penalty


@settings(max_examples=60)
@given(critics())
def test_critic_loss_matches_finite_differences(case):
    store, args = build(case)
    params = store.parameters(["critic"])
    loss, objective, penalty = critic_loss(*args)
    ref_objective, ref_penalty = reference_values(*args)

    assert abs(objective - ref_objective) <= 1e-12 * max(1.0, abs(ref_objective))
    assert abs(penalty - ref_penalty) <= 1e-7 * max(1.0, ref_penalty)
    assert float(loss.data) == args[-1] * penalty - objective
    grads = backward(loss, params)
    # over all parameters at once: one bias whose gradient is zero would
    # otherwise compare finite-difference roundoff with itself
    reference = finite_difference(lambda: critic_loss(*args)[0], params)
    assert relative_error(np.concatenate([g.ravel() for g in grads]),
                          np.concatenate([r.ravel() for r in reference])) < 1e-4

    # a scratch deeper than the rows, last used on other inputs, changes nothing
    scratch = Scratch(12)
    layers, x_high, *_ = args
    critic_loss(layers, x_high[:1], x_high[:1], 1.0, x_high[:1], 1.0, scratch)
    reused = critic_loss(*args, scratch)[0]
    assert reused.data == loss.data
    for g, r in zip(backward(reused, params), grads):
        assert np.array_equal(g, r)
