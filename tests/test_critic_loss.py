"""Property test: the closed-form critic loss gives the value and parameter
gradient of its tape composition (two critic forwards, the weighted gap and
the gradient penalty), and matches central finite differences."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fairweigh.autodiff import Tensor, backward  # noqa: E402
from fairweigh.nn import (  # noqa: E402
    ParamStore,
    critic_loss,
    finite_difference,
    gradient_penalty,
    layer_sizes,
    mlp_forward,
)

from conftest import relative_error  # noqa: E402


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


def tape_loss(layers, x_high, x_low, coef, x_hat, penalty_coef):
    c = Tensor(np.broadcast_to(np.reshape(coef, (-1, 1)), (x_high.shape[0], 1)).copy())
    objective = (c * mlp_forward(layers, Tensor(x_high), "linear")).sum() - (
        c * mlp_forward(layers, Tensor(x_low), "linear")
    ).sum()
    penalty = gradient_penalty(layers, x_hat)
    return -objective + penalty_coef * penalty, objective, penalty


@settings(max_examples=60)
@given(critics())
def test_critic_loss_matches_the_tape_and_finite_differences(case):
    store, args = build(case)
    params = store.parameters(["critic"])
    loss, objective, penalty = critic_loss(*args)
    ref_loss, ref_objective, ref_penalty = tape_loss(*args)

    for value, ref in ((loss.data, ref_loss.data), (objective, ref_objective.data),
                       (penalty, ref_penalty.data)):
        assert abs(float(value) - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))
    grads = backward(loss, params)
    for g, r in zip(grads, backward(ref_loss, params)):
        assert relative_error(g, r) < 1e-12
    # over all parameters at once: one bias whose gradient is zero would
    # otherwise compare finite-difference roundoff with itself
    reference = finite_difference(lambda: critic_loss(*args)[0], params)
    assert relative_error(np.concatenate([g.ravel() for g in grads]),
                          np.concatenate([r.ravel() for r in reference])) < 1e-4
