"""Property test: the vector-Jacobian products of broadcasting arithmetic and
of the reductions give gradients of each operand's shape that match central
finite differences."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from fairweigh.autodiff import Tensor, backward  # noqa: E402
from fairweigh.nn import finite_difference  # noqa: E402

from conftest import relative_error  # noqa: E402

OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


def axes(ndim: int):
    if ndim == 0:
        return st.none()
    return (
        st.none()
        | st.integers(-ndim, ndim - 1)
        | st.lists(st.integers(0, ndim - 1), min_size=1, unique=True).map(tuple)
    )


@st.composite
def expressions(draw):
    """Three operand shapes that broadcast together, the two operators that
    join them, and the reduction of the result."""
    shapes, result = draw(
        hnp.mutually_broadcastable_shapes(num_shapes=3, min_dims=0, max_dims=3, max_side=3)
    )
    ops = draw(st.lists(st.sampled_from(sorted(OPS)), min_size=2, max_size=2))
    reduction = draw(st.sampled_from(["sum", "mean"]))
    axis = draw(axes(len(result)))
    keepdims = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return shapes, ops, reduction, axis, keepdims, seed


@settings(max_examples=150)
@given(expressions())
def test_broadcasting_gradients_match_finite_differences(case):
    shapes, ops, reduction, axis, keepdims, seed = case
    rng = np.random.default_rng(seed)
    a, b, c = (Tensor(rng.uniform(-1, 1, shape)) for shape in shapes)

    def reduced():
        out = OPS[ops[1]](OPS[ops[0]](a, b), c)
        return getattr(out, reduction)(axis=axis, keepdims=keepdims)

    # a random upstream gradient, so the reductions' vjps see more than ones
    upstream = Tensor(rng.uniform(0.5, 1.5, reduced().shape))

    def loss():
        return (reduced() * upstream).sum()

    params = [a, b, c]
    grads = backward(loss(), params)
    for g, p, r in zip(grads, params, finite_difference(loss, params)):
        assert g.shape == p.shape
        assert relative_error(g, r) < 1e-6
