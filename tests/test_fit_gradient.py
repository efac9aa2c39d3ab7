"""Property test: the closed-form fit gradient (each sub-network's
:func:`fairweigh.nn.mlp_backward` from its node term's gradient at the head)
matches central finite differences of the fit loss, for nets of 0 to 3 hidden
layers, through all three heads and under random row weights."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fairweigh.autodiff import backward  # noqa: E402
from fairweigh.data import Column, ColumnarDataset, Encoder  # noqa: E402
from fairweigh.graph import parse_graph, total_path_set  # noqa: E402
from fairweigh.model import StructuredModel  # noqa: E402

from conftest import finite_difference, relative_error  # noqa: E402

# c has a linear head, k a softmax head over three levels, y a logistic head
GRAPH = parse_graph(
    """
[nodes]
s categorical 2
c continuous
k categorical 3
y categorical 2
[edges]
s -> c
s -> k
c -> k
c -> y
k -> y
s -> y
[roles]
sensitive s
outcome y
"""
)


@st.composite
def fits(draw):
    """Hidden widths, rows, whether some row weights are zero, and a seed for
    the data, the parameters and the weights."""
    hidden = tuple(draw(st.lists(st.integers(1, 5), min_size=0, max_size=3)))
    rows = draw(st.integers(2, 8))  # the encoder z-scores c, so two rows at least
    zeros = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return hidden, rows, zeros, seed


@settings(max_examples=40)
@given(fits())
def test_fit_gradient_matches_finite_differences(case):
    hidden, rows, zeros, seed = case
    rng = np.random.default_rng(seed)
    ds = ColumnarDataset(
        [
            Column("s", "categorical", rng.choice(["0", "1"], rows)),
            Column("c", "continuous", rng.normal(size=rows)),
            Column("k", "categorical", rng.choice(["0", "1", "2"], rows)),
            Column("y", "categorical", rng.choice(["0", "1"], rows)),
        ]
    )
    levels = {"s": ["0", "1"], "k": ["0", "1", "2"], "y": ["0", "1"]}
    enc = Encoder().fit(ds, levels)
    model = StructuredModel(GRAPH, enc, total_path_set(GRAPH), seed=seed % 1000, hidden=hidden)
    params = model.params.parameters(model.sub_network_nodes)
    for p in params:  # random biases too: the zero defaults hide part of the gradient
        p.data = rng.uniform(-1, 1, p.data.shape)
    x = enc.transform(ds)
    weights = rng.uniform(0.0, 2.0, rows)
    if zeros:
        weights[rng.random(rows) < 0.5] = 0.0

    grads = backward(model.fit_loss(x, weights), params)
    reference = finite_difference(lambda: model.fit_loss(x, weights), params)
    for g, r in zip(grads, reference):
        assert g.shape == r.shape
        assert relative_error(g, r) < 1e-6
