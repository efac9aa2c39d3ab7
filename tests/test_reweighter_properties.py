"""Property test: a common offset of the critic gap d leaves the solved
weights, since every feasible w sums to m."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fairweigh.reweighter import solve_weights  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 200),
    spread=st.floats(1e-4, 10.0),
    offset=st.floats(-1e7, 1e7),
    balance=st.sampled_from([0.1, 0.5, 1.5, 5.0]),
)
def test_a_common_offset_leaves_the_solved_weights(seed, m, spread, offset, balance):
    """``offset`` is in units of the spread; d + c rounds each entry by up to
    |c| 2^-53, about 1e-9 of the spread at the largest offset."""
    d = np.random.default_rng(seed).normal(size=m) * spread
    base = solve_weights(d, balance).values
    shifted = solve_weights(d + offset * spread, balance).values
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-6)
