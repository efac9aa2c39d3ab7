"""Property tests of the weight solve at random sizes: feasibility and
optimality, invariance under a positive affine map of the gap d, permutation
equivariance, the uniqueness of the closed form's support (in exact
arithmetic, ties included), and agreement with the multiplier bisection the
closed form replaced."""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from fairweigh.reweighter import (  # noqa: E402
    _support,
    _standardized,
    project_scaled_simplex,
    solve_weights,
)

from conftest import assert_kkt_optimal  # noqa: E402

balances = st.one_of(
    st.sampled_from([0.125, 0.5, 1.0, 1.5, 5.0]), st.floats(0.01, 20.0)
)


@st.composite
def gaps(draw, max_m=400):
    """A critic gap d: normal, integer-valued (many ties) or normal with one
    far spike, times a scale from 1e-200 to 1e200."""
    m = draw(st.integers(1, max_m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "ties", "spike"]))
    if kind == "ties":
        d = rng.integers(-3, 4, size=m).astype(np.float64)
    else:
        d = rng.normal(size=m)
        if kind == "spike":
            d[rng.integers(m)] += draw(st.sampled_from([1e3, 1e9, 1e15, -1e9]))
    return d * 10.0 ** draw(st.integers(-200, 200))


@settings(max_examples=200)
@given(d=gaps(), balance=balances)
def test_solutions_are_feasible_and_optimal(d, balance):
    assert_kkt_optimal(d, balance, solve_weights(d, balance).values)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 300),
    scale=st.floats(1e-3, 1e3),
    offset=st.floats(-100.0, 100.0),
    balance=balances,
)
def test_a_positive_affine_map_of_d_leaves_the_weights(seed, m, scale, offset, balance):
    """``offset`` is in units of the scaled spread, so a d + b rounds each
    entry by about 1e-14 of the spread."""
    d = np.random.default_rng(seed).normal(size=m)
    base = solve_weights(d, balance).values
    mapped = solve_weights(scale * d + offset * scale, balance).values
    np.testing.assert_allclose(mapped, base, rtol=0, atol=1e-6)


@settings(max_examples=200)
@given(d=gaps(), balance=balances, seed=st.integers(0, 2**32 - 1))
def test_permuting_d_permutes_the_weights_exactly(d, balance, seed):
    perm = np.random.default_rng(seed).permutation(d.size)
    w = solve_weights(d, balance).values
    assert np.array_equal(solve_weights(d[perm], balance).values, w[perm])


@settings(max_examples=200)
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


def exact_consistent_supports(d, balance) -> dict:
    """{k: (t_k^2, mean_k)} over every support size k of the k smallest
    values of d that is consistent in exact rational arithmetic: the ball binds at
    t_k^2 = m (T + 1 - m/k) / V_k, the support's last weight at t_k is >= 0
    and the next row's would be <= 0."""
    values = sorted(Fraction(v) for v in d)
    T, m = Fraction(balance), len(values)
    found, total = {}, Fraction(0)
    for k in range(1, m + 1):
        total += values[k - 1]
        mean = total / k
        var = sum((v - mean) ** 2 for v in values[:k])
        r = (T + 1) * k - m
        if r <= 0 or var == 0:
            continue
        last_ok = r * k * (values[k - 1] - mean) ** 2 <= m * var
        next_ok = k == m or r * k * (values[k] - mean) ** 2 >= m * var
        if last_ok and next_ok:
            found[k] = (m * r / (k * var), mean)
    return found


@settings(max_examples=300)
@given(
    values=st.lists(st.integers(-3, 3), min_size=2, max_size=24),
    balance=st.sampled_from([0.125, 0.25, 0.5, 1.0, 1.5, 3.0, 0.1]),
)
@example(values=[-3, 3, -3, 0, 2, 2, 1, 1, -2], balance=1.0)  # supports 6, 7 and 8
def test_the_binding_support_is_unique_ties_included(values, balance):
    """Whenever the ball binds, the consistent supports are one run of sizes
    sharing one multiplier, and differ only by rows of weight exactly zero;
    the solve returns their weights and picks one of them."""
    d = np.array(values, dtype=np.float64)
    m = d.size
    ties = np.sum(d == d.min())
    assume(ties < m and m * (m / ties - 1.0) > balance * m)  # the ball binds
    found = exact_consistent_supports(d, balance)
    assert found
    sizes = sorted(found)
    assert sizes == list(range(sizes[0], sizes[-1] + 1))
    assert len({t2 for t2, _ in found.values()}) == 1
    t2, mean = found[sizes[0]]
    ordered = sorted(Fraction(v) for v in d)
    for k in sizes[1:]:  # rows past the smallest support weigh m/k + t (mean_k - v) = 0
        _, mean_k = found[k]
        for v in ordered[sizes[0] : k]:
            assert v >= mean_k and Fraction(m, k) ** 2 == t2 * (v - mean_k) ** 2
    t = float(t2) ** 0.5
    want = np.maximum(m / sizes[0] + t * (float(mean) - d), 0.0)
    np.testing.assert_allclose(solve_weights(d, balance).values, want, rtol=0, atol=1e-9)
    k, _, _ = _support(np.sort(_standardized(d)), m, balance)
    assert k in found


def bisection_solve(d, balance):
    """The multiplier bisection that the closed form replaced (test-only):
    (weights, lambda) once the deviation is within 1e-8 m below T m, or None
    when 200 steps do not get there."""
    m = d.size
    target = balance * m
    centered = d - d.mean()
    lam = float(np.linalg.norm(centered)) / (2.0 * np.sqrt(target))
    lo = hi = None
    for _ in range(200):
        w = project_scaled_simplex(1.0 - centered / (2.0 * lam), float(m))
        dev = float(np.sum((w - 1.0) ** 2))
        if dev <= target and target - dev <= 1e-8 * m:
            return w, lam
        if dev > target:
            lo = lam
            lam = 0.5 * (lo + hi) if hi is not None else lam * 2.0
        else:
            hi = lam
            lam = 0.5 * (lo + hi) if lo is not None else lam * 0.5
    return None


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 2000),
    spread=st.floats(1e-3, 1e3),
    balance=balances,
)
def test_the_closed_form_agrees_with_the_bisection(seed, m, spread, balance):
    """Where the bisection converges, its deviation D_b lies within 1e-8 m
    below T m and its weights are optimal for that smaller ball, so the
    closed form's objective is no worse, and better by at most the
    bisection's slack lambda_b (T m - D_b)."""
    d = np.random.default_rng(seed).normal(size=m) * spread
    ties = np.sum(d == d.min())
    assume(m * (m / ties - 1.0) > (balance + 1e-9) * m)  # the ball binds
    solved = bisection_solve(d, balance)
    assume(solved is not None)
    w_b, lam_b = solved
    w_c = solve_weights(d, balance).values
    c = d - d.mean()
    slack = balance * m - float(np.sum((w_b - 1.0) ** 2))
    rounding = 1e-10 * m * float(np.max(np.abs(c)))
    assert abs(float(np.sum((w_c - 1.0) ** 2)) - balance * m) <= 1e-9 * m
    assert float(c @ w_c) <= float(c @ w_b) + rounding
    assert float(c @ w_b) - float(c @ w_c) <= lam_b * slack + rounding
