import numpy as np
import pytest

from fairweigh.reweighter import (
    SolverError,
    WeightVector,
    check_feasibility,
    project_scaled_simplex,
    solve_weights,
)


def grid_search_optimum(d, balance, step=1e-2):
    """Independent oracle: exhaustive grid over the feasible set (m <= 4)."""
    m = d.size
    grid = np.arange(0.0, m + step / 2, step)
    best = np.inf
    if m == 2:
        w0 = grid
        w1 = m - w0
        ok = (w1 >= -1e-12) & ((w0 - 1) ** 2 + (w1 - 1) ** 2 <= balance * m + 1e-9)
        if ok.any():
            best = np.min(d[0] * w0[ok] + d[1] * w1[ok])
    elif m == 3:
        w0g, w1g = np.meshgrid(grid, grid, indexing="ij")
        w2 = m - w0g - w1g
        dev = (w0g - 1) ** 2 + (w1g - 1) ** 2 + (w2 - 1) ** 2
        ok = (w2 >= -1e-12) & (dev <= balance * m + 1e-9)
        if ok.any():
            best = np.min((d[0] * w0g + d[1] * w1g + d[2] * w2)[ok])
    else:
        for w0 in grid:
            w1g, w2g = np.meshgrid(grid, grid, indexing="ij")
            w3 = m - w0 - w1g - w2g
            dev = (w0 - 1) ** 2 + (w1g - 1) ** 2 + (w2g - 1) ** 2 + (w3 - 1) ** 2
            ok = (w3 >= -1e-12) & (dev <= balance * m + 1e-9)
            if ok.any():
                value = np.min((d[0] * w0 + d[1] * w1g + d[2] * w2g + d[3] * w3)[ok])
                best = min(best, value)
    return best


def test_projection_keeps_feasible_points():
    v = np.array([0.5, 1.2, 1.3])
    assert np.allclose(project_scaled_simplex(v, 3.0), v, atol=1e-12)


def test_projection_clips_and_shifts():
    # frozen from a hand KKT support search, checked against dense grid search
    out = project_scaled_simplex(np.array([2.0, 0.5, -0.5]), 3.0)
    assert np.allclose(out, [2.25, 0.75, 0.0], atol=1e-12)


def test_projection_of_constant_vector_is_uniform():
    for c in (-5.0, 0.0, 7.5):
        out = project_scaled_simplex(np.full(3, c), 3.0)
        assert np.allclose(out, 1.0, atol=1e-12)


def test_projection_rejects_nonfinite():
    with pytest.raises(SolverError):
        project_scaled_simplex(np.array([1.0, np.nan]), 2.0)


def test_constant_gap_returns_uniform_weights():
    assert np.array_equal(solve_weights(np.zeros(5), 1.5).values, np.ones(5))
    assert np.array_equal(solve_weights(np.full(4, -2.3), 0.2).values, np.ones(4))


def test_analytic_active_ball_case():
    # closed form: w = 1 - d/(2 lambda) with lambda = 1/sqrt(3)
    w = solve_weights(np.array([1.0, 0.0, -1.0]), 0.5)
    expected = np.array([1.0 - np.sqrt(3) / 2, 1.0, 1.0 + np.sqrt(3) / 2])
    assert np.max(np.abs(w.values - expected)) < 1e-4
    assert abs(float(np.array([1.0, 0.0, -1.0]) @ w.values) + np.sqrt(3)) < 1e-4


def test_slack_ball_concentrates_on_argmin():
    w = solve_weights(np.array([3.0, 1.0, 2.0]), balance=2.0)  # T >= m-1
    assert np.allclose(w.values, [0.0, 3.0, 0.0])


def test_argmin_ties_split_equally():
    w = solve_weights(np.array([1.0, 1.0, 5.0]), balance=5.0)
    assert np.allclose(w.values, [1.5, 1.5, 0.0])


def test_solver_matches_grid_oracle():
    rng = np.random.default_rng(123)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        d = rng.uniform(-2, 2, m)
        balance = float(rng.choice([0.1, 0.5, 1.5, 5.0]))
        w = solve_weights(d, balance)
        achieved = float(d @ w.values)
        assert achieved <= grid_search_optimum(d, balance) + 1e-3


def test_solutions_always_feasible():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(2, 60))
        d = rng.normal(0, rng.uniform(0.05, 4.0), m)
        balance = float(rng.uniform(0.05, 6.0))
        w = solve_weights(d, balance)
        report = check_feasibility(w.values, balance)
        assert report.feasible, report.describe()


def test_objective_scale_covariance():
    rng = np.random.default_rng(11)
    d = rng.normal(0, 1, 20)
    base = solve_weights(d, 0.8).values
    for c in (0.1, 3.0, 250.0):
        scaled = solve_weights(c * d, 0.8).values
        assert np.max(np.abs(scaled - base)) < 1e-6


def test_a_large_common_offset_does_not_break_the_solve():
    """An offset 10^7 times the spread of d once left the projection's sum
    3e-7 short of m (SolverError); the bisection now runs on d - mean(d)."""
    d = np.random.default_rng(1).normal(size=100) * 1e-3 - 1e4
    w = solve_weights(d, 1.5)
    assert check_feasibility(w.values, 1.5).feasible
    unshifted = solve_weights(d + 1e4, 1.5)
    assert np.max(np.abs(w.values - unshifted.values)) < 1e-8


def test_permutation_equivariance():
    rng = np.random.default_rng(13)
    d = rng.normal(0, 1, 15)
    perm = rng.permutation(15)
    w = solve_weights(d, 1.2).values
    w_perm = solve_weights(d[perm], 1.2).values
    assert np.max(np.abs(w_perm - w[perm])) < 1e-9


def test_objective_monotone_in_balance():
    rng = np.random.default_rng(17)
    d = rng.normal(0, 1, 30)
    values = [float(d @ solve_weights(d, t).values) for t in (0.1, 0.5, 1.5, 3.0, 10.0)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9


def test_weight_vector_validates_invariants():
    with pytest.raises(SolverError, match="negative"):
        WeightVector(np.array([-0.1, 2.1]), 5.0)
    with pytest.raises(SolverError, match="sum"):
        WeightVector(np.array([2.0, 2.0]), 5.0)
    with pytest.raises(SolverError, match="ball"):
        WeightVector(np.array([0.0, 2.0]), 0.1)
    wv = WeightVector(np.array([0.5, 1.5]), 1.0)
    assert wv.m == 2 and abs(wv.deviation() - 0.5) < 1e-12


def test_feasibility_report_names_negative_index():
    report = check_feasibility(np.array([1.0, -0.5, 2.5]), 2.0)
    assert not report.nonnegative and report.worst_negative_index == 1
    assert "index 1" in report.describe()


def test_solver_input_validation():
    with pytest.raises(SolverError):
        solve_weights(np.array([1.0, np.inf]), 1.0)
    with pytest.raises(SolverError):
        solve_weights(np.array([]), 1.0)
    with pytest.raises(SolverError):
        solve_weights(np.array([1.0, 2.0]), 0.0)
