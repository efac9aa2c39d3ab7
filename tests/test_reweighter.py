import numpy as np
import pytest

from fairweigh import reweighter
from fairweigh.reweighter import (
    SolverError,
    WeightVector,
    check_feasibility,
    project_scaled_simplex,
    solve_weights,
)

from conftest import assert_kkt_optimal


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
    assert np.allclose(project_scaled_simplex(v.copy(), 3.0), v, atol=1e-12)


def test_projection_writes_over_its_input():
    v = np.array([2.0, 0.5, -0.5])
    assert project_scaled_simplex(v, 3.0) is v
    assert np.allclose(v, [2.25, 0.75, 0.0], atol=1e-12)


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
    3e-7 short of m (SolverError); the solve now works on a standardized d."""
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


def case_rows(seed, m, spike=0.0):
    d = np.random.default_rng(seed).normal(size=m)
    d[0] += spike
    return d


@pytest.mark.parametrize(
    "d",
    [
        pytest.param(case_rows(0, 100) * 1e-300, id="spread-1e-300"),
        pytest.param(case_rows(1, 100, 1e9), id="spike-1e9-m100"),
        pytest.param(case_rows(2, 100, 1e10), id="spike-1e10-m100"),
        pytest.param(case_rows(3, 1_000, 1e9), id="spike-1e9-m1000"),
        pytest.param(case_rows(4, 1_000, 1e10), id="spike-1e10-m1000"),
        pytest.param(case_rows(5, 20_000, 1e9), id="spike-1e9-m20000"),
        pytest.param(case_rows(6, 20_000, 1e10), id="spike-1e10-m20000"),
        pytest.param(case_rows(7, 1_000, 1e15), id="spike-1e15-m1000"),
        pytest.param(case_rows(8, 100) * 1e300, id="values-1e300"),
        pytest.param(1e300 + case_rows(9, 100) * 1e290, id="offset-1e300"),
        pytest.param(case_rows(0, 50, 1e300), id="spike-1e300-m50"),
        pytest.param(case_rows(10, 100, 1e160), id="spike-1e160-m100"),
        pytest.param(
            np.concatenate([case_rows(11, 10) * 1e-300, [1.0, 1e300]]), id="three-scales"
        ),
    ],
)
def test_extreme_but_valid_gaps_solve_to_the_optimum(d):
    """Each of these once failed: a spread of 1e-300 underflowed the
    multiplier (non-finite projection input), one gap 1e9-1e10 above N(0,1)
    rows left the sum 1e-7 to 3e-5 short of m, one 1e15 above them ran 200
    bisection steps without converging, and values near 1e300 overflowed the
    norm that seeded the bisection.  N(0,1) rows with one gap 1e160 or 1e300
    above them were refused: their sums of squares underflow on the scale of
    the whole range, so they are solved again on their own (twice when the
    support lies 1e-300 below a row 1e300 below the range)."""
    for balance in (0.5, 1.5):
        assert_kkt_optimal(d, balance, solve_weights(d, balance).values)


def test_kkt_checker_rejects_a_suboptimal_point():
    d = np.array([1.0, 0.0, -1.0])
    with pytest.raises(AssertionError):
        assert_kkt_optimal(d, 0.5, np.ones(3))


@pytest.fixture
def projections(monkeypatch):
    calls = []
    original = reweighter.project_scaled_simplex

    def counted(v, total):
        calls.append(v.size)
        return original(v, total)

    monkeypatch.setattr(reweighter, "project_scaled_simplex", counted)
    return calls


def test_a_binding_solve_projects_exactly_once(projections):
    d = np.random.default_rng(3).normal(size=500)
    solve_weights(d, 1.5)
    assert projections == [500]


def test_vertex_and_constant_solves_project_never(projections):
    solve_weights(np.array([3.0, 1.0, 2.0]), balance=2.0)  # vertex
    solve_weights(np.full(4, -2.3), 0.2)  # constant
    assert projections == []
