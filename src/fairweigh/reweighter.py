"""Sample-weight optimization under simplex and balance-ball constraints.

The program is: minimize d.w subject to w >= 0, sum(w) = m and
sum((w - 1)^2) <= T*m.  The solver runs a bisection on the Lagrange
multiplier of the ball constraint; each trial point is a Euclidean projection
onto the scaled simplex, so every iterate is feasible for the simplex part by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverError",
    "WeightVector",
    "FeasibilityReport",
    "project_scaled_simplex",
    "solve_weights",
    "check_feasibility",
]

SUM_TOL = 1e-9  # relative to m
BALL_TOL = 1e-9  # relative to m
BISECT_TOL = 1e-8  # relative to m, on the ball residual
MAX_BISECT = 200


class SolverError(ValueError):
    """Infeasible weight vector or a solve that failed to converge."""


@dataclass(frozen=True)
class WeightVector:
    """Feasible weights: nonnegative, summing to m, within the balance ball."""

    values: np.ndarray
    balance: float

    def __post_init__(self):
        w = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", w)
        m = w.size
        if m == 0:
            raise SolverError("empty weight vector")
        if self.balance <= 0:
            raise SolverError(f"balance parameter must be positive, got {self.balance}")
        report = check_feasibility(w, self.balance)
        if not report.feasible:
            raise SolverError(f"infeasible weights: {report.describe()}")

    @property
    def m(self) -> int:
        return self.values.size

    def deviation(self) -> float:
        return float(np.sum((self.values - 1.0) ** 2))


@dataclass(frozen=True)
class FeasibilityReport:
    nonnegative: bool
    worst_negative_index: int | None
    sum_ok: bool
    sum_residual: float
    ball_ok: bool
    ball_slack: float

    @property
    def feasible(self) -> bool:
        return self.nonnegative and self.sum_ok and self.ball_ok

    def describe(self) -> str:
        problems = []
        if not self.nonnegative:
            problems.append(f"negative weight at index {self.worst_negative_index}")
        if not self.sum_ok:
            problems.append(f"sum residual {self.sum_residual:.3e}")
        if not self.ball_ok:
            problems.append(f"balance ball exceeded by {-self.ball_slack:.3e}")
        return "; ".join(problems) if problems else "feasible"


def check_feasibility(w: np.ndarray, balance: float) -> FeasibilityReport:
    w = np.asarray(w, dtype=np.float64)
    m = w.size
    negatives = np.nonzero(w < 0.0)[0]
    nonnegative = negatives.size == 0
    worst = None if nonnegative else int(negatives[np.argmin(w[negatives])])
    sum_residual = float(np.sum(w) - m)
    sum_ok = abs(sum_residual) <= SUM_TOL * m
    deviation = float(np.sum((w - 1.0) ** 2))
    ball_slack = balance * m - deviation
    ball_ok = ball_slack >= -BALL_TOL * m
    return FeasibilityReport(nonnegative, worst, sum_ok, sum_residual, ball_ok, ball_slack)


def project_scaled_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto {w >= 0, sum(w) = total}.

    Sort-based threshold search: w_i = max(v_i - theta, 0) with theta the
    unique root of sum(max(v_i - theta, 0)) = total.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise SolverError("projection input contains non-finite entries")
    if total <= 0:
        raise SolverError(f"projection target sum must be positive, got {total}")
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    counts = np.arange(1, v.size + 1)
    support = np.nonzero(u - (cumulative - total) / counts > 0.0)[0]
    rho = support[-1]
    theta = (cumulative[rho] - total) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _vertex_solution(d: np.ndarray) -> np.ndarray:
    """All mass on the minimizers of d, split equally among exact ties."""
    m = d.size
    ties = d == d.min()
    w = np.zeros(m)
    w[ties] = m / ties.sum()
    return w


def solve_weights(d: np.ndarray, balance: float) -> WeightVector:
    """Global minimizer of d.w over the feasible weight set.

    Constant d is degenerate (every feasible point is optimal) and resolves to
    the all-ones vector.  When the balance ball does not bind, the answer is
    the simplex vertex concentrating on argmin(d); otherwise a bisection on
    the multiplier lambda drives the deviation sum((w-1)^2) onto T*m.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise SolverError("d must be a non-empty vector")
    if not np.all(np.isfinite(d)):
        raise SolverError("d contains non-finite entries")
    if balance <= 0:
        raise SolverError(f"balance parameter must be positive, got {balance}")

    m = d.size
    target = balance * m

    if float(d.max() - d.min()) == 0.0:
        return WeightVector(np.ones(m), balance)

    vertex = _vertex_solution(d)
    vertex_dev = float(np.sum((vertex - 1.0) ** 2))
    if vertex_dev <= target + BALL_TOL * m:
        return WeightVector(vertex, balance)

    # The bisection runs on d - mean(d): a common shift of d leaves the
    # minimizer unchanged (sum(w) = m), but an offset far above d's spread
    # would swamp the spread in 1 - d / (2 lam) and break the projection.
    centered = d - d.mean()

    def trial(lam: float) -> tuple[np.ndarray, float]:
        w = project_scaled_simplex(1.0 - centered / (2.0 * lam), float(m))
        return w, float(np.sum((w - 1.0) ** 2))

    # Interior guess: with no clipping, deviation = ||centered||^2 / (4 lam^2).
    lam = float(np.linalg.norm(centered)) / (2.0 * np.sqrt(target))
    lo: float | None = None  # deviation above target (lambda too small)
    hi: float | None = None  # deviation at or below target (lambda large enough)
    for _ in range(MAX_BISECT):
        w, dev = trial(lam)
        if dev <= target and target - dev <= BISECT_TOL * m:
            return WeightVector(w, balance)
        if dev > target:
            lo = lam
            lam = 0.5 * (lo + hi) if hi is not None else lam * 2.0
        else:
            hi = lam
            lam = 0.5 * (lo + hi) if lo is not None else lam * 0.5
    raise SolverError(
        f"weight solve did not converge in {MAX_BISECT} bisection steps "
        f"(bracket [{lo}, {hi}], target {target:.6e})"
    )
