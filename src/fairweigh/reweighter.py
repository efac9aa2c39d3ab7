"""Sample-weight optimization under simplex and balance-ball constraints.

The program is: minimize d.w subject to w >= 0, sum(w) = m and
sum((w - 1)^2) <= T*m.  When the ball binds, the minimizer is the Euclidean
projection of 1 - t d onto the scaled simplex for one multiplier
t = 1/(2 lambda) > 0, and its support is a run of the smallest d.  The order
of 1 - t d does not depend on t, so one sort of d and its prefix sums give
every candidate support's t in closed form; the solve keeps the consistent
one and then projects once (the projection as in Duchi et al., "Efficient
Projections onto the l1-Ball", ICML 2008).
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


class SolverError(ValueError):
    """Invalid solver input or an infeasible weight vector."""


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
    """Euclidean projection of ``v`` onto {w >= 0, sum(w) = total}, written
    over ``v`` when it is a float64 array (and returned).

    Sort-based threshold search: w_i = max(v_i - theta, 0) with theta the
    unique root of sum(max(v_i - theta, 0)) = total.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise SolverError("projection input contains non-finite entries")
    if total <= 0:
        raise SolverError(f"projection target sum must be positive, got {total}")
    u = np.sort(v)[::-1]
    # theta_j = (sum of the j largest - total) / j; the support is the
    # longest prefix of u with u_j > theta_j
    theta = np.cumsum(u)
    theta -= total
    theta /= np.arange(1, v.size + 1)
    rho = v.size - 1 - int(np.argmax((u > theta)[::-1]))
    np.subtract(v, theta[rho], out=v)
    return np.maximum(v, 0.0, out=v)


def _vertex_solution(d: np.ndarray) -> np.ndarray:
    """All mass on the minimizers of d, split equally among exact ties."""
    m = d.size
    ties = d == d.min()
    w = np.zeros(m)
    w[ties] = m / ties.sum()
    return w


def _standardized(d: np.ndarray) -> np.ndarray:
    """(d - min d) / 2^e with 2^e the power of two above d's spread, so the
    values lie in [0, 2): the same minimizer, and neither the scaling nor the
    sums of squares over- or underflow at any finite spread."""
    lo = float(d.min())
    exponent = int(np.frexp(0.5 * float(d.max()) - 0.5 * lo)[1]) + 1
    z = np.ldexp(d, -exponent)
    z -= np.ldexp(lo, -exponent)
    return z


def _support(z: np.ndarray, m: int, balance: float) -> tuple[int, float, float] | None:
    """Size k, mean and multiplier t = 1/(2 lambda) of the binding solve's
    support over the ascending values ``z`` of rows whose weights sum to
    ``m``, or None when the support lies among rows whose sums of squares
    lost their digits; ``z`` is overwritten.

    On the support of the k smallest values the weights are
    w_i = m/k + t (mean_k - z_i), and the deviation sum((w - 1)^2) is
    m (m/k - 1) + t^2 V_k, with V_k the support's sum of squared deviations
    from its mean; the ball binds at t_k^2 = m (T + 1 - m/k) / V_k.  Support
    k is consistent when its last weight at t_k is >= 0.  The deviation of
    the projection of 1 - t z rises strictly with t from 0 to the vertex's
    (above T m), so it meets T m at one t, and consistent supports are a
    prefix of the sizes at which the ball can bind; the largest is the
    solution's (a smaller one differs only by rows of weight exactly zero).
    """
    k = np.arange(1.0, z.size + 1.0)
    mean = np.cumsum(z)
    mean /= k
    z -= mean  # g_k = z_k - mean_k
    # V_k as Welford's sum of the nonnegative k/(k - 1) g_k^2, free of cancellation
    var = np.square(z)
    var *= k
    var[1:] /= k[:-1]  # k - 1
    var[0] = 0.0
    np.cumsum(var, out=var)
    # last weight >= 0:  r_k k g_k^2 <= m V_k, with r_k = (T + 1) k - m > 0
    np.square(z, out=z)
    z *= k
    r = k  # k is not needed again
    r *= balance + 1.0
    r -= m
    z *= r
    z /= m
    # a V_k below the smallest normal float has lost its digits
    consistent = (r > 0.0) & (var >= np.finfo(np.float64).tiny) & (z <= var)
    last = z.size - 1 - int(np.argmax(consistent[::-1]))
    if not consistent[last]:
        return None
    t = np.sqrt(m * r[last] / (last + 1.0)) / np.sqrt(var[last])  # t_k^2 = m r_k / (k V_k)
    return last + 1, float(mean[last]), float(t)


def _binding_weights(d: np.ndarray, m: int, balance: float) -> np.ndarray:
    """The binding solve's weights over the rows ``d``, summing to ``m``.

    d is standardized (a shift and a positive scale leave the minimizer),
    one sort and its prefix sums give the support and t in closed form
    (:func:`_support`), and one projection, centred on the support's mean,
    gives the weights.  When the support lies among the rows below 2^-500
    of d's range, whose squares lose their digits, they are solved again
    on their own scale and the rest get weight zero.
    """
    z = _standardized(d)
    z.sort()
    support = _support(z, m, balance)
    del z
    v = _standardized(d)  # again, unsorted, rather than held through the search
    if support is None:
        low = v < 2.0**-500
        if low.all():  # equal values: no smaller scale to solve them on
            raise SolverError("no weight support meets the balance ball")
        v[:] = 0.0
        v[low] = _binding_weights(d[low], m, balance)
        return v
    _, mean, t = support
    v -= mean
    v *= -t
    v += 1.0
    return project_scaled_simplex(v, float(m))


def solve_weights(d: np.ndarray, balance: float) -> WeightVector:
    """Global minimizer of d.w over the feasible weight set.

    Constant d is degenerate (every feasible point is optimal) and resolves to
    the all-ones vector.  When the balance ball does not bind, the answer is
    the simplex vertex concentrating on argmin(d).  Otherwise the minimizer
    is the projection of 1 - t d onto the scaled simplex at the one t where
    the ball binds (:func:`_binding_weights`).
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise SolverError("d must be a non-empty vector")
    if not np.all(np.isfinite(d)):
        raise SolverError("d contains non-finite entries")
    if balance <= 0:
        raise SolverError(f"balance parameter must be positive, got {balance}")

    m = d.size
    if d.max() == d.min():
        return WeightVector(np.ones(m), balance)

    vertex = _vertex_solution(d)
    vertex_dev = float(np.sum((vertex - 1.0) ** 2))
    if vertex_dev <= balance * m + BALL_TOL * m:
        return WeightVector(vertex, balance)
    del vertex
    return WeightVector(_binding_weights(d, m, balance), balance)
