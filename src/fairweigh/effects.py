"""The causal-effect estimator and utility metrics over (re)weighted data.

:func:`estimate_effect` is the one effect estimator: the weighted mean
outcome probability of the high arm of the model's
:class:`~fairweigh.model.Pair` minus that of its low arm, with the weights
renormalized inside the pair's rows, so rescaling them never changes it.
The model's mode chooses the pair: total, path-specific (routed along the
mode's edges) or counterfactual (over the rows matching the condition).
:func:`discriminator_gap` reads the same pair; a caller holding it passes
it to both.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import backward
from .config import RunConfig
from .data import ColumnarDataset, DataError, Encoder, Split
from .model import Pair, StructuredModel
from .nn import Adam, ParamStore, Scratch, critic_loss, layer_sizes, mlp_forward

__all__ = [
    "estimate_effect",
    "discriminator_gap",
    "wasserstein_estimate",
    "wasserstein_distance",
    "statistical_parity",
    "downstream_accuracy",
    "MetricSummary",
    "EffectReport",
]


def _normalized(weights: np.ndarray | None, m: int, rows: np.ndarray | None = None) -> np.ndarray:
    """``weights`` over ``m`` rows (ones when None), taken at ``rows`` (all
    when None) and normalized inside them."""
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise ValueError(f"weights shape {w.shape} does not match m={m}")
    w = w if rows is None else w[rows]
    bad = ~(np.isfinite(w) & (w >= 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"weights must be finite and non-negative; position {i} holds {w[i]!r}"
        )
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    return w / total


def estimate_effect(
    model: StructuredModel,
    ds: ColumnarDataset,
    *,
    x: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    pair: Pair | None = None,
) -> float:
    """The effect matching the model's configured fairness mode.  A caller
    holding the model's pair over all of ``ds`` passes it as ``pair``."""
    if pair is None:
        x = model.encoder.transform(ds) if x is None else x
        pair = model.interventional_pair(x, model.pair_mask(ds))
    omega = _normalized(weights, ds.m, pair.rows)
    return float(omega @ pair.y_plus - omega @ pair.y_minus)


def discriminator_gap(
    model: StructuredModel,
    ds: ColumnarDataset,
    weights: np.ndarray | None = None,
    pair: Pair | None = None,
) -> float:
    """Diagnostic: weighted mean gap of critic outputs rescaled to [0, 1].

    Outputs for both interventional batches are min-max normalized against
    their pooled range; a degenerate (constant) critic yields 0 with a
    warning.  Reported alongside the effect estimate, never instead.  A
    caller holding the model's pair over all of ``ds`` passes it as ``pair``.
    """
    if pair is None:
        pair = model.interventional_pair(model.encoder.transform(ds), model.pair_mask(ds))
    d_plus = model.critic_values(pair.y_plus, pair.context)
    d_minus = model.critic_values(pair.y_minus, pair.context)
    return scaled_critic_gap(d_plus, d_minus, weights, ds.m, pair.rows)


def scaled_critic_gap(
    d_plus: np.ndarray, d_minus: np.ndarray, weights: np.ndarray | None, m: int, rows: np.ndarray
) -> float:
    """The gap of :func:`discriminator_gap` from the critic's read-outs on a
    pair's two arms, ``weights`` over all ``m`` rows normalized inside the
    pair's ``rows``."""
    low = np.minimum(d_plus.min(), d_minus.min())
    spread = float(np.maximum(d_plus.max(), d_minus.max()) - low)
    if spread < 1e-12:
        warnings.warn("critic output is constant; gap diagnostic degenerate")
        return 0.0
    omega = _normalized(weights, m, rows)
    return float(omega @ ((d_plus - low) / spread) - omega @ ((d_minus - low) / spread))


# -- distribution distance ------------------------------------------------------

# The distance critic's layer widths, learning rate, penalty coefficient, batch.
DISTANCE_HIDDEN = (32, 32, 32)
DISTANCE_LR = 1e-3
DISTANCE_PENALTY = 10.0
DISTANCE_BATCH = 256


def wasserstein_estimate(
    x: np.ndarray,
    weights: np.ndarray | None = None,
    seed: int = 0,
    steps: int = RunConfig.wasserstein_steps,
) -> float:
    """Critic-based distance between the rows of ``x`` and the same rows
    under ``weights``.

    Trains a fresh gradient-penalty critic (the ``DISTANCE_*`` constants) on
    full encoded rows to maximize E_uniform[C] - E_weighted[C] for a fixed
    step budget, then returns the exact full-data objective of the trained
    critic, which reads the rows out once.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("the row matrix must be 2-D")
    omega = _normalized(weights, x.shape[0])

    store = ParamStore(seed)
    store.add_group("critic", layer_sizes(x.shape[1], DISTANCE_HIDDEN, 1), zero_final=True)
    layers, params = store.group("critic"), store.parameters(["critic"])
    opt = Adam(params, DISTANCE_LR)
    rng = np.random.default_rng([seed, 3])

    # the draws of rng.choice(x.shape[0], size=batch, p=omega), with the
    # CDF built once instead of on every step
    cdf = omega.cumsum()
    cdf /= cdf[-1]
    batch = min(DISTANCE_BATCH, x.shape[0])
    scratch = Scratch(batch)
    # each step draws into the same buffers (rng.random: the draws of rng.uniform(0, 1))
    rows_a, rows_b, x_hat, mixed = (np.empty((batch, x.shape[1])) for _ in range(4))
    draws, u = np.empty(batch), np.empty((batch, 1))
    for _ in range(steps):
        np.take(x, rng.integers(0, x.shape[0], size=batch), axis=0, out=rows_a, mode="clip")
        rng.random(out=draws)
        np.take(x, cdf.searchsorted(draws, side="right"), axis=0, out=rows_b, mode="clip")
        rng.random(out=u)
        np.multiply(u, rows_a, out=x_hat)  # x_hat = u * rows_a + (1.0 - u) * rows_b
        np.multiply(1.0 - u, rows_b, out=mixed)
        x_hat += mixed
        loss, _, _ = critic_loss(
            layers, rows_a, rows_b, 1.0 / batch, x_hat, DISTANCE_PENALTY, scratch
        )
        if not np.isfinite(loss.data):
            raise FloatingPointError("distance critic diverged (non-finite loss)")
        opt.step(backward(loss, params))

    del scratch
    c = mlp_forward(layers, x, "linear")[:, 0]
    return float(c.mean() - omega @ c)


def wasserstein_distance(
    ds: ColumnarDataset,
    weights: np.ndarray,
    encoder: Encoder,
    seed: int = 0,
    steps: int = RunConfig.wasserstein_steps,
) -> float:
    """Dataset-level wrapper: the distance between the rows of ``ds`` and the
    same rows under ``weights``, encoded once by ``encoder``."""
    return wasserstein_estimate(encoder.transform(ds), weights, seed=seed, steps=steps)


# -- observational metrics -------------------------------------------------------


def _binary_indicator(ds: ColumnarDataset, name: str, encoder: Encoder) -> np.ndarray:
    """1.0 where a binary column holds the ``encoder``'s high (last) level."""
    col = ds.column(name)
    levels = encoder.levels(name) if col.kind == "categorical" else None
    if levels is None or len(levels) != 2:
        raise DataError(f"column {name!r} is not binary (levels: {levels})")
    return (col.values == levels[-1]).astype(np.float64)


def statistical_parity(
    ds: ColumnarDataset,
    sensitive: str,
    outcome: str,
    weights: np.ndarray | None = None,
    encoder: Encoder | None = None,
) -> float:
    """Weighted P(Y=1 | S=1) - P(Y=1 | S=0), directly from the data, the
    high level of each taken from ``encoder`` (fit on the two columns when
    None)."""
    if encoder is None:
        encoder = Encoder().fit(ColumnarDataset([ds.column(sensitive), ds.column(outcome)]))
    s = _binary_indicator(ds, sensitive, encoder)
    y = _binary_indicator(ds, outcome, encoder)
    w = np.ones(ds.m) if weights is None else np.asarray(weights, dtype=np.float64)
    mass_high = float(w[s == 1].sum())
    mass_low = float(w[s == 0].sum())
    if mass_high <= 0 or mass_low <= 0:
        raise DataError("a sensitive group carries no weight")
    rate_high = float(w[s == 1] @ y[s == 1]) / mass_high
    rate_low = float(w[s == 0] @ y[s == 0]) / mass_low
    return rate_high - rate_low


REGRESSION_EPOCHS = 500
REGRESSION_LR = 0.1


def downstream_accuracy(part: Split, outcome: str, weights: np.ndarray | None = None) -> float:
    """Held-out accuracy of a logistic regression predicting the binary
    ``outcome`` from the other columns, fitted on ``part``'s training side
    under ``weights`` (one per training row), both sides encoded by
    ``part``'s encoder.

    Plain full-batch gradient descent in float64 (``REGRESSION_EPOCHS`` steps
    at rate ``REGRESSION_LR``), no regularization.  A loose final gradient
    norm only warns; the accuracy is returned regardless.
    """
    enc = part.encoder
    y_train = _binary_indicator(part.train, outcome, enc)
    y_test = _binary_indicator(part.test, outcome, enc)
    block = enc.block(outcome)
    feature_cols = [i for i in range(enc.width) if not block.start <= i < block.stop]
    a_train = enc.transform(part.train)[:, feature_cols]
    a_test = enc.transform(part.test)[:, feature_cols]

    omega = _normalized(weights, part.train.m)
    theta = np.zeros(a_train.shape[1])
    intercept = 0.0
    grad_norm = np.inf
    for _ in range(REGRESSION_EPOCHS):
        z = a_train @ theta + intercept
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -700, 700)))
        residual = omega * (p - y_train)
        grad_theta = a_train.T @ residual
        grad_intercept = float(residual.sum())
        theta -= REGRESSION_LR * grad_theta
        intercept -= REGRESSION_LR * grad_intercept
        grad_norm = float(np.sqrt(np.sum(grad_theta**2) + grad_intercept**2))
    if grad_norm > 5e-2:
        warnings.warn(
            f"logistic regression not fully converged (grad norm {grad_norm:.3g})"
        )
    predictions = (a_test @ theta + intercept) > 0.0
    return float(np.mean(predictions == (y_test > 0.5)))


# -- aggregation -----------------------------------------------------------------


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float
    values: tuple[float, ...]

    @classmethod
    def of(cls, values) -> "MetricSummary":
        arr = np.asarray(list(values), dtype=np.float64)
        std = float(arr.std(ddof=0)) if arr.size > 1 else 0.0
        return cls(float(arr.mean()), std, tuple(float(v) for v in arr))

    def render(self) -> str:
        return f"{self.mean:.4f} ({self.std:.4f})"


@dataclass(frozen=True)
class EffectReport:
    """Aggregated over repetitions; pass/fail compares |effect mean| to tau."""

    mode: str
    effect: MetricSummary
    critic_gap: MetricSummary | None
    wasserstein: MetricSummary | None
    parity: MetricSummary
    accuracy: MetricSummary | None
    threshold: float

    @property
    def passed(self) -> bool:
        return abs(self.effect.mean) < self.threshold

    def to_dict(self) -> dict:
        def pack(s):
            return None if s is None else {"mean": s.mean, "std": s.std, "values": list(s.values)}

        return {
            "mode": self.mode,
            "effect": pack(self.effect),
            "critic_gap": pack(self.critic_gap),
            "wasserstein": pack(self.wasserstein),
            "statistical_parity": pack(self.parity),
            "accuracy": pack(self.accuracy),
            "threshold": self.threshold,
            "passed": self.passed,
        }

    def render_table(self) -> str:
        def shown(s):
            return "-" if s is None else s.render()

        rows = [
            ("mode", self.mode),
            ("effect", self.effect.render()),
            ("critic gap", shown(self.critic_gap)),
            ("wasserstein", shown(self.wasserstein)),
            ("statistical parity", self.parity.render()),
            ("accuracy", shown(self.accuracy)),
            ("threshold", f"{self.threshold:g}"),
            ("fair", "yes" if self.passed else "no"),
        ]
        label_width = max(len(r[0]) for r in rows)
        return "\n".join(f"{label:<{label_width}}  {value}" for label, value in rows)
