"""Causal-effect estimators and utility metrics over (re)weighted data.

Effect estimators are Monte-Carlo contrasts of the interventional forward
passes under the reweighted empirical distribution: weighted mean of the
outcome probability with the sensitive node clamped high minus the weighted
mean with it clamped low.  Rescaling all weights by a positive constant never
changes any estimate.  :func:`estimate_effect` and :func:`discriminator_gap`
take the model's :class:`~fairweigh.model.Pair` as it is, with the weights
renormalized inside its rows; a caller holding the pair passes it to both.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import backward
from .data import ColumnarDataset, DataError, Encoder
from .model import ModelError, Pair, StructuredModel
from .nn import Adam, ParamStore, Scratch, critic_loss, layer_sizes, mlp_forward

__all__ = [
    "total_effect",
    "path_specific_effect",
    "counterfactual_effect",
    "estimate_effect",
    "discriminator_gap",
    "wasserstein_estimate",
    "wasserstein_distance",
    "statistical_parity",
    "downstream_accuracy",
    "MetricSummary",
    "EffectReport",
]


def _normalized(weights: np.ndarray, m: int) -> np.ndarray:
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise ValueError(f"weights shape {w.shape} does not match m={m}")
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


def _pair_weights(weights: np.ndarray | None, m: int, rows: np.ndarray) -> np.ndarray:
    """Weights of the pair's rows, normalized inside them."""
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise ValueError(f"weights shape {w.shape} does not match m={m}")
    return _normalized(w[rows], rows.size)


def total_effect(
    model: StructuredModel,
    ds: ColumnarDataset,
    weights: np.ndarray | None = None,
    x: np.ndarray | None = None,
) -> float:
    """Weighted mean outcome-probability contrast across all causal routes."""
    x = model.encoder.transform(ds) if x is None else x
    omega = _normalized(weights, ds.m)
    y_plus = model.intervene_total(x, 1)
    y_minus = model.intervene_total(x, 0)
    return float(omega @ y_plus - omega @ y_minus)


def path_specific_effect(
    model: StructuredModel,
    ds: ColumnarDataset,
    weights: np.ndarray | None = None,
    x: np.ndarray | None = None,
) -> float:
    """Contrast of the path-restricted intervention against the low reference."""
    _require_mode(model, "path_specific")
    return estimate_effect(model, ds, x, weights)


def counterfactual_effect(
    model: StructuredModel,
    ds: ColumnarDataset,
    weights: np.ndarray | None = None,
    x: np.ndarray | None = None,
) -> float:
    """Total contrast over the rows matching the model's condition, with the
    weights renormalized inside that sub-population."""
    _require_mode(model, "counterfactual")
    return estimate_effect(model, ds, x, weights)


def _require_mode(model: StructuredModel, mode: str) -> None:
    if model.mode.mode != mode:
        raise ModelError(f"model mode is {model.mode.mode!r}, not {mode}")


def estimate_effect(
    model: StructuredModel,
    ds: ColumnarDataset,
    x: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    pair: Pair | None = None,
) -> float:
    """The effect matching the model's configured fairness mode.  A caller
    holding the model's pair over all of ``ds`` passes it as ``pair``."""
    if pair is None:
        x = model.encoder.transform(ds) if x is None else x
        pair = model.interventional_pair(x, model.pair_mask(ds))
    omega = _pair_weights(weights, ds.m, pair.rows)
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
    warning.  Reported alongside the direct estimators, never instead.  A
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
    pooled = np.concatenate([d_plus, d_minus])
    spread = float(pooled.max() - pooled.min())
    if spread < 1e-12:
        warnings.warn("critic output is constant; gap diagnostic degenerate")
        return 0.0
    low = pooled.min()
    omega = _pair_weights(weights, m, rows)
    return float(omega @ ((d_plus - low) / spread) - omega @ ((d_minus - low) / spread))


# -- distribution distance ------------------------------------------------------

# The distance critic's layer widths, learning rate, penalty coefficient, batch.
DISTANCE_HIDDEN = (32, 32, 32)
DISTANCE_LR = 1e-3
DISTANCE_PENALTY = 10.0
DISTANCE_BATCH = 256


def wasserstein_estimate(
    x_original: np.ndarray,
    x_reweighted: np.ndarray,
    weights: np.ndarray | None = None,
    seed: int = 0,
    steps: int = 2000,
) -> float:
    """Critic-based distance between an empirical and a reweighted matrix.

    Trains a fresh gradient-penalty critic (the ``DISTANCE_*`` constants) on
    full encoded rows to maximize E_original[C] - E_weighted[C] for a fixed
    step budget, then returns the exact full-data objective of the trained
    critic.  When both sides are one matrix (the same rows, reweighted), the
    critic reads the rows out once.
    """
    x_a = np.asarray(x_original, dtype=np.float64)
    x_b = np.asarray(x_reweighted, dtype=np.float64)
    if x_a.ndim != 2 or x_b.ndim != 2 or x_a.shape[1] != x_b.shape[1]:
        raise ValueError("row matrices must be 2-D with a common column count")
    omega = _normalized(weights, x_b.shape[0])

    store = ParamStore(seed)
    store.add_group("critic", layer_sizes(x_a.shape[1], DISTANCE_HIDDEN, 1), zero_final=True)
    layers, params = store.group("critic"), store.parameters(["critic"])
    opt = Adam(params, DISTANCE_LR)
    rng = np.random.default_rng([seed, 3])

    # the draws of rng.choice(x_b.shape[0], size=batch, p=omega), with the
    # CDF built once instead of on every step
    cdf = omega.cumsum()
    cdf /= cdf[-1]
    batch = min(DISTANCE_BATCH, x_a.shape[0], x_b.shape[0])
    scratch = Scratch(batch)
    for _ in range(steps):
        rows_a = x_a[rng.integers(0, x_a.shape[0], size=batch)]
        rows_b = x_b[cdf.searchsorted(rng.random(batch), side="right")]
        u = rng.uniform(0.0, 1.0, size=(batch, 1))
        x_hat = u * rows_a + (1.0 - u) * rows_b
        loss, _, _ = critic_loss(
            layers, rows_a, rows_b, 1.0 / batch, x_hat, DISTANCE_PENALTY, scratch
        )
        if not np.isfinite(loss.data):
            raise FloatingPointError("distance critic diverged (non-finite loss)")
        opt.step(backward(loss, params))

    del scratch
    c_a = mlp_forward(layers, x_a, "linear")[:, 0]
    c_b = c_a if x_b is x_a else mlp_forward(layers, x_b, "linear")[:, 0]
    return float(c_a.mean() - omega @ c_b)


def wasserstein_distance(
    original: ColumnarDataset,
    reweighted: ColumnarDataset,
    encoder: Encoder | None = None,
    seed: int = 0,
    steps: int = 2000,
) -> float:
    """Dataset-level wrapper: encode both sides with one shared transform,
    once when they hold the same columns (``reweighted`` is ``original``
    with other weights)."""
    if original.names != reweighted.names:
        raise DataError("datasets must share a schema")
    enc = Encoder().fit(original) if encoder is None else encoder
    x_original = enc.transform(original)
    same_rows = all(a is b for a, b in zip(original.columns, reweighted.columns))
    return wasserstein_estimate(
        x_original,
        x_original if same_rows else enc.transform(reweighted),
        weights=reweighted.weights,
        seed=seed,
        steps=steps,
    )


# -- observational metrics -------------------------------------------------------


def _binary_indicator(
    ds: ColumnarDataset, name: str, declared: dict | None = None
) -> np.ndarray:
    col = ds.column(name)
    levels = sorted(set(col.values.tolist()) | set((declared or {}).get(name, ())))
    if col.kind != "categorical" or len(levels) != 2:
        raise DataError(f"column {name!r} is not binary (levels: {levels})")
    return (col.values == levels[-1]).astype(np.float64)


def statistical_parity(
    ds: ColumnarDataset,
    sensitive: str,
    outcome: str,
    weights: np.ndarray | None = None,
    declared_levels: dict | None = None,
) -> float:
    """Weighted P(Y=1 | S=1) - P(Y=1 | S=0), directly from the data."""
    s = _binary_indicator(ds, sensitive, declared_levels)
    y = _binary_indicator(ds, outcome, declared_levels)
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


def downstream_accuracy(
    train_ds: ColumnarDataset,
    test_ds: ColumnarDataset,
    outcome: str,
    weights: np.ndarray | None = None,
    encoder: Encoder | None = None,
) -> float:
    """Test accuracy of a weighted logistic regression predicting the outcome.

    Plain full-batch gradient descent in float64 (``REGRESSION_EPOCHS`` steps
    at rate ``REGRESSION_LR``), no regularization.  A loose final gradient
    norm only warns; the accuracy is returned regardless.
    """
    enc = Encoder().fit(train_ds) if encoder is None else encoder
    x_train = enc.transform(train_ds)
    x_test = enc.transform(test_ds)
    block = enc.block(outcome)
    feature_cols = [i for i in range(enc.width) if not block.start <= i < block.stop]
    y_train = x_train[:, block.start + 1]
    y_test = x_test[:, block.start + 1]
    a_train = x_train[:, feature_cols]
    a_test = x_test[:, feature_cols]

    omega = _normalized(weights, train_ds.m)
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
