"""Alternating optimization: fit steps, critic steps, and weight solves.

Each epoch runs mini-batch fit updates on the observational loss (two fit
steps per critic step), then refines the critic, evaluates the critic gap
d_k over the full training split, and re-solves the weights.  The first
epoch's critic updates see unit weights; the solved weights feed the next
epoch's weighted fit.

After the fit steps the fit parameters stay frozen for the rest of the epoch,
so the interventional pair is computed once over the full split: the
refinement critic steps take their batches' rows from it, and the epoch's
effect estimate reuses it with the solved weights.  The critic read-outs of
the weight solve also give the epoch's rescaled critic gap under the solved
weights, so :func:`repeat_protocol` reports the last epoch's effect and gap
without a further cascade.  Every loss holds its closed-form gradients; each
loop of fit and critic steps writes its row-sized arrays into one
:class:`~fairweigh.nn.Scratch` sized by the batch.

``train(..., fit_only=True)`` runs the first stage alone: the same fit steps
over the same batches, on weights of exactly one, with no critic step, pair,
weight solve or effect estimate.  It fits the causal model for an unweighted
effect, as ``fairweigh effects`` does without a checkpoint.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict, replace

import numpy as np

from .autodiff import backward
from .data import ColumnarDataset, Encoder, SplitPlan, split_indices
from .effects import (
    EffectReport,
    MetricSummary,
    discriminator_gap,  # not called here; perfbench/tracing.py wraps this lookup
    downstream_accuracy,
    estimate_effect,
    scaled_critic_gap,
    statistical_parity,
    wasserstein_distance,
)
from .graph import CausalGraph, PathSet
from .model import Pair, StructuredModel
from .nn import Adam, MomentumSGD, Scratch, learning_rate
from .reweighter import SolverError, WeightVector, solve_weights

__all__ = [
    "TrainingError",
    "TrainConfig",
    "EpochRecord",
    "train",
    "progress",
    "repeat_protocol",
    "write_log",
]


class TrainingError(RuntimeError):
    """Training aborted; parameters are rolled back to the last epoch boundary."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 640
    eta0: float = 0.001
    critic_lr: float = 1e-4
    momentum: float = 0.9
    fit_steps_per_critic_step: int = 2
    critic_steps_at_weight_solve: int = 50
    balance: float = 1.5
    penalty_coef: float = 10.0
    seed: int = 0
    hidden: tuple[int, ...] = (32, 32)
    critic_hidden: tuple[int, ...] = (32, 32, 32)

    def __post_init__(self):
        for name in ("epochs", "batch_size", "fit_steps_per_critic_step"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.critic_steps_at_weight_solve < 0:
            raise ValueError("critic_steps_at_weight_solve must be >= 0")
        for name in ("eta0", "critic_lr", "balance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (math.isfinite(self.penalty_coef) and self.penalty_coef >= 0):
            raise ValueError(f"penalty_coef must be finite and >= 0, got {self.penalty_coef!r}")
        for name in ("hidden", "critic_hidden"):
            if any(width < 1 for width in getattr(self, name)):
                raise ValueError(f"{name} widths must be >= 1, got {list(getattr(self, name))}")


@dataclass
class EpochRecord:
    """One epoch's statistics.  A fit-only epoch runs no critic, pair or
    solve: its critic, effect and gap fields stay NaN and its weights one."""

    epoch: int
    fit_loss: float
    wall_time: float
    critic_objective: float = math.nan
    gradient_penalty: float = math.nan
    effect: float = math.nan
    critic_gap: float = math.nan
    weight_deviation: float = 0.0


def progress(completed_steps: int, total_steps: int) -> float:
    """Fraction of fit steps done, linear from 0 to 1."""
    if total_steps < 1 or not 0 <= completed_steps <= total_steps:
        raise ValueError(
            f"bad progress query: {completed_steps} of {total_steps} steps"
        )
    return completed_steps / total_steps


def _batches(m: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(m)
    for start in range(0, m, batch_size):
        yield perm[start : start + batch_size]


class _Loop:
    """Mutable training state shared by the per-epoch phases."""

    def __init__(self, model: StructuredModel, ds: ColumnarDataset, config: TrainConfig):
        if config.batch_size > ds.m:
            raise TrainingError(
                f"batch size {config.batch_size} exceeds sample count {ds.m}"
            )
        self.model = model
        self.ds = ds
        self.config = config
        self.x = model.encoder.transform(ds)
        # Split rows the pair covers, and each split row's position in it (or -1).
        self.mask = model.pair_mask(ds)
        pair_rows = np.arange(ds.m) if self.mask is None else np.flatnonzero(self.mask)
        self.pair_position = np.full(ds.m, -1)
        self.pair_position[pair_rows] = np.arange(pair_rows.size)
        self.weights = np.ones(ds.m)
        self.fit_params = model.params.parameters(model.sub_network_nodes)
        self.critic_params = model.params.parameters(["critic"])
        self.fit_opt = MomentumSGD(self.fit_params, config.eta0, config.momentum)
        self.critic_opt = Adam(self.critic_params, config.critic_lr)
        self.batch_rng = np.random.default_rng([config.seed, 0])
        self.penalty_rng = np.random.default_rng([config.seed, 1])
        self.refine_rng = np.random.default_rng([config.seed, 2])
        steps_per_epoch = -(-ds.m // config.batch_size)
        self.total_fit_steps = config.epochs * steps_per_epoch
        self.completed_fit_steps = 0
        self.last_critic_objective = 0.0
        self.last_penalty = 0.0
        self.last_critic_gap = 0.0

    def fit_step(self, idx: np.ndarray, scratch: Scratch) -> float:
        loss = self.model.fit_loss(self.x[idx], self.weights[idx], scratch)
        if not np.isfinite(loss.data):
            raise FloatingPointError("non-finite fit loss")
        grads = backward(loss, self.fit_params)
        lr = learning_rate(
            self.config.eta0, progress(self.completed_fit_steps, self.total_fit_steps)
        )
        self.fit_opt.step(grads, lr)
        self.completed_fit_steps += 1
        return float(loss.data)

    def batch_pair(self, idx: np.ndarray) -> Pair:
        """A batch's pair under the current fit parameters, rows as split rows."""
        mask = None if self.mask is None else self.mask[idx]
        pair = self.model.interventional_pair(self.x[idx], mask=mask)
        return pair._replace(rows=idx[pair.rows])

    def full_split_pair(self) -> Pair:
        return self.model.interventional_pair(self.x, mask=self.mask)

    def refine_pair(self, full: Pair, idx: np.ndarray) -> Pair:
        """The batch's rows of the epoch's full-split pair: while the fit
        parameters stay frozen, slicing equals recomputing."""
        positions = self.pair_position[idx]
        positions = positions[positions >= 0]
        return Pair(*(None if part is None else part[positions] for part in full))

    def critic_step(self, pair: Pair, scratch: Scratch) -> None:
        if pair.rows.size == 0:
            return
        coef = self.weights[pair.rows] / pair.rows.size
        loss, self.last_critic_objective, self.last_penalty = self.model.critic_loss(
            pair, coef, self.penalty_rng, self.config.penalty_coef, scratch
        )
        self.critic_opt.step(backward(loss, self.critic_params))

    def orient_critic(self, pair: Pair) -> None:
        """Exploit the critic's sign symmetry: the penalty is invariant under
        negation, so when the weighted objective is negative the negated
        critic is a strictly better feasible maximizer.  Gradient steps cannot
        cross between the two basins once the penalty binds; this jump can."""
        d_plus, d_minus = self._critic_gap(pair)
        if float(self.weights[pair.rows] @ (d_plus - d_minus)) < 0.0:
            weight, bias = self.model.params.group("critic")[-1]
            weight.data = -weight.data
            bias.data = -bias.data

    def solve_epoch_weights(self, pair: Pair) -> WeightVector:
        """Critic gap over the full split, then the constrained weight solve;
        keeps the rescaled gap under the solved weights (see
        :func:`~fairweigh.effects.discriminator_gap`) as ``last_critic_gap``."""
        d_plus, d_minus = self._critic_gap(pair)
        solved = solve_weights(d_plus - d_minus, self.config.balance)
        # Conditioned mode: rows outside the condition keep weight one.
        self.weights = np.ones(self.ds.m)
        self.weights[pair.rows] = solved.values
        self.last_critic_gap = scaled_critic_gap(
            d_plus, d_minus, self.weights, self.ds.m, pair.rows
        )
        return WeightVector(self.weights.copy(), self.config.balance)

    def _critic_gap(self, pair: Pair) -> tuple[np.ndarray, np.ndarray]:
        """The critic's read-outs on the pair's two arms."""
        critic = self.model.critic_values
        return critic(pair.y_plus, pair.context), critic(pair.y_minus, pair.context)


def train(
    model: StructuredModel,
    ds: ColumnarDataset,
    config: TrainConfig,
    *,
    fit_only: bool = False,
) -> tuple[StructuredModel, WeightVector, list[EpochRecord]]:
    """Run the full alternating scheme; returns the final feasible weights.

    With ``fit_only`` each epoch runs only the fit steps, on weights of
    exactly one, and the weights returned are ones: no critic step, full-split
    pair, weight solve or effect estimate (see :class:`EpochRecord`).

    Aborts on a non-finite loss or gradient or a failed weight solve,
    restoring the last epoch-boundary parameter snapshot before raising.
    """
    loop = _Loop(model, ds, config)
    log: list[EpochRecord] = []
    weight_vector = WeightVector(np.ones(ds.m), config.balance)
    snapshot = model.params.snapshot()

    for epoch in range(config.epochs):
        started = time.perf_counter()
        losses: list[float] = []
        stats = {}  # a fit-only epoch keeps EpochRecord's defaults
        try:
            scratch = Scratch(config.batch_size)  # one per loop of steps
            for i, idx in enumerate(_batches(ds.m, config.batch_size, loop.batch_rng)):
                losses.append(loop.fit_step(idx, scratch))
                if not fit_only and (i + 1) % config.fit_steps_per_critic_step == 0:
                    loop.critic_step(loop.batch_pair(idx), scratch)
            del scratch
            if not fit_only:
                pair = loop.full_split_pair()
                loop.orient_critic(pair)
                scratch = Scratch(config.batch_size)
                for _ in range(config.critic_steps_at_weight_solve):
                    idx = loop.refine_rng.choice(ds.m, size=config.batch_size, replace=False)
                    loop.critic_step(loop.refine_pair(pair, idx), scratch)
                del scratch
                weight_vector = loop.solve_epoch_weights(pair)
                stats = dict(
                    critic_objective=loop.last_critic_objective,
                    gradient_penalty=loop.last_penalty,
                    effect=estimate_effect(model, ds, weights=loop.weights, pair=pair),
                    critic_gap=loop.last_critic_gap,
                    weight_deviation=float(np.sum((loop.weights - 1.0) ** 2)),
                )
        except (FloatingPointError, SolverError) as exc:
            model.params.restore(snapshot)
            raise TrainingError(
                f"{exc} (epoch {epoch}); rolled back to epoch {epoch - 1} checkpoint",
                epoch=epoch,
            ) from exc
        snapshot = model.params.snapshot()
        log.append(
            EpochRecord(
                epoch=epoch,
                fit_loss=float(np.mean(losses)),
                wall_time=time.perf_counter() - started,
                **stats,
            )
        )
    return model, weight_vector, log


def write_log(log: list[EpochRecord], path) -> None:
    """One JSON object per epoch, line-delimited."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in log:
            fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")


def repeat_protocol(
    ds: ColumnarDataset,
    graph: CausalGraph,
    mode: PathSet,
    config: TrainConfig,
    repeats: int = 5,
    tau: float = 0.05,
    train_fraction: float = 0.8,
    declared_levels: dict | None = None,
    compute_wasserstein: bool = True,
    wasserstein_steps: int = 2000,
    compute_accuracy: bool = True,
    critic_context_nodes: tuple[str, ...] = (),
) -> tuple[EffectReport, list[dict]]:
    """Independent train/test splits, one full training run per repetition.

    Every repetition re-splits the data (same base seed, its own repetition
    index), refits the encoder on the training side only, trains from a fresh
    initialization, and measures: the mode's effect and the critic-gap
    diagnostic on the reweighted training split, statistical parity under the
    weights, downstream accuracy on the held-out split, and the critic-based
    distance between the original and reweighted training data.  Metrics are
    aggregated as mean and (population) standard deviation.  Each artifact
    also holds ``train_rows``, the rows of ``ds`` in its training split.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    effects, gaps, parities, accuracies, distances = [], [], [], [], []
    artifacts: list[dict] = []
    for rep in range(repeats):
        plan = SplitPlan(config.seed, train_fraction, rep)
        train_rows, test_rows = split_indices(ds.m, plan)
        train_ds, test_ds = ds.take(train_rows), ds.take(test_rows)
        encoder = Encoder().fit(train_ds, declared_levels)
        rep_config = replace(config, seed=config.seed + rep)
        model = StructuredModel(
            graph,
            encoder,
            mode,
            seed=rep_config.seed,
            hidden=rep_config.hidden,
            critic_hidden=rep_config.critic_hidden,
            critic_context_nodes=critic_context_nodes,
        )
        model, weight_vector, log = train(model, train_ds, rep_config)
        w = weight_vector.values
        # the last epoch's effect and gap are already those of the final weights
        effects.append(log[-1].effect)
        gaps.append(log[-1].critic_gap)
        parities.append(
            statistical_parity(
                train_ds, graph.sensitive, graph.outcome, w, declared_levels
            )
        )
        if compute_accuracy:
            accuracies.append(
                downstream_accuracy(train_ds, test_ds, graph.outcome, w, encoder)
            )
        if compute_wasserstein:
            distances.append(
                wasserstein_distance(
                    train_ds,
                    train_ds.replace_weights(w),
                    encoder,
                    seed=rep_config.seed,
                    steps=wasserstein_steps,
                )
            )
        artifacts.append(
            {
                "repetition": rep,
                "model": model,
                "encoder": encoder,
                "weights": w,
                "log": log,
                "train": train_ds,
                "train_rows": train_rows,
                "test": test_ds,
            }
        )
    report = EffectReport(
        mode=mode.mode,
        effect=MetricSummary.of(effects),
        critic_gap=MetricSummary.of(gaps),
        wasserstein=MetricSummary.of(distances) if distances else None,
        parity=MetricSummary.of(parities),
        accuracy=MetricSummary.of(accuracies) if accuracies else None,
        threshold=tau,
    )
    return report, artifacts
