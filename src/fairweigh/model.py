"""Graph-structured networks with a shared parameter store, plus the critic.

One sub-network exists per node that an interventional cascade reads: a
descendant of the sensitive node that the outcome depends on.  Every other
node enters each cascade as observed (or, the sensitive node, as clamped), so
a sub-network for it would be fit and never read.  The observational view
scores how well each sub-network reproduces its node from the *observed*
parent values; the interventional view clamps the sensitive node and cascades
sub-network outputs through the graph instead.  Both views resolve a node to
the same parameter group, so they can never drift apart.

Intermediate categorical values propagate as probability vectors (soft,
deterministic); binary nodes expand a scalar success probability p into the
two-column representation (1-p, p) that matches their one-hot encoding.  The
model owns the interventional :class:`Pair`: which rows a mode's contrast
covers, and their critic context.

The fit is teacher-forced, so its loss is a sum of independent per-node
losses, each with its sub-network's gradient from :func:`nn.mlp_backward`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .autodiff import Tensor
from .data import CATEGORICAL, CONTINUOUS, ColumnarDataset, Encoder
from .graph import CausalGraph, PathSet, graph_fingerprint, pi_active_nodes
from .nn import (
    ParamStore,
    critic_loss,
    gradient_penalty,
    layer_sizes,
    load_params,
    mlp_activations,
    mlp_backward,
    mlp_forward,
    save_params,
)

__all__ = ["ModelError", "Pair", "StructuredModel", "condition_mask"]

EPS = 1e-12


class ModelError(ValueError):
    """Model assembly or forward-semantics violation."""


def _same_mode(stored, mode: dict) -> bool:
    """Whether a checkpoint's stored mode header names the fairness mode
    ``mode``: pi edges and condition pairs compare in any order, and a
    header of another shape names no mode."""
    if not isinstance(stored, dict):
        return False
    try:
        return stored["mode"] == mode["mode"] and all(
            sorted(map(tuple, stored[key])) == sorted(map(tuple, mode[key]))
            for key in ("on_pi_edges", "condition")
        )
    except (KeyError, TypeError):
        return False


def condition_mask(ds: ColumnarDataset, condition) -> np.ndarray:
    """Rows whose categorical label equals the value of every (node, value)
    pair; the graph admits conditions on categorical nodes only."""
    mask = np.ones(ds.m, dtype=bool)
    for name, value in condition:
        mask &= ds.column(name).values == str(value)
    return mask


class Pair(NamedTuple):
    """The interventional contrast the critic discriminates: outcome
    probabilities under the high and low arm for the covered ``rows`` of the
    encoded batch, with the critic context of those rows (or None)."""

    y_plus: np.ndarray
    y_minus: np.ndarray
    rows: np.ndarray
    context: np.ndarray | None


class StructuredModel:
    """Sub-networks wired along a causal graph, plus a scalar critic."""

    def __init__(
        self,
        graph: CausalGraph,
        encoder: Encoder,
        mode: PathSet,
        seed: int,
        hidden: tuple[int, ...] = (32, 32),
        critic_hidden: tuple[int, ...] = (32, 32, 32),
        critic_context_nodes: tuple[str, ...] = (),
    ):
        self.graph = graph
        self.encoder = encoder
        self.mode = mode
        self.critic_context_nodes = tuple(critic_context_nodes)

        for role, name in (("sensitive", graph.sensitive), ("outcome", graph.outcome)):
            if not graph.node(name).is_binary:
                raise ModelError(f"{role} node {name!r} must be binary")
        for spec in graph.nodes:
            if spec.kind == CATEGORICAL:
                observed = encoder.block_width(spec.name)
                if observed != spec.cardinality:
                    raise ModelError(
                        f"node {spec.name!r}: graph declares {spec.cardinality} levels "
                        f"but the data has {observed}"
                    )

        self._descendants = graph.descendants(graph.sensitive)
        for name in self.critic_context_nodes:
            if name not in {s.name for s in graph.nodes}:
                raise ModelError(f"critic context names unknown node {name!r}")
            if name == graph.sensitive or name in self._descendants:
                raise ModelError(
                    f"critic context node {name!r} must not depend on the "
                    "sensitive node"
                )

        # the clamped cascades run only what the outcome can depend on
        self._outcome_ancestry = graph.outcome_ancestry()
        self.sub_network_nodes: tuple[str, ...] = tuple(
            n for n in self._outcome_ancestry if n in self._descendants
        )
        self.params = ParamStore(seed)
        # Every non-root node's group is drawn, in topological order, so that
        # the kept groups start from the same values whichever are dropped.
        for name in graph.topo_order:
            if graph.parents(name):
                in_width = sum(encoder.block_width(p) for p in graph.parents(name))
                _, out_width = self._head(name)
                self.params.add_group(name, layer_sizes(in_width, hidden, out_width))
        for name in set(self.params.groups) - set(self.sub_network_nodes):
            del self.params.groups[name]
        context_width = sum(encoder.block_width(n) for n in self.critic_context_nodes)
        self.params.add_group(
            "critic", layer_sizes(1 + context_width, critic_hidden, 1), zero_final=True
        )

        # encoded columns of each sub-network's parents, in parent order
        self._parent_columns = {
            name: np.r_[tuple(encoder.block(p) for p in graph.parents(name))]
            for name in self.sub_network_nodes
        }
        self._pi_active = (
            pi_active_nodes(graph, mode) if mode.mode == "path_specific" else frozenset()
        )

    def _head(self, name: str) -> tuple[str, int]:
        spec = self.graph.node(name)
        if spec.kind == CONTINUOUS:
            return "linear", 1
        if spec.is_binary:
            return "logistic", 1
        return "softmax", spec.cardinality

    # -- block plumbing ------------------------------------------------------

    def _observed_block(self, x: np.ndarray, name: str) -> np.ndarray:
        return x[:, self.encoder.block(name)]

    @staticmethod
    def _join(blocks: list[np.ndarray]) -> np.ndarray:
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)

    def _node_output(self, name: str, inputs: np.ndarray) -> np.ndarray:
        head, _ = self._head(name)
        return mlp_forward(self.params.group(name), inputs, head)

    def _block_repr(self, name: str, output: np.ndarray) -> np.ndarray:
        """Sub-network output in the node's encoded-block representation."""
        spec = self.graph.node(name)
        if spec.kind == CONTINUOUS or not spec.is_binary:
            return output
        return np.concatenate([1.0 - output, output], axis=1)

    @staticmethod
    def _clamped_block(rows: int, s_value: float) -> np.ndarray:
        return np.tile([1.0 - s_value, s_value], (rows, 1))

    # -- observational view ----------------------------------------------------

    def predict_observed(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Per-node predictions, teacher-forced on the observed parents."""
        return {
            name: self._block_repr(name, self._node_output(name, x[:, columns]))
            for name, columns in self._parent_columns.items()
        }

    def fit_loss(self, x: np.ndarray, weights: np.ndarray, scratch=None) -> Tensor:
        """Weighted per-node fit: squared error for continuous nodes,
        cross entropy for categorical ones; mean over the batch.  The loss
        holds its gradient for every sub-network parameter; with no
        sub-network it is 0 with no gradient.  Every sub-network's forward and
        backward take their row-sized arrays from ``scratch`` (fresh ones when
        None)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (x.shape[0],):
            raise ModelError(
                f"weights shape {weights.shape} does not match batch {x.shape[0]}"
            )
        if np.any(weights < 0):
            raise ModelError("negative sample weight in batch")
        w_col = weights.reshape(-1, 1)
        scale = 1.0 / float(x.shape[0])
        g_row = scale * w_col  # the loss's gradient at each row's node term
        per_row = None
        grads: dict[int, np.ndarray] = {}
        for name, columns in self._parent_columns.items():
            layers = self.params.group(name)
            head, _ = self._head(name)
            hs, out = mlp_activations(layers, x[:, columns], head, scratch)
            term, grad_out = self._fit_term(name, out, self._observed_block(x, name), g_row)
            per_row = term if per_row is None else per_row + term
            params = [p for layer in layers for p in layer]
            layer_grads = mlp_backward(layers, hs, out, head, grad_out, scratch)
            grads.update(zip(map(id, params), layer_grads))
        if per_row is None:  # no node to fit: the critic trains alone
            return Tensor(0.0, grads)
        return Tensor((w_col * per_row).sum() * scale, grads)

    def _fit_term(self, name: str, out, target, g_row) -> tuple[np.ndarray, np.ndarray]:
        """A node's per-row fit term and its gradient at the sub-network's
        output, given the gradient ``g_row`` at the term."""
        spec = self.graph.node(name)
        if spec.kind == CONTINUOUS:
            diff = out - target
            return diff**2.0, g_row * diff * 2.0
        shifted = self._block_repr(name, out) + EPS
        term = -(target * np.log(shifted)).sum(axis=1, keepdims=True)
        grad = (-g_row) * target / shifted
        if spec.is_binary:  # the block is (1 - out, out)
            grad = grad[:, 1:2] - grad[:, 0:1]
        return term, grad

    # -- interventional view -----------------------------------------------------

    def _interventional_values(
        self, x: np.ndarray, s_value: float
    ) -> dict[str, np.ndarray]:
        """Ancestral cascade over the outcome's ancestors: sensitive clamped,
        its descendants propagated, everything else observed."""
        values: dict[str, np.ndarray] = {}
        for name in self._outcome_ancestry:
            if name == self.graph.sensitive:
                values[name] = self._clamped_block(x.shape[0], s_value)
            elif name in self._descendants:
                inputs = self._join([values[p] for p in self.graph.parents(name)])
                values[name] = self._block_repr(name, self._node_output(name, inputs))
            else:
                values[name] = self._observed_block(x, name)
        return values

    def _outcome_probability(self, values: dict[str, np.ndarray]) -> np.ndarray:
        return values[self.graph.outcome][:, 1].copy()

    def intervene_total(self, x: np.ndarray, s: int) -> np.ndarray:
        """Outcome probability per row under clamping the sensitive node to s."""
        self._check_s(s)
        return self._outcome_probability(self._interventional_values(x, float(s)))

    def intervene_path_specific(self, x: np.ndarray, s: int) -> np.ndarray:
        """Outcome probability with the intervention routed along pi edges only.

        Two synchronized passes share the cascade: the reference pass
        clamps the sensitive node to 0 everywhere; the interventional pass
        recomputes just the nodes on selected paths, picking, per in-edge,
        the interventional parent value when the edge carries the intervention
        and the reference value otherwise.
        """
        return self._path_specific_pair(x, s)[0]

    def _path_specific_pair(self, x: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
        """(path-specific outcome at s, reference outcome at 0) from one
        reference cascade."""
        self._check_s(s)
        if self.mode.mode != "path_specific":
            raise ModelError(f"model mode is {self.mode.mode!r}, not path_specific")
        if not self.mode.on_pi_edges:
            raise ModelError("path_specific mode with empty edge set")
        reference = self._interventional_values(x, 0.0)
        inter: dict[str, np.ndarray] = {}
        for name in self._outcome_ancestry:
            if name == self.graph.sensitive:
                inter[name] = self._clamped_block(x.shape[0], float(s))
            elif name in self._pi_active:
                inputs = self._join(
                    [
                        inter[p] if (p, name) in self.mode.on_pi_edges else reference[p]
                        for p in self.graph.parents(name)
                    ]
                )
                inter[name] = self._block_repr(name, self._node_output(name, inputs))
            else:
                inter[name] = reference[name]
        return self._outcome_probability(inter), self._outcome_probability(reference)

    def pair_mask(self, ds: ColumnarDataset) -> np.ndarray | None:
        """Rows of ``ds`` that the interventional pair covers: all (None)
        unless the mode conditions, else those matching the stored condition."""
        if self.mode.mode != "counterfactual":
            return None
        mask = condition_mask(ds, self.mode.condition)
        if not mask.any():
            raise ModelError(f"no rows match condition {self.mode.condition}")
        return mask

    def interventional_pair(self, x: np.ndarray, mask: np.ndarray | None = None) -> Pair:
        """The contrast of the configured fairness mode over the rows of the
        encoded batch ``x`` that ``mask`` selects (all when None).

        Counterfactual mode needs the mask, the condition matched on the raw
        rows of ``x`` (see :meth:`pair_mask`); it may select no row.
        """
        if mask is not None:
            rows = np.flatnonzero(mask)
            x = x[rows]
        elif self.mode.mode == "counterfactual":
            raise ModelError("counterfactual mode needs the row mask of its condition")
        else:
            rows = np.arange(x.shape[0])
        if self.mode.mode == "path_specific":
            y_plus, y_minus = self._path_specific_pair(x, 1)
        else:
            y_plus, y_minus = self.intervene_total(x, 1), self.intervene_total(x, 0)
        return Pair(y_plus, y_minus, rows, self.critic_context(x))

    def _check_s(self, s: int) -> None:
        if s not in (0, 1):
            raise ModelError(f"sensitive clamp must be 0 or 1, got {s}")

    # -- critic --------------------------------------------------------------

    def _critic_input(self, y, context: np.ndarray | None) -> np.ndarray:
        """Critic input rows: the outcome probability, then the context."""
        y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        if not self.critic_context_nodes:
            return y
        if context is None:
            raise ModelError("critic context nodes configured but no context given")
        return np.concatenate([y, context], axis=1)

    def critic_context(self, x: np.ndarray) -> np.ndarray | None:
        if not self.critic_context_nodes:
            return None
        blocks = [x[:, self.encoder.block(n)] for n in self.critic_context_nodes]
        return np.concatenate(blocks, axis=1)

    def critic_value(self, y, context: np.ndarray | None = None) -> np.ndarray:
        """Unbounded scalar critic of the outcome probability, one column."""
        return mlp_forward(self.params.group("critic"), self._critic_input(y, context), "linear")

    def critic_values(self, y: np.ndarray, context: np.ndarray | None = None) -> np.ndarray:
        return self.critic_value(y, context)[:, 0].copy()

    def _penalty_input(self, y_plus, y_minus, rng, context) -> np.ndarray:
        """x_hat: the paired outcomes mixed by one uniform draw per row."""
        y_plus, y_minus = (np.reshape(y, (-1, 1)) for y in (y_plus, y_minus))
        if y_plus.size == 0 or y_minus.size == 0:
            raise ModelError("gradient penalty needs non-empty batches")
        u = rng.uniform(0.0, 1.0, size=(y_plus.shape[0], 1))
        return self._critic_input(u * y_plus + (1.0 - u) * y_minus, context)

    def gradient_penalty(self, y_plus, y_minus, rng, context=None) -> Tensor:
        """Mean (||grad_x critic(x_hat)|| - 1)^2 at per-row interpolates."""
        x_hat = self._penalty_input(y_plus, y_minus, rng, context)
        return gradient_penalty(self.params.group("critic"), x_hat)

    def critic_loss(self, pair: Pair, coef, rng, penalty_coef: float, scratch=None):
        """:func:`nn.critic_loss` on ``pair``, its penalty at the interpolates
        of :meth:`gradient_penalty` (drawn from ``rng`` the same way)."""
        x_hat = self._penalty_input(pair.y_plus, pair.y_minus, rng, pair.context)
        high, low = (self._critic_input(y, pair.context) for y in pair[:2])
        return critic_loss(
            self.params.group("critic"), high, low, coef, x_hat, penalty_coef, scratch
        )

    # -- persistence ------------------------------------------------------------

    def _mode_header(self) -> dict:
        """The fairness mode as the checkpoint header stores it."""
        return {
            "mode": self.mode.mode,
            "on_pi_edges": sorted(list(e) for e in self.mode.on_pi_edges),
            "condition": [[n, str(v)] for n, v in self.mode.condition],
        }

    def save(self, path) -> None:
        meta = {"graph": graph_fingerprint(self.graph), "mode": self._mode_header()}
        save_params(self.params, path, meta)

    def restore(self, path) -> None:
        """Load parameters saved by :meth:`save`, refusing a checkpoint of
        another graph, fairness mode (pi edges, condition) or layer layout,
        or one holding sub-networks this model does not fit."""
        store, meta = load_params(path)
        expected = graph_fingerprint(self.graph)
        if meta.get("graph") != expected:
            raise ModelError(
                "checkpoint was written for a different graph "
                f"(stored {meta.get('graph', '?')[:12]}..., expected {expected[:12]}...)"
            )
        stored, mode = meta.get("mode"), self._mode_header()
        if not _same_mode(stored, mode):
            stored = stored if isinstance(stored, dict) else {}
            raise ModelError(
                f"checkpoint was written for {stored.get('mode', 'an unknown')} mode "
                f"(pi edges {stored.get('on_pi_edges')}, condition {stored.get('condition')}); "
                f"the model is in {mode['mode']} mode (pi edges {mode['on_pi_edges']}, "
                f"condition {mode['condition']})"
            )
        unfit = [name for name in store.groups if name not in self.params.groups]
        if unfit:
            raise ModelError(
                f"checkpoint holds sub-networks this model does not fit ({', '.join(unfit)}); "
                "only descendants of the sensitive node that the outcome depends on have one"
            )
        self.params.restore(store.snapshot())
