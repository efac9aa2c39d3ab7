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
covers, and their critic context.  In every mode the pair is one routed
cascade: a reference pass with the sensitive node clamped low, and a high arm
that recomputes the nodes on the mode's route (every sensitive-to-outcome
edge unless the mode selects paths).  Both passes, and every clamp, run the
routing rule of :func:`graph.cascade` with the sub-networks as evaluator: a
clamp starts from the observed blocks, the high arm from the reference.  The
pair cascades its rows in the blocks of :func:`nn.row_blocks`, so a pass over
a whole training split holds the cascade's arrays for one block at a time.

The fit is teacher-forced, so its loss is a sum of independent per-node
losses, each with its sub-network's gradient from :func:`nn.mlp_backward`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .autodiff import Tensor
from .config import CATEGORICAL, CONTINUOUS, TrainConfig
from .data import ColumnarDataset, Encoder
from .graph import (
    CausalGraph,
    PathSet,
    cascade,
    graph_fingerprint,
    pi_active_nodes,
    total_path_set,
    validate_path_set,
)
from .nn import (
    BLOCK_ROWS,
    ParamStore,
    critic_loss,
    gradient_penalty,
    layer_sizes,
    load_params,
    mlp_activations,
    mlp_backward,
    mlp_forward,
    row_blocks,
    save_params,
)

# Rows per block of :meth:`StructuredModel.interventional_pair`, a multiple of
# ``nn.BLOCK_ROWS`` so that the blocks of each sub-network's forward line up
# with those of one pass.
PAIR_BLOCK_ROWS = 4 * BLOCK_ROWS

__all__ = ["ModelError", "Pair", "StructuredModel", "check_inputs", "condition_mask"]

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


def check_inputs(graph: CausalGraph, encoder: Encoder, mode: PathSet, context_nodes) -> None:
    """Refuse what a model cannot be built from: a fairness ``mode`` that
    does not fit ``graph`` or names a level the ``encoder`` lacks (a
    :class:`GraphError` from :func:`validate_path_set`), a sensitive node or
    outcome that is not binary, a categorical node whose ``encoder`` levels
    (declared, or seen in the data) number other than ``graph`` declares, and
    a critic context node that names no node, or the sensitive node or a
    descendant."""
    validate_path_set(graph, mode, encoder.levels)
    for role, name in (("sensitive", graph.sensitive), ("outcome", graph.outcome)):
        if not graph.node(name).is_binary:
            raise ModelError(f"{role} node {name!r} must be binary")
    for spec in graph.nodes:
        levels = encoder.levels(spec.name) if spec.kind == CATEGORICAL else None
        if levels is not None and len(levels) != spec.cardinality:
            raise ModelError(
                f"schema levels of {spec.name!r} must number the {spec.cardinality} the "
                f"graph declares, got {levels} (declared, or seen in the data)"
            )
    descendants = graph.descendants(graph.sensitive)
    for name in context_nodes:
        if name not in {spec.name for spec in graph.nodes}:
            raise ModelError(f"critic_context_nodes names unknown node {name!r}")
        if name == graph.sensitive or name in descendants:
            raise ModelError(
                f"critic_context_nodes names {name!r}, which depends on the sensitive node"
            )


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
        hidden: tuple[int, ...] = TrainConfig.hidden,
        critic_hidden: tuple[int, ...] = TrainConfig.critic_hidden,
        critic_context_nodes: tuple[str, ...] = (),
    ):
        self.graph = graph
        self.encoder = encoder
        self.mode = mode
        self.critic_context_nodes = tuple(critic_context_nodes)

        check_inputs(graph, encoder, mode, self.critic_context_nodes)
        self._descendants = graph.descendants(graph.sensitive)

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
        context_blocks = [encoder.block(n) for n in self.critic_context_nodes]
        self._context_columns = [c for b in context_blocks for c in range(b.start, b.stop)]
        # the edges that carry the pair's high arm: the mode's own when it
        # selects paths, else every sensitive-to-outcome edge, those of a clamp
        total = total_path_set(graph)
        self._total_edges = total.on_pi_edges
        self._route = mode if mode.mode == "path_specific" else total
        self._pi_active = pi_active_nodes(graph, self._route)

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

    def _cascade(self, base, s_value: float, active, edges) -> dict[str, np.ndarray]:
        """:func:`graph.cascade` over the outcome's ancestors, each a block of
        rows, with the sensitive node clamped to ``s_value`` and each
        ``active`` node its sub-network's output."""
        clamp = self._clamped_block(len(base[self.graph.outcome]), s_value)
        order = self._outcome_ancestry
        return cascade(self.graph, order, clamp, base, active, edges, self._evaluate)

    def _evaluate(self, name: str, parents: dict[str, np.ndarray]) -> np.ndarray:
        return self._block_repr(name, self._node_output(name, self._join(list(parents.values()))))

    def _clamp(self, x: np.ndarray, s_value: float) -> dict[str, np.ndarray]:
        """The cascade along every sensitive-to-outcome edge from the observed
        blocks of ``x``: its descendants propagated, everything else observed."""
        observed = {name: self._observed_block(x, name) for name in self._outcome_ancestry}
        return self._cascade(observed, s_value, self._descendants, self._total_edges)

    def intervene_total(self, x: np.ndarray, s: int) -> np.ndarray:
        """Outcome probability per row under clamping the sensitive node to s."""
        self._check_s(s)
        return self._clamp(x, float(s))[self.graph.outcome][:, 1].copy()

    def intervene_path_specific(self, x: np.ndarray, s: int) -> np.ndarray:
        """Outcome probability with the intervention routed along pi edges only
        (see :meth:`_routed_pair`)."""
        self._check_s(s)
        if self.mode.mode != "path_specific":
            raise ModelError(f"model mode is {self.mode.mode!r}, not path_specific")
        return self._routed_pair(x, s)[0]

    def _routed_pair(self, x: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
        """(outcome at s routed along the pair's edges, reference outcome at
        0): the routed pass starts from the reference clamp at 0 and
        recomputes the nodes on the route.  Along every sensitive-to-outcome
        edge it runs the forwards of :meth:`intervene_total`, so it equals
        that clamp bit for bit."""
        reference = self._clamp(x, 0.0)
        routed = self._cascade(reference, float(s), self._pi_active, self._route.on_pi_edges)
        y = self.graph.outcome
        return routed[y][:, 1].copy(), reference[y][:, 1].copy()

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

        The covered rows cascade in the blocks of :func:`nn.row_blocks`, of
        :data:`PAIR_BLOCK_ROWS` rows, each gathered from ``x`` on its own, so
        a pass over a whole split holds the cascade's arrays for one block at
        a time and its outcomes are those of one pass.
        """
        if mask is not None:
            rows = np.flatnonzero(mask)
        elif self.mode.mode == "counterfactual":
            raise ModelError("counterfactual mode needs the row mask of its condition")
        else:
            rows = np.arange(x.shape[0])
        y_plus, y_minus = np.empty(rows.size), np.empty(rows.size)
        for block in row_blocks(rows.size, PAIR_BLOCK_ROWS):
            part = x[block] if mask is None else x[rows[block]]
            y_plus[block], y_minus[block] = self._routed_pair(part, 1)
        context = None
        if self.critic_context_nodes:
            columns = self._context_columns
            context = x[:, columns] if mask is None else x[np.ix_(rows, columns)]
        return Pair(y_plus, y_minus, rows, context)

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
