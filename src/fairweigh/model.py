"""Graph-structured networks with a shared parameter store, plus the critic.

One sub-network exists per non-root node.  The observational view scores how
well each sub-network reproduces its node from the *observed* parent values;
the interventional view clamps the sensitive node and cascades sub-network
outputs through the graph instead.  Both views resolve a node to the same
parameter group, so they can never drift apart.

Intermediate categorical values propagate as probability vectors (soft,
deterministic, differentiable); binary nodes expand a scalar success
probability p into the two-column representation (1-p, p) that matches their
one-hot encoding.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, input_gradient, no_grad
from .data import CATEGORICAL, CONTINUOUS, ColumnarDataset, Encoder
from .graph import CausalGraph, PathSet, graph_fingerprint, pi_active_nodes
from .nn import ParamStore, load_params, mlp_forward, save_params

__all__ = ["ModelError", "StructuredModel", "condition_mask"]

EPS = 1e-12


class ModelError(ValueError):
    """Model assembly or forward-semantics violation."""


def condition_mask(ds: ColumnarDataset, condition) -> np.ndarray:
    """Rows matching every (node, value) pair: exact for categoricals,
    within 1e-9 on the raw value for continuous columns."""
    mask = np.ones(ds.m, dtype=bool)
    for name, value in condition:
        col = ds.column(name)
        if col.kind == CONTINUOUS:
            mask &= np.abs(col.values - float(value)) <= 1e-9
        else:
            mask &= col.values == str(value)
    return mask


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
        observational_cascade: bool = False,
        critic_context_nodes: tuple[str, ...] = (),
    ):
        self.graph = graph
        self.encoder = encoder
        self.mode = mode
        self.observational_cascade = bool(observational_cascade)
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

        descendants = graph.descendants(graph.sensitive)
        for name in self.critic_context_nodes:
            if name not in {s.name for s in graph.nodes}:
                raise ModelError(f"critic context names unknown node {name!r}")
            if name == graph.sensitive or name in descendants:
                raise ModelError(
                    f"critic context node {name!r} must not depend on the "
                    "sensitive node"
                )

        self.params = ParamStore(seed)
        self.sub_network_nodes: tuple[str, ...] = tuple(
            n for n in graph.topo_order if graph.parents(n)
        )
        for name in self.sub_network_nodes:
            in_width = sum(encoder.block_width(p) for p in graph.parents(name))
            head, out_width = self._head(name)
            sizes = [(in_width, hidden[0])]
            sizes += [(hidden[i], hidden[i + 1]) for i in range(len(hidden) - 1)]
            sizes += [(hidden[-1], out_width)]
            self.params.add_group(name, sizes)
        context_width = sum(
            encoder.block_width(n) for n in self.critic_context_nodes
        )
        critic_sizes = [(1 + context_width, critic_hidden[0])]
        critic_sizes += [
            (critic_hidden[i], critic_hidden[i + 1])
            for i in range(len(critic_hidden) - 1)
        ]
        critic_sizes += [(critic_hidden[-1], 1)]
        self.params.add_group("critic", critic_sizes, zero_final=True)

        self._descendants = graph.descendants(graph.sensitive)
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

    def _observed_block(self, x: np.ndarray, name: str) -> Tensor:
        return Tensor(x[:, self.encoder.block(name)])

    def _parent_input(self, values: dict[str, Tensor], name: str) -> Tensor:
        return concat([values[p] for p in self.graph.parents(name)], axis=1)

    def _node_output(self, name: str, inputs: Tensor) -> Tensor:
        head, _ = self._head(name)
        return mlp_forward(self.params.group(name), inputs, head)

    def _block_repr(self, name: str, output: Tensor) -> Tensor:
        """Sub-network output in the node's encoded-block representation."""
        spec = self.graph.node(name)
        if spec.kind == CONTINUOUS or not spec.is_binary:
            return output
        return concat([1.0 - output, output], axis=1)

    @staticmethod
    def _clamped_block(rows: int, s_value: float) -> Tensor:
        block = np.zeros((rows, 2))
        block[:, 0] = 1.0 - s_value
        block[:, 1] = s_value
        return Tensor(block)

    # -- observational view ----------------------------------------------------

    def _observational_values(self, x: np.ndarray) -> dict[str, Tensor]:
        """Per-node predictions; teacher-forced by default, cascaded on request."""
        observed = {n: self._observed_block(x, n) for n in self.graph.column_names()}
        predictions: dict[str, Tensor] = {}
        for name in self.sub_network_nodes:
            if self.observational_cascade:
                parent_values = [
                    predictions.get(p, observed[p]) for p in self.graph.parents(name)
                ]
            else:
                parent_values = [observed[p] for p in self.graph.parents(name)]
            out = self._node_output(name, concat(parent_values, axis=1))
            predictions[name] = self._block_repr(name, out)
        return predictions

    def predict_observed(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Per-node predictions from observed parents (inference only)."""
        with no_grad():
            return {k: v.data for k, v in self._observational_values(x).items()}

    def fit_loss(self, x: np.ndarray, weights: np.ndarray) -> Tensor:
        """Weighted per-node fit: squared error for continuous nodes,
        cross entropy for categorical ones; mean over the batch."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (x.shape[0],):
            raise ModelError(
                f"weights shape {weights.shape} does not match batch {x.shape[0]}"
            )
        if np.any(weights < 0):
            raise ModelError("negative sample weight in batch")
        predictions = self._observational_values(x)
        per_row: Tensor | None = None
        for name, pred in predictions.items():
            spec = self.graph.node(name)
            target = self._observed_block(x, name)
            if spec.kind == CONTINUOUS:
                term = (pred - target) ** 2
            else:
                term = -(target * (pred + EPS).log()).sum(axis=1, keepdims=True)
            per_row = term if per_row is None else per_row + term
        if per_row is None:
            raise ModelError("graph has no non-root nodes to fit")
        w_col = Tensor(weights.reshape(-1, 1))
        return (w_col * per_row).mean()

    # -- interventional view -----------------------------------------------------

    def _interventional_values(
        self, x: np.ndarray, s_value: float
    ) -> dict[str, Tensor]:
        """Ancestral cascade: sensitive clamped, its descendants propagated,
        everything else observed."""
        values: dict[str, Tensor] = {}
        for name in self.graph.topo_order:
            if name == self.graph.sensitive:
                values[name] = self._clamped_block(x.shape[0], s_value)
            elif name in self._descendants:
                inputs = self._parent_input(values, name)
                values[name] = self._block_repr(name, self._node_output(name, inputs))
            else:
                values[name] = self._observed_block(x, name)
        return values

    def _outcome_probability(self, values: dict[str, Tensor]) -> np.ndarray:
        return values[self.graph.outcome].data[:, 1].copy()

    def intervene_total(self, x: np.ndarray, s: int) -> np.ndarray:
        """Outcome probability per row under clamping the sensitive node to s."""
        self._check_s(s)
        with no_grad():
            return self._outcome_probability(self._interventional_values(x, float(s)))

    def intervene_path_specific(self, x: np.ndarray, s: int) -> np.ndarray:
        """Outcome probability with the intervention routed along pi edges only.

        Two synchronized passes share the tape-free cascade: the reference pass
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
        with no_grad():
            reference = self._interventional_values(x, 0.0)
            inter: dict[str, Tensor] = {}
            for name in self.graph.topo_order:
                if name == self.graph.sensitive:
                    inter[name] = self._clamped_block(x.shape[0], float(s))
                elif name in self._pi_active:
                    inputs = concat(
                        [
                            inter[p]
                            if (p, name) in self.mode.on_pi_edges
                            else reference[p]
                            for p in self.graph.parents(name)
                        ],
                        axis=1,
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

    def intervene_conditioned(
        self, ds: ColumnarDataset, x: np.ndarray, s: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Total-mode cascade restricted to rows matching the stored condition.

        Returns (probabilities over matching rows, boolean row mask); the
        effective sample count is the number of matching rows.
        """
        if self.mode.mode != "counterfactual":
            raise ModelError(f"model mode is {self.mode.mode!r}, not counterfactual")
        mask = self.pair_mask(ds)
        return self.intervene_total(x[mask], s), mask

    def interventional_pair(
        self, x: np.ndarray, ds: ColumnarDataset | None = None, mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The (yhat_plus, yhat_minus) contrast the critic discriminates,
        per the configured fairness mode; also the row mask if conditioning,
        which takes the raw dataset of ``x`` or its (possibly empty) ``mask``."""
        if self.mode.mode == "total":
            return self.intervene_total(x, 1), self.intervene_total(x, 0), None
        if self.mode.mode == "path_specific":
            return (*self._path_specific_pair(x, 1), None)
        if mask is None:
            if ds is None:
                raise ModelError("counterfactual mode needs the raw dataset for matching")
            mask = self.pair_mask(ds)
        rows = x[mask]
        return self.intervene_total(rows, 1), self.intervene_total(rows, 0), mask

    def _check_s(self, s: int) -> None:
        if s not in (0, 1):
            raise ModelError(f"sensitive clamp must be 0 or 1, got {s}")

    # -- critic --------------------------------------------------------------

    def _critic_input(self, y: Tensor, context: np.ndarray | None) -> Tensor:
        if not self.critic_context_nodes:
            return y
        if context is None:
            raise ModelError("critic context nodes configured but no context given")
        return concat([y, Tensor(context)], axis=1)

    def critic_context(self, x: np.ndarray) -> np.ndarray | None:
        if not self.critic_context_nodes:
            return None
        blocks = [x[:, self.encoder.block(n)] for n in self.critic_context_nodes]
        return np.concatenate(blocks, axis=1)

    def critic_value(self, y, context: np.ndarray | None = None) -> Tensor:
        """Unbounded scalar critic of the outcome probability (recorded)."""
        if not isinstance(y, Tensor):
            y = Tensor(np.asarray(y, dtype=np.float64).reshape(-1, 1))
        inputs = self._critic_input(y, context)
        return mlp_forward(self.params.group("critic"), inputs, "linear")

    def critic_values(self, y: np.ndarray, context: np.ndarray | None = None) -> np.ndarray:
        with no_grad():
            return self.critic_value(y, context).data[:, 0].copy()

    def gradient_penalty(
        self,
        y_plus: np.ndarray,
        y_minus: np.ndarray,
        rng: np.random.Generator,
        context: np.ndarray | None = None,
    ) -> Tensor:
        """Mean (||grad_x critic(x_hat)|| - 1)^2 at per-row interpolates.

        x_hat mixes the paired outcome values with one uniform draw per row;
        the penalty stays differentiable in the critic parameters through the
        recorded input gradient (double backpropagation).
        """
        y_plus = np.asarray(y_plus, dtype=np.float64).reshape(-1, 1)
        y_minus = np.asarray(y_minus, dtype=np.float64).reshape(-1, 1)
        if y_plus.size == 0 or y_minus.size == 0:
            raise ModelError("gradient penalty needs non-empty batches")
        u = rng.uniform(0.0, 1.0, size=(y_plus.shape[0], 1))
        mixed = u * y_plus + (1.0 - u) * y_minus
        if context is not None:
            mixed = np.concatenate([mixed, context], axis=1)
        x_hat = Tensor(mixed)
        value = mlp_forward(self.params.group("critic"), x_hat, "linear")
        grad_x = input_gradient(value.sum(), x_hat, create_graph=True)
        # tiny epsilon keeps the norm differentiable at an all-zero gradient
        norm = ((grad_x * grad_x).sum(axis=1, keepdims=True) + 1e-24).sqrt()
        return ((norm - 1.0) ** 2).mean()

    # -- persistence ------------------------------------------------------------

    def save(self, path) -> None:
        meta = {
            "graph": graph_fingerprint(self.graph),
            "mode": {
                "mode": self.mode.mode,
                "on_pi_edges": sorted(list(e) for e in self.mode.on_pi_edges),
                "condition": [[n, str(v)] for n, v in self.mode.condition],
            },
        }
        save_params(self.params, path, meta)

    def restore(self, path) -> None:
        """Load parameters saved by :meth:`save`, refusing a structure mismatch."""
        store, meta = load_params(path)
        expected = graph_fingerprint(self.graph)
        if meta.get("graph") != expected:
            raise ModelError(
                "checkpoint was written for a different graph "
                f"(stored {meta.get('graph', '?')[:12]}..., expected {expected[:12]}...)"
            )
        self.params.restore(store.snapshot())
