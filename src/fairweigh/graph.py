"""Causal DAG over named variables with a sensitive node and an outcome node.

The graph is immutable after construction and knows how to derive the
structure needed by the interventional views: graph surgery (dropping the
sensitive node's incoming edges) and, for path-restricted interventions, which
edges and nodes lie on the selected sensitive-to-outcome paths.  Every such
query is a reachability walk, linear in the size of the graph; no path is ever
listed, so the number of paths does not matter.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

__all__ = [
    "GraphError",
    "NodeSpec",
    "CausalGraph",
    "PathSet",
    "parse_graph",
    "split_sections",
    "intervention_surgery",
    "total_path_set",
    "direct_path_set",
    "indirect_path_set",
    "counterfactual_path_set",
    "pi_active_nodes",
    "graph_fingerprint",
]

class GraphError(ValueError):
    """Structural problem in a graph document or derived path set."""


@dataclass(frozen=True)
class NodeSpec:
    """A variable: continuous, or categorical with a fixed level count."""

    name: str
    kind: str  # "continuous" | "categorical"
    cardinality: int | None = None

    def __post_init__(self):
        if self.kind not in ("continuous", "categorical"):
            raise GraphError(f"node {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if self.cardinality is None or self.cardinality < 2:
                raise GraphError(
                    f"node {self.name!r}: categorical cardinality must be >= 2"
                )
        elif self.cardinality is not None:
            raise GraphError(f"node {self.name!r}: continuous nodes take no cardinality")

    @property
    def is_binary(self) -> bool:
        return self.kind == "categorical" and self.cardinality == 2


class CausalGraph:
    """Validated DAG with designated sensitive and outcome nodes."""

    def __init__(self, nodes, edges, sensitive: str, outcome: str):
        specs = [n if isinstance(n, NodeSpec) else NodeSpec(*n) for n in nodes]
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise GraphError(f"duplicate node declaration: {dup[0]!r}")
        self.nodes: tuple[NodeSpec, ...] = tuple(specs)
        self._by_name = {s.name: s for s in specs}

        seen: set[tuple[str, str]] = set()
        for parent, child in edges:
            if parent not in self._by_name:
                raise GraphError(f"edge ({parent!r}, {child!r}): unknown node {parent!r}")
            if child not in self._by_name:
                raise GraphError(f"edge ({parent!r}, {child!r}): unknown node {child!r}")
            if parent == child:
                raise GraphError(f"self-loop on node {parent!r}")
            if (parent, child) in seen:
                raise GraphError(f"duplicate edge ({parent!r}, {child!r})")
            seen.add((parent, child))
        self.edges: tuple[tuple[str, str], ...] = tuple(edges)

        for role, name in (("sensitive", sensitive), ("outcome", outcome)):
            if name not in self._by_name:
                raise GraphError(f"{role} node {name!r} is not declared")
        if sensitive == outcome:
            raise GraphError("sensitive and outcome must be distinct nodes")
        self.sensitive = sensitive
        self.outcome = outcome

        self._parents: dict[str, list[str]] = {n: [] for n in names}
        self._children: dict[str, list[str]] = {n: [] for n in names}
        for parent, child in self.edges:
            self._parents[child].append(parent)
            self._children[parent].append(child)

        self.topo_order: tuple[str, ...] = tuple(self._topological_sort())
        self.topo_index: dict[str, int] = {n: i for i, n in enumerate(self.topo_order)}
        # canonical parent order: by topological index, for stable input layout
        for child in self._parents:
            self._parents[child].sort(key=self.topo_index.__getitem__)
            self._children[child].sort(key=self.topo_index.__getitem__)

    def _topological_sort(self) -> list[str]:
        indegree = {s.name: len(self._parents[s.name]) for s in self.nodes}
        ready = [s.name for s in self.nodes if indegree[s.name] == 0]
        order: list[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child in self._children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self.nodes):
            stuck = sorted(n for n, d in indegree.items() if d > 0)
            raise GraphError(f"cycle detected among nodes {stuck}")
        return order

    # -- structure queries -------------------------------------------------

    def node(self, name: str) -> NodeSpec:
        return self._by_name[name]

    def parents(self, name: str) -> list[str]:
        return list(self._parents[name])

    def children(self, name: str) -> list[str]:
        return list(self._children[name])

    @property
    def roots(self) -> tuple[str, ...]:
        return tuple(n for n in self.topo_order if not self._parents[n])

    def descendants(self, name: str) -> frozenset[str]:
        return _reach(self._children[name], self.children)

    def ancestry(self, names) -> tuple[str, ...]:
        """``names`` and every node they depend on, in topological order."""
        reached = _reach(names, self.parents)
        return tuple(n for n in self.topo_order if n in reached)

    def outcome_ancestry(self) -> tuple[str, ...]:
        """The outcome and every node it depends on, in topological order."""
        return self.ancestry([self.outcome])

    @property
    def has_effect_path(self) -> bool:
        """Whether any directed path runs from the sensitive node to the outcome."""
        return self.outcome in self.descendants(self.sensitive)

    def column_names(self) -> list[str]:
        return [s.name for s in self.nodes]

    def __repr__(self):
        return (
            f"CausalGraph({len(self.nodes)} nodes, {len(self.edges)} edges, "
            f"sensitive={self.sensitive!r}, outcome={self.outcome!r})"
        )


@dataclass(frozen=True)
class PathSet:
    """Which causal routes carry the intervention, per fairness notion.

    ``on_pi_edges`` holds the union of edges of the selected sensitive-to-
    outcome paths; ``condition`` restricts the evaluation to rows matching the
    given (node, value) pairs and is only used in counterfactual mode.
    """

    mode: str  # "total" | "path_specific" | "counterfactual"
    on_pi_edges: frozenset[tuple[str, str]] = frozenset()
    condition: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.mode not in ("total", "path_specific", "counterfactual"):
            raise GraphError(f"unknown fairness mode {self.mode!r}")
        if self.mode == "counterfactual" and not self.condition:
            raise GraphError("counterfactual mode requires a non-empty condition")


# -- document parsing ----------------------------------------------------------


def split_sections(text: str) -> dict[str, list[str]]:
    """Split a sectioned document into ``{section: lines}``.

    Sections open with ``[name]``; blank lines and ``#`` comments are dropped.
    """
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current in sections:
                raise GraphError(f"duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise GraphError(f"content before any section header: {line!r}")
        sections[current].append(line)
    return sections


def parse_graph(text: str, extra_sections: tuple[str, ...] = ()) -> CausalGraph:
    """Parse the nodes/edges/roles graph document into a validated graph."""
    sections = split_sections(text)
    unknown = set(sections) - {"nodes", "edges", "roles"} - set(extra_sections)
    if unknown:
        raise GraphError(f"unknown section [{sorted(unknown)[0]}]")
    for required in ("nodes", "roles"):
        if required not in sections:
            raise GraphError(f"missing [{required}] section")

    nodes: list[NodeSpec] = []
    for line in sections["nodes"]:
        parts = line.split()
        if len(parts) == 2 and parts[1] == "continuous":
            nodes.append(NodeSpec(parts[0], "continuous"))
        elif len(parts) == 3 and parts[1] == "categorical":
            try:
                cardinality = int(parts[2])
            except ValueError:
                raise GraphError(f"bad cardinality in node line: {line!r}") from None
            nodes.append(NodeSpec(parts[0], "categorical", cardinality))
        else:
            raise GraphError(f"cannot parse node line: {line!r}")

    edges: list[tuple[str, str]] = []
    for line in sections.get("edges", []):
        if "->" not in line:
            raise GraphError(f"cannot parse edge line: {line!r}")
        parent, child = (part.strip() for part in line.split("->", 1))
        if not parent or not child:
            raise GraphError(f"cannot parse edge line: {line!r}")
        edges.append((parent, child))

    roles: dict[str, str] = {}
    for line in sections["roles"]:
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("sensitive", "outcome"):
            raise GraphError(f"cannot parse role line: {line!r}")
        roles[parts[0]] = parts[1]
    if "sensitive" not in roles:
        raise GraphError("missing sensitive designation in [roles]")
    if "outcome" not in roles:
        raise GraphError("missing outcome designation in [roles]")

    return CausalGraph(nodes, edges, roles["sensitive"], roles["outcome"])


# -- interventional structure ---------------------------------------------------


def intervention_surgery(g: CausalGraph) -> CausalGraph:
    """The post-intervention graph: all incoming edges of the sensitive node cut."""
    kept = [(p, c) for (p, c) in g.edges if c != g.sensitive]
    return CausalGraph(g.nodes, kept, g.sensitive, g.outcome)


def _reach(starts, step) -> frozenset[str]:
    """``starts`` and every node reached from them by repeated ``step(node)``."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for node in step(frontier.pop()):
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return frozenset(seen)


def _all_path_edges(g: CausalGraph) -> frozenset[tuple[str, str]]:
    """Edges on some sensitive-to-outcome path: in a DAG, ``(p, c)`` is on one
    exactly when the sensitive node reaches ``p`` and ``c`` reaches the outcome."""
    from_sensitive = _reach([g.sensitive], g.children)
    to_outcome = _reach([g.outcome], g.parents)
    return frozenset(
        (p, c) for p, c in g.edges if p in from_sensitive and c in to_outcome
    )


def total_path_set(g: CausalGraph) -> PathSet:
    """Intervention along every sensitive-to-outcome path."""
    return PathSet("total", _all_path_edges(g))


def direct_path_set(g: CausalGraph) -> PathSet:
    """Intervention along the direct edge only."""
    direct = (g.sensitive, g.outcome)
    if direct not in g.edges:
        raise GraphError(
            f"no direct edge {g.sensitive!r} -> {g.outcome!r}; direct effect undefined"
        )
    return PathSet("path_specific", frozenset([direct]))


def indirect_path_set(g: CausalGraph) -> PathSet:
    """Intervention along all paths except the direct edge."""
    edges = _all_path_edges(g) - {(g.sensitive, g.outcome)}
    if not edges:
        raise GraphError(
            "no indirect path from sensitive to outcome; indirect effect undefined"
        )
    return PathSet("path_specific", edges)


def counterfactual_path_set(g: CausalGraph, condition, levels=None) -> PathSet:
    """Full intervention evaluated on the sub-population matching ``condition``,
    (node, value) pairs on categorical nodes other than the sensitive one; a
    value must be one of ``levels(node)``, the node's labels, when given."""
    pairs = tuple((str(n), v) for n, v in condition)
    if not pairs:
        raise GraphError("counterfactual mode requires a non-empty condition")
    for name, value in pairs:
        if name not in {s.name for s in g.nodes}:
            raise GraphError(f"condition names unknown node {name!r}")
        if name == g.sensitive:
            raise GraphError("condition must not include the sensitive node")
        if g.node(name).kind != "categorical":
            raise GraphError(f"condition node {name!r} is not categorical")
        if levels is not None and str(value) not in levels(name):
            raise GraphError(
                f"condition value {value!r} is none of the levels {levels(name)} of {name!r}"
            )
    return PathSet("counterfactual", _all_path_edges(g), pairs)


def validate_path_set(g: CausalGraph, ps: PathSet, levels=None) -> None:
    """Check a path set against the graph (and node ``levels``) it is used with."""
    if ps.mode == "path_specific":
        on_any_path = _all_path_edges(g)
        stray = ps.on_pi_edges - on_any_path
        if stray:
            edge = sorted(stray)[0]
            raise GraphError(
                f"edge {edge} is not on any path from {g.sensitive!r} to {g.outcome!r}"
            )
        if not ps.on_pi_edges:
            raise GraphError("path_specific mode requires a non-empty edge set")
    if ps.mode == "counterfactual":
        counterfactual_path_set(g, ps.condition, levels)


def pi_active_nodes(g: CausalGraph, ps: PathSet) -> frozenset[str]:
    """Nodes lying on at least one selected path.

    A sensitive-to-outcome path is selected when every one of its edges is in
    ``on_pi_edges``; a node is active when some selected path passes through it,
    that is when the sensitive node reaches it, and it reaches the outcome,
    along graph edges in ``on_pi_edges``.
    """
    pi = ps.on_pi_edges
    reached = _reach([g.sensitive], lambda n: [c for c in g.children(n) if (n, c) in pi])
    reaching = _reach([g.outcome], lambda n: [p for p in g.parents(n) if (p, n) in pi])
    return reached & reaching


def graph_fingerprint(g: CausalGraph) -> str:
    """Stable hash of the graph used to tie checkpoints to their structure."""
    payload = {
        "nodes": [[s.name, s.kind, s.cardinality] for s in g.nodes],
        "edges": [list(e) for e in g.edges],
        "sensitive": g.sensitive,
        "outcome": g.outcome,
    }
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()
