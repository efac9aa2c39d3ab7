"""Synthetic data from fully specified structural causal models.

Every node is either Gaussian around an affine function of its parents or
Bernoulli with a logistic (or identity) link, so ground-truth interventional
quantities can be computed by brute force: draw exogenous noise once, push it
through the true mechanisms under each intervention arm, and average outcome
probabilities.  These oracles back the accuracy targets of the learned
pipeline.

The oracle answers every contrast asked for in one pass over one draw.  It
keeps only the noise some contrast reads and runs the cascades in blocks of
:data:`ORACLE_BLOCK` draws, so its memory is the noise of the nodes read and
the per-draw contrasts, plus one row block: 34-35 MB for one contrast and
43 MB for the total, indirect and a conditioned contrast at 1,000,000 draws
on the benchmark SCM.  It consumes the random stream exactly as a draw of
every node's noise would, so its results do not depend on what it keeps.

Every pass, the oracle's and :func:`generate`'s, is :func:`graph.cascade`,
the routing rule of the learned model's cascades, with the true mechanisms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .config import CATEGORICAL, CONTINUOUS
from .data import Column, ColumnarDataset
from .graph import (
    CausalGraph,
    GraphError,
    PathSet,
    cascade,
    parse_graph,
    pi_active_nodes,
    split_sections,
    total_path_set,
)

__all__ = [
    "Affine",
    "StructuralFunction",
    "SyntheticSCM",
    "parse_scm",
    "generate",
    "oracle_effect",
    "oracle_effects",
    "benchmark_document",
    "benchmark_scm",
    "LABELS",
]

LABELS = ("0", "1")  # a binary node's two labels in generated data
_IDENT = re.compile(r"^[A-Za-z_]\w*$")

# Draws per block of :func:`oracle_effects`' cascades.  The cascades are
# elementwise, so the block size changes only the memory held: blocks start
# at multiples of it, which keeps every block's rows aligned as in one pass.
ORACLE_BLOCK = 16_384


@dataclass(frozen=True)
class Affine:
    """bias + sum(coeffs[name] * value[name])."""

    bias: float = 0.0
    coeffs: tuple[tuple[str, float], ...] = field(default_factory=tuple)

    def evaluate(self, values: dict[str, np.ndarray], n: int) -> np.ndarray:
        out = np.full(n, self.bias, dtype=np.float64)
        for name, coef in self.coeffs:
            out += coef * values[name]
        return out

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)


def parse_affine(text: str) -> Affine:
    compact = text.replace(" ", "")
    compact = re.sub(r"([eE])-", r"\1_NEG_", compact)  # protect exponents
    bias = 0.0
    coeffs: dict[str, float] = {}
    for piece in compact.replace("-", "+-").split("+"):
        piece = piece.replace("_NEG_", "-")
        if not piece:
            continue
        sign = 1.0
        if piece.startswith("-"):
            sign, piece = -1.0, piece[1:]
        try:
            if "*" in piece:
                coef, name = piece.split("*", 1)
                if not _IDENT.match(name):
                    raise ValueError
                coeffs[name] = coeffs.get(name, 0.0) + sign * float(coef)
            elif _IDENT.match(piece):
                coeffs[piece] = coeffs.get(piece, 0.0) + sign
            else:
                bias += sign * float(piece)
        except ValueError:
            raise GraphError(f"cannot parse affine term {piece!r} in {text!r}") from None
    return Affine(bias, tuple(sorted(coeffs.items())))


@dataclass(frozen=True)
class StructuralFunction:
    """One node's mechanism.

    kind "normal": affine mean plus Gaussian noise with the given std.
    kind "bernoulli": success probability is logistic(affine) when
    ``link == "logistic"`` and the raw affine value otherwise.
    """

    kind: str  # "normal" | "bernoulli"
    affine: Affine
    std: float = 0.0
    link: str = "logistic"

    def mean_or_prob(self, values: dict[str, np.ndarray], n: int) -> np.ndarray:
        z = self.affine.evaluate(values, n)
        if self.kind == "normal":
            return z
        if self.link == "identity":
            if np.any(z < 0.0) or np.any(z > 1.0):
                raise GraphError("identity-link probability left [0, 1]")
            return z
        return 1.0 / (1.0 + np.exp(-z))


_FUNC = re.compile(r"^(?P<node>[A-Za-z_]\w*)\s*=\s*(?P<body>.+)$")
_NORMAL = re.compile(r"^normal\((?P<mean>.+),(?P<std>[^,]+)\)$")
_BERN_LOGISTIC = re.compile(r"^bernoulli\(logistic\((?P<z>.+)\)\)$")
_BERN_IDENTITY = re.compile(r"^bernoulli\((?P<p>.+)\)$")


def _parse_function(body: str) -> StructuralFunction:
    body = body.replace(" ", "")
    if match := _NORMAL.match(body):
        try:
            std = float(match.group("std"))
        except ValueError:
            raise GraphError(f"bad noise std in {body!r}") from None
        if not np.isfinite(std) or std < 0:
            raise GraphError(f"bad noise std in {body!r}")
        return StructuralFunction("normal", parse_affine(match.group("mean")), std=std)
    if match := _BERN_LOGISTIC.match(body):
        return StructuralFunction("bernoulli", parse_affine(match.group("z")))
    if match := _BERN_IDENTITY.match(body):
        return StructuralFunction(
            "bernoulli", parse_affine(match.group("p")), link="identity"
        )
    raise GraphError(f"cannot parse structural function {body!r}")


@dataclass(frozen=True)
class SyntheticSCM:
    graph: CausalGraph
    functions: dict[str, StructuralFunction]
    seed: int = 0

    def __post_init__(self):
        for spec in self.graph.nodes:
            if spec.name not in self.functions:
                raise GraphError(f"node {spec.name!r} has no structural function")
            fn = self.functions[spec.name]
            parents = set(self.graph.parents(spec.name))
            stray = set(fn.affine.names) - parents
            if stray:
                raise GraphError(
                    f"function for {spec.name!r} references non-parent {sorted(stray)[0]!r}"
                )
            if spec.kind == CONTINUOUS and fn.kind != "normal":
                raise GraphError(f"continuous node {spec.name!r} needs a normal function")
            if spec.kind == CATEGORICAL:
                if not spec.is_binary:
                    raise GraphError(
                        f"node {spec.name!r}: only binary categorical nodes are supported"
                    )
                if fn.kind != "bernoulli":
                    raise GraphError(f"binary node {spec.name!r} needs a bernoulli function")
        y_spec = self.graph.node(self.graph.outcome)
        if not y_spec.is_binary:
            raise GraphError("outcome node must be binary")


def parse_scm(text: str, seed: int = 0) -> SyntheticSCM:
    """Parse a graph document extended with a [functions] section."""
    graph = parse_graph(text, extra_sections=("functions",))
    sections = split_sections(text)
    if "functions" not in sections:
        raise GraphError("missing [functions] section")
    functions: dict[str, StructuralFunction] = {}
    for line in sections["functions"]:
        match = _FUNC.match(line)
        if not match:
            raise GraphError(f"cannot parse function line: {line!r}")
        node = match.group("node")
        if node in functions:
            raise GraphError(f"duplicate function for node {node!r}")
        functions[node] = _parse_function(match.group("body"))
    return SyntheticSCM(graph, functions, seed)


def _draw_noise(
    scm: SyntheticSCM, n: int, rng: np.random.Generator, read=None,
) -> dict[str, np.ndarray]:
    """One exogenous draw per node, in topological order (shared across arms).

    With ``read`` given, only those nodes' draws are kept.  Every other node
    before the last read one still advances ``rng`` exactly as its kept draw
    would, in chunks of at most :data:`ORACLE_BLOCK` draws into one small
    buffer (chunked fills give the values of one fill and leave ``rng`` in
    the same state), so each kept draw is the one it is when every draw is
    kept; the draws after the last read node are skipped."""
    order = scm.graph.topo_order
    if read is not None:
        order = order[: max((scm.graph.topo_index[name] + 1 for name in read), default=0)]
    noise = {}
    spare = None
    for name in order:
        fn = scm.functions[name]
        fill = rng.standard_normal if fn.kind == "normal" else rng.random
        if read is None or name in read:
            out = noise[name] = np.empty(n)
            fill(out=out)  # rng.random gives the draws of rng.uniform(0.0, 1.0, n)
            if fn.kind == "normal":
                out *= fn.std
        else:
            if spare is None:
                spare = np.empty(min(n, ORACLE_BLOCK))
            for start in range(0, n, spare.size):
                fill(out=spare[: n - start])
    return noise


def _mechanisms(scm: SyntheticSCM, noise: dict[str, np.ndarray], n: int):
    """The evaluator of :func:`graph.cascade` for the true mechanisms: a
    node's draw from ``noise``, or, for a binary node with no draw there,
    its success probability."""
    def evaluate(name: str, parents: dict[str, np.ndarray]) -> np.ndarray:
        fn = scm.functions[name]
        if fn.kind == "normal":
            return fn.affine.evaluate(parents, n) + noise[name]
        p = fn.mean_or_prob(parents, n)
        return (noise[name] < p).astype(np.float64) if name in noise else p
    return evaluate


def generate(scm: SyntheticSCM, n: int) -> ColumnarDataset:
    """Ancestral sampling; binary nodes become string columns of ``LABELS``."""
    if n < 1:
        raise GraphError("sample count must be >= 1")
    rng = np.random.default_rng(scm.seed)
    g, evaluate = scm.graph, _mechanisms(scm, _draw_noise(scm, n, rng), n)
    values = cascade(g, g.topo_order, None, {}, g.topo_order, g.edges, evaluate)
    columns = []
    for spec in scm.graph.nodes:
        data = values[spec.name]
        if spec.kind == CONTINUOUS:
            columns.append(Column(spec.name, CONTINUOUS, data))
        else:
            labels = np.where(data > 0.5, LABELS[1], LABELS[0])
            columns.append(Column(spec.name, CATEGORICAL, labels))
    return ColumnarDataset(columns)


def _condition_mask(values: dict[str, np.ndarray], condition) -> np.ndarray:
    """Draws whose binary node labels equal every (node, value) pair, compared
    as text; a draw's label is ``LABELS[draw > 0.5]``, as :func:`generate`
    writes it."""
    mask = np.ones(next(iter(values.values())).size, dtype=bool)
    for name, value in condition:
        matches = np.array([label == str(value) for label in LABELS])
        mask &= matches[(values[name] > 0.5).astype(np.intp)]
    return mask


def oracle_effects(
    scm: SyntheticSCM,
    path_sets,
    n: int = 1_000_000,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Ground-truth causal effects by brute force: one (estimate, std error)
    per path set, all from one pass over one exogenous draw.

    The draw is shared across intervention arms and contrasts, and the
    outcome enters as its success probability rather than a sample, which
    removes the outcome-level Monte Carlo noise from each contrast.  Total
    and counterfactual effects route the intervention along every path,
    which equals clamping the sensitive node; a path-specific effect routes
    it along its pi edges only, every other input at its s = 0 reference.

    The pass keeps the noise of the nodes some contrast reads: the outcome's
    ancestry but the clamped sensitive node and the outcome itself, and each
    condition's nodes with their ancestry.  Per block of
    :data:`ORACLE_BLOCK` draws it runs the s = 0 reference cascade once, one
    s = 1 arm per distinct route (routes compare by their edge sets, so the
    total route serves the total and the counterfactual contrast) and one
    observational cascade for the conditions.  It holds that noise, one
    n-long per-draw contrast per route and one mask per condition, and frees
    the noise before the statistics: on the benchmark SCM the total,
    indirect and ``x2=1`` contrasts peak at 43 MB at n = 1,000,000.  Each
    result equals :func:`oracle_effect` of its path set with the same ``n``
    and ``seed`` bit for bit, whatever else the call asks for, and depends
    on neither the noise kept nor the block size.
    """
    if n < 1:
        raise GraphError("sample count must be >= 1")
    g = scm.graph
    total = total_path_set(g)
    routes: dict[frozenset, tuple[frozenset[str], np.ndarray]] = {}  # edges: active, diff
    masks: dict[tuple, np.ndarray] = {}
    contrasts = []  # (route edges, condition or None) per path set
    for ps in path_sets:
        route = ps if ps.mode == "path_specific" else total
        if route.on_pi_edges not in routes:
            routes[route.on_pi_edges] = (pi_active_nodes(g, route), np.empty(n))
        condition = ps.condition if ps.mode == "counterfactual" else None
        if condition is not None and condition not in masks:
            masks[condition] = np.empty(n, dtype=bool)
        contrasts.append((route.on_pi_edges, condition))
    ancestry = g.outcome_ancestry()
    closure = g.ancestry([name for condition in masks for name, _ in condition])
    read = (set(ancestry) - {g.sensitive, g.outcome}) | set(closure)
    noise = _draw_noise(scm, n, np.random.default_rng(seed), read)
    for start in range(0, n, ORACLE_BLOCK):
        rows = slice(start, start + ORACLE_BLOCK)
        size = min(ORACLE_BLOCK, n - start)
        # the arms take the outcome's success probability, not its draw
        block = {name: values[rows] for name, values in noise.items() if name != g.outcome}
        arms = _mechanisms(scm, block, size)
        reference = cascade(g, ancestry, np.zeros(size), {}, ancestry, g.edges, arms)
        p_ref = reference[g.outcome]
        for edges, (active, diff) in routes.items():
            p_plus = cascade(g, ancestry, np.ones(size), reference, active, edges, arms)[g.outcome]
            np.subtract(p_plus, p_ref, out=diff[rows])
        if masks:  # a condition may name the outcome, so this pass draws it
            block = {name: values[rows] for name, values in noise.items()}
            observed = cascade(
                g, closure, None, {}, closure, g.edges, _mechanisms(scm, block, size)
            )
            for condition, mask in masks.items():
                mask[rows] = _condition_mask(observed, condition)
    del noise, block, arms, reference  # freed before the reductions' n-long temporaries

    results = []
    for edges, condition in contrasts:
        diff = routes[edges][1]
        if condition is not None:
            if not masks[condition].any():
                raise GraphError(f"no draws match condition {condition}")
            diff = diff[masks[condition]]
        results.append((float(diff.mean()), float(diff.std(ddof=0) / np.sqrt(diff.size))))
    return results


def oracle_effect(
    scm: SyntheticSCM,
    path_set: PathSet,
    n: int = 1_000_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Ground-truth causal effect of one path set by brute force; returns
    (estimate, std error).  This is :func:`oracle_effects` of that one
    contrast: it holds the noise of the nodes the contrast reads and the n
    per-draw contrasts, 34-35 MB at n = 1,000,000 on the benchmark SCM.  Ask
    for several contrasts of one draw in one :func:`oracle_effects` call;
    separate calls redraw the noise and rerun the reference cascade.
    """
    return oracle_effects(scm, [path_set], n, seed)[0]


def benchmark_document(
    direct: float = 1.0,
    indirect: float = 1.0,
    context_strength: float = 2.5,
    group_strength: float = 3.0,
    group_rate: float = 0.4,
    bias: float = -2.8,
) -> str:
    """The default benchmark family: two root causes, a mediator on the
    outcome route, and several sensitive-marked side columns.

    ``direct`` scales the sensitive-to-outcome edge and ``indirect`` the
    mediated route.  ``context_strength`` (the continuous root's pull on the
    outcome) and ``group_strength``/``bias`` control how heterogeneous the
    row-level contrasts are: strong context pushes much of the population
    into saturated outcome regions where an intervention barely moves the
    outcome, which is what gives a reweighting scheme room to work.  The aux
    columns carry a strong sensitive-group signature without touching the
    outcome, the way demographic side attributes do in census-style data;
    deleting one sensitive group therefore visibly distorts them.
    """
    return f"""
[nodes]
x1 continuous
x2 categorical 2
s categorical 2
med continuous
aux1 continuous
aux2 continuous
aux3 continuous
aux4 continuous
aux5 continuous
y categorical 2

[edges]
x1 -> s
x2 -> s
x1 -> med
x2 -> med
s -> med
s -> aux1
x1 -> aux1
s -> aux2
x2 -> aux2
s -> aux3
s -> aux4
x2 -> aux4
s -> aux5
x1 -> aux5
x1 -> y
x2 -> y
s -> y
med -> y

[roles]
sensitive s
outcome y

[functions]
x1 = normal(0, 1)
x2 = bernoulli({group_rate})
s = bernoulli(logistic(1.6*x1 + 1.2*x2 - 0.45))
med = normal({indirect}*s + 0.6*x1 + 0.4*x2, 0.5)
aux1 = normal(2.2*s + 0.2*x1, 0.5)
aux2 = normal(2.0*s + 0.3*x2, 0.5)
aux3 = normal(2.0*s, 0.6)
aux4 = normal(1.8*s + 0.2*x2, 0.5)
aux5 = normal(2.1*s + 0.15*x1, 0.55)
y = bernoulli(logistic({direct}*s + 0.9*med + {context_strength}*x1 + {group_strength}*x2 + {bias}))
"""


def benchmark_scm(seed: int = 0, **coefficients) -> SyntheticSCM:
    return parse_scm(benchmark_document(**coefficients), seed=seed)
