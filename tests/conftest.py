from typing import Sequence

import numpy as np
import pytest

from fairweigh.autodiff import Tensor
from fairweigh.data import Encoder
from fairweigh.graph import graph_fingerprint, parse_graph, total_path_set
from fairweigh.model import StructuredModel
from fairweigh.nn import ParamStore, layer_sizes, save_params
from fairweigh.reweighter import check_feasibility
from fairweigh.synth import benchmark_scm, generate

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # reproducible property tests: fixed example order, no time limit, and no
    # example database carried between runs
    settings.register_profile("fairweigh", derandomize=True, deadline=None, database=None)
    settings.load_profile("fairweigh")

DIAMOND_DOC = """
[nodes]
a continuous
s categorical 2
b continuous
y categorical 2

[edges]
a -> s
a -> y
s -> b
s -> y
b -> y

[roles]
sensitive s
outcome y
"""

NO_PATH_DOC = """
[nodes]
a continuous
s categorical 2
y categorical 2

[edges]
a -> s
a -> y

[roles]
sensitive s
outcome y
"""


@pytest.fixture
def diamond_graph():
    """Four observed variables: a root cause, the sensitive node, one
    mediator, and the outcome; both a direct and a mediated route."""
    return parse_graph(DIAMOND_DOC)


@pytest.fixture
def no_path_graph():
    return parse_graph(NO_PATH_DOC)


@pytest.fixture(scope="session")
def bench_small():
    """Benchmark SCM with a small sample, shared encoder and total-mode model."""
    scm = benchmark_scm(seed=3)
    ds = generate(scm, 512)
    enc = Encoder().fit(ds)
    model = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=7)
    return scm, ds, enc, model


def node_value(scm, name, parents, noise, n):
    """A node of ``scm`` from its ``parents``' values: its mechanism with its draw
    from ``noise``; the oracle's own evaluator is not used."""
    fn = scm.functions[name]
    if fn.kind == "normal":
        return fn.affine.evaluate(parents, n) + noise[name]
    return (noise[name] < fn.mean_or_prob(parents, n)).astype(np.float64)


def reference_cascade(scm, noise, n, do_sensitive, nodes=None):
    """Ancestral pass over ``nodes`` (every node by default), a topologically
    ordered set closed under parents, the sensitive node clamped unless
    ``do_sensitive`` is None: (node values, outcome probability), the
    outcome sampled only when ``noise`` holds its draw."""
    g = scm.graph
    values, y_prob = {}, None
    for name in g.topo_order if nodes is None else nodes:
        if do_sensitive is not None and name == g.sensitive:
            values[name] = np.full(n, float(do_sensitive))
        elif name == g.outcome:
            y_prob = scm.functions[name].mean_or_prob(values, n)
            if name in noise:
                values[name] = (noise[name] < y_prob).astype(np.float64)
        else:
            values[name] = node_value(scm, name, values, noise, n)
    return values, y_prob


def relative_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Norm-relative disagreement; the floor absorbs central-difference
    roundoff (~1e-11 per entry) when the true gradient is identically zero."""
    num = np.linalg.norm(np.asarray(analytic) - np.asarray(reference))
    den = max(np.linalg.norm(analytic), np.linalg.norm(reference), 1e-6)
    return num / den


def every_non_root_store(model, seed: int) -> ParamStore:
    """A store with a group for every non-root node of the model's graph,
    added in topological order, at the default hidden widths: the groups a
    model drew before it kept only the nodes a cascade reads."""
    graph, store = model.graph, ParamStore(seed)
    for name in graph.topo_order:
        if graph.parents(name):
            in_width = sum(model.encoder.block_width(p) for p in graph.parents(name))
            store.add_group(name, layer_sizes(in_width, (32, 32), model._head(name)[1]))
    return store


def all_groups_checkpoint(model, path):
    """A checkpoint as written when every non-root node had a sub-network."""
    store = every_non_root_store(model, 0)
    store.groups["critic"] = model.params.group("critic")
    meta = {"graph": graph_fingerprint(model.graph), "mode": model._mode_header()}
    save_params(store, path, meta)


def finite_difference(fn, params: Sequence[Tensor], step: float = 1e-5) -> list[np.ndarray]:
    """Central finite-difference gradient of scalar ``fn()`` in ``params``.

    Used by tests as the independent oracle against the closed-form
    gradients: it reads only the values of ``fn()``, a loss or a float.
    """
    def evaluate() -> float:
        value = fn()
        return float(value.data) if isinstance(value, Tensor) else float(value)

    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = evaluate()
            flat[j] = orig - step
            f_minus = evaluate()
            flat[j] = orig
            gflat[j] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return grads


def assert_kkt_optimal(d, balance, w):
    """``w`` is feasible and meets the KKT conditions of min d.w: the vertex
    on argmin(d) when that lies in the ball, else the ball binds and
    w_i = a - t d_i (t > 0) on the support, with a - t d_i <= 0 off it."""
    m = d.size
    assert check_feasibility(w, balance).feasible, check_feasibility(w, balance).describe()
    vertex = np.where(d == d.min(), m / np.sum(d == d.min()), 0.0)
    if np.sum((vertex - 1.0) ** 2) <= (balance + 1e-9) * m:
        np.testing.assert_allclose(w, vertex, rtol=0, atol=1e-9)
        return
    assert abs(np.sum((w - 1.0) ** 2) - balance * m) <= 1e-9 * m
    support = w > 0
    # the conditions survive shift and scale: z spans the support's range, so
    # that a support far below d's range keeps its digits in the sums below
    lo, hi = d[support].min(), d[support].max()
    with np.errstate(over="ignore"):
        z = (d - lo) / (hi - lo)
    zs = z[support] - z[support].mean()
    t = -float(zs @ (w[support] - w[support].mean())) / float(zs @ zs)
    assert t > 0
    a = w[support] + t * z[support]
    scale = 1.0 + np.max(w)
    assert np.max(a) - np.min(a) <= 1e-9 * scale
    if not support.all():
        assert np.max(a.mean() - t * z[~support]) <= 1e-9 * scale
