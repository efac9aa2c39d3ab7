"""The benchmark's tracer (``perfbench/tracing.py``) replaces callables at the
lookup sites listed in its ``TARGETS`` and reads some of their arguments.
These checks keep a refactor from silently breaking ``perfbench/run.py
--trace 1``: every lookup resolves, and a traced training run still yields
the phases the tracer rebuilds."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fairweigh import trainer
from fairweigh.data import Encoder
from fairweigh.graph import counterfactual_path_set, indirect_path_set, total_path_set
from fairweigh.model import StructuredModel
from fairweigh.nn import BLOCK_ROWS
from fairweigh.synth import benchmark_scm, generate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_lookup_resolves(tracing):
    lookups = [(module, owner, attr) for module, owner, attr, _, _ in tracing.TARGETS]
    lookups += [
        ("fairweigh.autodiff", "Tensor", "__init__"),
        ("fairweigh.nn", "ParamStore", "parameters"),
    ]
    for module_name, owner_name, attr in lookups:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        assert callable(owner.__dict__.get(attr)), f"{module_name} {owner_name} {attr}"


@pytest.mark.parametrize(
    "path_set, context",
    [
        (total_path_set, ()),
        (indirect_path_set, ("x1",)),
        (lambda graph: counterfactual_path_set(graph, [("x2", "1")]), ("x1",)),
    ],
    ids=["total", "path_specific", "counterfactual"],
)
def test_a_traced_run_yields_the_phases_of_each_epoch(tracing, path_set, context):
    m, batch, epochs = 300, 64, 2
    scm = benchmark_scm(seed=3)
    ds = generate(scm, m)
    model = StructuredModel(
        scm.graph, Encoder().fit(ds), path_set(scm.graph), seed=3,
        critic_context_nodes=context,
    )
    config = trainer.TrainConfig(
        epochs=epochs, batch_size=batch, seed=3, critic_steps_at_weight_solve=3
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        trainer.train(model, ds, config)
    kinds = [phase.kind for phase in tracing.phases(tracer)]
    assert kinds.count("fit") == -(-m // batch) * epochs
    assert kinds.count("full_pair") == kinds.count("effect") == epochs
    metrics, _ = tracing.summarize(tracer, units=1, setups=1)
    assert metrics["trainer.fit_steps"] == kinds.count("fit")


def test_traced_forwards_count_each_caller_row_once(tracing):
    """``mlp_forward`` blocks its rows inside ``nn``, behind the lookups the
    tracer wraps: a full-split forward is one span of every split row, not
    one span per block, and ``nn.mlp_rows`` counts each caller row once."""
    m, batch = BLOCK_ROWS + 1000, 640
    scm = benchmark_scm(seed=3)
    ds = generate(scm, m)
    model = StructuredModel(scm.graph, Encoder().fit(ds), total_path_set(scm.graph), seed=3)
    config = trainer.TrainConfig(
        epochs=1, batch_size=batch, seed=3, critic_steps_at_weight_solve=2
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        trainer.train(model, ds, config)
    rows = [span.info["rows"] for span in tracer.spans if span.name == "mlp_forward"]
    # the full-split pair runs med and y under both clamps; the orientation
    # and the weight solve each run the critic on both arms
    assert rows.count(m) == 4 + 2 + 2
    assert all(r == m or r <= batch for r in rows)
    metrics, _ = tracing.summarize(tracer, units=1, setups=1)
    assert metrics["nn.mlp_rows"] == sum(rows)
