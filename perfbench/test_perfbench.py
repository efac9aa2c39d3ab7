"""Self-tests of the benchmark's tracing, on a tiny configuration.

    python3 -m pytest perfbench -q -p no:cacheprovider

These are the benchmark's own tests, not part of the package's test suite.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from fairweigh import Encoder, StructuredModel, TrainConfig, total_path_set  # noqa: E402
from fairweigh import trainer  # noqa: E402
from fairweigh.reweighter import WeightVector  # noqa: E402
from fairweigh.synth import benchmark_scm, generate  # noqa: E402
from tracing import TARGETS, Tracer, phases, summarize  # noqa: E402
import worker  # noqa: E402

M = 1_500
EPOCHS = 2
BATCH = 640
REFINE = 50


def traced_train(seed: int = 3):
    scm = benchmark_scm(seed=seed)
    ds = generate(scm, M)
    model = StructuredModel(scm.graph, Encoder().fit(ds), total_path_set(scm.graph), seed=seed)
    config = TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=seed,
                         critic_steps_at_weight_solve=REFINE)
    tracer = Tracer()
    with tracer.installed():
        _, _, log = trainer.train(model, ds, config)
    return tracer, log, config


@pytest.fixture(scope="module")
def traced():
    return traced_train()


def test_step_counts_follow_the_schedule(traced):
    tracer, _, _ = traced
    metrics, _ = summarize(tracer, units=1, setups=1)
    fit_per_epoch = math.ceil(M / BATCH)
    assert metrics["trainer.fit_steps"] == fit_per_epoch * EPOCHS
    assert metrics["trainer.critic_steps"] == (fit_per_epoch // 2 + REFINE) * EPOCHS
    kinds = [p.kind for p in phases(tracer)]
    assert kinds.count("full_pair") == EPOCHS
    assert kinds.count("solve") == EPOCHS
    assert kinds.count("effect") == EPOCHS
    assert kinds.count("critic_interleaved") == (fit_per_epoch // 2) * EPOCHS


def test_projections_run_whenever_the_ball_binds(traced):
    tracer, log, config = traced
    solves = [i for i, s in enumerate(tracer.spans) if s.name == "solve_weights"]
    assert len(solves) == EPOCHS
    for index, record in zip(solves, log):
        projections = sum(1 for s in tracer.spans if s.parent == index and s.name == "projection")
        if abs(record.weight_deviation - config.balance * M) <= 1e-6 * M:
            assert projections >= 1


def test_exact_counts_repeat(traced):
    first, _ = summarize(traced[0], units=1, setups=1)
    second, _ = summarize(traced_train()[0], units=1, setups=1)
    for name in ("trainer.fit_steps", "trainer.critic_steps", "model.cascade_calls",
                 "model.cascade_rows", "model.cascade_repeat_frac", "nn.mlp_rows",
                 "autodiff.tensors_per_fit_step", "autodiff.tensors_per_critic_step",
                 "reweighter.projections"):
        assert first[name] == second[name], name
    assert first["autodiff.tensors_per_fit_step"] > 0


def _lookups():
    found = []
    for module_name, owner_name, attr, _, _ in TARGETS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        found.append((owner, attr, owner.__dict__[attr]))
    autodiff = importlib.import_module("fairweigh.autodiff")
    nn = importlib.import_module("fairweigh.nn")
    found.append((autodiff.Tensor, "__init__", autodiff.Tensor.__dict__["__init__"]))
    found.append((nn.ParamStore, "parameters", nn.ParamStore.__dict__["parameters"]))
    return found


def test_every_wrapped_callable_is_restored():
    before = _lookups()
    traced_train()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(owner.__dict__[attr] is not original for owner, attr, original in before)
            raise RuntimeError("abort inside a traced run")
    with pytest.raises(RuntimeError):
        with worker.train_timer([]):
            raise RuntimeError("abort inside a timed CLI unit")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} left wrapped"


def test_a_skipped_weight_solve_fails_the_output_check(tmp_path, monkeypatch):
    workload = worker.TrainWorkload(total_path_set, M, epochs=1)
    workload.setup(3, tmp_path)
    workload.unit()
    monkeypatch.setattr(
        trainer, "solve_weights", lambda d, balance: WeightVector(np.ones(d.size), balance)
    )
    with pytest.raises(worker.CheckFailed, match="balance ball"):
        workload.unit()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__*"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "critic-bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout.strip() == ""


def test_benchmark_spec_names_every_reported_metric(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, _ = summarize(traced[0], units=1, setups=1)
    added_by_run = {"trace.run_s", "trace.untraced_run_s", "trace.overhead_frac",
                    "trace.focus_frac", "effects.abs_effect"}
    assert {m["name"] for m in spec["per_layer"]} == set(metrics) | added_by_run


def test_cpu_rotation_moves_the_process_and_restores_its_cpus():
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("one CPU: nothing to rotate")
    seen = set()
    with worker.cpu_rotation(threads=1):
        deadline = time.perf_counter() + 4 * worker.CPU_TURN_S * len(cpus)
        while time.perf_counter() < deadline:
            seen.add(frozenset(os.sched_getaffinity(0)))
    assert seen == {frozenset({cpu}) for cpu in cpus}
    assert os.sched_getaffinity(0) == cpus
    with worker.cpu_rotation(threads=2):
        assert os.sched_getaffinity(0) == cpus
