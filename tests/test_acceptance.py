"""Acceptance gate: each test prints one PASS/FAIL line for its criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The synthetic-benchmark criteria share one dataset and cache their
trained models in session fixtures, so the whole gate stays well inside the
stated runtime budgets.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fairweigh.autodiff import backward
from fairweigh.cli import main as cli_main
from fairweigh.data import Column, ColumnarDataset, Encoder
from fairweigh.effects import (
    counterfactual_effect,
    path_specific_effect,
    total_effect,
    wasserstein_estimate,
)
from fairweigh.graph import (
    counterfactual_path_set,
    indirect_path_set,
    parse_graph,
    total_path_set,
)
from fairweigh.model import Pair, StructuredModel
from fairweigh.reweighter import check_feasibility, solve_weights
from fairweigh.synth import benchmark_document, benchmark_scm, generate, oracle_effects
from fairweigh.trainer import TrainConfig, train

from conftest import NO_PATH_DOC, finite_difference, relative_error
from test_reweighter import grid_search_optimum

ORACLE_SAMPLES = 1_000_000
BENCH_N = 20_000
BENCH_CONDITION = [("x2", "1")]

TRAIN_SETTINGS = dict(
    epochs=30,
    batch_size=640,
    eta0=0.01,
    seed=2,
    critic_steps_at_weight_solve=50,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def bench():
    scm = benchmark_scm(seed=5)
    ds = generate(scm, BENCH_N)
    enc = Encoder().fit(ds)
    return scm, ds, enc, enc.transform(ds)


@pytest.fixture(scope="session")
def oracles(bench):
    scm, _, _, _ = bench
    path_sets = [
        total_path_set(scm.graph),
        indirect_path_set(scm.graph),
        counterfactual_path_set(scm.graph, BENCH_CONDITION),
    ]
    effects = oracle_effects(scm, path_sets, ORACLE_SAMPLES, seed=9)
    return dict(zip(("te", "sp", "ce"), effects))


@pytest.fixture(scope="session")
def reweighted(bench):
    """Model trained with the full adversarial scheme at the default balance."""
    scm, ds, enc, x = bench
    model = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=2)
    config = TrainConfig(**TRAIN_SETTINGS, balance=1.5)
    started = time.perf_counter()
    model, weights, _ = train(model, ds, config)
    return model, weights, time.perf_counter() - started


def test_criterion_1_weight_solver_matches_grid_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = -np.inf
    worst_residual = 0.0
    for i in range(50):
        m = int(rng.integers(2, 5))
        d = rng.uniform(-2, 2, m)
        balance = float(rng.choice([0.1, 0.5, 1.5, 5.0]))
        wv = solve_weights(d, balance)
        achieved = float(d @ wv.values)
        oracle = grid_search_optimum(d, balance)
        worst_gap = max(worst_gap, achieved - oracle)
        rep = check_feasibility(wv.values, balance)
        residual = max(
            abs(rep.sum_residual),
            max(0.0, -rep.ball_slack),
            max(0.0, -float(wv.values.min())),
        )
        worst_residual = max(worst_residual, residual / m)
    elapsed = time.perf_counter() - started
    report(
        "1",
        worst_gap <= 1e-3 and worst_residual <= 1e-8 and elapsed < 60,
        f"worst objective gap {worst_gap:.2e}, worst residual/m {worst_residual:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_analytic_kkt_case():
    wv = solve_weights(np.array([1.0, 0.0, -1.0]), 0.5)
    expected = np.array([0.1340, 1.0000, 1.8660])
    error = float(np.max(np.abs(wv.values - expected)))
    report("2", error < 1e-4, f"max deviation from closed form {error:.2e}")


def test_criterion_3_gradients_match_finite_differences():
    started = time.perf_counter()
    doc = """
[nodes]
a continuous
s categorical 2
y categorical 2
[edges]
a -> s
a -> y
s -> y
[roles]
sensitive s
outcome y
"""
    graph = parse_graph(doc)
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(i)
        m = 5
        ds = ColumnarDataset(
            [
                Column("a", "continuous", rng.normal(size=m)),
                Column("s", "categorical", np.array(["0", "1", "0", "1", "1"])),
                Column("y", "categorical", np.array(["1", "0", "0", "1", "0"])),
            ]
        )
        enc = Encoder().fit(ds)
        model = StructuredModel(
            graph, enc, total_path_set(graph), seed=i, hidden=(4,), critic_hidden=(4,)
        )
        # random critic: the zero-initialized head has no curvature to check
        for w, b in model.params.group("critic"):
            w.data = rng.uniform(-1, 1, w.data.shape)
            b.data = rng.uniform(-1, 1, b.data.shape)
        x = enc.transform(ds)
        sample_weights = rng.uniform(0.2, 2.0, m)

        fit_params = model.params.parameters(model.sub_network_nodes)
        critic_params = model.params.parameters(["critic"])
        y_plus = model.intervene_total(x, 1)
        y_minus = model.intervene_total(x, 0)
        pair = Pair(y_plus, y_minus, np.arange(m), None)

        def fit_fn():
            return model.fit_loss(x, sample_weights)

        def critic_fn():  # the weighted gap alone: no penalty
            return model.critic_loss(pair, sample_weights / m, np.random.default_rng(i), 0.0)[0]

        def penalty_fn():
            return model.gradient_penalty(y_plus, y_minus, np.random.default_rng(i))

        def critic_loss_fn():  # the loss a critic step trains on
            coef = sample_weights / m
            return model.critic_loss(pair, coef, np.random.default_rng(i), 10.0)[0]

        for fn, params in (
            (fit_fn, fit_params),
            (critic_fn, critic_params),
            (penalty_fn, critic_params),
            (critic_loss_fn, critic_params),
        ):
            analytic = backward(fn(), params)
            reference = finite_difference(fn, params)
            for g, r in zip(analytic, reference):
                worst = max(worst, relative_error(g, r))
    elapsed = time.perf_counter() - started
    report(
        "3",
        worst < 1e-4 and elapsed < 120,
        f"worst relative error {worst:.2e} over 100 nets, {elapsed:.1f}s",
    )


def test_criterion_4_unweighted_effect_recovery(bench, oracles):
    started = time.perf_counter()
    scm, ds, enc, x = bench
    config = TrainConfig(**TRAIN_SETTINGS)

    model_te = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=2)
    model_te, _, _ = train(model_te, ds, config, fit_only=True)
    te = total_effect(model_te, ds, None, x)

    model_sp = StructuredModel(scm.graph, enc, indirect_path_set(scm.graph), seed=2)
    model_sp, _, _ = train(model_sp, ds, config, fit_only=True)
    sp = path_specific_effect(model_sp, ds, None, x)

    cf_mode = counterfactual_path_set(scm.graph, BENCH_CONDITION)
    model_ce = StructuredModel(scm.graph, enc, cf_mode, seed=2)
    model_ce, _, _ = train(model_ce, ds, config, fit_only=True)
    ce = counterfactual_effect(model_ce, ds, None, x)

    te_err = abs(te - oracles["te"][0])
    sp_err = abs(sp - oracles["sp"][0])
    ce_err = abs(ce - oracles["ce"][0])
    elapsed = time.perf_counter() - started
    report(
        "4",
        te_err <= 0.03 and sp_err <= 0.03 and ce_err <= 0.05 and elapsed < 900,
        f"errors vs {ORACLE_SAMPLES:,}-draw oracle: total {te_err:.4f} (<=0.03), "
        f"path-specific {sp_err:.4f} (<=0.03), conditioned {ce_err:.4f} (<=0.05), "
        f"{elapsed:.0f}s",
    )


def test_criterion_5_fairness_attained_with_bounded_distortion(bench, oracles, reweighted):
    scm, ds, enc, x = bench
    model, weights, train_time = reweighted
    started = time.perf_counter()

    oracle_te = oracles["te"][0]
    te_after = total_effect(model, ds, weights.values, x)
    feasibility = check_feasibility(weights.values, 1.5)

    distance_reweighted = wasserstein_estimate(x, x, weights.values, seed=0, steps=2000)
    crude = np.where(ds.column("s").values == "1", 0.0, 1.0)
    crude *= ds.m / crude.sum()
    distance_crude = wasserstein_estimate(x, x, crude, seed=0, steps=2000)

    elapsed = train_time + time.perf_counter() - started
    passed = (
        oracle_te >= 0.15
        and abs(te_after) <= 0.05
        and feasibility.feasible
        and distance_reweighted < 0.5 * distance_crude
        and elapsed < 1200
    )
    report(
        "5",
        passed,
        f"oracle effect {oracle_te:.4f} (>=0.15), after reweighting {te_after:+.4f} "
        f"(|.|<=0.05), constraints {feasibility.describe()}, distance "
        f"{distance_reweighted:.3f} vs crude {distance_crude:.3f} (<50%), {elapsed:.0f}s",
    )


def test_criterion_6_degenerate_graph_keeps_unit_weights():
    graph = parse_graph(NO_PATH_DOC)
    rng = np.random.default_rng(1)
    m = 400
    ds = ColumnarDataset(
        [
            Column("a", "continuous", rng.normal(size=m)),
            Column("s", "categorical", np.where(rng.random(m) < 0.5, "1", "0")),
            Column("y", "categorical", np.where(rng.random(m) < 0.4, "1", "0")),
        ]
    )
    enc = Encoder().fit(ds)
    x = enc.transform(ds)
    model = StructuredModel(graph, enc, total_path_set(graph), seed=3)
    config = TrainConfig(
        epochs=5, batch_size=100, eta0=0.01, seed=3, critic_steps_at_weight_solve=10
    )
    model, weights, _ = train(model, ds, config)
    max_dev = float(np.max(np.abs(weights.values - 1.0)))

    te = total_effect(model, ds, weights.values, x)
    cf_model = StructuredModel(
        graph,
        enc,
        counterfactual_path_set(graph, [("y", ds.column("y").values[0])]),
        seed=3,
    )
    ce = counterfactual_effect(cf_model, ds, weights.values, x)
    report(
        "6",
        max_dev <= 1e-3 and te == 0.0 and ce == 0.0,
        f"max |w-1| {max_dev:.2e} (<=1e-3), total effect {te}, conditioned effect {ce} "
        "(both exactly zero)",
    )


def test_criterion_7_manifest_rerun_is_bitwise_identical(tmp_path):
    scm_doc = benchmark_document()
    (tmp_path / "scm.txt").write_text(scm_doc, encoding="utf-8")
    (tmp_path / "graph.txt").write_text(scm_doc.split("[functions]")[0], encoding="utf-8")
    assert (
        cli_main(
            [
                "gen-synth",
                "--scm",
                str(tmp_path / "scm.txt"),
                "--n",
                "800",
                "--out",
                str(tmp_path / "data.csv"),
                "--seed",
                "4",
                "--oracle-samples",
                "5000",
            ]
        )
        == 0
    )
    config = {
        "data": str(tmp_path / "data.csv"),
        "graph": str(tmp_path / "graph.txt"),
        "out": str(tmp_path / "first"),
        "schema": [
            {"name": "x1", "kind": "continuous"},
            {"name": "x2", "kind": "categorical", "levels": ["0", "1"]},
            {"name": "s", "kind": "categorical", "levels": ["0", "1"]},
            {"name": "med", "kind": "continuous"},
            {"name": "aux1", "kind": "continuous"},
            {"name": "aux2", "kind": "continuous"},
            {"name": "aux3", "kind": "continuous"},
            {"name": "aux4", "kind": "continuous"},
            {"name": "aux5", "kind": "continuous"},
            {"name": "y", "kind": "categorical", "levels": ["0", "1"]},
        ],
        "mode": "total",
        "repeats": 2,
        "wasserstein": False,
        "train": {
            "epochs": 4,
            "batch_size": 128,
            "eta0": 0.02,
            "seed": 13,
            "critic_steps_at_weight_solve": 5,
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["reweigh", "--config", str(tmp_path / "config.json")]) in (0, 1)
    manifest = tmp_path / "first" / "manifest.json"
    assert cli_main(
        ["reweigh", "--config", str(manifest), "--out", str(tmp_path / "second")]
    ) in (0, 1)
    identical = all(
        (tmp_path / "first" / name).read_bytes()
        == (tmp_path / "second" / name).read_bytes()
        for name in ("rep_0/weights.csv", "rep_1/weights.csv", "weights_mean.csv")
    )
    report("7", identical, "weight files identical across a manifest rerun")


ADULT_VARS = ("FAIRWEIGH_ADULT_CSV", "FAIRWEIGH_ADULT_GRAPH", "FAIRWEIGH_ADULT_SCHEMA")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in ADULT_VARS),
    reason=(
        "optional long-running reproduction; set FAIRWEIGH_ADULT_CSV, "
        "FAIRWEIGH_ADULT_GRAPH and FAIRWEIGH_ADULT_SCHEMA to run it"
    ),
)
def test_criterion_8_adult_reproduction(tmp_path):
    from fairweigh.data import load_csv, split, SplitPlan
    from fairweigh.effects import downstream_accuracy

    schema_doc = json.loads(Path(os.environ["FAIRWEIGH_ADULT_SCHEMA"]).read_text())
    schema = [(e["name"], e["kind"]) for e in schema_doc]
    declared = {e["name"]: e["levels"] for e in schema_doc if "levels" in e}
    ds = load_csv(os.environ["FAIRWEIGH_ADULT_CSV"], schema)
    graph = parse_graph(Path(os.environ["FAIRWEIGH_ADULT_GRAPH"]).read_text())

    train_ds, test_ds = split(ds, SplitPlan(seed=0))
    enc = Encoder().fit(train_ds, declared)
    x = enc.transform(train_ds)
    config = TrainConfig(seed=0)  # paper-default settings

    base = StructuredModel(graph, enc, total_path_set(graph), seed=0)
    base, _, _ = train(base, train_ds, config, fit_only=True)
    te_before = total_effect(base, train_ds, None, x)

    model = StructuredModel(graph, enc, total_path_set(graph), seed=0)
    model, weights, _ = train(model, train_ds, config)
    te_after = total_effect(model, train_ds, weights.values, x)
    accuracy = downstream_accuracy(train_ds, test_ds, graph.outcome, weights.values, enc)

    passed = (
        abs(te_before - 0.1854) <= 0.06
        and abs(te_after) <= 0.02
        and abs(accuracy * 100 - 81.60) <= 2.5
    )
    report(
        "8",
        passed,
        f"unweighted effect {te_before:.4f} (0.1854 +- 0.06), reweighted "
        f"{te_after:+.4f} (<=0.02), accuracy {accuracy * 100:.2f} (81.60 +- 2.5)",
    )


def test_criterion_9_low_sensitivity_above_moderate_balance(bench, reweighted):
    scm, ds, enc, x = bench
    model_15, weights_15, _ = reweighted
    te_15 = total_effect(model_15, ds, weights_15.values, x)

    model_20 = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=2)
    config = TrainConfig(**TRAIN_SETTINGS, balance=2.0)
    model_20, weights_20, _ = train(model_20, ds, config)
    te_20 = total_effect(model_20, ds, weights_20.values, x)

    gap = abs(abs(te_15) - abs(te_20))
    report(
        "9",
        gap < 0.02,
        f"|effect| at balance 1.5 is {abs(te_15):.4f}, at 2.0 is {abs(te_20):.4f}, "
        f"difference {gap:.4f} (<0.02)",
    )
