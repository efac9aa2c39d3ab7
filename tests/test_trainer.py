import copy
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fairweigh import trainer
from fairweigh.autodiff import Tensor, backward
from fairweigh.data import Column, ColumnarDataset, Encoder, SplitPlan, split
from fairweigh.effects import discriminator_gap, estimate_effect
from fairweigh.graph import counterfactual_path_set, indirect_path_set, total_path_set
from fairweigh.model import StructuredModel
from fairweigh.nn import Adam, Scratch
from fairweigh.reweighter import SolverError
from fairweigh.synth import benchmark_scm, generate, parse_scm
from fairweigh.trainer import (
    TrainConfig,
    TrainingError,
    _Loop,
    progress,
    repeat_protocol,
    train,
    write_log,
)

from conftest import reference_cascade

FAST = dict(epochs=3, batch_size=64, eta0=0.02, critic_steps_at_weight_solve=5)


def small_setup(n=256, seed=0, **config):
    scm = benchmark_scm(seed=seed)
    ds = generate(scm, n)
    enc = Encoder().fit(ds)
    cfg = TrainConfig(**{**FAST, "seed": seed, **config})
    model = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=cfg.seed)
    return scm, ds, enc, model, cfg


def splits_of(ds, seed, repeats, declared_levels=None):
    """The protocol's splits of ``ds``: the run config's train fraction, one
    repetition index each."""
    return [split(ds, SplitPlan(seed, repetition_index=r), declared_levels) for r in range(repeats)]


def test_progress_contract():
    assert progress(0, 10) == 0.0
    assert progress(10, 10) == 1.0
    assert progress(5, 10) == 0.5
    with pytest.raises(ValueError):
        progress(11, 10)
    with pytest.raises(ValueError):
        progress(-1, 10)


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 1.5), ("seed", -1), ("batch_size", True), ("momentum", 1.0),
     ("momentum", "0.9"), ("hidden", (32, 0)), ("critic_hidden", "32")],
)
def test_train_config_checks_every_field_against_its_rule(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        TrainConfig(**{field: value})


def test_train_config_holds_layer_widths_as_tuples():
    config = TrainConfig(hidden=[8], critic_hidden=[4, 4])
    assert config.hidden == (8,) and config.critic_hidden == (4, 4)
    assert replace(config, seed=1).hidden == (8,)


def test_batch_size_cannot_exceed_samples():
    scm, ds, enc, model, _ = small_setup(n=32)
    cfg = TrainConfig(epochs=1, batch_size=64)
    with pytest.raises(TrainingError, match="batch size"):
        train(model, ds, cfg)


def test_no_effect_path_keeps_unit_weights(no_path_graph):
    rng = np.random.default_rng(0)
    m = 200
    ds = ColumnarDataset(
        [
            Column("a", "continuous", rng.normal(size=m)),
            Column("s", "categorical", np.where(rng.random(m) < 0.5, "1", "0")),
            Column("y", "categorical", np.where(rng.random(m) < 0.4, "1", "0")),
        ]
    )
    enc = Encoder().fit(ds)
    model = StructuredModel(no_path_graph, enc, total_path_set(no_path_graph), seed=1)
    cfg = TrainConfig(epochs=3, batch_size=50, seed=1, critic_steps_at_weight_solve=5)
    model, wv, log = train(model, ds, cfg)
    assert np.max(np.abs(wv.values - 1.0)) <= 1e-6
    assert all(record.effect == 0.0 for record in log)


def test_training_is_bitwise_deterministic():
    _, ds, enc, model1, cfg = small_setup(seed=5)
    _, wv1, log1 = train(model1, ds, cfg)
    scm, _, _, model2, _ = small_setup(seed=5)
    _, wv2, log2 = train(model2, ds, cfg)
    assert np.array_equal(wv1.values, wv2.values)
    assert [r.fit_loss for r in log1] == [r.fit_loss for r in log2]
    assert [r.effect for r in log1] == [r.effect for r in log2]
    for name in model1.params.groups:
        for (w1, b1), (w2, b2) in zip(
            model1.params.group(name), model2.params.group(name)
        ):
            assert np.array_equal(w1.data, w2.data)


def test_vanishing_balance_reduces_to_plain_fitting():
    _, ds, enc, model, _ = small_setup(seed=3)
    cfg = TrainConfig(**{**FAST, "seed": 3, "balance": 1e-10})
    model, wv, _ = train(model, ds, cfg)
    bound = np.sqrt(1e-10 * ds.m)
    assert np.max(np.abs(wv.values - 1.0)) <= bound


def test_weight_invariants_hold_every_epoch():
    scm, ds, enc, model, cfg = small_setup(seed=2, epochs=4)
    model, wv, log = train(model, ds, cfg)
    # the returned vector already passed WeightVector validation; check the
    # recorded deviation as well
    for record in log:
        assert record.weight_deviation <= cfg.balance * ds.m + 1e-9 * ds.m


def test_weighted_critic_objective_with_unit_weights_matches_unweighted():
    scm, ds, enc, model, _ = small_setup(seed=7)
    x = enc.transform(ds)
    y_plus = model.intervene_total(x, 1)
    y_minus = model.intervene_total(x, 0)
    for w, b in model.params.group("critic"):
        w.data = np.random.default_rng(1).normal(0, 0.3, w.data.shape)
    gap = model.critic_values(y_plus) - model.critic_values(y_minus)
    weighted = float(np.ones(ds.m) @ gap) / ds.m
    unweighted = float(gap.mean())
    assert weighted == pytest.approx(unweighted, abs=1e-15)


def test_nan_divergence_aborts_with_rollback():
    for fit_only in (False, True):
        scm, ds, enc, model, _ = small_setup(seed=4)
        cfg = TrainConfig(epochs=3, batch_size=64, eta0=1e160, seed=4)
        before = {
            name: [p.data.copy() for layer in model.params.group(name) for p in layer]
            for name in model.params.groups
        }
        with np.errstate(over="ignore"), pytest.raises(TrainingError, match="non-finite"):
            train(model, ds, cfg, fit_only=fit_only)
        for name, arrays in before.items():
            restored = [p.data for layer in model.params.group(name) for p in layer]
            for a, b in zip(arrays, restored):
                assert np.all(np.isfinite(b))


def test_write_log_round_trips(tmp_path):
    scm, ds, enc, model, cfg = small_setup(seed=6, epochs=2)
    _, _, log = train(model, ds, cfg)
    path = tmp_path / "log.jsonl"
    write_log(log, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert [p["epoch"] for p in parsed] == [0, 1]
    assert all("fit_loss" in p and "effect" in p for p in parsed)


def test_repeat_protocol_single_repetition_reports_zero_std():
    scm = benchmark_scm(seed=9)
    ds = generate(scm, 300)
    cfg = TrainConfig(**{**FAST, "seed": 9})
    report, artifacts = repeat_protocol(
        splits_of(ds, 9, 1), scm.graph, total_path_set(scm.graph), cfg, compute_wasserstein=False
    )
    assert report.effect.std == 0.0
    assert len(artifacts) == 1
    assert report.accuracy is not None


def test_repeat_protocol_constant_outcome_has_zero_metric_spread():
    doc = """
[nodes]
a continuous
s categorical 2
y categorical 2
[edges]
a -> s
s -> y
[roles]
sensitive s
outcome y
[functions]
a = normal(0, 1)
s = bernoulli(logistic(0.5*a))
y = bernoulli(1.0)
"""
    scm = parse_scm(doc, seed=10)
    ds = generate(scm, 240)
    assert set(ds.column("y").values.tolist()) == {"1"}
    cfg = TrainConfig(**{**FAST, "seed": 10})
    splits = splits_of(ds, 10, 3, {"y": ["0", "1"], "s": ["0", "1"]})
    report, _ = repeat_protocol(
        splits, scm.graph, total_path_set(scm.graph), cfg, compute_wasserstein=False
    )
    assert report.accuracy.std == 0.0 and report.accuracy.mean == 1.0
    assert report.parity.std == 0.0 and report.parity.mean == 0.0


def test_training_with_critic_context_nodes():
    scm = benchmark_scm(seed=15)
    ds = generate(scm, 200)
    enc = Encoder().fit(ds)
    from fairweigh.graph import counterfactual_path_set

    mode = counterfactual_path_set(scm.graph, [("x2", "1")])
    cfg = TrainConfig(epochs=2, batch_size=50, seed=15, critic_steps_at_weight_solve=3)
    model = StructuredModel(
        scm.graph, enc, mode, seed=15, critic_context_nodes=("x1", "x2")
    )
    model, wv, log = train(model, ds, cfg)
    matched = (ds.column("x2").values == "1")
    assert np.all(wv.values[~matched] == 1.0)  # untouched outside the condition
    assert len(log) == 2


def test_top_weights_favour_intervention_insensitive_rows():
    """The highest-weighted decile should concentrate on rows whose outcome
    the intervention barely moves (known by construction in the benchmark)."""
    from fairweigh.synth import _draw_noise

    scm = benchmark_scm(seed=21)
    n = 4000
    ds = generate(scm, n)
    enc = Encoder().fit(ds)
    model = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=21)
    cfg = TrainConfig(
        epochs=8, batch_size=400, eta0=0.02, seed=21, critic_steps_at_weight_solve=25
    )
    model, wv, _ = train(model, ds, cfg)

    # ground-truth row sensitivity from the generating mechanisms
    rng = np.random.default_rng(scm.seed)
    noise = _draw_noise(scm, n, rng)
    _, p_plus = reference_cascade(scm, noise, n, do_sensitive=1.0)
    _, p_minus = reference_cascade(scm, noise, n, do_sensitive=0.0)
    sensitivity = np.abs(p_plus - p_minus)

    decile = np.argsort(-wv.values)[: n // 10]
    assert sensitivity[decile].mean() < 0.5 * sensitivity.mean()


def test_repeat_protocol_varies_split_per_repetition():
    scm = benchmark_scm(seed=12)
    ds = generate(scm, 300)
    cfg = TrainConfig(**{**FAST, "seed": 12})
    splits = splits_of(ds, 12, 2)
    report, artifacts = repeat_protocol(
        splits, scm.graph, total_path_set(scm.graph), cfg, compute_wasserstein=False
    )
    assert not np.array_equal(splits[0].train_rows, splits[1].train_rows)
    for part, art in zip(splits, artifacts):  # repetition r trains on splits[r]
        assert art["model"].encoder is part.encoder
        assert art["weights"].size == part.train.m == 240
    assert len(report.effect.values) == 2


MODES = {
    "total": (total_path_set, ()),
    "path_specific": (indirect_path_set, ()),
    "counterfactual": (
        lambda graph: counterfactual_path_set(graph, [("x2", "1")]),
        ("x1", "x2"),
    ),
}


def mode_setup(mode, n=400, seed=8, **config):
    scm = benchmark_scm(seed=seed)
    ds = generate(scm, n)
    enc = Encoder().fit(ds)
    path_set, context_nodes = MODES[mode]
    cfg = TrainConfig(**{**FAST, "seed": seed, **config})
    model = StructuredModel(
        scm.graph, enc, path_set(scm.graph), seed=seed, critic_context_nodes=context_nodes
    )
    return ds, enc, model, cfg


@pytest.mark.parametrize("mode", sorted(MODES))
def test_one_fit_only_epoch_fits_as_train_does_and_leaves_the_critic(mode):
    """An epoch's fit steps see unit weights until its weight solve, so at one
    epoch the fit-only path fits the same parameters bit for bit; it takes no
    critic step and returns weights of exactly one."""
    ds, _, trained, cfg = mode_setup(mode, epochs=1)
    _, _, fitted, _ = mode_setup(mode, epochs=1)
    initial_critic = [p.data.copy() for p in fitted.params.parameters(["critic"])]
    train(trained, ds, cfg)
    _, wv, log = train(fitted, ds, cfg, fit_only=True)
    nodes = fitted.sub_network_nodes
    assert nodes
    for a, b in zip(trained.params.parameters(nodes), fitted.params.parameters(nodes)):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(initial_critic, fitted.params.parameters(["critic"])):
        assert np.array_equal(a, b.data)
    assert np.array_equal(wv.values, np.ones(ds.m))
    (record,) = log
    assert np.isfinite(record.fit_loss) and record.wall_time > 0
    assert record.weight_deviation == 0.0
    assert all(
        np.isnan(value)
        for value in (record.critic_objective, record.gradient_penalty, record.effect,
                      record.critic_gap)
    )


def test_fit_only_runs_no_critic_step_pair_or_solve(monkeypatch):
    _, ds, _, model, cfg = small_setup(seed=6)

    def forbidden(*args, **kwargs):
        raise AssertionError("fit-only training ran adversarial work")

    for name in ("critic_step", "batch_pair", "full_split_pair", "orient_critic"):
        monkeypatch.setattr(_Loop, name, forbidden)
    monkeypatch.setattr(trainer, "solve_weights", forbidden)
    monkeypatch.setattr(trainer, "estimate_effect", forbidden)
    _, wv, log = train(model, ds, cfg, fit_only=True)
    assert len(log) == cfg.epochs and np.array_equal(wv.values, np.ones(ds.m))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_refinement_batch_sliced_from_full_pair_matches_recomputation(mode):
    ds, enc, model, cfg = mode_setup(mode)
    train(model, ds, replace(cfg, epochs=1))  # non-trivial fit and critic parameters
    loop = _Loop(model, ds, cfg)
    full = loop.full_split_pair()
    rng = np.random.default_rng(0)
    for _ in range(5):
        idx = rng.choice(ds.m, size=cfg.batch_size, replace=False)
        sliced = loop.refine_pair(full, idx)
        batch = model.interventional_pair(loop.x[idx], model.pair_mask(ds.take(idx)))
        rows = idx[batch.rows]
        assert np.array_equal(sliced.rows, rows)
        np.testing.assert_allclose(sliced.y_plus, batch.y_plus, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sliced.y_minus, batch.y_minus, rtol=0, atol=1e-12)
        if model.critic_context_nodes:
            assert np.array_equal(sliced.context, batch.context)
        else:
            assert sliced.context is None
        recomputed = loop.batch_pair(idx)
        assert np.array_equal(recomputed.rows, rows)
        np.testing.assert_allclose(recomputed.y_plus, sliced.y_plus, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_critic_step_logs_and_applies_its_loss(mode):
    """A critic step logs the weighted gap of two plain critic forwards and
    the penalty at the interpolates it draws, and takes the Adam step of the
    gradient of its closed-form loss, weighting each row by weight / rows."""
    ds, enc, model, cfg = mode_setup(mode)
    train(model, ds, replace(cfg, epochs=1))  # non-trivial fit and critic parameters
    loop = _Loop(model, ds, cfg)
    loop.weights = np.random.default_rng(3).uniform(0.2, 2.0, ds.m)
    pair = loop.batch_pair(np.random.default_rng(4).choice(ds.m, cfg.batch_size, replace=False))
    params = model.params.parameters(["critic"])
    gap = model.critic_values(pair.y_plus, pair.context) - model.critic_values(
        pair.y_minus, pair.context
    )
    objective = float(np.mean(loop.weights[pair.rows] * gap))
    rng = copy.deepcopy(loop.penalty_rng)
    penalty = model.gradient_penalty(pair.y_plus, pair.y_minus, copy.deepcopy(rng), pair.context)
    coef = loop.weights[pair.rows] / pair.rows.size
    loss, _, _ = model.critic_loss(pair, coef, rng, cfg.penalty_coef)
    expected = [Tensor(p.data.copy()) for p in params]
    Adam(expected, cfg.critic_lr).step(backward(loss, params))

    loop.critic_step(pair, Scratch(cfg.batch_size))
    assert abs(loop.last_critic_objective - objective) <= 1e-12 * abs(objective)
    assert loop.last_penalty == float(penalty.data)
    for p, e in zip(params, expected):
        assert np.array_equal(p.data, e.data)


def test_a_further_critic_step_allocates_under_a_megabyte():
    """Critic steps write their row-sized arrays into the loop's scratch,
    sized by the batch: after a first step, even one on fewer rows than the
    batch of 640 as a counterfactual batch may hold, further steps on 640 rows
    or fewer allocate less than 1 MB (about 4.3 MB when every step allocated
    its own)."""
    scm = benchmark_scm(seed=3)
    ds = generate(scm, 1000)
    model = StructuredModel(scm.graph, Encoder().fit(ds), total_path_set(scm.graph), seed=3)
    loop = _Loop(model, ds, TrainConfig(seed=3))
    full, part = loop.batch_pair(np.arange(640)), loop.batch_pair(np.arange(300))
    scratch = Scratch(640)
    tracemalloc.start()
    try:
        loop.critic_step(part, scratch)
        for pair in (full, part, full):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loop.critic_step(pair, scratch)
            assert tracemalloc.get_traced_memory()[1] - before < 1_000_000
    finally:
        tracemalloc.stop()


def test_a_further_fit_step_allocates_under_a_megabyte():
    """Fit steps share the loop's scratch with the critic steps: after a
    first step, further ones on 640 rows or fewer allocate less than 0.8 MB
    at once (about 0.45 MB; 1.5 MB when every sub-network's forward and
    backward allocated their own)."""
    scm = benchmark_scm(seed=3)
    ds = generate(scm, 1000)
    model = StructuredModel(scm.graph, Encoder().fit(ds), total_path_set(scm.graph), seed=3)
    loop = _Loop(model, ds, TrainConfig(seed=3))
    scratch = Scratch(640)
    tracemalloc.start()
    try:
        loop.fit_step(np.arange(300), scratch)
        for rows in (640, 300, 640):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loop.fit_step(np.arange(rows), scratch)
            assert tracemalloc.get_traced_memory()[1] - before < 800_000
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_logged_effect_reuses_the_full_pair(mode):
    ds, enc, model, cfg = mode_setup(mode, epochs=2)
    model, wv, log = train(model, ds, cfg)
    expected = estimate_effect(model, ds, x=enc.transform(ds), weights=wv.values)
    assert log[-1].effect == pytest.approx(expected, rel=0, abs=1e-12)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_logged_critic_gap_is_the_discriminator_gap_of_the_final_weights(mode):
    """The epoch's critic gap comes from the weight solve's critic read-outs,
    bit-equal to recomputing the full-split pair in ``discriminator_gap``."""
    ds, enc, model, cfg = mode_setup(mode, epochs=2)
    model, wv, log = train(model, ds, cfg)
    gap = discriminator_gap(model, ds, wv.values)
    assert gap != 0.0 and log[-1].critic_gap == gap


def test_repeat_protocol_reports_the_logged_gap_and_runs_one_full_pair(monkeypatch):
    scm = benchmark_scm(seed=9)
    ds = generate(scm, 300)
    cfg = TrainConfig(**{**FAST, "seed": 9})
    calls = []
    original = StructuredModel.interventional_pair

    def counted(model, x, mask=None):
        calls.append(x.shape[0])
        return original(model, x, mask)

    monkeypatch.setattr(StructuredModel, "interventional_pair", counted)
    (part,) = splits_of(ds, 9, 1)
    report, artifacts = repeat_protocol(
        [part], scm.graph, total_path_set(scm.graph), cfg, compute_wasserstein=False
    )
    art = artifacts[0]
    assert report.critic_gap.values == (art["log"][-1].critic_gap,)
    assert calls.count(part.train.m) == cfg.epochs  # one full-split pair per epoch
    monkeypatch.undo()
    assert report.critic_gap.mean == discriminator_gap(art["model"], part.train, art["weights"])


def test_repeat_protocol_warns_on_a_degenerate_critic(no_path_graph):
    """Without a path to the outcome the arms are equal, the critic stays
    constant, and the reported gap is 0 with the diagnostic's warning."""
    rng = np.random.default_rng(3)
    m = 200
    ds = ColumnarDataset(
        [
            Column("a", "continuous", rng.normal(size=m)),
            Column("s", "categorical", np.where(rng.random(m) < 0.5, "1", "0")),
            Column("y", "categorical", np.where(rng.random(m) < 0.4, "1", "0")),
        ]
    )
    cfg = TrainConfig(epochs=2, batch_size=50, seed=1, critic_steps_at_weight_solve=3)
    with pytest.warns(UserWarning, match="critic output is constant"):
        report, _ = repeat_protocol(
            splits_of(ds, 1, 1), no_path_graph, total_path_set(no_path_graph), cfg,
            compute_wasserstein=False,
        )
    assert report.critic_gap.values == (0.0,)


def test_repeat_protocol_refuses_an_empty_list_of_splits():
    scm = benchmark_scm(seed=9)
    with pytest.raises(ValueError, match="at least one split"):
        repeat_protocol([], scm.graph, total_path_set(scm.graph), TrainConfig(**FAST))


def test_failed_weight_solve_rolls_back_to_epoch_boundary(monkeypatch):
    _, ds, enc, model, cfg = small_setup(seed=4)
    real_solve = trainer.solve_weights
    boundary = []

    def solve_then_fail(d, balance):
        if boundary:
            assert not params_equal(model.params.snapshot(), boundary[0])
            raise SolverError("projection input contains non-finite entries")
        # parameters do not change between this call and the epoch boundary
        boundary.append(model.params.snapshot())
        return real_solve(d, balance)

    monkeypatch.setattr(trainer, "solve_weights", solve_then_fail)
    with pytest.raises(TrainingError, match="non-finite entries") as info:
        train(model, ds, cfg)
    assert info.value.epoch == 1
    assert params_equal(model.params.snapshot(), boundary[0])


def params_equal(a, b):
    return a.keys() == b.keys() and all(
        np.array_equal(x, y) for name in a for x, y in zip(a[name], b[name])
    )
