import tracemalloc

import numpy as np
import pytest

from fairweigh import model as model_module
from fairweigh import trainer
from fairweigh.autodiff import Tensor, backward
from fairweigh.data import Column, ColumnarDataset, Encoder
from fairweigh.graph import (
    PathSet,
    counterfactual_path_set,
    indirect_path_set,
    parse_graph,
    pi_active_nodes,
    total_path_set,
)
from fairweigh.model import ModelError, Pair, StructuredModel, condition_mask
from fairweigh.nn import Adam, Scratch, finite_difference, layer_sizes, save_params
from fairweigh.synth import benchmark_scm, generate, parse_scm

from conftest import all_groups_checkpoint, every_non_root_store, relative_error

MINIMAL_DOC = """
[nodes]
s categorical 2
y categorical 2
[edges]
s -> y
[roles]
sensitive s
outcome y
"""


def minimal_dataset(m=32, seed=0):
    rng = np.random.default_rng(seed)
    return ColumnarDataset(
        [
            Column("s", "categorical", np.where(rng.random(m) < 0.5, "1", "0")),
            Column("y", "categorical", np.where(rng.random(m) < 0.5, "1", "0")),
        ]
    )


def minimal_model(seed=0, m=32):
    graph = parse_graph(MINIMAL_DOC)
    ds = minimal_dataset(m)
    enc = Encoder().fit(ds)
    model = StructuredModel(graph, enc, total_path_set(graph), seed=seed)
    return model, ds, enc.transform(ds)


def diamond_encoder(m=16):
    rng = np.random.default_rng(0)
    return Encoder().fit(
        ColumnarDataset(
            [
                Column("a", "continuous", rng.normal(size=m)),
                Column("s", "categorical", np.where(rng.random(m) < 0.5, "1", "0")),
                Column("b", "continuous", rng.normal(size=m)),
                Column("y", "categorical", np.where(rng.random(m) < 0.5, "1", "0")),
            ]
        )
    )


def test_sub_networks_exist_only_for_nodes_a_cascade_reads(bench_small, diamond_graph):
    """A sub-network exists for each descendant of the sensitive node that
    the outcome depends on: not for the clamped sensitive node, nor for
    descendants that never reach the outcome (aux1-aux5)."""
    scm, _, _, model = bench_small
    assert model.sub_network_nodes == ("med", "y")
    assert list(model.params.groups) == ["med", "y", "critic"]
    diamond = StructuredModel(diamond_graph, diamond_encoder(), total_path_set(diamond_graph), 0)
    assert diamond.sub_network_nodes == ("b", "y")  # not s, though a -> s
    assert list(diamond.params.groups) == ["b", "y", "critic"]


@pytest.mark.parametrize("which", ["benchmark", "diamond"])
def test_kept_groups_start_from_the_draws_of_every_non_root_group(bench_small, diamond_graph, which):
    """Dropping the unread groups moves no initial value: every kept group,
    the critic included, is byte-equal to the same group of a store that adds
    a group for every non-root node in topological order, then the critic."""
    if which == "benchmark":
        scm, _, enc, _ = bench_small
        graph = scm.graph
    else:
        graph, enc = diamond_graph, diamond_encoder()
    model = StructuredModel(graph, enc, total_path_set(graph), seed=5)
    every = every_non_root_store(model, 5)
    every.add_group("critic", layer_sizes(1, (32, 32, 32), 1), zero_final=True)
    assert set(model.params.groups) < set(every.groups)
    for name, layers in model.params.groups.items():
        expected = [p.data.tobytes() for layer in every.group(name) for p in layer]
        assert [p.data.tobytes() for layer in layers for p in layer] == expected, name


def test_a_graph_with_no_node_to_fit_trains_only_the_critic(no_path_graph):
    """Without a path from the sensitive node to the outcome no cascade reads
    a sub-network: the fit loss is 0 with no gradient, and training runs its
    usual batches and critic steps."""
    rng = np.random.default_rng(2)
    m = 120
    ds = ColumnarDataset(
        [
            Column("a", "continuous", rng.normal(size=m)),
            Column("s", "categorical", np.where(rng.random(m) < 0.5, "1", "0")),
            Column("y", "categorical", np.where(rng.random(m) < 0.4, "1", "0")),
        ]
    )
    enc = Encoder().fit(ds)
    model = StructuredModel(no_path_graph, enc, total_path_set(no_path_graph), seed=1)
    assert model.sub_network_nodes == ()
    assert list(model.params.groups) == ["critic"]
    loss = model.fit_loss(enc.transform(ds), np.ones(m))
    assert float(loss.data) == 0.0 and loss.grads == {}
    config = trainer.TrainConfig(epochs=2, batch_size=40, seed=1, critic_steps_at_weight_solve=3)
    with pytest.warns(UserWarning, match="constant"):
        _, weights, log = trainer.train(model, ds, config)
    assert [record.fit_loss for record in log] == [0.0, 0.0]
    assert np.array_equal(weights.values, np.ones(m))


def test_fresh_logistic_head_outputs_half():
    graph = parse_graph(MINIMAL_DOC)
    ds = minimal_dataset()
    enc = Encoder().fit(ds)
    model = StructuredModel(graph, enc, total_path_set(graph), seed=0)
    # zero out the y sub-network head: constant 0.5 prediction
    w, b = model.params.group("y")[-1]
    w.data = np.zeros_like(w.data)
    b.data = np.zeros_like(b.data)
    x = enc.transform(ds)
    preds = model.predict_observed(x)
    assert np.allclose(preds["y"][:, 1], 0.5)
    assert np.allclose(model.intervene_total(x, 1), 0.5)


def test_fit_loss_zero_weights_and_linearity():
    model, ds, x = minimal_model()
    assert float(model.fit_loss(x, np.zeros(ds.m)).data) == 0.0
    base = float(model.fit_loss(x, np.ones(ds.m)).data)
    w = np.ones(ds.m)
    w[3] = 2.0
    row_loss = float(model.fit_loss(x[3:4], np.ones(1)).data)
    bumped = float(model.fit_loss(x, w).data)
    assert abs((bumped - base) - row_loss / ds.m) < 1e-12


def test_fit_loss_reused_scratch_changes_no_bit(bench_small):
    """One scratch across both sub-networks (med and y), deeper than the
    batch and last used on other rows, gives the loss and gradients of
    fresh arrays."""
    scm, ds, enc, model = bench_small
    assert model.sub_network_nodes == ("med", "y")
    x = enc.transform(ds)
    w = np.random.default_rng(5).uniform(0.5, 2.0, ds.m)
    params = model.params.parameters(model.sub_network_nodes)
    fresh = model.fit_loss(x[:100], w[:100])
    scratch = Scratch(128)
    model.fit_loss(x[200:328], w[200:328], scratch)
    reused = model.fit_loss(x[:100], w[:100], scratch)
    assert reused.data == fresh.data
    for g, r in zip(backward(reused, params), backward(fresh, params)):
        assert np.array_equal(g, r)


def test_fit_loss_rejects_negative_weights():
    model, ds, x = minimal_model()
    bad = np.ones(ds.m)
    bad[0] = -0.5
    with pytest.raises(ModelError, match="negative"):
        model.fit_loss(x, bad)


def test_outcome_net_ignoring_sensitive_gives_equal_arms():
    model, ds, x = minimal_model()
    w, _ = model.params.group("y")[0]
    w.data = np.zeros_like(w.data)  # y ignores its only input block (s)
    plus = model.intervene_total(x, 1)
    minus = model.intervene_total(x, 0)
    assert np.array_equal(plus, minus)


def test_null_effect_graph_gives_exactly_zero(no_path_graph):
    rng = np.random.default_rng(1)
    m = 64
    ds = ColumnarDataset(
        [
            Column("a", "continuous", rng.normal(size=m)),
            Column("s", "categorical", np.where(rng.random(m) < 0.5, "1", "0")),
            Column("y", "categorical", np.where(rng.random(m) < 0.4, "1", "0")),
        ]
    )
    enc = Encoder().fit(ds)
    x = enc.transform(ds)
    model = StructuredModel(no_path_graph, enc, total_path_set(no_path_graph), seed=3)
    assert np.array_equal(model.intervene_total(x, 1), model.intervene_total(x, 0))
    label = ds.column("y").values[0]
    cf = StructuredModel(
        no_path_graph, enc, counterfactual_path_set(no_path_graph, [("y", label)]), seed=3
    )
    plus, minus, rows, _ = cf.interventional_pair(x, cf.pair_mask(ds))
    assert np.array_equal(rows, np.flatnonzero(ds.column("y").values == label))
    assert np.array_equal(plus, minus)


def test_path_specific_collapses_to_total_when_all_edges_selected(bench_small):
    scm, ds, enc, _ = bench_small
    x = enc.transform(ds)
    every_edge = total_path_set(scm.graph).on_pi_edges
    model = StructuredModel(
        scm.graph, enc, PathSet("path_specific", every_edge), seed=11
    )
    lhs = model.intervene_path_specific(x, 1)
    rhs = model.intervene_total(x, 1)
    assert np.array_equal(lhs, rhs)


def test_path_specific_blocks_the_direct_route(diamond_graph):
    """With the mediated route selected, the outcome's direct input from the
    sensitive node stays at the reference clamp even when intervening high."""
    scm_doc = """
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
[functions]
a = normal(0, 1)
s = bernoulli(logistic(0.8*a))
b = normal(0.9*s, 0.5)
y = bernoulli(logistic(1.2*s + 0.7*b + 0.4*a))
"""
    scm = parse_scm(scm_doc, seed=2)
    ds = generate(scm, 256)
    enc = Encoder().fit(ds)
    x = enc.transform(ds)
    pi = indirect_path_set(scm.graph)
    assert pi.on_pi_edges == {("s", "b"), ("b", "y")}
    model = StructuredModel(scm.graph, enc, pi, seed=5)

    # cut the mediator's dependence on the sensitive node: nothing can flow
    # along the selected route, so the path-specific pass must equal the
    # total-mode reference pass bitwise
    s_block = enc.block("s")
    b_inputs = model.params.group("b")[0][0]
    parent_cols = []
    offset = 0
    for parent in scm.graph.parents("b"):
        width = enc.block_width(parent)
        if parent == "s":
            parent_cols = list(range(offset, offset + width))
        offset += width
    b_inputs.data[parent_cols, :] = 0.0
    assert np.array_equal(
        model.intervene_path_specific(x, 1), model.intervene_total(x, 0)
    )


def test_conditioned_mode_matches_total_on_full_match(bench_small):
    scm, ds, enc, _ = bench_small
    x = enc.transform(ds)
    # condition satisfied by every row: x2 takes only two levels; pick rows of one level
    cf = StructuredModel(
        scm.graph, enc, counterfactual_path_set(scm.graph, [("x2", "1")]), seed=7
    )
    mask = cf.pair_mask(ds)
    plus, _, rows, _ = cf.interventional_pair(x, mask)
    assert rows.size == mask.sum() == (ds.column("x2").values == "1").sum()
    assert np.array_equal(plus, cf.intervene_total(x[mask], 1))


def test_conditioned_mode_errors_on_empty_match(bench_small):
    scm, ds, enc, _ = bench_small
    cf = StructuredModel(
        scm.graph, enc, counterfactual_path_set(scm.graph, [("x2", "7")]), seed=7
    )
    with pytest.raises(ModelError, match="no rows match"):
        cf.pair_mask(ds)


def test_counterfactual_pair_needs_the_condition_mask(bench_small):
    scm, ds, enc, _ = bench_small
    cf = StructuredModel(
        scm.graph, enc, counterfactual_path_set(scm.graph, [("x2", "1")]), seed=7
    )
    with pytest.raises(ModelError, match="row mask"):
        cf.interventional_pair(enc.transform(ds))


def test_condition_mask_compares_labels_exactly():
    ds = ColumnarDataset(
        [
            Column("v", "categorical", np.array(["1", "1.0", "0", "1"])),
            Column("w", "categorical", np.array(["a", "a", "a", "b"])),
        ]
    )
    assert condition_mask(ds, [("v", 1)]).tolist() == [True, False, False, True]
    assert condition_mask(ds, [("v", "1"), ("w", "a")]).tolist() == [
        True, False, False, False
    ]


def test_fresh_critic_outputs_zero(bench_small):
    _, ds, enc, model = bench_small
    values = model.critic_values(np.linspace(0, 1, 9))
    assert np.all(values == 0.0)


def test_linear_critic_value():
    from fairweigh.nn import ParamStore, mlp_forward

    store = ParamStore(0)
    store.add_group("lin", [(1, 1)])
    store.group("lin")[0][0].data = np.array([[3.0]])
    out = mlp_forward(store.group("lin"), np.array([[0.2]]), "linear")
    assert np.allclose(out, 0.6)


def test_gradient_penalty_of_identity_and_doubled_critic():
    model, ds, x = minimal_model()
    rng = np.random.default_rng(0)
    y_plus = rng.uniform(0, 1, 16)
    y_minus = rng.uniform(0, 1, 16)
    model.params.groups["critic"] = [(Tensor(np.array([[1.0]])), Tensor(np.zeros(1)))]
    pen = model.gradient_penalty(y_plus, y_minus, np.random.default_rng(1))
    assert abs(float(pen.data)) < 1e-12
    model.params.groups["critic"] = [(Tensor(np.array([[2.0]])), Tensor(np.zeros(1)))]
    pen2 = model.gradient_penalty(y_plus, y_minus, np.random.default_rng(1))
    assert abs(float(pen2.data) - 1.0) < 1e-12


def test_gradient_penalty_parameter_gradient_matches_fd(bench_small):
    scm, ds, enc, _ = bench_small
    model = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=23)
    # random critic (the zero final layer would hide curvature)
    for w, b in model.params.group("critic"):
        w.data = np.random.default_rng(3).normal(0, 0.4, w.data.shape)
    x = enc.transform(ds)[:24]
    y_plus = model.intervene_total(x, 1)
    y_minus = model.intervene_total(x, 0)
    params = model.params.parameters(["critic"])

    def penalty_fn():
        return model.gradient_penalty(y_plus, y_minus, np.random.default_rng(11))

    grads = backward(penalty_fn(), params)
    reference = finite_difference(penalty_fn, params)
    for g, r in zip(grads, reference):
        assert relative_error(g, r) < 1e-4


def count_tensors(monkeypatch) -> list:
    """A list that grows by one for every Tensor built from now on."""
    built = []
    original = Tensor.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    return built


def test_backward_builds_no_tensor(bench_small, monkeypatch):
    """Gradients are plain arrays: differentiating a fit loss and a critic
    loss constructs no Tensor."""
    scm, ds, enc, _ = bench_small
    model = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=23)
    x = enc.transform(ds)[:64]
    weights = np.linspace(0.5, 1.5, 64)
    pair = model.interventional_pair(x)
    critic_loss, _, _ = model.critic_loss(pair, weights / 64, np.random.default_rng(2), 10.0)
    losses = {
        "fit": (model.fit_loss(x, weights), model.params.parameters(model.sub_network_nodes)),
        "critic": (critic_loss, model.params.parameters(["critic"])),
    }
    built = count_tensors(monkeypatch)
    for name, (loss, params) in losses.items():
        grads = backward(loss, params)
        assert all(isinstance(g, np.ndarray) for g in grads), name
        assert [g.shape for g in grads] == [p.data.shape for p in params], name
        assert built == [], name


def test_critic_learns_to_separate_clusters():
    model, ds, x = minimal_model(seed=9)
    rng = np.random.default_rng(4)
    low = rng.normal(0.1, 0.01, 256)
    high = rng.normal(0.9, 0.01, 256)
    params = model.params.parameters(["critic"])
    opt = Adam(params, lr=1e-2)
    gp_rng = np.random.default_rng(5)
    pair = Pair(high, low, np.arange(256), None)
    for _ in range(200):
        loss, _, _ = model.critic_loss(pair, 1.0 / 256, gp_rng, 10.0)
        opt.step(backward(loss, params))
    gap = model.critic_values(high).mean() - model.critic_values(low).mean()
    assert gap >= 0.5


def test_parameter_sharing_between_views(bench_small):
    scm, ds, enc, _ = bench_small
    model = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=29)
    x = enc.transform(ds)
    before = model.intervene_total(x, 1)
    w, _ = model.params.group("y")[0]
    w.data = w.data + 0.25  # an observational-side update is the same storage
    after = model.intervene_total(x, 1)
    assert not np.array_equal(before, after)


def test_categorical_mediator_propagates_probability_vector():
    doc = """
[nodes]
s categorical 2
c categorical 3
y categorical 2
[edges]
s -> c
c -> y
[roles]
sensitive s
outcome y
"""
    graph = parse_graph(doc)
    rng = np.random.default_rng(6)
    m = 48
    ds = ColumnarDataset(
        [
            Column("s", "categorical", np.where(rng.random(m) < 0.5, "1", "0")),
            Column("c", "categorical", rng.choice(["lo", "mid", "hi"], m)),
            Column("y", "categorical", np.where(rng.random(m) < 0.5, "1", "0")),
        ]
    )
    enc = Encoder().fit(ds)
    model = StructuredModel(graph, enc, total_path_set(graph), seed=1)
    x = enc.transform(ds)
    preds = model.predict_observed(x)
    assert preds["c"].shape == (m, 3)
    assert np.allclose(preds["c"].sum(axis=1), 1.0, atol=1e-9)
    assert np.all(preds["c"] >= 0)
    probs = model.intervene_total(x, 1)
    assert np.all((probs >= 0) & (probs <= 1))


def test_binary_roles_and_cardinality_validated(no_path_graph):
    doc = """
[nodes]
s categorical 2
y categorical 3
[edges]
s -> y
[roles]
sensitive s
outcome y
"""
    graph = parse_graph(doc)
    rng = np.random.default_rng(2)
    ds = ColumnarDataset(
        [
            Column("s", "categorical", np.where(rng.random(30) < 0.5, "1", "0")),
            Column("y", "categorical", rng.choice(["a", "b", "c"], 30)),
        ]
    )
    enc = Encoder().fit(ds)
    with pytest.raises(ModelError, match="binary"):
        StructuredModel(graph, enc, PathSet("total"), seed=0)

    # declared cardinality disagreeing with the data is also rejected
    graph2 = parse_graph(MINIMAL_DOC)
    ds2 = minimal_dataset()
    enc2 = Encoder().fit(ds2, {"y": ["0", "1", "2"]})
    with pytest.raises(ModelError, match="levels"):
        StructuredModel(graph2, enc2, total_path_set(graph2), seed=0)


def test_critic_context_must_be_non_descendant(bench_small):
    scm, ds, enc, _ = bench_small
    mode = total_path_set(scm.graph)
    with pytest.raises(ModelError, match="sensitive"):
        StructuredModel(scm.graph, enc, mode, seed=0, critic_context_nodes=("med",))
    model = StructuredModel(
        scm.graph, enc, mode, seed=0, critic_context_nodes=("x1", "x2")
    )
    x = enc.transform(ds)
    pair = model.interventional_pair(x)
    blocks = np.r_[enc.block("x1"), enc.block("x2")]
    assert np.array_equal(pair.context, x[:, blocks])
    values = model.critic_values(pair.y_plus, pair.context)
    assert values.shape == (ds.m,)
    rows = np.arange(ds.m) % 3 == 0
    assert np.array_equal(model.interventional_pair(x, rows).context, x[rows][:, blocks])


def test_checkpoint_refuses_other_graph(tmp_path, bench_small, no_path_graph):
    scm, ds, enc, model = bench_small
    path = tmp_path / "ck.npz"
    model.save(path)
    rng = np.random.default_rng(0)
    other_ds = ColumnarDataset(
        [
            Column("a", "continuous", rng.normal(size=16)),
            Column("s", "categorical", np.where(rng.random(16) < 0.5, "1", "0")),
            Column("y", "categorical", np.where(rng.random(16) < 0.5, "1", "0")),
        ]
    )
    other = StructuredModel(
        no_path_graph, Encoder().fit(other_ds), total_path_set(no_path_graph), seed=0
    )
    with pytest.raises(ModelError, match="different graph"):
        other.restore(path)


PAIR_MODES = {
    "total": total_path_set,
    "path_specific": indirect_path_set,
    "counterfactual": lambda graph: counterfactual_path_set(graph, [("x2", "1")]),
}


@pytest.mark.parametrize(
    "saved, restored, expected",
    [
        ("total", "path_specific", "written for total mode .* in path_specific mode"),
        ("path_specific", "total", "written for path_specific mode .* in total mode"),
        ("counterfactual", "total", "written for counterfactual mode .* in total mode"),
        ("counterfactual", "x2=0", r"\[\['x2', '1'\]\]\).* \[\['x2', '0'\]\]\)"),
    ],
    ids=["total-as-path_specific", "path_specific-as-total", "counterfactual-as-total",
         "other-condition"],
)
def test_checkpoint_refuses_other_fairness_mode(tmp_path, bench_small, saved, restored, expected):
    """A critic trained on another contrast does not restore silently, and
    the refused checkpoint changes no parameter."""
    scm, _, enc, _ = bench_small
    modes = {**PAIR_MODES, "x2=0": lambda graph: counterfactual_path_set(graph, [("x2", "0")])}
    path = tmp_path / "ck.npz"
    StructuredModel(scm.graph, enc, modes[saved](scm.graph), seed=0).save(path)
    other = StructuredModel(scm.graph, enc, modes[restored](scm.graph), seed=1)
    before = other.params.snapshot()
    with pytest.raises(ModelError, match=expected):
        other.restore(path)
    after = other.params.snapshot()
    assert all(np.array_equal(a, b) for name in before for a, b in zip(before[name], after[name]))
    StructuredModel(scm.graph, enc, modes[saved](scm.graph), seed=1).restore(path)


def test_a_checkpoint_with_sub_networks_this_model_does_not_fit_is_refused(
    tmp_path, bench_small
):
    scm, _, enc, _ = bench_small
    model = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=1)
    path = tmp_path / "ck.npz"
    all_groups_checkpoint(model, path)
    before = model.params.snapshot()
    with pytest.raises(
        ModelError,
        match=r"holds sub-networks this model does not fit \(aux1, aux2, aux3, aux4, aux5, s\)",
    ):
        model.restore(path)
    after = model.params.snapshot()
    assert all(np.array_equal(a, b) for name in before for a, b in zip(before[name], after[name]))


TWO_CONDITION_DOC = """
[nodes]
a categorical 2
b categorical 2
s categorical 2
y categorical 2
[edges]
a -> s
b -> s
a -> y
b -> y
s -> y
[roles]
sensitive s
outcome y
"""


def test_checkpoint_condition_pairs_restore_in_any_order(tmp_path):
    graph = parse_graph(TWO_CONDITION_DOC)
    rng = np.random.default_rng(0)
    enc = Encoder().fit(
        ColumnarDataset(
            [Column(n, "categorical", np.where(rng.random(32) < 0.5, "1", "0")) for n in "absy"]
        )
    )
    path = tmp_path / "ck.npz"
    saved = [("a", "1"), ("b", "0")]
    StructuredModel(graph, enc, counterfactual_path_set(graph, saved), seed=0).save(path)
    for condition in (saved, saved[::-1]):
        model = StructuredModel(graph, enc, counterfactual_path_set(graph, condition), seed=1)
        model.restore(path)
        assert model.params.group("critic")[0][0].data.tobytes() == (
            StructuredModel(graph, enc, counterfactual_path_set(graph, saved), seed=0)
            .params.group("critic")[0][0].data.tobytes()
        )
    other = StructuredModel(graph, enc, counterfactual_path_set(graph, [("a", "1")]), seed=1)
    with pytest.raises(ModelError, match="written for counterfactual mode"):
        other.restore(path)


@pytest.mark.parametrize("stored", ["total", ["total"], None, {"mode": "total"}])
def test_checkpoint_with_a_malformed_mode_header_is_refused(tmp_path, bench_small, stored):
    """A hand-made header whose mode is no mode header is a mismatch, not a crash."""
    scm, _, enc, model = bench_small
    path = tmp_path / "ck.npz"
    meta = {"graph": model_module.graph_fingerprint(scm.graph), "mode": stored}
    save_params(model.params, path, meta)
    fresh = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=1)
    with pytest.raises(ModelError, match="written for .* mode"):
        fresh.restore(path)


def reference_pair(model, ds, x):
    """The pair and its rows from the per-mode public cascades, one clamp
    per call."""
    if model.mode.mode == "total":
        return model.intervene_total(x, 1), model.intervene_total(x, 0), np.arange(ds.m)
    if model.mode.mode == "path_specific":
        plus = model.intervene_path_specific(x, 1)
        return plus, model.intervene_total(x, 0), np.arange(ds.m)
    mask = condition_mask(ds, model.mode.condition)
    plus = model.intervene_total(x[mask], 1)
    return plus, model.intervene_total(x[mask], 0), np.flatnonzero(mask)


@pytest.mark.parametrize("mode", sorted(PAIR_MODES))
def test_interventional_pair_matches_per_clamp_cascades_bitwise(bench_small, mode):
    scm, ds, enc, _ = bench_small
    model = StructuredModel(scm.graph, enc, PAIR_MODES[mode](scm.graph), seed=13)
    x = enc.transform(ds)
    y_plus, y_minus, rows, context = model.interventional_pair(x, model.pair_mask(ds))
    ref_plus, ref_minus, ref_rows = reference_pair(model, ds, x)
    assert np.array_equal(y_plus, ref_plus)
    assert np.array_equal(y_minus, ref_minus)
    assert np.array_equal(rows, ref_rows)
    assert context is None
    assert mode == "total" or not np.array_equal(y_plus, model.intervene_total(x, 1))


@pytest.mark.parametrize("mode", sorted(PAIR_MODES))
def test_split_mask_sliced_per_batch_matches_batch_matching(bench_small, mode):
    scm, ds, enc, _ = bench_small
    model = StructuredModel(scm.graph, enc, PAIR_MODES[mode](scm.graph), seed=13)
    x = enc.transform(ds)
    split_mask = model.pair_mask(ds)
    assert (split_mask is None) == (mode != "counterfactual")
    rng = np.random.default_rng(4)
    for _ in range(5):
        idx = rng.choice(ds.m, size=64, replace=False)
        batch = ds.take(idx)
        if split_mask is not None:
            assert np.array_equal(
                split_mask[idx], condition_mask(batch, model.mode.condition)
            )
        sliced = model.interventional_pair(
            x[idx], mask=None if split_mask is None else split_mask[idx]
        )
        matched = model.interventional_pair(x[idx], model.pair_mask(batch))
        for a, b in zip(sliced, matched):
            assert (a is None and b is None) or np.array_equal(a, b)


def test_explicit_mask_matching_no_row_gives_an_empty_pair(bench_small):
    scm, ds, enc, _ = bench_small
    model = StructuredModel(scm.graph, enc, PAIR_MODES["counterfactual"](scm.graph), seed=13)
    x = enc.transform(ds)[:8]
    y_plus, y_minus, rows, _ = model.interventional_pair(x, mask=np.zeros(8, dtype=bool))
    assert y_plus.shape == y_minus.shape == rows.shape == (0,)


def full_descendant_pair(model, x):
    """Both arms of the pair from cascades that recompute every descendant
    of the sensitive node, whether or not it can reach the outcome.  A
    descendant without a sub-network gets a block of NaN, which would reach
    the outcome if the outcome depended on it."""
    graph = model.graph
    descendants = graph.descendants(graph.sensitive)

    def recompute(values, name, inputs):
        if name not in model.params.groups:
            values[name] = np.full((x.shape[0], model.encoder.block_width(name)), np.nan)
            return
        values[name] = model._block_repr(name, model._node_output(name, model._join(inputs)))

    def clamped(s_value):
        values = {}
        for name in graph.topo_order:
            if name == graph.sensitive:
                values[name] = model._clamped_block(x.shape[0], s_value)
            elif name in descendants:
                recompute(values, name, [values[p] for p in graph.parents(name)])
            else:
                values[name] = x[:, model.encoder.block(name)]
        return values

    def outcome(values):
        return values[graph.outcome][:, 1]

    if model.mode.mode == "total":
        return outcome(clamped(1.0)), outcome(clamped(0.0))
    reference = clamped(0.0)
    active = pi_active_nodes(graph, model.mode)
    inter = {}
    for name in graph.topo_order:
        if name == graph.sensitive:
            inter[name] = model._clamped_block(x.shape[0], 1.0)
        elif name in active:
            inputs = [
                inter[p] if (p, name) in model.mode.on_pi_edges else reference[p]
                for p in graph.parents(name)
            ]
            recompute(inter, name, inputs)
        else:
            inter[name] = reference[name]
    return outcome(inter), outcome(reference)


@pytest.mark.parametrize("mode", ["path_specific", "total"])
def test_pair_equals_full_descendant_cascades_bitwise(bench_small, mode):
    scm, ds, enc, _ = bench_small
    model = StructuredModel(scm.graph, enc, PAIR_MODES[mode](scm.graph), seed=13)
    assert {"aux1", "aux5"}.isdisjoint(model.params.groups)  # NaN blocks below
    x = enc.transform(ds)
    y_plus, y_minus, _, _ = model.interventional_pair(x)
    ref_plus, ref_minus = full_descendant_pair(model, x)
    assert np.array_equal(y_plus, ref_plus)
    assert np.array_equal(y_minus, ref_minus)


def test_clamped_cascade_runs_only_the_outcome_ancestors(bench_small, monkeypatch):
    """On the benchmark SCM only ``med`` and ``y`` can reach the outcome;
    aux1-aux5 descend from the sensitive node but are never run."""
    scm, ds, enc, model = bench_small
    calls = []
    original = model_module.mlp_forward

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(model_module, "mlp_forward", counted)
    model.intervene_total(enc.transform(ds), 1)
    assert len(calls) == 2


@pytest.mark.parametrize("mode", sorted(PAIR_MODES))
def test_fit_loss_and_pair_build_at_most_one_tensor(bench_small, monkeypatch, mode):
    """Nothing records a computation: the fit loss is the one Tensor its
    step builds, and the interventional pair builds none."""
    scm, ds, enc, _ = bench_small
    model = StructuredModel(
        scm.graph, enc, PAIR_MODES[mode](scm.graph), seed=23, critic_context_nodes=("x1",)
    )
    x = enc.transform(ds)
    built = count_tensors(monkeypatch)
    model.fit_loss(x, np.ones(ds.m))
    assert len(built) == 1
    model.interventional_pair(x, model.pair_mask(ds))
    assert len(built) == 1


@pytest.fixture(scope="module")
def bench_50k():
    scm = benchmark_scm(seed=3)
    return scm, generate(scm, 50_000)


@pytest.mark.parametrize("mode", sorted(PAIR_MODES))
def test_full_split_passes_hold_one_row_block_at_a_time(bench_50k, mode):
    """The full-split pair and the critic gap run their forwards in row
    blocks: at 50k rows they allocate at most 12 MB at once (6-9 MB), where
    holding every row's activations took 17-42 MB."""
    scm, ds = bench_50k
    model = StructuredModel(
        scm.graph, Encoder().fit(ds), PAIR_MODES[mode](scm.graph), seed=3,
        critic_context_nodes=("x1",),
    )
    loop = trainer._Loop(model, ds, trainer.TrainConfig(seed=3))
    tracemalloc.start()
    try:
        loop._critic_gap(loop.full_split_pair())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
