import numpy as np
import pytest

from fairweigh import effects
from fairweigh.data import Column, ColumnarDataset, DataError, Encoder, Split
from fairweigh.effects import (
    discriminator_gap,
    downstream_accuracy,
    estimate_effect,
    statistical_parity,
    wasserstein_distance,
    wasserstein_estimate,
)
from fairweigh.graph import PathSet, counterfactual_path_set, total_path_set
from fairweigh.model import Pair, StructuredModel


def clamped_contrast(model, x, w):
    """The total contrast computed by hand from the model's two clamps."""
    omega = w / w.sum()
    return float(omega @ model.intervene_total(x, 1) - omega @ model.intervene_total(x, 0))


def test_total_effect_weight_rescaling_invariance(bench_small):
    scm, ds, enc, model = bench_small
    x = enc.transform(ds)
    rng = np.random.default_rng(0)
    w = rng.uniform(0.2, 3.0, ds.m)
    base = estimate_effect(model, ds, x=x, weights=w)
    for c in (0.01, 7.0):
        rescaled = estimate_effect(model, ds, x=x, weights=c * w)
        assert rescaled == pytest.approx(base, abs=1e-12)


def test_total_equals_path_specific_on_all_edges(bench_small):
    scm, ds, enc, _ = bench_small
    x = enc.transform(ds)
    every = total_path_set(scm.graph).on_pi_edges
    model = StructuredModel(scm.graph, enc, PathSet("path_specific", every), seed=13)
    w = np.random.default_rng(1).uniform(0.5, 2.0, ds.m)
    assert estimate_effect(model, ds, x=x, weights=w) == clamped_contrast(model, x, w)


def test_counterfactual_matching_everything_equals_total(bench_small):
    scm, ds, enc, _ = bench_small
    x = enc.transform(ds)
    # a condition on both levels covers every row only if we merge two runs;
    # instead check the subgroup estimate directly against a hand computation
    cf = StructuredModel(
        scm.graph, enc, counterfactual_path_set(scm.graph, [("x2", "0")]), seed=13
    )
    mask = ds.column("x2").values == "0"
    w = np.random.default_rng(2).uniform(0.5, 2.0, ds.m)
    assert estimate_effect(cf, ds, x=x, weights=w) == pytest.approx(
        clamped_contrast(cf, x[mask], w[mask]), abs=1e-12
    )


def test_estimate_effect_dispatches_by_mode(bench_small):
    scm, ds, enc, model = bench_small
    x = enc.transform(ds)
    assert estimate_effect(model, ds, x=x) == clamped_contrast(model, x, np.ones(ds.m))
    with pytest.raises(TypeError):  # x, weights and pair are keyword-only
        estimate_effect(model, ds, x)


def test_discriminator_gap_degenerate_critic_warns(bench_small):
    scm, ds, enc, model = bench_small
    with pytest.warns(UserWarning, match="constant"):
        assert discriminator_gap(model, ds) == 0.0


def test_discriminator_gap_identical_distributions_is_zero(bench_small):
    scm, ds, enc, _ = bench_small
    model = StructuredModel(scm.graph, enc, total_path_set(scm.graph), seed=17)
    rng = np.random.default_rng(5)
    for w, b in model.params.group("critic"):
        w.data = rng.normal(0, 0.5, w.data.shape)
    # cut only the sensitive inputs out of every sub-network: the two arms are
    # then identical row by row, yet the outcome still varies across rows
    s_block = enc.block("s")
    for name in model.sub_network_nodes:
        offset = 0
        w0, _ = model.params.group(name)[0]
        for parent in scm.graph.parents(name):
            width = enc.block_width(parent)
            if parent == "s":
                w0.data[offset : offset + width, :] = 0.0
            offset += width
    x = enc.transform(ds)
    y_plus = model.intervene_total(x, 1)
    assert np.ptp(y_plus) > 0  # non-degenerate outcome distribution
    assert discriminator_gap(model, ds) == 0.0


@pytest.mark.parametrize("condition", [(), (("x2", "1"),)], ids=["total", "counterfactual"])
def test_effect_and_gap_read_a_given_pair_as_computed(bench_small, condition):
    scm, ds, enc, _ = bench_small
    if condition:
        mode = counterfactual_path_set(scm.graph, condition)
    else:
        mode = total_path_set(scm.graph)
    model = StructuredModel(scm.graph, enc, mode, seed=21, critic_context_nodes=("x1",))
    rng = np.random.default_rng(3)
    for w, _ in model.params.group("critic"):
        w.data = rng.normal(0, 0.5, w.data.shape)
    weights = rng.uniform(0.5, 2.0, ds.m)
    pair = model.interventional_pair(enc.transform(ds), model.pair_mask(ds))
    effect = estimate_effect(model, ds, weights=weights, pair=pair)
    assert effect == estimate_effect(model, ds, weights=weights)
    omega = weights[pair.rows] / weights[pair.rows].sum()
    assert effect == pytest.approx(omega @ pair.y_plus - omega @ pair.y_minus, abs=1e-12)
    gap = discriminator_gap(model, ds, weights, pair=pair)
    assert gap == discriminator_gap(model, ds, weights) != 0.0
    with pytest.raises(ValueError, match="does not match"):
        estimate_effect(model, ds, weights=weights[:-1], pair=pair)


class _SeparatedCloudsModel(StructuredModel):
    """Forces a wide interventional contrast to exercise the normalization."""

    def interventional_pair(self, x, mask=None):
        rng = np.random.default_rng(7)
        high = rng.normal(0.95, 0.005, x.shape[0])
        low = rng.normal(0.05, 0.005, x.shape[0])
        return Pair(high, low, np.arange(x.shape[0]), None)


def test_discriminator_gap_separated_clouds_close_to_one(bench_small):
    from fairweigh.autodiff import Tensor

    scm, ds, enc, _ = bench_small
    model = _SeparatedCloudsModel(scm.graph, enc, total_path_set(scm.graph), seed=19)
    # identity critic: monotone, so the pooled min-max normalization maps the
    # two clouds near the ends of [0, 1]
    model.params.groups["critic"] = [(Tensor(np.array([[1.0]])), Tensor(np.zeros(1)))]
    gap = discriminator_gap(model, ds)
    assert gap > 0.95


def test_wasserstein_same_data_is_small():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), (800, 3))
        assert wasserstein_estimate(x, None, seed=seed, steps=500) <= 0.05


def test_wasserstein_point_masses_close_to_half():
    # half the rows at 0, half at 1; the weights move all mass onto the ones
    x = np.concatenate([np.zeros((400, 1)), np.ones((400, 1))])
    w = np.concatenate([np.zeros(400), np.full(400, 2.0)])
    estimate = wasserstein_estimate(x, w, seed=0, steps=2000)
    assert abs(estimate - 0.5) <= 0.05


def test_wasserstein_mass_concentration_increases_distance():
    rng = np.random.default_rng(4)
    modes = np.concatenate([rng.normal(-2, 0.3, (800, 1)), rng.normal(2, 0.3, (800, 1))])
    uniform = wasserstein_estimate(modes, None, seed=1, steps=700)
    concentrated_w = np.concatenate([np.full(800, 2.0), np.zeros(800)])
    concentrated = wasserstein_estimate(modes, concentrated_w, seed=1, steps=700)
    assert concentrated > uniform


def test_wasserstein_on_reweighted_rows_encodes_and_reads_out_once(bench_small, monkeypatch):
    """The distance between a dataset and its rows under weights encodes
    the rows once and the trained critic reads them out once, and it is
    the estimate on the encoded matrix, bit for bit."""
    _, ds, enc, _ = bench_small
    w = np.random.default_rng(2).uniform(0.0, 2.0, ds.m)
    x = enc.transform(ds)
    direct = wasserstein_estimate(x, w, seed=3, steps=40)

    calls = {"transform": 0, "mlp_forward": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Encoder, "transform", counted("transform", Encoder.transform))
    monkeypatch.setattr(effects, "mlp_forward", counted("mlp_forward", effects.mlp_forward))
    distance = wasserstein_distance(ds, w, enc, seed=3, steps=40)
    assert distance == direct
    assert calls == {"transform": 1, "mlp_forward": 1}


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
def test_estimators_reject_negative_or_non_finite_weights(bench_small, bad):
    scm, ds, enc, model = bench_small
    weights = np.ones(ds.m)
    weights[3] = bad
    with pytest.raises(ValueError, match="position 3"):
        estimate_effect(model, ds, weights=weights)
    x = enc.transform(ds)
    with pytest.raises(ValueError, match="finite and non-negative"):
        wasserstein_estimate(x, weights, steps=1)


def parity_dataset():
    s = np.array(["1"] * 8 + ["0"] * 8)
    y = np.array(["1"] * 6 + ["0"] * 2 + ["1"] * 4 + ["0"] * 4)
    return ColumnarDataset(
        [Column("s", "categorical", s), Column("y", "categorical", y)]
    )


def test_statistical_parity_direct_count():
    ds = parity_dataset()
    assert statistical_parity(ds, "s", "y") == pytest.approx(0.75 - 0.50)


def test_statistical_parity_equal_rates_zero():
    s = np.array(["1", "1", "0", "0"])
    y = np.array(["1", "0", "1", "0"])
    ds = ColumnarDataset([Column("s", "categorical", s), Column("y", "categorical", y)])
    assert statistical_parity(ds, "s", "y") == 0.0


def test_statistical_parity_weighted_and_empty_group():
    ds = parity_dataset()
    w = np.ones(ds.m)
    w[:8] = 0.0
    with pytest.raises(DataError, match="no weight"):
        statistical_parity(ds, "s", "y", w)
    w2 = np.ones(ds.m)
    w2[0] = 3.0  # upweighting an s=1, y=1 row raises the high-group rate
    assert statistical_parity(ds, "s", "y", w2) > 0.25


def test_statistical_parity_takes_the_high_level_from_the_encoder():
    """Integer declared levels once raised TypeError, sorted with the string
    labels; the encoder turns them into labels, as everywhere else."""
    ds = parity_dataset()
    encoder = Encoder().fit(ds, {"s": [0, 1], "y": [1, 0]})
    assert statistical_parity(ds, "s", "y", None, encoder) == statistical_parity(ds, "s", "y")
    assert statistical_parity(ds, "s", "y", None, encoder) == pytest.approx(0.75 - 0.50)
    with pytest.raises(DataError, match="'s' is not binary"):
        statistical_parity(ds, "s", "y", None, Encoder().fit(ds, {"s": [0, 1, 2]}))


def test_downstream_accuracy_separable_data():
    rng = np.random.default_rng(8)
    m = 400
    v = rng.normal(0, 1, m)
    v = v[np.abs(v) > 0.2][:320]  # margin keeps the boundary estimate safe
    y = np.where(v > 0, "1", "0")
    ds = ColumnarDataset(
        [Column("v", "continuous", v), Column("y", "categorical", y)]
    )
    train, test = ds.take(np.arange(0, 240)), ds.take(np.arange(240, len(v)))
    assert downstream_accuracy(Split(np.arange(240), train, test, Encoder().fit(train)), "y") == 1.0


def test_downstream_accuracy_constant_outcome_majority():
    rng = np.random.default_rng(9)
    m = 200
    v = rng.normal(0, 1, m)
    y = np.full(m, "1")
    ds = ColumnarDataset(
        [Column("v", "continuous", v), Column("y", "categorical", y)]
    )
    enc = Encoder().fit(ds, {"y": ["0", "1"]})
    train, test = ds.take(np.arange(0, 150)), ds.take(np.arange(150, m))
    accuracy = downstream_accuracy(Split(np.arange(150), train, test, enc), "y")
    assert accuracy == 1.0  # majority class is everything


@pytest.mark.parametrize("declared", [None, {"y": ["0", "1", "2"]}], ids=["one-level", "three"])
def test_downstream_accuracy_refuses_an_outcome_that_is_not_binary(declared):
    """The outcome was once read as the encoded column after its block's
    first, which belongs to another node when the block has one column."""
    v = np.random.default_rng(9).normal(0, 1, 100)
    ds = ColumnarDataset([Column("y", "categorical", np.full(100, "1")),
                          Column("v", "continuous", v)])
    train, test = ds.take(np.arange(80)), ds.take(np.arange(80, 100))
    part = Split(np.arange(80), train, test, Encoder().fit(train, declared))
    with pytest.raises(DataError, match=r"^column 'y' is not binary \(levels: \["):
        downstream_accuracy(part, "y")
