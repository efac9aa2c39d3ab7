import numpy as np
import pytest

from fairweigh.graph import (
    GraphError,
    counterfactual_path_set,
    indirect_path_set,
    total_path_set,
)
from fairweigh.synth import (
    _cascade,
    _draw_noise,
    benchmark_scm,
    generate,
    oracle_effect,
    parse_affine,
    parse_scm,
)

CHAIN_DOC = """
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
s = bernoulli(logistic(0*a))
y = bernoulli(logistic(0*s))
"""


def test_parse_affine_forms():
    aff = parse_affine("0.9*x1 + 0.5*x2 - 0.25")
    assert aff.bias == -0.25
    assert dict(aff.coeffs) == {"x1": 0.9, "x2": 0.5}
    assert dict(parse_affine("-x + 2").coeffs) == {"x": -1.0}
    assert parse_affine("-x + 2").bias == 2.0
    assert dict(parse_affine("x - 3*x").coeffs) == {"x": -2.0}
    assert parse_affine("1e-2").bias == pytest.approx(0.01)
    with pytest.raises(GraphError):
        parse_affine("2 ** x")


def test_function_validation():
    bad_parent = CHAIN_DOC.replace("y = bernoulli(logistic(0*s))", "y = bernoulli(logistic(0.5*a))")
    with pytest.raises(GraphError, match="non-parent"):
        parse_scm(bad_parent)
    bad_kind = CHAIN_DOC.replace("a = normal(0, 1)", "a = bernoulli(0.5)")
    with pytest.raises(GraphError, match="normal"):
        parse_scm(bad_kind)
    missing = CHAIN_DOC.replace("a = normal(0, 1)\n", "")
    with pytest.raises(GraphError, match="no structural function"):
        parse_scm(missing)


def test_outcome_must_be_binary():
    doc = CHAIN_DOC.replace("y categorical 2", "y categorical 3")
    with pytest.raises(GraphError, match="binary"):
        parse_scm(doc)


def test_generate_deterministic_and_typed():
    scm = parse_scm(CHAIN_DOC, seed=4)
    ds1 = generate(scm, 100)
    ds2 = generate(scm, 100)
    assert np.array_equal(ds1.column("a").values, ds2.column("a").values)
    assert set(ds1.column("y").values.tolist()) <= {"0", "1"}
    other = generate(parse_scm(CHAIN_DOC, seed=5), 100)
    assert not np.array_equal(ds1.column("a").values, other.column("a").values)


def test_all_zero_coefficients_give_fair_coin_outcome():
    scm = parse_scm(CHAIN_DOC, seed=0)
    ds = generate(scm, 40_000)
    y = (ds.column("y").values == "1").mean()
    # Bernoulli(0.5): 3 sigma of the mean is ~0.0075 at this n
    assert abs(y - 0.5) < 3 * 0.5 / np.sqrt(40_000)


def test_group_means_match_numerical_integration():
    """Logistic outcome means vs an independent quadrature oracle."""
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
[functions]
a = normal(0, 1)
s = bernoulli(logistic(0.7*a))
y = bernoulli(logistic(0.8*s + 0.5*a))
"""
    scm = parse_scm(doc, seed=8)
    n = 50_000
    ds = generate(scm, n)
    s = ds.column("s").values == "1"
    y = ds.column("y").values == "1"

    # quadrature over the standard normal root for each sensitive group
    grid = np.linspace(-8, 8, 20_001)
    phi = np.exp(-0.5 * grid**2) / np.sqrt(2 * np.pi)
    p_s = 1.0 / (1.0 + np.exp(-0.7 * grid))
    weight_s1 = phi * p_s
    weight_s0 = phi * (1.0 - p_s)
    p_y_s1 = 1.0 / (1.0 + np.exp(-(0.8 + 0.5 * grid)))
    p_y_s0 = 1.0 / (1.0 + np.exp(-0.5 * grid))
    expect_y_given_s1 = np.trapezoid(weight_s1 * p_y_s1, grid) / np.trapezoid(weight_s1, grid)
    expect_y_given_s0 = np.trapezoid(weight_s0 * p_y_s0, grid) / np.trapezoid(weight_s0, grid)

    for mask, expected in ((s, expect_y_given_s1), (~s, expect_y_given_s0)):
        observed = y[mask].mean()
        sigma = np.sqrt(expected * (1 - expected) / mask.sum())
        assert abs(observed - expected) < 4 * sigma


def test_oracle_null_effect_is_zero():
    scm = parse_scm(CHAIN_DOC, seed=1)
    estimate, stderr = oracle_effect(scm, total_path_set(scm.graph), n=50_000, seed=2)
    assert estimate == 0.0  # coefficient on s is exactly zero


def test_oracle_deterministic_outcome_equals_one():
    doc = """
[nodes]
s categorical 2
y categorical 2
[edges]
s -> y
[roles]
sensitive s
outcome y
[functions]
s = bernoulli(0.5)
y = bernoulli(s)
"""
    scm = parse_scm(doc)
    estimate, stderr = oracle_effect(scm, total_path_set(scm.graph), n=1000, seed=0)
    assert estimate == 1.0 and stderr == 0.0


def test_identity_link_probability_range_checked():
    doc = """
[nodes]
s categorical 2
y categorical 2
[edges]
s -> y
[roles]
sensitive s
outcome y
[functions]
s = bernoulli(0.5)
y = bernoulli(2*s)
"""
    scm = parse_scm(doc)
    with pytest.raises(GraphError, match="left"):
        generate(scm, 100)


def test_oracle_seed_invariance_within_three_stderr():
    scm = benchmark_scm(seed=0)
    mode = total_path_set(scm.graph)
    e1, s1 = oracle_effect(scm, mode, n=150_000, seed=1)
    e2, s2 = oracle_effect(scm, mode, n=150_000, seed=99)
    assert abs(e1 - e2) < 3 * (s1 + s2)


def test_additive_decomposition_when_direct_vanishes():
    scm = benchmark_scm(seed=0, direct=0.0)
    te, te_se = oracle_effect(scm, total_path_set(scm.graph), n=150_000, seed=3)
    sp, sp_se = oracle_effect(scm, indirect_path_set(scm.graph), n=150_000, seed=3)
    assert abs(te - sp) < 3 * (te_se + sp_se)


def test_counterfactual_oracle_filters_condition():
    scm = benchmark_scm(seed=0)
    ps = counterfactual_path_set(scm.graph, [("x2", "1")])
    ce, se = oracle_effect(scm, ps, n=100_000, seed=5)
    te, _ = oracle_effect(scm, total_path_set(scm.graph), n=100_000, seed=5)
    assert se > 0 and ce != te


def test_oracle_condition_matches_labels_as_text():
    """As in the learned pipeline, a condition value is a label: "1.0" is
    not the label "1" that generated data holds."""
    scm = benchmark_scm(seed=0)
    ps = counterfactual_path_set(scm.graph, [("x2", "1")])
    assert oracle_effect(scm, ps, n=2_000, seed=5)[1] > 0
    with pytest.raises(GraphError, match="no draws match"):
        oracle_effect(scm, counterfactual_path_set(scm.graph, [("x2", "1.0")]), n=2_000)


@pytest.mark.parametrize("condition", [(), (("x2", "1"),)], ids=["total", "counterfactual"])
def test_oracle_route_equals_two_clamp_contrast(condition):
    """Total and counterfactual path sets select every s -> y edge, so routing
    the intervention along them equals clamping s, bit for bit."""
    scm = benchmark_scm(seed=4)
    ps = (
        counterfactual_path_set(scm.graph, condition)
        if condition
        else total_path_set(scm.graph)
    )
    n = 20_000
    estimate, stderr = oracle_effect(scm, ps, n=n, seed=6)

    noise = _draw_noise(scm, n, np.random.default_rng(6))
    _, p_plus = _cascade(scm, noise, n, do_sensitive=1.0)
    _, p_minus = _cascade(scm, noise, n, do_sensitive=0.0)
    diff = p_plus - p_minus
    if condition:
        observed, _ = _cascade(scm, noise, n, do_sensitive=None)
        diff = diff[observed["x2"] == 1.0]
    assert estimate == float(diff.mean())
    assert stderr == float(diff.std(ddof=0) / np.sqrt(diff.size))


def test_benchmark_default_has_material_effect():
    scm = benchmark_scm(seed=0)
    te, _ = oracle_effect(scm, total_path_set(scm.graph), n=200_000, seed=0)
    assert te >= 0.15
