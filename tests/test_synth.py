import tracemalloc

import numpy as np
import pytest

from fairweigh.graph import (
    GraphError,
    PathSet,
    counterfactual_path_set,
    indirect_path_set,
    pi_active_nodes,
    total_path_set,
)
from fairweigh.synth import (
    ORACLE_BLOCK,
    _condition_mask,
    _draw_noise,
    benchmark_scm,
    generate,
    oracle_effect,
    oracle_effects,
    parse_affine,
    parse_scm,
)

from conftest import node_value, reference_cascade

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
    _, p_plus = reference_cascade(scm, noise, n, do_sensitive=1.0)
    _, p_minus = reference_cascade(scm, noise, n, do_sensitive=0.0)
    diff = p_plus - p_minus
    if condition:
        observed, _ = reference_cascade(scm, noise, n, do_sensitive=None)
        diff = diff[observed["x2"] == 1.0]
    assert estimate == float(diff.mean())
    assert stderr == float(diff.std(ddof=0) / np.sqrt(diff.size))


def test_benchmark_default_has_material_effect():
    scm = benchmark_scm(seed=0)
    te, _ = oracle_effect(scm, total_path_set(scm.graph), n=200_000, seed=0)
    assert te >= 0.15


# A binary mediator m on the route s -> m -> y, and a binary side node w of s
# that the outcome does not read, declared (and sorted) before m and y.
SIDE_NODE_DOC = """
[nodes]
x1 continuous
s categorical 2
w categorical 2
m categorical 2
y categorical 2
[edges]
x1 -> s
s -> w
x1 -> m
s -> m
x1 -> y
s -> y
m -> y
[roles]
sensitive s
outcome y
[functions]
x1 = normal(0, 1)
s = bernoulli(logistic(0.8*x1))
w = bernoulli(logistic(1.5*s - 0.5))
m = bernoulli(logistic(2.5*s + x1 - 1.5))
y = bernoulli(logistic(0.5*s + 4*m + 1.5*x1 - 2.5))
"""


def full_array_arms(scm, ps, noise, n):
    """Outcome probability with s=1 routed only along pi edges, and at the
    s=0 reference, from one reference cascade over the outcome's ancestors
    and all n draws at once."""
    g = scm.graph
    active = pi_active_nodes(g, ps)
    ancestry = g.outcome_ancestry()
    reference, p_ref = reference_cascade(scm, noise, n, 0.0, ancestry)
    inter = {}
    p_plus = p_ref
    for name in ancestry:
        if name == g.sensitive:
            inter[name] = np.full(n, 1.0)
            continue
        if name not in active:
            inter[name] = reference[name]
            continue
        parent_values = {
            p: (inter[p] if (p, name) in ps.on_pi_edges else reference[p])
            for p in g.parents(name)
        }
        if name == g.outcome:
            p_plus = scm.functions[name].mean_or_prob(parent_values, n)
        else:
            inter[name] = node_value(scm, name, parent_values, noise, n)
    return p_plus, p_ref


def full_array_oracle(scm, ps, n, seed):
    """The oracle with every node's noise and one pass over all n draws:
    (estimate, stderr), or None when no draw matches the condition."""
    noise = _draw_noise(scm, n, np.random.default_rng(seed))
    route = ps if ps.mode == "path_specific" else total_path_set(scm.graph)
    p_plus, p_minus = full_array_arms(scm, route, noise, n)
    diff = p_plus - p_minus
    if ps.mode == "counterfactual":
        observed, _ = reference_cascade(scm, noise, n, do_sensitive=None)
        diff = diff[_condition_mask(observed, ps.condition)]
        if diff.size == 0:
            return None
    return float(diff.mean()), float(diff.std(ddof=0) / np.sqrt(diff.size))


def assert_oracle_is_full_array_oracle(scm, ps, n, seed):
    expected = full_array_oracle(scm, ps, n, seed)
    if expected is None:
        with pytest.raises(GraphError, match="no draws match"):
            oracle_effect(scm, ps, n=n, seed=seed)
    else:
        assert oracle_effect(scm, ps, n=n, seed=seed) == expected


BENCHMARK_MODES = {
    "total": total_path_set,
    "indirect": indirect_path_set,
    "counterfactual": lambda g: counterfactual_path_set(g, [("x2", "0")]),
}


def test_one_oracle_pass_is_the_full_array_oracle_on_random_scms():
    """On random SCMs of up to 6 nodes (binary s and y, every other node
    continuous or binary): the total contrast, path-specific contrasts on a
    random subset of the sensitive-to-outcome edges and on each subset that
    drops one of them, and a counterfactual contrast on a binary
    non-descendant of s, from one oracle pass, equal the full-array
    reference of each, whose routed loop is its own, bit for bit."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    coefficients = st.sampled_from([-1.5, -0.8, -0.3, 0.4, 1.0, 2.0])

    @settings(max_examples=100)
    @given(st.data())
    def check(data):
        k = data.draw(st.integers(2, 6), label="nodes")
        names = [f"v{i}" for i in range(k)]
        forward = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        edges = [e for e in forward if data.draw(st.booleans(), label=f"edge {e}")]
        roles = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
        s, y = sorted(data.draw(roles, label="roles"))  # s may reach y
        binary = {v for v in names if v in (s, y) or data.draw(st.booleans(), label="binary")}
        functions = []
        for v in names:
            terms = [str(data.draw(coefficients, label="bias"))] + [
                f"{data.draw(coefficients, label='coefficient')}*{p}" for p, c in edges if c == v
            ]
            affine = " + ".join(terms)
            functions.append(
                f"{v} = bernoulli(logistic({affine}))" if v in binary
                else f"{v} = normal({affine}, 0.7)"
            )
        doc = "\n".join([
            "[nodes]",
            *(f"{v} categorical 2" if v in binary else f"{v} continuous" for v in names),
            "[edges]", *(f"{a} -> {b}" for a, b in edges),
            "[roles]", f"sensitive {s}", f"outcome {y}",
            "[functions]", *functions,
        ])
        scm = parse_scm(doc)
        g = scm.graph
        path_sets = [total_path_set(g)]
        on_paths = sorted(path_sets[0].on_pi_edges)
        if on_paths:  # a random subset, and every subset that drops one edge
            subset = data.draw(st.sets(st.sampled_from(on_paths), min_size=1), label="pi edges")
            subsets = [frozenset(subset)] + [frozenset(on_paths) - {e} for e in on_paths]
            path_sets += [PathSet("path_specific", edges) for edges in subsets if edges]
        outside = sorted(binary - {s} - g.descendants(s))
        if outside:
            node = data.draw(st.sampled_from(outside), label="condition node")
            value = data.draw(st.sampled_from(["0", "1"]), label="condition value")
            path_sets.append(counterfactual_path_set(g, [(node, value)]))
        n = data.draw(st.sampled_from([1, 5, ORACLE_BLOCK + 3]), label="draws")
        seed = data.draw(st.integers(0, 1000), label="seed")

        expected = [full_array_oracle(scm, ps, n, seed) for ps in path_sets]
        matched = [ps for ps, e in zip(path_sets, expected) if e is not None]
        expected = [e for e in expected if e is not None]
        assert oracle_effects(scm, matched, n=n, seed=seed) == expected
        if len(matched) < len(path_sets):
            with pytest.raises(GraphError, match="no draws match"):
                oracle_effects(scm, path_sets, n=n, seed=seed)

    check()


@pytest.mark.parametrize(
    "n", [1, ORACLE_BLOCK - 1, ORACLE_BLOCK, ORACLE_BLOCK + 1, 2 * ORACLE_BLOCK + 1]
)
@pytest.mark.parametrize("mode", sorted(BENCHMARK_MODES))
def test_lean_oracle_is_the_full_array_oracle_bit_for_bit(mode, n):
    """Keeping only the noise the contrast reads, and cascading in blocks,
    changes no bit of the estimate or its standard error, whatever the last
    block holds."""
    scm = benchmark_scm(seed=2)
    assert_oracle_is_full_array_oracle(scm, BENCHMARK_MODES[mode](scm.graph), n, seed=9)


@pytest.mark.parametrize(
    "condition",
    [[("m", "1")], [("w", "1")], [("w", "0"), ("m", "1")]],
    ids=["descendant-of-s", "outside-ancestry", "both"],
)
def test_lean_oracle_reads_the_noise_of_the_condition(condition):
    """A condition on m (a descendant of s) needs s's noise, which the
    clamped contrast never reads; one on w needs a node outside the outcome's
    ancestry."""
    scm = parse_scm(SIDE_NODE_DOC, seed=0)
    ps = counterfactual_path_set(scm.graph, condition)
    assert_oracle_is_full_array_oracle(scm, ps, 2 * ORACLE_BLOCK + 1, seed=4)


@pytest.mark.parametrize("mode", ["total", "indirect"])
def test_lean_oracle_draws_past_an_unread_bernoulli_node(mode):
    """w's uniform draw lies before m's and y's in the stream: an unread
    node still consumes exactly its draw."""
    scm = parse_scm(SIDE_NODE_DOC, seed=0)
    order = scm.graph.topo_index
    assert order["w"] < order["m"] < order["y"]
    ps = total_path_set(scm.graph) if mode == "total" else indirect_path_set(scm.graph)
    assert_oracle_is_full_array_oracle(scm, ps, ORACLE_BLOCK + 5, seed=1)


@pytest.mark.parametrize("mode", sorted(BENCHMARK_MODES))
def test_oracle_memory_is_the_read_noise_plus_one_block(mode):
    """At 200k draws the oracle holds the noise of the three nodes it reads,
    the per-draw contrasts and one block: 8-9 MB, where keeping every
    node's noise and cascading all draws at once took 34-40 MB."""
    scm = benchmark_scm(seed=1)
    ps = BENCHMARK_MODES[mode](scm.graph)
    tracemalloc.start()
    try:
        oracle_effect(scm, ps, n=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15e6


# A node z after the outcome in topological order: a condition on z reads
# the outcome's noise, which no contrast reads otherwise.
TAIL_NODE_DOC = """
[nodes]
x1 continuous
s categorical 2
m categorical 2
y categorical 2
z categorical 2
[edges]
x1 -> s
x1 -> m
s -> m
x1 -> y
s -> y
m -> y
s -> z
y -> z
[roles]
sensitive s
outcome y
[functions]
x1 = normal(0, 1)
s = bernoulli(logistic(0.8*x1))
m = bernoulli(logistic(2.5*s + x1 - 1.5))
y = bernoulli(logistic(0.5*s + 4*m + 1.5*x1 - 2.5))
z = bernoulli(logistic(2*y + 0.5*s - 1))
"""


def assert_one_pass_is_the_full_array_oracle(scm, path_sets, n, seed):
    expected = [full_array_oracle(scm, ps, n, seed) for ps in path_sets]
    assert None not in expected  # every condition matches some draw
    assert oracle_effects(scm, path_sets, n=n, seed=seed) == expected


# seed 0's first draw matches every condition, so n = 1 checks all contrasts
@pytest.mark.parametrize("n", [1, ORACLE_BLOCK, 2 * ORACLE_BLOCK + 1])
def test_one_oracle_pass_gives_every_contrast_bit_for_bit(n):
    """The total, indirect, x2=1 and y=1 contrasts from one pass over shared
    noise equal the full-array reference of each; the total route serves both
    the total contrast and the conditioned ones."""
    scm = benchmark_scm(seed=2)
    g = scm.graph
    path_sets = [
        total_path_set(g),
        indirect_path_set(g),
        counterfactual_path_set(g, [("x2", "1")]),
        counterfactual_path_set(g, [("y", "1")]),
    ]
    assert_one_pass_is_the_full_array_oracle(scm, path_sets, n, seed=0)


@pytest.mark.parametrize("n", [1, ORACLE_BLOCK, 2 * ORACLE_BLOCK + 1])
def test_one_oracle_pass_with_a_node_after_the_outcome(n):
    scm = parse_scm(TAIL_NODE_DOC, seed=0)
    g = scm.graph
    assert g.topo_order[-1] == "z"
    path_sets = [
        counterfactual_path_set(g, [("z", "1")]),
        total_path_set(g),
        indirect_path_set(g),
        counterfactual_path_set(g, [("y", "1")]),
        counterfactual_path_set(g, [("z", "1")]),
    ]
    assert_one_pass_is_the_full_array_oracle(scm, path_sets, n, seed=0)


# s reads a but reaches nothing: no path runs from s to y.
NO_PATH_SCM_DOC = """
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
[functions]
a = normal(0, 1)
s = bernoulli(logistic(0.8*a))
y = bernoulli(logistic(1.5*a - 0.5))
"""


@pytest.mark.parametrize("n", [1, ORACLE_BLOCK + 1])
def test_one_oracle_pass_without_a_path_to_the_outcome(n):
    """With no path from s to y every contrast is exactly zero, as in the
    full-array reference; the y=1 condition reads the outcome's noise."""
    scm = parse_scm(NO_PATH_SCM_DOC, seed=0)
    g = scm.graph
    path_sets = [total_path_set(g), counterfactual_path_set(g, [("y", "1")])]
    assert oracle_effects(scm, path_sets[:1], n=n, seed=3) == [(0.0, 0.0)]
    assert_one_pass_is_the_full_array_oracle(scm, path_sets, n, seed=3)
    assert oracle_effects(scm, path_sets, n=n, seed=3) == [(0.0, 0.0)] * 2


def test_oracle_of_edges_that_form_no_complete_path_is_zero():
    """{(s, m)} selects no s-to-y path, so no node is active and the routed
    outcome is the reference: the effect is exactly zero, alone and beside
    the total contrast."""
    scm = parse_scm(SIDE_NODE_DOC, seed=0)
    g = scm.graph
    partial = PathSet("path_specific", frozenset([("s", "m")]))
    assert not pi_active_nodes(g, partial)
    n = ORACLE_BLOCK + 3
    expected = full_array_oracle(scm, partial, n, seed=5)
    assert expected == (0.0, 0.0)
    assert oracle_effect(scm, partial, n=n, seed=5) == expected
    assert_one_pass_is_the_full_array_oracle(scm, [partial, total_path_set(g)], n, seed=5)


# Normal and uniform (bernoulli) nodes alternate, so every kind of skipped
# draw lies between kept ones.
NOISE_DOC = """
[nodes]
a continuous
b categorical 2
s categorical 2
c continuous
d categorical 2
y categorical 2
[edges]
a -> s
b -> s
s -> c
s -> d
c -> y
d -> y
[roles]
sensitive s
outcome y
[functions]
a = normal(0, 2)
b = bernoulli(0.3)
s = bernoulli(logistic(a + b))
c = normal(s, 0.5)
d = bernoulli(logistic(s))
y = bernoulli(logistic(c + d))
"""


def test_kept_noise_is_the_full_draw_and_leaves_the_same_generator_state():
    """Whatever nodes are read, each kept draw equals a full draw of every
    node's noise, and the generator ends where drawing every node up to the
    last read one in one fill each leaves it: a skipped node is stepped past
    in chunks of at most ORACLE_BLOCK."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    scm = parse_scm(NOISE_DOC)
    order = scm.graph.topo_order

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 3 * ORACLE_BLOCK + 2),
        read=st.sets(st.sampled_from(order)),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n, read, seed):
        full = _draw_noise(scm, n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        kept = _draw_noise(scm, n, rng, read)
        assert sorted(kept) == sorted(read)
        for name in read:
            assert np.array_equal(kept[name], full[name]), name
        reference = np.random.default_rng(seed)
        last = max((scm.graph.topo_index[name] for name in read), default=-1)
        for name in order[: last + 1]:
            if scm.functions[name].kind == "normal":
                reference.standard_normal(n)
            else:
                reference.random(n)
        assert rng.bit_generator.state == reference.bit_generator.state

    check()
