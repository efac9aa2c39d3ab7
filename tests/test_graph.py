import pytest

from fairweigh.graph import (
    CausalGraph,
    GraphError,
    PathSet,
    counterfactual_path_set,
    direct_path_set,
    graph_fingerprint,
    indirect_path_set,
    intervention_surgery,
    parse_graph,
    pi_active_nodes,
    total_path_set,
    validate_path_set,
)

from conftest import DIAMOND_DOC

DIAMOND_EDGES = {("a", "s"), ("a", "y"), ("s", "b"), ("s", "y"), ("b", "y")}


def simple_paths(g):
    """Every directed sensitive-to-outcome path as a tuple of edges, listed by
    brute force: the reference the reachability-based path sets must match."""
    paths = []

    def visit(node, trail):
        if node == g.outcome:
            paths.append(tuple(trail))
            return
        for child in g.children(node):
            visit(child, trail + [(node, child)])

    visit(g.sensitive, [])
    return paths


def on_selected_paths(g, pi):
    """Nodes of the sensitive-to-outcome paths whose edges all lie in ``pi``."""
    selected = [path for path in simple_paths(g) if set(path) <= pi]
    return {node for path in selected for edge in path for node in edge}


def test_parse_diamond_document(diamond_graph):
    g = diamond_graph
    assert set(g.edges) == DIAMOND_EDGES
    assert g.roots == ("a",)
    assert g.sensitive == "s" and g.outcome == "y"
    assert g.node("s").is_binary and g.node("a").kind == "continuous"


def test_parse_minimal_graph():
    g = parse_graph(
        """
        [nodes]
        s categorical 2
        y categorical 2
        [edges]
        s -> y
        [roles]
        sensitive s
        outcome y
        """
    )
    assert g.roots == ("s",)
    assert g.edges == (("s", "y"),)


@pytest.mark.parametrize(
    "edges,message",
    [
        ("a -> s\ns -> a", "cycle"),
        ("a -> q", "unknown node"),
        ("s -> s", "self-loop"),
        ("s -> y\ns -> y", "duplicate edge"),
    ],
)
def test_parse_errors(edges, message):
    doc = f"""
    [nodes]
    a continuous
    s categorical 2
    y categorical 2
    [edges]
    {edges}
    [roles]
    sensitive s
    outcome y
    """
    with pytest.raises(GraphError, match=message):
        parse_graph(doc)


def test_missing_role_designation():
    doc = """
    [nodes]
    s categorical 2
    y categorical 2
    [roles]
    sensitive s
    """
    with pytest.raises(GraphError, match="outcome"):
        parse_graph(doc)


def test_unknown_section_rejected():
    with pytest.raises(GraphError, match="unknown section"):
        parse_graph("[nodes]\ns categorical 2\n[extra]\nx\n[roles]\nsensitive s\noutcome s")


def test_topological_order_property(diamond_graph):
    index = diamond_graph.topo_index
    for parent, child in diamond_graph.edges:
        assert index[parent] < index[child]


def test_surgery_removes_incoming_sensitive_edges(diamond_graph):
    cut = intervention_surgery(diamond_graph)
    assert set(cut.edges) == DIAMOND_EDGES - {("a", "s")}
    assert cut.nodes == diamond_graph.nodes


def test_surgery_on_root_sensitive_is_identity():
    g = parse_graph(
        """
        [nodes]
        s categorical 2
        b continuous
        y categorical 2
        [edges]
        s -> b
        b -> y
        [roles]
        sensitive s
        outcome y
        """
    )
    assert intervention_surgery(g).edges == g.edges


def test_surgery_removes_all_parents_and_is_idempotent():
    g = parse_graph(
        """
        [nodes]
        a continuous
        b continuous
        s categorical 2
        y categorical 2
        [edges]
        a -> s
        b -> s
        s -> y
        [roles]
        sensitive s
        outcome y
        """
    )
    once = intervention_surgery(g)
    assert len(once.edges) == len(g.edges) - 2
    twice = intervention_surgery(once)
    assert twice.edges == once.edges


def test_path_edges_diamond(diamond_graph):
    paths = simple_paths(diamond_graph)
    assert set(paths) == {(("s", "y"),), (("s", "b"), ("b", "y"))}
    total = total_path_set(diamond_graph)
    assert total.on_pi_edges == {("s", "y"), ("s", "b"), ("b", "y")}
    assert pi_active_nodes(diamond_graph, total) == {"s", "b", "y"}


def test_path_sets_two_hop_diamond():
    # exhaustive check: 3 distinct routes
    g = parse_graph(
        """
        [nodes]
        s categorical 2
        b1 continuous
        b2 continuous
        y categorical 2
        [edges]
        s -> b1
        s -> b2
        s -> y
        b1 -> y
        b2 -> y
        [roles]
        sensitive s
        outcome y
        """
    )
    paths = simple_paths(g)
    assert len(paths) == 3
    assert (("s", "y"),) in paths
    assert (("s", "b1"), ("b1", "y")) in paths
    assert (("s", "b2"), ("b2", "y")) in paths
    assert total_path_set(g).on_pi_edges == set(g.edges)
    pi = indirect_path_set(g)
    assert pi.on_pi_edges == {("s", "b1"), ("b1", "y"), ("s", "b2"), ("b2", "y")}
    assert pi_active_nodes(g, pi) == {"s", "b1", "b2", "y"}


def test_path_sets_unreachable(no_path_graph):
    assert simple_paths(no_path_graph) == []
    total = total_path_set(no_path_graph)
    assert total.on_pi_edges == frozenset()
    assert pi_active_nodes(no_path_graph, total) == frozenset()
    with pytest.raises(GraphError, match="indirect"):
        indirect_path_set(no_path_graph)


def test_indirect_path_set_diamond(diamond_graph):
    pi = indirect_path_set(diamond_graph)
    assert pi.mode == "path_specific"
    assert pi.on_pi_edges == {("s", "b"), ("b", "y")}


def test_indirect_path_set_requires_indirect_route():
    g = parse_graph(
        """
        [nodes]
        s categorical 2
        y categorical 2
        [edges]
        s -> y
        [roles]
        sensitive s
        outcome y
        """
    )
    assert simple_paths(g) == [(("s", "y"),)]
    assert total_path_set(g).on_pi_edges == {("s", "y")}
    with pytest.raises(GraphError, match="indirect"):
        indirect_path_set(g)


def test_direct_and_total_path_sets(diamond_graph):
    total = total_path_set(diamond_graph)
    assert total.on_pi_edges == {("s", "y"), ("s", "b"), ("b", "y")}
    direct = direct_path_set(diamond_graph)
    assert direct.on_pi_edges == {("s", "y")}


def test_removing_pi_edges_disconnects_only_pi_paths(diamond_graph):
    """Cutting the selected edges kills the selected paths and no others."""
    pi = indirect_path_set(diamond_graph)
    before = set(simple_paths(diamond_graph))
    kept_edges = [e for e in diamond_graph.edges if e not in pi.on_pi_edges]
    pruned = CausalGraph(diamond_graph.nodes, kept_edges, "s", "y")
    after = set(simple_paths(pruned))
    selected = {p for p in before if all(e in pi.on_pi_edges for e in p)}
    assert after == before - selected
    assert selected and after
    assert total_path_set(pruned).on_pi_edges == {e for p in after for e in p}


def test_counterfactual_path_set_validation(diamond_graph):
    ps = counterfactual_path_set(diamond_graph, [("y", "1")])
    assert ps.mode == "counterfactual"
    with pytest.raises(GraphError, match="'a' is not categorical"):
        counterfactual_path_set(diamond_graph, [("a", "1.0")])
    with pytest.raises(GraphError, match="non-empty"):
        counterfactual_path_set(diamond_graph, [])
    with pytest.raises(GraphError, match="sensitive"):
        counterfactual_path_set(diamond_graph, [("s", "1")])
    with pytest.raises(GraphError, match="unknown"):
        counterfactual_path_set(diamond_graph, [("zz", "1")])


def test_validate_path_set_rejects_stray_edges(diamond_graph):
    stray = PathSet("path_specific", frozenset({("a", "s")}))
    with pytest.raises(GraphError, match="not on any path"):
        validate_path_set(diamond_graph, stray)


def test_pi_active_nodes(diamond_graph):
    pi = indirect_path_set(diamond_graph)
    assert pi_active_nodes(diamond_graph, pi) == {"s", "b", "y"}
    direct = direct_path_set(diamond_graph)
    assert pi_active_nodes(diamond_graph, direct) == {"s", "y"}


def test_fingerprint_distinguishes_structure(diamond_graph):
    same = parse_graph(DIAMOND_DOC)
    assert graph_fingerprint(same) == graph_fingerprint(diamond_graph)
    cut = intervention_surgery(diamond_graph)
    assert graph_fingerprint(cut) != graph_fingerprint(diamond_graph)


def test_path_sets_match_brute_force_enumeration():
    """On random DAGs of up to 9 nodes, every path set, the stray-edge check
    and the active nodes of random selections equal what listing every
    sensitive-to-outcome path gives."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 9), label="nodes")
        names = [f"v{i}" for i in range(n)]
        forward = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        edges = data.draw(st.lists(st.sampled_from(forward), unique=True), label="edges")
        s, y = data.draw(st.permutations(names), label="roles")[:2]
        declared = data.draw(st.permutations(names), label="declaration order")
        g = CausalGraph([(name, "categorical", 2) for name in declared], edges, s, y)

        paths = simple_paths(g)
        on_path = frozenset(e for path in paths for e in path)
        assert total_path_set(g).on_pi_edges == on_path
        assert counterfactual_path_set(g, [(y, "1")]).on_pi_edges == on_path
        if on_path - {(s, y)}:
            assert indirect_path_set(g).on_pi_edges == on_path - {(s, y)}
        else:
            with pytest.raises(GraphError, match="no indirect path"):
                indirect_path_set(g)

        def reaches(a, b):
            return a == b or any(reaches(c, b) for c in g.children(a))

        assert g.outcome_ancestry() == tuple(v for v in g.topo_order if reaches(v, y))

        # a random part of the path edges, plus edges off every path and pairs
        # that are no edge at all
        kept = set()
        if on_path:
            kept = data.draw(st.sets(st.sampled_from(sorted(on_path))), label="on-path")
        pairs = [(a, b) for a in names for b in names if a != b]
        stray = data.draw(st.sets(st.sampled_from(pairs), max_size=3), label="extra")
        for pi in (frozenset(kept), frozenset(kept | stray)):
            ps = PathSet("path_specific", pi)
            assert pi_active_nodes(g, ps) == on_selected_paths(g, pi)
            if pi - on_path:
                with pytest.raises(GraphError, match="not on any path"):
                    validate_path_set(g, ps)
            elif not pi:
                with pytest.raises(GraphError, match="non-empty"):
                    validate_path_set(g, ps)
            else:
                validate_path_set(g, ps)

    check()


def test_a_dense_dag_builds_every_path_set():
    """A complete DAG over 17 variables with the sensitive node second and the
    outcome last has 2**14 = 16,384 sensitive-to-outcome paths."""
    names = [f"v{i}" for i in range(17)]
    s, y = names[1], names[-1]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    g = CausalGraph([(name, "categorical", 2) for name in names], edges, s, y)
    # every edge out of the sensitive node or one of its descendants
    on_path = frozenset(e for e in edges if e[0] != names[0])
    assert len(on_path) == 120

    total = total_path_set(g)
    indirect = indirect_path_set(g)
    direct = direct_path_set(g)
    counterfactual = counterfactual_path_set(g, [(names[0], "1")])
    assert total.on_pi_edges == counterfactual.on_pi_edges == on_path
    assert indirect.on_pi_edges == on_path - {(s, y)}
    assert direct.on_pi_edges == {(s, y)}
    for ps in (total, indirect, direct, counterfactual):
        validate_path_set(g, ps)
    assert pi_active_nodes(g, total) == pi_active_nodes(g, indirect) == set(names[1:])
    assert pi_active_nodes(g, direct) == {s, y}
    chain = PathSet("path_specific", frozenset({(names[0], s), (s, "v5"), ("v5", y)}))
    assert pi_active_nodes(g, chain) == {s, "v5", y}
    assert g.outcome_ancestry() == tuple(names)
