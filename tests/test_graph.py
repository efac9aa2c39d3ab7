import pytest

from fairweigh.graph import (
    CausalGraph,
    GraphError,
    PathSet,
    counterfactual_path_set,
    direct_path_set,
    enumerate_paths,
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


def test_enumerate_paths_diamond(diamond_graph):
    paths = enumerate_paths(diamond_graph)
    assert set(paths) == {(("s", "y"),), (("s", "b"), ("b", "y"))}

    def node_sequence(path):
        return [diamond_graph.topo_index[path[0][0]]] + [
            diamond_graph.topo_index[child] for _, child in path
        ]

    assert paths == sorted(paths, key=node_sequence)


def test_enumerate_paths_two_hop_diamond():
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
    paths = enumerate_paths(g)
    assert len(paths) == 3
    assert (("s", "y"),) in paths
    assert (("s", "b1"), ("b1", "y")) in paths
    assert (("s", "b2"), ("b2", "y")) in paths
    pi = indirect_path_set(g)
    assert pi.on_pi_edges == {("s", "b1"), ("b1", "y"), ("s", "b2"), ("b2", "y")}


def test_enumerate_paths_unreachable(no_path_graph):
    assert enumerate_paths(no_path_graph) == []
    assert not no_path_graph.has_effect_path


def test_path_cap():
    with pytest.raises(GraphError, match="paths"):
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
        enumerate_paths(g, max_paths=0)


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
    assert enumerate_paths(g) == [(("s", "y"),)]
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
    before = set(enumerate_paths(diamond_graph))
    kept_edges = [e for e in diamond_graph.edges if e not in pi.on_pi_edges]
    pruned = CausalGraph(diamond_graph.nodes, kept_edges, "s", "y")
    after = set(enumerate_paths(pruned))
    selected = {p for p in before if all(e in pi.on_pi_edges for e in p)}
    assert after == before - selected
    assert selected and after


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
