"""Property test: the graph and SCM parsers reject any malformed document
with a GraphError, never with another exception."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fairweigh.graph import GraphError, parse_graph  # noqa: E402
from fairweigh.synth import parse_scm  # noqa: E402

# A valid SCM document, section by section, and near misses for each section.
VALID = {
    "nodes": ["a continuous", "s categorical 2", "y categorical 2"],
    "edges": ["a -> s", "s -> y"],
    "roles": ["sensitive s", "outcome y"],
    "functions": [
        "a = normal(0, 1)",
        "s = bernoulli(logistic(0.5*a))",
        "y = bernoulli(logistic(s - 1e-2))",
    ],
}
NEAR_MISSES = {
    "nodes": ["y categorical 3", "s categorical two", "a continuous 2", "a discrete"],
    "edges": ["y -> a", "s -> s", "a ->", "a -> zz", "a - s"],
    "roles": ["sensitive zz", "outcome", "outcome s", "sensitive y"],
    "functions": [
        "a = normal(0, abc)",
        "a = normal(0, -1)",
        "a = normal(0, 1e999)",
        "a = normal(abc, 1)",
        "a = normal(s, 1)",
        "s = bernoulli(logistic(2 ** a))",
        "y = bernoulli(0.5)",
        "y = bernoulli(x*s)",
        "y = poisson(1)",
        "y bernoulli(0.5)",
    ],
}


@st.composite
def documents(draw):
    """The valid document after a few edits: a line replaced by a near miss
    of its section or by junk, a line dropped or inserted, or a section
    header renamed."""
    sections = [[name, list(body)] for name, body in VALID.items()]
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sections))
        name, body = section
        line = draw(st.sampled_from(NEAR_MISSES.get(name, ["#"])) | st.text(max_size=24))
        edit = draw(st.sampled_from(["replace", "drop", "insert", "rename"]))
        where = draw(st.integers(0, len(body)))
        if edit == "replace" and where < len(body):
            body[where] = line
        elif edit == "drop" and where < len(body):
            body.pop(where)
        elif edit == "insert":
            body.insert(where, line)
        elif edit == "rename":
            section[0] = draw(st.sampled_from(["other", "", "Nodes", "functions"]))
    return "\n".join(f"[{name}]\n" + "\n".join(body) for name, body in sections)


@settings(max_examples=400)
@given(st.one_of(documents(), st.text(max_size=200)))
def test_parsers_raise_only_graph_errors(text):
    for parse in (parse_graph, parse_scm):
        try:
            parse(text)
        except GraphError:
            pass
