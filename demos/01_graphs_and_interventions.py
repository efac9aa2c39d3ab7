"""Walk through the graph layer: parsing, surgery, and path selection.

The running example is a four-variable graph: a root cause feeds both the
sensitive attribute and the outcome, and a mediator sits on the indirect
route between them.
"""

from fairweigh import (
    direct_path_set,
    indirect_path_set,
    intervention_surgery,
    parse_graph,
    total_path_set,
)
from fairweigh.graph import pi_active_nodes

DOC = """
[nodes]
background continuous
sensitive  categorical 2
mediator   continuous
outcome    categorical 2

[edges]
background -> sensitive
background -> outcome
sensitive  -> mediator
sensitive  -> outcome
mediator   -> outcome

[roles]
sensitive sensitive
outcome   outcome
"""

graph = parse_graph(DOC)
print(graph)
print("topological order:", " -> ".join(graph.topo_order))
print("roots:", graph.roots)

print("\nAn intervention replaces the sensitive mechanism with a constant,")
print("so its incoming edges disappear:")
cut = intervention_surgery(graph)
print("  before:", sorted(graph.edges))
print("  after: ", sorted(cut.edges))

print("\nPath selections for the three fairness notions: the edges that carry")
print("the intervention, and the nodes on the selected sensitive-to-outcome paths:")
for label, selection in (
    ("total", total_path_set(graph)),
    ("direct only", direct_path_set(graph)),
    ("indirect only", indirect_path_set(graph)),
):
    print(f"  {label + ':':15}edges {sorted(selection.on_pi_edges)}")
    print(f"  {'':15}nodes {sorted(pi_active_nodes(graph, selection))}")
