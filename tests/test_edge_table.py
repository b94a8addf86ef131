"""Ordered edge tables: ``assemble`` against networkx as the reference.

The recursion's instance tables must enumerate edges exactly as the
equivalent ``nx.Graph`` would (see :mod:`repro.core.edge_table` for why
the order matters), so networkx stays the independent oracle here.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.edge_table import assemble, edge_table
from repro.graphs import CSR_FAMILY_BUILDERS
from repro.graphs.csr import CSRGraph

nodes = st.integers(0, 9) | st.sampled_from(["a", "b", ("v", 1), ("v", 2)])
weights = st.integers(0, 4) | st.sampled_from([0.5, 2.25])


def reference(order, structural, contributions) -> list:
    """The old builder sequence: add_nodes_from, a zero-weight add_edge per
    new structural edge, then add_edge / += per non-loop contribution."""
    graph = nx.Graph()
    graph.add_nodes_from(order)
    for u, v in structural:
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, weight=0)
    for u, v, w in contributions:
        if u == v:
            continue
        if graph.has_edge(u, v):
            graph[u][v]["weight"] += w
        else:
            graph.add_edge(u, v, weight=w)
    return [(u, v, w) for u, v, w in graph.edges(data="weight") if w != 0]


@settings(max_examples=300, deadline=None)
@given(
    order=st.lists(nodes, max_size=8),
    structural=st.lists(st.tuples(nodes, nodes), max_size=10),
    contributions=st.lists(st.tuples(nodes, nodes, weights), max_size=25),
)
def test_assemble_matches_networkx_order(order, structural, contributions):
    table = assemble(order, structural, contributions)
    assert table == reference(order, structural, contributions)
    # Orientation and weight types are part of the contract too.
    assert [tuple(map(repr, e)) for e in table] == [
        tuple(map(repr, e)) for e in reference(order, structural, contributions)
    ]


def test_assemble_drops_zero_and_structural_only_edges():
    table = assemble([0, 1, 2], [(0, 1), (1, 2)], [(2, 1, 3), (0, 2, 0), (1, 1, 5)])
    assert table == [(1, 2, 3)]


def test_edge_table_reads_networkx_once_in_order():
    graph = nx.Graph()
    graph.add_edge(3, 1, weight=2)
    graph.add_edge(1, 2)
    graph.add_edge(2, 2, weight=7)
    graph.add_edge(3, 0, weight=0)
    assert edge_table(graph) == [(3, 1, 2), (1, 2, 1)]
    table = edge_table(graph)
    assert edge_table(table) is table


def test_csr_edge_table_matches_networkx_view():
    for family, build in CSR_FAMILY_BUILDERS.items():
        csr = build(20, 3)
        assert edge_table(csr) == edge_table(csr.to_networkx()), family
    floats = CSRGraph(3, np.array([0, 1, 0]), np.array([1, 2, 2]),
                      np.array([0.5, 0.0, 2.0]))
    assert edge_table(floats) == edge_table(floats.to_networkx())
