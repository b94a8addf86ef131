"""Ordered edge tables: the instance graphs of the Theorem 40 recursion.

Every instance the 2-respecting recursion builds -- the between-subtree
and Lemma 43 component instances (Section 9), the contracted stars
(Section 8), the matched path pairs (Section 7) and the ``G_up`` /
``G_down`` halves of the Monge recursion (Section 6) -- is a list of
nonzero ``(u, v, w)`` triples, one per undirected edge, with no
self-loops.  :func:`assemble` is the one builder.

**The order invariant.**  A table lists its edges exactly as
``networkx.Graph.edges()`` would for the graph built by
``add_nodes_from(nodes)``, a zero-weight ``add_edge`` per structural edge,
then ``add_edge`` / ``weight += w`` per contribution: by the earlier
endpoint's node-insertion position, then by the edge's first insertion,
each edge oriented from its earlier endpoint, parallel contributions
summed in insertion order.  The order is load-bearing, not cosmetic:
interest lists (Lemma 32) fold Misra-Gries sketches edge by edge, and once
a sketch overflows its capacity the decrements depend on that order; the
lists decide which path pairs run and are charged, so a reordered table
can change the round ledger even when every cut value agrees.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.graphs.csr import CSRGraph

Node = Hashable
#: ``[(u, v, w), ...]`` -- nonzero weights, no self-loops, in the order
#: described in the module docstring.
EdgeTable = list


def assemble(
    nodes: Iterable[Node],
    structural_edges: Iterable[tuple[Node, Node]],
    contributions: Iterable[tuple[Node, Node, float]],
) -> EdgeTable:
    """The ordered table of one instance graph.

    ``nodes`` fix the node-insertion order (repeats are ignored, as are
    endpoints already placed); ``structural_edges`` are the zero-weight
    tree edges that make the instance a graph; ``contributions`` add
    weight edge by edge.  Endpoints first seen in an edge are placed then
    (``u`` before ``v``).  Self-loop contributions are skipped entirely,
    and edges whose final weight is zero are left out of the table.
    """
    position: dict = {}
    for node in nodes:
        if node not in position:
            position[node] = len(position)
    place = position.get
    weight: dict = {}
    for u, v in structural_edges:
        pu = place(u)
        if pu is None:
            pu = position[u] = len(position)
        pv = place(v)
        if pv is None:
            pv = position[v] = len(position)
        if pu != pv:
            key = (u, v) if pu < pv else (v, u)
            if key not in weight:
                weight[key] = 0
    current = weight.get
    for u, v, w in contributions:
        if u == v:
            continue
        pu = place(u)
        if pu is None:
            pu = position[u] = len(position)
        pv = place(v)
        if pv is None:
            pv = position[v] = len(position)
        key = (u, v) if pu < pv else (v, u)
        total = current(key)
        weight[key] = w if total is None else total + w
    # Stable: edges sharing an earlier endpoint keep first-insertion order.
    ordered = sorted(weight.items(), key=lambda item: position[item[0][0]])
    return [(a, b, w) for (a, b), w in ordered if w != 0]


def chains(root: Node, paths: Iterable[Iterable[Node]]) -> list[tuple[Node, Node]]:
    """Structural edges hanging each path off ``root`` as a chain (root to
    first node, then node to node), path by path."""
    edges = []
    for path in paths:
        previous = root
        for node in path:
            edges.append((previous, node))
            previous = node
    return edges


def edge_table(graph, labelled: bool = False) -> EdgeTable:
    """A graph's ordered table, read once.

    A table passes through unchanged.  A networkx graph (duck-typed) is
    read in ``edges()`` order, unweighted edges counting 1.  A
    :class:`~repro.graphs.csr.CSRGraph` is read straight from its
    canonical edge arrays, in index space (as
    :meth:`~repro.kernel.cut_kernel.GraphArrays.from_csr`), or over its
    node labels when ``labelled``: either way exactly what
    ``csr.to_networkx().edges()`` enumerates for the graph's labels,
    integral weights as Python ints.
    """
    if isinstance(graph, list):
        return graph
    if isinstance(graph, CSRGraph):
        return _csr_edge_table(graph, labelled)
    return [
        (u, v, w)
        for u, v, w in graph.edges(data="weight", default=1)
        if w != 0 and u != v
    ]


def _csr_edge_table(csr: CSRGraph, labelled: bool) -> EdgeTable:
    keep = (csr.edge_u != csr.edge_v) & (csr.edge_w != 0)
    us = csr.edge_u[keep].tolist()
    vs = csr.edge_v[keep].tolist()
    ws = csr.edge_w[keep].tolist()
    if csr.int_weights:
        ws = [int(w) for w in ws]
    if labelled and csr.nodes is not None:
        labels = csr.nodes
        us = [labels[u] for u in us]
        vs = [labels[v] for v in vs]
    return list(zip(us, vs, ws))
