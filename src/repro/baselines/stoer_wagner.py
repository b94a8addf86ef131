"""Stoer-Wagner exact weighted min-cut (centralized ground truth).

The classic maximum-adjacency-ordering algorithm: n-1 phases, each ending
with a "cut of the phase" (the last node's connectivity to the rest); the
minimum over phases is the global min-cut.  O(n m log n) with a lazy heap
(n-1 phases, each pushing once per edge relaxation), ample for the graph
sizes the simulator handles.

Implemented from scratch (not delegated to networkx) so the test suite can
cross-check two independent implementations against each other.
"""

from __future__ import annotations

import heapq
from typing import Hashable

import networkx as nx

from repro.graphs.csr import CSRGraph

Node = Hashable


def stoer_wagner_min_cut(
    graph: "nx.Graph | CSRGraph",
) -> tuple[float, tuple[frozenset, frozenset]]:
    """Exact minimum cut value and the corresponding node bipartition.

    Accepts a networkx graph or a :class:`CSRGraph` (dense-index node
    space; the adjacency dicts are seeded straight from the edge table).
    """
    if isinstance(graph, CSRGraph):
        n = graph.n
        if n < 2:
            raise ValueError("minimum cut needs at least two nodes")
        if not graph.is_connected():
            raise ValueError("graph must be connected")
        return csr_stoer_wagner(graph)

    n = graph.number_of_nodes()
    if n < 2:
        raise ValueError("minimum cut needs at least two nodes")
    if not nx.is_connected(graph):
        raise ValueError("graph must be connected")

    # Mutable weighted adjacency over supernodes; merged[v] tracks the
    # original nodes a supernode stands for.
    adjacency = {v: {} for v in graph.nodes()}
    for u, v, data in graph.edges(data=True):
        if u == v:
            continue
        weight = data.get("weight", 1)
        adjacency[u][v] = adjacency[u].get(v, 0) + weight
        adjacency[v][u] = adjacency[v].get(u, 0) + weight
    merged = {v: {v} for v in graph.nodes()}
    all_nodes = frozenset(graph.nodes())
    return _stoer_wagner(adjacency, merged, all_nodes)


def csr_stoer_wagner(
    graph: CSRGraph,
) -> tuple[float, tuple[frozenset, frozenset]]:
    """:func:`stoer_wagner_min_cut` on a CSR graph the caller has already
    checked to be connected with at least two nodes (the session's
    ``stoer-wagner`` solver, whose input validation ran once up front).
    """
    n = graph.n
    adjacency: dict[Node, dict[Node, float]] = {v: {} for v in range(n)}
    for u, v, weight in zip(
        graph.edge_u.tolist(), graph.edge_v.tolist(), graph.edge_w.tolist()
    ):
        if u == v:
            continue
        adjacency[u][v] = adjacency[u].get(v, 0) + weight
        adjacency[v][u] = adjacency[v].get(u, 0) + weight
    merged: dict[Node, set] = {v: {v} for v in range(n)}
    all_nodes = frozenset(range(n))
    return _stoer_wagner(adjacency, merged, all_nodes)


def _stoer_wagner(
    adjacency: dict[Node, dict[Node, float]],
    merged: dict[Node, set],
    all_nodes: frozenset,
) -> tuple[float, tuple[frozenset, frozenset]]:

    best_value = float("inf")
    best_side: frozenset = frozenset()
    # Heap tie-break: historically (-w, str(node), node).  Ranks computed
    # once reproduce the same pop order -- the rank sorts exactly like the
    # string, is unique per node (so the node itself is never compared),
    # and integer comparisons beat per-push str() construction, which
    # dominated the profile.
    str_rank = {
        node: rank for rank, node in enumerate(sorted(adjacency, key=str))
    }

    while len(adjacency) > 1:
        # Maximum adjacency ordering from an arbitrary start.
        start = next(iter(adjacency))
        in_order = {start}
        connectivity = {
            node: weight for node, weight in adjacency[start].items()
        }
        heap = [(-w, str_rank[node], node) for node, w in connectivity.items()]
        heapq.heapify(heap)
        order = [start]
        while len(in_order) < len(adjacency):
            while True:
                negw, _rank, node = heapq.heappop(heap)
                if node not in in_order and connectivity.get(node) == -negw:
                    break
            in_order.add(node)
            order.append(node)
            for neighbor, weight in adjacency[node].items():
                if neighbor in in_order:
                    continue
                connectivity[neighbor] = connectivity.get(neighbor, 0) + weight
                heapq.heappush(
                    heap, (-connectivity[neighbor], str_rank[neighbor], neighbor)
                )
        last, second_last = order[-1], order[-2]
        phase_cut = sum(adjacency[last].values())
        if phase_cut < best_value:
            best_value = phase_cut
            best_side = frozenset(merged[last])
        # Merge `last` into `second_last`.
        for neighbor, weight in adjacency[last].items():
            if neighbor == second_last:
                continue
            adjacency[second_last][neighbor] = (
                adjacency[second_last].get(neighbor, 0) + weight
            )
            adjacency[neighbor][second_last] = adjacency[second_last][neighbor]
            del adjacency[neighbor][last]
        adjacency[second_last].pop(last, None)
        del adjacency[last]
        merged[second_last] |= merged[last]
        del merged[last]

    other = frozenset(all_nodes - best_side)
    return best_value, (best_side, other)
