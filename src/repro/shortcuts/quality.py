"""Empirical shortcut construction and quality measurement.

Given a partition of ``V`` into connected parts ``V_1..V_N`` (the paper's
Section 1 definition), a shortcut assigns each part a helper subgraph
``H_i``; its *quality* is ``max(dilation, congestion)`` where dilation is
the largest diameter of ``G[V_i] + H_i`` and congestion the largest number
of helper subgraphs any edge appears in.

:func:`greedy_shortcuts` builds each ``H_i`` as a BFS shortest-path tree of
``G`` spanning the part (computed from the part's most central member),
preferring low-congestion edges.  The achieved quality is an upper bound on
``SQ(G)`` for that partition; benchmark E12 compares it across families
against the paper's existential ``D + sqrt(n)`` bound and the Õ(D) bound
for planar graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.trees.rooted import edge_key

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx

Node = Hashable


@dataclass
class ShortcutAssignment:
    parts: list[set]
    helpers: list[set]  # edge sets H_i (canonical keys)
    dilation: int
    congestion: int

    @property
    def quality(self) -> int:
        return max(self.dilation, self.congestion)


def random_connected_partition(
    graph: nx.Graph, num_parts: int, seed: int = 0
) -> list[set]:
    """Partition V into connected parts by multi-source BFS growth.

    This is the adversarial shape shortcuts exist for: parts that sprawl
    through each other (e.g. the supernodes formed by MST/min-cut
    contraction phases).
    """
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    rng.shuffle(nodes)
    num_parts = max(1, min(num_parts, len(nodes)))
    seeds = nodes[:num_parts]
    owner = {s: i for i, s in enumerate(seeds)}
    frontier = list(seeds)
    while frontier:
        nxt = []
        rng.shuffle(frontier)
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in owner:
                    owner[neighbor] = owner[node]
                    nxt.append(neighbor)
        frontier = nxt
    parts: dict[int, set] = {}
    for node, part in owner.items():
        parts.setdefault(part, set()).add(node)
    return list(parts.values())


def _part_center(graph: nx.Graph, part: set) -> Node:
    """Member minimizing eccentricity w.r.t. the part (BFS from a sample)."""
    import networkx as nx

    sample = sorted(part, key=lambda v: (type(v).__name__, str(v)))[0]
    distances = nx.single_source_shortest_path_length(graph, sample)
    return min(part, key=lambda v: (distances.get(v, 0), str(v)))


def greedy_shortcuts(graph: nx.Graph, parts: list[set]) -> ShortcutAssignment:
    """Build one BFS shortest-path helper tree per part and measure quality."""
    import networkx as nx

    congestion_of: dict[tuple, int] = {}
    helpers: list[set] = []
    dilation = 0
    for part in parts:
        center = _part_center(graph, part)
        # BFS tree from the center, preferring low-congestion edges.
        parent: dict[Node, Node] = {center: None}
        queue = [center]
        while queue:
            nxt = []
            for node in queue:
                neighbors = sorted(
                    graph.neighbors(node),
                    key=lambda v: (
                        congestion_of.get(edge_key(node, v), 0),
                        str(v),
                    ),
                )
                for neighbor in neighbors:
                    if neighbor not in parent:
                        parent[neighbor] = node
                        nxt.append(neighbor)
            queue = nxt
        helper: set = set()
        for member in part:
            current = member
            while current != center:
                edge = edge_key(current, parent[current])
                if edge in helper:
                    break
                helper.add(edge)
                current = parent[current]
        for edge in helper:
            congestion_of[edge] = congestion_of.get(edge, 0) + 1
        helpers.append(helper)
        # Dilation of G[V_i] + H_i.
        augmented = nx.Graph()
        augmented.add_nodes_from(part)
        augmented.add_edges_from(
            (u, v) for u, v in graph.subgraph(part).edges()
        )
        for u, v in helper:
            augmented.add_edge(u, v)
        if augmented.number_of_nodes() > 1:
            dilation = max(dilation, nx.diameter(augmented))
    congestion = max(congestion_of.values(), default=0)
    return ShortcutAssignment(
        parts=parts, helpers=helpers, dilation=dilation, congestion=congestion
    )


def shortcut_quality_upper_bound(
    graph: nx.Graph, num_parts: int | None = None, seed: int = 0
) -> int:
    """Measured quality of greedy shortcuts on a random connected partition."""
    if num_parts is None:
        num_parts = max(2, graph.number_of_nodes() // 4)
    parts = random_connected_partition(graph, num_parts, seed=seed)
    return greedy_shortcuts(graph, parts).quality
