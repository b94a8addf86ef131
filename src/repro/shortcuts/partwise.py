"""The part-wise aggregation (PA) problem (paper, proof of Theorem 17).

Given disjoint connected parts and a private input per node, every node of
part ``P_i`` must learn the aggregate of its part's inputs.  Solving PA is
exactly what one Minor-Aggregation round compiles down to; with shortcuts of
quality ``Q`` it costs Õ(Q) CONGEST rounds, while the naive in-part flooding
costs the largest *induced* part diameter -- which can be Θ(n) even when
``Q`` is tiny (the classic motivation for shortcuts).

Both costs are measured here so benchmarks can show the gap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.shortcuts.quality import ShortcutAssignment, greedy_shortcuts

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx

Node = Hashable


def _induced_diameter(graph: nx.Graph, part: set) -> int:
    import networkx as nx

    sub = graph.subgraph(part)
    if sub.number_of_nodes() <= 1:
        return 0
    if not nx.is_connected(sub):
        raise ValueError("parts must induce connected subgraphs")
    return nx.diameter(sub)


def partwise_aggregation_rounds(
    graph: nx.Graph,
    parts: list[set],
    assignment: ShortcutAssignment | None = None,
) -> dict[str, int]:
    """Round costs of part-wise aggregation, naive vs shortcut-assisted.

    * ``naive``: flooding within each induced part, max induced diameter;
    * ``shortcut``: flooding within ``G[V_i] + H_i`` (the assignment's
      dilation), times the congestion (edges shared by that many parts are
      time-multiplexed) -- the standard Õ(dilation * congestion) bound, with
      the product reported explicitly.
    """
    naive = max((_induced_diameter(graph, part) for part in parts), default=0)
    if assignment is None:
        assignment = greedy_shortcuts(graph, parts)
    shortcut_cost = assignment.dilation * max(1, assignment.congestion)
    return {
        "naive": naive,
        "shortcut_dilation": assignment.dilation,
        "shortcut_congestion": assignment.congestion,
        "shortcut": shortcut_cost,
        "quality": assignment.quality,
    }
