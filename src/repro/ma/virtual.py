"""Virtual nodes: the paper's extension of Minor-Aggregation (Section 4.1).

A :class:`VirtualGraph` extends an underlying communication network ``G``
with ``beta`` arbitrarily-connected virtual nodes (Definition 13).  Theorem 14
shows any Minor-Aggregation algorithm on the virtual graph can be simulated
on ``G`` with an ``O(beta + 1)`` multiplicative round overhead; Lemma 15
additionally lets us *replace* a real node by a virtual copy (merging
parallel edges by weight).

The simulator runs algorithms directly on the extended topology and charges
the Theorem-14 overhead through the accountant's
:meth:`~repro.accounting.RoundAccountant.virtual_overhead` scope; this module
provides the bookkeeping (which nodes are virtual, storage rules, and the
overhead factor).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Hashable, Iterable

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx

_virtual_counter = itertools.count()


def fresh_virtual_id(prefix: str = "virt") -> tuple[str, int]:
    """A globally unique, hashable ID for a new virtual node."""
    return (f"__{prefix}__", next(_virtual_counter))


class VirtualGraph:
    """A graph ``G_virt`` extending a base graph with virtual nodes.

    Storage rules of the paper are represented implicitly: a virtual edge
    between a real node ``u`` and a virtual node is "known to ``u``" (it is
    an incident edge of ``u`` in :attr:`graph`), and virtual-virtual edges
    are globally known.
    """

    def __init__(self, base: nx.Graph, virtual_nodes: Iterable[Hashable] = ()):
        self.graph = base.copy()
        self.virtual_nodes: set[Hashable] = set(virtual_nodes)
        missing = self.virtual_nodes - set(self.graph.nodes())
        for node in missing:
            self.graph.add_node(node)

    @property
    def beta(self) -> int:
        """Number of virtual nodes (the Theorem 14 overhead parameter)."""
        return len(self.virtual_nodes)

    @property
    def overhead_factor(self) -> int:
        """Theorem 14's multiplicative simulation cost, ``O(beta + 1)``."""
        return self.beta + 1

    def real_subgraph(self) -> nx.Graph:
        """``G_virt - Virt``: the underlying communication network part."""
        return self.graph.subgraph(
            [n for n in self.graph.nodes() if n not in self.virtual_nodes]
        ).copy()

    def real_part_connected(self) -> bool:
        """Whether virtual nodes can be eliminated without cascade (the
        de-virtualization precondition used in Lemma 23 and Theorem 40)."""
        import networkx as nx

        real = self.real_subgraph()
        return real.number_of_nodes() > 0 and nx.is_connected(real)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_virtual_node(self, node: Hashable | None = None) -> Hashable:
        if node is None:
            node = fresh_virtual_id()
        if node in self.graph:
            raise ValueError(f"node {node!r} already present")
        self.graph.add_node(node)
        self.virtual_nodes.add(node)
        return node

    def add_virtual_edge(self, u: Hashable, v: Hashable, weight: float) -> None:
        """Add (or merge, summing weights) an edge touching a virtual node."""
        if u not in self.virtual_nodes and v not in self.virtual_nodes:
            raise ValueError("at least one endpoint must be virtual")
        if self.graph.has_edge(u, v):
            self.graph[u][v]["weight"] += weight
        else:
            self.graph.add_edge(u, v, weight=weight)

    @classmethod
    def replace_node_with_virtual(
        cls, base: nx.Graph, node: Hashable, new_id: Hashable | None = None
    ) -> tuple["VirtualGraph", Hashable]:
        """Lemma 15: swap a real node for a virtual substitute.

        The substitute keeps exactly the neighbors of ``node``; parallel
        edges (impossible in a simple graph, but kept for API parity with
        the paper) would be merged by summing weights.  Costs O(1) rounds.
        """
        if node not in base:
            raise ValueError(f"node {node!r} not in graph")
        virtual_id = new_id if new_id is not None else fresh_virtual_id("sub")
        stripped = base.copy()
        neighbors = [
            (nbr, data.get("weight", 1)) for nbr, data in base[node].items()
        ]
        stripped.remove_node(node)
        vg = cls(stripped, [])
        vg.add_virtual_node(virtual_id)
        for nbr, weight in neighbors:
            vg.add_virtual_edge(virtual_id, nbr, weight)
        return vg, virtual_id
