"""The naive distributed baseline: collect the whole graph at a leader.

Every node forwards its incident-edge descriptors up a BFS tree, one
descriptor per edge per round (the CONGEST pipeline); the root then solves
the min-cut centrally.  The *measured* round count is Θ(m + D) -- the bar
that makes the paper's Õ(D + sqrt(n)) / Õ(D) guarantees meaningful, and the
series benchmark E11 reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable

from repro.baselines.stoer_wagner import stoer_wagner_min_cut
from repro.congest.algorithms import bfs_tree
from repro.congest.network import CongestNetwork, NodeContext, NodeProgram
from repro.trees.rooted import edge_key

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx

Node = Hashable


class _CollectProgram(NodeProgram):
    """Pipelined convergecast of edge descriptors to the root."""

    def __init__(self, root: Node, parents: dict[Node, Node | None], graph: nx.Graph):
        self.root = root
        self.parents = parents
        self.graph = graph

    def start(self, ctx: NodeContext):
        # Each edge is reported by its lexicographically-smaller endpoint.
        queue = []
        for neighbor in ctx.neighbors:
            edge = edge_key(ctx.node, neighbor)
            if edge[0] == ctx.node:
                weight = self.graph[ctx.node][neighbor].get("weight", 1)
                queue.append((edge[0], edge[1], weight))
        ctx.state["queue"] = queue
        ctx.state["collected"] = []
        ctx.state["done"] = False  # first sends happen in round 1
        return {}

    def round(self, ctx: NodeContext, received):
        for item in received.values():
            if item is not None:
                if ctx.node == self.root:
                    ctx.state["collected"].append(item)
                else:
                    ctx.state["queue"].append(item)
        if ctx.node == self.root:
            ctx.state["collected"].extend(ctx.state["queue"])
            ctx.state["queue"] = []
            ctx.state["done"] = True
            return {}
        if ctx.state["queue"]:
            item = ctx.state["queue"].pop(0)
            ctx.state["done"] = False
            return {self.parents[ctx.node]: item}
        ctx.state["done"] = True
        return {}


def naive_congest_min_cut(
    graph: nx.Graph,
    root: Node | None = None,
    faults=None,
    accountant=None,
) -> dict[str, Any]:
    """Run the collect-at-leader strategy; returns value + measured rounds.

    ``faults`` (a :class:`~repro.faults.FaultPlan`) runs both phases --
    the BFS tree and the edge convergecast -- over the reliable retry
    transport: the computed cut stays bit-identical to the lossless run
    and the extra physical rounds appear under ``transport``.
    """
    import networkx as nx

    if root is None:
        root = min(graph.nodes(), key=lambda v: (type(v).__name__, str(v)))
    network = CongestNetwork(graph)
    run_kwargs: dict = {}
    if faults is not None:
        run_kwargs["faults"] = faults
    if accountant is not None:
        run_kwargs["accountant"] = accountant
    parents = {
        v: info["parent"]
        for v, info in bfs_tree(network, root, **run_kwargs).items()
    }
    bfs_rounds = network.rounds_executed
    bfs_transport = dict(network.transport)
    contexts = network.run(
        lambda: _CollectProgram(root, parents, graph),
        max_rounds=8 * (graph.number_of_edges() + graph.number_of_nodes()) + 64,
        **run_kwargs,
    )
    collected = contexts[root].state["collected"]
    rebuilt = nx.Graph()
    rebuilt.add_nodes_from(graph.nodes())
    for u, v, w in collected:
        rebuilt.add_edge(u, v, weight=w)
    assert rebuilt.number_of_edges() == graph.number_of_edges(), (
        "leader did not receive the whole graph"
    )
    value, partition = stoer_wagner_min_cut(rebuilt)
    result = {
        "value": value,
        "partition": partition,
        "rounds": network.rounds_executed,
        "bfs_rounds": bfs_rounds,
        "messages": network.messages_sent,
    }
    if faults is not None:
        collect_transport = dict(network.transport)
        result["transport"] = {
            "physical_rounds": (
                bfs_transport.get("physical_rounds", 0)
                + collect_transport.get("physical_rounds", 0)
            ),
            "inner_rounds": (
                bfs_transport.get("inner_rounds", 0)
                + collect_transport.get("inner_rounds", 0)
            ),
            "retransmissions": (
                bfs_transport.get("retransmissions", 0)
                + collect_transport.get("retransmissions", 0)
            ),
            "bfs": bfs_transport,
            "collect": collect_transport,
        }
    return result
