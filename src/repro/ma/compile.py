"""Executable Theorem 17: one Minor-Aggregation round, run in CONGEST.

The proof of Theorem 17 reduces a Minor-Aggregation round to O(1) instances
of the *part-wise aggregation* problem on the supernode partition.  This
module executes that reduction for real on the CONGEST simulator:

1. every supernode (= connected component of contracted edges) elects a
   leader and builds an intra-part BFS tree (flooding restricted to part
   edges);
2. consensus: convergecast the inputs to the leader (operator fold),
   broadcast the folded value back;
3. aggregation: endpoints of minor edges exchange consensus values (one
   round), the lexicographically smaller endpoint evaluates the edge unit's
   message function, and the z-values are convergecast/broadcast like step 2.

Part-wise aggregation is solved here by naive in-part flooding, so the
measured CONGEST cost per MA round is Θ(max induced part diameter) --
exactly the quantity low-congestion shortcuts replace by Õ(SQ(G))
(see :mod:`repro.shortcuts`).  The test suite asserts the outcome equals
the Minor-Aggregation engine's result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.congest.network import CongestNetwork, NodeContext, NodeProgram
from repro.ma.engine import MARoundResult, MinorAggregationEngine, node_order_key
from repro.ma.operators import Operator
from repro.trees.rooted import edge_key

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx

Node = Hashable


def _node_key(node: Node) -> tuple[str, str]:
    # Leader election floods (type, str) tuples -- a deterministic total
    # order is all it needs; supernode *ids* use node_order_key below.
    return (type(node).__name__, str(node))


@dataclass
class CompiledRoundResult:
    """The MA round outcome plus the measured CONGEST cost."""

    result: MARoundResult
    congest_rounds: int
    messages: int
    max_part_diameter: int


class _PartwiseProgram(NodeProgram):
    """Leader election + BFS + convergecast + broadcast, within parts.

    Phases are synchronised by round counting (each phase has a fixed
    budget of ``phase_len`` rounds, enough for any intra-part distance).
    """

    def __init__(
        self,
        graph: nx.Graph,
        in_part: Callable[[Node, Node], bool],
        inputs: dict[Node, Any],
        op: Operator,
        phase_len: int,
    ):
        self.graph = graph
        self.in_part = in_part
        self.inputs = inputs
        self.op = op
        self.phase_len = phase_len

    # -- helpers -------------------------------------------------------
    def _part_neighbors(self, ctx: NodeContext) -> list[Node]:
        return [v for v in ctx.neighbors if self.in_part(ctx.node, v)]

    def start(self, ctx: NodeContext):
        ctx.state.update(
            round=0,
            done=False,  # phased program: survives silent gaps
            leader=_node_key(ctx.node) + (ctx.node,),
            parent=None,
            acc=self.inputs.get(ctx.node, self.op.identity()),
            children=set(),
            value=None,
        )
        # Phase A (leader election): flood min ID within the part.
        return {v: ctx.state["leader"] for v in self._part_neighbors(ctx)}

    def round(self, ctx: NodeContext, received):
        state = ctx.state
        state["round"] += 1
        r = state["round"]
        part_nbrs = self._part_neighbors(ctx)
        phase = self.phase_len

        # Phase D messages can arrive while the sender's neighbors are still
        # counting down earlier phases: adopt-and-forward takes priority.
        if state["value"] is None:
            for sender, message in received.items():
                if isinstance(message, tuple) and message[0] == "down":
                    state["value"] = message[1]
                    state["done"] = True
                    return {
                        v: ("down", state["value"])
                        for v in part_nbrs
                        if v != sender
                    }
        if state["value"] is not None:
            state["done"] = True
            return {}

        if r < phase:  # Phase A continues: min-ID flooding.
            improved = False
            for candidate in received.values():
                if tuple(candidate[:2]) < tuple(state["leader"][:2]):
                    state["leader"] = candidate
                    improved = True
            if improved:
                return {v: state["leader"] for v in part_nbrs}
            return {}

        if r == phase:  # Phase B kickoff: leader starts the BFS.
            if state["leader"][2] == ctx.node:
                state["bfs_done"] = True
                return {v: ("bfs", ctx.node) for v in part_nbrs}
            return {}

        if r < 2 * phase:  # Phase B: BFS flooding.
            if not state.get("bfs_done"):
                for sender, message in received.items():
                    if isinstance(message, tuple) and message[0] == "bfs":
                        state["parent"] = sender
                        state["bfs_done"] = True
                        return {
                            v: ("bfs", ctx.node)
                            for v in part_nbrs
                            if v != sender
                        }
            else:
                for sender, message in received.items():
                    if isinstance(message, tuple) and message[0] == "bfs":
                        pass  # late arrivals: already attached elsewhere
            return {}

        if r == 2 * phase:  # Phase C kickoff: everyone reports children.
            parent = state.get("parent")
            if parent is not None:
                return {parent: ("child", ctx.node)}
            return {}

        if r == 2 * phase + 1:  # record children, leaves start convergecast
            for sender, message in received.items():
                if isinstance(message, tuple) and message[0] == "child":
                    state["children"].add(sender)
            state["pending"] = set(state["children"])
            if not state["pending"] and state.get("parent") is not None:
                state["sent_up"] = True
                return {state["parent"]: ("up", state["acc"])}
            return {}

        if r < 3 * phase + 2:  # Phase C: convergecast the fold.
            for sender, message in received.items():
                if isinstance(message, tuple) and message[0] == "up":
                    state["acc"] = self.op.combine(state["acc"], message[1])
                    state["pending"].discard(sender)
            if (
                not state["pending"]
                and not state.get("sent_up")
                and state.get("parent") is not None
            ):
                state["sent_up"] = True
                return {state["parent"]: ("up", state["acc"])}
            if (
                state.get("parent") is None
                and not state["pending"]
                and not state.get("announced")
                and r >= 3 * phase
            ):
                # Leader announces the folded value (phase D kickoff).
                state["announced"] = True
                state["value"] = state["acc"]
                state["done"] = True
                return {v: ("down", state["value"]) for v in part_nbrs}
            return {}

        # Past all phase windows: a leader that is also the whole part.
        if (
            state.get("parent") is None
            and not state.get("announced")
            and state["value"] is None
        ):
            state["announced"] = True
            state["value"] = state["acc"]
            state["done"] = True
            return {v: ("down", state["value"]) for v in part_nbrs}
        return {}


def _partwise_aggregate_congest(
    graph: nx.Graph,
    supernode: dict[Node, Node],
    inputs: dict[Node, Any],
    op: Operator,
    enforce_message_size: bool = False,
) -> tuple[dict[Node, Any], int, int]:
    """Solve part-wise aggregation by in-part flooding; returns
    (value per node, measured rounds, messages)."""
    import networkx as nx

    in_part = lambda u, v: supernode[u] == supernode[v]
    # Budget: the largest induced part diameter (what naive PA costs).
    diameter = 1
    for part in set(supernode.values()):
        nodes = [v for v in graph.nodes() if supernode[v] == part]
        sub = graph.subgraph(nodes)
        if sub.number_of_nodes() > 1:
            diameter = max(diameter, nx.diameter(sub))
    phase_len = diameter + 2
    network = CongestNetwork(
        graph, enforce_message_size=enforce_message_size
    )
    contexts = network.run(
        lambda: _PartwiseProgram(graph, in_part, inputs, op, phase_len),
        max_rounds=5 * phase_len + 8,
    )
    values = {v: contexts[v].state["value"] for v in graph.nodes()}
    return values, network.rounds_executed, network.messages_sent


def compile_ma_round(
    graph: nx.Graph,
    contract: set | None = None,
    node_input: dict[Node, Any] | None = None,
    consensus_op: Operator | None = None,
    edge_message: Callable | None = None,
    aggregate_op: Operator | None = None,
) -> CompiledRoundResult:
    """Execute one Minor-Aggregation round end-to-end in CONGEST.

    Same interface as :meth:`MinorAggregationEngine.round` (dict inputs);
    the returned :class:`MARoundResult` is validated by the test suite to
    equal the engine's output exactly.
    """
    import networkx as nx

    contracted = {edge_key(u, v) for (u, v) in (contract or set())}
    uf = nx.utils.UnionFind(graph.nodes())
    for u, v in contracted:
        uf.union(u, v)
    groups: dict[Node, list[Node]] = {}
    for node in graph.nodes():
        groups.setdefault(uf[node], []).append(node)
    supernode = {}
    for members in groups.values():
        # Same "minimum member ID" rule as the engine: natural per-type
        # order (9 before 10 for integer labels), not string order.
        sid = min(members, key=node_order_key)
        for member in members:
            supernode[member] = sid

    total_rounds = 0
    total_messages = 0
    max_diameter = 0
    for part in set(supernode.values()):
        nodes = [v for v in graph.nodes() if supernode[v] == part]
        sub = graph.subgraph(nodes)
        if sub.number_of_nodes() > 1:
            max_diameter = max(max_diameter, nx.diameter(sub))

    consensus: dict[Node, Any] = {}
    if consensus_op is not None:
        inputs = {
            v: (node_input or {}).get(v, consensus_op.identity())
            for v in graph.nodes()
        }
        consensus, rounds, messages = _partwise_aggregate_congest(
            graph, supernode, inputs, consensus_op
        )
        total_rounds += rounds
        total_messages += messages

    aggregate: dict[Node, Any] = {}
    if aggregate_op is not None and edge_message is not None:
        # One exchange round: endpoints of every edge swap consensus values.
        total_rounds += 1
        total_messages += 2 * graph.number_of_edges()
        z_inputs: dict[Node, Any] = {
            v: aggregate_op.identity() for v in graph.nodes()
        }
        for u, v in graph.edges():
            if supernode[u] == supernode[v]:
                continue  # minor self-loop: removed
            edge = edge_key(u, v)
            z_u, z_v = edge_message(
                edge, u, v, consensus.get(u), consensus.get(v)
            )
            # The smaller endpoint simulates the edge unit and hands each
            # side its value (u already holds z_u locally; z_v crosses the
            # edge -- accounted in the exchange round above).
            z_inputs[u] = aggregate_op.combine(z_inputs[u], z_u)
            z_inputs[v] = aggregate_op.combine(z_inputs[v], z_v)
        aggregate, rounds, messages = _partwise_aggregate_congest(
            graph, supernode, z_inputs, aggregate_op
        )
        total_rounds += rounds
        total_messages += messages

    result = MARoundResult(
        supernode=supernode, consensus=consensus, aggregate=aggregate
    )
    return CompiledRoundResult(
        result=result,
        congest_rounds=total_rounds,
        messages=total_messages,
        max_part_diameter=max_diameter,
    )
