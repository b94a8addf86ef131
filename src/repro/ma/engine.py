"""The Minor-Aggregation engine (paper Definition 9).

One round consists of three steps, executed faithfully:

1. **Contraction** — every edge picks a flag; contracted components become
   supernodes (identified with the minimum member ID, a detail the paper
   also relies on, e.g. Lemma 42).
2. **Consensus** — every node contributes an Õ(1)-bit input; every member of
   a supernode learns the operator-fold of its supernode's inputs.
3. **Aggregation** — every *edge of the contracted minor* sees the consensus
   values of both endpoints and emits one value toward each side; every
   supernode member learns the fold of the values directed at it.

Algorithms written against :meth:`MinorAggregationEngine.round` learn only
what round results reveal, which keeps them honest simulations.  Every
executed round is charged to the :class:`~repro.accounting.RoundAccountant`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from repro.accounting import RoundAccountant
from repro.errors import SolverError
from repro.graphs.csr import CSRGraph
from repro.ma.operators import FIRST, ArrayMessage, Operator, estimate_bits
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.trees.rooted import edge_key

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx

Node = Hashable
Edge = tuple


@dataclass
class MARoundResult:
    """Everything a node/edge legitimately learns from one round."""

    #: supernode id (minimum member id, natural per-type order) per node
    supernode: dict[Node, Node]
    #: consensus value of the node's supernode, per node
    consensus: dict[Node, Any]
    #: aggregation value of the node's supernode, per node
    aggregate: dict[Node, Any]

    def supernode_members(self) -> dict[Node, list[Node]]:
        members: dict[Node, list[Node]] = {}
        for node, sid in self.supernode.items():
            members.setdefault(sid, []).append(node)
        return members


class _NodeOrderKey:
    """Total order on arbitrary hashable node labels.

    Labels of different types are segregated by type name; within a type
    the *natural* ``<`` order applies (so integer labels compare
    numerically -- ``9 < 10``, not the string order ``"10" < "9"``), with
    a deterministic ``str`` fallback for same-typed values that don't
    support ``<`` themselves.
    """

    __slots__ = ("tname", "value")

    def __init__(self, value: Node):
        self.tname = type(value).__name__
        self.value = value

    def __lt__(self, other: "_NodeOrderKey") -> bool:
        if self.tname != other.tname:
            return self.tname < other.tname
        try:
            return self.value < other.value
        except TypeError:
            return str(self.value) < str(other.value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _NodeOrderKey)
            and self.tname == other.tname
            and self.value == other.value
        )


def node_order_key(node: Node) -> _NodeOrderKey:
    """Sort key implementing the supernode-id order (min *natural* member)."""
    return _NodeOrderKey(node)


def _stable_min(ids: Iterable[Node]) -> Node:
    return min(ids, key=node_order_key)


class MinorAggregationEngine:
    """Executes Minor-Aggregation rounds over a weighted graph.

    Parameters
    ----------
    graph:
        The communication topology -- a weighted networkx graph or a
        :class:`~repro.graphs.csr.CSRGraph` (node/edge enumerations are
        then derived from the flat indptr/edge arrays instead of dict
        scans).  Must stay fixed for the engine's lifetime (the *minor*
        changes per round via contraction flags).
    accountant:
        Ledger charged one round per :meth:`round` call.
    measure_bits:
        When true, every consensus input and edge message is size-audited
        against the Õ(1)-bit discipline (recorded, not enforced).
    """

    def __init__(
        self,
        graph: "nx.Graph | CSRGraph",
        accountant: RoundAccountant | None = None,
        measure_bits: bool = False,
    ):
        if isinstance(graph, CSRGraph):
            if graph.n == 0:
                raise ValueError("empty graph")
            if not graph.is_connected():
                raise ValueError("Minor-Aggregation requires a connected graph")
            labels = graph.node_labels()
            self.node_list: list[Node] = labels
            # Canonical edge-table order; self-loops are never minor edges.
            # Weights are captured alongside so per-edge hot paths never go
            # back through two index_of lookups per call.
            self.edge_list: list[tuple[Edge, Node, Node]] = []
            self._weight_of: dict[Edge, Any] = {}
            for a, b, w in zip(
                graph.edge_u.tolist(),
                graph.edge_v.tolist(),
                graph.edge_w.tolist(),
            ):
                if a == b:
                    continue
                edge = edge_key(labels[a], labels[b])
                self.edge_list.append((edge, labels[a], labels[b]))
                self._weight_of[edge] = float(w)
        else:
            if graph.number_of_nodes() == 0:
                raise ValueError("empty graph")
            import networkx as nx

            if not nx.is_connected(graph):
                raise ValueError("Minor-Aggregation requires a connected graph")
            self.node_list = list(graph.nodes())
            # Frozen once in graph.edges() order: the per-round edge walk
            # reuses precomputed canonical keys instead of re-deriving them.
            self.edge_list = []
            self._weight_of = {}
            for u, v in graph.edges():
                if u == v:
                    continue
                edge = edge_key(u, v)
                self.edge_list.append((edge, u, v))
                self._weight_of[edge] = graph[u][v].get("weight", 1)
        self.graph = graph
        self.n = len(self.node_list)
        self.acct = accountant or RoundAccountant()
        self.measure_bits = measure_bits
        self.rounds_executed = 0
        self._edge_keys: frozenset | None = None
        self._row_index: dict[Edge, int] | None = None

    def edge_keys(self) -> frozenset:
        """All canonical edge keys (cached; used by full-contraction rounds)."""
        if self._edge_keys is None:
            self._edge_keys = frozenset(edge for edge, _u, _v in self.edge_list)
        return self._edge_keys

    def edge_row_index(self) -> dict[Edge, int]:
        """Canonical edge key -> position in ``edge_list`` (cached)."""
        if self._row_index is None:
            self._row_index = {
                edge: i for i, (edge, _u, _v) in enumerate(self.edge_list)
            }
        return self._row_index

    def _closure_of_array_message(self, message: ArrayMessage):
        """Evaluate a declarative :class:`ArrayMessage` row by row.

        The closure engine's faithful reading of the array form: constant
        payloads index into the frozen ``edge_list`` order, consensus-built
        payloads apply the (elementwise) builder per edge.
        """
        message.check_length(len(self.edge_list))
        if message.build is not None:
            build = message.build

            def closure(edge, _u, _v, y_u, y_v):
                return build(y_u, y_v)

            return closure
        rows = self.edge_row_index()
        z_u = message.toward_u.tolist()
        z_v = message.toward_v.tolist()

        def closure(edge, _u, _v, _yu, _yv):
            row = rows[edge]
            return (z_u[row], z_v[row])

        return closure

    def edge_weight(self, edge: Edge) -> float:
        """Weight of a (canonical) edge on the underlying topology.

        Served from the mapping frozen at ``__init__``; non-canonical
        orientations (or self-loops, which never enter the edge list) fall
        back to the direct topology lookup they always used.
        """
        try:
            return self._weight_of[edge]
        except (KeyError, TypeError):
            return self._edge_weight_uncached(edge)

    def _edge_weight_uncached(self, edge: Edge) -> float:
        u, v = edge
        if isinstance(self.graph, CSRGraph):
            return self.graph.edge_weight(
                self.graph.index_of(u), self.graph.index_of(v), default=1
            )
        return self.graph[u][v].get("weight", 1)

    # ------------------------------------------------------------------
    def _supernodes(self, contracted: set[Edge]) -> dict[Node, Node]:
        import networkx as nx

        uf = nx.utils.UnionFind(self.node_list)
        for u, v in contracted:
            uf.union(u, v)
        groups: dict[Node, list[Node]] = {}
        for node in self.node_list:
            groups.setdefault(uf[node], []).append(node)
        supernode: dict[Node, Node] = {}
        for members in groups.values():
            sid = _stable_min(members)
            for member in members:
                supernode[member] = sid
        return supernode

    def _normalize_contract(
        self, contract: set[Edge] | Callable[[Edge], bool] | None
    ) -> set[Edge]:
        if contract is None:
            return set()
        if callable(contract):
            return {
                edge for edge, _u, _v in self.edge_list if contract(edge)
            }
        return {edge_key(u, v) for (u, v) in contract}

    def _audit(self, value: Any) -> None:
        if self.measure_bits:
            self.acct.record_message_bits(estimate_bits(value))

    # ------------------------------------------------------------------
    def round(
        self,
        contract: set[Edge] | Callable[[Edge], bool] | None = None,
        node_input: Callable[[Node], Any] | dict | None = None,
        consensus_op: Operator | None = None,
        edge_message: Callable[[Edge, Node, Node, Any, Any], tuple[Any, Any]] | None = None,
        aggregate_op: Operator | None = None,
        charge_label: str = "ma-round",
    ) -> MARoundResult:
        """Execute one full Minor-Aggregation round.

        ``edge_message(edge, u, v, y_u, y_v)`` is invoked once per edge of
        the contracted minor (self-loops removed) and returns
        ``(z_toward_u_side, z_toward_v_side)`` where ``y_u``/``y_v`` are the
        consensus values of the supernodes containing ``u``/``v``.
        ``edge_message`` may also be a declarative
        :class:`~repro.ma.operators.ArrayMessage` (per-edge numeric payload
        arrays in ``edge_list`` order), which compiled engines lower to
        scatter-reduces and this closure engine evaluates row by row.
        """
        with self._round_scope(charge_label):
            return self._round_body(
                contract, node_input, consensus_op, edge_message, aggregate_op
            )

    @contextmanager
    def _round_scope(self, charge_label: str):
        """Bookkeeping every executed round shares (closure or compiled):
        one accountant charge, one ``ma.round`` span, the round counters."""
        self.rounds_executed += 1
        self.acct.charge(1, charge_label)
        with obs_trace.span("ma.round", acct=charge_label):
            obs_metrics.counter("ma.rounds").inc()
            obs_metrics.counter(f"ma.rounds.{charge_label}").inc()
            yield

    def _round_body(
        self, contract, node_input, consensus_op, edge_message, aggregate_op
    ) -> MARoundResult:
        if edge_message is not None and consensus_op is None:
            raise SolverError(
                "edge_message requires consensus_op: aggregation edges read "
                "the consensus values of both endpoints (use FIRST for a "
                "round that publishes no node inputs)"
            )
        if isinstance(edge_message, ArrayMessage):
            edge_message = self._closure_of_array_message(edge_message)
        contracted = self._normalize_contract(contract)
        supernode = self._supernodes(contracted)

        # --- Consensus step -------------------------------------------
        consensus: dict[Node, Any] = {}
        if consensus_op is not None:
            getter: Callable[[Node], Any]
            if node_input is None:
                getter = lambda _v: consensus_op.identity()
            elif callable(node_input):
                getter = node_input
            else:
                getter = lambda v: node_input.get(v, consensus_op.identity())
            per_super: dict[Node, Any] = {}
            for node in self.node_list:
                value = getter(node)
                self._audit(value)
                sid = supernode[node]
                if sid in per_super:
                    per_super[sid] = consensus_op.combine(per_super[sid], value)
                else:
                    per_super[sid] = consensus_op.combine(consensus_op.identity(), value)
            for node in self.node_list:
                consensus[node] = per_super[supernode[node]]

        # --- Aggregation step ------------------------------------------
        aggregate: dict[Node, Any] = {}
        if aggregate_op is not None and edge_message is not None:
            per_super_agg: dict[Node, Any] = {}
            for edge, u, v in self.edge_list:
                su, sv = supernode[u], supernode[v]
                if su == sv:
                    continue  # self-loop of the minor: removed
                z_u, z_v = edge_message(edge, u, v, consensus.get(u), consensus.get(v))
                self._audit(z_u)
                self._audit(z_v)
                for sid, z in ((su, z_u), (sv, z_v)):
                    if sid in per_super_agg:
                        per_super_agg[sid] = aggregate_op.combine(per_super_agg[sid], z)
                    else:
                        per_super_agg[sid] = aggregate_op.combine(
                            aggregate_op.identity(), z
                        )
            for node in self.node_list:
                sid = supernode[node]
                aggregate[node] = per_super_agg.get(sid, aggregate_op.identity())

        return MARoundResult(supernode=supernode, consensus=consensus, aggregate=aggregate)

    # ------------------------------------------------------------------
    # Convenience wrappers used by many algorithms
    # ------------------------------------------------------------------
    def broadcast(self, values: dict[Node, Any], op: Operator, label: str = "broadcast") -> Any:
        """Contract everything and fold all inputs: a global consensus round."""
        result = self.round(
            contract=self.edge_keys(),
            node_input=values,
            consensus_op=op,
            charge_label=label,
        )
        return result.consensus[self.node_list[0]]

    def neighbor_exchange(
        self,
        values: dict[Node, Any],
        edge_message: Callable[[Edge, Node, Node, Any, Any], tuple[Any, Any]],
        aggregate_op: Operator,
        label: str = "exchange",
    ) -> MARoundResult:
        """A contraction-free round: publish values, edges react, aggregate."""
        return self.round(
            contract=None,
            node_input=values,
            consensus_op=FIRST,
            edge_message=edge_message,
            aggregate_op=aggregate_op,
            charge_label=label,
        )
