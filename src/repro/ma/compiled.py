"""Compiled Minor-Aggregation schedules: whole rounds as array passes.

The closure engine (:class:`~repro.ma.engine.MinorAggregationEngine`)
executes one Python call per edge per round -- faithful, but it caps honest
CONGEST/MA simulation at toy sizes.  This module lowers rounds whose pieces
have declarative numeric forms onto the flat CSR arrays:

* **contraction** -- vectorized min-hook/pointer-jump union
  (:func:`~repro.graphs.csr.merge_components`) over the contracted edge
  rows, supernode ids via a precomputed natural-order node ranking;
* **consensus** -- ``ufunc.reduceat`` over supernode-sorted value arrays
  (one stable argsort + one segmented fold instead of n closure calls);
* **aggregation** -- per-edge-endpoint scatter-reduce: minor edges emit
  their :class:`~repro.ma.operators.ArrayMessage` payloads toward both
  endpoint supernodes, interleaved exactly in the closure engine's
  fold order, then one segmented ``reduceat``.

Rounds that are *not* lowerable -- non-numeric operators (FIRST, DICT_SUM,
Misra-Gries sketches), closure edge messages, object-dtype inputs,
bit-audited engines -- fall back to the inherited closure body, so every
algorithm written against ``round()`` runs unchanged.  The closure engine
remains the bit-identical correctness reference; the parity suite
(``pytest -m ma``) asserts identical
:class:`~repro.ma.engine.MARoundResult` contents and identical
:class:`~repro.accounting.RoundAccountant` ledgers across both engines.

Float caveat: segmented folds reduce in the exact node/edge order the
closure engine folds in, so float results are bit-identical except that the
closure seeds every fold with ``combine(identity(), first)`` -- for sums
that maps ``-0.0`` to ``+0.0``, which compares equal anyway.

The Boruvka contraction sequence is lowered as a whole by
:func:`compiled_boruvka_rows`, for one graph or a concatenated table of
many: the rows are sorted once into (cost, str) order (by cost alone
when the caller keeps its table in str order), and per phase the
still-outgoing rows are kept, one scatter-min picks each supernode's
winner, and the winners' pointer graph is jumped to its roots (no
:func:`~repro.graphs.csr.merge_components` union).  Tree packing (Theorem 12)
runs every greedy iteration of every graph through it;
:func:`~repro.ma.boruvka.boruvka_mst` charges the phases it reports
through the engine's standard round scope, so ledgers and ``ma.round``
spans stay accurate.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

import numpy as np

from repro.accounting import RoundAccountant
from repro.errors import SolverError
from repro.graphs.csr import CSRGraph, merge_components
from repro.ma.engine import (
    MARoundResult,
    MinorAggregationEngine,
    Node,
    node_order_key,
)
from repro.ma.operators import ArrayMessage, NumericForm
from repro.obs import metrics as obs_metrics

Edge = tuple
_MISSING = object()

class CompiledMinorAggregationEngine(MinorAggregationEngine):
    """Array-op Minor-Aggregation engine over a :class:`CSRGraph`.

    Subclasses the closure engine: the ``round()`` wrapper (charges, spans,
    counters) is inherited unchanged, only ``_round_body`` is replaced by
    a lower-or-fallback dispatcher.  ``compiled_rounds``/``fallback_rounds``
    count which path each executed round took.
    """

    def __init__(
        self,
        graph: CSRGraph,
        accountant: RoundAccountant | None = None,
        measure_bits: bool = False,
    ):
        if not isinstance(graph, CSRGraph):
            raise SolverError(
                "CompiledMinorAggregationEngine requires a CSRGraph; "
                "use MinorAggregationEngine for networkx graphs"
            )
        super().__init__(graph, accountant=accountant, measure_bits=measure_bits)
        nonloop = graph.edge_u != graph.edge_v
        #: original CSR edge row per engine edge (edge_list position)
        self._rows = np.flatnonzero(nonloop)
        self._eu = graph.edge_u[self._rows]
        self._ev = graph.edge_v[self._rows]
        n = graph.n
        if graph.nodes is None:
            # Identity labels: natural order == index order.
            self._rank_order = np.arange(n, dtype=np.int64)
            self._node_rank = self._rank_order
        else:
            labels = self.node_list
            order = sorted(range(n), key=lambda i: node_order_key(labels[i]))
            self._rank_order = np.asarray(order, dtype=np.int64)
            self._node_rank = np.empty(n, dtype=np.int64)
            self._node_rank[self._rank_order] = np.arange(n, dtype=np.int64)
        self._str_order: np.ndarray | None = None
        self.compiled_rounds = 0
        self.fallback_rounds = 0

    # ------------------------------------------------------------------
    # Cached edge-order structures
    # ------------------------------------------------------------------
    def edge_str_order(self) -> np.ndarray:
        """The engine edges in ``str(edge_key)`` order (the closure
        tie-break order), computed once per engine and shared by every
        MST call."""
        if self._str_order is None:
            labels = np.array(
                [str(edge) for edge, _u, _v in self.edge_list], dtype=np.str_
            )
            self._str_order = np.argsort(labels)
        return self._str_order

    def charge_compiled_rounds(self, rounds: int, label: str) -> None:
        """Book ``rounds`` rounds that ran as array passes outside
        :meth:`round` (one charge, ``ma.round`` span and counter each)."""
        for _ in range(rounds):
            with self._round_scope(label):
                self.compiled_rounds += 1
                obs_metrics.counter("ma.rounds.compiled").inc()

    # ------------------------------------------------------------------
    # Contraction lowering
    # ------------------------------------------------------------------
    def _contract_pairs(self, contract) -> tuple[np.ndarray, np.ndarray]:
        """Contracted node-index pairs, honouring every closure form."""
        if contract is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if contract is self._edge_keys and self._edge_keys is not None:
            return self._eu, self._ev  # broadcast(): contract everything
        if isinstance(contract, np.ndarray):
            rows = (
                np.flatnonzero(contract)
                if contract.dtype == np.bool_
                else contract.astype(np.int64, copy=False)
            )
            return self._eu[rows], self._ev[rows]
        if callable(contract):
            rows = np.fromiter(
                (
                    i
                    for i, (edge, _u, _v) in enumerate(self.edge_list)
                    if contract(edge)
                ),
                dtype=np.int64,
            )
            return self._eu[rows], self._ev[rows]
        # Iterable of (u, v) label pairs -- like the closure engine, pairs
        # need not be graph edges; they union whichever nodes they name.
        pairs = list(contract)
        if not pairs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if self.graph.nodes is None:
            # Identity labels: the pairs already are node indices, so the
            # per-pair index_of walk collapses to one flattened conversion
            # (np.fromiter over chain.from_iterable beats np.asarray on a
            # list of tuples by 2x and keeps no python frames in the loop).
            try:
                flat = np.fromiter(
                    itertools.chain.from_iterable(pairs),
                    dtype=np.int64,
                    count=2 * len(pairs),
                )
            except (ValueError, TypeError):
                pass
            else:
                return flat[0::2], flat[1::2]
        index_of = self.graph.index_of
        us, vs = [], []
        for u, v in pairs:
            us.append(index_of(u))
            vs.append(index_of(v))
        return (
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
        )

    def _components(
        self, contract
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dense component id per node, component count as implied by the
        ids, supernode *node index* per component)."""
        cu, cv = self._contract_pairs(contract)
        comp = np.arange(self.n, dtype=np.int64)
        if len(cu):
            comp = merge_components(comp, cu, cv)
        _uniq, comp_dense = np.unique(comp, return_inverse=True)
        k = len(_uniq)
        min_rank = np.full(k, self.n, dtype=np.int64)
        np.minimum.at(min_rank, comp_dense, self._node_rank)
        sid_index = self._rank_order[min_rank]
        return comp_dense, k, sid_index

    # ------------------------------------------------------------------
    # Round dispatch: lower when possible, fall back otherwise
    # ------------------------------------------------------------------
    def _round_body(
        self, contract, node_input, consensus_op, edge_message, aggregate_op
    ) -> MARoundResult:
        if edge_message is not None and consensus_op is None:
            raise SolverError(
                "edge_message requires consensus_op: aggregation edges read "
                "the consensus values of both endpoints (use FIRST for a "
                "round that publishes no node inputs)"
            )
        lowered = None
        if not self.measure_bits:  # bit audits need the per-value walk
            lowered = self._lowered_round(
                contract, node_input, consensus_op, edge_message, aggregate_op
            )
        if lowered is None:
            self.fallback_rounds += 1
            obs_metrics.counter("ma.rounds.fallback").inc()
            return super()._round_body(
                contract, node_input, consensus_op, edge_message, aggregate_op
            )
        self.compiled_rounds += 1
        obs_metrics.counter("ma.rounds.compiled").inc()
        return lowered

    def _lowered_round(
        self, contract, node_input, consensus_op, edge_message, aggregate_op
    ) -> MARoundResult | None:
        """Execute the round as array passes; ``None`` = not lowerable."""
        do_consensus = consensus_op is not None
        do_aggregate = aggregate_op is not None and edge_message is not None
        if do_consensus and consensus_op.numeric is None:
            return None
        if do_aggregate and (
            aggregate_op.numeric is None
            or not isinstance(edge_message, ArrayMessage)
        ):
            return None

        values = present = None
        if do_consensus:
            coerced = self._lower_inputs(node_input, consensus_op.numeric)
            if coerced is None:
                return None
            values, present = coerced

        comp_dense, k, sid_index = self._components(contract)
        node_list = self.node_list
        sid_per_node = sid_index[comp_dense]
        if self.graph.nodes is None:
            # Identity labels: the supernode index IS the label, and
            # dict(zip(...)) over two flat lists runs at C speed.
            supernode = dict(zip(node_list, sid_per_node.tolist()))
        else:
            supernode = {
                node: node_list[s]
                for node, s in zip(node_list, sid_per_node.tolist())
            }

        consensus: dict[Node, Any] = {}
        cons_vals = cons_have = None
        if do_consensus:
            # ``values`` is already compacted to present entries (node
            # order) when a present mask exists.
            targets = comp_dense if present is None else comp_dense[present]
            cons_vals, cons_have = _segment_fold(
                targets, values, k, consensus_op.numeric
            )
            per_node = cons_vals[comp_dense]
            have_node = cons_have[comp_dense]
            if have_node.all():
                consensus = dict(zip(node_list, per_node.tolist()))
            else:
                consensus = {
                    node: (value if ok else None)
                    for node, value, ok in zip(
                        node_list, per_node.tolist(), have_node.tolist()
                    )
                }

        aggregate: dict[Node, Any] = {}
        if do_aggregate:
            edge_message.check_length(len(self.edge_list))
            cu = comp_dense[self._eu]
            cv = comp_dense[self._ev]
            if edge_message.build is not None:
                if cons_have is not None and not cons_have.all():
                    # A vectorized builder over partially-missing consensus
                    # has no faithful array form; the closure walk decides.
                    return None
                y_u = cons_vals[cu] if cons_vals is not None else None
                y_v = cons_vals[cv] if cons_vals is not None else None
                z_u, z_v = edge_message.build(y_u, y_v)
                z_u = np.asarray(z_u)
                z_v = np.asarray(z_v)
            else:
                z_u, z_v = edge_message.toward_u, edge_message.toward_v
            nf = aggregate_op.numeric
            z_u = nf.coerce(np.asarray(z_u))
            z_v = nf.coerce(np.asarray(z_v)) if z_u is not None else None
            if z_u is None or z_v is None:
                return None
            minor = np.flatnonzero(cu != cv)
            # Interleave (u-side, v-side) per edge: the exact closure fold
            # order, so stable segment sorting reproduces it bit for bit.
            targets = np.empty(2 * len(minor), dtype=np.int64)
            targets[0::2] = cu[minor]
            targets[1::2] = cv[minor]
            payload = np.empty(
                2 * len(minor), dtype=np.result_type(z_u, z_v)
            )
            payload[0::2] = z_u[minor]
            payload[1::2] = z_v[minor]
            agg_vals, agg_have = _segment_fold(targets, payload, k, nf)
            per_node = agg_vals[comp_dense]
            have_node = agg_have[comp_dense]
            if have_node.all():
                aggregate = dict(zip(node_list, per_node.tolist()))
            else:
                identity = aggregate_op.identity
                aggregate = {
                    node: (value if ok else identity())
                    for node, value, ok in zip(
                        node_list, per_node.tolist(), have_node.tolist()
                    )
                }

        return MARoundResult(
            supernode=supernode, consensus=consensus, aggregate=aggregate
        )

    def _lower_inputs(
        self, node_input, nf: NumericForm
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Node inputs as (values array, present mask or None); ``None`` =
        not lowerable (object dtypes, non-numeric payloads)."""
        n = self.n
        if node_input is None:
            if nf.skip_missing:
                return (
                    np.empty(0, dtype=np.float64),
                    np.zeros(n, dtype=bool),
                )
            values = np.full(n, nf.fill)
            return nf.coerce(values), None
        if isinstance(node_input, np.ndarray):
            if len(node_input) != n:
                raise SolverError(
                    f"node_input array has {len(node_input)} entries for "
                    f"{n} nodes"
                )
            values = nf.coerce(node_input)
            return (None if values is None else (values, None))
        if callable(node_input):
            raw = [node_input(v) for v in self.node_list]
        else:  # mapping
            # Missing keys take the identity; explicit non-numeric values
            # (e.g. None) fall through to coerce() and force the closure
            # walk, which treats them exactly as the reference does.
            raw = [node_input.get(v, _MISSING) for v in self.node_list]
            if not nf.skip_missing:
                raw = [nf.fill if v is _MISSING else v for v in raw]
            else:
                raw = [None if v is _MISSING else v for v in raw]
        if nf.skip_missing:
            present = np.array([v is not None for v in raw])
            raw = [v for v in raw if v is not None]
            values = nf.coerce(np.asarray(raw)) if raw else np.empty(0)
            if values is None:
                return None
            return values, present
        values = nf.coerce(np.asarray(raw))
        return (None if values is None else (values, None))


def _segment_fold(
    targets: np.ndarray, payload: np.ndarray, k: int, nf: NumericForm
) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``payload`` per target segment: (per-segment values of length
    ``k``, has-any-entry mask).  Stable sort + ``reduceat`` preserves the
    closure engine's left-to-right fold order within each segment."""
    have = np.zeros(k, dtype=bool)
    out_dtype = payload.dtype if len(payload) else np.float64
    # Zeros as placeholders: positions without entries are masked by
    # ``have`` (the identity may not even be representable, e.g. inf/int).
    out = np.zeros(k, dtype=out_dtype)
    if len(targets):
        order = np.argsort(targets, kind="stable")
        sorted_targets = targets[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_targets[1:] != sorted_targets[:-1]]
        )
        folded = nf.ufunc.reduceat(payload[order], starts)
        seg_ids = sorted_targets[starts]
        out[seg_ids] = folded
        have[seg_ids] = True
    return out, have


# ----------------------------------------------------------------------
# The Boruvka contraction sequence, lowered as a whole
# ----------------------------------------------------------------------
def lower_edge_cost(
    engine: CompiledMinorAggregationEngine,
    edge_cost: "Callable[[Edge], float] | dict | np.ndarray | None",
) -> np.ndarray | None:
    """Edge costs as a float array per engine edge; ``None`` = closure only.

    Accepts every form :func:`~repro.ma.boruvka.boruvka_mst` does --
    ``None`` (topology weights), arrays aligned with either the CSR edge
    table or the engine's loop-free edge list, dicts, callables -- and
    refuses (returns ``None``) when evaluated costs aren't numeric.
    """
    if edge_cost is None:
        return engine.graph.edge_w[engine._rows].astype(np.float64)
    if isinstance(edge_cost, np.ndarray):
        arr = edge_cost
        if len(arr) == engine.graph.m and len(arr) != len(engine._rows):
            arr = arr[engine._rows]
        if len(arr) != len(engine._rows):
            raise SolverError(
                f"edge cost array has {len(edge_cost)} entries for "
                f"{len(engine._rows)} engine edges"
            )
        if arr.dtype.kind not in "biuf":
            return None
        return arr.astype(np.float64, copy=False)
    if callable(edge_cost):
        raw = [edge_cost(edge) for edge, _u, _v in engine.edge_list]
    else:
        raw = [edge_cost[edge] for edge, _u, _v in engine.edge_list]
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged cost tuples and the like
        return None
    if arr.ndim != 1 or arr.dtype.kind not in "biuf":
        return None
    return arr.astype(np.float64, copy=False)


def compiled_boruvka_rows(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    cost: np.ndarray,
    tie_rank: np.ndarray,
    graph_of: np.ndarray,
    phase_caps: np.ndarray,
    n_nodes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Boruvka's contraction sequence for many graphs as array passes.

    The edge table concatenates the graphs over disjoint node blocks
    (``n_nodes`` in total), so no component ever spans two graphs;
    ``graph_of`` names each row's graph and ``tie_rank`` its rank of
    ``str(edge_key)`` within that graph.  Each phase is one
    Minor-Aggregation round per running graph: every minor edge offers
    its (cost, tie rank) position to both endpoint supernodes, each
    supernode keeps the minimum offer, and the winners are contracted.
    A graph runs at most ``phase_caps[g]`` phases (0 sits the call out)
    and stops after the first phase that finds no outgoing edge -- the
    same phases, decisions and tie-breaks as the closure
    :func:`~repro.ma.boruvka.boruvka_mst`, which charges that last phase
    too.

    The rows are put in (cost, tie rank) order by one stable argsort of
    ``tie_rank`` -- a linear pass when the table already comes in
    tie-rank order, as tree packing and
    :func:`~repro.ma.boruvka.boruvka_mst` arrange once per packing call
    and per engine -- and one stable argsort of cost over that order.
    Rows of two graphs may interleave: they never meet at a supernode.
    Each phase keeps only the rows that are still outgoing, so a row's
    index in that list is its position.  Both endpoints offer it through
    one scatter-min over the interleaved ``(u, v)`` endpoint list.  Each
    winning supernode points at the partner across its winning edge; a
    mutual pair (both chose the same edge) forms a 2-cycle, which one
    ``min(ptr, ptr[ptr])`` step breaks by making the smaller id the root
    (every other pointer moves to itself or an ancestor), and pointer
    jumping then sends every supernode to its root.  Positions are
    distinct within a graph, so each graph's tree is unique, and its
    phase count is worked out after the loop: the index of the last
    phase that chose one of its edges plus 2 (phases count from 0, and
    the empty phase after it is charged too), capped by ``phase_caps``.

    Returns the chosen rows (sorted) and the phase count per graph.
    """
    graph_of = np.asarray(graph_of, dtype=np.int64)
    phase_caps = np.asarray(phase_caps, dtype=np.int64)
    m = len(edge_u)
    for name, array in (
        ("cost", cost), ("tie_rank", tie_rank), ("graph_of", graph_of)
    ):
        if len(array) != m:
            raise SolverError(
                f"{name} array has {len(array)} entries for {m} edges"
            )
    tie_order = np.argsort(tie_rank, kind="stable")
    row = tie_order[np.argsort(cost[tie_order], kind="stable")]
    ends = np.column_stack((edge_u[row], edge_v[row]))
    offer = np.arange(2 * m, dtype=np.int64)
    ptr = np.arange(n_nodes, dtype=np.int64)
    tree_phase = np.full(m, -1, dtype=np.int64)
    cap_phases = set(phase_caps.tolist())
    for phase in range(int(phase_caps.max(initial=0))):
        live = ends[:, 0] != ends[:, 1]
        if phase in cap_phases:  # some graph has run its last phase
            live &= phase_caps[graph_of[row]] > phase
        keep = live.nonzero()[0]
        if not len(keep):
            break
        ends = np.take(ends, keep, axis=0)
        row = row[keep]
        flat = ends.ravel()
        size = len(flat)
        best = np.full(n_nodes, size, dtype=np.int64)
        # Offer 2i / 2i + 1 is row i's u / v side: the minimum offer is the
        # least row, and ``offer ^ 1`` is the partner's side of it.
        np.minimum.at(best, flat, offer[:size])
        winner = (best < size).nonzero()[0]
        won = best[winner]
        ptr[winner] = flat[won ^ 1]
        ptr = np.minimum(ptr, ptr[ptr])
        while True:
            jumped = ptr[ptr]
            # Byte equality: far cheaper than np.array_equal on the small
            # arrays of a phase.
            if jumped.tobytes() == ptr.tobytes():
                break
            ptr = jumped
        tree_phase[row[won >> 1]] = phase
        ends = ptr[ends]
    rows = (tree_phase >= 0).nonzero()[0]
    last = np.full(len(phase_caps), -1, dtype=np.int64)
    np.maximum.at(last, graph_of[rows], tree_phase[rows])
    return rows, np.minimum(last + 2, phase_caps)
