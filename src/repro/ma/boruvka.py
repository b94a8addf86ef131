"""Boruvka's MST in the Minor-Aggregation model.

The paper (Section 1) uses Boruvka as *the* instructive example of an
aggregation-based algorithm: each supernode finds its minimum-weight outgoing
edge via a min-aggregation, the chosen edges are contracted, and O(log n)
phases suffice.  We run it genuinely through the engine -- one engine round
per phase -- and it powers the greedy tree packing (Theorem 12), which needs
a minimum-cost spanning tree per packing iteration.

On a :class:`~repro.ma.compiled.CompiledMinorAggregationEngine` with
numeric costs the whole contraction sequence is lowered to array passes
(:func:`~repro.ma.compiled.compiled_boruvka_rows`, the kernel tree packing
runs too): decision-identical (same (cost, str) tie-break),
charge-identical (one round per phase, booked through the engine's round
scope), just without the per-edge closure calls.  Non-numeric costs run
the generic closure rounds on either engine.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from repro.ma.compiled import (
    CompiledMinorAggregationEngine,
    compiled_boruvka_rows,
    lower_edge_cost,
)
from repro.ma.engine import MinorAggregationEngine
from repro.ma.operators import FIRST, MIN
from repro.accounting import log2ceil
from repro.trees.rooted import edge_key

Edge = tuple


def boruvka_mst(
    engine: MinorAggregationEngine,
    edge_cost: Callable[[Edge], float] | dict | None = None,
    label: str = "boruvka",
) -> set[Edge]:
    """Compute an MST; returns the set of chosen (canonical) edges.

    ``edge_cost`` maps an edge to its cost (defaults to the topology's
    ``weight``); arrays aligned with the engine's edge order are accepted
    on compiled engines.  Ties are broken by the edge's stable string key,
    making every phase deterministic -- with distinct effective costs
    Boruvka's chosen-edge sets are acyclic, the classic correctness argument.

    Works on networkx- and CSR-backed engines alike (node/edge access goes
    through the engine's frozen enumerations).
    """
    if isinstance(engine, CompiledMinorAggregationEngine):
        lowered = lower_edge_cost(engine, edge_cost)
        if lowered is not None:
            # The table goes in str order, so the call sorts by cost alone.
            order = engine.edge_str_order()
            rows, phases = compiled_boruvka_rows(
                engine._eu[order], engine._ev[order], lowered[order],
                np.arange(len(order)), np.zeros(len(order), dtype=np.int64),
                np.array([log2ceil(engine.n) + 1]), engine.n,
            )
            engine.charge_compiled_rounds(int(phases[0]), label)
            edge_list = engine.edge_list
            return {edge_list[r][0] for r in order[rows].tolist()}

    if edge_cost is None:
        cost = engine.edge_weight
    elif callable(edge_cost):
        cost = edge_cost
    else:
        cost = lambda e: edge_cost[e]

    def key_of(edge: Edge) -> tuple:
        return (cost(edge), str(edge))

    in_mst: set[Edge] = set()
    phases = log2ceil(engine.n) + 1
    for _phase in range(phases):
        # One engine round: publish nothing, every minor-edge offers itself
        # to both endpoint supernodes, each supernode min-folds the offers.
        result = engine.round(
            contract=in_mst,
            node_input=None,
            consensus_op=FIRST,
            edge_message=lambda edge, u, v, yu, yv: (
                (key_of(edge), edge),
                (key_of(edge), edge),
            ),
            aggregate_op=MIN,
            charge_label=label,
        )
        chosen: set[Edge] = set()
        for node in engine.node_list:
            offer = result.aggregate.get(node)
            if offer is not None:
                chosen.add(edge_key(*offer[1]))
        if not chosen - in_mst:
            break
        in_mst |= chosen
    return in_mst
