"""1-respecting min-cut (paper Theorem 18) -- the warm-up, engine-genuine.

The cut value of every tree edge is a subtree sum of the node vector ``A``
where each graph edge ``{u, v}`` of weight ``w`` contributes ``+w`` at both
endpoints and ``-2w`` at their LCA.  The implementation runs through the
Minor-Aggregation engine exactly as the paper describes:

1. one edge-passing round accumulates incident weights;
2. one round publishes HL-infos; each *edge unit* computes the LCA of its
   endpoints locally (Fact 4) and hands the ``-2w`` delta to the endpoint
   responsible for the target (the one whose HL-info lists the LCA as a
   light-edge top, or the ancestor endpoint itself);
3. a subtree sum with the associative-array (dict-sum) aggregation delivers
   every delta to its target;
4. a final subtree sum of ``A`` yields all 1-respecting cut values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.accounting import RoundAccountant
from repro.core.cut_values import CutCandidate, best_candidate
from repro.graphs.csr import CSRGraph
from repro.kernel.cut_kernel import GraphArrays, cover_values_kernel
from repro.ma.engine import MinorAggregationEngine
from repro.ma.operators import DICT_SUM, FIRST, SUM
from repro.trees.hld import HeavyLightDecomposition, lca_from_hl_info
from repro.trees.rooted import Edge, RootedTree
from repro.trees.sums import subtree_sums

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx


def one_respecting_cuts(
    graph: nx.Graph,
    tree: RootedTree,
    engine: MinorAggregationEngine | None = None,
    hld: HeavyLightDecomposition | None = None,
) -> dict[Edge, float]:
    """Theorem 18: every tree edge learns its 1-respecting cut value."""
    engine = engine or MinorAggregationEngine(graph)
    acct = engine.acct
    n = graph.number_of_nodes()
    if hld is None:
        hld = HeavyLightDecomposition(tree)
        acct.charge(acct.cost.hld(n), "one-respecting:hld")
    infos = {v: hld.hl_info(v) for v in tree.order}

    # Step 1: A1[x] = sum of incident graph-edge weights.
    incident = engine.round(
        contract=None,
        node_input=None,
        consensus_op=FIRST,
        edge_message=lambda edge, u, v, yu, yv: (
            graph[edge[0]][edge[1]].get("weight", 1),
            graph[edge[0]][edge[1]].get("weight", 1),
        ),
        aggregate_op=SUM,
        charge_label="one-respecting:incident",
    )

    # Step 2: every edge unit sees both endpoints' HL-infos, computes the
    # LCA (Fact 4), and routes the -2w delta to the responsible endpoint.
    def route_delta(edge, u, v, y_u, y_v):
        weight = graph[edge[0]][edge[1]].get("weight", 1)
        lca_id, _lca_depth = lca_from_hl_info(y_u, y_v)
        entry = {lca_id: -2 * weight}
        if lca_id == u:
            return (entry, {})
        if lca_id == v:
            return ({}, entry)
        # Responsible endpoint: the one whose root path has the LCA as a
        # light-edge top endpoint (always exists for a non-ancestor pair).
        if any(rec.top_id == lca_id for rec in y_u.light_edges):
            return (entry, {})
        return ({}, entry)

    routed = engine.round(
        contract=None,
        node_input=infos,
        consensus_op=FIRST,
        edge_message=route_delta,
        aggregate_op=DICT_SUM,
        charge_label="one-respecting:lca-deltas",
    )

    # Step 3: deliver deltas upward -- subtree sum of the pending dicts; the
    # value addressed to x is the entry keyed by x.
    pending = {v: dict(routed.aggregate.get(v) or {}) for v in tree.order}
    delivered = subtree_sums(
        engine, tree, hld, pending, DICT_SUM, label="one-respecting:deliver"
    )

    # Step 4: subtree sum of the assembled A vector.
    vector = {
        v: incident.aggregate.get(v, 0) + delivered[v].get(v, 0)
        for v in tree.order
    }
    sums = subtree_sums(
        engine, tree, hld, vector, SUM, label="one-respecting:subtree"
    )
    return {tree.edge_of(v): sums[v] for v in tree.order if v != tree.root}


def one_respecting_cuts_fast(
    graph: "nx.Graph | CSRGraph",
    tree: RootedTree,
    accountant: RoundAccountant | None = None,
    arrays: "GraphArrays | None" = None,
) -> dict[Edge, float]:
    """Direct computation of the same values, charging the documented
    Theorem 18 cost (used inside the 2-respecting solvers).

    One vectorized LCA-differencing pass plus an Euler prefix-sum subtree
    sum (``Cov(e) = Cut(e)``, Fact 5).  ``arrays`` skips the per-call
    edge-list extraction when the caller shares one graph across many
    trees.
    """
    if accountant is not None:
        charge_one_respecting(accountant, graph.number_of_nodes())
    return cover_values_kernel(graph, tree, arrays=arrays)


def charge_one_respecting(accountant: RoundAccountant, n: int) -> None:
    """Charge Theorem 18's documented cost for an ``n``-node graph."""
    accountant.charge(accountant.cost.one_respecting(n), "one-respecting")


def one_respecting_min_cut(
    graph: nx.Graph,
    tree: RootedTree,
    engine: MinorAggregationEngine | None = None,
) -> CutCandidate:
    """The best 1-respecting cut of ``(G, T)`` (engine-genuine)."""
    cuts = one_respecting_cuts(graph, tree, engine=engine)
    return best_candidate(
        CutCandidate(value=value, edges=(edge,)) for edge, value in cuts.items()
    )
