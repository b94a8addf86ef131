"""General 2-respecting min-cut (paper Section 9, Theorem 40).

Given a spanning tree ``T`` of ``G``, find ``min Cut(e, f)`` over all pairs
of tree edges (the 1-respecting minimum is folded in by the caller).  The
recursion follows the paper exactly:

* find the **centroid** ``c`` of the current tree (Fact 41 / Lemma 42);
* **between-subtree pairs**: replace ``c`` by a virtual root ``r*`` and a
  private virtual centroid ``c_i`` per subtree (subdividing the centroid's
  tree edges), remap ``c``'s graph edges onto ``r*``, and call the
  between-subtree solver (Theorem 39) -- an extension of the graph by
  O(1) virtual nodes (Theorem 14);
* **same-subtree pairs**: build the private cut-equivalent graphs ``H_i``
  of Lemma 43 (inside edges kept, crossing edges split onto ``c_i``) and
  recurse; sibling calls are node-disjoint and scheduled in parallel
  (Corollary 11).

The centroid guarantees O(log n) recursion depth, so each call carries at
most O(log n) virtual nodes -- which the implementation tracks and the test
suite asserts (the paper's |Virt| <= O(log n) invariant).

Every instance graph, here and in the layers below, is an ordered edge
table (:mod:`repro.core.edge_table`), and the centroid split walks the
rooted tree's own parent and child indices.

**Leaves are deferred.**  A base case (a tree of at most
:data:`BASE_CASE_EDGES` edges) is recorded into a
:class:`~repro.core.leaves.LeafBatch` instead of being solved on the spot,
and every layer returns a :data:`~repro.core.leaves.Deferred` -- its
candidates and leaf ids in DFS order.  The batch evaluates all leaves of
all packed trees of a solve in one array pass; resolving a tree's result
is then a first-minimum fold in that DFS order (the earliest of equal
``(value, len(edges))`` wins), which is exactly what nested
:func:`~repro.core.cut_values.best_candidate` calls over leaf-by-leaf
results return.  No charge, interest list or contraction reads a leaf's
value, so the round ledger does not move either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from repro.accounting import RoundAccountant
from repro.core.cut_values import CutCandidate, best_candidate
from repro.core.edge_table import EdgeTable, assemble, edge_table
from repro.core.leaves import Deferred, LeafBatch, join
from repro.core.one_respecting import (
    charge_one_respecting,
    one_respecting_cuts_fast,
)
from repro.core.subtree_instance import (
    SubtreeInstance,
    SubtreeSolveStats,
    solve_subtree_instance,
)
from repro.trees.centroid import find_centroid_centralized
from repro.trees.rooted import Edge, Node, RootedTree, edge_key

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx

    from repro.graphs.csr import CSRGraph
    from repro.kernel.cut_kernel import GraphArrays

#: Trees with at most this many edges are solved by direct enumeration.
BASE_CASE_EDGES = 8

_virtual_counter = itertools.count()


def _fresh(tag: str) -> tuple:
    return (f"__{tag}__", next(_virtual_counter))


@dataclass
class GeneralSolveStats:
    instances: int = 0
    max_depth: int = 0
    max_virtual_nodes: int = 0
    base_cases: int = 0
    subtree: SubtreeSolveStats = field(default_factory=SubtreeSolveStats)


@dataclass
class TwoRespectingResult:
    """Outcome of Theorem 40 plus the folded-in 1-respecting minimum.

    ``pending`` is the recursion's deferred result; ``two_respecting`` and
    ``best`` resolve it against ``leaves`` on first access (evaluating the
    batch if it still holds unevaluated leaves).
    """

    one_respecting: CutCandidate
    pending: Deferred
    leaves: LeafBatch
    ma_rounds: float
    stats: GeneralSolveStats
    accountant: RoundAccountant

    @cached_property
    def two_respecting(self) -> CutCandidate | None:
        return self.leaves.resolve(self.pending)

    @cached_property
    def best(self) -> CutCandidate:
        return self.leaves.resolve(join([self.one_respecting, self.pending]))


class GeneralTwoRespectingSolver:
    """Theorem 40's recursion; leaves go to ``leaves`` (a private batch
    when none is given)."""

    def __init__(
        self,
        accountant: RoundAccountant | None = None,
        leaves: LeafBatch | None = None,
    ):
        self.acct = accountant or RoundAccountant()
        self.stats = GeneralSolveStats()
        self.leaves = leaves if leaves is not None else LeafBatch()

    # ------------------------------------------------------------------
    def _base_case(
        self,
        graph: EdgeTable,
        tree: RootedTree,
        cov: Mapping[Edge, float],
        orig_of: Mapping[Edge, Edge],
    ) -> Deferred:
        """Every pair, enumerated in the leaf batch; the instance graphs
        are pair-cover exact, and Cov(e) singles are carried globals."""
        self.stats.base_cases += 1
        self.acct.charge(
            self.acct.cost.subtree_sum(len(tree)) + 2, "general:base-case"
        )
        return self.leaves.base_case(graph, tree, cov, orig_of)

    # ------------------------------------------------------------------
    def _split_at_centroid(self, tree: RootedTree, centroid: Node):
        """Components of T - c plus everything both sub-solvers need.

        Components come in the order a BFS over ``tree.to_graph()``
        minus ``c`` first meets them (the root's component, then one per
        child of ``c``), each a set filled in BFS order and then copied,
        as ``set(c) for c in networkx.connected_components(...)`` builds
        it, so iterating a component visits its nodes in the same order.
        """
        parent = tree.parent
        component_of: dict[Node, int] = {}
        found: list[set] = []
        anchors = {}  # component index -> the component node adjacent to c
        for node in tree.order:
            if node == centroid:
                continue
            above = parent[node]
            if above is None or above == centroid:
                component_of[node] = len(found)
                anchors[len(found)] = (
                    node if above == centroid else parent[centroid]
                )
                found.append({node})
            else:
                index = component_of[above]
                component_of[node] = index
                found[index].add(node)
        components = [set(members) for members in found]
        assert len(anchors) == len(components)
        return components, anchors

    def _build_between_instance(
        self,
        graph: EdgeTable,
        tree: RootedTree,
        cov: Mapping[Edge, float],
        orig_of: Mapping[Edge, Edge],
        virtual_nodes: frozenset,
        centroid: Node,
        components: list[set],
        anchors: dict[int, Node],
    ) -> SubtreeInstance:
        """Subdivide the centroid's tree edges with virtual centroids c_i
        and remap its graph edges onto the virtual root r* (exact for every
        surviving pair; see DESIGN.md)."""
        star_root = _fresh("between_root")
        mids = {index: _fresh("centroid") for index in range(len(components))}

        tree_edges = []
        new_orig: dict[Edge, Edge] = {}
        for index, members in enumerate(components):
            anchor = anchors[index]
            mid = mids[index]
            tree_edges.append((star_root, mid))
            tree_edges.append((mid, anchor))
            new_orig[edge_key(mid, anchor)] = orig_of[edge_key(centroid, anchor)]
            for node in members:
                parent = tree.parent[node]
                # Internal component edges: both endpoints in `members`
                # (the centroid itself is in no component, so its incident
                # tree edges are exactly the subdivided ones above).
                if parent is not None and parent in members:
                    edge = edge_key(node, parent)
                    tree_edges.append((node, parent))
                    new_orig[edge] = orig_of[edge]
        new_tree = RootedTree.from_edges(tree_edges, root=star_root)

        new_graph = assemble(
            new_tree.order,
            new_tree.edges(),
            (
                (
                    star_root if u == centroid else u,
                    star_root if v == centroid else v,
                    w,
                )
                for u, v, w in graph
            ),
        )

        virtuals = (virtual_nodes & set(new_tree.order)) | {star_root} | set(
            mids.values()
        )
        return SubtreeInstance(
            graph=new_graph,
            tree=new_tree,
            orig_of=new_orig,
            cov=cov,
            virtual_nodes=frozenset(virtuals),
        )

    def _build_component_instance(
        self,
        graph: EdgeTable,
        tree: RootedTree,
        cov: Mapping[Edge, float],
        orig_of: Mapping[Edge, Edge],
        virtual_nodes: frozenset,
        centroid: Node,
        members: set,
        anchor: Node,
    ):
        """Lemma 43: the private cut-equivalent graph H_i and its tree T'_i."""
        mid = _fresh("split_centroid")
        tree_edges = [(mid, anchor)]
        new_orig: dict[Edge, Edge] = {
            edge_key(mid, anchor): orig_of[edge_key(centroid, anchor)]
        }
        for node in members:
            parent = tree.parent[node]
            if parent is not None and parent in members:
                edge = edge_key(node, parent)
                tree_edges.append((node, parent))
                new_orig[edge] = orig_of[edge]
        contributions = []
        for u, v, w in graph:
            u_in, v_in = u in members, v in members
            if u_in and v_in:
                contributions.append((u, v, w))
            elif u_in:
                contributions.append((u, mid, w))
            elif v_in:
                contributions.append((v, mid, w))
        new_graph = assemble([*members, mid], tree_edges, contributions)
        new_tree = RootedTree.from_edges(tree_edges, root=mid)
        virtuals = (virtual_nodes & members) | {mid}
        return new_graph, new_tree, new_orig, frozenset(virtuals)

    # ------------------------------------------------------------------
    def _solve(
        self,
        graph: EdgeTable,
        tree: RootedTree,
        cov: Mapping[Edge, float],
        orig_of: Mapping[Edge, Edge],
        virtual_nodes: frozenset,
        depth: int,
    ) -> Deferred:
        self.stats.instances += 1
        self.stats.max_depth = max(self.stats.max_depth, depth)
        self.stats.max_virtual_nodes = max(
            self.stats.max_virtual_nodes, len(virtual_nodes)
        )
        if len(tree) - 1 <= BASE_CASE_EDGES:
            return self._base_case(graph, tree, cov, orig_of)

        centroid = find_centroid_centralized(tree)
        self.acct.charge(self.acct.cost.centroid(len(tree)), "general:centroid")
        components, anchors = self._split_at_centroid(tree, centroid)

        results: list[Deferred] = []
        with self.acct.virtual_overhead(1):
            between = self._build_between_instance(
                graph, tree, cov, orig_of, virtual_nodes,
                centroid, components, anchors,
            )
            results.append(
                solve_subtree_instance(
                    between, self.acct, self.stats.subtree, leaves=self.leaves
                )
            )

        with self.acct.parallel() as par:
            for index, members in enumerate(components):
                sub = self._build_component_instance(
                    graph, tree, cov, orig_of, virtual_nodes,
                    centroid, members, anchors[index],
                )
                sub_graph, sub_tree, sub_orig, sub_virtual = sub
                with par.branch():
                    results.append(
                        self._solve(
                            sub_graph, sub_tree, cov, sub_orig,
                            sub_virtual, depth + 1,
                        )
                    )
        return join(results)

    # ------------------------------------------------------------------
    def solve(
        self,
        graph: "nx.Graph | CSRGraph",
        tree: RootedTree,
        arrays: "GraphArrays | None" = None,
        table: EdgeTable | None = None,
        cov: "dict[Edge, float] | None" = None,
    ) -> TwoRespectingResult:
        if cov is None:
            cov = one_respecting_cuts_fast(graph, tree, self.acct, arrays=arrays)
        else:
            charge_one_respecting(self.acct, graph.number_of_nodes())
        one_best = best_candidate(
            CutCandidate(value=value, edges=(edge,)) for edge, value in cov.items()
        )
        identity = {edge: edge for edge in tree.edges()}
        if table is None:
            table = edge_table(graph)
        pending = self._solve(
            table, tree, cov, identity, frozenset(), depth=0
        )
        return TwoRespectingResult(
            one_respecting=one_best,
            pending=pending,
            leaves=self.leaves,
            ma_rounds=self.acct.total,
            stats=self.stats,
            accountant=self.acct,
        )


def two_respecting_min_cut(
    graph: "nx.Graph | CSRGraph",
    tree: nx.Graph | RootedTree,
    root: Node | None = None,
    accountant: RoundAccountant | None = None,
    arrays: "GraphArrays | None" = None,
    table: EdgeTable | None = None,
    leaves: LeafBatch | None = None,
    cov: "dict[Edge, float] | None" = None,
) -> TwoRespectingResult:
    """Theorem 40 entry point.

    ``tree`` may be a networkx tree (a spanning tree of ``graph``) or an
    already-rooted :class:`RootedTree`.  Returns the best 1-/2-respecting
    cut with original tree-edge labels, the accumulated Minor-Aggregation
    round charges, and the recursion statistics the paper's invariants are
    asserted against.  Callers solving many spanning trees of one graph
    can pre-extract its edges once: ``arrays`` for the 1-respecting pass,
    ``table`` (:func:`~repro.core.edge_table.edge_table`) for the
    recursion, and ``cov`` -- the tree's ``Cov(e)`` in ``tree.edges()``
    order, e.g. a :func:`~repro.kernel.cut_kernel.stacked_covers` row --
    in place of the 1-respecting pass (its rounds are charged either way).

    Without ``leaves`` the recursion's leaves are evaluated before this
    returns.  Callers solving several trees pass one shared
    :class:`~repro.core.leaves.LeafBatch` and call its ``flush`` once
    after the last tree; each result's ``best`` resolves on access.
    """
    if isinstance(tree, RootedTree):
        rooted = tree
    else:
        if root is None:
            root = min(tree.nodes(), key=lambda v: (type(v).__name__, str(v)))
        rooted = RootedTree(tree, root)
    solver = GeneralTwoRespectingSolver(accountant, leaves)
    result = solver.solve(graph, rooted, arrays=arrays, table=table, cov=cov)
    if leaves is None:
        solver.leaves.flush()
    return result
