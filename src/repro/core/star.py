"""Star 2-respecting min-cut (paper Section 7, Theorem 27).

A star instance is a root with k descending paths; the goal is the best
``Cut(e, f)`` over pairs of edges on *different* paths.  The algorithm:

1. compute every path's interest list (Lemma 32, heavy-hitter sketches);
2. build the mutual-interest graph (max degree Õ(1) by Lemma 30);
3. edge-color it with Õ(1) colors (Lemma 35 via Lemma 34);
4. per color class, run the path-to-path solver (Theorem 19) on each matched
   pair simultaneously -- the pairs are node-disjoint (Corollary 11) and
   each gets a private virtual root (Lemma 15 / Theorem 14).

By Lemma 28 any pair beating every 1-respecting cut lives on a
mutually-interested pair of paths, so the color classes cover the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.accounting import RoundAccountant
from repro.core.cut_values import CutCandidate
from repro.core.edge_table import EdgeTable, edge_table
from repro.core.interest import greedy_edge_coloring, interest_structure
from repro.core.leaves import Deferred, LeafBatch, join
from repro.core.path_to_path import PathInstance, PathToPathSolver
from repro.obs import trace as obs_trace
from repro.trees.rooted import Edge, Node

_star_counter = 0


def _fresh_id(tag: str):
    global _star_counter
    _star_counter += 1
    return (f"__{tag}__", _star_counter)


@dataclass
class StarPath:
    """One descending path: ``orig[i - 1]`` labels path edge ``e_i``
    (``e_1`` is the attachment edge hanging off the star root)."""

    nodes: list[Node]
    orig: list[Edge]

    def __post_init__(self):
        if len(self.nodes) != len(self.orig):
            raise ValueError("orig must label every path edge")


@dataclass
class StarInstance:
    """Root + descending paths; ``graph`` is the ordered edge table over
    the root and the path nodes (a networkx graph is converted once).
    Only its edges between different paths are read, so Theorem 39's
    contractions build just those."""

    graph: EdgeTable
    root: Node
    paths: list[StarPath]
    cov: Mapping[Edge, float]
    virtual_nodes: frozenset = frozenset()

    def __post_init__(self):
        self.graph = edge_table(self.graph)


@dataclass
class StarSolveStats:
    pair_instances: int = 0
    interest_list_sizes: list = field(default_factory=list)
    interest_max_degree: int = 0
    colors_used: int = 0


def _pair_edges(instance: StarInstance) -> dict[tuple[int, int], EdgeTable]:
    """The star's cross-path edges grouped by path pair ``(i, j)``, i < j,
    each group in edge-table order."""
    path_of: dict = {}
    for index, path in enumerate(instance.paths):
        for node in path.nodes:
            path_of[node] = index
    groups: dict[tuple[int, int], EdgeTable] = {}
    for edge in instance.graph:
        pu, pv = path_of.get(edge[0]), path_of.get(edge[1])
        if pu is None or pv is None or pu == pv:
            continue
        key = (pu, pv) if pu < pv else (pv, pu)
        group = groups.get(key)
        if group is None:
            groups[key] = [edge]
        else:
            group.append(edge)
    return groups


def _build_pair_instance(
    instance: StarInstance, i: int, j: int, edges: EdgeTable
) -> PathInstance:
    """Matched pair (P_i, P_j) with a private virtual root (Theorem 27).

    ``edges`` are the star's edges between the two paths; the pair's
    table is what :func:`assemble` builds over the root, the union of
    the paths' node sets and the two chains: only those edges (the
    zero-weight chains drop out), oriented and ordered by the earlier
    endpoint's position in that node order, stable in star-table order.
    """
    path_i, path_j = instance.paths[i], instance.paths[j]
    root = _fresh_id("pair_root")
    position = {
        node: index
        for index, node in enumerate(set(path_i.nodes) | set(path_j.nodes))
    }
    oriented = [
        (u, v, w) if position[u] < position[v] else (v, u, w)
        for u, v, w in edges
    ]
    oriented.sort(key=lambda edge: position[edge[0]])
    return PathInstance(
        graph=oriented,
        root=root,
        p_nodes=list(path_i.nodes),
        q_nodes=list(path_j.nodes),
        p_orig=list(path_i.orig),
        q_orig=list(path_j.orig),
        cov=instance.cov,
        virtual_nodes=frozenset({root}),
    )


def solve_star(
    instance: StarInstance,
    accountant: RoundAccountant | None = None,
    stats: StarSolveStats | None = None,
    leaves: LeafBatch | None = None,
) -> "CutCandidate | Deferred | None":
    """Theorem 27: best 2-respecting pair across different star paths.

    With ``leaves``, the path-to-path leaves are recorded there and the
    result is :data:`~repro.core.leaves.Deferred`; without, a private
    batch is evaluated and the best candidate returned.
    """
    if leaves is None:
        leaves = LeafBatch()
        return leaves.resolve(solve_star(instance, accountant, stats, leaves))
    acct = accountant or RoundAccountant()
    stats = stats if stats is not None else StarSolveStats()
    if len(instance.paths) < 2:
        return None

    with obs_trace.span("ma.star", acct_prefix="star:"):
        with acct.virtual_overhead(len(instance.virtual_nodes)):
            structure = interest_structure(
                [p.nodes for p in instance.paths], instance.graph, acct
            )
            stats.interest_list_sizes.extend(len(s) for s in structure.lists)
            stats.interest_max_degree = max(
                stats.interest_max_degree, structure.max_degree
            )
            if not structure.pairs:
                return None
            coloring = greedy_edge_coloring(structure.pairs)
            colors = sorted(set(coloring.values()))
            stats.colors_used = max(stats.colors_used, len(colors))
            # The star's nodes: its root plus every path node.
            n = 1 + sum(len(p.nodes) for p in instance.paths)
            acct.charge(
                acct.cost.edge_coloring(structure.max_degree, n),
                "star:edge-coloring",
            )

        pair_edges = _pair_edges(instance)
        results: list[Deferred] = []
        for color in colors:
            matched = [pair for pair, c in coloring.items() if c == color]
            with acct.parallel() as par:
                for i, j in matched:
                    with par.branch():
                        stats.pair_instances += 1
                        pair_instance = _build_pair_instance(
                            instance, i, j, pair_edges.get((i, j), [])
                        )
                        solver = PathToPathSolver(acct, leaves)
                        results.append(solver.solve(pair_instance))
        return join(results)
