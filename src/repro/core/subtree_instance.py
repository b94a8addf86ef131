"""Between-subtree 2-respecting min-cut (paper Section 8, Theorem 39).

A subtree instance is a root with k subtrees hanging off it; the goal is the
best ``Cut(e, f)`` with ``e`` and ``f`` in *different* subtrees.  Reduction
to star instances, exactly as in the paper:

1. a pairwise coloring of the k subtrees with ``ceil(log2 k)`` red/blue
   assignments (Lemma 38, via subtree-index bits) -- every pair of subtrees
   is split by some assignment;
2. for each (assignment, d1, d2) with d1/d2 ranging over the HL-depths
   present on the red/blue side, contract every subtree edge whose HL-depth
   differs from its side's guess.  Because same-depth HL-paths are never
   nested, the contraction leaves exactly a star of HL-paths hanging off the
   blob containing the root (Figure 4), and contraction preserves the cut
   values of all surviving pairs;
3. solve each star with Theorem 27.

If the optimal pair lives in subtrees i*, j* at HL-depths d1*, d2*, the
iteration (splitting assignment, d1*, d2*) keeps both of its HL-paths, so
the star solver sees it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from repro.accounting import RoundAccountant, log2ceil
from repro.core.cut_values import CutCandidate
from repro.core.edge_table import EdgeTable, assemble, chains, edge_table
from repro.core.leaves import Deferred, LeafBatch, join
from repro.core.star import StarInstance, StarPath, StarSolveStats, solve_star
from repro.obs import trace as obs_trace
from repro.trees.hld import HeavyLightDecomposition
from repro.trees.rooted import Edge, Node, RootedTree

_star_root_counter = itertools.count()


@dataclass
class SubtreeInstance:
    """Root + subtrees, with instance-tree edges labelled by original edges.

    ``orig_of`` maps instance tree edges to original tree edges; edges
    without a label (the virtual root edges) are never paired.  ``graph``
    is the instance's ordered edge table; a networkx graph given here is
    converted once.
    """

    graph: EdgeTable
    tree: RootedTree
    orig_of: Mapping[Edge, Edge]
    cov: Mapping[Edge, float]
    virtual_nodes: frozenset = frozenset()

    def __post_init__(self):
        self.graph = edge_table(self.graph)


@dataclass
class SubtreeSolveStats:
    colorings: int = 0
    star_instances: int = 0
    star: StarSolveStats = field(default_factory=StarSolveStats)


@dataclass
class _Subtree:
    """One subtree hanging off the instance root, prepared once per
    instance: its labelled HL-paths grouped by HL-depth (HL-path order
    kept) and every HL-depth its edges take, plus 0."""

    paths_at: dict[int, list[StarPath]]
    depths: set[int]


def pairwise_coloring(k: int) -> list[list[bool]]:
    """Lemma 38: assignments such that every index pair differs somewhere.

    Returns ``ceil(log2 k)`` boolean vectors (``True`` = red); vector ``b``
    colors index ``i`` by bit ``b`` of ``i``.
    """
    if k < 2:
        return []
    bits = log2ceil(k)
    return [
        [bool((index >> bit) & 1) for index in range(k)] for bit in range(bits)
    ]


def _subtrees(instance: SubtreeInstance) -> list[_Subtree]:
    """HLD of every subtree (rooted at the root's children), reduced to
    the star paths each HL-depth guess can keep."""
    tree = instance.tree
    orig_of = instance.orig_of
    result = []
    for top in tree.children[tree.root]:
        nodes = tree.subtree_nodes(top)
        edges = [
            (node, tree.parent[node])
            for node in nodes
            if node != top
        ]
        sub = RootedTree.from_edges(edges, root=top)
        hld = HeavyLightDecomposition(sub)
        paths_at: dict[int, list[StarPath]] = {}
        for hl_path in hld.hl_paths():
            path_edges = hl_path.edges
            if any(e not in orig_of for e in path_edges):
                continue  # paths touching unlabeled (virtual-root) edges
            paths_at.setdefault(hl_path.depth, []).append(
                StarPath(
                    nodes=list(hl_path.nodes),
                    orig=[orig_of[e] for e in path_edges],
                )
            )
        depths = {hld.hl_depth[node] for node in sub.order[1:]} | {0}
        result.append(_Subtree(paths_at=paths_at, depths=depths))
    return result


def _build_star(
    instance: SubtreeInstance,
    subtrees: list[_Subtree],
    reds: list[bool],
    d_red: int,
    d_blue: int,
) -> StarInstance | None:
    """Contract everything except the guessed-depth HL-paths (Figure 4)."""
    tree = instance.tree
    star_root = ("__star_root__", next(_star_root_counter))

    paths: list[StarPath] = []
    red_paths = blue_paths = 0
    for index, subtree in enumerate(subtrees):
        kept = subtree.paths_at.get(d_red if reds[index] else d_blue, ())
        paths.extend(kept)
        if reds[index]:
            red_paths += len(kept)
        else:
            blue_paths += len(kept)
    if red_paths == 0 or blue_paths == 0 or len(paths) < 2:
        return None

    # Contraction map: a node survives iff it lies on a kept path (its
    # parent edge is a path edge); the rest merge into their parent.
    survivors = {node for path in paths for node in path.nodes}
    rep: dict[Node, Node] = {tree.root: star_root}
    parent = tree.parent
    for node in tree.order[1:]:
        rep[node] = node if node in survivors else rep[parent[node]]

    graph = assemble(
        [star_root, *(node for path in paths for node in path.nodes)],
        chains(star_root, (path.nodes for path in paths)),
        ((rep[u], rep[v], w) for u, v, w in instance.graph),
    )

    virtuals = (instance.virtual_nodes & survivors) | {star_root}
    return StarInstance(
        graph=graph,
        root=star_root,
        paths=paths,
        cov=instance.cov,
        virtual_nodes=frozenset(virtuals),
    )


def solve_subtree_instance(
    instance: SubtreeInstance,
    accountant: RoundAccountant | None = None,
    stats: SubtreeSolveStats | None = None,
    leaves: LeafBatch | None = None,
) -> "CutCandidate | Deferred | None":
    """Theorem 39: best pair across different subtrees of the root.

    With ``leaves``, the path-to-path leaves are recorded there and the
    result is :data:`~repro.core.leaves.Deferred`; without, a private
    batch is evaluated and the best candidate returned.
    """
    if leaves is None:
        leaves = LeafBatch()
        return leaves.resolve(
            solve_subtree_instance(instance, accountant, stats, leaves)
        )
    acct = accountant or RoundAccountant()
    stats = stats if stats is not None else SubtreeSolveStats()
    tree = instance.tree
    k = len(tree.children[tree.root])
    if k < 2:
        return None

    with obs_trace.span("ma.subtree_instance", acct_prefix="subtree:"):
        subtrees = _subtrees(instance)
        acct.charge(acct.cost.hld(len(tree)), "subtree:hld")
        assignments = pairwise_coloring(k)
        stats.colorings = len(assignments)

        results: list[Deferred] = []
        for reds in assignments:
            if not any(reds) or all(reds):
                continue
            depths_red = sorted(
                set().union(*(s.depths for s, red in zip(subtrees, reds) if red))
            )
            depths_blue = sorted(
                set().union(
                    *(s.depths for s, red in zip(subtrees, reds) if not red)
                )
            )
            for d_red in depths_red:
                for d_blue in depths_blue:
                    acct.charge(2, "subtree:contract")
                    star = _build_star(instance, subtrees, reds, d_red, d_blue)
                    if star is None:
                        continue
                    stats.star_instances += 1
                    results.append(
                        solve_star(star, acct, stats.star, leaves=leaves)
                    )
        return join(results)
