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
from repro.core.edge_table import EdgeTable, edge_table
from repro.core.leaves import Deferred, LeafBatch, join
from repro.core.star import StarInstance, StarPath, StarSolveStats, solve_star
from repro.obs import trace as obs_trace
from repro.trees.rooted import Edge, Node, RootedTree, edge_key

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
    #: the most pairwise colorings (chi) any one instance used
    colorings: int = 0
    star_instances: int = 0
    star: StarSolveStats = field(default_factory=StarSolveStats)


@dataclass
class _Subtree:
    """One subtree hanging off the instance root: its labelled HL-paths
    grouped by HL-depth (HL-path order kept), the node count of each
    group, and every HL-depth its edges take, plus 0."""

    paths_at: dict[int, list[StarPath]]
    size_at: dict[int, int]
    depths: set[int]


@dataclass
class _Index:
    """A subtree instance indexed once for all of its stars.

    ``edges`` holds, in instance-table order, every instance edge that
    some star keeps as a cross-path edge: ``(cross, w, s_u, s_v)``, where
    ``s_x`` is the endpoint's subtree and ``cross`` maps each pair of
    HL-depth guesses ``(d_u, d_v)`` under which the edge joins two
    different kept paths to the offsets its endpoints contract into.  A
    node's offset is its position in the concatenated node lists of its
    subtree's labelled paths at its HL-depth; under guess ``d`` a node
    contracts into its deepest ancestor-or-self on a labelled depth-``d``
    path, or into the star root when there is none.
    """

    subtrees: list[_Subtree]
    edges: list[tuple[dict, float, int, int]]


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


def _heavy_child(kids: list[int], size: list[int], nodes: list[Node]) -> int:
    """:class:`~repro.trees.hld.HeavyLightDecomposition`'s choice: the
    first child in ``kids`` maximising (size, type name, str)."""
    if len(kids) == 1:
        return kids[0]
    top = max(size[c] for c in kids)
    tied = [c for c in kids if size[c] == top]
    if len(tied) == 1:
        return tied[0]
    return max(
        tied, key=lambda c: (size[c], type(nodes[c]).__name__, str(nodes[c]))
    )


def _index(instance: SubtreeInstance) -> _Index:
    """Decompose every subtree and index the instance's edges, in one walk.

    Each subtree is decomposed as ``HeavyLightDecomposition`` would
    decompose ``RootedTree.from_edges`` of its edges listed in the
    instance tree's preorder, whose BFS visits every node's children in
    reverse, so the HL-paths come out in exactly that order.
    """
    tree = instance.tree
    orig_of = instance.orig_of
    nodes = tree.order
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    parent = [-1] + [index[tree.parent[node]] for node in nodes[1:]]
    kids = [[index[c] for c in tree.children[node]] for node in nodes]
    size = [1] * n
    for i in range(n - 1, 0, -1):
        for c in kids[i]:
            size[i] += size[c]

    subtree_of = [-1] * n
    path_id = [-1] * n
    block_pos = [0] * n
    rep: list[dict] = [{}] * n
    subtrees: list[_Subtree] = []
    paths = 0
    for s, top in enumerate(kids[0]):
        # Sub-BFS with reversed children: ``RootedTree.from_edges`` order.
        order = [top]
        for x in order:
            order.extend(reversed(kids[x]))
        heavy = {
            x: _heavy_child(kids[x][::-1], size, nodes) for x in order if kids[x]
        }
        hl = {top: 0}
        starts = [heavy[top]] if top in heavy else []
        for x in order[1:]:
            light = heavy[parent[x]] != x
            hl[x] = hl[parent[x]] + light
            if light:
                starts.append(x)
        paths_at: dict[int, list[StarPath]] = {}
        size_at: dict[int, int] = {}
        for first in starts:
            chain = [first]
            while chain[-1] in heavy:
                chain.append(heavy[chain[-1]])
            path_nodes = [nodes[x] for x in chain]
            orig = [
                orig_of.get(edge_key(nodes[x], nodes[parent[x]])) for x in chain
            ]
            if None in orig:
                continue  # paths touching unlabeled (virtual-root) edges
            depth = hl[first]
            offset = size_at.get(depth, 0)
            for rank, x in enumerate(chain):
                path_id[x] = paths
                block_pos[x] = offset + rank
            paths += 1
            size_at[depth] = offset + len(chain)
            paths_at.setdefault(depth, []).append(
                StarPath(nodes=path_nodes, orig=orig)
            )
        for x in order[1:]:
            subtree_of[x] = s
            above = rep[parent[x]]
            if path_id[x] >= 0:
                above = dict(above)
                above[hl[x]] = x
            rep[x] = above
        depths = set(hl.values())
        subtrees.append(_Subtree(paths_at=paths_at, size_at=size_at, depths=depths))

    edges = []
    for u, v, w in instance.graph:
        iu, iv = index[u], index[v]
        s_u, s_v = subtree_of[iu], subtree_of[iv]
        cross = {
            (d_u, d_v): (block_pos[ru], block_pos[rv])
            for d_u, ru in rep[iu].items()
            for d_v, rv in rep[iv].items()
            if (s_u != s_v or d_u == d_v) and path_id[ru] != path_id[rv]
        }
        if cross:
            edges.append((cross, w, s_u, s_v))
    return _Index(subtrees=subtrees, edges=edges)


def _build_star(
    instance: SubtreeInstance,
    index: _Index,
    reds: list[bool],
    d_red: int,
    d_blue: int,
) -> StarInstance | None:
    """Contract everything except the guessed-depth HL-paths (Figure 4).

    A node survives iff it lies on a kept path; every other node merges
    into its nearest surviving ancestor, or into the star root.  Only
    the edges between different kept paths are built -- the star root's
    and same-path edges are never read -- in :func:`assemble`'s order
    over the star's nodes (the root, then the paths' nodes): by earlier
    endpoint, then first contribution, parallel contributions summed in
    instance-table order.
    """
    star_root = ("__star_root__", next(_star_root_counter))
    guess = [d_red if red else d_blue for red in reds]
    paths: list[StarPath] = []
    base: list[int] = []
    red_paths = blue_paths = nodes = 0
    for red, subtree, depth in zip(reds, index.subtrees, guess):
        kept = subtree.paths_at.get(depth, ())
        base.append(nodes)
        nodes += subtree.size_at.get(depth, 0)
        paths.extend(kept)
        if red:
            red_paths += len(kept)
        else:
            blue_paths += len(kept)
    if red_paths == 0 or blue_paths == 0 or len(paths) < 2:
        return None

    weight: dict[tuple[int, int], float] = {}
    current = weight.get
    for cross, w, s_u, s_v in index.edges:
        offsets = cross.get((guess[s_u], guess[s_v]))
        if offsets is None:
            continue
        pu = base[s_u] + offsets[0]
        pv = base[s_v] + offsets[1]
        key = (pu, pv) if pu < pv else (pv, pu)
        total = current(key)
        weight[key] = w if total is None else total + w
    star_nodes = [node for path in paths for node in path.nodes]
    graph = [
        (star_nodes[a], star_nodes[b], w)
        for (a, b), w in sorted(weight.items(), key=_earlier_endpoint)
        if w != 0
    ]

    virtual_nodes = instance.virtual_nodes
    return StarInstance(
        graph=graph,
        root=star_root,
        paths=paths,
        cov=instance.cov,
        virtual_nodes=frozenset(
            [star_root, *(v for v in star_nodes if v in virtual_nodes)]
        ),
    )


def _earlier_endpoint(item) -> int:
    return item[0][0]


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
        index = _index(instance)
        subtrees = index.subtrees
        acct.charge(acct.cost.hld(len(tree)), "subtree:hld")
        assignments = pairwise_coloring(k)
        stats.colorings = max(stats.colorings, len(assignments))

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
                    star = _build_star(instance, index, reds, d_red, d_blue)
                    if star is None:
                        continue
                    stats.star_instances += 1
                    results.append(
                        solve_star(star, acct, stats.star, leaves=leaves)
                    )
        return join(results)
