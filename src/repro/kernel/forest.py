"""Stacked tree arrays: BFS + Euler intervals for many trees in one pass.

:class:`~repro.kernel.tree_kernel.TreeKernel` builds one tree's arrays
with a Python BFS and an explicit DFS stack -- fine per call, but a
many-graph sweep packs *hundreds* of trees and the per-tree Python loops
become the bottleneck once packing and the oracle are batched.  This
module builds the same arrays for every tree of every graph of a batch,
whatever the graphs' node counts, with level-synchronous numpy passes
over one flat node space (tree ``j`` owns the slots ``offset[j] ..
offset[j] + n_j - 1``; a graph's trees sit next to each other):

* **BFS order / parents** -- one frontier expansion per level across all
  trees at once (CSR adjacency over ``offset + node`` keys);
* **subtree sizes** -- one segmented sum per level, deepest first;
* **Euler ``tin``/``tout``** -- no DFS at all: children of a node occupy
  a contiguous run of BFS positions, and the kernel's stack discipline
  (children pushed in adjacency order, popped LIFO) visits them in
  *reverse* adjacency order, so ``tin(child) = tin(parent) + 1 +
  (sizes of later siblings)`` -- a run-segmented suffix sum over the
  flat BFS order, resolved level by level.

Each graph's :class:`TreeStack` is a ``(T, n)`` reshape of its block of
the flat arrays.  The outputs are element-for-element equal to the
per-tree :class:`TreeKernel` fields (asserted by the test suite):
``order`` is the BFS order (``kernel.nodes``), ``pos`` its inverse
(``tree_remap``), and ``tin``/``tout`` the Euler intervals.  Equality
holds because the input edge lists are given in the exact insertion
order the serial path feeds ``RootedTree`` (canonical edge-key order),
so adjacency enumeration -- and hence every downstream order --
coincides.

Only index-space trees (nodes ``0..n-1``) are supported; that is what
every packing's ``tree_edge_arrays`` holds, for CSR and networkx input
alike.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs import trace as obs_trace


class TreeStack:
    """Array bundle for ``T`` rooted trees on ``n`` nodes each.

    Attributes
    ----------
    order:
        ``(T, n)`` -- BFS index -> node id (row ``t`` is tree ``t``'s
        ``kernel.nodes``).
    pos:
        ``(T, n)`` -- node id -> BFS index (the ``tree_remap`` row).
    parent:
        ``(T, n)`` -- BFS index -> parent's BFS index (root maps to 0).
    tin / tout:
        ``(T, n)`` -- half-open Euler interval per BFS index.
    """

    __slots__ = ("order", "pos", "parent", "tin", "tout", "n", "trees")

    def __init__(self, order, pos, parent, tin, tout):
        self.order = order
        self.pos = pos
        self.parent = parent
        self.tin = tin
        self.tout = tout
        self.trees, self.n = order.shape

    def select(self, rows: np.ndarray) -> "TreeStack":
        """The stack of trees ``rows`` only, in that order."""
        return TreeStack(
            self.order[rows], self.pos[rows], self.parent[rows],
            self.tin[rows], self.tout[rows],
        )

    def edge_at(self, t: int, i: int) -> tuple[int, int]:
        """The ``i``-th tree edge of tree ``t`` in BFS order.

        Matches ``list(RootedTree(...).edges())[i]`` for index-space
        trees: the bottom node is BFS index ``i + 1`` and integer node
        ids canonicalise by string order.
        """
        from repro.trees.rooted import edge_key

        node = int(self.order[t, i + 1])
        parent_node = int(self.order[t, self.parent[t, i + 1]])
        return edge_key(node, parent_node)


def stacked_tree_arrays(
    sizes: Sequence[int],
    trees: "Sequence[Sequence[tuple[np.ndarray, np.ndarray]]]",
    roots: Sequence[int],
) -> list[TreeStack]:
    """One :class:`TreeStack` per graph, every tree built in one pass.

    ``trees[g]`` lists graph ``g``'s spanning trees as ``(edge_u,
    edge_v)`` node-index arrays of ``sizes[g] - 1`` edges each, *in
    insertion order* (the order the serial path hands
    :class:`RootedTree`, which fixes adjacency enumeration); every tree
    of graph ``g`` is rooted at node ``roots[g]``.
    """
    with obs_trace.span(
        "forest.stacked_build",
        graphs=len(sizes),
        trees=sum(len(group) for group in trees),
    ) as sp:
        stacks, nbytes = _stacked_tree_arrays(sizes, trees, roots)
        sp.set(bytes=nbytes)
        return stacks


def _stacked_tree_arrays(sizes, trees, roots) -> tuple[list[TreeStack], int]:
    counts = [len(group) for group in trees]
    tree_n = np.repeat(np.asarray(sizes, dtype=np.int64), counts)
    offset = np.zeros(len(tree_n) + 1, dtype=np.int64)
    np.cumsum(tree_n, out=offset[1:])
    edges = [pair for group in trees for pair in group]
    for (edge_u, _edge_v), n in zip(edges, tree_n.tolist()):
        if len(edge_u) != n - 1:
            raise ValueError(f"expected {n - 1} edges per tree, got {len(edge_u)}")
    if edges:
        # Tree j's node ids shifted into its slots of the flat space.
        shift = np.repeat(offset[:-1], tree_n - 1)
        edge_u = np.concatenate([eu for eu, _ev in edges]) + shift
        edge_v = np.concatenate([ev for _eu, ev in edges]) + shift
    else:
        edge_u = edge_v = np.zeros(0, dtype=np.int64)
    tree_roots = np.repeat(np.asarray(roots, dtype=np.int64), counts)
    flat = _flat_forest(edge_u, edge_v, tree_roots, offset)

    # A graph's trees are one contiguous block: each stack is a reshape.
    stacks = []
    start = 0
    for n, count in zip(sizes, counts):
        block = slice(start, start + n * count)
        stacks.append(
            TreeStack(*(array[block].reshape(count, n) for array in flat))
        )
        start += n * count
    return stacks, sum(array.nbytes for array in flat)


def _flat_forest(
    edge_u: np.ndarray, edge_v: np.ndarray, roots: np.ndarray, offset: np.ndarray
) -> tuple[np.ndarray, ...]:
    """``(order, pos, parent, tin, tout)`` over the flat slot space: tree
    ``j`` owns slots ``offset[j] .. offset[j + 1] - 1``, its node ``x``
    is key ``offset[j] + x`` (``pos`` is indexed by key), and its BFS
    index ``i`` is slot ``offset[j] + i`` (every other array).  Values
    stay tree-local: node ids and BFS indices."""
    tree_count = len(roots)
    total = int(offset[-1])
    start = offset[:-1]
    tree_of = np.repeat(np.arange(tree_count, dtype=np.int64), np.diff(offset))

    # Directed adjacency in RootedTree insertion order: edge e appends
    # u -> v first, v -> u second, so entry rank (e, direction) is the
    # within-node enumeration order; a stable sort by source key
    # reproduces each node's neighbor sequence exactly.
    src = np.empty(2 * len(edge_u), dtype=np.int64)
    dst = np.empty_like(src)
    src[0::2] = dst[1::2] = edge_u
    dst[0::2] = src[1::2] = edge_v
    adj_dst = dst[np.argsort(src, kind="stable")]
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=total), out=indptr[1:])

    # ------------------------------------------------------------------
    # Level-synchronous BFS over all trees at once.  The frontier stays
    # grouped by tree and ordered by BFS position inside each tree, so
    # concatenated child expansions reproduce the serial queue order.
    # ------------------------------------------------------------------
    pos = np.full(total, -1, dtype=np.int64)
    order = np.empty(total, dtype=np.int64)
    parent = np.zeros(total, dtype=np.int64)
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # (slots, parent slots)
    frontier = start + roots
    pos[frontier] = 0
    order[start] = roots
    next_index = np.ones(tree_count, dtype=np.int64)
    while len(frontier):
        counts = indptr[frontier + 1] - indptr[frontier]
        # Expand every frontier node's adjacency slice, in frontier order.
        ends = np.cumsum(counts)
        take = np.arange(int(ends[-1]), dtype=np.int64)
        take += np.repeat(indptr[frontier] - (ends - counts), counts)
        targets = adj_dst[take]
        new = pos[targets] < 0
        children = targets[new]
        if not len(children):
            break
        parent_pos = pos[np.repeat(frontier, counts)[new]]
        t_of = tree_of[children]
        # Sequential BFS positions per tree; `children` is grouped by
        # tree (the frontier was), so a segmented arange suffices.
        ccounts = np.bincount(t_of, minlength=tree_count)
        group_start = np.cumsum(ccounts) - ccounts
        bfs_pos = next_index[t_of] - group_start[t_of]
        bfs_pos += np.arange(len(children), dtype=np.int64)
        base = start[t_of]
        slots = base + bfs_pos
        pos[children] = bfs_pos
        order[slots] = children - base
        parent[slots] = parent_pos
        next_index += ccounts
        levels.append((slots, base + parent_pos))
        frontier = children

    if (pos < 0).any():
        raise ValueError("input edges do not form spanning trees")

    # ------------------------------------------------------------------
    # Subtree sizes, deepest level first (siblings may share a parent, so
    # the accumulation is a scatter-add per level).
    # ------------------------------------------------------------------
    sizes = np.ones(total, dtype=np.int64)
    for slots, parent_slots in reversed(levels):
        np.add.at(sizes, parent_slots, sizes[slots])

    # ------------------------------------------------------------------
    # Euler tin/tout without a DFS.  BFS parents are non-decreasing along
    # the BFS order, so sibling groups are contiguous runs; the DFS stack
    # visits children in reverse adjacency order, hence
    #   tin(child) = tin(parent) + 1 + sum(sizes of later siblings).
    # The "later siblings" term is a run-segmented suffix sum; a run is
    # keyed by its parent's BFS index, and the roots (key -1) part the
    # trees, so no run crosses from one tree into the next.
    # ------------------------------------------------------------------
    run_key = parent.copy()
    run_key[start] = -1
    boundary = np.full(total, total + 1, dtype=np.int64)
    boundary[-1:] = total
    changes = np.flatnonzero(run_key[1:] != run_key[:-1])
    boundary[changes] = changes + 1
    run_end = np.minimum.accumulate(boundary[::-1])[::-1]
    prefix = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(sizes, out=prefix[1:])
    later_siblings = prefix[run_end] - prefix[1:]

    tin = np.zeros(total, dtype=np.int64)
    for slots, parent_slots in levels:
        tin[slots] = tin[parent_slots] + 1 + later_siblings[slots]
    return order, pos, parent, tin, tin + sizes
