"""Stacked tree arrays: BFS + Euler intervals for many trees in one pass.

:class:`~repro.kernel.tree_kernel.TreeKernel` builds one tree's arrays
with a Python BFS and an explicit DFS stack -- fine per call, but a
many-graph sweep packs *hundreds* of trees and the per-tree Python loops
become the bottleneck once packing and the oracle are batched.  This
module builds the same arrays for a whole stack of same-size trees with
level-synchronous numpy passes:

* **BFS order / parents** -- one frontier expansion per level across all
  trees at once (CSR adjacency over ``tree * n + node`` keys);
* **subtree sizes** -- one scatter-add per level, deepest first;
* **Euler ``tin``/``tout``** -- no DFS at all: children of a node occupy
  a contiguous run of BFS positions, and the kernel's stack discipline
  (children pushed in adjacency order, popped LIFO) visits them in
  *reverse* adjacency order, so ``tin(child) = tin(parent) + 1 +
  (sizes of later siblings)`` -- a segmented suffix sum over the BFS
  order, resolved level by level.

The outputs are element-for-element equal to the per-tree
:class:`TreeKernel` fields (asserted by the test suite): ``order`` is the
BFS order (``kernel.nodes``), ``pos`` its inverse (``tree_remap``), and
``tin``/``tout`` the Euler intervals.  Equality holds because the input
edge lists are given in the exact insertion order the serial path feeds
``RootedTree`` (canonical edge-key order), so adjacency enumeration --
and hence every downstream order -- coincides.

Only index-space trees (nodes ``0..n-1``) are supported; that is what
every packing's ``tree_edge_arrays`` holds, for CSR and networkx input
alike.
"""

from __future__ import annotations

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
    edge_u: np.ndarray, edge_v: np.ndarray, roots: np.ndarray, n: int
) -> TreeStack:
    """Build a :class:`TreeStack` from ``(T, n-1)`` edge endpoint arrays.

    ``edge_u[t, e]`` / ``edge_v[t, e]`` are the endpoints of tree ``t``'s
    ``e``-th edge *in insertion order* (the order the serial path hands
    :class:`RootedTree`, which fixes adjacency enumeration); ``roots[t]``
    is tree ``t``'s root node id.
    """
    with obs_trace.span(
        "forest.stacked_build", trees=int(np.asarray(edge_u).shape[0]), n=n
    ) as sp:
        stack = _stacked_tree_arrays(edge_u, edge_v, roots, n)
        sp.set(
            bytes=int(
                stack.order.nbytes + stack.pos.nbytes + stack.parent.nbytes
                + stack.tin.nbytes + stack.tout.nbytes
            )
        )
        return stack


def _stacked_tree_arrays(
    edge_u: np.ndarray, edge_v: np.ndarray, roots: np.ndarray, n: int
) -> TreeStack:
    edge_u = np.asarray(edge_u, dtype=np.int64)
    edge_v = np.asarray(edge_v, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64)
    trees, k = edge_u.shape
    if k != n - 1:
        raise ValueError(f"expected {n - 1} edges per tree, got {k}")
    total = trees * n

    # Directed adjacency in RootedTree insertion order: edge e appends
    # u -> v first, v -> u second, so entry rank (e, direction) is the
    # within-node enumeration order; a stable sort by source key
    # reproduces each node's neighbor sequence exactly.
    src = np.empty(trees * k * 2, dtype=np.int64)
    dst = np.empty_like(src)
    src[0::2] = (edge_u + np.arange(trees)[:, None] * n).ravel()
    dst[0::2] = (edge_v + np.arange(trees)[:, None] * n).ravel()
    src[1::2] = dst[0::2]
    dst[1::2] = src[0::2]
    sort = np.argsort(src, kind="stable")
    adj_dst = dst[sort]
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=total), out=indptr[1:])

    # ------------------------------------------------------------------
    # Level-synchronous BFS over all trees at once.  The frontier stays
    # grouped by tree and ordered by BFS position inside each tree, so
    # concatenated child expansions reproduce the serial queue order.
    # ------------------------------------------------------------------
    pos_flat = np.full(total, -1, dtype=np.int64)
    order = np.empty((trees, n), dtype=np.int64)
    parent = np.zeros((trees, n), dtype=np.int64)
    level_of: list[tuple[np.ndarray, np.ndarray]] = []  # (tree, bfs_pos)

    frontier = roots + np.arange(trees, dtype=np.int64) * n
    pos_flat[frontier] = 0
    order[:, 0] = roots
    next_index = np.ones(trees, dtype=np.int64)
    frontier_pos = np.zeros(trees, dtype=np.int64)  # bfs pos per frontier entry
    level_of.append((np.arange(trees, dtype=np.int64), frontier_pos))

    while True:
        counts = indptr[frontier + 1] - indptr[frontier]
        if not counts.any():
            break
        # Expand every frontier node's adjacency slice, in frontier order.
        offsets = np.concatenate([[0], np.cumsum(counts)])
        take = np.arange(offsets[-1], dtype=np.int64)
        take += np.repeat(indptr[frontier] - offsets[:-1], counts)
        targets = adj_dst[take]
        source = np.repeat(frontier, counts)
        new = pos_flat[targets] < 0
        children = targets[new]
        if not len(children):
            break
        child_parent = source[new]
        t_of = children // n
        # Sequential BFS positions per tree; `children` is grouped by
        # tree (the frontier was), so a segmented arange suffices.
        ccounts = np.bincount(t_of, minlength=trees)
        group_start = np.concatenate([[0], np.cumsum(ccounts)[:-1]])
        within = np.arange(len(children), dtype=np.int64) - group_start[t_of]
        bfs_pos = next_index[t_of] + within
        pos_flat[children] = bfs_pos
        order[t_of, bfs_pos] = children % n
        parent[t_of, bfs_pos] = pos_flat[child_parent]
        next_index += ccounts
        level_of.append((t_of, bfs_pos))
        frontier = children

    if (pos_flat < 0).any():
        raise ValueError("input edges do not form spanning trees")

    # ------------------------------------------------------------------
    # Subtree sizes, deepest level first (siblings may share a parent, so
    # the accumulation is a scatter-add per level).
    # ------------------------------------------------------------------
    sizes = np.ones((trees, n), dtype=np.int64)
    for t_of, bfs_pos in reversed(level_of[1:]):
        np.add.at(sizes, (t_of, parent[t_of, bfs_pos]), sizes[t_of, bfs_pos])

    # ------------------------------------------------------------------
    # Euler tin/tout without a DFS.  BFS parents are non-decreasing along
    # the BFS order, so sibling groups are contiguous runs; the DFS stack
    # visits children in reverse adjacency order, hence
    #   tin(child) = tin(parent) + 1 + sum(sizes of later siblings).
    # The "later siblings" term is a run-segmented suffix sum.
    # ------------------------------------------------------------------
    run_parent = parent.copy()
    run_parent[:, 0] = -1  # the root is its own run, never a sibling
    suffix = np.zeros((trees, n + 1), dtype=np.int64)
    np.cumsum(sizes[:, ::-1], axis=1, out=suffix[:, 1:])
    suffix = suffix[:, ::-1]  # suffix[t, i] = sum of sizes[t, i:]
    boundary = np.empty((trees, n), dtype=np.int64)
    boundary[:, -1] = n
    changes = run_parent[:, 1:] != run_parent[:, :-1]
    boundary[:, :-1] = np.where(changes, np.arange(1, n), n + 1)
    run_end = np.minimum.accumulate(boundary[:, ::-1], axis=1)[:, ::-1]
    idx_next = np.broadcast_to(np.arange(1, n + 1), (trees, n)).copy()
    later_siblings = (
        np.take_along_axis(suffix, idx_next, axis=1)
        - np.take_along_axis(suffix, run_end, axis=1)
    )

    tin = np.zeros((trees, n), dtype=np.int64)
    for t_of, bfs_pos in level_of[1:]:
        tin[t_of, bfs_pos] = (
            tin[t_of, parent[t_of, bfs_pos]] + 1 + later_siblings[t_of, bfs_pos]
        )
    tout = tin + sizes

    pos = pos_flat.reshape(trees, n)
    return TreeStack(order=order, pos=pos, parent=parent, tin=tin, tout=tout)
