"""Stacked tree arrays: BFS + Euler intervals for many trees in one pass.

This is the one builder of BFS order, parents and Euler intervals in the
package.  The oracle roots packed trees batch by batch, a many-graph
sweep packs *hundreds* of them, the recursion's leaves hold thousands of
tiny base-case trees, and a :class:`~repro.kernel.tree_kernel.TreeKernel`
is one tree's one-row stack -- so it builds the arrays for every tree of
every graph of a batch, whatever the graphs' node counts, in O(log n)
numpy passes over one flat node space (tree ``j`` owns the slots
``offset[j] .. offset[j] + n_j - 1``; a graph's trees sit next to each
other), independent of the trees' depths (a level-by-level BFS pays a
round of passes per level):

* **Euler tour -> parents, subtree sizes** -- each tree edge is two
  arcs; after arc ``(u -> v)`` the tour takes ``v``'s next arc after
  ``(v -> u)`` in ``v``'s neighbour run, cyclically.  Cut at the root,
  that is one list of ``2(n - 1)`` arcs per tree, ranked by pointer
  jumping (Wyllie: ``ceil(log2(2(n - 1)))`` passes).  An arc ranked
  before its twin points down, from a parent to its child, and the arcs
  between the two are the child's subtree: ``size = (rank(up) -
  rank(down) + 1) / 2``.  The tour visits children in a rotated order,
  so it fixes parents and sizes but not the preorder.
* **Ancestor sums -> depth, ``tin``** -- the preorder is that of a
  stack walk (children pushed in adjacency order, popped LIFO), which
  visits them in *reverse* adjacency order, so ``tin(child) =
  tin(parent) + 1 + (sizes of later siblings)``: a segmented suffix
  sum over each node's neighbour run gives each node's step, and
  ``tin`` sums the steps of a node and its ancestors.  Any Euler tour enters a node's subtree after
  its ancestors' entries and before their exits, so that sum is one
  prefix sum in tour order (``+step`` on the arc entering a subtree,
  ``-step`` on the arc leaving it); the depth is the same with steps
  of 1.
* **BFS order** -- within a level, the BFS order (parents in BFS
  order, children in adjacency order) is exactly the *reverse* of
  the preorder.  Children of one parent come out of the DFS in reverse
  adjacency order; nodes with different parents sit inside their
  parents' disjoint Euler intervals, which (by induction on the level)
  run in reverse BFS order.  So one sort by ``(tree, depth, -tin)``
  gives ``order``.

Each graph's :class:`TreeStack` is a ``(T, n)`` reshape of its block of
the flat arrays: ``order`` is the BFS order (a
:class:`~repro.trees.rooted.RootedTree`'s ``order``), ``pos`` its
inverse, and ``tin``/``tout`` the Euler intervals.  Given the edge lists
in the insertion order ``RootedTree`` sees (canonical edge-key order),
adjacency enumeration -- and hence every downstream order -- is the
``RootedTree``'s; ``tests/test_forest.py`` checks every array against a
pure-Python BFS and stack walk.

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
        ``RootedTree.order``).
    pos:
        ``(T, n)`` -- node id -> BFS index.
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

    def cut_side(
        self, t: int, edges: "tuple[tuple[int, int], ...]", nodes=None
    ) -> frozenset:
        """One side of the cut that tree ``t``'s edges ``edges`` (one or
        two, node-index keys) determine, built in preorder: the bottom
        subtree, the middle of two nested edges, or everything outside
        two disjoint subtrees.  Node ids are relabelled through ``nodes``
        when given (before the set is built, so its iteration order is
        that of the labels inserted in preorder)."""
        if len(edges) not in (1, 2):
            raise ValueError("a respecting cut has one or two tree edges")
        tin, tout = self.tin[t], self.tout[t]
        preorder = np.empty(self.n, dtype=np.int64)
        preorder[tin] = self.order[t]
        pre = preorder.tolist()
        if nodes is not None:
            pre = [nodes[x] for x in pre]
        # A tree edge's bottom node is the later of its ends in BFS order.
        pos = self.pos[t]
        intervals = [
            (int(tin[b]), int(tout[b]))
            for b in (max(int(pos[u]), int(pos[v])) for u, v in edges)
        ]
        if len(intervals) == 1:
            ((lo, hi),) = intervals
            return frozenset(pre[lo:hi])
        (le, he), (lf, hf) = intervals
        if le <= lf and hf <= he:  # f's subtree inside e's
            return frozenset(pre[le:lf] + pre[hf:he])
        if lf <= le and he <= hf:
            return frozenset(pre[lf:le] + pre[he:hf])
        (l1, h1), (l2, h2) = sorted(intervals)
        return frozenset(pre[:l1] + pre[h1:l2] + pre[h2:])


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
    total = int(offset[-1])
    if not total:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(5))
    tree_n = np.diff(offset)
    n_of = np.repeat(tree_n, tree_n)  # per key (and per slot)
    start_of = np.repeat(offset[:-1], tree_n)

    # Arcs in RootedTree insertion order: edge e is arc 2e (u -> v) and
    # arc 2e + 1 (v -> u), so an arc's twin is its id ^ 1.  Sorting by
    # (source, id) puts each node's arcs in one run, in neighbour order,
    # and each tree's 2(n - 1) arcs in one block.
    arcs = 2 * len(edge_u)
    src = np.empty(arcs, dtype=np.int64)
    dst = np.empty_like(src)
    src[0::2] = dst[1::2] = edge_u
    dst[0::2] = src[1::2] = edge_v
    by_src = np.argsort(src * arcs + np.arange(arcs, dtype=np.int64))
    at = np.empty_like(by_src)
    at[by_src] = np.arange(arcs, dtype=np.int64)
    twin = at[by_src ^ 1]
    tail, head = src[by_src], dst[by_src]
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=total), out=indptr[1:])
    if ((indptr[1:] == indptr[:-1]) & (n_of > 1)).any():
        raise ValueError("input edges do not form spanning trees")

    # ------------------------------------------------------------------
    # Euler tour: after (u -> v) comes v's arc after (v -> u), cyclically
    # in v's run.  Each tree's tour is cut where it would re-enter its
    # root's first arc (after the arc in from the root's last neighbour)
    # and ranked by pointer jumping: ``left[k]`` = arcs from k to the end.
    # ------------------------------------------------------------------
    link = np.empty(arcs + 1, dtype=np.int64)
    link[:arcs] = twin + 1
    wrap = np.flatnonzero(link[:arcs] == indptr[head + 1])
    link[wrap] = indptr[head[wrap]]
    root_keys = (offset[:-1] + roots)[tree_n > 1]
    link[twin[indptr[root_keys + 1] - 1]] = link[arcs] = arcs
    left = np.ones(arcs + 1, dtype=np.int64)
    left[arcs] = 0
    for _ in range(max(2 * int(tree_n.max()) - 3, 0).bit_length()):
        left += left[link]
        link = link[link]
    # A tour that misses an arc (a cycle) leaves that arc's list unranked.
    if (link != arcs).any():
        raise ValueError("input edges do not form spanning trees")

    # An arc ranked before its twin points from a parent to its child.
    down = np.flatnonzero(left[:arcs] > left[twin])
    up = twin[down]
    child = head[down]
    parent_key = np.arange(total, dtype=np.int64)
    parent_key[child] = tail[down]
    sizes = n_of.copy()  # the roots' entries stay n
    sizes[child] = (left[down] - left[up] + 1) // 2

    # ------------------------------------------------------------------
    # tin(c) = tin(p) + 1 + (sizes of c's later siblings): the step is a
    # suffix sum over p's run, and tin sums the steps of c and all its
    # ancestors.  Along the tour that is a prefix sum: +step where an arc
    # enters a subtree, -step where its twin leaves it; depth likewise
    # with steps of 1.  Tree j's tour fills its block of arc slots.
    # ------------------------------------------------------------------
    weight = np.zeros(arcs, dtype=np.int64)
    weight[down] = sizes[child]
    prefix = np.cumsum(weight)
    step = 1 + prefix[indptr[tail[down] + 1] - 1] - prefix[down]
    tree_arcs = 2 * tree_n - 2
    slot = np.repeat(np.cumsum(tree_arcs), tree_arcs) - left[:arcs]
    enter, leave = slot[down], slot[up]
    walk = np.zeros((2, arcs), dtype=np.int64)
    walk[0, enter], walk[0, leave] = step, -step
    walk[1, enter], walk[1, leave] = 1, -1
    np.cumsum(walk, axis=1, out=walk)
    tin_key = np.zeros(total, dtype=np.int64)
    depth = np.zeros(total, dtype=np.int64)
    tin_key[child], depth[child] = walk[:, enter]

    # Within a tree level, BFS order is descending tin.  Tree j's levels
    # are keyed offset[j] + depth (< offset[j + 1]), each spanning n_max
    # key values, so one argsort gives every tree's BFS order at once.
    span = int(tree_n.max())
    bfs = np.argsort((start_of + depth) * span - tin_key)
    order = bfs - start_of
    pos = np.empty(total, dtype=np.int64)
    pos[bfs] = np.arange(total, dtype=np.int64) - start_of
    tin = tin_key[bfs]
    return order, pos, pos[parent_key[bfs]], tin, tin + sizes[bfs]
