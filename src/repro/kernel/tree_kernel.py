"""Flat-array view of one rooted tree: a one-row :class:`TreeStack`.

A :class:`TreeKernel` is built once (lazily) per :class:`RootedTree` and
replaces per-node pointer chasing with contiguous numpy arrays:

* nodes are mapped to dense indices in BFS order (index 0 = root, so a
  node's parent always has a smaller index);
* the parents and the half-open Euler intervals ``[tin, tout)`` come from
  the one Euler-interval builder,
  :func:`~repro.kernel.forest.stacked_tree_arrays`, fed the tree's
  ``(parent index, child index)`` pairs in BFS order and rooted at 0, so
  the node ids of the one-row ``stack`` *are* the BFS indices.  The
  descendants of ``v`` are exactly the preorder positions in ``v``'s
  interval: ancestry tests are two integer comparisons;
* a binary-lifting table gives *vectorized* LCA for whole arrays of node
  pairs at once (:func:`euler_lca`: one numpy pass per lifting level,
  over one tree or a whole stack of trees); a single query is its
  length-1 case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.kernel.forest import stacked_tree_arrays

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.trees.rooted import RootedTree

Node = Hashable


class TreeKernel:
    """Array-backed view of a rooted tree.

    Attributes
    ----------
    nodes:
        Node objects in BFS order; ``nodes[i]`` is the node with index ``i``.
    index:
        Inverse mapping node -> dense index.
    stack:
        The tree as a one-row :class:`~repro.kernel.forest.TreeStack`
        whose node ids are the BFS indices.
    parent:
        ``parent[i]`` = index of ``i``'s parent; the root points at itself
        (which clamps binary lifting at the root).  A view of ``stack``.
    depth:
        Tree depth per index.
    tin / tout:
        Half-open Euler interval per index: descendants of ``i`` occupy
        preorder positions ``tin[i] .. tout[i] - 1``.  Views of ``stack``.
    """

    def __init__(self, tree: "RootedTree"):
        nodes = list(tree.order)
        self.nodes: list[Node] = nodes
        self.index: dict[Node, int] = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        self.n = n
        index, parent = self.index, tree.parent
        above = np.fromiter(
            (index[parent[node]] for node in nodes[1:]), dtype=np.int64, count=n - 1
        )
        child = np.arange(1, n, dtype=np.int64)
        (self.stack,) = stacked_tree_arrays([n], [[(above, child)]], [0])
        self.parent = self.stack.parent[0]
        self.tin = self.stack.tin[0]
        self.tout = self.stack.tout[0]
        self.depth = np.fromiter(
            (tree.depth[node] for node in nodes), dtype=np.int64, count=n
        )

        # Binary lifting is the only O(n log n) piece, and interval tests /
        # subtree slices never need it -- build it on the first LCA query.
        max_depth = int(self.depth.max()) if n else 0
        self.log = max(1, max_depth.bit_length())
        self._up: np.ndarray | None = None

    @property
    def up(self) -> np.ndarray:
        """``up[k][i]`` = 2^k-th ancestor of ``i`` (clamped at the root)."""
        if self._up is None:
            self._up = lifting_table(self.parent, self.log)
        return self._up

    def lca_idx(self, u: int, v: int) -> int:
        """Index of the LCA of two node indices (:func:`euler_lca` on one
        pair)."""
        pair = euler_lca(
            self.up, self.tin, self.tout,
            np.array([u], dtype=np.int64), np.array([v], dtype=np.int64),
        )
        return int(pair[0])

    # ------------------------------------------------------------------
    # Node-object queries
    # ------------------------------------------------------------------
    def lca(self, u: Node, v: Node) -> Node:
        return self.nodes[self.lca_idx(self.index[u], self.index[v])]

    def is_ancestor(self, ancestor: Node, node: Node) -> bool:
        """``ancestor`` on the root-to-``node`` path (inclusive)."""
        a, b = self.index[ancestor], self.index[node]
        return bool(self.tin[a] <= self.tin[b] and self.tout[b] <= self.tout[a])

    def subtree_nodes(self, node: Node) -> list[Node]:
        """Descendants of ``node`` (inclusive), in preorder."""
        i = self.index[node]
        preorder = np.empty(self.n, dtype=np.int64)
        preorder[self.tin] = np.arange(self.n, dtype=np.int64)
        nodes = self.nodes
        return [nodes[j] for j in preorder[self.tin[i] : self.tout[i]].tolist()]


def lifting_table(parent: np.ndarray, levels: int) -> np.ndarray:
    """``up[k][i]`` = 2^k-th ancestor of ``i`` for a flat parent array
    whose roots point at themselves (so lifting clamps at a root)."""
    up = np.empty((levels, len(parent)), dtype=np.int64)
    up[0] = parent
    for k in range(1, levels):
        up[k] = up[k - 1][up[k - 1]]
    return up


def euler_lca(
    up: np.ndarray,
    tin: np.ndarray,
    tout: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """LCA of every aligned pair ``(u[j], v[j])``, by Euler-interval
    binary lifting: one numpy pass per lifting level.

    ``up`` is a :func:`lifting_table` with ``2^levels`` above every depth;
    ``tin``/``tout`` are the half-open Euler intervals.  The index space
    may hold many trees side by side (flat ``tree * n + node`` indices
    with per-tree intervals): only pairs within one tree are compared.
    ``u`` is lifted to its highest ancestor that is not an ancestor of
    ``v``; that node's parent is the LCA, unless ``u`` itself is an
    ancestor of ``v``.  No depth array is needed.
    """
    tin_v, tout_v = tin[v], tout[v]
    x = u
    for k in range(len(up) - 1, -1, -1):
        y = up[k][x]
        x = np.where((tin[y] > tin_v) | (tout_v > tout[y]), y, x)
    covers = (tin[u] <= tin_v) & (tout_v <= tout[u])
    return np.where(covers, u, up[0][x])
