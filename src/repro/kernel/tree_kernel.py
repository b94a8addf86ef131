"""Flat-array tree kernel: the shared fast path under every tree algorithm.

A :class:`TreeKernel` is built once (lazily) per :class:`RootedTree` and
replaces per-node pointer chasing with contiguous numpy arrays:

* nodes are mapped to dense indices in BFS order (index 0 = root, so a
  node's parent always has a smaller index);
* an Euler tour assigns half-open intervals ``[tin, tout)`` such that the
  descendants of ``v`` are exactly the preorder positions in ``v``'s
  interval -- ancestry tests become two integer comparisons and subtree
  enumeration becomes a list slice;
* a binary-lifting table gives O(log n) LCA for single queries and, more
  importantly, *vectorized* LCA for whole arrays of node pairs at once
  (:func:`euler_lca`: one numpy pass per lifting level, over one tree or
  a whole stack of trees);
* subtree sums of any node vector reduce to one cumulative sum over the
  preorder permutation (``sum over [tin, tout)``), which is how the cover
  kernel gets its O(n + m) 1-respecting pass.

The preorder comes from a stack walk (children pushed in order, popped
LIFO); ``RootedTree.subtree_nodes`` returns slices of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

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
    parent:
        ``parent[i]`` = index of ``i``'s parent; the root points at itself
        (which clamps binary lifting at the root).
    depth:
        Tree depth per index.
    tin / tout:
        Half-open Euler interval per index: descendants of ``i`` occupy
        preorder positions ``tin[i] .. tout[i] - 1``.
    preorder_nodes:
        Node objects in that preorder.
    """

    def __init__(self, tree: "RootedTree"):
        nodes = list(tree.order)
        self.nodes: list[Node] = nodes
        self.index: dict[Node, int] = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        self.n = n
        index = self.index

        parent = np.zeros(n, dtype=np.int64)
        for i in range(1, n):
            parent[i] = index[tree.parent[nodes[i]]]
        self.parent = parent
        self.depth = np.fromiter(
            (tree.depth[node] for node in nodes), dtype=np.int64, count=n
        )

        children: list[list[int]] = [[] for _ in range(n)]
        for node, kids in tree.children.items():
            children[index[node]] = [index[child] for child in kids]

        # Euler tour (stack order: children pushed in order, LIFO).
        tin = np.empty(n, dtype=np.int64)
        tout = np.empty(n, dtype=np.int64)
        preorder = np.empty(n, dtype=np.int64)
        timer = 0
        stack: list[int] = [0]
        # ~v (< 0) marks the post-visit sentinel of v.
        while stack:
            v = stack.pop()
            if v < 0:
                tout[~v] = timer
                continue
            tin[v] = timer
            preorder[timer] = v
            timer += 1
            stack.append(~v)
            stack.extend(children[v])
        self.tin = tin
        self.tout = tout
        #: node objects in preorder -- subtree slices come straight off this
        self.preorder_nodes: list[Node] = [nodes[i] for i in preorder]

        # Binary lifting is the only O(n log n) piece, and interval tests /
        # subtree slices / subtree sums never need it -- build it on the
        # first LCA query instead of up front.
        max_depth = int(self.depth.max()) if n else 0
        self.log = max(1, max_depth.bit_length())
        self._up: np.ndarray | None = None
        self._inverse: np.ndarray | None = None

    @property
    def up(self) -> np.ndarray:
        """``up[k][i]`` = 2^k-th ancestor of ``i`` (clamped at the root)."""
        if self._up is None:
            self._up = lifting_table(self.parent, self.log)
        return self._up

    # ------------------------------------------------------------------
    # Scalar queries (node-index domain)
    # ------------------------------------------------------------------
    def lca_idx(self, u: int, v: int) -> int:
        """Index of the LCA of two node indices, via binary lifting."""
        depth, up = self.depth, self.up
        if depth[u] < depth[v]:
            u, v = v, u
        diff = int(depth[u] - depth[v])
        k = 0
        while diff:
            if diff & 1:
                u = int(up[k][u])
            diff >>= 1
            k += 1
        if u == v:
            return u
        for k in range(self.log - 1, -1, -1):
            if up[k][u] != up[k][v]:
                u = int(up[k][u])
                v = int(up[k][v])
        return int(self.parent[u])

    def is_ancestor_idx(self, a: int, b: int) -> bool:
        """``a`` on the root-to-``b`` path (inclusive) -- O(1) interval test."""
        return bool(self.tin[a] <= self.tin[b] and self.tout[b] <= self.tout[a])

    def subtree_size_idx(self, v: int) -> int:
        return int(self.tout[v] - self.tin[v])

    # ------------------------------------------------------------------
    # Scalar queries (node-object domain)
    # ------------------------------------------------------------------
    def lca(self, u: Node, v: Node) -> Node:
        return self.nodes[self.lca_idx(self.index[u], self.index[v])]

    def is_ancestor(self, ancestor: Node, node: Node) -> bool:
        return self.is_ancestor_idx(self.index[ancestor], self.index[node])

    def subtree_nodes(self, node: Node) -> list[Node]:
        """Descendants of ``node`` (inclusive) -- a single list slice."""
        i = self.index[node]
        return self.preorder_nodes[self.tin[i] : self.tout[i]]

    # ------------------------------------------------------------------
    # Vectorized queries
    # ------------------------------------------------------------------
    def indices_of(self, nodes: Sequence[Node]) -> np.ndarray:
        index = self.index
        return np.fromiter(
            (index[node] for node in nodes), dtype=np.int64, count=len(nodes)
        )

    def inverse_order(self, n: int) -> np.ndarray:
        """Label -> kernel index, for dense integer labels ``0..n-1``.

        The inverse permutation of ``nodes`` as one numpy scatter -- the
        zero-loop remap the CSR pipeline uses in place of per-node dict
        lookups (only valid when the node labels are their own indices).
        """
        if self._inverse is None:
            order = np.asarray(self.nodes, dtype=np.int64)
            inverse = np.empty(n, dtype=np.int64)
            inverse[order] = np.arange(self.n, dtype=np.int64)
            self._inverse = inverse
        return self._inverse

    def lca_indices(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """LCA indices for aligned arrays of node indices, all at once
        (the one-tree case of :func:`euler_lca`)."""
        return euler_lca(
            self.up,
            self.tin,
            self.tout,
            np.asarray(u, dtype=np.int64),
            np.asarray(v, dtype=np.int64),
        )


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
