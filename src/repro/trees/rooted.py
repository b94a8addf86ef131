"""Rooted tree structure shared by all tree algorithms.

The paper (Section 3, "Rooted trees") fixes the vocabulary implemented here:
``parent``, ``top(e)``/``bottom(e)`` for tree edges, ancestor/descendant
sets, depth, subtrees, descending paths, and the LCA.  A
:class:`RootedTree` is the *distributedly stored* object of the paper
(each node knows its parent) materialised centrally for the simulator.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx

    from repro.kernel.tree_kernel import TreeKernel

Node = Hashable
Edge = tuple  # canonical (u, v) with a type-stable order


def _node_sort_key(node: Node) -> tuple[str, str]:
    return (type(node).__name__, str(node))


def edge_key(u: Node, v: Node) -> Edge:
    """Canonical undirected-edge key, stable across mixed node types."""
    if _node_sort_key(u) <= _node_sort_key(v):
        return (u, v)
    return (v, u)


class RootedTree:
    """A tree rooted at ``root`` with parent/child/depth indices.

    Parameters
    ----------
    tree:
        A :class:`networkx.Graph` that is a tree (or forest containing the
        root's component; only the root's component is indexed), **or** a
        plain adjacency mapping ``node -> sequence of neighbors`` -- the
        representation the CSR pipeline hands over, so no networkx object
        is ever required on that path.
    root:
        The designated root node.
    """

    def __init__(self, tree: "nx.Graph | Mapping", root: Node):
        if root not in tree:
            raise ValueError(f"root {root!r} not in tree")
        if isinstance(tree, Mapping):
            neighbors_of = tree.__getitem__
            total_nodes = len(tree)
        else:
            neighbors_of = tree.neighbors
            total_nodes = tree.number_of_nodes()
        self.root = root
        self.parent: dict[Node, Node | None] = {root: None}
        self.children: dict[Node, list[Node]] = {}
        self.depth: dict[Node, int] = {root: 0}
        self.order: list[Node] = []  # BFS order from the root (top-down)
        queue = deque([root])
        while queue:
            node = queue.popleft()
            self.order.append(node)
            self.children[node] = []
            for nbr in neighbors_of(node):
                if nbr == self.parent[node]:
                    continue
                if nbr in self.parent:
                    raise ValueError("input graph contains a cycle")
                self.parent[nbr] = node
                self.depth[nbr] = self.depth[node] + 1
                self.children[node].append(nbr)
                queue.append(nbr)
        if len(self.order) != total_nodes:
            raise ValueError("input graph is not connected")
        self._kernel: "TreeKernel | None" = None
        self._edge_set: frozenset | None = None

    # ------------------------------------------------------------------
    # Array kernel (lazily attached; see repro.kernel)
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> "TreeKernel":
        """The flat-array kernel of this tree, built on first use."""
        if self._kernel is None:
            from repro.kernel.tree_kernel import TreeKernel

            self._kernel = TreeKernel(self)
        return self._kernel

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        return self.order

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, node: Node) -> bool:
        return node in self.parent

    def edges(self) -> Iterator[Edge]:
        """All tree edges as canonical keys."""
        for node in self.order:
            if node != self.root:
                yield edge_key(node, self.parent[node])

    def edge_set(self) -> frozenset:
        """The tree edges as a cached frozenset (membership tests)."""
        if self._edge_set is None:
            self._edge_set = frozenset(self.edges())
        return self._edge_set

    def edge_of(self, node: Node) -> Edge:
        """The parent edge of ``node`` (canonical key)."""
        if node == self.root:
            raise ValueError("root has no parent edge")
        return edge_key(node, self.parent[node])

    def bottom(self, edge: Edge) -> Node:
        """The endpoint of a tree edge farther from the root."""
        u, v = edge
        return u if self.depth[u] > self.depth[v] else v

    def top(self, edge: Edge) -> Node:
        """The endpoint of a tree edge closer to the root."""
        u, v = edge
        return u if self.depth[u] < self.depth[v] else v

    # ------------------------------------------------------------------
    # Ancestry
    # ------------------------------------------------------------------
    def ancestors(self, node: Node) -> Iterator[Node]:
        """Root-to-node chain, from ``node`` upward (node included)."""
        current: Node | None = node
        while current is not None:
            yield current
            current = self.parent[current]

    def is_ancestor(self, ancestor: Node, node: Node) -> bool:
        """``ancestor`` lies on the root-to-``node`` path (inclusive).

        An O(1) Euler-interval containment test on the kernel.
        """
        return self.kernel.is_ancestor(ancestor, node)

    def lca(self, u: Node, v: Node) -> Node:
        """Lowest common ancestor (binary lifting on the kernel)."""
        return self.kernel.lca(u, v)

    # ------------------------------------------------------------------
    # Subtrees and paths
    # ------------------------------------------------------------------
    def subtree_nodes(self, node: Node) -> list[Node]:
        """All descendants of ``node`` (inclusive), preorder.

        A slice of the kernel's preorder (a stack walk that pushes each
        node's children in order, so they are visited last-child first),
        read off its Euler intervals.
        """
        return self.kernel.subtree_nodes(node)

    def subtree_sizes(self) -> dict[Node, int]:
        """|desc(v)| for every node, in BFS order.

        One accumulation over the reversed BFS order, so a caller that
        needs only sizes (the centroid search) builds no kernel.
        """
        sizes = dict.fromkeys(self.order, 1)
        parent = self.parent
        for node in reversed(self.order):
            above = parent[node]
            if above is not None:
                sizes[above] += sizes[node]
        return sizes

    def path_edges(self, u: Node, v: Node) -> list[Edge]:
        """Tree edges on the unique u-v path (the covering set of {u, v})."""
        meet = self.lca(u, v)
        edges: list[Edge] = []
        for endpoint in (u, v):
            current = endpoint
            while current != meet:
                edges.append(self.edge_of(current))
                current = self.parent[current]
        return edges

    def path_nodes(self, u: Node, v: Node) -> list[Node]:
        """Nodes on the unique u-v path, in order from u to v."""
        meet = self.lca(u, v)
        up: list[Node] = []
        current = u
        while current != meet:
            up.append(current)
            current = self.parent[current]
        down: list[Node] = []
        current = v
        while current != meet:
            down.append(current)
            current = self.parent[current]
        return up + [meet] + list(reversed(down))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[tuple[Node, Node]], root: Node) -> "RootedTree":
        """Root the tree spanned by ``edges``.

        The adjacency is a plain dict built in the order
        ``networkx.Graph.add_edges_from`` would insert it (root first,
        then each edge's new endpoints, ``u`` before ``v``; a repeated
        edge keeps its first position), so children come out in the same
        order as from the equivalent networkx graph.
        """
        adjacency: dict[Node, dict[Node, None]] = {root: {}}
        for u, v in edges:
            if u not in adjacency:
                adjacency[u] = {}
            if v not in adjacency:
                adjacency[v] = {}
            adjacency[u][v] = None
            adjacency[v][u] = None
        return cls(adjacency, root)

    def to_graph(self) -> nx.Graph:
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.order)
        graph.add_edges_from(self.edges())
        return graph
