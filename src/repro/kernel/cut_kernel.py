"""Vectorized cover computations and the graph's edge arrays.

:func:`stacked_covers` is the classic differencing trick for ``Cov(e)``:
every graph edge ``{u, v}`` of weight ``w`` deposits ``+w`` at both
endpoints and ``-2w`` at their LCA, and one subtree-sum pass turns the
deposits into ``Cov(e)`` for every tree edge simultaneously.  With the
vectorized LCA and the Euler prefix-sum this is O((n + m) log n) in numpy
instead of O(m * pathlen) in Python, for every tree of a
:class:`~repro.kernel.forest.TreeStack` in one pass.
:func:`cover_values_kernel` is its one-row case: a
:class:`~repro.kernel.tree_kernel.TreeKernel`'s ``stack``, with the edge
arrays renamed onto the tree's BFS indices (:meth:`GraphArrays.on_tree`).

``Cov(e, f)`` for all pairs lives with the stacked oracle
(:func:`~repro.kernel.batched.stacked_pair_covers`).

All sums are plain float64 additions of the original weights, so for
integer weights the results are exact: ``tests/test_kernel.py`` matches
them bit for bit against brute-force component cuts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

import networkx as nx
import numpy as np

from repro.graphs.csr import CSRGraph, validate_weights
from repro.kernel.tree_kernel import TreeKernel, euler_lca, lifting_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.kernel.forest import TreeStack
    from repro.trees.rooted import Edge, RootedTree

Node = Hashable


class GraphArrays:
    """Edge list of a graph extracted once into flat arrays.

    Extraction (a Python loop over ``graph.edges``) is the single most
    expensive non-numpy step, so callers that evaluate many spanning trees
    of the *same* graph (tree packing, the min-cut pipeline) build this
    once and re-map the node positions per tree in O(n).  For a
    :class:`~repro.graphs.csr.CSRGraph` the extraction is
    :meth:`from_csr` -- pure array slicing, no Python loop at all.

    Self-loops are dropped (they never cross a cut); zero-weight edges
    stay in the arrays so cut witnesses can still report them as crossing
    (cover computations filter them out via ``weights != 0``).

    Weights pass through one dtype-checked conversion that rejects
    NaN/negative values up front -- bad inputs used to surface much later
    as a cryptic witness-consistency failure inside ``mincut``.
    """

    __slots__ = ("nodes", "u_pos", "v_pos", "weights", "identity_nodes")

    def __init__(
        self,
        nodes: list[Node],
        u_pos: np.ndarray,
        v_pos: np.ndarray,
        weights: np.ndarray,
        identity_nodes: bool | None = None,
    ):
        self.nodes = nodes
        self.u_pos = u_pos
        self.v_pos = v_pos
        self.weights = weights
        if identity_nodes is None:
            identity_nodes = all(
                isinstance(x, int) and x == i for i, x in enumerate(nodes)
            )
        self.identity_nodes = identity_nodes

    @property
    def nbytes(self) -> int:
        """Array-buffer footprint (profiling: ``session.arrays`` spans)."""
        return int(
            self.u_pos.nbytes + self.v_pos.nbytes + self.weights.nbytes
        )

    @classmethod
    def from_graph(cls, graph: "nx.Graph | CSRGraph") -> "GraphArrays":
        if isinstance(graph, CSRGraph):
            return cls.from_csr(graph)
        return cls.from_edges(
            list(graph.nodes()),
            (
                (u, v, w)
                for u, v, w in graph.edges(data="weight", default=1)
                if u != v
            ),
        )

    @classmethod
    def from_edges(cls, nodes: list[Node], edges) -> "GraphArrays":
        """From ``(u, v, w)`` triples over ``nodes``, kept in their order
        (an ordered edge table of :mod:`repro.core.edge_table`, or the
        non-loop edges of a networkx graph)."""
        position = {node: i for i, node in enumerate(nodes)}
        us: list[int] = []
        vs: list[int] = []
        ws: list[float] = []
        for u, v, w in edges:
            us.append(position[u])
            vs.append(position[v])
            ws.append(w)
        return cls(
            nodes=nodes,
            u_pos=np.array(us, dtype=np.int64),
            v_pos=np.array(vs, dtype=np.int64),
            weights=validate_weights(ws, context="GraphArrays"),
        )

    @classmethod
    def from_csr(cls, graph: CSRGraph, labelled: bool = False) -> "GraphArrays":
        """Zero-loop extraction: the CSR edge table *is* the array form.

        The arrays work in dense-index space (``nodes`` is the identity)
        regardless of any label table on the graph; callers that need
        labelled witnesses map back at the boundary.  ``labelled`` names
        the positions by the graph's node labels instead -- the arrays
        ``from_graph(graph.to_networkx())`` extracts, without the
        conversion.
        """
        u, v, w = graph.edge_u, graph.edge_v, graph.edge_w
        loops = u == v
        if loops.any():
            keep = ~loops
            u, v, w = u[keep], v[keep], w[keep]
        identity = not labelled or graph.nodes is None
        return cls(
            nodes=list(range(graph.n)) if identity else list(graph.nodes),
            u_pos=u,
            v_pos=v,
            weights=w,
            identity_nodes=identity,
        )

    @property
    def pairs(self) -> list[tuple[Node, Node]]:
        """Edge endpoint labels, materialised on demand (witness reporting)."""
        nodes = self.nodes
        return [
            (nodes[a], nodes[b])
            for a, b in zip(self.u_pos.tolist(), self.v_pos.tolist())
        ]

    def on_tree(self, kernel: TreeKernel) -> "GraphArrays":
        """The same edges with each endpoint renamed to its BFS index in
        ``kernel``: the node ids of ``kernel.stack``."""
        index = kernel.index
        remap = np.fromiter(
            (index[node] for node in self.nodes),
            dtype=np.int64,
            count=len(self.nodes),
        )
        return GraphArrays(
            kernel.nodes, remap[self.u_pos], remap[self.v_pos], self.weights
        )


def _arrays_for(
    graph: "nx.Graph | CSRGraph", arrays: GraphArrays | None
) -> GraphArrays:
    return arrays if arrays is not None else GraphArrays.from_graph(graph)


def cover_values_kernel(
    graph: nx.Graph,
    tree: "RootedTree",
    arrays: GraphArrays | None = None,
) -> "dict[Edge, float]":
    """``Cov(e)`` for every tree edge: :func:`stacked_covers` on the
    tree's one-row stack."""
    kernel = tree.kernel
    on_tree = _arrays_for(graph, arrays).on_tree(kernel)
    return cover_dict(tree, stacked_covers(kernel.stack, on_tree)[0])


def stacked_covers(stack: "TreeStack", arrays: GraphArrays) -> np.ndarray:
    """``Cov`` of every tree of a :class:`~repro.kernel.forest.TreeStack`
    in one array pass: ``out[t, i]`` is the cover of tree ``t``'s edge
    above BFS index ``i`` (column 0, the root, carries a residue).

    ``arrays`` positions must be the stack's node ids (true of
    :meth:`GraphArrays.from_csr`, labelled or not; of
    :meth:`GraphArrays.on_tree` for a kernel's one-row stack).  A row's
    floats do not depend on the rows stacked beside it.
    """
    return _covers(
        stack.parent, stack.tin, stack.tout,
        stack.pos[:, arrays.u_pos], stack.pos[:, arrays.v_pos],
        arrays.weights,
    )


def cover_dict(tree: "RootedTree", cover: np.ndarray) -> "dict[Edge, float]":
    """One tree's cover row as ``{tree edge: Cov(e)}`` in BFS order (the
    row is indexed like ``tree.order``)."""
    values = cover.tolist()
    edge_of = tree.edge_of
    order = tree.order
    return {edge_of(order[i]): values[i] for i in range(1, len(order))}


def _covers(
    parent: np.ndarray,
    tin: np.ndarray,
    tout: np.ndarray,
    u_idx: np.ndarray,
    v_idx: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """``Cov`` per row and BFS index, for ``(T, n)`` parent / Euler rows
    and ``(T, m)`` edge endpoints in each row's BFS indices.

    The rows sit side by side in one flat index space.  Every cell gets
    its deposits in the one-tree order (all ``+w`` at ``u``, then all
    ``+w`` at ``v``, then all ``-2w`` at the LCA, each in edge order) and
    each row's prefix sum runs over that row's preorder alone, so a row's
    floats do not depend on the rows stacked beside it.
    """
    trees, n = tin.shape
    nonzero = weights != 0
    if not nonzero.all():
        u_idx, v_idx = u_idx[:, nonzero], v_idx[:, nonzero]
        weights = weights[nonzero]
    offset = np.arange(0, trees * n, n, dtype=np.int64)[:, None]
    u = (u_idx + offset).ravel()
    v = (v_idx + offset).ravel()
    w = np.tile(weights, trees)
    delta = np.zeros(trees * n, dtype=np.float64)
    np.add.at(delta, u, w)
    np.add.at(delta, v, w)
    if len(w):
        up = lifting_table((parent + offset).ravel(), max(1, (n - 1).bit_length()))
        lca = euler_lca(up, tin.ravel(), tout.ravel(), u, v)
        np.add.at(delta, lca, -2.0 * w)
    preorder = np.empty(trees * n, dtype=np.int64)
    preorder[(tin + offset).ravel()] = np.arange(trees * n, dtype=np.int64)
    prefix = np.zeros((trees, n + 1), dtype=np.float64)
    np.cumsum(delta[preorder].reshape(trees, n), axis=1, out=prefix[:, 1:])
    return np.take_along_axis(prefix, tout, axis=1) - np.take_along_axis(
        prefix, tin, axis=1
    )


def partition_cut_weight_arrays(
    arrays: GraphArrays, side: frozenset
) -> tuple[float, list[tuple[Node, Node]]]:
    """Weight and crossing edges of a node bipartition, vectorized.

    Equivalent to the networkx edge loop of ``partition_cut_weight`` (same
    edge order, zero-weight crossing edges included) but does the
    membership test as one boolean-array XOR instead of a Python loop per
    edge.
    """
    from repro.trees.rooted import edge_key

    if arrays.identity_nodes:
        members = np.zeros(len(arrays.nodes), dtype=bool)
        members[np.fromiter(side, dtype=np.int64, count=len(side))] = True
    else:
        members = np.fromiter(
            (node in side for node in arrays.nodes),
            dtype=bool,
            count=len(arrays.nodes),
        )
    crossing_mask = members[arrays.u_pos] != members[arrays.v_pos]
    total = float(arrays.weights[crossing_mask].sum())
    nodes = arrays.nodes
    crossing = [
        edge_key(nodes[arrays.u_pos[i]], nodes[arrays.v_pos[i]])
        for i in np.nonzero(crossing_mask)[0]
    ]
    return total, crossing
