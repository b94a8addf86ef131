"""Cut and cover values (paper Section 3.2) plus the exact oracle.

Given a spanning tree ``T`` of a weighted graph ``G``:

* ``Cov(e)``   -- total weight of graph edges whose tree path covers ``e``;
* ``Cov(e,f)`` -- total weight of graph edges whose tree path covers both;
* ``Cut(e)``   -- the 1-respecting cut value (= ``Cov(e)``, Fact 5);
* ``Cut(e,f) = Cov(e) + Cov(f) - 2 Cov(e,f)`` (Fact 5), the weight of the
  unique cut crossing exactly ``{e, f}`` among tree edges.

Removing ``e`` and ``f`` splits ``T`` into three components; ``Cut(e, f)``
is the weight of the bipartition separating the *middle* component from the
other two -- :func:`cut_partition` materialises it.

The :func:`two_respecting_oracle` computes the exact minimum over all pairs;
it is the ground truth every distributed solver in this package is validated
against, and doubles as the fast centralized baseline of [GMW20]-style
2-respecting computations.

Every public function runs on the tree's one-row stack
(:attr:`~repro.kernel.tree_kernel.TreeKernel.stack`) through the code the
stacked oracle runs: :func:`~repro.kernel.cut_kernel.stacked_covers`
(vectorized LCA differencing) for ``Cov(e)``,
:func:`~repro.kernel.batched.stacked_pair_covers` (an O(n^2 + m) Euler
prefix-sum formulation) for the pair matrix and
:meth:`~repro.kernel.forest.TreeStack.cut_side` for the partition.
Callers that evaluate many trees of one graph can pass a pre-extracted
:class:`~repro.kernel.cut_kernel.GraphArrays` to skip the per-tree edge
scan.  ``tests/test_kernel.py`` checks each of them against brute-force
component cuts of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import networkx as nx
import numpy as np

from repro.graphs.csr import CSRGraph
from repro.kernel.batched import OracleJob, stacked_pair_covers
from repro.kernel.cut_kernel import (
    GraphArrays,
    cover_values_kernel,
    partition_cut_weight_arrays,
)
from repro.trees.rooted import Edge, Node, RootedTree, edge_key


@dataclass(frozen=True)
class CutCandidate:
    """A (1- or 2-)respecting cut candidate: its value and its tree edges."""

    value: float
    edges: tuple[Edge, ...]

    @property
    def kind(self) -> str:
        return f"{len(self.edges)}-respecting"

    def better_than(self, other: "CutCandidate | None") -> bool:
        if other is None:
            return True
        return (self.value, len(self.edges)) < (other.value, len(other.edges))


def best_candidate(candidates) -> CutCandidate | None:
    """Minimum-value candidate (ties broken toward fewer edges)."""
    best: CutCandidate | None = None
    for candidate in candidates:
        if candidate is not None and candidate.better_than(best):
            best = candidate
    return best


def cover_values(
    graph: "nx.Graph | CSRGraph",
    tree: RootedTree,
    arrays: GraphArrays | None = None,
) -> dict[Edge, float]:
    """``Cov(e)`` for every tree edge.

    Vectorized +-w / -2w LCA differencing plus one Euler prefix-sum
    subtree pass, O((n + m) log n).
    """
    return cover_values_kernel(graph, tree, arrays=arrays)


def pair_cover_matrix(
    graph: "nx.Graph | CSRGraph",
    tree: RootedTree,
    arrays: GraphArrays | None = None,
) -> tuple[list[Edge], np.ndarray]:
    """``Cov(e, f)`` for every pair of tree edges, as a dense matrix.

    Returns the tree-edge list (fixing the index order) and the symmetric
    matrix ``M`` with ``M[i, j] = Cov(e_i, e_j)`` and ``M[i, i] = Cov(e_i)``.
    O(n^2 + m) via 2D Euler prefix sums.
    """
    kernel = tree.kernel
    edges = list(tree.edges())
    if kernel.n <= 1:
        return edges, np.zeros((0, 0), dtype=np.float64)
    if arrays is None:
        arrays = GraphArrays.from_graph(graph)
    stack = kernel.stack
    job = OracleJob.from_arrays(
        arrays.on_tree(kernel), stack.tin, stack.tout, stack.pos
    )
    (matrix,) = stacked_pair_covers(
        job.tin, job.tout, np.zeros(job.ut.size, dtype=np.int64),
        job.ut.ravel(), job.vt.ravel(), job.weights,
    )
    return edges, matrix


def cut_matrix(
    graph: "nx.Graph | CSRGraph",
    tree: RootedTree,
    arrays: GraphArrays | None = None,
) -> tuple[list[Edge], np.ndarray]:
    """``Cut(e_i, e_j)`` matrix; the diagonal holds 1-respecting values."""
    edges, cov = pair_cover_matrix(graph, tree, arrays=arrays)
    diag = np.diag(cov).copy()
    cuts = diag[:, None] + diag[None, :] - 2 * cov
    np.fill_diagonal(cuts, diag)
    return edges, cuts


def two_respecting_oracle(
    graph: "nx.Graph | CSRGraph",
    tree: RootedTree,
    arrays: GraphArrays | None = None,
) -> CutCandidate:
    """Exact minimum over all 1- and 2-respecting cuts (the ground truth)."""
    edges, cuts = cut_matrix(graph, tree, arrays=arrays)
    if not edges:
        raise ValueError("tree has no edges")
    flat = int(np.argmin(cuts))
    i, j = divmod(flat, len(edges))
    if i == j:
        return CutCandidate(value=float(cuts[i, j]), edges=(edges[i],))
    return CutCandidate(value=float(cuts[i, j]), edges=(edges[i], edges[j]))


def cut_partition(tree: RootedTree, edges: tuple[Edge, ...]) -> frozenset[Node]:
    """One side of the cut determined by the given tree edge(s).

    For one edge: the bottom subtree.  For two edges: the middle component
    (between the two edges if nested, the root component otherwise -- in the
    non-nested case the returned side is the complement of the two bottom
    subtrees, which induces the same bipartition).  Computed from preorder
    interval slices of the tree's one-row stack.
    """
    kernel = tree.kernel
    index = kernel.index
    return kernel.stack.cut_side(
        0, tuple((index[u], index[v]) for u, v in edges), kernel.nodes
    )


def partition_cut_weight(
    graph: "nx.Graph | CSRGraph",
    side: frozenset[Node],
    arrays: GraphArrays | None = None,
) -> tuple[float, list[tuple[Node, Node]]]:
    """Weight and edge list of the cut induced by a node bipartition.

    With pre-extracted ``arrays`` the membership test runs as one boolean
    XOR over the whole edge list (self-loops never cross, so dropping them
    from the arrays is value-preserving).  CSR inputs always take the
    array path (``side`` in index space).
    """
    if isinstance(graph, CSRGraph):
        return partition_cut_weight_arrays(
            arrays if arrays is not None else GraphArrays.from_csr(graph), side
        )
    if arrays is not None:
        return partition_cut_weight_arrays(arrays, side)
    crossing = []
    total = 0.0
    for u, v, data in graph.edges(data=True):
        if (u in side) != (v in side):
            crossing.append(edge_key(u, v))
            total += data.get("weight", 1)
    return total, crossing
