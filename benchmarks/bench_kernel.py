"""Kernel micro-benchmarks, pytest-benchmark style, at n=512, m=2048.

Times ``cover_values`` and ``two_respecting_oracle`` on one seeded tree and
checks both against independent computations of the same values.

Run directly (the bench files are not collected by the default test run)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py -q
"""

import networkx as nx
import numpy as np

from repro.core.cut_values import (
    cover_values,
    partition_cut_weight,
    two_respecting_oracle,
)
from repro.graphs import random_connected_gnm, random_spanning_tree
from repro.kernel import (
    GraphArrays,
    batched_two_respecting_oracle,
    stacked_tree_arrays,
)
from repro.trees.rooted import RootedTree

N, M, SEED = 512, 2048, 7


def _instance():
    graph = random_connected_gnm(N, M, seed=SEED, weight_high=50)
    tree_edges = list(random_spanning_tree(graph, seed=SEED + 1).edges())
    return graph, tree_edges, RootedTree(nx.Graph(tree_edges), 0)


def test_kernel_cover_values(benchmark):
    graph, _edges, tree = _instance()
    benchmark(lambda: cover_values(graph, tree))


def test_kernel_oracle(benchmark):
    graph, _edges, tree = _instance()
    benchmark(lambda: two_respecting_oracle(graph, tree))


def test_matches_independent_references():
    """``Cov(e)`` equals the weight leaving each edge's subtree side; the
    oracle equals the stacked oracle on the same tree (value and edges)."""
    graph, tree_edges, tree = _instance()
    arrays = GraphArrays.from_graph(graph)

    cov = cover_values(graph, tree)
    for edge in tree.edges():
        side = frozenset(tree.subtree_nodes(tree.bottom(edge)))
        assert cov[edge] == partition_cut_weight(graph, side, arrays=arrays)[0]

    position = {node: i for i, node in enumerate(arrays.nodes)}
    (stack,) = stacked_tree_arrays(
        [N],
        [[(
            np.array([position[u] for u, _ in tree_edges]),
            np.array([position[v] for _, v in tree_edges]),
        )]],
        [position[tree.root]],
    )
    (batched,) = batched_two_respecting_oracle(arrays, stack)
    oracle = two_respecting_oracle(graph, tree)
    assert (oracle.value, oracle.edges) == (batched.value, batched.edges)
