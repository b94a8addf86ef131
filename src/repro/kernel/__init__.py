"""Array-backed tree kernel (flat indices, Euler tours, vectorized covers).

``forest`` is the one Euler-interval builder: it builds BFS order,
parents and ``tin``/``tout`` for any number of trees of any sizes in
O(log n) numpy passes, as one :class:`TreeStack` per graph.
``TreeKernel`` is one tree's one-row stack plus its node labels;
``cut_kernel`` holds the edge arrays and the stacked ``Cov(e)`` pass;
``batched`` solves the 2-respecting oracles of a stack's trees in one
numpy pass -- for the packed trees of one graph or, via ``OracleJob`` /
``batched_two_respecting_oracle_many``, across a whole sweep of graphs.
These are the only implementations of the tree and cut primitives;
``tests/test_kernel.py`` checks them against brute-force component cuts.
"""

from repro.kernel.batched import (
    OracleJob,
    batched_two_respecting_oracle,
    batched_two_respecting_oracle_many,
    env_batch_bytes,
)
from repro.kernel.cut_kernel import (
    GraphArrays,
    cover_values_kernel,
    partition_cut_weight_arrays,
)
from repro.kernel.forest import TreeStack, stacked_tree_arrays
from repro.kernel.tree_kernel import TreeKernel

__all__ = [
    "GraphArrays",
    "OracleJob",
    "batched_two_respecting_oracle",
    "batched_two_respecting_oracle_many",
    "env_batch_bytes",
    "TreeKernel",
    "TreeStack",
    "stacked_tree_arrays",
    "cover_values_kernel",
    "partition_cut_weight_arrays",
]
