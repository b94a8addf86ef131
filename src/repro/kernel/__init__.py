"""Array-backed tree kernel (flat indices, Euler tours, vectorized covers).

``TreeKernel`` is the per-tree index structure; ``cut_kernel`` holds the
vectorized cover/cut computations built on it; ``batched`` stacks many
tree kernels and solves their 2-respecting oracles in one numpy pass --
for the packed trees of one graph or, via ``OracleJob`` /
``batched_two_respecting_oracle_many``, across a whole sweep of graphs;
``forest`` builds BFS/Euler arrays for stacks of same-size trees without
per-tree Python loops.  These are the only implementations of the tree
and cut primitives; ``tests/test_kernel.py`` checks them against
brute-force component cuts.
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
    cut_partition_kernel,
    pair_cover_matrix_kernel,
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
    "cut_partition_kernel",
    "pair_cover_matrix_kernel",
    "partition_cut_weight_arrays",
]
