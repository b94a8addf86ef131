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

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    ".cut_kernel": (
        "GraphArrays",
        "cover_values_kernel",
        "partition_cut_weight_arrays",
    ),
    ".batched": (
        "OracleJob",
        "batched_two_respecting_oracle",
        "batched_two_respecting_oracle_many",
        "env_batch_bytes",
    ),
    ".tree_kernel": ("TreeKernel",),
    ".forest": ("TreeStack", "stacked_tree_arrays"),
})
