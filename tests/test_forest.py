"""The one-pass stacked forest over graphs of different sizes.

``minimum_cut_many`` builds the BFS/Euler arrays of every packed tree of
a batch in one :func:`~repro.kernel.forest.stacked_tree_arrays` call over
a flat node space, whatever the graphs' node counts.  Each graph's stack
must equal its one-graph build and the per-tree :class:`TreeKernel`
fields element for element, and each result must equal a looped
``minimum_cut`` bit for bit.  The batch mixes 16 distinct node counts,
including n=3, path-shaped trees from cycles (the deepest BFS), and a
labelled graph whose root is not node index 0.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import session as session_module
from repro.graphs import CSR_FAMILY_BUILDERS, CSRGraph
from repro.kernel.forest import stacked_tree_arrays
from repro.kernel.tree_kernel import TreeKernel

FAMILIES = sorted(CSR_FAMILY_BUILDERS)


def _labelled(graph: CSRGraph, seed: int) -> CSRGraph:
    """``graph`` with string labels in a shuffled order, so the least
    label (the packing root) sits at a nonzero index."""
    names = [f"v{x}" for x in np.random.default_rng(seed).permutation(graph.n)]
    assert names.index(min(names)) != 0
    return CSRGraph(graph.n, graph.edge_u, graph.edge_v, graph.edge_w, nodes=names)


#: 16 distinct node counts over all 8 families; the n=3 triangle and
#: the cycles pack path-shaped trees.
MIXED = (
    ("cycle", 3), ("gnm", 20), ("cycle", 22), ("grid", 25), ("delaunay", 26),
    ("barbell", 28), ("cycle", 30), ("expander", 32), ("tree-chords", 34),
    ("planted", 36), ("cycle", 38), ("gnm", 40), ("grid", 42),
    ("delaunay", 44), ("cycle", 46), ("barbell", 48),
)


def _mixed_batch() -> list[CSRGraph]:
    graphs = [
        CSR_FAMILY_BUILDERS[family](n, seed)
        for seed, (family, n) in enumerate(MIXED, start=1)
    ]
    graphs[9] = _labelled(graphs[9], 9)
    return graphs


@pytest.fixture(scope="module")
def mixed_sweep():
    """The batch, its seeds, its results and every forest build call."""
    graphs = _mixed_batch()
    assert sorted(graph.n for graph in graphs) == sorted(n for _f, n in MIXED)
    assert len({graph.n for graph in graphs}) == 16
    seeds = list(range(3, 3 + len(graphs)))
    calls = []
    original = session_module.stacked_tree_arrays

    def spy(sizes, trees, roots):
        stacks = original(sizes, trees, roots)
        calls.append((list(sizes), list(roots), stacks))
        return stacks

    session_module.stacked_tree_arrays = spy
    try:
        results = repro.minimum_cut_many(graphs, seeds=seeds, solver="oracle")
    finally:
        session_module.stacked_tree_arrays = original
    return graphs, seeds, results, calls


def _stack_arrays(stack):
    return (stack.order, stack.pos, stack.parent, stack.tin, stack.tout)


class TestMixedSizeForest:
    def test_one_build_per_batch(self, mixed_sweep):
        graphs, _seeds, _results, calls = mixed_sweep
        assert len(calls) == 1
        sizes, roots, stacks = calls[0]
        assert sizes == [graph.n for graph in graphs]
        assert len(stacks) == len(graphs)
        assert any(root != 0 for root in roots)

    def test_cycles_give_deep_paths(self, mixed_sweep):
        """Every tree of a cycle is a path: BFS depth at least (n - 1) / 2."""
        graphs, _seeds, _results, calls = mixed_sweep
        _sizes, _roots, stacks = calls[0]
        cycles = [g for g, (family, _n) in enumerate(MIXED) if family == "cycle"]
        assert graphs[cycles[0]].n == 3
        for g in cycles:
            for parent in stacks[g].parent.tolist():
                depth = [0] * len(parent)
                for i in range(1, len(parent)):
                    depth[i] = depth[parent[i]] + 1
                assert max(depth) >= (len(parent) - 1) // 2

    def test_each_stack_equals_its_one_graph_build(self, mixed_sweep):
        graphs, _seeds, results, calls = mixed_sweep
        sizes, roots, stacks = calls[0]
        for graph, root, result, stack in zip(graphs, roots, results, stacks):
            (alone,) = stacked_tree_arrays(
                [graph.n], [result.packing.tree_edge_arrays], [root]
            )
            for got, want in zip(_stack_arrays(stack), _stack_arrays(alone)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    def test_each_row_equals_its_tree_kernel(self, mixed_sweep):
        graphs, _seeds, results, calls = mixed_sweep
        _sizes, roots, stacks = calls[0]
        for graph, root, result, stack in zip(graphs, roots, results, stacks):
            packing = result.packing
            assert stack.trees == len(packing.tree_edge_arrays)
            for t in range(stack.trees):
                kernel = TreeKernel(packing.rooted_tree(t, root))
                assert stack.order[t].tolist() == kernel.nodes
                assert stack.parent[t].tolist() == kernel.parent.tolist()
                assert stack.tin[t].tolist() == kernel.tin.tolist()
                assert stack.tout[t].tolist() == kernel.tout.tolist()
                remap = [kernel.index[node] for node in range(graph.n)]
                assert stack.pos[t].tolist() == remap

    def test_results_bit_identical_to_looped_minimum_cut(self, mixed_sweep):
        graphs, seeds, results, _calls = mixed_sweep
        for graph, seed, result in zip(graphs, seeds, results):
            alone = repro.minimum_cut(graph, seed=seed, solver="oracle")
            assert result.value.hex() == alone.value.hex()
            assert result.partition == alone.partition
            assert result.cut_edges == alone.cut_edges
            assert result.candidate == alone.candidate
            assert result.best_tree_index == alone.best_tree_index
            assert result.ma_rounds == alone.ma_rounds
            assert result.stats["accountant"] == alone.stats["accountant"]


class TestStackedTreeArrays:
    def test_graph_without_trees_gets_an_empty_stack(self):
        path = (np.array([0, 1]), np.array([1, 2]))
        empty, full = stacked_tree_arrays([5, 3], [[], [path, path]], [0, 2])
        assert empty.tin.shape == (0, 5)
        assert full.tin.shape == (2, 3)
        assert full.order.tolist() == [[2, 1, 0], [2, 1, 0]]

    def test_no_graphs(self):
        assert stacked_tree_arrays([], [], []) == []

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError, match="expected 3 edges"):
            stacked_tree_arrays([4], [[(np.array([0, 1]), np.array([1, 2]))]], [0])

    def test_non_spanning_edges_rejected(self):
        cycle = (np.array([0, 1, 2]), np.array([1, 2, 0]))
        with pytest.raises(ValueError, match="spanning trees"):
            stacked_tree_arrays([4], [[cycle]], [0])
