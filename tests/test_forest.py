"""The stacked forest over graphs of different sizes, built per round.

``minimum_cut_many`` roots the packed trees batch by batch: each round
of the oracle's schedule makes one
:func:`~repro.kernel.forest.stacked_tree_arrays` call over the next
batch of every unsettled graph, whatever the graphs' node counts.  Every
built row must equal its tree's one-graph build and a pure-Python
reference (the tree's ``RootedTree`` BFS and a LIFO stack walk, written
out here and sharing no code with the builder) element for element, and
each result must equal a looped ``minimum_cut`` bit for bit.  The batch mixes 16 distinct
node counts, including n=3, path-shaped trees from cycles, and a
labelled graph whose root is not node index 0.  The builder itself is
checked on deep paths, stars, caterpillars, shuffled edge orders and
the smallest trees and a ragged forest shaped like the recursion's
leaf batches, and the witness read off a stack row
(:meth:`TreeStack.cut_side`) against ``cut_partition`` on the tree's
``RootedTree`` and against the components of the tree with the cut
edges removed.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

import repro
from repro.core import session as session_module
from repro.core.cut_values import cut_partition
from repro.graphs import CSR_FAMILY_BUILDERS, CSRGraph
from repro.kernel.forest import _flat_forest, stacked_tree_arrays
from repro.trees.rooted import RootedTree

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


def _reference(tree: RootedTree):
    """``(order, pos, parent, tin, tout)`` of ``tree`` as lists: BFS
    indices from the tree's BFS order, ``pos`` over node indices
    ``0..n-1``, and the preorder of a stack walk that pushes each node's
    children in order and pops them LIFO."""
    nodes = tree.order
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    parent = [0] + [index[tree.parent[node]] for node in nodes[1:]]
    children = [[index[child] for child in tree.children[node]] for node in nodes]
    tin, tout = [0] * n, [0] * n
    timer, stack = 0, [0]
    while stack:
        v = stack.pop()
        if v < 0:  # ~v: v's subtree is done
            tout[~v] = timer
            continue
        tin[v] = timer
        timer += 1
        stack.append(~v)
        stack.extend(children[v])
    return list(nodes), [index[x] for x in range(n)], parent, tin, tout


def _stack_arrays(stack):
    return (stack.order, stack.pos, stack.parent, stack.tin, stack.tout)


def _built(graphs, calls):
    """Every graph's ``(T, n)`` arrays over all rounds, in build order.  A
    schedule takes its trees in packed order, so these are packed trees
    ``0 .. B - 1``; graphs are told apart by their (distinct) sizes."""
    graph_of = {graph.n: g for g, graph in enumerate(graphs)}
    rows: dict = {g: [] for g in range(len(graphs))}
    for sizes, _roots, stacks in calls:
        for n, stack in zip(sizes, stacks):
            rows[graph_of[n]].append(stack)
    return [
        tuple(np.concatenate(parts) for parts in zip(*map(_stack_arrays, rows[g])))
        for g in range(len(graphs))
    ]


class TestMixedSizeForest:
    def test_one_build_per_batch(self, mixed_sweep):
        """One build per schedule round: the first covers every graph,
        each later one the graphs still unsettled, in sweep order."""
        graphs, _seeds, _results, calls = mixed_sweep
        assert calls[0][0] == [graph.n for graph in graphs]
        assert len(calls[0][2]) == len(graphs)
        assert len(calls) > 1
        for (sizes, _r, _s), (later, _r2, stacks) in zip(calls, calls[1:]):
            assert later == [n for n in sizes if n in later]
            assert len(stacks) == len(later)
        assert any(root != 0 for _sizes, roots, _stacks in calls for root in roots)

    def test_rows_beyond_the_schedule_are_never_built(self, mixed_sweep):
        """Trees are built batch by batch (1, 2, 4, ...), and fewer than
        all of them: the sweep stops rooting a graph once it settles."""
        graphs, _seeds, results, calls = mixed_sweep
        built = _built(graphs, calls)
        counts = {}
        for sizes, _roots, stacks in calls:
            for n, stack in zip(sizes, stacks):
                counts.setdefault(n, []).append(stack.trees)
        for graph, result, arrays in zip(graphs, results, built):
            batches = counts[graph.n]
            assert sum(batches) == len(arrays[0])
            assert sum(batches) <= len(result.packing.tree_edge_arrays)
        assert sum(len(arrays[0]) for arrays in built) < sum(
            len(r.packing.tree_edge_arrays) for r in results
        )

    def test_cycles_give_deep_paths(self, mixed_sweep):
        """Every tree of a cycle is a path: BFS depth at least (n - 1) / 2."""
        graphs, _seeds, _results, calls = mixed_sweep
        cycles = [g for g, (family, _n) in enumerate(MIXED) if family == "cycle"]
        assert graphs[cycles[0]].n == 3
        built = _built(graphs, calls)
        for g in cycles:
            for parent in built[g][2].tolist():
                depth = [0] * len(parent)
                for i in range(1, len(parent)):
                    depth[i] = depth[parent[i]] + 1
                assert max(depth) >= (len(parent) - 1) // 2

    def test_each_stack_equals_its_one_graph_build(self, mixed_sweep):
        graphs, _seeds, results, calls = mixed_sweep
        roots = {n: root for sizes, rs, _ in calls for n, root in zip(sizes, rs)}
        for graph, result, arrays in zip(graphs, results, _built(graphs, calls)):
            trees = len(arrays[0])
            (alone,) = stacked_tree_arrays(
                [graph.n], [result.packing.tree_edge_arrays[:trees]], [roots[graph.n]]
            )
            for got, want in zip(arrays, _stack_arrays(alone)):
                assert np.array_equal(got, want)

    def test_each_row_equals_its_tree_kernel(self, mixed_sweep):
        """Each row equals the reference walk of its ``RootedTree``, and
        so does that tree's ``TreeKernel`` (a one-row build fed the
        tree's BFS-index pairs rather than the packed edge arrays)."""
        graphs, _seeds, results, calls = mixed_sweep
        roots = {n: root for sizes, rs, _ in calls for n, root in zip(sizes, rs)}
        for graph, result, arrays in zip(graphs, results, _built(graphs, calls)):
            n, packing = graph.n, result.packing
            for t in range(len(arrays[0])):
                tree = packing.rooted_tree(t, roots[n])
                want = _reference(tree)
                assert [row[t].tolist() for row in arrays] == list(want)
                kernel = tree.kernel
                assert kernel.nodes == want[0]
                assert kernel.parent.tolist() == want[2]
                assert kernel.tin.tolist() == want[3]
                assert kernel.tout.tolist() == want[4]

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


def _walk(n, edge_u, edge_v, root):
    """The per-tree reference: a RootedTree over the edges in insertion
    order (what the packing hands it) and its :func:`_reference` walk."""
    adjacency: dict = {node: [] for node in range(n)}
    for u, v in zip(edge_u.tolist(), edge_v.tolist()):
        adjacency[u].append(v)
        adjacency[v].append(u)
    return _reference(RootedTree(adjacency, root))


def _assert_rows_match(n, trees, root):
    (stack,) = stacked_tree_arrays([n], [trees], [root])
    assert stack.order.shape == (len(trees), n)
    for t, (edge_u, edge_v) in enumerate(trees):
        got = [row[t].tolist() for row in _stack_arrays(stack)]
        assert got == list(_walk(n, edge_u, edge_v, root))
    return stack


def _shuffled(rng, n, edge_u, edge_v):
    """The same tree under a random node relabelling, edge order and
    endpoint order."""
    perm = rng.permutation(n)
    edge_u, edge_v = perm[edge_u], perm[edge_v]
    flip = rng.random(len(edge_u)) < 0.5
    edge_u, edge_v = np.where(flip, edge_v, edge_u), np.where(flip, edge_u, edge_v)
    order = rng.permutation(len(edge_u))
    return edge_u[order].astype(np.int64), edge_v[order].astype(np.int64)


def _path(n):
    return np.arange(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)


def _star(n):
    return np.zeros(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)


def _caterpillar(rng, n):
    spine = max(2, n // 4)
    parents = [i - 1 if i < spine else int(rng.integers(0, spine)) for i in range(1, n)]
    return np.asarray(parents, dtype=np.int64), np.arange(1, n, dtype=np.int64)


class TestEulerTourBuilder:
    """The builder against the per-tree kernel on shapes the packings
    rarely give: depth n - 1, depth 1, long spines with leaves."""

    def test_path_of_depth_n_minus_1(self):
        n = 4096
        stack = _assert_rows_match(n, [_path(n)], 0)
        assert stack.order[0].tolist() == list(range(n))
        assert stack.tin[0].tolist() == list(range(n))
        # Rooted at its far end the path is the same depth the other way.
        stack = _assert_rows_match(n, [_path(n)], n - 1)
        assert stack.order[0].tolist() == list(range(n - 1, -1, -1))

    def test_paths_rooted_inside(self):
        rng = np.random.default_rng(3)
        _assert_rows_match(257, [_shuffled(rng, 257, *_path(257))], 100)

    @pytest.mark.parametrize("n", [2, 3, 17, 300])
    def test_stars(self, n):
        rng = np.random.default_rng(n)
        trees = [_star(n), _shuffled(rng, n, *_star(n))]
        _assert_rows_match(n, trees, 0)
        _assert_rows_match(n, trees, n - 1)

    @pytest.mark.parametrize("n", [5, 64, 513])
    def test_caterpillars(self, n):
        rng = np.random.default_rng(n)
        trees = [_caterpillar(rng, n) for _ in range(3)]
        trees += [_shuffled(rng, n, *tree) for tree in trees]
        for root in (0, n // 2, n - 1):
            _assert_rows_match(n, trees, root)

    def test_shuffled_random_trees(self):
        rng = np.random.default_rng(11)
        for n in (4, 31, 200):
            trees = [
                _shuffled(
                    rng, n,
                    np.asarray([int(rng.integers(0, i)) for i in range(1, n)]),
                    np.arange(1, n),
                )
                for _ in range(4)
            ]
            _assert_rows_match(n, trees, int(rng.integers(1, n)))

    def test_one_and_two_node_trees(self):
        empty = np.zeros(0, dtype=np.int64)
        (one,) = stacked_tree_arrays([1], [[(empty, empty)] * 2], [0])
        assert one.order.tolist() == [[0], [0]]
        assert one.tin.tolist() == [[0], [0]] and one.tout.tolist() == [[1], [1]]
        for root in (0, 1):
            _assert_rows_match(2, [(np.array([0]), np.array([1]))], root)
            _assert_rows_match(2, [(np.array([1]), np.array([0]))], root)

    def test_mixed_sizes_in_one_call(self):
        """Trees of different sizes and depths in one flat build equal
        their builds alone."""
        rng = np.random.default_rng(5)
        sizes = [1, 2, 40, 3, 600, 9]
        trees = [
            [_shuffled(rng, n, *(_path(n) if n % 2 else _star(n))) for _ in range(2)]
            if n > 1 else [(np.zeros(0, np.int64), np.zeros(0, np.int64))]
            for n in sizes
        ]
        roots = [0, 1, 7, 2, 599, 4]
        stacks = stacked_tree_arrays(sizes, trees, roots)
        for n, group, root, stack in zip(sizes, trees, roots, stacks):
            (alone,) = stacked_tree_arrays([n], [group], [root])
            for got, want in zip(_stack_arrays(stack), _stack_arrays(alone)):
                assert np.array_equal(got, want)
            if n > 1:
                _assert_rows_match(n, group, root)


    def test_ragged_forest_of_leaf_batch_trees(self):
        """The recursion's leaf batches call the flat builder directly: a
        forest of trees of 1-9 nodes (depth up to 8) in one slot space,
        every tree rooted at its local node 0, its edges shuffled."""
        rng = np.random.default_rng(29)
        sizes = [1, 9] + [int(rng.integers(1, 10)) for _ in range(40)]
        trees = [(np.zeros(0, np.int64), np.zeros(0, np.int64)), _path(9)]
        for n in sizes[2:]:
            parents = np.asarray(
                [int(rng.integers(0, i)) for i in range(1, n)], dtype=np.int64
            )
            trees.append(_shuffled(rng, n, parents, np.arange(1, n)))
        offset = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offset[1:])
        shift = np.repeat(offset[:-1], np.subtract(sizes, 1))
        flat = _flat_forest(
            np.concatenate([edge_u for edge_u, _v in trees]) + shift,
            np.concatenate([edge_v for _u, edge_v in trees]) + shift,
            np.zeros(len(sizes), dtype=np.int64),
            offset,
        )
        depths = []
        for j, (n, (edge_u, edge_v)) in enumerate(zip(sizes, trees)):
            block = slice(int(offset[j]), int(offset[j + 1]))
            got = [array[block].tolist() for array in flat]
            want = _walk(n, edge_u, edge_v, 0)
            assert got == list(want)
            depth = [0] * n
            for i in range(1, n):
                depth[i] = depth[want[2][i]] + 1
            depths.append(max(depth))
        assert max(depths) == 8 and sizes[0] == 1


def _middle_component(tree: RootedTree, cut) -> set:
    """The side a respecting cut separates, from the components of the
    tree minus the cut edges: one edge's bottom side, or the component
    that touches both of two edges."""
    forest = nx.Graph(list(tree.edges()))
    forest.remove_edges_from(cut)
    if len(cut) == 1:
        return nx.node_connected_component(forest, tree.bottom(cut[0]))
    (side,) = [
        component
        for component in map(set, nx.connected_components(forest))
        if all(u in component or v in component for u, v in cut)
    ]
    return side


class TestStackWitness:
    """:meth:`TreeStack.cut_side` equals ``cut_partition`` on the tree's
    ``RootedTree`` for every candidate kind: one edge, two nested edges
    and two disjoint ones -- the same node list in the same order."""

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize("family", ["gnm", "cycle", "grid", "barbell"])
    def test_every_edge_kind(self, family, labelled):
        graph = CSR_FAMILY_BUILDERS[family](30, 4)
        if labelled:
            graph = _labelled(graph, 4)
        packed = repro.MinCutSolver(solver="oracle").pack(graph, seed=4)
        stack, root = packed.stack, packed.root_position
        kinds = set()
        for t in range(min(stack.trees, 4)):
            tree = packed.packing.rooted_tree(t, root)
            edges = list(tree.edges())
            pairs = [(e,) for e in edges]
            pairs += [(e, f) for i, e in enumerate(edges) for f in edges[i + 1 :: 5]]
            for cut in pairs:
                want = cut_partition(tree, cut)
                got = stack.cut_side(t, cut)
                assert got == want and list(got) == list(want)
                assert set(got) == _middle_component(tree, cut)
                if len(cut) == 2:
                    b = [tree.bottom(e) for e in cut]
                    nested = tree.is_ancestor(b[0], b[1]) or tree.is_ancestor(b[1], b[0])
                    kinds.add("nested" if nested else "disjoint")
                else:
                    kinds.add("one")
        assert kinds == {"one", "nested", "disjoint"} or family == "cycle"

    def test_rejects_three_edges(self):
        (stack,) = stacked_tree_arrays([4], [[_path(4)]], [0])
        with pytest.raises(ValueError, match="one or two"):
            stack.cut_side(0, ((0, 1), (1, 2), (2, 3)))


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
        path = _path(4)
        for edge_u, edge_v in (
            ([0, 1, 2], [1, 2, 0]),  # a triangle and an isolated node
            ([0, 1, 1], [1, 0, 2]),  # a repeated edge
            ([0, 2, 3], [1, 3, 2]),  # two components, no isolated node
            ([0, 1, 1], [1, 2, 1]),  # a self-loop
        ):
            bad = (np.array(edge_u), np.array(edge_v))
            with pytest.raises(ValueError, match="spanning trees"):
                stacked_tree_arrays([4], [[bad]], [0])
            # ... also beside valid trees of the same call.
            with pytest.raises(ValueError, match="spanning trees"):
                stacked_tree_arrays([4, 4], [[path], [path, bad]], [0, 3])
