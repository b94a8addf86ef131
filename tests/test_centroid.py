"""Centroid finding (Fact 41, Lemma 42)."""

import networkx as nx
import pytest

from repro.graphs import random_connected_gnm, random_spanning_tree
from repro.ma.engine import MinorAggregationEngine
from repro.trees.centroid import find_centroid, find_centroid_centralized
from repro.trees.rooted import RootedTree
from tests.conftest import random_tree


def assert_is_centroid(tree: RootedTree, node) -> None:
    graph = tree.to_graph()
    graph.remove_node(node)
    n = len(tree)
    if graph.number_of_nodes():
        largest = max(len(c) for c in nx.connected_components(graph))
        assert largest <= n // 2, f"{node} leaves a component of {largest}/{n}"


class TestCentralized:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_trees(self, seed):
        tree = random_tree(3 + seed * 13, seed)
        assert_is_centroid(tree, find_centroid_centralized(tree))

    @pytest.mark.parametrize("seed", range(6))
    def test_subtree_sizes_without_a_kernel(self, seed):
        """Sizes accumulated over the reversed BFS order count each
        node's descendants, in BFS order, and reading them builds no
        kernel."""
        tree = random_tree(2 + seed * 17, seed)
        sizes = tree.subtree_sizes()
        assert tree._kernel is None
        expected = [(node, len(tree.subtree_nodes(node))) for node in tree.order]
        assert list(sizes.items()) == expected

    def test_minor_aggregation_solve_builds_no_kernel(self, monkeypatch):
        """The packed trees' covers come from one stacked pass, the
        centroid steps read sizes without a kernel and finalize reads
        the witness off the packing's stack: no ``TreeKernel`` is built."""
        from repro.core.session import MinCutSolver, SolverConfig
        from repro.graphs import csr_random_connected_gnm
        from repro.kernel.tree_kernel import TreeKernel

        built = []
        original = TreeKernel.__init__

        def counted(self, tree):
            built.append(len(tree))
            original(self, tree)

        monkeypatch.setattr(TreeKernel, "__init__", counted)
        graph = csr_random_connected_gnm(96, 288, seed=1)
        MinCutSolver(SolverConfig(solver="minor-aggregation")).solve(graph, seed=1)
        assert built == []

    def test_path_tree_middle(self):
        tree = RootedTree(nx.path_graph(9), 0)
        assert find_centroid_centralized(tree) == 4

    def test_star_tree_center(self):
        tree = RootedTree(nx.star_graph(10), 3)  # rooted at a leaf
        assert find_centroid_centralized(tree) == 0

    def test_two_nodes(self):
        tree = RootedTree(nx.path_graph(2), 0)
        assert_is_centroid(tree, find_centroid_centralized(tree))

    def test_caterpillar(self):
        graph = nx.path_graph(7)
        for i in range(7):
            graph.add_edge(i, 100 + i)
        tree = RootedTree(graph, 0)
        assert_is_centroid(tree, find_centroid_centralized(tree))


class TestEngineBased:
    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_property(self, seed):
        graph = random_connected_gnm(30, 70, seed=seed)
        tree = RootedTree(random_spanning_tree(graph, seed=seed + 1), 0)
        engine = MinorAggregationEngine(graph)
        centroid = find_centroid(engine, tree)
        assert_is_centroid(tree, centroid)

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node(5)
        tree = RootedTree(graph, 5)
        engine = MinorAggregationEngine(nx.path_graph(2))
        assert find_centroid(engine, tree) == 5

    def test_deterministic(self):
        graph = random_connected_gnm(25, 50, seed=9)
        tree = RootedTree(random_spanning_tree(graph, seed=10), 0)
        first = find_centroid(MinorAggregationEngine(graph), tree)
        second = find_centroid(MinorAggregationEngine(graph), tree)
        assert first == second

    def test_rounds_are_charged(self):
        from repro.accounting import RoundAccountant

        graph = random_connected_gnm(20, 45, seed=2)
        tree = RootedTree(random_spanning_tree(graph, seed=3), 0)
        acct = RoundAccountant()
        engine = MinorAggregationEngine(graph, accountant=acct)
        find_centroid(engine, tree)
        assert acct.total > 0
        assert engine.rounds_executed >= 3
