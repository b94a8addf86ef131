"""General 2-respecting min-cut (Theorem 40): exactness + paper invariants."""

import math
import random

import networkx as nx
import pytest

from repro.accounting import RoundAccountant
from repro.core.cut_values import (
    cut_matrix,
    cut_partition,
    partition_cut_weight,
    two_respecting_oracle,
)
from repro.core.general import two_respecting_min_cut
from repro.graphs import (
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    random_connected_gnm,
    random_spanning_tree,
    tree_plus_chords,
)
from repro.trees.rooted import RootedTree
from tests.conftest import graph_tree_cases


class TestExactness:
    @pytest.mark.parametrize("name,graph,tree", graph_tree_cases())
    def test_matches_oracle_on_families(self, name, graph, tree):
        oracle = two_respecting_oracle(graph, tree)
        result = two_respecting_min_cut(graph, tree)
        assert result.best.value == pytest.approx(oracle.value), name

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle_random(self, seed):
        graph = random_connected_gnm(26, 60, seed=seed + 200, weight_high=40)
        tree = RootedTree(random_spanning_tree(graph, seed=seed), 0)
        oracle = two_respecting_oracle(graph, tree)
        result = two_respecting_min_cut(graph, tree)
        assert result.best.value == pytest.approx(oracle.value), seed

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_sparse(self, seed):
        graph = tree_plus_chords(40, 10, seed=seed + 13)
        tree = RootedTree(random_spanning_tree(graph, seed=seed), 0)
        oracle = two_respecting_oracle(graph, tree)
        result = two_respecting_min_cut(graph, tree)
        assert result.best.value == pytest.approx(oracle.value)

    def test_path_shaped_tree(self):
        """Tree = Hamiltonian-ish path: deep recursion territory."""
        graph = cycle_graph(30, seed=4)
        for _ in range(10):
            pass
        tree = nx.path_graph(30)
        for u, v in tree.edges():
            tree[u][v]["weight"] = graph[u][v]["weight"]
        rooted = RootedTree(tree, 0)
        oracle = two_respecting_oracle(graph, rooted)
        result = two_respecting_min_cut(graph, rooted)
        assert result.best.value == pytest.approx(oracle.value)

    def test_star_shaped_tree(self):
        """Tree = star: the centroid is the hub, k = n-1 subtrees."""
        graph = nx.complete_graph(12)
        for u, v in graph.edges():
            graph[u][v]["weight"] = ((u + v) * 7) % 11 + 1
        tree = nx.star_graph(11)
        for u, v in tree.edges():
            tree[u][v]["weight"] = graph[u][v]["weight"]
        rooted = RootedTree(tree, 0)
        oracle = two_respecting_oracle(graph, rooted)
        result = two_respecting_min_cut(graph, rooted)
        assert result.best.value == pytest.approx(oracle.value)

    def test_witness_edges_give_claimed_value(self):
        graph = random_connected_gnm(24, 55, seed=31)
        tree = RootedTree(random_spanning_tree(graph, seed=32), 0)
        result = two_respecting_min_cut(graph, tree)
        side = cut_partition(tree, result.best.edges)
        value, _crossing = partition_cut_weight(graph, side)
        assert value == pytest.approx(result.best.value)

    def test_accepts_unrooted_tree_graph(self):
        graph = random_connected_gnm(18, 40, seed=33)
        tree = random_spanning_tree(graph, seed=34)
        result = two_respecting_min_cut(graph, tree)
        rooted = RootedTree(tree, 0)
        oracle = two_respecting_oracle(graph, rooted)
        assert result.best.value == pytest.approx(oracle.value)

    def test_one_respecting_folded_in(self):
        graph = random_connected_gnm(20, 45, seed=35)
        tree = RootedTree(random_spanning_tree(graph, seed=36), 0)
        result = two_respecting_min_cut(graph, tree)
        assert result.one_respecting is not None
        assert result.best.value <= result.one_respecting.value + 1e-9


class TestPaperInvariants:
    @pytest.mark.parametrize("n,m", [(30, 70), (60, 150), (90, 220)])
    def test_recursion_depth_logarithmic(self, n, m):
        """Theorem 40: centroid recursion depth O(log n)."""
        graph = random_connected_gnm(n, m, seed=n)
        tree = RootedTree(random_spanning_tree(graph, seed=n + 1), 0)
        result = two_respecting_min_cut(graph, tree)
        assert result.stats.max_depth <= math.ceil(math.log2(n)) + 1

    @pytest.mark.parametrize("n,m", [(40, 90), (80, 200)])
    def test_virtual_nodes_bounded_by_depth(self, n, m):
        """|Virt| <= O(log n): one virtual centroid per recursion level."""
        graph = random_connected_gnm(n, m, seed=n + 7)
        tree = RootedTree(random_spanning_tree(graph, seed=n), 0)
        result = two_respecting_min_cut(graph, tree)
        assert result.stats.max_virtual_nodes <= result.stats.max_depth + 2

    def test_rounds_polylog_growth(self):
        """Charged MA rounds grow polylogarithmically with n."""
        totals = []
        sizes = (20, 40, 80)
        for n in sizes:
            graph = random_connected_gnm(n, int(2.5 * n), seed=n + 3)
            tree = RootedTree(random_spanning_tree(graph, seed=n + 4), 0)
            acct = RoundAccountant()
            result = two_respecting_min_cut(graph, tree, accountant=acct)
            totals.append(result.ma_rounds)
        # Doubling n must not double the rounds (they are polylog, the
        # per-level constant shifts only by (log 2n / log n)^c).
        assert totals[2] <= totals[0] * (math.log2(80) / math.log2(20)) ** 6

    def test_accountant_labels_cover_phases(self):
        graph = random_connected_gnm(30, 70, seed=41)
        tree = RootedTree(random_spanning_tree(graph, seed=42), 0)
        acct = RoundAccountant()
        two_respecting_min_cut(graph, tree, accountant=acct)
        labels = set(acct.by_label())
        assert "one-respecting" in labels
        assert "general:centroid" in labels
        assert any(label.startswith("star:") for label in labels)


class TestStructuredFamilies:
    @pytest.mark.parametrize("seed", range(3))
    def test_planar(self, seed):
        graph = delaunay_planar_graph(30, seed=seed + 80)
        tree = RootedTree(random_spanning_tree(graph, seed=seed), 0)
        oracle = two_respecting_oracle(graph, tree)
        result = two_respecting_min_cut(graph, tree)
        assert result.best.value == pytest.approx(oracle.value)

    def test_grid(self):
        graph = grid_graph(5, 6, seed=9)
        tree = RootedTree(random_spanning_tree(graph, seed=10), 0)
        oracle = two_respecting_oracle(graph, tree)
        result = two_respecting_min_cut(graph, tree)
        assert result.best.value == pytest.approx(oracle.value)

    def test_heavy_weights(self):
        graph = random_connected_gnm(22, 50, seed=91, weight_high=10 ** 6)
        tree = RootedTree(random_spanning_tree(graph, seed=92), 0)
        oracle = two_respecting_oracle(graph, tree)
        result = two_respecting_min_cut(graph, tree)
        assert result.best.value == pytest.approx(oracle.value)


class TestCentroidSplit:
    """``_split_at_centroid`` walks the rooted tree, yet must hand back
    what networkx's connected components of ``T - c`` would: the same
    component order, the same anchors, and sets that iterate in the same
    order (the instance builders iterate them)."""

    @staticmethod
    def _networkx_split(tree, centroid):
        graph = tree.to_graph()
        graph.remove_node(centroid)
        components = [set(c) for c in nx.connected_components(graph)]
        anchors = {}
        for index, members in enumerate(components):
            for child in tree.children[centroid]:
                if child in members:
                    anchors[index] = child
            if centroid != tree.root and tree.parent[centroid] in members:
                anchors[index] = tree.parent[centroid]
        return components, anchors

    @pytest.mark.parametrize("labels", ["int", "tuple", "str"])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_networkx_components(self, labels, seed):
        from repro.core.general import GeneralTwoRespectingSolver

        rng = random.Random(seed)
        n = rng.randint(2, 40)
        names = {
            "int": lambda i: i * 7,
            "tuple": lambda i: ("__split_centroid__", rng.randrange(10**6), i),
            "str": lambda i: f"v{i}",
        }[labels]
        nodes = [names(i) for i in range(n)]
        rng.shuffle(nodes)
        edges = [(nodes[i], nodes[rng.randrange(i)]) for i in range(1, n)]
        rng.shuffle(edges)
        tree = RootedTree.from_edges(edges, root=rng.choice(nodes))
        solver = GeneralTwoRespectingSolver()
        for centroid in rng.sample(tree.order, min(5, n)):
            components, anchors = solver._split_at_centroid(tree, centroid)
            want_components, want_anchors = self._networkx_split(tree, centroid)
            assert [list(c) for c in components] == [
                list(c) for c in want_components
            ]
            assert list(anchors.items()) == list(want_anchors.items())
