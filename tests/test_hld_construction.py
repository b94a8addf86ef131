"""Merge-based HLD construction (Lemma 47): convergence, fidelity, cost."""

import math

import networkx as nx
import pytest

from repro.accounting import RoundAccountant
from repro.trees.hld import HeavyLightDecomposition
from repro.trees.hld_construction import build_hld_distributed
from repro.trees.rooted import RootedTree
from tests.conftest import random_tree


class TestConvergence:
    @pytest.mark.parametrize("seed", range(8))
    def test_converges_to_single_part(self, seed):
        tree = random_tree(60 + seed * 17, seed)
        result = build_hld_distributed(tree)
        assert result.part_counts[0] == len(tree)
        assert result.part_counts[-1] == 1

    @pytest.mark.parametrize("n", [2, 3, 10, 64, 200, 500])
    def test_iterations_logarithmic(self, n):
        """Each iteration retires >= 1/3 of the non-root parts, so the
        schedule finishes in O(log n) iterations."""
        tree = random_tree(n, seed=n)
        result = build_hld_distributed(tree)
        assert result.iterations <= 4 * math.ceil(math.log2(max(n, 2))) + 2

    @pytest.mark.parametrize("seed", range(5))
    def test_geometric_part_decay(self, seed):
        tree = random_tree(150, seed + 40)
        result = build_hld_distributed(tree)
        for before, after in zip(result.part_counts, result.part_counts[1:]):
            # |J| >= (|P| - 1) / 3 parts retire per iteration.
            assert after <= before - (before - 1) / 3 + 1e-9

    def test_single_node_tree(self):
        graph = nx.Graph()
        graph.add_node(0)
        tree = RootedTree(graph, 0)
        result = build_hld_distributed(tree)
        assert result.iterations == 0
        assert result.part_counts == [1]

    def test_path_tree(self):
        tree = RootedTree(nx.path_graph(64), 0)
        result = build_hld_distributed(tree)
        assert result.part_counts[-1] == 1
        assert result.iterations <= 4 * 6 + 2


class TestFidelity:
    @pytest.mark.parametrize("seed", range(6))
    def test_final_decomposition_matches_direct(self, seed):
        tree = random_tree(80, seed + 100)
        result = build_hld_distributed(tree)
        direct = HeavyLightDecomposition(tree)
        assert result.hld.hl_depth == direct.hl_depth
        assert result.hld.heavy_child == direct.heavy_child

    def test_rounds_charged(self):
        tree = random_tree(50, 7)
        acct = RoundAccountant()
        result = build_hld_distributed(tree, accountant=acct)
        labels = acct.by_label()
        assert labels.get("hld-construction:star-merge", 0) > 0
        assert labels.get("hld-construction:recompute", 0) > 0
        assert result.ma_rounds == acct.total

    def test_rounds_polylog(self):
        """Total construction cost O(log n) iterations x O(log^2 n) sums."""
        totals = []
        for n in (50, 200, 800):
            tree = random_tree(n, n)
            result = build_hld_distributed(tree)
            totals.append(result.ma_rounds)
        assert totals[-1] <= 40 * math.log2(800) ** 3
        assert totals[-1] < 16 * totals[0]  # far from linear growth


class TestSchedulePinned:
    """The merge schedule (iterations, part counts, charged rounds) is a
    reported paper metric; these literals pin it for fixed seeded trees."""

    SCHEDULES = {
        0: (3, [50, 25, 11, 1], 318.0),
        1: (5, [50, 24, 11, 3, 2, 1], 522.0),
        2: (4, [50, 27, 12, 2, 1], 420.0),
        3: (4, [50, 27, 13, 5, 1], 419.0),
    }

    @pytest.mark.parametrize("seed", range(4))
    def test_hld_construction_schedule_pinned(self, seed):
        result = build_hld_distributed(random_tree(50, seed=seed))
        iterations, part_counts, ma_rounds = self.SCHEDULES[seed]
        assert result.iterations == iterations
        assert result.part_counts == part_counts
        assert result.ma_rounds == ma_rounds


def test_e15_builds_no_tree_kernel(monkeypatch):
    """The merge schedule reads BFS order, parents and depths off the
    ``RootedTree``: the whole E15 experiment builds no ``TreeKernel``."""
    from repro.experiments import e15_hld_construction
    from repro.kernel.tree_kernel import TreeKernel

    built = []
    original = TreeKernel.__init__

    def counted(self, tree):
        built.append(len(tree))
        original(self, tree)

    monkeypatch.setattr(TreeKernel, "__init__", counted)
    assert e15_hld_construction.run(quick=True).holds
    assert built == []
