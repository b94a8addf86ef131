"""Tree packing (Theorem 12): spanning trees, the 2-respecting property,
sampling regime, and round charging."""

import networkx as nx
import pytest

from repro.accounting import RoundAccountant
from repro.baselines import stoer_wagner_min_cut
from repro.core.tree_packing import default_tree_count, pack_trees
from repro.graphs import (
    grid_graph,
    planted_cut_graph,
    random_connected_gnm,
)


def min_cut_crossings(tree, side):
    return sum(1 for u, v in tree if (u in side) != (v in side))


class TestPackingBasics:
    @pytest.mark.parametrize("seed", range(4))
    def test_trees_are_spanning(self, seed):
        graph = random_connected_gnm(30, 75, seed=seed)
        packing = pack_trees(graph, seed=seed)
        for tree in packing.trees:
            spanning = nx.Graph(tree)
            assert nx.is_tree(spanning)
            assert set(spanning.nodes()) == set(graph.nodes())
            assert all(graph.has_edge(u, v) for u, v in tree)

    def test_count_is_theta_log_n(self):
        assert default_tree_count(1000) <= 50
        assert default_tree_count(16) < default_tree_count(4096)

    def test_num_trees_override(self):
        graph = random_connected_gnm(18, 40, seed=1)
        packing = pack_trees(graph, seed=1, num_trees=5)
        assert len(packing.trees) <= 5

    def test_rejects_single_node(self):
        graph = nx.Graph()
        graph.add_node(0)
        with pytest.raises(ValueError):
            pack_trees(graph)

    def test_trees_are_distinct(self):
        graph = random_connected_gnm(25, 80, seed=2)
        packing = pack_trees(graph, seed=2)
        signatures = [frozenset(map(frozenset, t)) for t in packing.trees]
        assert len(signatures) == len(set(signatures))


class TestTheorem12Property:
    @pytest.mark.parametrize("seed", range(8))
    def test_min_cut_two_respects_some_tree(self, seed):
        """The headline property: some packed tree crosses the min cut <= 2."""
        graph = random_connected_gnm(28, 70, seed=seed + 10, weight_high=30)
        _value, (side, _other) = stoer_wagner_min_cut(graph)
        packing = pack_trees(graph, seed=seed)
        crossings = [min_cut_crossings(t, side) for t in packing.trees]
        assert min(crossings) <= 2, (seed, crossings)

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_cut_two_respected(self, seed):
        graph = planted_cut_graph(12, 14, cross_edges=3, seed=seed)
        left, _right = graph.graph["planted_partition"]
        packing = pack_trees(graph, seed=seed)
        crossings = [min_cut_crossings(t, left) for t in packing.trees]
        assert min(crossings) <= 2

    def test_grid_family(self):
        graph = grid_graph(5, 5, seed=3)
        _value, (side, _other) = stoer_wagner_min_cut(graph)
        packing = pack_trees(graph, seed=3)
        assert min(min_cut_crossings(t, side) for t in packing.trees) <= 2


class TestSamplingRegime:
    def test_heavy_graph_triggers_sampling(self):
        """Large min-cut -> Karger sampling (regime B)."""
        graph = planted_cut_graph(
            10, 10, cross_edges=8, cross_weight=400, inside_weight=2000, seed=1
        )
        packing = pack_trees(graph, seed=1)
        assert packing.approx_cut_value > 1000
        assert packing.sampled
        assert 0 < packing.sampling_probability <= 1

    def test_sampled_packing_still_two_respects(self):
        graph = planted_cut_graph(
            10, 12, cross_edges=5, cross_weight=300, inside_weight=3000, seed=2
        )
        left, _right = graph.graph["planted_partition"]
        packing = pack_trees(graph, seed=2)
        assert packing.sampled
        assert min(min_cut_crossings(t, left) for t in packing.trees) <= 2

    def test_light_graph_skips_sampling(self):
        graph = random_connected_gnm(25, 55, seed=3, weight_high=3)
        packing = pack_trees(graph, seed=3)
        assert not packing.sampled
        assert packing.sampling_probability is None


class TestAccounting:
    def test_boruvka_rounds_charged(self):
        graph = random_connected_gnm(24, 60, seed=4)
        acct = RoundAccountant()
        packing = pack_trees(graph, seed=4, accountant=acct)
        labels = acct.by_label()
        assert labels.get("packing:boruvka", 0) > 0
        assert packing.ma_rounds >= labels["packing:boruvka"]

    def test_deterministic_given_seed(self):
        graph = random_connected_gnm(20, 50, seed=6)
        a = pack_trees(graph, seed=9)
        b = pack_trees(graph, seed=9)
        sigs = lambda p: [frozenset(map(frozenset, t)) for t in p.trees]
        assert sigs(a) == sigs(b)
