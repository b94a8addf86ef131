"""End-to-end exact min-cut (Theorem 1) against the centralized ground truth."""

import networkx as nx
import pytest

import repro
from repro.accounting import RoundAccountant
from repro.baselines import exact_min_cut_reference, stoer_wagner_min_cut
from repro.graphs import (
    barbell_graph,
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    planted_cut_graph,
    random_connected_gnm,
    tree_plus_chords,
)


def assert_valid_result(graph, result, expected_value):
    assert result.value == pytest.approx(expected_value)
    side_a, side_b = result.partition
    assert side_a | side_b == set(graph.nodes())
    assert not (side_a & side_b)
    assert side_a and side_b
    # Crossing edges really have that weight...
    weight = sum(graph[u][v]["weight"] for u, v in result.cut_edges)
    assert weight == pytest.approx(result.value)
    # ...and removing them disconnects the graph.
    probe = graph.copy()
    probe.remove_edges_from(result.cut_edges)
    assert not nx.is_connected(probe)


class TestExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        graph = random_connected_gnm(26, 60, seed=seed + 300, weight_high=25)
        expected = exact_min_cut_reference(graph)
        result = repro.minimum_cut(graph, seed=seed)
        assert_valid_result(graph, result, expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_cuts_found(self, seed):
        graph = planted_cut_graph(10, 12, cross_edges=3, cross_weight=2, seed=seed)
        result = repro.minimum_cut(graph, seed=seed)
        assert_valid_result(graph, result, graph.graph["planted_cut_value"])
        left, right = graph.graph["planted_partition"]
        assert result.partition[0] in (left, right)

    def test_grid(self):
        graph = grid_graph(5, 5, seed=1)
        expected = exact_min_cut_reference(graph)
        result = repro.minimum_cut(graph, seed=1)
        assert_valid_result(graph, result, expected)

    def test_cycle(self):
        """Cycle min-cut = two lightest edges... of any 2-partition into arcs."""
        graph = cycle_graph(16, seed=2)
        expected = exact_min_cut_reference(graph)
        result = repro.minimum_cut(graph, seed=2)
        assert_valid_result(graph, result, expected)

    def test_barbell(self):
        graph = barbell_graph(4, 6, seed=3)
        expected = exact_min_cut_reference(graph)
        result = repro.minimum_cut(graph, seed=3)
        assert_valid_result(graph, result, expected)

    def test_planar(self):
        graph = delaunay_planar_graph(26, seed=4)
        expected = exact_min_cut_reference(graph)
        result = repro.minimum_cut(graph, seed=4)
        assert_valid_result(graph, result, expected)

    def test_sparse_tree_like(self):
        graph = tree_plus_chords(30, 6, seed=5)
        expected = exact_min_cut_reference(graph)
        result = repro.minimum_cut(graph, seed=5)
        assert_valid_result(graph, result, expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_solver_agrees(self, seed):
        graph = random_connected_gnm(30, 75, seed=seed + 40, weight_high=15)
        expected = exact_min_cut_reference(graph)
        result = repro.minimum_cut(graph, seed=seed, solver="oracle")
        assert_valid_result(graph, result, expected)

    def test_heavy_weights_with_sampling(self):
        graph = planted_cut_graph(
            9, 9, cross_edges=4, cross_weight=500, inside_weight=4000, seed=6
        )
        result = repro.minimum_cut(graph, seed=6)
        assert result.packing.sampled
        assert_valid_result(graph, result, graph.graph["planted_cut_value"])


class TestEdgeCasesAndErrors:
    def test_two_nodes(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", weight=7)
        result = repro.minimum_cut(graph)
        assert result.value == 7
        assert result.cut_edges == [("a", "b")]

    def test_single_node_rejected(self):
        graph = nx.Graph()
        graph.add_node(0)
        with pytest.raises(ValueError):
            repro.minimum_cut(graph)

    def test_disconnected_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_node(2)
        with pytest.raises(ValueError):
            repro.minimum_cut(graph)

    def test_unknown_solver_rejected(self):
        graph = random_connected_gnm(8, 14, seed=1)
        with pytest.raises(ValueError):
            repro.minimum_cut(graph, solver="quantum")

    def test_triangle(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=3)
        graph.add_edge(1, 2, weight=4)
        graph.add_edge(0, 2, weight=5)
        result = repro.minimum_cut(graph)
        assert result.value == 7  # isolate node 0: 3 + 5 = 8; node 1: 3+4=7

    def test_bridge_graph(self):
        """A weight-1 bridge between two triangles is the min cut."""
        graph = nx.Graph()
        for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            graph.add_edge(u, v, weight=10)
        graph.add_edge(2, 3, weight=1)
        result = repro.minimum_cut(graph)
        assert result.value == 1
        assert result.cut_edges == [(2, 3)]


class TestReporting:
    def test_rounds_and_estimates_populated(self):
        graph = random_connected_gnm(20, 45, seed=9)
        acct = RoundAccountant()
        result = repro.minimum_cut(graph, seed=9, accountant=acct)
        assert result.ma_rounds == acct.total > 0
        assert result.congest is not None
        assert result.congest.general > result.ma_rounds
        assert result.congest.ma_rounds == result.ma_rounds

    def test_congest_computation_optional(self):
        graph = random_connected_gnm(16, 35, seed=10)
        result = repro.minimum_cut(graph, seed=10, compute_congest=False)
        assert result.congest is None

    def test_stats_structure(self):
        graph = random_connected_gnm(18, 40, seed=11)
        result = repro.minimum_cut(graph, seed=11)
        assert result.stats["trees"] == len(result.packing.trees)
        assert "general_solver" in result.stats
        assert result.stats["general_solver"]["max_depth"] >= 0

    def test_general_solver_stats_cover_every_tree(self, monkeypatch):
        """``stats["general_solver"]`` describes the whole solve: instances
        summed over every packed tree's recursion, depth and virtual nodes
        as maxima (not the last tree's recursion alone)."""
        from repro.core import general
        from repro.graphs import CSR_FAMILY_BUILDERS

        per_tree = []
        solve = general.two_respecting_min_cut

        def spy(*args, **kwargs):
            result = solve(*args, **kwargs)
            per_tree.append(result.stats)
            return result

        monkeypatch.setattr(general, "two_respecting_min_cut", spy)
        result = repro.MinCutSolver(
            repro.SolverConfig(solver="minor-aggregation")
        ).solve(CSR_FAMILY_BUILDERS["gnm"](24, 1), seed=1)
        assert len(per_tree) == result.stats["trees"] > 1
        assert result.stats["general_solver"] == {
            "instances": sum(s.instances for s in per_tree),
            "max_depth": max(s.max_depth for s in per_tree),
            "max_virtual_nodes": max(s.max_virtual_nodes for s in per_tree),
        }
        assert result.stats["general_solver"]["instances"] > max(
            s.instances for s in per_tree
        )

    def test_best_tree_index_valid(self):
        graph = random_connected_gnm(18, 40, seed=12)
        result = repro.minimum_cut(graph, seed=12)
        assert 0 <= result.best_tree_index < len(result.packing.trees)

    def test_respecting_edges_are_tree_edges(self):
        graph = random_connected_gnm(18, 40, seed=13)
        result = repro.minimum_cut(graph, seed=13)
        tree = result.packing.trees[result.best_tree_index]
        tree_edges = {frozenset(edge) for edge in tree}
        for u, v in result.respecting_edges:
            assert frozenset((u, v)) in tree_edges

    def test_candidate_kind(self):
        graph = random_connected_gnm(18, 40, seed=14)
        result = repro.minimum_cut(graph, seed=14)
        assert result.candidate.kind in ("1-respecting", "2-respecting")
