"""Tree packing (Theorem 12): spanning trees, the 2-respecting property,
sampling regime, and round charging."""

import random
import warnings

import networkx as nx
import numpy as np
import pytest

import repro
from repro.accounting import RoundAccountant
from repro.baselines import stoer_wagner_min_cut
from repro.baselines.stoer_wagner import csr_stoer_wagner
from repro.core.tree_packing import (
    _sample_multiplicities_csr,
    default_tree_count,
    pack_trees,
)
from repro.graphs import (
    CSR_FAMILY_BUILDERS,
    grid_graph,
    planted_cut_graph,
    random_connected_gnm,
)
from repro.graphs.csr import CSRGraph


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


class TestHugeMultiplicities:
    """Weights of 2**63 or more do not fit the binomial sampler's int64
    count: they are sampled without the cast, warning-free."""

    @staticmethod
    def _scaled_corpus():
        return [
            (CSR_FAMILY_BUILDERS[family](64, seed), seed)
            for family in sorted(CSR_FAMILY_BUILDERS)
            for seed in (1, 2, 3)
        ]

    def test_scaled_weights_solve_exactly_without_warnings(self):
        config = repro.SolverConfig(solver="oracle", compute_congest=False)
        for graph, seed in self._scaled_corpus():
            graph = graph.with_weights(graph.edge_w * 1e17)
            assert graph.edge_w.max() >= 2.0 ** 63
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = repro.MinCutSolver(config).solve(graph, seed=seed)
            assert result.packing.sampled
            assert result.value == csr_stoer_wagner(graph)[0]

    def test_huge_edge_stays_in_the_sample(self):
        graph = CSRGraph(3, [0, 1, 0], [1, 2, 2], [2.0 ** 64, 40.0, 7.0])
        sample = _sample_multiplicities_csr(
            graph, 2.0 ** -60, random.Random(1)
        )
        assert sample.edge_u.tolist() == [0]
        assert sample.edge_v.tolist() == [1]
        assert sample.edge_w.tolist() == [16.0]

    def test_other_edges_draw_as_without_the_huge_one(self):
        base = CSR_FAMILY_BUILDERS["gnm"](40, 2)
        weights = base.edge_w * 1000
        weights[5] = 2.0 ** 70
        graph = base.with_weights(weights)
        rest = np.ones(graph.m, dtype=bool)
        rest[5] = False
        without = CSRGraph(
            graph.n, graph.edge_u[rest], graph.edge_v[rest], weights[rest]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = _sample_multiplicities_csr(graph, 0.01, random.Random(4))
        reference = _sample_multiplicities_csr(without, 0.01, random.Random(4))
        huge = (sample.edge_u == graph.edge_u[5]) & (
            sample.edge_v == graph.edge_v[5]
        )
        assert sample.edge_w[huge].tolist() == [np.rint(2.0 ** 70 * 0.01)]
        assert np.array_equal(sample.edge_u[~huge], reference.edge_u)
        assert np.array_equal(sample.edge_v[~huge], reference.edge_v)
        assert sample.edge_w[~huge].tobytes() == reference.edge_w.tobytes()


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


class _Grouped:
    """A label whose sort key ``(type name, str)`` is shared by every
    fifth label, so ``edge_key`` meets equal keys."""

    def __init__(self, index):
        self.index = index

    def __str__(self):
        return f"g{self.index % 5}"

    def __repr__(self):
        return f"G({self.index})"


class TestEdgeRanks:
    """The packing's label-space edge ranks (Boruvka tie-break and tree
    insertion order), built from one ``repr`` and one sort key per node,
    against the per-edge ``edge_key`` / ``str(pair)`` definition."""

    @staticmethod
    def _per_edge(labels, eu, ev):
        import numpy as np

        from repro.trees.rooted import _node_sort_key, edge_key

        pairs = [edge_key(labels[u], labels[v]) for u, v in zip(eu.tolist(), ev.tolist())]
        strings = np.array([str(pair) for pair in pairs], dtype=np.str_)
        str_rank = np.empty(len(pairs), dtype=np.int64)
        str_rank[np.argsort(strings)] = np.arange(len(pairs))
        order = sorted(
            range(len(pairs)),
            key=lambda e: (_node_sort_key(pairs[e][0]), _node_sort_key(pairs[e][1])),
        )
        canon_rank = np.empty(len(pairs), dtype=np.int64)
        canon_rank[order] = np.arange(len(pairs))
        return str_rank, canon_rank

    @pytest.mark.parametrize(
        "labelling", ["index", "strings", "mixed types", "tuples", "equal keys"]
    )
    @pytest.mark.parametrize(
        "n", [9, 10, 11, 24, 99, 100, 101, 256, 999, 1001]
    )
    def test_matches_per_edge_keys(self, labelling, n):
        import numpy as np

        from repro.core.tree_packing import _edge_ranks
        from repro.graphs import CSR_FAMILY_BUILDERS

        for family in sorted(CSR_FAMILY_BUILDERS):
            graph = CSR_FAMILY_BUILDERS[family](n, 2)
            count = graph.n
            labels = {
                "index": list(range(count)),
                "strings": [f"n{(37 * i) % count}" for i in range(count)],
                "mixed types": [
                    i if i % 3 == 0 else f"s{i}" if i % 3 == 1 else i + 0.5
                    for i in range(count)
                ],
                "tuples": [(i % 7, f"x'{i}") for i in range(count)],
                "equal keys": [_Grouped(i) for i in range(count)],
            }[labelling]
            # Index labels are an unlabelled graph's (``nodes is None``).
            nodes = None if labelling == "index" else labels
            got = _edge_ranks(nodes, graph.edge_u, graph.edge_v)
            want = self._per_edge(labels, graph.edge_u, graph.edge_v)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), family
