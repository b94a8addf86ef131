"""CSR graph subsystem: canonical form, conversions, persistence, and the
seeded equivalence of the CSR pipeline against the networkx reference path.

The headline contract: for every CLI family and seed, ``minimum_cut`` on
the CSR-direct graph returns *bit-identical* values, witnesses, and
partitions to the networkx path -- and the CSR hot path (generator ->
packing -> batched per-tree solve -> oracle) never constructs a networkx
object.
"""

import random

import networkx as nx
import numpy as np
import pytest

import repro
from repro.core.cut_values import two_respecting_oracle
from repro.core.tree_packing import pack_trees
from repro.graphs import (
    CSR_FAMILY_BUILDERS,
    CSRGraph,
    barbell_graph,
    csr_random_connected_gnm,
    cycle_graph,
    delaunay_planar_graph,
    expander_graph,
    grid_graph,
    planted_cut_graph,
    random_connected_gnm,
    random_spanning_tree,
    tree_plus_chords,
    validate_weights,
)
from repro.errors import GraphValidationError
from repro.kernel import batched
from repro.kernel.batched import (
    OracleJob,
    batched_two_respecting_oracle,
    batched_two_respecting_oracle_many,
)
from repro.kernel.cut_kernel import GraphArrays
from repro.kernel.forest import stacked_tree_arrays
from repro.trees.rooted import RootedTree

#: networkx twins of the CLI family builders (same args as CSR_FAMILY_BUILDERS).
NX_FAMILY_BUILDERS = {
    "gnm": lambda n, s: random_connected_gnm(n, int(2.5 * n), seed=s),
    "grid": lambda n, s: grid_graph(
        max(2, int(n ** 0.5)),
        max(2, round(n / max(2, int(n ** 0.5)))),
        seed=s,
    ),
    "delaunay": lambda n, s: delaunay_planar_graph(n, seed=s),
    "cycle": lambda n, s: cycle_graph(n, seed=s),
    "expander": lambda n, s: expander_graph(n, seed=s),
    "barbell": lambda n, s: barbell_graph(max(3, n // 4), max(2, n // 2), seed=s),
    "tree-chords": lambda n, s: tree_plus_chords(n, max(2, n // 5), seed=s),
    "planted": lambda n, s: planted_cut_graph(n // 2, n - n // 2, seed=s),
}


class TestCanonicalForm:
    def test_rows_sorted_and_oriented(self):
        graph = CSRGraph(4, [3, 0, 2, 1], [1, 2, 0, 3], [5, 6, 7, 8])
        assert (graph.edge_u <= graph.edge_v).all()
        pairs = list(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
        assert pairs == sorted(pairs)

    def test_parallel_edges_merge_by_weight_sum(self):
        graph = CSRGraph(3, [0, 1, 2], [1, 0, 1], [2, 3, 4])
        assert graph.m == 2
        assert graph.edge_weight(0, 1) == 5
        assert graph.edge_weight(1, 2) == 4

    def test_self_loops_representable(self):
        graph = CSRGraph(2, [0, 0], [0, 1], [3, 7])
        assert graph.m == 2
        assert graph.has_edge(0, 0)
        assert graph.degrees().tolist() == [3, 1]  # self-loop counts twice
        assert graph.drop_self_loops().m == 1

    def test_zero_weight_edges_survive(self):
        graph = CSRGraph(3, [0, 1], [1, 2], [0, 4])
        assert graph.m == 2
        assert graph.edge_weight(0, 1) == 0


class TestCanonicalHash:
    """``canonical_hash`` is the serving tier's dedup/cache identity: equal
    for any presentation of the same weighted graph, different for any
    change in structure, weights, or labels."""

    def test_permuted_edge_order_invariant(self):
        edges = [(0, 1, 5.0), (1, 2, 3.0), (2, 3, 7.0), (3, 0, 2.0), (0, 2, 1.0)]
        reference = CSRGraph.from_edge_list(edges).canonical_hash()
        for seed in range(5):
            shuffled = edges[:]
            random.Random(seed).shuffle(shuffled)
            flipped = [
                (v, u, w) if seed % 2 else (u, v, w) for u, v, w in shuffled
            ]
            assert CSRGraph.from_edge_list(flipped).canonical_hash() == reference

    def test_weight_sensitivity(self):
        base = CSRGraph.from_edge_list([(0, 1, 5.0), (1, 2, 3.0), (2, 0, 1.0)])
        bumped = CSRGraph.from_edge_list([(0, 1, 5.0), (1, 2, 3.0), (2, 0, 1.5)])
        assert base.canonical_hash() != bumped.canonical_hash()

    def test_structure_and_size_sensitivity(self):
        path = CSRGraph.from_edge_list([(0, 1, 1.0), (1, 2, 1.0)])
        triangle = CSRGraph.from_edge_list([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        padded = CSRGraph.from_edge_list([(0, 1, 1.0), (1, 2, 1.0)], n=4)
        assert len({g.canonical_hash() for g in (path, triangle, padded)}) == 3

    def test_labels_distinguish_but_relabelings_differ(self):
        plain = CSRGraph.from_edge_list([(0, 1, 2.0), (1, 2, 4.0)])
        labelled = CSRGraph.from_edge_list([("a", "b", 2.0), ("b", "c", 4.0)])
        relabelled = CSRGraph.from_edge_list([("x", "b", 2.0), ("b", "c", 4.0)])
        hashes = {
            plain.canonical_hash(),
            labelled.canonical_hash(),
            relabelled.canonical_hash(),
        }
        assert len(hashes) == 3
        # Same labels in a different arrival order still hash equal.
        reordered = CSRGraph.from_edge_list(
            [("b", "c", 4.0), ("b", "a", 2.0)], nodes=["a", "b", "c"]
        )
        assert reordered.canonical_hash() == labelled.canonical_hash()

    @pytest.mark.parametrize("family", sorted(CSR_FAMILY_BUILDERS))
    def test_npz_round_trip_stable(self, family, tmp_path):
        graph = CSR_FAMILY_BUILDERS[family](20, 3)
        path = tmp_path / "graph.npz"
        graph.save_npz(path)
        assert CSRGraph.load_npz(path).canonical_hash() == graph.canonical_hash()

    def test_networkx_round_trip_stable(self):
        graph = CSR_FAMILY_BUILDERS["gnm"](24, 5)
        assert (
            CSRGraph.from_networkx(graph.to_networkx()).canonical_hash()
            == graph.canonical_hash()
        )

    def test_hash_is_memoized(self):
        graph = CSR_FAMILY_BUILDERS["gnm"](16, 0)
        assert graph.canonical_hash() is graph.canonical_hash()

    def test_mixed_int_and_label_endpoints_stay_distinct(self):
        graph = CSRGraph.from_edge_list([("a", 0, 2)])
        assert graph.n == 2
        assert graph.nodes == ["a", 0]
        graph = CSRGraph.from_edge_list([(0, "a", 1), ("a", 1, 1)])
        assert graph.n == 3
        assert graph.nodes == [0, "a", 1]

    def test_from_edge_list_rejects_inconsistent_n(self):
        with pytest.raises(ValueError, match="disagrees"):
            CSRGraph.from_edge_list([("a", "b", 1), ("b", "c", 1)], n=2)

    def test_adjacency_slices(self):
        graph = CSRGraph(4, [0, 0, 1], [1, 2, 3], [1, 2, 3])
        assert graph.neighbors(0).tolist() == [1, 2]
        assert graph.neighbor_weights(0).tolist() == [1.0, 2.0]
        assert graph.neighbors(3).tolist() == [1]
        assert graph.weighted_degrees().tolist() == [3.0, 4.0, 2.0, 3.0]


class TestWeightValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CSRGraph(2, [0], [1], [-1.0])

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="NaN|nan"):
            CSRGraph(2, [0], [1], [float("nan")])

    def test_inf_weight_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(2, [0], [1], [float("inf")])

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            validate_weights(["heavy"], context="test")

    def test_graph_arrays_rejects_bad_nx_weights(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=-3)
        with pytest.raises(ValueError, match="negative"):
            GraphArrays.from_graph(graph)
        graph[0][1]["weight"] = float("nan")
        with pytest.raises(ValueError):
            GraphArrays.from_graph(graph)

    def test_minimum_cut_reports_bad_weights_up_front(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=5)
        graph.add_edge(1, 2, weight=-2)
        graph.add_edge(0, 2, weight=1)
        with pytest.raises(ValueError, match="negative"):
            repro.minimum_cut(graph, seed=0, solver="oracle")


class TestNetworkxRoundTrip:
    @pytest.mark.parametrize("family", sorted(CSR_FAMILY_BUILDERS))
    def test_from_to_networkx(self, family):
        csr = CSR_FAMILY_BUILDERS[family](20, 3)
        graph = csr.to_networkx()
        back = CSRGraph.from_networkx(graph)
        assert back.n == csr.n
        assert (back.edge_u == csr.edge_u).all()
        assert (back.edge_v == csr.edge_v).all()
        assert (back.edge_w == csr.edge_w).all()

    def test_integer_weights_come_back_as_python_ints(self):
        csr = csr_random_connected_gnm(12, 20, seed=1)
        graph = csr.to_networkx()
        assert all(
            isinstance(d["weight"], int) for *_e, d in graph.edges(data=True)
        )

    def test_float_weights_preserved(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", weight=2.5)
        graph.add_edge("b", "c", weight=1)
        csr = CSRGraph.from_networkx(graph)
        assert not csr.int_weights
        out = csr.to_networkx()
        assert out["a"]["b"]["weight"] == 2.5

    def test_labelled_nodes_round_trip(self):
        graph = nx.Graph()
        graph.add_edge("x", "y", weight=2)
        graph.add_edge("y", "z", weight=3)
        csr = CSRGraph.from_networkx(graph)
        assert csr.nodes == ["x", "y", "z"]
        out = csr.to_networkx()
        assert set(out.nodes()) == {"x", "y", "z"}
        assert out["x"]["y"]["weight"] == 2

    def test_meta_round_trip(self):
        csr = CSR_FAMILY_BUILDERS["planted"](20, 0)
        graph = csr.to_networkx()
        assert graph.graph["planted_cut_value"] == csr.meta["planted_cut_value"]

    def test_self_loop_round_trip(self):
        graph = nx.Graph()
        graph.add_edge(0, 0, weight=4)
        graph.add_edge(0, 1, weight=2)
        csr = CSRGraph.from_networkx(graph)
        assert csr.m == 2
        out = csr.to_networkx()
        assert out[0][0]["weight"] == 4


class TestNpzPersistence:
    def test_round_trip_identity_labels(self, tmp_path):
        csr = csr_random_connected_gnm(18, 40, seed=5)
        path = tmp_path / "g.npz"
        csr.save_npz(path)
        loaded = CSRGraph.load_npz(path)
        assert loaded.n == csr.n
        assert (loaded.edge_u == csr.edge_u).all()
        assert (loaded.edge_w == csr.edge_w).all()
        assert loaded.nodes is None

    def test_round_trip_labels(self, tmp_path):
        csr = CSRGraph.from_edge_list([("a", "b", 3), ("b", "c", 7)])
        path = tmp_path / "labelled.npz"
        csr.save_npz(path)
        loaded = CSRGraph.load_npz(path)
        assert loaded.nodes == ["a", "b", "c"]
        assert loaded.edge_w.tolist() == [3.0, 7.0]

    def test_mincut_equal_after_round_trip(self, tmp_path):
        csr = csr_random_connected_gnm(16, 36, seed=7)
        path = tmp_path / "g.npz"
        csr.save_npz(path)
        loaded = CSRGraph.load_npz(path)
        a = repro.minimum_cut(csr, seed=1, solver="oracle", compute_congest=False)
        b = repro.minimum_cut(loaded, seed=1, solver="oracle", compute_congest=False)
        assert a.value == b.value
        assert a.partition == b.partition

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "not_a_graph.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError):
            CSRGraph.load_npz(path)

    def test_integer_labels_survive_round_trip(self, tmp_path):
        graph = nx.Graph()
        graph.add_edge(1, 2, weight=4)
        graph.add_edge(2, 3, weight=5)
        csr = CSRGraph.from_networkx(graph)  # non-identity int labels
        path = tmp_path / "ints.npz"
        csr.save_npz(path)
        loaded = CSRGraph.load_npz(path)
        assert loaded.nodes == [1, 2, 3]

    def test_mixed_label_table_rejected(self, tmp_path):
        csr = CSRGraph.from_edge_list([("a", 0, 1)])
        with pytest.raises(ValueError, match="all-int or all-str"):
            csr.save_npz(tmp_path / "mixed.npz")


class TestPrimitives:
    def test_bfs_and_connectivity(self):
        csr = csr_random_connected_gnm(25, 50, seed=2)
        graph = csr.to_networkx()
        dist = csr.bfs_levels(0)
        expected = nx.single_source_shortest_path_length(graph, 0)
        assert {i: d for i, d in enumerate(dist.tolist())} == expected
        assert csr.is_connected()
        assert csr.diameter() == nx.diameter(graph)

    def test_disconnected_detected(self):
        csr = CSRGraph(4, [0, 2], [1, 3], [1, 1])
        assert not csr.is_connected()
        labels = csr.connected_components()
        assert labels.tolist() == [0, 0, 2, 2]

    @pytest.mark.parametrize("family", sorted(CSR_FAMILY_BUILDERS))
    def test_components_match_per_start_bfs(self, family):
        """Component ids (least member index) and connectivity equal one
        BFS per unreached start, on whole graphs and on graphs split by
        dropping every third edge; isolated nodes and self-loops too."""
        rng = np.random.default_rng(3)
        for seed in (1, 2, 3):
            whole = CSR_FAMILY_BUILDERS[family](40, seed)
            keep = np.arange(whole.m) % 3 != 0
            cases = [
                whole,
                CSRGraph(whole.n, whole.edge_u[keep], whole.edge_v[keep],
                         whole.edge_w[keep]),
                CSRGraph(whole.n + 2, np.r_[whole.edge_u, whole.n + 1],
                         np.r_[whole.edge_v, whole.n + 1],
                         np.r_[whole.edge_w, 1.0]),
            ]
            perm = rng.permutation(whole.n)
            cases.append(
                CSRGraph(whole.n, perm[whole.edge_u[keep]],
                         perm[whole.edge_v[keep]], whole.edge_w[keep])
            )
            for csr in cases:
                want = np.full(csr.n, -1, dtype=np.int64)
                for start in range(csr.n):
                    if want[start] < 0:
                        want[(csr.bfs_levels(start) >= 0) & (want < 0)] = start
                assert csr.connected_components().tolist() == want.tolist()
                assert csr.is_connected() == (not want.any())

    def test_subgraph_matches_networkx(self):
        csr = csr_random_connected_gnm(20, 60, seed=4)
        keep = np.array([0, 3, 5, 7, 9, 11, 13])
        sub, mapping = csr.subgraph(keep)
        ref = csr.to_networkx().subgraph(keep.tolist())
        assert sub.m == ref.number_of_edges()
        for a, b, w in zip(sub.edge_u, sub.edge_v, sub.edge_w):
            assert ref[mapping[a]][mapping[b]]["weight"] == w

    def test_contract_merges_weights(self):
        csr = CSRGraph(4, [0, 1, 2, 0], [1, 2, 3, 3], [1, 2, 3, 4])
        quotient, dense = csr.contract(np.array([0, 0, 1, 1]))
        assert quotient.n == 2
        # (1,2)-edge of weight 2 and (0,3)-edge of weight 4 merge across.
        assert quotient.m == 1
        assert quotient.edge_weight(0, 1) == 6
        assert dense.tolist() == [0, 0, 1, 1]

    def test_degrees_match_networkx(self):
        csr = CSR_FAMILY_BUILDERS["delaunay"](30, 1)
        graph = csr.to_networkx()
        assert csr.degrees().tolist() == [graph.degree(i) for i in range(csr.n)]


def _per_source_diameter(csr: CSRGraph) -> int:
    """The diameter as the maximum eccentricity over one BFS per source
    (the independent reference for the bit-parallel sweep)."""
    best = 0
    for source in range(csr.n):
        dist = csr.bfs_levels(source)
        if (dist < 0).any():
            raise GraphValidationError("disconnected")
        best = max(best, int(dist.max()))
    return best


def _closed_form_diameter(family: str, n: int) -> int:
    """D of the ``CSR_FAMILY_BUILDERS`` cycle, grid and barbell shapes."""
    if family == "cycle":
        return n // 2
    if family == "grid":
        rows = max(2, int(n ** 0.5))
        return rows - 1 + max(2, round(n / rows)) - 1
    # barbell: one hop from a clique node onto the path, path + 1 hops
    # along it, one hop to a node of the other clique.
    return max(2, n // 2) + 3


def _all_pairs_diameter(csr: CSRGraph) -> int:
    """The diameter from scipy's unweighted all-pairs shortest paths,
    512 sources at a time."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    from scipy.sparse import csr_matrix

    adjacency = csr_matrix(
        (np.ones(len(csr.indices)), csr.indices, csr.indptr), shape=(csr.n, csr.n)
    )
    best = 0
    for first in range(0, csr.n, 512):
        dist = csgraph.shortest_path(
            adjacency, directed=False, unweighted=True,
            indices=np.arange(first, min(csr.n, first + 512)),
        )
        best = max(best, int(dist.max()))
    return best


class TestDiameter:
    @pytest.mark.parametrize("family", sorted(CSR_FAMILY_BUILDERS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [12, 64, 256])
    def test_matches_per_source_bfs(self, family, seed, n):
        csr = CSR_FAMILY_BUILDERS[family](n, seed)
        assert csr.diameter() == _per_source_diameter(csr)

    @pytest.mark.parametrize("family", ["cycle", "grid", "barbell"])
    @pytest.mark.parametrize("n", [12, 64, 256])
    def test_closed_forms_match_per_source_bfs(self, family, n):
        csr = CSR_FAMILY_BUILDERS[family](n, 1)
        assert _closed_form_diameter(family, n) == _per_source_diameter(csr)

    @pytest.mark.parametrize("family", ["cycle", "grid"])
    def test_long_diameters_at_4096(self, family):
        # D = 2048 and 126 levels: the closed form is the reference.
        csr = CSR_FAMILY_BUILDERS[family](4096, 1)
        assert csr.diameter() == _closed_form_diameter(family, 4096)

    def test_barbell_at_1024(self):
        # Two 256-cliques on a 512-node path (D = 515).  At n=4096 the
        # cliques hold about 1M edges and the diameter takes tens of
        # seconds, so the long-path-plus-cliques shape is checked here.
        csr = CSR_FAMILY_BUILDERS["barbell"](1024, 1)
        assert csr.diameter() == _closed_form_diameter("barbell", 1024)

    @pytest.mark.parametrize(
        "family", ["delaunay", "expander", "gnm", "planted", "tree-chords"]
    )
    def test_matches_all_pairs_shortest_paths_at_4096(self, family):
        csr = CSR_FAMILY_BUILDERS[family](4096, 1)
        assert csr.diameter() == _all_pairs_diameter(csr)

    def test_blocks_of_one_word(self, monkeypatch):
        # A budget below one word per slot runs 64 sources per block.
        from repro.graphs import csr as csr_module

        monkeypatch.setattr(csr_module, "DIAMETER_GATHER_BYTES", 1)
        for family in ("grid", "barbell", "delaunay"):
            csr = CSR_FAMILY_BUILDERS[family](200, 4)
            assert csr.n > 128
            assert csr.diameter() == _per_source_diameter(csr)

    def test_tiny_graphs(self):
        assert CSRGraph(1, [], []).diameter() == 0
        assert CSRGraph(2, [0], [1], [3.0]).diameter() == 1
        # A self-loop is no hop.
        assert CSRGraph(2, [0, 0], [0, 1]).diameter() == 1

    @pytest.mark.parametrize(
        "graph",
        [
            CSRGraph(2, [], []),
            CSRGraph(4, [0, 2], [1, 3]),  # two edges, no isolated node
            CSRGraph(5, [0, 1, 2], [1, 2, 3]),  # one isolated node
            # Two paths spanning three words, no isolated node.
            CSRGraph(
                130,
                list(range(64)) + list(range(65, 129)),
                list(range(1, 65)) + list(range(66, 130)),
            ),
        ],
    )
    def test_disconnected_raises(self, graph):
        with pytest.raises(GraphValidationError, match="disconnected"):
            graph.diameter()

    def test_computed_once_per_graph(self, monkeypatch):
        csr = CSR_FAMILY_BUILDERS["grid"](36, 1)
        calls = []
        original = CSRGraph._bit_parallel_diameter

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(CSRGraph, "_bit_parallel_diameter", counted)
        first = repro.minimum_cut(csr, seed=0, solver="oracle")
        second = repro.minimum_cut(csr, seed=1, solver="oracle")
        assert first.congest.diameter == second.congest.diameter == 10
        assert len(calls) == 1


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("family", sorted(CSR_FAMILY_BUILDERS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_weighted_graph(self, family, seed):
        csr = CSR_FAMILY_BUILDERS[family](24, seed)
        graph = NX_FAMILY_BUILDERS[family](24, seed)
        expected = sorted((u, v, d["weight"]) for u, v, d in graph.edges(data=True))
        actual = sorted(
            (int(u), int(v), int(w))
            for u, v, w in zip(csr.edge_u, csr.edge_v, csr.edge_w)
        )
        assert actual == expected

    def test_random_spanning_tree_csr(self):
        csr = csr_random_connected_gnm(20, 50, seed=6)
        tree = random_spanning_tree(csr, seed=3)
        assert isinstance(tree, CSRGraph)
        assert tree.m == csr.n - 1
        assert tree.is_connected()
        # Every tree edge is a graph edge with the graph's weight.
        for u, v, w in zip(tree.edge_u, tree.edge_v, tree.edge_w):
            assert csr.edge_weight(int(u), int(v)) == w


class TestPackingEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_identical_trees_both_paths(self, seed):
        csr = csr_random_connected_gnm(22, 55, seed=seed)
        graph = csr.to_networkx()
        pc = pack_trees(csr, seed=seed)
        pn = pack_trees(graph, seed=seed)
        assert pc.sampled == pn.sampled
        assert pc.sampling_probability == pn.sampling_probability
        assert pc.approx_cut_value == pn.approx_cut_value
        assert pc.ma_rounds == pn.ma_rounds
        assert len(pc.trees) == len(pn.trees)
        assert pc.trees == pn.trees
        for (eu, ev), (eu_n, ev_n) in zip(
            pc.tree_edge_arrays, pn.tree_edge_arrays
        ):
            assert eu.tolist() == eu_n.tolist() and ev.tolist() == ev_n.tolist()

    @pytest.mark.parametrize("case", [
        "edges-shuffled-0", "edges-shuffled-1", "nodes-shuffled-2",
        "nodes-shuffled-3", "nodes-shuffled-4", "string-labels-5",
    ])
    def test_sampled_regime_nx_matches_csr_conversion(self, case):
        # Heavy weights push the packing into the sampling regime, where
        # the binomial draws follow the edge order: a networkx graph whose
        # insertion order is not canonical must still pack (and solve)
        # exactly like its CSR conversion.
        kind, seed = case.rsplit("-", 1)
        seed = int(seed)
        graph = _heavy_nx_graph(kind, seed)
        csr = CSRGraph.from_networkx(graph)
        a_nx, a_csr = repro.RoundAccountant(), repro.RoundAccountant()
        pn = pack_trees(graph, seed=seed, accountant=a_nx)
        pc = pack_trees(csr, seed=seed, accountant=a_csr)
        assert pn.sampled and pc.sampled
        assert pn.sampling_probability == pc.sampling_probability
        assert pn.approx_cut_value == pc.approx_cut_value
        assert pn.duplicates_removed == pc.duplicates_removed
        assert a_nx.snapshot() == a_csr.snapshot()
        labels = csr.node_labels()
        assert len(pn.trees) == len(pc.trees)
        for tree, (eu, ev), (eu_n, ev_n) in zip(
            pn.trees, pc.tree_edge_arrays, pn.tree_edge_arrays
        ):
            assert eu.tolist() == eu_n.tolist() and ev.tolist() == ev_n.tolist()
            assert {frozenset(e) for e in tree} == {
                frozenset((labels[u], labels[v]))
                for u, v in zip(eu.tolist(), ev.tolist())
            }
        for solver in ("oracle", "minor-aggregation"):
            rn = repro.minimum_cut(graph, seed=seed, solver=solver)
            rc = repro.minimum_cut(csr, seed=seed, solver=solver)
            assert rn.value == rc.value
            assert rn.partition == rc.partition
            assert rn.best_tree_index == rc.best_tree_index
            assert rn.candidate.edges == rc.candidate.edges
            assert set(rn.cut_edges) == set(rc.cut_edges)
            assert rn.stats["accountant"] == rc.stats["accountant"]
            assert rn.ma_rounds == rc.ma_rounds


def _heavy_nx_graph(kind: str, seed: int) -> nx.Graph:
    """A connected n=16 gnm graph with weights 50-400, rebuilt with a
    non-canonical networkx insertion order (or string labels)."""
    rng = random.Random(seed)
    base = random_connected_gnm(16, 40, seed=seed)
    edges = [(u, v, rng.randint(50, 400)) for u, v in base.edges()]
    nodes = list(base.nodes())
    rng.shuffle(edges)
    if kind == "nodes-shuffled":
        rng.shuffle(nodes)
    elif kind == "string-labels":
        rng.shuffle(nodes)
        nodes = [f"v{x}" for x in nodes]
        edges = [(f"v{u}", f"v{v}", w) for u, v, w in edges]
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_weighted_edges_from(edges)
    return graph


class TestMinimumCutEquivalence:
    """The acceptance bar: bit-identical results on every CLI family."""

    @pytest.mark.parametrize("family", sorted(CSR_FAMILY_BUILDERS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_oracle_solver_bit_identical(self, family, seed):
        csr = CSR_FAMILY_BUILDERS[family](24, seed)
        graph = NX_FAMILY_BUILDERS[family](24, seed)
        a = repro.minimum_cut(csr, seed=seed, solver="oracle", compute_congest=False)
        b = repro.minimum_cut(graph, seed=seed, solver="oracle", compute_congest=False)
        assert a.value == b.value
        assert a.partition == b.partition
        assert a.cut_edges == b.cut_edges
        assert a.best_tree_index == b.best_tree_index
        assert a.candidate.edges == b.candidate.edges

    @pytest.mark.parametrize("family", ["gnm", "planted", "cycle"])
    def test_minor_aggregation_solver_bit_identical(self, family):
        csr = CSR_FAMILY_BUILDERS[family](20, 2)
        graph = NX_FAMILY_BUILDERS[family](20, 2)
        a = repro.minimum_cut(csr, seed=2, compute_congest=False)
        b = repro.minimum_cut(graph, seed=2, compute_congest=False)
        assert a.value == b.value
        assert a.partition == b.partition
        assert a.cut_edges == b.cut_edges
        assert a.ma_rounds == b.ma_rounds

    def test_no_networkx_constructed_on_hot_path(self, monkeypatch):
        from repro.core import session

        csr = csr_random_connected_gnm(26, 60, seed=9)
        nx_inputs = [
            csr.to_networkx(),
            _heavy_nx_graph("string-labels", 9),
        ]
        conversions = []
        from_networkx = CSRGraph.from_networkx.__func__

        def counted(cls, graph):
            conversions.append(graph)
            return from_networkx(cls, graph)

        monkeypatch.setattr(CSRGraph, "from_networkx", classmethod(counted))

        def forbidden(self, *args, **kwargs):
            raise AssertionError("networkx.Graph constructed on the CSR hot path")

        with monkeypatch.context() as guard:
            guard.setattr(nx.Graph, "__init__", forbidden)
            result = repro.minimum_cut(
                csr, seed=9, solver="oracle", compute_congest=True
            )
            assert result.value > 0
            # A networkx input converts once per solve, and neither
            # oracle nor stoer-wagner builds a networkx graph after it.
            for graph in nx_inputs:
                for solver in ("oracle", "stoer-wagner"):
                    conversions.clear()
                    repro.minimum_cut(graph, seed=9, solver=solver)
                    assert conversions == [graph]
            # ... and once per graph in a sweep, certify step included.
            conversions.clear()
            sweep = repro.minimum_cut_many(
                nx_inputs, solver="oracle", seeds=[9, 9], certify=True
            )
            assert all(result.stats["certificate"]["ok"] for result in sweep)
            assert len(conversions) == len(nx_inputs)

        # A labelled CSR graph runs minor-aggregation on label-space views
        # of its own arrays: no networkx round trip, one packing.
        base = csr_random_connected_gnm(14, 30, seed=4)
        labelled = CSRGraph(
            base.n, base.edge_u, base.edge_v, base.edge_w,
            nodes=[f"v{i}" for i in range(base.n)],
        )
        packs = []
        pack_trees = session.pack_trees

        def counted_pack(*args, **kwargs):
            packs.append(args)
            return pack_trees(*args, **kwargs)

        monkeypatch.setattr(session, "pack_trees", counted_pack)
        monkeypatch.setattr(CSRGraph, "to_networkx", forbidden)
        result = repro.minimum_cut(labelled, seed=4, solver="minor-aggregation")
        assert len(packs) == 1
        assert result.partition[0] | result.partition[1] == set(labelled.nodes)

    def test_labelled_csr_witnesses_in_label_space(self):
        csr = CSRGraph.from_edge_list(
            [("a", "b", 5), ("b", "c", 1), ("c", "a", 2), ("c", "d", 1), ("d", "b", 1)]
        )
        result = repro.minimum_cut(csr, seed=0, solver="oracle", compute_congest=False)
        side_a, side_b = result.partition
        assert side_a | side_b == {"a", "b", "c", "d"}
        for u, v in result.cut_edges:
            assert {u, v} <= {"a", "b", "c", "d"}
        expected, _ = nx.stoer_wagner(csr.to_networkx())
        assert result.value == expected

    def test_congest_estimates_from_csr_diameter(self):
        csr = CSR_FAMILY_BUILDERS["cycle"](16, 0)
        result = repro.minimum_cut(csr, seed=0, solver="oracle")
        ref = repro.minimum_cut(csr.to_networkx(), seed=0, solver="oracle")
        assert result.congest.general == ref.congest.general
        assert result.congest.excluded_minor == ref.congest.excluded_minor


def _stacked_forest(graph, trees, root=0):
    """Stack networkx spanning trees of ``graph`` in their edge insertion
    order; returns the stack and the matching per-tree RootedTrees."""
    n = graph.number_of_nodes()
    position = {v: i for i, v in enumerate(graph.nodes())}
    rooted, edge_u, edge_v = [], [], []
    for tree in trees:
        edges = list(tree.edges())
        ordered = nx.Graph()
        ordered.add_nodes_from(graph.nodes())
        ordered.add_edges_from(edges)  # adjacency follows insertion order
        rooted.append(RootedTree(ordered, root))
        edge_u.append([position[u] for u, _v in edges])
        edge_v.append([position[v] for _u, v in edges])
    (stack,) = stacked_tree_arrays(
        [n],
        [[
            (np.array(eu, dtype=np.int64), np.array(ev, dtype=np.int64))
            for eu, ev in zip(edge_u, edge_v)
        ]],
        [position[root]],
    )
    return stack, rooted


class TestBatchedSolver:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_tree_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(8, 40)
        graph = random_connected_gnm(n, rng.randint(n, 3 * n), seed=seed + 77)
        arrays = GraphArrays.from_graph(graph)
        stack, trees = _stacked_forest(
            graph,
            [random_spanning_tree(graph, seed=seed * 10 + k) for k in range(5)],
        )
        batched = batched_two_respecting_oracle(arrays, stack)
        for tree, candidate in zip(trees, batched):
            reference = two_respecting_oracle(graph, tree, arrays=arrays)
            assert candidate.value == reference.value
            assert candidate.edges == reference.edges

    def test_chunking_preserves_results(self, monkeypatch):
        graph = random_connected_gnm(18, 40, seed=13)
        arrays = GraphArrays.from_graph(graph)
        stack, _trees = _stacked_forest(
            graph, [random_spanning_tree(graph, seed=k) for k in range(6)]
        )
        full = batched_two_respecting_oracle(arrays, stack)
        monkeypatch.setenv("REPRO_BATCH_BYTES", "1")  # forces chunk size 1
        chunked = batched_two_respecting_oracle(arrays, stack)
        assert [c.value for c in full] == [c.value for c in chunked]
        assert [c.edges for c in full] == [c.edges for c in chunked]

    def test_empty_tree_list(self):
        graph = random_connected_gnm(6, 9, seed=1)
        stack, _trees = _stacked_forest(graph, [])
        assert batched_two_respecting_oracle(GraphArrays.from_graph(graph), stack) == []


def _float_arrays(graph, rng):
    """Edge arrays of ``graph`` with weights spread over 1e-9..1e9, ~10%
    zero weights, and parallel edges (arrays keep them; a networkx graph
    cannot): up to three extra copies per edge in random orientation, so
    prefix cells sum several deposits of both orientations, where the
    summation order shows in the low bits."""

    def weight():
        return 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-9, 9)

    edges = []
    for u, v in graph.edges():
        edges.append((u, v, weight()))
        for _copy in range(rng.choice((0, 0, 1, 2, 3))):
            a, b = (u, v) if rng.random() < 0.5 else (v, u)
            edges.append((a, b, weight()))
    return GraphArrays.from_edges(list(graph.nodes()), edges)


class TestBatchedFloatParity:
    """The stacked oracle matches the per-tree oracle to the last bit on
    float weights, not only on the integer weights of the families."""

    @pytest.mark.parametrize("chunk", ["default", "1"])
    @pytest.mark.parametrize("n,seed", [(8, 0), (33, 1), (64, 2), (128, 3)])
    def test_float_weights_match_per_tree_oracle(
        self, monkeypatch, chunk, n, seed
    ):
        if chunk == "default":
            monkeypatch.delenv("REPRO_BATCH_BYTES", raising=False)
        else:
            monkeypatch.setenv("REPRO_BATCH_BYTES", "1")  # 1-tree chunks
        rng = random.Random(seed)
        graph = random_connected_gnm(n, 3 * n, seed=seed + 500)
        arrays = _float_arrays(graph, rng)
        stack, trees = _stacked_forest(
            graph,
            [random_spanning_tree(graph, seed=seed * 10 + k) for k in range(5)],
        )
        batched_candidates = batched_two_respecting_oracle(arrays, stack)
        assert len(batched_candidates) == len(trees)
        for tree, candidate in zip(trees, batched_candidates):
            reference = two_respecting_oracle(graph, tree, arrays=arrays)
            assert candidate.value.hex() == reference.value.hex()
            assert candidate.edges == reference.edges


class TestOracleMany:
    """``batched_two_respecting_oracle_many`` fuses jobs without letting
    trees of different jobs (or chunk boundaries) change any result."""

    @staticmethod
    def _job(n, trees, seed):
        graph = random_connected_gnm(n, 2 * n, seed=seed)
        stack, _trees = _stacked_forest(
            graph,
            [random_spanning_tree(graph, seed=seed * 10 + k) for k in range(trees)],
        )
        arrays = _float_arrays(graph, random.Random(seed))
        return OracleJob.from_arrays(arrays, stack.tin, stack.tout, stack.pos)

    def test_fused_jobs_match_solo_solves(self, monkeypatch):
        jobs = [self._job(20, 5, 1), self._job(30, 3, 2), self._job(20, 1, 3)]
        solo = [batched_two_respecting_oracle_many([job])[0] for job in jobs]

        chunks = []
        solve = batched._solve_stacked

        def spy(tin, *rest):
            chunks.append(tin.shape)
            return solve(tin, *rest)

        monkeypatch.setattr(batched, "_solve_stacked", spy)
        budget = 3 * batched._BYTES_PER_CELL * 21 * 21  # three n=20 trees
        fused = batched_two_respecting_oracle_many(jobs, batch_bytes=budget)
        # n=20: job 0's trees 0-2, then its trees 3-4 with job 2's one
        # tree; n=30 fits one tree per chunk.
        assert chunks == [(3, 20), (3, 20), (1, 30), (1, 30), (1, 30)]
        assert len(fused) == len(jobs)
        for job, (values, flat), (solo_values, solo_flat) in zip(
            jobs, fused, solo
        ):
            assert len(values) == len(flat) == job.trees
            assert values.tobytes() == solo_values.tobytes()
            assert flat.tolist() == solo_flat.tolist()


class TestEnginesOnCSR:
    def test_congest_network_from_indptr(self):
        from repro.congest.network import CongestNetwork

        csr = csr_random_connected_gnm(12, 25, seed=3)
        net_csr = CongestNetwork(csr)
        net_nx = CongestNetwork(csr.to_networkx())
        assert net_csr.n == net_nx.n
        assert net_csr._neighbors == net_nx._neighbors

    def test_ma_engine_broadcast_on_csr(self):
        from repro.ma.engine import MinorAggregationEngine
        from repro.ma.operators import SUM

        csr = csr_random_connected_gnm(10, 20, seed=4)
        engine = MinorAggregationEngine(csr)
        total = engine.broadcast({v: v for v in range(10)}, SUM)
        assert total == sum(range(10))

    def test_boruvka_on_csr_engine_matches_networkx(self):
        from repro.accounting import RoundAccountant
        from repro.ma.boruvka import boruvka_mst
        from repro.ma.engine import MinorAggregationEngine

        csr = csr_random_connected_gnm(14, 30, seed=5)
        mst_csr = boruvka_mst(MinorAggregationEngine(csr, RoundAccountant()))
        mst_nx = boruvka_mst(
            MinorAggregationEngine(csr.to_networkx(), RoundAccountant())
        )
        assert mst_csr == mst_nx
