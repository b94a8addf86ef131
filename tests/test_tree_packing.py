"""Tree packing (Theorem 12): spanning trees, the 2-respecting property,
sampling regime, and round charging."""

import math
import random
import warnings

import networkx as nx
import numpy as np
import pytest

import repro
from repro.accounting import CostModel, RoundAccountant
from repro.baselines import stoer_wagner_min_cut
from repro.baselines.stoer_wagner import csr_stoer_wagner
from repro.core import tree_packing
from repro.core.tree_packing import (
    _sample_multiplicities_csr,
    default_tree_count,
    pack_trees,
    pack_trees_many,
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


def _relabelled(graph, labels):
    return CSRGraph(graph.n, graph.edge_u, graph.edge_v, graph.edge_w, nodes=labels)


def _parity_batch():
    """Index-labelled, string-labelled, non-contiguously integer-labelled,
    mixed-type-labelled, sampled and duplicate-prone graphs, each with
    its seed."""
    gnm = CSR_FAMILY_BUILDERS["gnm"](30, 4)
    grid = CSR_FAMILY_BUILDERS["grid"](25, 2)
    heavy = CSR_FAMILY_BUILDERS["expander"](28, 5)
    graphs = [
        gnm,
        CSR_FAMILY_BUILDERS["delaunay"](40, 1),
        _relabelled(grid, [f"v{(11 * v) % grid.n}" for v in range(grid.n)]),
        _relabelled(gnm, [(7 * v) % 1000 + 3 for v in range(gnm.n)]),
        heavy.with_weights(heavy.edge_w * 5000),
        CSR_FAMILY_BUILDERS["cycle"](24, 3),
        CSR_FAMILY_BUILDERS["tree-chords"](24, 3),
        _relabelled(
            CSR_FAMILY_BUILDERS["cycle"](33, 2),
            [f"c{(5 * v) % 33}" for v in range(33)],
        ),
        CSR_FAMILY_BUILDERS["barbell"](36, 6),
        # Mixed types: ``str(edge_key)`` order is not the canonical order.
        _relabelled(
            CSR_FAMILY_BUILDERS["tree-chords"](30, 4),
            [v if v % 3 else f"s{v}" for v in range(30)],
        ),
    ]
    return graphs, [3 * g + 1 for g in range(len(graphs))]


def _accountant():
    accountant = RoundAccountant(CostModel(scale=0.1))
    accountant.charge(3, "prior")
    return accountant


def _assert_canonical(packing):
    """Each tree lists its edges in canonical order: by the sort keys of
    their ``edge_key`` ends, in label space."""
    from repro.trees.rooted import _node_sort_key, edge_key

    for tree in packing.trees:
        keys = [tuple(map(_node_sort_key, edge_key(u, v))) for u, v in tree]
        assert keys == sorted(keys)


def _packing_bytes(packing):
    return [
        (eu.tobytes(), eu.dtype, ev.tobytes(), ev.dtype)
        for eu, ev in packing.tree_edge_arrays
    ]


class TestBatchParity:
    """A mixed batch packs every graph exactly as ``pack_trees`` packs it
    alone: trees (bytes and dtype), dedup, regime and the whole ledger,
    on a scaled cost model over a prior charge."""

    @staticmethod
    def _assert_alone(graphs, seeds, many, num_trees=None, approx=None):
        approx = approx or [None] * len(graphs)
        for graph, seed, packing, acct, cut in zip(
            graphs, seeds, many.packings, many.accountants, approx
        ):
            alone_acct = _accountant()
            alone = pack_trees(
                graph, seed=seed, num_trees=num_trees,
                accountant=alone_acct, approx_cut_value=cut,
            )
            assert _packing_bytes(packing) == _packing_bytes(alone)
            assert packing.duplicates_removed == alone.duplicates_removed
            assert packing.sampled == alone.sampled
            assert packing.sampling_probability == alone.sampling_probability
            assert packing.ma_rounds == alone.ma_rounds
            assert acct.by_label() == alone_acct.by_label()
            assert acct.total == alone_acct.total

    @pytest.mark.parametrize("num_trees", [None, 5])
    def test_mixed_batch_matches_each_graph_alone(self, num_trees):
        graphs, seeds = _parity_batch()
        many = pack_trees_many(
            graphs, seeds, num_trees=num_trees,
            accountants=[_accountant() for _ in graphs],
        )
        packings = many.packings
        assert packings[4].sampled
        assert any(p.nodes is not None for p in packings)
        if num_trees is None:
            assert packings[5].duplicates_removed > 0
        else:
            assert all(len(p.tree_edge_arrays) <= 5 for p in packings)
        for packing in packings:
            _assert_canonical(packing)
        self._assert_alone(graphs, seeds, many, num_trees)

    def test_boruvka_charges_follow_each_iteration(self):
        """``packing:boruvka`` is charged one iteration at a time (under
        ``scale=0.1`` a graph's summed phases round differently)."""
        graphs, seeds = _parity_batch()
        calls = []
        kernel = tree_packing.compiled_boruvka_rows

        def spy(*args):
            rows, phases = kernel(*args)
            calls.append((list(args[5]), phases.tolist()))
            return rows, phases

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_packing, "compiled_boruvka_rows", spy)
            many = pack_trees_many(
                graphs, seeds, accountants=[_accountant() for _ in graphs]
            )
        for g, acct in enumerate(many.accountants):
            reference = _accountant()
            for caps, phases in calls:
                if caps[g]:
                    reference.charge(phases[g], "packing:boruvka")
            assert (
                acct.by_label()["packing:boruvka"]
                == reference.by_label()["packing:boruvka"]
            )

    def test_fingerprint_collisions_keep_exact_dedup(self, monkeypatch):
        """With every fingerprint equal, each tree is compared row by row
        and the packings stay the same."""
        graphs, seeds = _parity_batch()
        want = pack_trees_many(graphs, seeds)
        monkeypatch.setattr(
            tree_packing, "_row_hash",
            lambda rows: np.zeros(len(rows), dtype=np.uint64),
        )
        got = pack_trees_many(graphs, seeds)
        for a, b in zip(got.packings, want.packings):
            assert _packing_bytes(a) == _packing_bytes(b)
            assert a.duplicates_removed == b.duplicates_removed

    def test_disconnected_first_samples_retry_alone(self):
        """A given λ far above the real one makes the first samples
        disconnected: those graphs draw again from their own streams, and
        each packing equals its graph's alone."""
        graphs = [
            CSR_FAMILY_BUILDERS[family](30, 2)
            for family in ("gnm", "grid", "cycle", "expander")
        ]
        # Unit multiplicities; the sixth draw (probability 1) is the graph.
        graphs[:3] = [g.with_weights(np.ones(g.m)) for g in graphs[:3]]
        seeds = [5, 6, 7, 8]
        approx = [2000.0, 2000.0, 2000.0, None]
        first = 24.0 * math.log(30) / 2000.0
        many = pack_trees_many(
            graphs, seeds, approx_cut_values=approx,
            accountants=[_accountant() for _ in graphs],
        )
        assert all(p.sampled for p in many.packings[:3])
        assert all(p.sampling_probability > first for p in many.packings[:3])
        self._assert_alone(graphs, seeds, many, approx=approx)
