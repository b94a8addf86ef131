"""The leaf batch of the Theorem 40 recursion (``repro.core.leaves``).

Each leaf kind -- a Lemma 43 base case and a Lemma 21 path-to-path scan --
is checked against brute-force component cuts: remove the two tree edges,
take the component touching both, and sum the graph edges leaving it.
A batch holding many leaves of mixed sizes must give every leaf the
value bits and edges it gets in a batch of its own, and the standalone
entry points (which evaluate a private batch) must agree with the shared
batch a ``minor-aggregation`` solve uses.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import numpy as np
import pytest

from repro.accounting import RoundAccountant
from repro.core.cut_values import CutCandidate, best_candidate, cover_values
from repro.core.edge_table import edge_table
from repro.core.general import two_respecting_min_cut
from repro.core.leaves import LeafBatch, _first_minima, join
from repro.core.path_to_path import PathInstance, PathToPathSolver
from repro.core.star import StarInstance, StarPath, solve_star
from repro.core.subtree_instance import SubtreeInstance, solve_subtree_instance
from repro.graphs import CSR_FAMILY_BUILDERS
from repro.core.session import MinCutSolver, SolverConfig
from repro.trees.rooted import RootedTree, edge_key


# ----------------------------------------------------------------------
# Brute force
# ----------------------------------------------------------------------
def component_cut(graph: nx.Graph, tree: nx.Graph, e, f) -> float:
    """Weight of the cut crossing exactly tree edges ``e`` and ``f``:
    the middle component of ``T - {e, f}`` against the rest."""
    rest = tree.copy()
    rest.remove_edges_from([e, f])
    middle = next(
        component
        for component in nx.connected_components(rest)
        if set(e) & component and set(f) & component
    )
    return sum(
        w
        for u, v, w in graph.edges(data="weight", default=1)
        if (u in middle) != (v in middle)
    )


def brute_best(graph, tree, pairs) -> tuple[float, tuple]:
    """First pair (in ``pairs`` order) with the minimum component cut."""
    best_value, best_pair = math.inf, None
    for e, f in pairs:
        value = component_cut(graph, tree, e, f)
        if value < best_value:
            best_value, best_pair = value, (e, f)
    return best_value, best_pair


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
def small_tree_case(n: int, extra: int, seed: int, weights=None):
    """A random tree on ``n`` nodes plus random chords (a base case)."""
    rng = random.Random(seed)
    draw = weights or (lambda: rng.randint(1, 9))
    tree = nx.random_labeled_tree(n, seed=seed) if n > 1 else nx.empty_graph(1)
    graph = nx.Graph()
    graph.add_nodes_from(tree.nodes())
    for u, v in tree.edges():
        graph.add_edge(u, v, weight=draw())
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if graph.has_edge(u, v):
            graph[u][v]["weight"] += draw()
        else:
            graph.add_edge(u, v, weight=draw())
    rooted = RootedTree(tree, rng.randrange(n))
    cov = cover_values(graph, rooted)
    orig_of = {edge: edge for edge in rooted.edges()}
    return graph, tree, rooted, cov, orig_of


def path_case(k: int, l: int, extra: int, seed: int, weights=None):
    """A root plus two descending paths and random chords."""
    rng = random.Random(seed)
    draw = weights or (lambda: rng.randint(1, 9))
    root = 0
    p_nodes = list(range(1, k + 1))
    q_nodes = list(range(k + 1, k + l + 1))
    tree = nx.Graph()
    tree.add_node(root)
    for path in (p_nodes, q_nodes):
        nx.add_path(tree, [root, *path])
    graph = nx.Graph()
    for u, v in tree.edges():
        graph.add_edge(u, v, weight=draw())
    everyone = [root, *p_nodes, *q_nodes]
    for _ in range(extra):
        u, v = rng.sample(everyone, 2)
        if graph.has_edge(u, v):
            graph[u][v]["weight"] += draw()
        else:
            graph.add_edge(u, v, weight=draw())
    rooted = RootedTree(tree, root)

    def origs(path):
        return [edge_key(a, b) for a, b in zip([root, *path], path)]

    instance = PathInstance(
        graph=graph,
        root=root,
        p_nodes=p_nodes,
        q_nodes=q_nodes,
        p_orig=origs(p_nodes),
        q_orig=origs(q_nodes),
        cov=cover_values(graph, rooted),
    )
    return graph, tree, instance


def base_case_pairs(rooted: RootedTree) -> list[tuple]:
    edges = list(rooted.edges())
    return [
        (edges[a], edges[b])
        for a in range(len(edges))
        for b in range(a + 1, len(edges))
    ]


def scan_pairs(instance: PathInstance) -> list[tuple]:
    """Scan order: each edge of the shorter path (P on a tie) in turn,
    against every edge of the other path."""
    if len(instance.p_nodes) <= len(instance.q_nodes):
        return [(e, f) for e in instance.p_orig for f in instance.q_orig]
    return [(e, f) for f in instance.q_orig for e in instance.p_orig]


def record_base(batch, graph, rooted, cov, orig_of):
    return batch.base_case(edge_table(graph), rooted, cov, orig_of)


def record_scan(batch, instance):
    return batch.path_scans(instance, instance.cross_edges())


def same(a: CutCandidate | None, b: CutCandidate | None) -> bool:
    if a is None or b is None:
        return a is b
    return (
        type(a.value) is type(b.value)
        and np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
        and a.edges == b.edges
    )


# ----------------------------------------------------------------------
# Leaves against brute force
# ----------------------------------------------------------------------
class TestBaseCaseLeaf:
    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("seed", range(3))
    def test_batch_of_one_matches_component_cuts(self, n, seed):
        graph, tree, rooted, cov, orig_of = small_tree_case(n, 2 * n, seed)
        batch = LeafBatch()
        got = batch.resolve(record_base(batch, graph, rooted, cov, orig_of))
        pairs = base_case_pairs(rooted)
        if not pairs:
            assert got is None
            return
        value, pair = brute_best(graph, tree, pairs)
        assert got.value == value
        assert got.edges == pair

    def test_unlabelled_edges_are_never_paired(self):
        graph, tree, rooted, cov, orig_of = small_tree_case(7, 10, 4)
        edges = list(rooted.edges())
        labelled = {edge: edge for edge in edges[1:]}
        batch = LeafBatch()
        got = batch.resolve(record_base(batch, graph, rooted, cov, labelled))
        value, pair = brute_best(
            graph, tree, [p for p in base_case_pairs(rooted) if edges[0] not in p]
        )
        assert (got.value, got.edges) == (value, pair)


class TestScanLeaf:
    @pytest.mark.parametrize(
        "k,l", [(1, 1), (1, 6), (4, 4), (6, 3), (10, 14), (13, 9)]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_batch_of_one_matches_component_cuts(self, k, l, seed):
        graph, tree, instance = path_case(k, l, 3 * (k + l), seed)
        batch = LeafBatch()
        got = batch.resolve(record_scan(batch, instance))
        value, pair = brute_best(graph, tree, scan_pairs(instance))
        assert got.value == value
        assert got.edges == pair

    def test_no_cross_edges(self):
        graph, tree, instance = path_case(3, 5, 0, 1)
        batch = LeafBatch()
        got = batch.resolve(record_scan(batch, instance))
        value, pair = brute_best(graph, tree, scan_pairs(instance))
        assert (got.value, got.edges) == (value, pair)


class TestMixedBatch:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_leaf_as_in_its_own_batch(self, seed):
        """Base cases of 2-9 nodes and scans of several shapes, recorded
        interleaved and evaluated in one flush, with fractional weights."""
        rng = random.Random(seed)
        fractional = lambda: rng.uniform(0.5, 20.0)  # noqa: E731
        shared = LeafBatch()
        cases = []
        for index in range(12):
            if index % 2:
                n = rng.randint(2, 9)
                case = small_tree_case(n, rng.randint(0, 3 * n), seed * 50 + index, fractional)
                graph, tree, rooted, cov, orig_of = case
                cases.append(
                    ("base", case, record_base(shared, graph, rooted, cov, orig_of))
                )
            else:
                k, l = rng.randint(1, 12), rng.randint(1, 12)
                case = path_case(k, l, rng.randint(0, 4 * (k + l)), seed * 50 + index, fractional)
                cases.append(("scan", case, record_scan(shared, case[2])))
        assert shared.pending == 12
        shared.flush()
        assert shared.pending == 0
        for kind, case, deferred in cases:
            alone = LeafBatch()
            if kind == "base":
                graph, tree, rooted, cov, orig_of = case
                own = record_base(alone, graph, rooted, cov, orig_of)
                pairs = base_case_pairs(rooted)
            else:
                graph, tree, instance = case
                own = record_scan(alone, instance)
                pairs = scan_pairs(instance)
            got = shared.resolve(deferred)
            assert same(got, alone.resolve(own))
            if pairs:
                value, _pair = brute_best(graph, tree, pairs)
                assert got.value == pytest.approx(value, rel=1e-12)

    def test_batch_reused_after_flush(self):
        """Leaves recorded after a flush get fresh ids; resolving any
        result evaluates whatever is still pending."""
        batch = LeafBatch()
        graph, tree, rooted, cov, orig_of = small_tree_case(6, 8, 1)
        first = record_base(batch, graph, rooted, cov, orig_of)
        batch.flush()
        resolved_first = batch.resolve(first)
        _g, _t, instance = path_case(4, 7, 20, 2)
        second = record_scan(batch, instance)
        assert batch.pending == 1
        assert same(batch.resolve(first), resolved_first)
        assert batch.pending == 0
        alone = LeafBatch()
        assert same(batch.resolve(second), alone.resolve(record_scan(alone, instance)))


class TestFold:
    def test_earliest_of_equal_candidates_wins(self):
        a = CutCandidate(value=3.0, edges=(("a", "b"), ("c", "d")))
        b = CutCandidate(value=3.0, edges=(("e", "f"), ("g", "h")))
        one = CutCandidate(value=3.0, edges=(("x", "y"),))
        batch = LeafBatch()
        assert batch.resolve(join([a, b])) is a
        assert batch.resolve(join([b, None, (a,)])) is b
        # ties break toward fewer edges wherever they sit
        assert batch.resolve(join([a, one])) is one

    def test_first_minima_follow_better_than(self):
        """Segmented first minima, NaN included, equal a sequential
        ``best_candidate`` over each segment."""
        rng = random.Random(3)
        pool = [1.0, 2.0, 2.0, math.nan, math.inf, 0.5]
        lengths = [rng.randint(0, 5) for _ in range(60)]
        values = [rng.choice(pool) for _ in range(sum(lengths))]
        winners = _first_minima(np.array(values), np.array(lengths))
        start = 0
        for segment, length in enumerate(lengths):
            chunk = values[start : start + length]
            candidates = [
                CutCandidate(value=v, edges=((i, i + 1), (i, i + 2)))
                for i, v in enumerate(chunk)
            ]
            want = best_candidate(candidates)
            if want is None:
                assert winners[segment] == -1
            else:
                assert winners[segment] - start == want.edges[0][0]
            start += length


# ----------------------------------------------------------------------
# Standalone entry points vs a shared batch
# ----------------------------------------------------------------------
def _star_case(seed: int):
    _graph, _tree, instance = path_case(5, 7, 30, seed)
    paths = [
        StarPath(nodes=instance.p_nodes, orig=instance.p_orig),
        StarPath(nodes=instance.q_nodes, orig=instance.q_orig),
    ]
    return StarInstance(
        graph=instance.graph, root=instance.root, paths=paths, cov=instance.cov
    )


class TestStandaloneParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_path_to_path(self, seed):
        _g, _t, instance = path_case(14, 23, 60, seed)
        standalone_acct, shared_acct = RoundAccountant(), RoundAccountant()
        standalone = PathToPathSolver(standalone_acct).solve(instance)
        assert isinstance(standalone, CutCandidate)
        batch = LeafBatch()
        deferred = PathToPathSolver(shared_acct, batch).solve(instance)
        assert isinstance(deferred, tuple)
        assert same(standalone, batch.resolve(deferred))
        assert standalone_acct.by_label() == shared_acct.by_label()

    @pytest.mark.parametrize("seed", range(4))
    def test_star(self, seed):
        instance = _star_case(seed)
        standalone_acct, shared_acct = RoundAccountant(), RoundAccountant()
        standalone = solve_star(instance, standalone_acct)
        batch = LeafBatch()
        deferred = solve_star(instance, shared_acct, leaves=batch)
        assert same(standalone, batch.resolve(deferred))
        assert standalone_acct.by_label() == shared_acct.by_label()

    @pytest.mark.parametrize("seed", range(4))
    def test_subtree_instance(self, seed):
        graph, _tree, rooted, cov, orig_of = small_tree_case(14, 30, seed)
        instance = SubtreeInstance(
            graph=graph, tree=rooted, orig_of=orig_of, cov=cov
        )
        standalone_acct, shared_acct = RoundAccountant(), RoundAccountant()
        standalone = solve_subtree_instance(instance, standalone_acct)
        batch = LeafBatch()
        deferred = solve_subtree_instance(instance, shared_acct, leaves=batch)
        assert same(standalone, batch.resolve(deferred))
        assert standalone_acct.by_label() == shared_acct.by_label()

    @pytest.mark.parametrize("family", ["grid", "delaunay", "gnm", "cycle"])
    def test_two_respecting_min_cut_shared_batch(self, family):
        """Packed trees of one solve through one shared batch, against a
        private batch per tree."""
        graph = CSR_FAMILY_BUILDERS[family](24, 2)
        packed = MinCutSolver(SolverConfig(solver="minor-aggregation")).pack(
            graph, seed=2
        )
        table = edge_table(packed.csr)
        batch = LeafBatch()
        shared = [
            two_respecting_min_cut(
                packed.csr, rooted, arrays=packed.arrays, table=table,
                leaves=batch,
            )
            for rooted in packed.rooted_trees
        ]
        assert batch.pending > 0
        batch.flush()
        for rooted, result in zip(packed.rooted_trees, shared):
            alone = two_respecting_min_cut(
                packed.csr, rooted, arrays=packed.arrays, table=table
            )
            assert alone.leaves.pending == 0
            assert same(alone.best, result.best)
            assert same(alone.two_respecting, result.two_respecting)
            assert alone.ma_rounds == result.ma_rounds
