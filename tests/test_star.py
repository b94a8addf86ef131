"""Star 2-respecting min-cut (Theorem 27) + interest structure (Lemmas 28-32)."""

import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accounting import RoundAccountant
from repro.core.cut_values import cover_values, cut_matrix
from repro.core.interest import (
    SKETCH_CAPACITY,
    build_interest_graph,
    compute_interest_lists,
    greedy_edge_coloring,
    interest_structure,
)
from repro.core.star import StarInstance, StarPath, StarSolveStats, solve_star
from repro.ma.operators import MisraGries
from repro.trees.rooted import RootedTree, edge_key


def make_star(path_lengths, extra, seed, weight_high=9):
    """A real graph whose spanning tree is a root plus k descending paths."""
    rng = random.Random(seed)
    root = 0
    graph = nx.Graph()
    graph.add_node(root)
    paths = []
    next_id = 1
    for length in path_lengths:
        nodes = list(range(next_id, next_id + length))
        next_id += length
        previous = root
        for node in nodes:
            graph.add_edge(previous, node, weight=rng.randint(1, weight_high))
            previous = node
        paths.append(nodes)
    tree = graph.copy()
    all_nodes = [v for nodes in paths for v in nodes] + [root]
    for _ in range(extra):
        u, v = rng.sample(all_nodes, 2)
        w = rng.randint(1, weight_high)
        if graph.has_edge(u, v):
            graph[u][v]["weight"] += w
        else:
            graph.add_edge(u, v, weight=w)
    rooted = RootedTree(tree, root)
    cov = cover_values(graph, rooted)
    star_paths = []
    for nodes in paths:
        orig = [edge_key(root, nodes[0])] + [
            edge_key(a, b) for a, b in zip(nodes, nodes[1:])
        ]
        star_paths.append(StarPath(nodes=nodes, orig=orig))
    instance = StarInstance(graph=graph, root=root, paths=star_paths, cov=cov)
    return graph, rooted, instance


def cross_pair_oracle(graph, rooted, instance):
    """Exact min over pairs of edges on different star paths."""
    edges, cuts = cut_matrix(graph, rooted)
    index = {edge: i for i, edge in enumerate(edges)}
    best = math.inf
    for a, path_a in enumerate(instance.paths):
        for b in range(a + 1, len(instance.paths)):
            for e in path_a.orig:
                for f in instance.paths[b].orig:
                    best = min(best, cuts[index[e], index[f]])
    return best


def one_respecting_min(graph, rooted):
    return min(cover_values(graph, rooted).values())


def pair_value(graph, rooted, edges):
    all_edges, cuts = cut_matrix(graph, rooted)
    index = {edge: i for i, edge in enumerate(all_edges)}
    e, f = edges
    return cuts[index[e], index[f]]


class TestInterestLists:
    @pytest.mark.parametrize("seed", range(6))
    def test_lists_contain_all_strong_interests(self, seed):
        """Definition 31 (1): every strongly-interested path is listed."""
        graph, rooted, instance = make_star([6, 6, 5, 7], 40, seed)
        node_paths = [p.nodes for p in instance.paths]
        lists = compute_interest_lists(node_paths, graph)
        # Recompute strong interest exactly.
        pos = {}
        path_of = {}
        for idx, nodes in enumerate(node_paths):
            for t, node in enumerate(nodes):
                pos[node] = t
                path_of[node] = idx
        crosses = []
        for u, v, data in graph.edges(data=True):
            if u in path_of and v in path_of and path_of[u] != path_of[v]:
                crosses.append((u, v, data["weight"]))
        for i, nodes in enumerate(node_paths):
            for t in range(len(nodes)):
                # Edge index t+1: covered by cross edges at position >= t.
                weights: dict = {}
                total = 0.0
                for u, v, w in crosses:
                    if path_of[u] == i and pos[u] >= t:
                        weights[path_of[v]] = weights.get(path_of[v], 0) + w
                        total += w
                    elif path_of[v] == i and pos[v] >= t:
                        weights[path_of[u]] = weights.get(path_of[u], 0) + w
                        total += w
                for j, w in weights.items():
                    if w > total / 2:
                        assert j in lists[i], (seed, i, t, j)

    @pytest.mark.parametrize("seed", range(4))
    def test_lists_are_small(self, seed):
        """Lemma 30: interest lists have O(log n) entries."""
        graph, _rooted, instance = make_star([8] * 10, 150, seed)
        lists = compute_interest_lists([p.nodes for p in instance.paths], graph)
        n = graph.number_of_nodes()
        bound = 12 * math.ceil(math.log2(n))
        assert all(len(s) <= bound for s in lists)

    def test_no_self_interest(self):
        graph, _rooted, instance = make_star([5, 5, 5], 30, 3)
        lists = compute_interest_lists([p.nodes for p in instance.paths], graph)
        for i, entries in enumerate(lists):
            assert i not in entries

    def test_charges_rounds(self):
        graph, _rooted, instance = make_star([4, 4], 10, 0)
        acct = RoundAccountant()
        compute_interest_lists([p.nodes for p in instance.paths], graph, acct)
        assert acct.total > 0


def sketch_interest_lists(paths, table):
    """Lemma 32 folded through Misra-Gries sketch objects: per-node
    sketches in table order, then a bottom-up suffix merge per path.
    Returns the lists and the largest slack any suffix sketch reached."""
    path_of = {node: i for i, path in enumerate(paths) for node in path}
    sketches = {}
    for u, v, w in table:
        pu, pv = path_of.get(u), path_of.get(v)
        if pu is None or pv is None or pu == pv:
            continue
        for node, label in ((u, pv), (v, pu)):
            sketch = sketches.get(node, MisraGries.empty(SKETCH_CAPACITY))
            sketches[node] = sketch.add(label, w)
    lists, slack = [], 0.0
    for i, path in enumerate(paths):
        acc = MisraGries.empty(SKETCH_CAPACITY)
        found = set()
        for node in reversed(path):
            if node in sketches:
                acc = acc.merged(sketches[node])
            if acc.total > 0:
                found |= {
                    key
                    for key, estimate in acc.counts.items()
                    if estimate + acc.decremented > acc.total / 2
                }
        slack = max(slack, acc.decremented)
        found.discard(i)
        lists.append(found)
    return lists, slack


WEIGHTS = {
    "int": st.integers(1, 100),
    "mixed": st.one_of(
        st.just(1e-9), st.floats(0.1, 0.3), st.just(1e9)
    ),
    "huge-int": st.integers(10**17, 10**18),
}


@st.composite
def interest_cases(draw, min_paths, max_paths):
    """Paths of 1-4 nodes hanging off root 0, two off-path nodes, and a
    table of random edges (self-loops dropped) with parallel repeats,
    optionally tying every path to path 0 so its sketches fill up."""
    k = draw(st.integers(min_paths, max_paths))
    paths, next_id = [], 1
    for length in draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)):
        paths.append(list(range(next_id, next_id + length)))
        next_id += length
    nodes = st.integers(0, next_id + 1)
    weights = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    table = draw(st.lists(st.tuples(nodes, nodes, weights), max_size=60))
    if draw(st.booleans()):
        table += [(paths[0][-1], path[0], draw(weights)) for path in paths[1:]]
    for index in draw(st.lists(st.integers(0, 10**6), max_size=10)):
        if table:
            u, v, _w = table[index % len(table)]
            table.append((v, u, draw(weights)))  # a parallel edge
    rng = random.Random(draw(st.integers(0, 2**16)))
    rng.shuffle(table)
    return paths, [(u, v, w) for u, v, w in table if u != v]


class TestInterestFastPath:
    """Stars with at most ``SKETCH_CAPACITY + 1`` paths fold exact sums,
    larger ones fold sketches; both must give the sketch fold's lists."""

    @settings(max_examples=200, deadline=None)
    @given(case=interest_cases(2, SKETCH_CAPACITY + 1))
    def test_exact_sums_equal_sketch_fold(self, case):
        paths, table = case
        lists, slack = sketch_interest_lists(paths, table)
        assert slack == 0  # at most k - 1 keys: no sketch ever decrements
        assert compute_interest_lists(paths, table) == lists

    @settings(max_examples=100, deadline=None)
    @given(case=interest_cases(SKETCH_CAPACITY + 2, 16))
    def test_overflowing_stars_keep_sketch_fold(self, case):
        paths, table = case
        lists, _slack = sketch_interest_lists(paths, table)
        assert compute_interest_lists(paths, table) == lists

    def test_small_star_builds_no_sketch(self, monkeypatch):
        merged = []
        original = MisraGries.merged
        monkeypatch.setattr(
            MisraGries, "merged",
            lambda self, other: merged.append(1) or original(self, other),
        )
        graph, _rooted, instance = make_star([3] * (SKETCH_CAPACITY + 1), 60, 2)
        compute_interest_lists([p.nodes for p in instance.paths], graph)
        assert not merged

    def test_hub_path_overflows_sketches(self):
        """Twelve paths all tied to one: that path's sketch overflows."""
        paths = [[i] for i in range(1, 13)]
        table = [(1, j, 1 + j % 3) for j in range(2, 13)]
        lists, slack = sketch_interest_lists(paths, table)
        assert slack > 0
        assert compute_interest_lists(paths, table) == lists


class TestInterestGraph:
    def test_mutuality_required(self):
        lists = [{1}, set(), {0}]
        assert build_interest_graph(lists) == []

    def test_mutual_pair_connected(self):
        lists = [{1}, {0, 2}, {1}]
        assert build_interest_graph(lists) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("seed", range(3))
    def test_structure_on_real_instance(self, seed):
        graph, _rooted, instance = make_star([6, 6, 6, 6], 50, seed + 20)
        structure = interest_structure([p.nodes for p in instance.paths], graph)
        assert structure.max_degree <= len(instance.paths) - 1


class TestEdgeColoring:
    @pytest.mark.parametrize("seed", range(5))
    def test_proper_and_bounded(self, seed):
        graph = nx.gnm_random_graph(12, 24, seed=seed)
        coloring = greedy_edge_coloring(list(graph.edges()))
        max_degree = max((d for _v, d in graph.degree()), default=0)
        for (u, v), color in coloring.items():
            assert color < 2 * max_degree
            for (x, y), other in coloring.items():
                if (u, v) != (x, y) and {u, v} & {x, y}:
                    assert color != other or {u, v} == {x, y}

    def test_empty_graph(self):
        assert greedy_edge_coloring([]) == {}


class TestSolveStar:
    @pytest.mark.parametrize("seed", range(10))
    def test_exact_modulo_one_respecting(self, seed):
        """min(star, 1-resp) == min(cross-pair oracle, 1-resp) -- the
        Lemma 28 guarantee, and any returned witness is a true cut value."""
        graph, rooted, instance = make_star([5, 4, 6, 3], 35, seed)
        result = solve_star(instance)
        oracle = cross_pair_oracle(graph, rooted, instance)
        one = one_respecting_min(graph, rooted)
        got = result.value if result is not None else math.inf
        assert min(got, one) == pytest.approx(min(oracle, one))
        if result is not None:
            assert pair_value(graph, rooted, result.edges) == pytest.approx(
                result.value
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_two_path_star(self, seed):
        graph, rooted, instance = make_star([7, 8], 25, seed + 40)
        result = solve_star(instance)
        oracle = cross_pair_oracle(graph, rooted, instance)
        one = one_respecting_min(graph, rooted)
        got = result.value if result is not None else math.inf
        assert min(got, one) == pytest.approx(min(oracle, one))

    @pytest.mark.parametrize("seed", range(4))
    def test_many_short_paths(self, seed):
        graph, rooted, instance = make_star([2] * 8, 40, seed + 60)
        result = solve_star(instance)
        oracle = cross_pair_oracle(graph, rooted, instance)
        one = one_respecting_min(graph, rooted)
        got = result.value if result is not None else math.inf
        assert min(got, one) == pytest.approx(min(oracle, one))

    def test_single_path_returns_none(self):
        _g, _rt, instance = make_star([5], 10, 1)
        assert solve_star(instance) is None

    def test_stats_populated(self):
        graph, _rooted, instance = make_star([5, 5, 5], 45, 2)
        stats = StarSolveStats()
        solve_star(instance, stats=stats)
        assert stats.interest_list_sizes
        if stats.pair_instances:
            assert stats.colors_used >= 1

    def test_mismatched_starpath_rejected(self):
        with pytest.raises(ValueError):
            StarPath(nodes=[1, 2], orig=[("a", "b")])


class TestEngineInterestLists:
    """Lemma 32 run genuinely through the engine (suffix sums with the
    Misra-Gries aggregation operator, Example 8)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_contains_all_strong_interests(self, seed):
        from repro.core.interest import compute_interest_lists_engine

        graph, _rooted, instance = make_star([6, 5, 7, 4], 45, seed + 200)
        node_paths = [p.nodes for p in instance.paths]
        lists, rounds = compute_interest_lists_engine(node_paths, graph)
        assert rounds > 0
        pos, path_of = {}, {}
        for idx, nodes in enumerate(node_paths):
            for t, node in enumerate(nodes):
                pos[node] = t
                path_of[node] = idx
        crosses = []
        for u, v, data in graph.edges(data=True):
            if u in path_of and v in path_of and path_of[u] != path_of[v]:
                crosses.append((u, v, data["weight"]))
        for i, nodes in enumerate(node_paths):
            for t in range(len(nodes)):
                weights, total = {}, 0.0
                for u, v, w in crosses:
                    if path_of[u] == i and pos[u] >= t:
                        weights[path_of[v]] = weights.get(path_of[v], 0) + w
                        total += w
                    elif path_of[v] == i and pos[v] >= t:
                        weights[path_of[u]] = weights.get(path_of[u], 0) + w
                        total += w
                for j, w in weights.items():
                    if w > total / 2:
                        assert j in lists[i], (seed, i, t, j)

    def test_round_count_logarithmic(self):
        import math

        from repro.core.interest import compute_interest_lists_engine

        graph, _rooted, instance = make_star([20] * 4, 150, 777)
        lists, rounds = compute_interest_lists_engine(
            [p.nodes for p in instance.paths], graph
        )
        assert rounds <= math.ceil(math.log2(20)) + 1

    def test_agrees_with_direct_on_guarantees(self):
        """Both variants report only (at least weakly) interesting paths."""
        from repro.core.interest import (
            compute_interest_lists,
            compute_interest_lists_engine,
        )

        graph, _rooted, instance = make_star([5, 5, 5, 5], 60, 321)
        node_paths = [p.nodes for p in instance.paths]
        direct = compute_interest_lists(node_paths, graph)
        via_engine, _rounds = compute_interest_lists_engine(node_paths, graph)
        n = graph.number_of_nodes()
        bound = 12 * math.ceil(math.log2(n))
        for lists in (direct, via_engine):
            assert all(len(s) <= bound for s in lists)
