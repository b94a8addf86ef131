"""Between-subtree 2-respecting min-cut (Theorem 39, Lemma 38)."""

import math
import random

import networkx as nx
import pytest

from repro.core.cut_values import cover_values, cut_matrix
from repro.core.subtree_instance import (
    SubtreeInstance,
    SubtreeSolveStats,
    pairwise_coloring,
    solve_subtree_instance,
)
from repro.trees.rooted import RootedTree, edge_key


class TestPairwiseColoring:
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 13, 32])
    def test_every_pair_split(self, k):
        """Lemma 38: some assignment colors every index pair differently."""
        assignments = pairwise_coloring(k)
        assert len(assignments) == math.ceil(math.log2(k)) or k == 2
        for i in range(k):
            for j in range(i + 1, k):
                assert any(a[i] != a[j] for a in assignments), (i, j)

    def test_trivial_sizes(self):
        assert pairwise_coloring(0) == []
        assert pairwise_coloring(1) == []

    def test_assignment_count_logarithmic(self):
        assert len(pairwise_coloring(100)) == 7


def make_subtree_instance(subtree_sizes, extra, seed, weight_high=9):
    """A real graph whose spanning tree is a root with k random subtrees."""
    rng = random.Random(seed)
    root = 0
    graph = nx.Graph()
    graph.add_node(root)
    next_id = 1
    subtree_nodes = []
    for size in subtree_sizes:
        nodes = list(range(next_id, next_id + size))
        next_id += size
        graph.add_edge(root, nodes[0], weight=rng.randint(1, weight_high))
        for index in range(1, size):
            parent = nodes[rng.randrange(index)]
            graph.add_edge(parent, nodes[index], weight=rng.randint(1, weight_high))
        subtree_nodes.append(nodes)
    tree = graph.copy()
    everyone = [root] + [v for nodes in subtree_nodes for v in nodes]
    for _ in range(extra):
        u, v = rng.sample(everyone, 2)
        w = rng.randint(1, weight_high)
        if graph.has_edge(u, v):
            graph[u][v]["weight"] += w
        else:
            graph.add_edge(u, v, weight=w)
    rooted = RootedTree(tree, root)
    cov = cover_values(graph, rooted)
    orig_of = {edge: edge for edge in rooted.edges()}
    instance = SubtreeInstance(
        graph=graph, tree=rooted, orig_of=orig_of, cov=cov
    )
    return graph, rooted, instance, subtree_nodes


def between_subtree_oracle(graph, rooted, subtree_nodes):
    """Exact min over pairs of tree edges in different subtrees.

    A subtree's edge set includes its attachment edge to the root."""
    edges, cuts = cut_matrix(graph, rooted)
    index = {edge: i for i, edge in enumerate(edges)}
    groups = []
    for nodes in subtree_nodes:
        group = [index[rooted.edge_of(v)] for v in nodes]
        groups.append(group)
    best = math.inf
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            for i in groups[a]:
                for j in groups[b]:
                    best = min(best, cuts[i, j])
    return best


class TestSolveSubtreeInstance:
    @pytest.mark.parametrize("seed", range(8))
    def test_exact_modulo_one_respecting(self, seed):
        graph, rooted, instance, subtree_nodes = make_subtree_instance(
            [5, 6, 4], 30, seed
        )
        result = solve_subtree_instance(instance)
        oracle = between_subtree_oracle(graph, rooted, subtree_nodes)
        one = min(cover_values(graph, rooted).values())
        got = result.value if result is not None else math.inf
        assert min(got, one) == pytest.approx(min(oracle, one))

    @pytest.mark.parametrize("seed", range(4))
    def test_two_subtrees(self, seed):
        graph, rooted, instance, subtree_nodes = make_subtree_instance(
            [8, 9], 25, seed + 30
        )
        result = solve_subtree_instance(instance)
        oracle = between_subtree_oracle(graph, rooted, subtree_nodes)
        one = min(cover_values(graph, rooted).values())
        got = result.value if result is not None else math.inf
        assert min(got, one) == pytest.approx(min(oracle, one))

    @pytest.mark.parametrize("seed", range(4))
    def test_many_small_subtrees(self, seed):
        graph, rooted, instance, subtree_nodes = make_subtree_instance(
            [2, 3, 2, 3, 2], 35, seed + 60
        )
        result = solve_subtree_instance(instance)
        oracle = between_subtree_oracle(graph, rooted, subtree_nodes)
        one = min(cover_values(graph, rooted).values())
        got = result.value if result is not None else math.inf
        assert min(got, one) == pytest.approx(min(oracle, one))

    def test_witness_is_true_cut_value(self):
        graph, rooted, instance, _nodes = make_subtree_instance([6, 5, 4], 40, 7)
        result = solve_subtree_instance(instance)
        if result is not None:
            edges, cuts = cut_matrix(graph, rooted)
            index = {edge: i for i, edge in enumerate(edges)}
            e, f = result.edges
            assert cuts[index[e], index[f]] == pytest.approx(result.value)

    def test_single_subtree_returns_none(self):
        _g, _rt, instance, _nodes = make_subtree_instance([6], 10, 1)
        assert solve_subtree_instance(instance) is None

    def test_star_instance_budget(self):
        """#star instances <= colorings * depth_red * depth_blue budget."""
        graph, rooted, instance, _nodes = make_subtree_instance(
            [7, 7, 7, 7], 50, 3
        )
        stats = SubtreeSolveStats()
        solve_subtree_instance(instance, stats=stats)
        n = len(rooted)
        max_depth = math.floor(math.log2(n)) + 1
        assert stats.colorings <= math.ceil(math.log2(4))
        assert stats.star_instances <= stats.colorings * max_depth ** 2

    def test_colorings_is_the_most_any_instance_used(self):
        """Shared stats keep chi of the widest instance, not the last one."""
        _g, _rt, wide, _nodes = make_subtree_instance([3] * 8, 60, 5)
        _g, _rt, narrow, _nodes = make_subtree_instance([5, 5], 20, 6)
        stats = SubtreeSolveStats()
        solve_subtree_instance(wide, stats=stats)
        solve_subtree_instance(narrow, stats=stats)
        assert stats.colorings == len(pairwise_coloring(8)) == 3


class TestInstanceIndex:
    """``_index`` decomposes every subtree in one walk; its HL-paths must
    be those (and in the order) that a ``HeavyLightDecomposition`` of
    ``RootedTree.from_edges`` over the subtree's preorder edges gives."""

    @staticmethod
    def _reference_paths(instance):
        from repro.trees.hld import HeavyLightDecomposition

        tree, orig_of = instance.tree, instance.orig_of
        out = []
        for top in tree.children[tree.root]:
            edges = [
                (node, tree.parent[node])
                for node in tree.subtree_nodes(top)
                if node != top
            ]
            hld = HeavyLightDecomposition(RootedTree.from_edges(edges, root=top))
            paths_at = {}
            for path in hld.hl_paths():
                if any(e not in orig_of for e in path.edges):
                    continue
                paths_at.setdefault(path.depth, []).append(
                    (list(path.nodes), [orig_of[e] for e in path.edges])
                )
            depths = {hld.hl_depth[v] for v in hld.tree.order[1:]} | {0}
            out.append((paths_at, depths))
        return out

    @pytest.mark.parametrize("labels", ["int", "str"])
    @pytest.mark.parametrize("seed", range(12))
    def test_paths_match_heavy_light_decomposition(self, labels, seed):
        from repro.core.subtree_instance import _index

        rng = random.Random(seed)
        sizes = [rng.randint(1, 12) for _ in range(rng.randint(2, 5))]
        _graph, rooted, instance, _nodes = make_subtree_instance(
            sizes, 20, seed + 90
        )
        if labels == "str":
            name = {v: f"n{v}" for v in rooted.order}
            relabel = lambda e: tuple(sorted((name[e[0]], name[e[1]])))
            tree = RootedTree.from_edges(
                [(name[u], name[v]) for u, v in rooted.to_graph().edges()],
                root=name[rooted.root],
            )
            instance = SubtreeInstance(
                graph=[(name[u], name[v], w) for u, v, w in instance.graph],
                tree=tree,
                orig_of={
                    relabel(e): relabel(o) for e, o in instance.orig_of.items()
                },
                cov={relabel(e): c for e, c in instance.cov.items()},
            )
        got = [
            (
                {
                    d: [(p.nodes, p.orig) for p in paths]
                    for d, paths in sub.paths_at.items()
                },
                sub.depths,
            )
            for sub in _index(instance).subtrees
        ]
        assert got == self._reference_paths(instance)
