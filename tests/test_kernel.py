"""Array-backed tree kernel against brute-force references.

Every tree/cut primitive -- ``lca``, ``is_ancestor``, ``subtree_nodes``,
``cover_values``, ``pair_cover_matrix``, ``cut_matrix``,
``two_respecting_oracle``, ``one_respecting_cuts_fast``,
``cut_partition``, ``partition_cut_weight`` -- has a single
implementation, the kernel.  The references below share no code with it:
ancestry comes from walking ``tree.parent``/``tree.depth``, subtrees from
a stack preorder written out here, and cut values from the components of
the tree with the cut edges removed (Section 3.2: ``Cut(e, f)`` is the
weight of graph edges leaving the middle component; ``Cov(e) = Cut(e)``
and ``Cov(e, f) = (Cut(e) + Cut(f) - Cut(e, f)) / 2``, Fact 5).

Each check runs on the networkx graph and on ``CSRGraph.from_networkx``
of it (with the tree relabelled to CSR indices), over seeded random trees
and graphs including mixed node types, weight-zero edges, and degenerate
shapes.  Integer weights must agree *bit for bit*; float weights to 1e-9.
"""

from __future__ import annotations

import functools
import itertools
import random

import networkx as nx
import numpy as np
import pytest

from repro.core.cut_values import (
    cover_values,
    cut_matrix,
    cut_partition,
    pair_cover_matrix,
    partition_cut_weight,
    two_respecting_oracle,
)
from repro.core.one_respecting import one_respecting_cuts_fast
from repro.graphs import CSRGraph, random_connected_gnm, random_spanning_tree
from repro.kernel import GraphArrays
from repro.kernel.tree_kernel import euler_lca
from repro.trees.rooted import RootedTree

# ---------------------------------------------------------------------------
# Case generators
# ---------------------------------------------------------------------------


def _mixed_name(v: int, rng: random.Random) -> object:
    """Map some integer nodes to strings/tuples (mixed hashable types)."""
    kind = rng.randrange(3)
    if kind == 0:
        return v
    if kind == 1:
        return f"node-{v}"
    return ("virt", v)


def random_case(
    seed: int,
    mixed_types: bool = False,
    zero_weights: bool = False,
    float_weights: bool = False,
) -> tuple[nx.Graph, RootedTree]:
    """A seeded connected weighted graph plus a rooted spanning tree."""
    rng = random.Random(seed)
    n = rng.randint(4, 48)
    m = rng.randint(n, 4 * n)
    graph = random_connected_gnm(n, m, seed=seed, weight_high=17)
    if float_weights:
        for _u, _v, data in graph.edges(data=True):
            data["weight"] = round(rng.uniform(0.1, 9.0), 3)
    if zero_weights:
        edges = list(graph.edges())
        for u, v in rng.sample(edges, max(1, len(edges) // 6)):
            graph[u][v]["weight"] = 0
    tree_graph = random_spanning_tree(graph, seed=seed + 1)
    if mixed_types:
        mapping = {v: _mixed_name(v, rng) for v in graph.nodes()}
        graph = nx.relabel_nodes(graph, mapping)
        tree_graph = nx.relabel_nodes(tree_graph, mapping)
    root = min(graph.nodes(), key=lambda v: (type(v).__name__, str(v)))
    return graph, RootedTree(tree_graph, root)


CASE_SEEDS = list(range(10))


def case_variants():
    for seed in CASE_SEEDS:
        yield pytest.param(seed, False, False, id=f"plain-{seed}")
    for seed in CASE_SEEDS[:5]:
        yield pytest.param(seed, True, False, id=f"mixed-{seed}")
    for seed in CASE_SEEDS[:5]:
        yield pytest.param(seed, False, True, id=f"zerow-{seed}")
    for seed in CASE_SEEDS[:3]:
        yield pytest.param(seed, True, True, id=f"mixed-zerow-{seed}")


def both_inputs(graph: nx.Graph, tree: RootedTree):
    """Yield ``(graph, tree, label)`` for the networkx input and for its
    CSR conversion; ``label`` maps a node of the yielded input back to
    the networkx label the references use."""
    yield graph, tree, lambda node: node
    labels = list(graph.nodes())
    index = {label: i for i, label in enumerate(labels)}
    tree_graph = nx.Graph()
    tree_graph.add_nodes_from(range(len(labels)))
    tree_graph.add_edges_from((index[u], index[v]) for u, v in tree.edges())
    yield (
        CSRGraph.from_networkx(graph),
        RootedTree(tree_graph, index[tree.root]),
        labels.__getitem__,
    )


def labelled_edge(edge, label) -> frozenset:
    return frozenset(map(label, edge))


# ---------------------------------------------------------------------------
# Brute-force references (no kernel code)
# ---------------------------------------------------------------------------


def walk_is_ancestor(tree: RootedTree, ancestor, node) -> bool:
    while node is not None:
        if node == ancestor:
            return True
        node = tree.parent[node]
    return False


def walk_lca(tree: RootedTree, u, v):
    while tree.depth[u] > tree.depth[v]:
        u = tree.parent[u]
    while tree.depth[v] > tree.depth[u]:
        v = tree.parent[v]
    while u != v:
        u, v = tree.parent[u], tree.parent[v]
    return u


def stack_preorder(tree: RootedTree, node) -> list:
    """Descendants of ``node`` by a stack walk: children pushed in order
    and popped last-in first-out."""
    result, stack = [], [node]
    while stack:
        current = stack.pop()
        result.append(current)
        stack.extend(tree.children[current])
    return result


def walk_subtree_sizes(tree: RootedTree) -> dict:
    sizes = {node: 0 for node in tree.order}
    for node in tree.order:
        current = node
        while current is not None:
            sizes[current] += 1
            current = tree.parent[current]
    return sizes


def middle_component(tree: RootedTree, removed) -> frozenset:
    """The side of the cut crossing exactly ``removed`` among tree edges.

    One edge: the component of ``T - e`` without the root.  Two edges:
    the component of ``T - e - f`` that touches both edges.
    """
    forest = nx.Graph()
    forest.add_nodes_from(tree.order)
    forest.add_edges_from(tree.edges())
    forest.remove_edges_from(removed)
    components = [frozenset(c) for c in nx.connected_components(forest)]
    if len(removed) == 1:
        return next(c for c in components if tree.root not in c)
    e, f = removed
    return next(
        c for c in components if set(e) & c and set(f) & c
    )


def crossing_weight(graph: nx.Graph, side: frozenset):
    return sum(
        weight
        for u, v, weight in graph.edges(data="weight", default=1)
        if (u in side) != (v in side)
    )


class BruteForce:
    """``Cut`` of every 1- and 2-edge subset of a tree, by components."""

    def __init__(self, graph: nx.Graph, tree: RootedTree):
        self.edges = [frozenset(e) for e in tree.edges()]
        self.cut: dict[frozenset, float] = {}
        for e in tree.edges():
            side = middle_component(tree, [e])
            self.cut[frozenset([frozenset(e)])] = crossing_weight(graph, side)
        for e, f in itertools.combinations(tree.edges(), 2):
            side = middle_component(tree, [e, f])
            key = frozenset([frozenset(e), frozenset(f)])
            self.cut[key] = crossing_weight(graph, side)

    def cut_of(self, *edges: frozenset):
        return self.cut[frozenset(edges)]

    def cov(self, e: frozenset, f: frozenset):
        if e == f:
            return self.cut_of(e)
        return (self.cut_of(e) + self.cut_of(f) - self.cut_of(e, f)) / 2

    def minimum(self):
        return min(self.cut.values())


@functools.lru_cache(maxsize=None)
def brute_case(seed, mixed=False, zerow=False, float_weights=False):
    graph, tree = random_case(
        seed, mixed_types=mixed, zero_weights=zerow, float_weights=float_weights
    )
    return graph, tree, BruteForce(graph, tree)


# ---------------------------------------------------------------------------
# Tree primitives
# ---------------------------------------------------------------------------


class TestTreePrimitives:
    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_lca_is_ancestor_subtrees(self, seed, mixed, zerow):
        graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        for _input, rooted, _label in both_inputs(graph, tree):
            rng = random.Random(seed)
            nodes = list(rooted.order)
            pairs = [
                (rng.choice(nodes), rng.choice(nodes)) for _ in range(80)
            ] + [(n, n) for n in nodes[:5]]
            for u, v in pairs:
                assert rooted.lca(u, v) == walk_lca(rooted, u, v)
                assert rooted.is_ancestor(u, v) == walk_is_ancestor(rooted, u, v)
                assert rooted.is_ancestor(v, u) == walk_is_ancestor(rooted, v, u)
            for node in nodes:
                assert rooted.subtree_nodes(node) == stack_preorder(rooted, node)
            assert rooted.subtree_sizes() == walk_subtree_sizes(rooted)

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_vectorized_lca_matches_scalar(self, seed, mixed, zerow):
        _graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        kernel = tree.kernel
        rng = random.Random(seed + 7)
        n = kernel.n
        us = np.array([rng.randrange(n) for _ in range(200)])
        vs = np.array([rng.randrange(n) for _ in range(200)])
        lcas = euler_lca(kernel.up, kernel.tin, kernel.tout, us, vs)
        for u, v, l in zip(us, vs, lcas):
            meet = walk_lca(tree, kernel.nodes[u], kernel.nodes[v])
            assert kernel.nodes[int(l)] == meet
            assert kernel.lca_idx(int(u), int(v)) == int(l)

    def test_euler_intervals_partition_preorder(self):
        _graph, tree = random_case(3)
        kernel = tree.kernel
        # tout - tin is the subtree size; the root spans everything.
        assert kernel.tin[0] == 0 and kernel.tout[0] == kernel.n
        for node, size in walk_subtree_sizes(tree).items():
            i = kernel.index[node]
            assert int(kernel.tout[i] - kernel.tin[i]) == size

    def test_single_node_and_path_trees(self):
        lone = nx.Graph()
        lone.add_node("only")
        tree = RootedTree(lone, "only")
        kernel = tree.kernel
        assert kernel.subtree_nodes("only") == ["only"]
        assert kernel.lca("only", "only") == "only"

        path = RootedTree(nx.path_graph(9), 0)
        kernel = path.kernel
        for u, v in itertools.combinations(range(9), 2):
            assert kernel.lca(u, v) == min(u, v)
            assert kernel.is_ancestor(u, v) == (u <= v)


# ---------------------------------------------------------------------------
# Cover / cut values
# ---------------------------------------------------------------------------


class TestCoverAndCuts:
    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_cover_values_bit_identical(self, seed, mixed, zerow):
        graph, tree, brute = brute_case(seed, mixed, zerow)
        for graph_in, rooted, label in both_inputs(graph, tree):
            fast = cover_values(graph_in, rooted)
            assert len(fast) == len(brute.edges)
            for edge, value in fast.items():
                assert value == brute.cut_of(labelled_edge(edge, label))

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_pair_cover_matrix_bit_identical(self, seed, mixed, zerow):
        graph, tree, brute = brute_case(seed, mixed, zerow)
        for graph_in, rooted, label in both_inputs(graph, tree):
            edges, matrix = pair_cover_matrix(graph_in, rooted)
            assert edges == list(rooted.edges())
            keys = [labelled_edge(edge, label) for edge in edges]
            assert set(keys) == set(brute.edges)
            expected = np.array([[brute.cov(e, f) for f in keys] for e in keys])
            assert np.array_equal(matrix, expected)

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_cut_matrix_and_oracle(self, seed, mixed, zerow):
        graph, tree, brute = brute_case(seed, mixed, zerow)
        for graph_in, rooted, label in both_inputs(graph, tree):
            edges, cuts = cut_matrix(graph_in, rooted)
            keys = [labelled_edge(edge, label) for edge in edges]
            expected = np.array(
                [[brute.cut_of(e, f) if e != f else brute.cut_of(e)
                  for f in keys] for e in keys]
            )
            assert np.array_equal(cuts, expected)
            oracle = two_respecting_oracle(graph_in, rooted)
            assert oracle.value == brute.minimum()
            witness = [labelled_edge(edge, label) for edge in oracle.edges]
            assert brute.cut_of(*witness) == oracle.value

    @pytest.mark.parametrize("seed", CASE_SEEDS[:5])
    def test_float_weights_close(self, seed):
        graph, tree, brute = brute_case(seed, float_weights=True)
        for graph_in, rooted, label in both_inputs(graph, tree):
            fast = cover_values(graph_in, rooted)
            assert len(fast) == len(brute.edges)
            for edge, value in fast.items():
                reference = brute.cut_of(labelled_edge(edge, label))
                assert value == pytest.approx(reference, abs=1e-9)
            edges, matrix = pair_cover_matrix(graph_in, rooted)
            keys = [labelled_edge(edge, label) for edge in edges]
            expected = np.array([[brute.cov(e, f) for f in keys] for e in keys])
            np.testing.assert_allclose(matrix, expected, rtol=0, atol=1e-9)
            oracle = two_respecting_oracle(graph_in, rooted)
            assert oracle.value == pytest.approx(brute.minimum(), abs=1e-9)

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_one_respecting_fast_matches(self, seed, mixed, zerow):
        graph, tree, brute = brute_case(seed, mixed, zerow)
        for graph_in, rooted, label in both_inputs(graph, tree):
            fast = one_respecting_cuts_fast(graph_in, rooted)
            assert len(fast) == len(brute.edges)
            for edge, value in fast.items():
                assert value == brute.cut_of(labelled_edge(edge, label))

    def test_self_loop_is_ignored(self):
        graph, tree = random_case(2)
        node = next(iter(graph.nodes()))
        graph.add_edge(node, node, weight=5)
        for graph_in, rooted, label in both_inputs(graph, tree):
            fast = cover_values(graph_in, rooted)
            for edge, value in fast.items():
                side = middle_component(tree, [tuple(map(label, edge))])
                assert value == crossing_weight(graph, side)

    def test_shared_graph_arrays_match_per_call_extraction(self):
        graph, tree = random_case(4)
        for graph_in, rooted, _label in both_inputs(graph, tree):
            arrays = GraphArrays.from_graph(graph_in)
            assert cover_values(graph_in, rooted, arrays=arrays) == cover_values(
                graph_in, rooted
            )
            _, with_arrays = pair_cover_matrix(graph_in, rooted, arrays=arrays)
            _, without = pair_cover_matrix(graph_in, rooted)
            assert np.array_equal(with_arrays, without)


# ---------------------------------------------------------------------------
# Stacked covers: every packed tree in one pass
# ---------------------------------------------------------------------------


def _reweighted(graph: nx.Graph, regime: str, rng: random.Random) -> nx.Graph:
    """Integer weights as generated, fractional 0.5-20, or a 1e-9 /
    0.1-0.3 / 1e9 mix (the cancellation-prone regime)."""
    for _u, _v, data in graph.edges(data=True):
        if regime == "fractional":
            data["weight"] = rng.uniform(0.5, 20.0)
        elif regime == "mixed":
            data["weight"] = rng.choice([1e-9, rng.uniform(0.1, 0.3), 1e9])
    return graph


def _packed_trees(source):
    """A session packing of ``source`` and its trees in the space the
    recursion uses: node indices, or labels on a labelled graph."""
    from repro.core.session import MinCutSolver, SolverConfig

    packed = MinCutSolver(SolverConfig(solver="minor-aggregation")).pack(
        source, seed=3
    )
    labels = packed.csr.nodes
    if labels is None:
        return packed, packed.arrays, packed.rooted_trees
    packing = packed.packing
    root = labels[packed.root_position]
    trees = [
        packing.rooted_tree(i, root, labelled=True)
        for i in range(len(packing.tree_edge_arrays))
    ]
    return packed, GraphArrays.from_csr(packed.csr, labelled=True), trees


class TestStackedCovers:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("regime", ["integer", "fractional", "mixed"])
    @pytest.mark.parametrize("space", ["networkx", "csr", "labelled"])
    def test_rows_equal_each_tree_alone_and_brute_force(self, seed, regime, space):
        from repro.kernel.cut_kernel import (
            cover_dict,
            cover_values_kernel,
            stacked_covers,
        )

        rng = random.Random(seed)
        n = rng.randint(5, 28)
        graph = random_connected_gnm(n, rng.randint(n, 3 * n), seed=seed, weight_high=17)
        _reweighted(graph, regime, rng)
        if space == "labelled":
            graph = nx.relabel_nodes(graph, {v: f"n{(v * 7) % n}-{v}" for v in graph})
        source = graph if space == "networkx" else CSRGraph.from_networkx(graph)
        packed, arrays, trees = _packed_trees(source)
        assert (packed.csr.nodes is not None) == (space == "labelled")
        reference = packed.csr.to_networkx()
        total = sum(w for _u, _v, w in reference.edges(data="weight"))

        rows = stacked_covers(packed.stack, arrays)
        assert rows.shape == (len(trees), packed.csr.n)
        assert len(trees) > 1
        for t, tree in enumerate(trees):
            stacked = cover_dict(tree, rows[t])
            alone = cover_values_kernel(packed.csr, tree, arrays=arrays)
            assert list(stacked) == list(tree.edges())
            assert [(e, v.hex()) for e, v in stacked.items()] == [
                (e, v.hex()) for e, v in alone.items()
            ]
            for edge, value in stacked.items():
                brute = crossing_weight(reference, middle_component(tree, [edge]))
                if regime == "integer":
                    assert value == brute
                else:
                    assert abs(value - brute) <= 1e-12 * n * total

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_lca_matches_walks(self, seed):
        from repro.kernel.tree_kernel import euler_lca, lifting_table

        rng = random.Random(seed)
        n = rng.randint(2, 40)
        graph = random_connected_gnm(n, 3 * n, seed=seed)
        packed, _arrays, trees = _packed_trees(CSRGraph.from_networkx(graph))
        stack = packed.stack
        rows, width = stack.tin.shape
        offset = np.arange(rows)[:, None] * width
        u = np.array([[rng.randrange(n) for _ in range(60)] for _ in range(rows)])
        v = np.array([[rng.randrange(n) for _ in range(60)] for _ in range(rows)])
        up = lifting_table((stack.parent + offset).ravel(), max(1, (n - 1).bit_length()))
        lca = euler_lca(
            up, stack.tin.ravel(), stack.tout.ravel(),
            (u + offset).ravel(), (v + offset).ravel(),
        ).reshape(rows, -1) - offset
        for t, tree in enumerate(trees):
            order = tree.order
            for a, b, meet in zip(u[t], v[t], lca[t]):
                assert order[meet] == walk_lca(tree, order[a], order[b])


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


class TestPartitions:
    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_cut_partition_all_single_edges(self, seed, mixed, zerow):
        graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        for _input, rooted, label in both_inputs(graph, tree):
            for edge in rooted.edges():
                side = frozenset(map(label, cut_partition(rooted, (edge,))))
                labelled = tuple(map(label, edge))
                assert side == middle_component(tree, [labelled])

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_cut_partition_edge_pairs(self, seed, mixed, zerow):
        graph, tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        for _input, rooted, label in both_inputs(graph, tree):
            rng = random.Random(seed)
            edges = list(rooted.edges())
            pairs = (
                [tuple(rng.sample(edges, 2)) for _ in range(40)]
                if len(edges) >= 2
                else []
            )
            for pair in pairs:
                side = frozenset(map(label, cut_partition(rooted, pair)))
                labelled = [tuple(map(label, edge)) for edge in pair]
                assert side == middle_component(tree, labelled)

    @pytest.mark.parametrize("seed,mixed,zerow", case_variants())
    def test_partition_cut_weight_arrays(self, seed, mixed, zerow):
        graph, _tree = random_case(seed, mixed_types=mixed, zero_weights=zerow)
        csr = CSRGraph.from_networkx(graph)
        labels = list(graph.nodes())
        index = {node: i for i, node in enumerate(labels)}
        arrays = GraphArrays.from_graph(graph)
        rng = random.Random(seed)
        for _ in range(10):
            side = frozenset(rng.sample(labels, rng.randint(1, len(labels) - 1)))
            expected_weight = crossing_weight(graph, side)
            expected_edges = {
                frozenset((u, v))
                for u, v in graph.edges()
                if (u in side) != (v in side)
            }
            for weight, crossing, label in (
                (*partition_cut_weight(graph, side, arrays=arrays), None),
                (*partition_cut_weight(graph, side), None),
                (
                    *partition_cut_weight(
                        csr, frozenset(index[node] for node in side)
                    ),
                    labels.__getitem__,
                ),
            ):
                assert weight == expected_weight
                assert len(crossing) == len(expected_edges)
                assert {
                    frozenset(map(label, edge)) if label else frozenset(edge)
                    for edge in crossing
                } == expected_edges
