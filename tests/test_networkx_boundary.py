"""Networkx only at the boundary: a networkx input solves exactly like its
CSR conversion.

Every entry point converts a networkx graph once with
``CSRGraph.from_networkx`` and runs the CSR pipeline from there, so for
every solver the result on a networkx graph -- built here with shuffled
node and edge insertion order and int, str, tuple and mixed labels --
must equal the result on ``CSRGraph.from_networkx(graph)`` in every
field: value, partition, cut edges, candidate, winning tree, round ledger
and CONGEST estimates.  Both sides of each comparison run in one
process, so they share its string-hash seed (the Minor-Aggregation
ledgers of string-labelled graphs depend on it); run the file with
``PYTHONHASHSEED=0`` to reproduce a ledger across processes.
"""

from __future__ import annotations

import asyncio
import random

import networkx as nx
import pytest

import repro
from repro.graphs import CSRGraph, random_connected_gnm
from repro.serve import MinCutService, ServeConfig

SOLVERS = ("minor-aggregation", "oracle", "stoer-wagner", "karger")

LABELS = {
    "int": lambda v: v,
    "str": lambda v: f"n{v}",
    "tuple": lambda v: (v % 3, v),
    "mixed": lambda v: (v, f"s{v}", (v, "t"))[v % 3],
}


def shuffled_graph(kind: str, seed: int, n: int = 11) -> nx.Graph:
    """A connected weighted graph whose networkx insertion order is not
    the canonical one: nodes and edges shuffled, endpoints swapped."""
    rng = random.Random(seed)
    base = random_connected_gnm(n, 2 * n + 2, seed=seed, weight_high=9)
    name = LABELS[kind]
    nodes = [name(v) for v in base.nodes()]
    rng.shuffle(nodes)
    edges = []
    for u, v, w in base.edges(data="weight"):
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((name(u), name(v), w))
    rng.shuffle(edges)
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_weighted_edges_from(edges)
    return graph


CASES = [(kind, seed) for kind in LABELS for seed in (1, 2)]


def assert_same(got, want):
    assert got.value == want.value
    assert got.partition == want.partition
    assert got.cut_edges == want.cut_edges
    assert got.candidate == want.candidate
    assert got.best_tree_index == want.best_tree_index
    assert got.ma_rounds == want.ma_rounds
    assert got.stats["accountant"] == want.stats["accountant"]
    assert got.congest == want.congest


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("kind,seed", CASES)
def test_minimum_cut_equals_csr_conversion(kind, seed, solver):
    graph = shuffled_graph(kind, seed)
    csr = CSRGraph.from_networkx(graph)
    assert csr.nodes is not None  # shuffled order: a labelled conversion
    got = repro.minimum_cut(graph, seed=seed, solver=solver)
    want = repro.minimum_cut(csr, seed=seed, solver=solver)
    assert_same(got, want)
    assert got.verify(graph).ok


@pytest.mark.parametrize("certify", [False, True])
@pytest.mark.parametrize("solver", SOLVERS)
def test_minimum_cut_many_equals_csr_conversion(solver, certify):
    graphs = [shuffled_graph(kind, seed) for kind, seed in CASES]
    csrs = [CSRGraph.from_networkx(graph) for graph in graphs]
    seeds = [seed for _kind, seed in CASES]
    config = repro.SolverConfig(solver=solver)
    got = repro.minimum_cut_many(graphs, config, seeds=seeds, certify=certify)
    want = repro.minimum_cut_many(csrs, config, seeds=seeds, certify=certify)
    for index, (a, b) in enumerate(zip(got, want)):
        assert_same(a, b)
        assert a.stats["sweep"] == b.stats["sweep"] == {
            "index": index,
            "graph_hash": csrs[index].canonical_hash(),
        }
        if certify:
            assert a.stats["certificate"] == b.stats["certificate"]
            assert a.stats["certificate"]["ok"]


@pytest.mark.parametrize("solver", SOLVERS)
def test_service_equals_csr_conversion(solver):
    graphs = [shuffled_graph(kind, 3) for kind in LABELS]

    async def serve(inputs):
        config = repro.SolverConfig(solver="oracle", compute_congest=False)
        async with MinCutService(
            config, serve=ServeConfig(batch_ms=2.0)
        ) as service:
            return await asyncio.gather(
                *(service.submit(g, seed=3, solver=solver) for g in inputs)
            )

    got = asyncio.run(serve(graphs))
    want = asyncio.run(serve([CSRGraph.from_networkx(g) for g in graphs]))
    for a, b in zip(got, want):
        assert_same(a, b)
