"""Differential tests of the packing's exact min-cut value.

``repro.core.tree_packing._min_cut_value`` contracts edges by the
Padberg-Rinaldi tests and runs CAPFOREST passes only on the kernel that
is left; Stoer-Wagner is the independent reference.  On integer weights
its value must equal both Stoer-Wagner implementations exactly (the
packing's regime, sampling probability and binomial draws depend on it
bit for bit); on non-integral weights it may differ only by float
rounding.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.stoer_wagner import csr_stoer_wagner, stoer_wagner_min_cut
from repro.core.tree_packing import _min_cut_value
from repro.graphs import CSR_FAMILY_BUILDERS, csr_random_connected_gnm
from repro.graphs.csr import CSRGraph
from repro.obs.trace import Span


def _networkx_value(graph: CSRGraph) -> float:
    reference = nx.Graph()
    reference.add_nodes_from(range(graph.n))
    for u, v, w in zip(
        graph.edge_u.tolist(), graph.edge_v.tolist(), graph.edge_w.tolist()
    ):
        if u != v:
            reference.add_edge(u, v, weight=w)
    value, _partition = nx.stoer_wagner(reference)
    return value


@st.composite
def connected_graphs(draw, weight):
    """A connected multigraph on 2..12 nodes: a tree, cycle or random
    backbone, then extra edges that may repeat a pair or be a loop."""
    n = draw(st.integers(2, 12))
    shape = draw(st.sampled_from(["tree", "cycle", "path", "random"]))
    if shape == "cycle" and n >= 3:
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif shape == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    else:
        pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if shape == "random":
        extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs += draw(st.lists(extra, max_size=3 * n))
    weights = [draw(weight) for _ in pairs]
    u, v = zip(*pairs)
    return CSRGraph(n, list(u), list(v), weights)


INTEGER_WEIGHTS = st.one_of(
    st.integers(0, 9), st.just(0), st.integers(10**5, 10**7)
)
FLOAT_WEIGHTS = st.floats(0.0, 1e3, allow_nan=False, allow_subnormal=False)


@settings(max_examples=400, deadline=None)
@given(connected_graphs(INTEGER_WEIGHTS))
def test_integer_weights_match_stoer_wagner_exactly(graph):
    value = _min_cut_value(graph)
    assert value == stoer_wagner_min_cut(graph)[0]
    assert value == _networkx_value(graph)


@settings(max_examples=300, deadline=None)
@given(connected_graphs(FLOAT_WEIGHTS))
def test_float_weights_match_stoer_wagner_up_to_rounding(graph):
    value = _min_cut_value(graph)
    reference = stoer_wagner_min_cut(graph)[0]
    assert math.isclose(value, reference, rel_tol=1e-12, abs_tol=0.0)


def test_two_nodes_is_the_edge_weight():
    graph = CSRGraph(2, [0, 0, 1], [1, 1, 1], [3.0, 4.0, 5.0])
    assert _min_cut_value(graph) == 7.0 == stoer_wagner_min_cut(graph)[0]


@pytest.mark.parametrize(
    "graph",
    [
        CSRGraph(4, [0, 2], [1, 3], [1.0, 1.0]),
        CSRGraph(3, [0, 2], [1, 2], [1.0, 1.0]),
        CSRGraph(5, [0, 1, 3], [1, 2, 4], [5.0, 5.0, 5.0]),
    ],
    ids=["two-pairs", "isolated-with-loop", "path-and-pair"],
)
def test_disconnected_graph_raises(graph):
    with pytest.raises(ValueError, match="connected"):
        _min_cut_value(graph)
    with pytest.raises(ValueError, match="connected"):
        stoer_wagner_min_cut(graph)


def test_single_node_raises():
    with pytest.raises(ValueError):
        _min_cut_value(CSRGraph(1, [], []))


SWEEP_SIZES = (12, 48, 128, 256)
SWEEP_SEEDS = (1, 2, 3)


@pytest.mark.parametrize("n", SWEEP_SIZES)
@pytest.mark.parametrize("family", sorted(CSR_FAMILY_BUILDERS))
def test_family_sweep_matches_stoer_wagner_exactly(family, n):
    for seed in SWEEP_SEEDS:
        graph = CSR_FAMILY_BUILDERS[family](n, seed)
        assert _min_cut_value(graph) == stoer_wagner_min_cut(graph)[0], seed


@pytest.mark.parametrize(
    "family,n,seed,large_kernel",
    [("delaunay", 128, 1, True), ("gnm", 256, 1, False)],
)
def test_sweep_covers_kernel_and_full_contraction(family, n, seed, large_kernel):
    """One sweep graph stalls with more than n/2 supernodes, so the
    kernel's CAPFOREST passes run; another contracts to one supernode."""
    span = Span("pack.approx_min_cut", {})
    graph = CSR_FAMILY_BUILDERS[family](n, seed)
    assert _min_cut_value(graph, span) == stoer_wagner_min_cut(graph)[0]
    assert span.attrs["passes"] >= 1
    if large_kernel:
        assert span.attrs["kernel_n"] > n / 2
    else:
        assert span.attrs["kernel_n"] == 1


def test_zero_weight_bridge_gives_zero():
    graph = CSRGraph(
        6,
        [0, 1, 2, 2, 3, 4, 5],
        [1, 2, 0, 3, 4, 5, 3],
        np.array([4, 4, 4, 0, 4, 4, 4], dtype=float),
    )
    assert _min_cut_value(graph) == 0.0 == stoer_wagner_min_cut(graph)[0]


@pytest.mark.parametrize("n,kernel_n", [(256, 256), (512, 510)])
def test_unit_weight_gnm_kernels_match_both_references(n, kernel_n):
    """Unit-weight gnm with m = 4n stalls the Padberg-Rinaldi passes at
    once, so nearly the whole graph is left to the CAPFOREST passes."""
    graph = csr_random_connected_gnm(n, 4 * n, seed=1, weight_high=1)
    span = Span("pack.approx_min_cut", {})
    value = _min_cut_value(graph, span)
    assert span.attrs["kernel_n"] == kernel_n
    assert span.attrs["capforest_passes"] >= 1
    assert value == csr_stoer_wagner(graph)[0]
    assert value == _networkx_value(graph)


def test_zero_weight_bridge_inside_a_stalled_kernel():
    """Two unit-weight gnm graphs joined by one zero-weight edge: the
    Padberg-Rinaldi passes stall on all 64 nodes, and the CAPFOREST
    passes must find the zero cut that no degree shows."""
    n = 32
    left = csr_random_connected_gnm(n, 4 * n, seed=1, weight_high=1)
    right = csr_random_connected_gnm(n, 4 * n, seed=2, weight_high=1)
    graph = CSRGraph(
        2 * n,
        np.concatenate([left.edge_u, right.edge_u + n, [n - 1]]),
        np.concatenate([left.edge_v, right.edge_v + n, [n]]),
        np.concatenate([left.edge_w, right.edge_w, [0.0]]),
    )
    assert graph.weighted_degrees().min() > 0
    span = Span("pack.approx_min_cut", {})
    assert _min_cut_value(graph, span) == 0.0 == csr_stoer_wagner(graph)[0]
    assert span.attrs["kernel_n"] == 2 * n
    assert span.attrs["capforest_passes"] >= 1


def test_oracle_solves_and_sweeps_call_no_stoer_wagner(monkeypatch):
    """The packing's λ is CAPFOREST's: no ``oracle`` solve or sweep
    reaches either Stoer-Wagner entry point, stalled kernels included."""
    import repro
    from repro.baselines import stoer_wagner

    def refuse(*_args, **_kwargs):
        raise AssertionError("Stoer-Wagner called")

    monkeypatch.setattr(stoer_wagner, "stoer_wagner_min_cut", refuse)
    monkeypatch.setattr(stoer_wagner, "csr_stoer_wagner", refuse)
    stalled = CSR_FAMILY_BUILDERS["delaunay"](128, 1)
    span = Span("pack.approx_min_cut", {})
    _min_cut_value(stalled, span)
    assert span.attrs["kernel_n"] > 1
    config = repro.SolverConfig(solver="oracle", compute_congest=False)
    repro.MinCutSolver(config).solve(stalled, seed=1)
    batch = [
        CSR_FAMILY_BUILDERS[family](40, 3)
        for family in sorted(CSR_FAMILY_BUILDERS)
    ]
    repro.minimum_cut_many(batch + [stalled], config, seeds=1, strict=True)
