"""The packing's approximate min-cut over a whole batch at once.

:func:`~repro.core.tree_packing._contract_many` runs the Padberg-Rinaldi
passes of every graph of a batch over one concatenated edge table, each
graph stopping on its own condition, and leaves CAPFOREST passes to the
kernels that stall.  Each graph's outcome -- upper bound, pass count,
kernel edge table and final value -- must equal, by ``float.hex``, its
batch of one and the pass-by-pass contraction of the graph alone
(written out below on CSR graphs), over every family, three seeds and
n 24/36/48, on integer, fractional, mixed-magnitude and zero-weight
edges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.stoer_wagner import stoer_wagner_min_cut
from repro.core.tree_packing import (
    _capforest_value,
    _contract_many,
    _min_cut_value,
    pack_trees_many,
)
from repro.graphs import CSR_FAMILY_BUILDERS
from repro.graphs.csr import CSRGraph, merge_components
from repro.obs import trace

FAMILIES = sorted(CSR_FAMILY_BUILDERS)
WEIGHTS = ("integer", "fractional", "mixed", "zero")


def _weighted(graph, kind: str, seed: int):
    rng = np.random.default_rng(seed)
    m = graph.m
    if kind == "fractional":
        return graph.with_weights(rng.uniform(0.1, 0.3, m))
    if kind == "mixed":
        return graph.with_weights(rng.choice([1e-9, 1e9], m) + rng.uniform(0.1, 0.3, m))
    if kind == "zero":
        weights = graph.edge_w.copy()
        weights[rng.random(m) < 0.25] = 0.0
        return graph.with_weights(weights)
    return graph


def _batch(kind: str):
    return [
        _weighted(CSR_FAMILY_BUILDERS[family](n, seed), kind, 97 * seed + n)
        for family in FAMILIES
        for seed in (1, 2, 3)
        for n in (24, 36, 48)
    ]


def _one_graph(graph):
    """The contraction of one graph, pass by pass on CSR graphs: ``(best,
    passes, kernel, value)``, written out here without the batch's
    concatenated table."""
    kernel = graph.drop_self_loops()
    best, passes, stalled = float("inf"), 0, None
    while kernel.n > 1:
        passes += 1
        k, eu, ev, ew = kernel.n, kernel.edge_u, kernel.edge_v, kernel.edge_w
        degree = np.bincount(eu, ew, minlength=k)
        degree += np.bincount(ev, ew, minlength=k)
        best = min(best, float(degree.min()))
        if k == 2:
            break
        src = np.repeat(np.arange(k), np.diff(kernel.indptr))
        first = np.lexsort((-kernel.adj_weight, src))[kernel.indptr[:-1]]
        witness = 2 * kernel.adj_weight[first] >= degree
        heavy = ew >= best
        labels = merge_components(
            np.arange(k),
            np.concatenate([eu[heavy], np.flatnonzero(witness)]),
            np.concatenate([ev[heavy], kernel.indices[first][witness]]),
        )
        if (labels == np.arange(k)).all():
            stalled = kernel
            break
        kernel, _dense = kernel.contract(labels)
    value = best
    if stalled is not None:
        value = _capforest_value(stalled, best)[0]
    return best, passes, stalled, float(value)


def _outcome(best, passes, kernel, value):
    table = None
    if kernel is not None:
        table = (
            kernel.n, kernel.edge_u.tolist(), kernel.edge_v.tolist(),
            [w.hex() for w in kernel.edge_w.tolist()],
        )
    return best.hex(), passes, table, value.hex()


@pytest.mark.parametrize("kind", WEIGHTS)
def test_batch_equals_one_graph_computation(kind):
    graphs = _batch(kind)
    batched = _contract_many(graphs)
    for graph, cut in zip(graphs, batched):
        want = _outcome(*_one_graph(graph))
        assert _outcome(cut.best, cut.passes, cut.kernel, cut.value()) == want
        (alone,) = _contract_many([graph])
        assert _outcome(alone.best, alone.passes, alone.kernel, alone.value()) == want
        assert _min_cut_value(graph).hex() == want[-1]
    assert any(cut.kernel is None for cut in batched)
    assert max(cut.passes for cut in batched) >= 2


@pytest.mark.parametrize("kind", ["integer", "fractional", "mixed"])
def test_batches_hold_stalled_kernels(kind):
    """Some graphs of each batch stall and hand CAPFOREST a kernel."""
    assert any(cut.kernel is not None for cut in _contract_many(_batch(kind)))


def test_integer_values_equal_stoer_wagner():
    for graph, cut in zip(_batch("integer"), _contract_many(_batch("integer"))):
        assert cut.value() == stoer_wagner_min_cut(graph)[0]


def test_zero_weight_cuts_are_zero():
    graphs = _batch("zero")
    values = [cut.value() for cut in _contract_many(graphs)]
    assert 0.0 in values
    for graph, value in zip(graphs, values):
        assert value == stoer_wagner_min_cut(graph)[0]


def test_disconnected_member_rejected():
    good = CSR_FAMILY_BUILDERS["gnm"](24, 1)
    split = CSRGraph(4, [0, 2], [1, 3], [1.0, 1.0])
    with pytest.raises(ValueError, match="connected"):
        _contract_many([good, split])


def test_each_graph_span_carries_kernel_n_and_passes():
    graphs = _batch("fractional")[:12]
    trace.clear()
    with trace.tracing():
        pack_trees_many(graphs, list(range(len(graphs))))
    records = trace.records()
    trace.clear()
    (contract,) = [r for r in records if r.name == "pack.contract"]
    assert contract.attrs["graphs"] == len(graphs)
    spans = [r for r in records if r.name == "pack.approx_min_cut"]
    assert [span.attrs["n"] for span in spans] == [graph.n for graph in graphs]
    for graph, span in zip(graphs, spans):
        (alone,) = _contract_many([graph])
        kernel_n = 1 if alone.kernel is None else alone.kernel.n
        assert span.attrs["kernel_n"] == kernel_n
        assert span.attrs["passes"] == alone.passes
        assert span.attrs["acct"] == "packing:approx-min-cut"


def test_sweep_runs_one_connectivity_search_per_graph(monkeypatch):
    """Validation's connectivity answer is kept on the graph, and the
    approximate min-cut reads it instead of searching again."""
    import repro

    graphs = [
        CSRGraph(g.n, g.edge_u, g.edge_v, g.edge_w, canonical=True)
        for g in (CSR_FAMILY_BUILDERS[family](30, 2) for family in FAMILIES)
    ]
    searched = []
    components = CSRGraph.connected_components

    def spy(self):
        searched.append(id(self))
        return components(self)

    monkeypatch.setattr(CSRGraph, "connected_components", spy)
    repro.minimum_cut_many(graphs, seeds=1, solver="oracle")
    assert [searched.count(id(graph)) for graph in graphs] == [1] * len(graphs)


def test_pack_trees_rejects_disconnected_graph():
    from repro.core.tree_packing import pack_trees

    with pytest.raises(ValueError, match="graph must be connected"):
        pack_trees(CSRGraph(5, [0, 1, 3], [1, 2, 4], [5.0, 5.0, 5.0]))
