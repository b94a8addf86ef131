"""``compiled_boruvka_rows`` against independent references.

The batched Boruvka of tree packing (:mod:`repro.ma.compiled`) must
return, for every graph of a concatenated edge table, the minimum
spanning forest under the distinct (graph, cost, tie rank) positions --
here ``scipy.sparse.csgraph.minimum_spanning_tree`` on 1-based position
weights -- and the phase count of a plain per-phase Boruvka written out
below with a Python union-find.  Inputs are batches of mixed sizes with
rows shuffled across graphs, heavy cost ties, parallel edges and loops,
and path and star shapes whose pointer chains are long, and graphs whose keys
tie row for row across the table.  The
``merge_components`` property at the end is the contract its callers
(``connected_components``, ``_contract_many``) read.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from repro.accounting import log2ceil
from repro.errors import SolverError
from repro.graphs.csr import merge_components
from repro.ma.compiled import compiled_boruvka_rows

#: a cap no graph of at most 40 nodes can reach.
UNBOUNDED = 64


def _pairs(shape: str, n: int, rng: np.random.Generator) -> list:
    relabel = rng.permutation(n)
    if shape == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        pairs = [(0, i) for i in range(1, n)]
    else:  # random multigraph: may be disconnected, repeat pairs, loop
        count = int(rng.integers(1, 3 * n + 1))
        pairs = [tuple(p) for p in rng.integers(0, n, size=(count, 2))]
    return [(int(relabel[u]), int(relabel[v])) for u, v in pairs]


#: a graph's phase cap as a function of its node count.
NATURAL_CAPS = st.sampled_from(
    [lambda n: 0, lambda n: log2ceil(n) + 1, lambda n: UNBOUNDED]
)
BINDING_CAPS = st.integers(0, 3).map(lambda cap: lambda n: cap)


@st.composite
def batches(draw, caps=NATURAL_CAPS):
    """A concatenated edge table of 1-6 graphs over disjoint node blocks,
    its rows shuffled across graphs, plus the graphs' sizes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 6))
    costs = draw(st.sampled_from(["small", "zero", "fraction"]))
    sizes, edge_u, edge_v, graph_of, tie_rank, phase_caps = [], [], [], [], [], []
    offset = 0
    for g in range(count):
        n = draw(st.integers(2, 40))
        pairs = _pairs(draw(st.sampled_from(["random", "path", "star"])), n, rng)
        edge_u += [u + offset for u, _ in pairs]
        edge_v += [v + offset for _, v in pairs]
        graph_of += [g] * len(pairs)
        tie_rank += rng.permutation(len(pairs)).tolist()
        phase_caps.append(draw(caps)(n))
        sizes.append(n)
        offset += n
    m = len(edge_u)
    if costs == "small":
        cost = rng.integers(0, 4, size=m).astype(np.float64)
    elif costs == "zero":
        cost = np.zeros(m)
    else:
        cost = rng.integers(0, 4, size=m) / rng.integers(1, 4, size=m)
    shuffle = rng.permutation(m)
    table = (
        np.asarray(edge_u, dtype=np.int64)[shuffle],
        np.asarray(edge_v, dtype=np.int64)[shuffle],
        cost[shuffle],
        np.asarray(tie_rank, dtype=np.int64)[shuffle],
        np.asarray(graph_of, dtype=np.int64)[shuffle],
        np.asarray(phase_caps, dtype=np.int64),
        offset,
    )
    return table, sizes


def scipy_forest(edge_u, edge_v, cost, tie_rank, graph_of, phase_caps, n_nodes):
    """Rows of the minimum spanning forest of the graphs with a positive
    cap, weighted by 1-based (graph, cost, tie) position."""
    order = np.lexsort((tie_rank, cost, graph_of))
    weight = np.empty(len(order))
    weight[order] = np.arange(1, len(order) + 1)
    best = {}  # parallel edges: only the lightest of a pair can be chosen
    for row in range(len(order)):
        u, v = sorted((int(edge_u[row]), int(edge_v[row])))
        if u != v and phase_caps[graph_of[row]] > 0:
            if (u, v) not in best or weight[row] < weight[best[u, v]]:
                best[u, v] = row
    if not best:
        return []
    rows = list(best.values())
    pairs = np.array(list(best.keys()))
    matrix = coo_matrix(
        (weight[rows], (pairs[:, 0], pairs[:, 1])), shape=(n_nodes, n_nodes)
    )
    forest = minimum_spanning_tree(matrix).tocoo()
    return sorted(best[min(u, v), max(u, v)]
                  for u, v in zip(forest.row.tolist(), forest.col.tolist()))


def plain_boruvka(edge_u, edge_v, cost, tie_rank, graph_of, phase_caps, n_nodes):
    """One phase at a time: every running graph counts the phase, each
    component takes its least outgoing position, and a graph stops after
    its first phase without an outgoing edge or at its cap."""
    m = len(edge_u)
    position = {
        row: p for p, row in enumerate(
            sorted(range(m), key=lambda r: (graph_of[r], cost[r], tie_rank[r], r))
        )
    }
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    chosen = set()
    phases = [0] * len(phase_caps)
    running = [cap > 0 for cap in phase_caps.tolist()]
    for phase in range(max(phase_caps.tolist(), default=0)):
        running = [r and phase < cap for r, cap in zip(running, phase_caps)]
        if not any(running):
            break
        offers = {}
        has_outgoing = set()
        for row in range(m):
            g = int(graph_of[row])
            a, b = find(int(edge_u[row])), find(int(edge_v[row]))
            if not running[g] or a == b:
                continue
            has_outgoing.add(g)
            for end in (a, b):
                if end not in offers or position[row] < position[offers[end]]:
                    offers[end] = row
        for g, r in enumerate(running):
            phases[g] += r
            running[g] = r and g in has_outgoing
        for row in offers.values():
            chosen.add(row)
            a, b = find(int(edge_u[row])), find(int(edge_v[row]))
            if a != b:
                parent[max(a, b)] = min(a, b)
    return sorted(chosen), phases


@settings(max_examples=150, deadline=None)
@given(batches())
def test_rows_are_the_rank_weight_forest_and_phases_the_plain_loop(batch):
    table, sizes = batch
    rows, phases = compiled_boruvka_rows(*table)
    assert rows.tolist() == scipy_forest(*table)
    want_rows, want_phases = plain_boruvka(*table)
    assert rows.tolist() == want_rows
    assert phases.tolist() == want_phases
    for n, count in zip(sizes, phases.tolist()):
        assert count <= log2ceil(n) + 1


@settings(max_examples=100, deadline=None)
@given(batches(caps=BINDING_CAPS))
def test_binding_caps_match_the_plain_loop(batch):
    table, _sizes = batch
    rows, phases = compiled_boruvka_rows(*table)
    want_rows, want_phases = plain_boruvka(*table)
    assert rows.tolist() == want_rows
    assert phases.tolist() == want_phases


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 60))
def test_graphs_with_equal_keys_row_for_row_solve_as_alone(seed, count, m):
    """Graphs whose cost and tie-rank arrays are equal row for row tie
    on every key across the concatenated table; each graph's rows and
    phases must still be those of its own call."""
    rng = np.random.default_rng(seed)
    cost = rng.integers(0, 3, size=m) / rng.integers(1, 3, size=m)
    tie_rank = rng.permutation(m)
    alone, blocks = [], []
    offset = 0
    for _g in range(count):
        n = int(rng.integers(2, 30))
        ends = rng.integers(0, n, size=(m, 2))
        cap = int(rng.choice([0, 1, log2ceil(n) + 1, UNBOUNDED]))
        rows, phases = compiled_boruvka_rows(
            ends[:, 0], ends[:, 1], cost, tie_rank,
            np.zeros(m, dtype=np.int64), np.array([cap]), n,
        )
        alone.append((rows.tolist(), phases.tolist()))
        blocks.append((ends + offset, cap))
        offset += n
    rows, phases = compiled_boruvka_rows(
        np.concatenate([ends[:, 0] for ends, _cap in blocks]),
        np.concatenate([ends[:, 1] for ends, _cap in blocks]),
        np.tile(cost, count), np.tile(tie_rank, count),
        np.repeat(np.arange(count), m),
        np.array([cap for _ends, cap in blocks]), offset,
    )
    for g, (want_rows, want_phases) in enumerate(alone):
        mine = rows[(rows >= g * m) & (rows < (g + 1) * m)] - g * m
        assert mine.tolist() == want_rows
        assert [phases[g]] == want_phases


@pytest.mark.parametrize("name", ["cost", "tie_rank", "graph_of"])
def test_length_mismatch_raises(name):
    args = dict(
        edge_u=np.array([0, 1]), edge_v=np.array([1, 2]),
        cost=np.zeros(2), tie_rank=np.arange(2),
        graph_of=np.zeros(2, dtype=np.int64),
        phase_caps=np.array([3]), n_nodes=3,
    )
    args[name] = args[name][:1]
    with pytest.raises(SolverError, match=f"{name} array has 1 entries for 2 edges"):
        compiled_boruvka_rows(**args)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 60).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                     max_size=2 * n),
        )
    )
)
def test_merge_components_labels_each_component_by_its_least_index(case):
    n, pairs = case
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    labels = merge_components(np.arange(n, dtype=np.int64), u, v)
    assert np.array_equal(labels[labels], labels)
    _count, component = connected_components(
        coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n)), directed=False
    )
    least = np.full(n, n)
    np.minimum.at(least, component, np.arange(n))
    assert labels.tolist() == least[component].tolist()
