"""Golden outputs of the minor-aggregation solver.

Every entry of ``tests/data/ma_golden.json`` pins one seeded
``solver="minor-aggregation"`` solve: the value, the smaller partition
side, the cut edges, the charged Minor-Aggregation rounds, the ledger's
per-label breakdown and the recursion statistics.  The Theorem 40
recursion is deterministic on integer-labelled inputs, so any change to
how its instances are built must reproduce these exactly -- including
the order-dependent Misra-Gries interest sketches, which the ``hub``
case drives past their capacity.

``tests/data/ma_golden_float.json`` pins the same record for seeded
solves with fractional weights (uniform in [0.5, 20)), so the float
arithmetic of every leaf (prefix-grid pair covers, Lemma 21 suffix sums,
``Cut(e, f)`` values) is held bit for bit too, not only its integer
special case.  Each float case was checked against networkx
Stoer-Wagner when it was generated.

Regenerate (only when a change is *meant* to move the outputs)::

    PYTHONPATH=src python tests/test_ma_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import networkx as nx
import pytest

from repro.core.session import MinCutSolver, SolverConfig
from repro.graphs import CSR_FAMILY_BUILDERS, random_connected_gnm

GOLDEN = Path(__file__).parent / "data" / "ma_golden.json"
FLOAT_GOLDEN = Path(__file__).parent / "data" / "ma_golden_float.json"

SIZES = (10, 16, 24)
#: extra packing seeds on the planar families the paper targets.
SEED_CASES = (("grid", 16, 2), ("grid", 16, 3), ("delaunay", 20, 2), ("delaunay", 20, 3))


def _shuffled_gnm() -> nx.Graph:
    """networkx input whose node insertion order is not sorted."""
    source = random_connected_gnm(20, 45, seed=11, weight_high=12)
    rng = random.Random(5)
    perm = list(range(20))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v], d["weight"]) for u, v, d in source.edges(data=True)]
    rng.shuffle(edges)
    graph = nx.Graph()
    graph.add_weighted_edges_from(edges)
    return graph


def _hub(k: int = 14, hub_weight: int = 20, seed: int = 1) -> nx.Graph:
    """A heavy hub over a light clique: the packed trees are hub stars, so
    the star instances hold ~k single-node paths that all see each other
    and every interest sketch overflows its capacity."""
    rng = random.Random(seed)
    graph = nx.Graph()
    for leaf in range(1, k + 1):
        graph.add_edge(0, leaf, weight=hub_weight)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            graph.add_edge(i, j, weight=rng.randint(1, 3))
    return graph


def cases() -> list[tuple[str, object, int]]:
    out = []
    for family, build in CSR_FAMILY_BUILDERS.items():
        for n in SIZES:
            out.append((f"{family}-{n}-s1", build(n, 1), 1))
    for family, n, seed in SEED_CASES:
        out.append(
            (f"{family}-{n}-s{seed}", CSR_FAMILY_BUILDERS[family](n, seed), seed)
        )
    out.append(("nx-shuffled-gnm-20", _shuffled_gnm(), 3))
    out.append(("nx-hub-14", _hub(), 1))
    return out


#: (family, n, seed) of the fractional-weight cases.
FLOAT_CASES = (
    ("grid", 16, 1), ("grid", 16, 4), ("delaunay", 18, 1),
    ("delaunay", 24, 2), ("gnm", 16, 1), ("gnm", 24, 3),
    ("cycle", 16, 1), ("planted", 20, 2), ("expander", 16, 1),
    ("tree-chords", 18, 1), ("barbell", 16, 2), ("gnm", 40, 2),
    ("delaunay", 40, 1),
)


def _fractional(graph, seed: int):
    """``graph`` with every weight redrawn uniformly from [0.5, 20)."""
    rng = random.Random(1000 + seed)
    return graph.with_weights([rng.uniform(0.5, 20.0) for _ in range(graph.m)])


def _float_nx_gnm() -> nx.Graph:
    """A networkx input with fractional weights and shuffled node order."""
    graph = nx.Graph()
    for u, v, w in _shuffled_gnm().edges(data="weight"):
        graph.add_edge(u, v, weight=w / 7.0 + 0.125)
    return graph


def float_cases() -> list[tuple[str, object, int]]:
    out = [
        (
            f"{family}-{n}-s{seed}-float",
            _fractional(CSR_FAMILY_BUILDERS[family](n, seed), seed),
            seed,
        )
        for family, n, seed in FLOAT_CASES
    ]
    out.append(("nx-shuffled-gnm-20-float", _float_nx_gnm(), 3))
    return out


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(x) for x in value]
    return value


def record(graph, seed: int) -> dict:
    result = MinCutSolver(SolverConfig(solver="minor-aggregation")).solve(
        graph, seed=seed
    )
    side = min(result.partition, key=lambda s: (len(s), sorted(s)))
    return {
        "value": result.value,
        "side": sorted(side),
        "cut_edges": _jsonable(result.cut_edges),
        "ma_rounds": result.ma_rounds,
        "by_label": result.stats["accountant"]["by_label"],
        "general_solver": result.stats["general_solver"],
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _float_golden() -> dict:
    return json.loads(FLOAT_GOLDEN.read_text())


@pytest.mark.parametrize(
    "name,graph,seed",
    [pytest.param(*case, id=case[0]) for case in cases()],
)
def test_ma_solve_matches_golden(name, graph, seed):
    assert record(graph, seed) == _golden()[name]


def test_golden_covers_corpus():
    assert sorted(_golden()) == sorted(name for name, _g, _s in cases())


@pytest.mark.parametrize(
    "name,graph,seed",
    [pytest.param(*case, id=case[0]) for case in float_cases()],
)
def test_ma_float_solve_matches_golden(name, graph, seed):
    assert record(graph, seed) == _float_golden()[name]


def test_float_golden_covers_corpus():
    assert sorted(_float_golden()) == sorted(
        name for name, _g, _s in float_cases()
    )


def _stoer_wagner_value(graph) -> float:
    if not isinstance(graph, nx.Graph):
        graph = graph.to_networkx()
    value, _partition = nx.stoer_wagner(graph)
    return value


def _write_float_golden() -> None:
    data = {}
    for name, graph, seed in float_cases():
        entry = record(graph, seed)
        truth = _stoer_wagner_value(graph)
        if abs(entry["value"] - truth) > 1e-9 * max(1.0, truth):
            raise AssertionError(f"{name}: {entry['value']} != Stoer-Wagner {truth}")
        data[name] = entry
    FLOAT_GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} entries to {FLOAT_GOLDEN}")


def test_hub_case_overflows_interest_sketches(monkeypatch):
    """The fixture exercises order-dependent sketch state: some interest
    sketch decrements (overflows its capacity) during the hub solve."""
    from repro.ma import operators

    overflows = []
    merged = operators.MisraGries.merged

    def spy(self, other):
        out = merged(self, other)
        if out.decremented > self.decremented + other.decremented:
            overflows.append(out.decremented)
        return out

    monkeypatch.setattr(operators.MisraGries, "merged", spy)
    record(_hub(), 1)
    assert overflows


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: record(graph, seed) for name, graph, seed in cases()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} entries to {GOLDEN}")
    _write_float_golden()
