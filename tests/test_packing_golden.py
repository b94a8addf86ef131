"""Golden outputs of the Theorem 12 tree packing at ``solve`` sizes.

Every entry of ``tests/data/packing_golden.json`` pins one seeded
``solver="oracle"`` solve on a CSR family graph with n in {64, 128, 256}
(or one graph of a ``minimum_cut_many`` batch): the packing's
approximate min-cut, regime and sampling probability, a digest of the
packed trees' edge arrays, the packing part of the round ledger, and the
solve's value, smaller side and winning tree.  The approximate min-cut
picks the regime and Karger's sampling probability, which seed the
binomial draws, so any change to how it is computed must reproduce
these exactly; several entries are in the sampled regime.

Regenerate (only when a change is *meant* to move the outputs)::

    PYTHONPATH=src python tests/test_packing_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.session import MinCutSolver, SolverConfig, minimum_cut_many
from repro.graphs import CSR_FAMILY_BUILDERS

GOLDEN = Path(__file__).parent / "data" / "packing_golden.json"

SIZES = (64, 128, 256)
SEEDS = (1, 2)
#: one fused sweep: (family, n, graph seed, packing seed) per slot.
BATCH = (
    ("gnm", 48, 3, 0),
    ("expander", 64, 4, 1),
    ("grid", 36, 5, 2),
    ("planted", 80, 6, 3),
    ("barbell", 40, 7, 4),
    ("delaunay", 72, 8, 5),
)


def cases() -> list[tuple[str, int, int]]:
    return [
        (family, n, seed)
        for family in CSR_FAMILY_BUILDERS
        for n in SIZES
        for seed in SEEDS
    ]


def _name(family: str, n: int, seed: int) -> str:
    return f"{family}-{n}-s{seed}"


def _digest(tree_edge_arrays) -> str:
    hasher = hashlib.sha256()
    for eu, ev in tree_edge_arrays:
        hasher.update(np.asarray(eu, dtype=np.int64).tobytes())
        hasher.update(b"|")
        hasher.update(np.asarray(ev, dtype=np.int64).tobytes())
        hasher.update(b";")
    return hasher.hexdigest()


def record(result) -> dict:
    packing = result.packing
    side = min(result.partition, key=lambda s: (len(s), sorted(s)))
    return {
        "approx_cut_value": packing.approx_cut_value,
        "sampled": packing.sampled,
        "sampling_probability": packing.sampling_probability,
        "trees": len(packing.tree_edge_arrays),
        "tree_digest": _digest(packing.tree_edge_arrays),
        "packing_ledger": {
            label: rounds
            for label, rounds in result.stats["accountant"]["by_label"].items()
            if label.startswith("packing:")
        },
        "value": result.value,
        "side": sorted(side),
        "best_tree_index": result.best_tree_index,
    }


def solve_record(family: str, n: int, seed: int) -> dict:
    graph = CSR_FAMILY_BUILDERS[family](n, seed)
    result = MinCutSolver(SolverConfig(solver="oracle")).solve(graph, seed=seed)
    return record(result)


def batch_records() -> dict:
    graphs = [CSR_FAMILY_BUILDERS[f](n, s) for f, n, s, _p in BATCH]
    results = minimum_cut_many(
        graphs, SolverConfig(solver="oracle"),
        seeds=[p for _f, _n, _s, p in BATCH], strict=True,
    )
    return {
        f"batch-{i}-{f}-{n}": record(result)
        for i, ((f, n, _s, _p), result) in enumerate(zip(BATCH, results))
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "family,n,seed",
    [pytest.param(*case, id=_name(*case)) for case in cases()],
)
def test_oracle_packing_matches_golden(family, n, seed):
    assert solve_record(family, n, seed) == _golden()[_name(family, n, seed)]


def test_sweep_packing_matches_golden():
    golden = _golden()
    for name, entry in batch_records().items():
        assert entry == golden[name], name


def test_golden_covers_corpus_and_both_regimes():
    golden = _golden()
    expected = [_name(*case) for case in cases()]
    expected += [f"batch-{i}-{f}-{n}" for i, (f, n, _s, _p) in enumerate(BATCH)]
    assert sorted(golden) == sorted(expected)
    regimes = {entry["sampled"] for entry in golden.values()}
    assert regimes == {True, False}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {_name(*case): solve_record(*case) for case in cases()}
    data.update(batch_records())
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} entries to {GOLDEN}")
