"""The benchmark's traced targets stay on the program's call path.

``perfbench/tracing.py`` times each layer by wrapping a named function
where its callers look it up (``repro.core.session.stacked_tree_arrays``
and so on).  A wrapper whose target the program no longer calls still
resolves, and its layer silently reads zero; these tests run one tiny
solve of each kind under the benchmark's own wrappers and check that
every layer it relies on is called.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import Tracer, layer_patches, patched  # noqa: E402

import repro  # noqa: E402
from repro.graphs import CSR_FAMILY_BUILDERS  # noqa: E402

ORACLE = repro.SolverConfig(solver="oracle", compute_congest=False)


def _calls(run) -> dict:
    """Calls per traced layer while ``run()`` executes."""
    tracer = Tracer()
    with patched(layer_patches(tracer)):
        run()
    return {stem: layer.calls for stem, layer in tracer.layers.items()}


def _graph(n: int = 32, seed: int = 1):
    return CSR_FAMILY_BUILDERS["gnm"](n, seed)


#: each solve kind -> (the solve, the layers it must call).
RUNS = {
    "oracle": (
        lambda: repro.MinCutSolver(ORACLE).solve(_graph(), seed=1),
        [
            "session.solve",
            "tree_packing.pack_trees",
            "ma.compiled.boruvka",
            "kernel.forest.stacked_tree_arrays",
            "kernel.batched.oracle_many",
        ],
    ),
    "sweep": (
        lambda: repro.minimum_cut_many(
            [_graph(24, 1), _graph(32, 2)], ORACLE, seeds=[1, 2]
        ),
        [
            "session.minimum_cut_many",
            "tree_packing.pack_trees_many",
            "ma.compiled.boruvka",
            "kernel.forest.stacked_tree_arrays",
            "kernel.batched.oracle_many",
        ],
    ),
    # 32 * 33**2 bytes per stacked tree: over the pinned budget, so the
    # solve falls back to one-tree oracle calls.
    "pinned": (
        lambda: repro.MinCutSolver(
            ORACLE.replace(batch_bytes=20_000)
        ).solve(_graph(), seed=1),
        [
            "session.solve",
            "tree_packing.pack_trees",
            "kernel.forest.stacked_tree_arrays",
            "kernel.batched.oracle",
        ],
    ),
    "minor-aggregation": (
        lambda: repro.MinCutSolver(
            ORACLE.replace(solver="minor-aggregation")
        ).solve(_graph(12), seed=1),
        [
            "session.solve",
            "tree_packing.pack_trees",
            "general.two_respecting_min_cut",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_layers_are_called(name):
    run, layers = RUNS[name]
    calls = _calls(run)
    assert [stem for stem in layers if not calls.get(stem)] == []
    if name != "minor-aggregation":
        # No oracle solve roots a RootedTree.
        assert "trees.rooted.RootedTree" not in calls
