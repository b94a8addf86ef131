"""Cold start: what a fresh interpreter imports, and the lazy public API.

Each check runs in a child interpreter, because this test process has
long since imported everything.  The assertions are on module sets and
names, never on timings.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    env.pop("REPRO_TRACE", None)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


IMPORT_ONLY = """
import json, sys
import repro
loaded = sorted(m for m in ("networkx", "scipy", "numpy") if m in sys.modules)
solvers = list(repro.registered_solvers())
print(json.dumps({"loaded": loaded, "solvers": solvers}))
"""


def test_import_repro_loads_no_third_party_package():
    """``import repro`` loads neither networkx, scipy nor numpy, and the
    registry still lists every default solver right after it."""
    out = run_child(IMPORT_ONLY)
    assert out["loaded"] == []
    assert out["solvers"] == ["karger", "minor-aggregation", "oracle", "stoer-wagner"]


CSR_SOLVES = """
import asyncio, json, sys
import repro
from repro.graphs import csr_random_connected_gnm

HEAVY = ("networkx", "scipy")
steps = {}

def record(step):
    steps[step] = sorted(m for m in HEAVY if m in sys.modules)

graph = csr_random_connected_gnm(40, 100, seed=3)
record("generate")
oracle = repro.MinCutSolver(repro.SolverConfig(solver="oracle")).solve(graph, seed=1)
record("oracle")
ma = repro.MinCutSolver(repro.SolverConfig(solver="minor-aggregation")).solve(
    graph, seed=1
)
record("minor-aggregation")
many = repro.minimum_cut_many(
    [graph, csr_random_connected_gnm(30, 70, seed=4)],
    repro.SolverConfig(solver="oracle"), seeds=[1, 2],
)
record("minimum_cut_many")

async def serve_one():
    from repro.serve import MinCutService

    service = await MinCutService().start()
    try:
        return await service.submit(graph, seed=1)
    finally:
        await service.stop()

served = asyncio.run(serve_one())
record("serve")

def key(result):
    return [
        result.value.hex(),
        [sorted(map(repr, side)) for side in result.partition],
        repr(result.cut_edges),
        result.ma_rounds.hex(),
        result.stats["accountant"],
    ]

nx_graph = graph.to_networkx()
boundary = {
    solver: [
        key(repro.MinCutSolver(repro.SolverConfig(solver=solver)).solve(g, seed=1))
        for g in (graph, nx_graph)
    ]
    for solver in ("oracle", "minor-aggregation")
}
record("networkx input")
print(json.dumps({
    "steps": steps,
    "boundary": boundary,
    "values": [oracle.value, ma.value, many[0].value, served.value],
}))
"""


def test_csr_solves_load_neither_networkx_nor_scipy():
    """A CSR ``oracle`` solve, a ``minor-aggregation`` solve, a
    ``minimum_cut_many`` sweep and one in-process service request import
    neither networkx nor scipy; a networkx input then crosses the
    boundary and gives the bit-identical value, side and ledger."""
    out = run_child(CSR_SOLVES)
    steps = out["steps"]
    for step in ("generate", "oracle", "minor-aggregation", "minimum_cut_many", "serve"):
        assert steps[step] == [], (step, steps[step])
    assert "networkx" in steps["networkx input"]
    assert len(set(out["values"])) == 1
    for solver, (csr, nx_input) in out["boundary"].items():
        assert csr == nx_input, solver


API_SURFACE = """
import importlib, json, pkgutil
import repro

packages = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)
report = {"packages": packages, "missing": [], "undir": [], "unknown": []}
for name in packages:
    package = importlib.import_module(name)
    for attr in package.__all__:
        try:
            getattr(package, attr)
        except AttributeError:
            report["missing"].append(f"{name}.{attr}")
    listed = set(dir(package))
    report["undir"] += [f"{name}.{a}" for a in package.__all__ if a not in listed]
    try:
        getattr(package, "no_such_name")
    except AttributeError:
        pass
    else:
        report["unknown"].append(name)

namespace = {}
exec("from repro import *", namespace)
report["star"] = sorted(set(repro.__all__) - set(namespace))
print(json.dumps(report))
"""


def test_every_public_name_resolves_lazily():
    """Every ``__all__`` name of every ``repro`` package resolves on
    access and is listed by ``dir``; ``from repro import *`` binds them
    all; an unknown attribute raises ``AttributeError``."""
    out = run_child(API_SURFACE)
    assert {"repro", "repro.core", "repro.serve", "repro.obs"} <= set(out["packages"])
    assert out["missing"] == []
    assert out["undir"] == []
    assert out["unknown"] == []
    assert out["star"] == []


def test_lazy_name_is_cached_and_patchable(monkeypatch):
    """The first access caches the value in the package globals, so a
    monkeypatch on the package is what later lookups see."""
    import repro
    from repro.core import session

    assert repro.minimum_cut_many is session.minimum_cut_many
    assert "minimum_cut_many" in vars(repro)
    sentinel = object()
    monkeypatch.setattr(repro, "minimum_cut_many", sentinel)
    assert repro.minimum_cut_many is sentinel
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018


def _top_level_networkx(path: Path) -> bool:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "networkx" for alias in node.names
        ):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "networkx":
            return True
    return False


def test_no_library_module_imports_networkx_at_top_level():
    """networkx is imported only inside the functions that take or build
    a networkx graph (or under ``TYPE_CHECKING``); the experiment
    scripts are networkx-native and exempt."""
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "repro").rglob("*.py"))
        if "experiments" not in path.parts and _top_level_networkx(path)
    ]
    assert offenders == []
