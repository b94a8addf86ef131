#!/usr/bin/env python
"""Report what a cold start of ``repro`` costs and what it imports.

Each phase runs in ``--runs`` fresh interpreters:

* ``import``             -- ``import repro`` alone;
* ``oracle``             -- ``import repro`` plus a first CSR ``oracle`` solve;
* ``minor-aggregation``  -- ``import repro`` plus a first CSR
  ``minor-aggregation`` solve.

For each phase it prints the median wall time (from just before
``import repro`` to the end of the phase, inside the child, so
interpreter start-up is excluded), the number of ``repro`` modules
loaded, and the third-party top-level packages the phase imported (those
``site`` loaded before the phase are left out), so a regression names
the import that caused it.  Report-only: it never fails on a figure.
Stdlib only; the child processes import ``repro`` from ``src/``.

Usage::

    python scripts/check_cold_start.py
    python scripts/check_cold_start.py --runs 9

With ``PYTHONDONTWRITEBYTECODE`` set, every run compiles each module it
imports; the header says which mode the figures were taken in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import json, sys, time
before = set(sys.modules)
began = time.perf_counter()
import repro
if {solver!r}:
    from repro.graphs import csr_random_connected_gnm
    graph = csr_random_connected_gnm(64, 192, seed=1)
    repro.MinCutSolver(repro.SolverConfig(solver={solver!r})).solve(graph, seed=1)
seconds = time.perf_counter() - began
new = set(sys.modules) - before
top = {{name.partition(".")[0] for name in new}}
print(json.dumps({{
    "seconds": seconds,
    "repro_modules": sum(1 for name in sys.modules if name.partition(".")[0] == "repro"),
    "third_party": sorted(
        name for name in top
        if name != "repro" and not name.startswith("_")
        and name not in sys.stdlib_module_names
        and getattr(sys.modules.get(name), "__spec__", None) is not None
    ),
}}))
"""

PHASES = (("import", ""), ("oracle", "oracle"), ("minor-aggregation", "minor-aggregation"))


def run_phase(solver: str, runs: int) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env.pop("REPRO_TRACE", None)
    code = CHILD.format(solver=solver)
    out = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters per phase")
    args = parser.parse_args(argv)
    bytecode = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"{args.runs} fresh interpreters per phase; bytecode cache writes {bytecode}")
    print(f"{'phase':<18} {'median_s':>9} {'repro_modules':>14}  third-party packages")
    for name, solver in PHASES:
        samples = run_phase(solver, args.runs)
        seconds = statistics.median(sample["seconds"] for sample in samples)
        modules = max(sample["repro_modules"] for sample in samples)
        packages = sorted({pkg for sample in samples for pkg in sample["third_party"]})
        print(f"{name:<18} {seconds:>9.3f} {modules:>14}  {', '.join(packages) or '-'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
