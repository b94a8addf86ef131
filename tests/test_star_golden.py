"""Golden records of the star layer (paper Sections 7-8).

For every star instance that a seeded ``solver="minor-aggregation"``
solve builds (Theorem 39's contractions, in call order),
``tests/data/star_golden.json`` pins the star's HL-path node lists, the
interest list of every path (Lemma 32), the mutual-interest pairs
(Definition 33) and, for every matched pair the star solves, the pair
instance's ordered edge table (Theorem 27).  Any rewrite of how
subtrees are decomposed, stars contracted or interest lists folded must
reproduce these exactly: the table order feeds the order-dependent
Misra-Gries sketches and the float sums of the path-to-path leaves.

The corpus includes ``test_ma_golden``'s ``hub`` graph, whose stars
overflow every interest sketch, and a fractional-weight graph, so
pair-table weights are pinned as floats (``float.hex``) as well as
integers.

Virtual nodes carry process-global counters, so each is renamed by its
tag and first appearance within its graph's records.  Set iteration
over such tuples depends on the string hash seed, so the records are
taken in a child process with ``PYTHONHASHSEED=0``.

Regenerate (only when a change is *meant* to move the star layer)::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python tests/test_star_golden.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "star_golden.json"
ROOT = Path(__file__).resolve().parents[1]


def cases() -> list[tuple[str, object, int]]:
    from repro.graphs import CSR_FAMILY_BUILDERS
    from tests.test_ma_golden import _hub

    build = CSR_FAMILY_BUILDERS
    gnm = build["gnm"](20, 2)
    rng = random.Random(7)
    fractional = gnm.with_weights([rng.uniform(0.5, 20.0) for _ in range(gnm.m)])
    return [
        ("grid-16-s1", build["grid"](16, 1), 1),
        ("delaunay-18-s2", build["delaunay"](18, 2), 2),
        ("gnm-16-s1", build["gnm"](16, 1), 1),
        ("cycle-14-s1", build["cycle"](14, 1), 1),
        ("planted-16-s3", build["planted"](16, 3), 3),
        ("gnm-20-s2-float", fractional, 2),
        ("nx-hub-14", _hub(), 1),
    ]


def _weight(w):
    return w if isinstance(w, int) else float(w).hex()


def capture(graph, seed: int) -> list[dict]:
    """Every star of one solve: paths, interest lists, pairs, pair tables."""
    from repro.core import path_to_path, star, subtree_instance
    from repro.core.session import MinCutSolver, SolverConfig

    records: list[dict] = []
    names: dict = {}

    def name(node):
        if isinstance(node, int):
            return node
        if node not in names:
            names[node] = f"{node[0]}#{len(names)}"
        return names[node]

    solve_star = subtree_instance.solve_star
    interest_structure = star.interest_structure
    pair_solve = path_to_path.PathToPathSolver.solve

    def record_star(instance, *args, **kwargs):
        records.append(
            {
                "paths": [[name(v) for v in p.nodes] for p in instance.paths],
                "interest": None,
                "pairs": None,
                "pair_tables": [],
            }
        )
        return solve_star(instance, *args, **kwargs)

    def record_interest(paths, graph, accountant=None):
        out = interest_structure(paths, graph, accountant)
        records[-1]["interest"] = [sorted(found) for found in out.lists]
        records[-1]["pairs"] = [list(pair) for pair in out.pairs]
        return out

    def record_pair(self, instance):
        records[-1]["pair_tables"].append(
            [[name(u), name(v), _weight(w)] for u, v, w in instance.graph]
        )
        return pair_solve(self, instance)

    subtree_instance.solve_star = record_star
    star.interest_structure = record_interest
    path_to_path.PathToPathSolver.solve = record_pair
    try:
        MinCutSolver(SolverConfig(solver="minor-aggregation")).solve(
            graph, seed=seed
        )
    finally:
        subtree_instance.solve_star = solve_star
        star.interest_structure = interest_structure
        path_to_path.PathToPathSolver.solve = pair_solve
    return records


def capture_all() -> dict:
    return {name: capture(graph, seed) for name, graph, seed in cases()}


def _captured_in_child() -> dict:
    import repro

    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(ROOT), *filter(None, [env.get("PYTHONPATH")])]
    )
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--print"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def captured() -> dict:
    return _captured_in_child()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_corpus(golden):
    assert sorted(golden) == sorted(name for name, _g, _s in cases())


@pytest.mark.parametrize("name", [case[0] for case in cases()])
def test_star_layer_matches_golden(name, captured, golden):
    got, want = captured[name], golden[name]
    assert len(got) == len(want)
    for index, (star_got, star_want) in enumerate(zip(got, want)):
        assert star_got == star_want, f"{name}: star {index} differs"


def test_corpus_reaches_both_interest_regimes(golden):
    """Stars with at most 11 paths and stars with more (where the
    Misra-Gries sketches can overflow) both occur."""
    sizes = {len(s["paths"]) for records in golden.values() for s in records}
    assert min(sizes) <= 11 < max(sizes)


if __name__ == "__main__":
    data = capture_all()
    if "--print" in sys.argv:
        print(json.dumps(data))
    else:
        if os.environ.get("PYTHONHASHSEED") != "0":
            raise SystemExit("regenerate with PYTHONHASHSEED=0")
        GOLDEN.write_text(json.dumps(data, separators=(",", ":")) + "\n")
        print(f"wrote {sum(map(len, data.values()))} stars to {GOLDEN}")
