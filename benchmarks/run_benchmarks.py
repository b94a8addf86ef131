#!/usr/bin/env python
"""Run the benchmark suite and emit a BENCH_*.json trajectory file.

Times every experiment module (E1-E16, ``quick=True`` -- the same code the
report pipeline runs), the tree-kernel micro benchmarks, the CSR
subsystem benchmarks (construction + end-to-end min-cut, CSR vs networkx
path), and the many-graph sweep benchmark (``minimum_cut_many`` vs a
looped ``minimum_cut``), and writes median wall-clock per entry so future
perf PRs have a committed baseline to diff against.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py              # BENCH_local.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py --out X.json --repeats 5
    PYTHONPATH=src python benchmarks/run_benchmarks.py --compare BENCH_PR2.json

Without ``--out`` the results go to ``BENCH_local.json`` (git-ignored), so
a local run never overwrites a committed ``BENCH_PR*.json`` trajectory
file; name one with ``--out`` to record a new baseline.

The kernel micro section times ``cover_values`` and
``two_respecting_oracle`` on a seeded n=512, m=2048 random graph
(``kernel_micro``; tracked by ``--compare``).  Any mismatch fails the
run: every ``Cov(e)`` must equal ``partition_cut_weight`` of the edge's
subtree side, and the oracle's value and edges must equal
``batched_two_respecting_oracle`` on the same tree.

The ``many`` section is the acceptance check of PR 3: on a 50-graph
small-instance sweep the batched ``minimum_cut_many`` must be >= 2x the
throughput of looping ``minimum_cut`` with bit-identical results
(enforced with ``--check``).

The ``sweep_mixed_n`` section times a ``minimum_cut_many`` batch of 16
gnm graphs of 16 distinct node counts against 16 graphs of one node
count with the same total, in interleaved pairs: the forest build and
the approximate min-cut run once per batch whatever the sizes, so
``--check`` caps the ratio of medians at ``SWEEP_MIXED_N_CEILING``.  The
mixed batch must equal looped ``minimum_cut`` calls.

The ``profile`` section (PR 7) records the per-phase breakdown of one
traced end-to-end oracle solve (seconds + peak bytes + paper-rounds per
phase), and the ``trace_overhead`` section proves the instrumentation
overhead with tracing off (disabled spans, always-on metrics) stays
under 2% on the E10, serving-tier and minor-aggregation workloads (same measurement as ``scripts/check_trace_overhead.py``;
enforced with ``--check``).

The ``serve`` section (PR 8) pushes the same 50-graph sweep workload
through :class:`repro.serve.MinCutService` and records
``qps_unbatched`` / ``qps_cold`` / ``qps_warm``; with ``--check`` the
warm-cache qps must be >= 3x the unbatched qps (with bit-identical
results) and the ``pytest -m serve`` suite must pass.

The ``ma`` section (PR 9) is the compiled Minor-Aggregation acceptance
check: the e13 (Boruvka schedule) and e14 (one fully-loaded round) rows
must be bit-identical between the closure and compiled engines --
results AND accounting ledgers -- with >= 10x compiled per-round
throughput (enforced with ``--check``).  The ``ma_scale`` section runs
the full packing round schedule on a 10^5-node network through the
array Boruvka kernel and tabulates the charged MA rounds against the
Theorem 17 Õ(D + sqrt(n)) CONGEST conversions.

The ``approx_cut`` section times the packing's exact min-cut value
(Padberg-Rinaldi contraction + Stoer-Wagner on the kernel) against
Stoer-Wagner on the whole graph, every family at n=256: any value
mismatch fails the run, and ``--check`` requires a >= 5x median speedup.
It also times one n=10^5 gnm graph (feasibility only, not gated).

The e13/e14 timings alternate closure and compiled runs repeat by repeat,
at least ``MA_MIN_PAIRS`` pairs whatever ``--repeats`` says, so machine
load drifting during the row hits both engines alike.

The ``ma_vs_oracle`` section times full ``minor-aggregation`` and
``oracle`` solves (interleaved, median ms) on gnm m=3n graphs at n
24/48/96 and reports their ratio -- the paper's solver against the
centralized brute force, tracked toward a <= 5x ratio but not gated on
it.  Any value mismatch between the two solvers fails the run.

The ``default_config`` section times what the default ``SolverConfig()``
(CONGEST estimates on) adds to a ``compute_congest=False`` solve on gnm
m=4n graphs at n 256 and 1024: the exact diameter, timed alone on fresh
copies of the graph so the per-graph cache never hides it (the estimates
themselves are closed-form).  It reports the median diameter over the
median ``compute_congest=False`` solve, and ``--check`` fails when that
share exceeds ``DEFAULT_CONFIG_OVERHEAD_CEILING`` at n=1024.

The ``oracle_scale`` section times full ``oracle`` solves of gnm m=4n
graphs at n 1024 and 2048 (median s, no CONGEST estimates) and reports
the packed trees the stop rule solved out of all of them
(:mod:`repro.core.tree_schedule`).  The winner must equal the one an
all-trees ``batched_two_respecting_oracle`` pass picks (first least
``(value, edges)``: value, edges and tree index), or the run fails; the
all-trees pass is timed once beside it.

The ``pack_scale`` section times Theorem 12 packing alone:
``pack_trees`` on unit-weight gnm m=4n (so no sampling) at n 256, 512,
1024 and 4096, median of traced runs.  It reports the whole call's
seconds, the approximate min-cut's ms (its ``pack.approx_min_cut``
span: at n 256 and 512 the Padberg-Rinaldi passes stall and the
CAPFOREST passes solve the kernel), then ms per tree, phases per tree
and µs per phase from its ``pack.boruvka`` spans (one per greedy
iteration; the approximate min-cut is outside them).  The first packed trees must equal
``scipy.sparse.csgraph.minimum_spanning_tree`` on 1-based (load,
``str(edge_key)``) rank weights, iteration by iteration, or the run
fails.  Its ``sweep_16`` case packs one sweep-size batch with
``pack_trees_many`` (16 graphs, every family twice, n 24-48) and
reports the median ms per call in the ``pack.contract``,
``pack.approx_min_cut``, ``pack.sampling`` and ``pack.boruvka`` spans
and in the rest of the call (report-only, no check).

The ``forest_scale`` section times the stacked BFS/Euler forest build
alone (``stacked_tree_arrays``) on the packed trees of gnm m=4n graphs
and of cycles (path-shaped trees, depth about n/2) at n 256, 1024 and
4096: median ms for the first tree (what an ``oracle`` solve that
settles at once builds) and for every packed tree (what
``minor-aggregation`` and graphs outside the stop rule build).  It is
report-only, with no ceiling; tree 0 must equal its per-tree
``TreeKernel``, or the run fails.

The ``oracle_stack`` section times the stacked 2-respecting oracle
(``batched_two_respecting_oracle``) on the seeded packed trees of every
family at n=256, in ms per tree, next to the per-tree
``two_respecting_oracle``: any value or edge mismatch fails the run.

``--compare BASELINE.json`` is the regression gate: it exits non-zero when
any tracked metric (the ``kernel_micro`` timings, plus the ``csr`` and
``many`` timings when the baseline has them) is more than 10% slower than
the baseline.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path

EXPERIMENTS = [
    "e01_general",
    "e02_planar",
    "e03_tree_packing",
    "e04_one_respecting",
    "e05_path_to_path",
    "e06_star_interest",
    "e07_between_subtree",
    "e08_general_two_respecting",
    "e09_virtual_overhead",
    "e10_primitives",
    "e11_baselines",
    "e12_shortcut_quality",
    "e13_boruvka",
    "e14_congest_compilation",
    "e15_hld_construction",
    "e16_fault_tolerance",
]

KERNEL_MICRO_N = 512
KERNEL_MICRO_M = 2048
KERNEL_MICRO_SEED = 7

CSR_BUILD_N = 2000
CSR_BUILD_M = 8000
CSR_E2E_N = 192
CSR_E2E_M = 640
CSR_SEED = 11

MANY_COUNT = 50
MANY_N = 24
MANY_SPEEDUP_FLOOR = 2.0
#: the PR 9 parity rows: closure-vs-compiled MA rounds on this instance
#: (dense on purpose -- the closure engine pays per edge, the compiled
#: engine per node, and real packing graphs are the dense sampled kind).
MA_N = 2000
MA_M = 40000
MA_SEED = 9
#: the PR 9 acceptance bar: compiled per-round throughput vs closure.
MA_SPEEDUP_FLOOR = 10.0
#: interleaved closure/compiled pairs per e13/e14 row, at the least.
MA_MIN_PAIRS = 5
#: the paper's solver vs the oracle: gnm m=3n at these sizes.
MA_VS_ORACLE_NS = (24, 48, 96)
MA_VS_ORACLE_SEED = 1
#: the default-config row: gnm m=4n at these sizes; --check gates the
#: diameter's share of a compute_congest=False solve at the largest.
DEFAULT_CONFIG_NS = (256, 1024)
DEFAULT_CONFIG_SEED = 1
DEFAULT_CONFIG_OVERHEAD_CEILING = 0.10
#: the PR 9 scale row: the full packing round schedule at CONGEST scale.
MA_SCALE_N = 100_000
MA_SCALE_M = 300_000
#: the packing's exact min-cut value (contraction + kernel Stoer-Wagner)
#: against Stoer-Wagner on the whole graph, every family at this size.
APPROX_CUT_N = 256
APPROX_CUT_SEED = 1
#: the acceptance bar: median per-family speedup over full Stoer-Wagner.
APPROX_CUT_SPEEDUP_FLOOR = 5.0
#: the stacked oracle row: every family's packed trees at this size.
ORACLE_STACK_N = 256
ORACLE_STACK_SEED = 1
#: the packing scale row: pack_trees on unit-weight gnm m=4n at these
#: sizes, and how many of its first trees must equal the rank-weight
#: scipy MST.
PACK_SCALE_NS = (256, 512, 1024, 4096)
PACK_SCALE_SEED = 1
PACK_SCALE_CHECKED_TREES = 3
#: the packing scale row's sweep-size case: one pack_trees_many batch of
#: these many graphs, every family alike, n spread over this range.
PACK_SWEEP_GRAPHS = 16
PACK_SWEEP_NS = (24, 48)
#: the spans of one packing call, in call order.
PACK_SPANS = ("pack.contract", "pack.approx_min_cut", "pack.sampling", "pack.boruvka")
#: the oracle scale row: full oracle solves of gnm m=4n at these sizes.
FOREST_SCALE_NS = (256, 1024, 4096)
FOREST_SCALE_SEED = 1

ORACLE_SCALE_NS = (1024, 2048)
ORACLE_SCALE_SEED = 1
#: the PR 8 acceptance bar: warm-cache served qps vs unbatched solves.
#: the sweep_mixed_n row: gnm batches of these 16 sizes vs 16 graphs of
#: their mean size, interleaved pairs; --check caps the ratio of medians.
SWEEP_MIXED_N_SIZES = tuple(range(24, 56, 2))
SWEEP_MIXED_N_SEED = 1
SWEEP_MIXED_N_PAIRS = 21
SWEEP_MIXED_N_CEILING = 1.2
SERVE_WARM_FLOOR = 3.0
#: the PR 10 overload row: distinct cold requests fired at ~3x capacity
#: (the calibration underestimates sustained batched throughput by
#: ~25%, so a 2x nominal factor would barely overload; 3x nominal is a
#: comfortable >=2x of true capacity, and the longer train lets the
#: unshedded backlog -- and hence its p99 -- actually build).
OVERLOAD_COUNT = 160
OVERLOAD_OFFERED_FACTOR = 3.0
#: best-of trials per overload mode (same noise discipline as _timed:
#: an open-loop arrival train is sensitive to scheduler hiccups, so
#: each mode gets its friendliest trial before the gates compare them).
OVERLOAD_REPEATS = 3
#: queue bound for the shedding run (requests beyond it get typed
#: ``OverloadedError`` decisions instead of unbounded queueing).
OVERLOAD_MAX_QUEUE = 8
#: the PR 10 acceptance bar: at 2x capacity, shedding must keep p99
#: time-to-decision no worse than unshedded queueing while giving up at
#: most this fraction of goodput (both runs are solver-bound, so the
#: solved-per-second rates should be close; the slack absorbs timing
#: noise from the open-loop arrival process).
OVERLOAD_GOODPUT_SLACK = 0.80
#: --compare fails when a tracked metric is more than this much slower.
REGRESSION_SLACK = 1.10
#: ... and slower by at least this many seconds: sub-millisecond rows
#: (the warm result-cache sweep is ~0.4 ms) jitter past 10% run to
#: run, so a regression must clear the relative *and* absolute bar.
REGRESSION_ABS_SLACK_S = 0.0005


def _timed(fn, repeats: int) -> tuple[list[float], object]:
    samples = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return samples, result


def _interleaved(first, second, pairs: int):
    """``_timed`` for two functions, alternating them call by call so
    load drifting over the row lands on both sides alike."""
    first_samples, second_samples = [], []
    first_result = second_result = None
    for _ in range(pairs):
        start = time.perf_counter()
        first_result = first()
        first_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        second_result = second()
        second_samples.append(time.perf_counter() - start)
    return first_samples, second_samples, first_result, second_result


def median_seconds(fn, repeats: int) -> tuple[float, object]:
    samples, result = _timed(fn, repeats)
    return statistics.median(samples), result


def run_experiments(repeats: int) -> dict:
    rows = {}
    for name in EXPERIMENTS:
        # Failure isolation: one broken experiment becomes a structured
        # error row in the JSON instead of killing the whole benchmark
        # run (the regression gate skips error rows).
        try:
            module = importlib.import_module(f"repro.experiments.{name}")
            seconds, outcome = median_seconds(
                lambda: module.run(quick=True), repeats
            )
        except Exception as exc:
            rows[name] = {
                "error": {"type": type(exc).__name__, "message": str(exc)}
            }
            print(f"  {name:<28}    ERROR   {type(exc).__name__}: {exc}")
            continue
        rows[name] = {
            "median_seconds": round(seconds, 6),
            "holds": bool(outcome.holds),
            "observed": outcome.observed,
        }
        print(f"  {name:<28} {seconds * 1e3:9.1f} ms  holds={outcome.holds}")
    return rows


def run_kernel_micro(repeats: int) -> dict:
    """Kernel ``cover_values`` / ``two_respecting_oracle`` on one seeded
    tree, each checked against an independent computation: ``Cov(e)``
    against ``partition_cut_weight`` of the edge's subtree side, the
    oracle against ``batched_two_respecting_oracle`` on the same tree."""
    import networkx as nx
    import numpy as np

    from repro.core.cut_values import (
        cover_values,
        partition_cut_weight,
        two_respecting_oracle,
    )
    from repro.graphs import random_connected_gnm, random_spanning_tree
    from repro.kernel import (
        GraphArrays,
        batched_two_respecting_oracle,
        stacked_tree_arrays,
    )
    from repro.trees.rooted import RootedTree

    graph = random_connected_gnm(
        KERNEL_MICRO_N, KERNEL_MICRO_M, seed=KERNEL_MICRO_SEED, weight_high=50
    )
    # One edge list fixes the insertion order for both the rooted tree
    # and the stacked forest, so their child orders (and tie-breaks) agree.
    tree_edges = list(
        random_spanning_tree(graph, seed=KERNEL_MICRO_SEED + 1).edges()
    )
    tree = RootedTree(nx.Graph(tree_edges), 0)
    arrays = GraphArrays.from_graph(graph)

    def cover_matches(cov) -> bool:
        return all(
            cov[edge]
            == partition_cut_weight(
                graph,
                frozenset(tree.subtree_nodes(tree.bottom(edge))),
                arrays=arrays,
            )[0]
            for edge in tree.edges()
        )

    def oracle_matches(candidate) -> bool:
        position = {node: i for i, node in enumerate(arrays.nodes)}
        (stack,) = stacked_tree_arrays(
            [KERNEL_MICRO_N],
            [[(
                np.array([position[u] for u, _ in tree_edges]),
                np.array([position[v] for _, v in tree_edges]),
            )]],
            [position[tree.root]],
        )
        (batched,) = batched_two_respecting_oracle(arrays, stack)
        return (candidate.value, candidate.edges) == (
            batched.value, batched.edges
        )

    rows = {}
    for label, fn, check in (
        ("cover_values", lambda: cover_values(graph, tree), cover_matches),
        (
            "two_respecting_oracle",
            lambda: two_respecting_oracle(graph, tree),
            oracle_matches,
        ),
    ):
        micro_repeats = max(repeats, 5)
        tree._kernel = None  # first sample pays the build, like callers
        samples, result = _timed(fn, micro_repeats)
        identical = check(result)
        rows[label] = {
            "n": KERNEL_MICRO_N,
            "m": KERNEL_MICRO_M,
            "seed": KERNEL_MICRO_SEED,
            "kernel_median_seconds": round(statistics.median(samples), 6),
            "kernel_best_seconds": round(min(samples), 6),
            "bit_identical": bool(identical),
        }
        print(
            f"  {label:<28} kernel {min(samples) * 1e3:8.2f} ms"
            f"  identical={identical}"
        )
    return rows


def run_csr_bench(repeats: int) -> dict:
    """CSR subsystem: construction, extraction, end-to-end min-cut."""
    from repro.core.mincut import minimum_cut
    from repro.graphs import csr_random_connected_gnm, random_connected_gnm
    from repro.kernel.cut_kernel import GraphArrays

    rows: dict = {}
    micro_repeats = max(repeats, 5)

    # Construction: CSR-direct vs the networkx boundary wrapper.
    csr_build, csr_graph = _timed(
        lambda: csr_random_connected_gnm(CSR_BUILD_N, CSR_BUILD_M, seed=CSR_SEED),
        micro_repeats,
    )
    nx_build, nx_graph = _timed(
        lambda: random_connected_gnm(CSR_BUILD_N, CSR_BUILD_M, seed=CSR_SEED),
        micro_repeats,
    )
    rows["construct"] = {
        "n": CSR_BUILD_N, "m": CSR_BUILD_M, "seed": CSR_SEED,
        "csr_best_seconds": round(min(csr_build), 6),
        "networkx_best_seconds": round(min(nx_build), 6),
        "speedup": round(min(nx_build) / min(csr_build), 2),
    }
    print(
        f"  construct ({CSR_BUILD_N}n/{CSR_BUILD_M}m)    "
        f"csr {min(csr_build) * 1e3:8.2f} ms  nx {min(nx_build) * 1e3:8.2f} ms"
        f"  speedup {rows['construct']['speedup']:6.1f}x"
    )

    # Shared-arrays extraction: the per-mincut O(m) step.
    csr_extract, _ = _timed(lambda: GraphArrays.from_csr(csr_graph), micro_repeats)
    nx_extract, _ = _timed(lambda: GraphArrays.from_graph(nx_graph), micro_repeats)
    rows["extract_arrays"] = {
        "csr_best_seconds": round(min(csr_extract), 6),
        "networkx_best_seconds": round(min(nx_extract), 6),
        "speedup": round(min(nx_extract) / min(csr_extract), 2),
    }
    print(
        f"  extract_arrays               "
        f"csr {min(csr_extract) * 1e3:8.2f} ms  nx {min(nx_extract) * 1e3:8.2f} ms"
        f"  speedup {rows['extract_arrays']['speedup']:6.1f}x"
    )

    # End to end: generator -> packing -> batched oracle, both pipelines.
    e2e_csr = csr_random_connected_gnm(CSR_E2E_N, CSR_E2E_M, seed=CSR_SEED)
    e2e_nx = e2e_csr.to_networkx()
    csr_solve, csr_result = _timed(
        lambda: minimum_cut(
            e2e_csr, seed=CSR_SEED, solver="oracle", compute_congest=False
        ),
        repeats,
    )
    nx_solve, nx_result = _timed(
        lambda: minimum_cut(
            e2e_nx, seed=CSR_SEED, solver="oracle", compute_congest=False
        ),
        repeats,
    )
    identical = (
        csr_result.value == nx_result.value
        and csr_result.partition == nx_result.partition
    )
    rows["mincut_oracle"] = {
        "n": CSR_E2E_N, "m": CSR_E2E_M, "seed": CSR_SEED,
        "csr_best_seconds": round(min(csr_solve), 6),
        "networkx_best_seconds": round(min(nx_solve), 6),
        "speedup": round(min(nx_solve) / min(csr_solve), 2),
        "bit_identical": bool(identical),
    }
    print(
        f"  mincut_oracle ({CSR_E2E_N}n)     "
        f"csr {min(csr_solve) * 1e3:8.2f} ms  nx {min(nx_solve) * 1e3:8.2f} ms"
        f"  speedup {rows['mincut_oracle']['speedup']:6.1f}x"
        f"  identical={identical}"
    )
    return rows


def run_ma_bench(repeats: int) -> dict:
    """Compiled vs closure Minor-Aggregation rounds (PR 9 acceptance).

    The e13 row reruns Boruvka's full MA round schedule through both
    engines; the e14 row times one fully-loaded round (contraction +
    consensus + aggregation).  Both must be bit-identical (results AND
    accounting ledgers) with compiled per-round throughput >=
    ``MA_SPEEDUP_FLOOR``x; ``--check`` enforces the bar.
    """
    from repro.accounting import RoundAccountant
    from repro.graphs import csr_random_connected_gnm
    from repro.ma import (
        MIN,
        SUM,
        ArrayMessage,
        CompiledMinorAggregationEngine,
        MinorAggregationEngine,
        boruvka_mst,
    )

    rows: dict = {}
    graph = csr_random_connected_gnm(MA_N, MA_M, seed=MA_SEED)

    # -- e13 row: the Boruvka schedule, closure vs compiled --------------
    a_ref, a_cmp = RoundAccountant(), RoundAccountant()
    ref = MinorAggregationEngine(graph, accountant=a_ref)
    cmp_ = CompiledMinorAggregationEngine(graph, accountant=a_cmp)
    mst_ref = boruvka_mst(ref)  # warm run doubles as the parity check
    mst_cmp = boruvka_mst(cmp_)
    identical = mst_ref == mst_cmp and a_ref.by_label() == a_cmp.by_label()
    rounds = ref.rounds_executed
    pairs = max(repeats, MA_MIN_PAIRS)
    closure_s, compiled_s, _, _ = _interleaved(
        lambda: boruvka_mst(ref), lambda: boruvka_mst(cmp_), pairs
    )
    speedup = round(min(closure_s) / min(compiled_s), 2)
    rows["e13_boruvka"] = {
        "n": MA_N, "m": MA_M, "seed": MA_SEED,
        "ma_rounds_per_mst": rounds,
        "closure_best_seconds": round(min(closure_s), 6),
        "compiled_best_seconds": round(min(compiled_s), 6),
        "closure_round_ms": round(min(closure_s) / rounds * 1e3, 3),
        "compiled_round_ms": round(min(compiled_s) / rounds * 1e3, 3),
        "speedup": speedup,
        "bit_identical": bool(identical),
    }
    print(
        f"  e13_boruvka ({MA_N}n/{MA_M}m)  "
        f"closure {min(closure_s) * 1e3:8.2f} ms  "
        f"compiled {min(compiled_s) * 1e3:8.2f} ms"
        f"  speedup {speedup:6.1f}x  identical={identical}"
    )

    # -- e14 row: one fully-loaded MA round ------------------------------
    contract = {edge for edge, _u, _v in ref.edge_list[::3]}
    node_input = {v: (v * 7) % 31 for v in ref.node_list}
    message = ArrayMessage.vectorized(lambda yu, yv: (yv, yu))
    kwargs = dict(
        contract=contract, node_input=node_input, consensus_op=SUM,
        edge_message=message, aggregate_op=MIN,
    )
    r_ref = ref.round(**kwargs)
    r_cmp = cmp_.round(**kwargs)
    identical = (
        r_ref.supernode == r_cmp.supernode
        and r_ref.consensus == r_cmp.consensus
        and r_ref.aggregate == r_cmp.aggregate
        and a_ref.by_label() == a_cmp.by_label()
    )
    closure_s, compiled_s, _, _ = _interleaved(
        lambda: ref.round(**kwargs), lambda: cmp_.round(**kwargs), pairs
    )
    speedup = round(min(closure_s) / min(compiled_s), 2)
    rows["e14_ma_round"] = {
        "n": MA_N, "m": MA_M, "seed": MA_SEED,
        "closure_best_seconds": round(min(closure_s), 6),
        "compiled_best_seconds": round(min(compiled_s), 6),
        "closure_round_ms": round(min(closure_s) * 1e3, 3),
        "compiled_round_ms": round(min(compiled_s) * 1e3, 3),
        "speedup": speedup,
        "bit_identical": bool(identical),
    }
    print(
        f"  e14_ma_round ({MA_N}n/{MA_M}m) "
        f"closure {min(closure_s) * 1e3:8.2f} ms  "
        f"compiled {min(compiled_s) * 1e3:8.2f} ms"
        f"  speedup {speedup:6.1f}x  identical={identical}"
    )
    return rows


def run_ma_vs_oracle_bench(repeats: int) -> dict:
    """The paper's solver against the oracle, end to end.

    Full ``minor-aggregation`` and ``oracle`` solves of one seeded gnm
    m=3n graph per size (same packing seed, no CONGEST estimates),
    interleaved; median ms per solver and their ratio.  The values must
    agree exactly (integer weights).  The ratio tracks the <= 5x target
    for the paper's solver; nothing gates on it.
    """
    from repro.core.session import MinCutSolver, SolverConfig
    from repro.graphs import csr_random_connected_gnm

    ma = MinCutSolver(
        SolverConfig(solver="minor-aggregation", compute_congest=False)
    )
    oracle = MinCutSolver(SolverConfig(solver="oracle", compute_congest=False))
    rows: dict = {}
    for n in MA_VS_ORACLE_NS:
        graph = csr_random_connected_gnm(n, 3 * n, seed=MA_VS_ORACLE_SEED)
        ma_s, oracle_s, ma_result, oracle_result = _interleaved(
            lambda: ma.solve(graph, seed=MA_VS_ORACLE_SEED),
            lambda: oracle.solve(graph, seed=MA_VS_ORACLE_SEED),
            repeats,
        )
        ma_ms = statistics.median(ma_s) * 1e3
        oracle_ms = statistics.median(oracle_s) * 1e3
        identical = ma_result.value == oracle_result.value
        rows[f"gnm_{n}"] = {
            "n": n, "m": graph.m, "seed": MA_VS_ORACLE_SEED,
            "ma_median_ms": round(ma_ms, 3),
            "oracle_median_ms": round(oracle_ms, 3),
            "ratio": round(ma_ms / oracle_ms, 2),
            "identical": identical,
        }
        print(
            f"  gnm n={n:<4} m={graph.m:<5}         "
            f"minor-aggregation {ma_ms:8.1f} ms  oracle {oracle_ms:7.1f} ms"
            f"  ratio {ma_ms / oracle_ms:5.1f}x  identical={identical}"
        )
    rows["identical"] = all(row["identical"] for row in rows.values())
    return rows


def run_default_config_bench(repeats: int) -> dict:
    """What ``minimum_cut(graph)`` pays for its CONGEST estimates.

    The default ``SolverConfig()`` differs from ``compute_congest=False``
    only in finalize's exact diameter and the closed-form estimates it
    feeds, so the row times the diameter alone on fresh graph copies
    (made outside the timer; the diameter is cached per graph) next to
    median ``compute_congest=False`` solves, and reports the share.
    """
    from repro.core.session import MinCutSolver, SolverConfig
    from repro.graphs import CSRGraph, csr_random_connected_gnm

    solver = MinCutSolver(SolverConfig(compute_congest=False))
    rows: dict = {}
    for index, n in enumerate(DEFAULT_CONFIG_NS):
        graph = csr_random_connected_gnm(n, 4 * n, seed=DEFAULT_CONFIG_SEED)
        if index == 0:  # warm the process up once, untimed
            solver.solve(graph, seed=DEFAULT_CONFIG_SEED)
        solve_s, _result = median_seconds(
            lambda: solver.solve(graph, seed=DEFAULT_CONFIG_SEED), repeats
        )
        diameter_s = []
        for _ in range(repeats):
            fresh = CSRGraph(graph.n, graph.edge_u, graph.edge_v, graph.edge_w)
            start = time.perf_counter()
            fresh.diameter()
            diameter_s.append(time.perf_counter() - start)
        diameter_median = statistics.median(diameter_s)
        share = diameter_median / solve_s
        rows[f"gnm_{n}"] = {
            "n": n, "m": graph.m, "seed": DEFAULT_CONFIG_SEED,
            "no_congest_median_s": round(solve_s, 4),
            "diameter_median_ms": round(diameter_median * 1e3, 3),
            "diameter_share": round(share, 6),
        }
        print(
            f"  gnm n={n:<5} m={graph.m:<6} compute_congest=False "
            f"{solve_s:8.3f} s  diameter {diameter_median * 1e3:7.2f} ms  "
            f"share {share:.2e}"
        )
    largest = rows[f"gnm_{max(DEFAULT_CONFIG_NS)}"]
    rows["within_ceiling"] = (
        largest["diameter_share"] <= DEFAULT_CONFIG_OVERHEAD_CEILING
    )
    return rows


def run_ma_scale_bench() -> dict:
    """The full packing round schedule at 10^5 nodes (array Boruvka).

    Runs once (no repeats -- the row is about feasibility, not variance)
    and converts the charged MA rounds to CONGEST rounds via Theorem 17:
    the Õ(D + sqrt(n)) table the paper's universal-optimality claim is
    stated against.  The diameter is a 2-sweep BFS estimate -- exact
    all-sources BFS at this scale is the kind of centralized luxury the
    simulation is not allowed to need.
    """
    import numpy as np

    from repro.accounting import RoundAccountant
    from repro.core.tree_packing import pack_trees
    from repro.graphs import csr_random_connected_gnm
    from repro.ma.simulation import congest_estimates

    graph = csr_random_connected_gnm(MA_SCALE_N, MA_SCALE_M, seed=1)
    levels = graph.bfs_levels(0)
    levels = graph.bfs_levels(int(np.argmax(levels)))
    diameter_est = int(levels.max())

    acct = RoundAccountant()
    start = time.perf_counter()
    packing = pack_trees(
        graph, seed=1, accountant=acct, approx_cut_value=24.0
    )
    seconds = time.perf_counter() - start
    estimates = congest_estimates(
        acct.total, n=MA_SCALE_N, diameter=diameter_est
    )
    d_plus_sqrt_n = diameter_est + MA_SCALE_N ** 0.5
    row = {
        "n": MA_SCALE_N, "m": MA_SCALE_M, "seed": 1,
        "trees": len(packing.trees),
        "ma_rounds": acct.total,
        "seconds": round(seconds, 3),
        "seconds_per_round": round(seconds / max(acct.total, 1), 6),
        "diameter_estimate_2sweep": diameter_est,
        "congest": {
            "d_plus_sqrt_n": round(d_plus_sqrt_n, 1),
            **{k: round(v, 1) for k, v in estimates.as_dict().items()},
            "general_over_d_plus_sqrt_n": round(
                estimates.general / d_plus_sqrt_n, 1
            ),
        },
    }
    print(
        f"  packing_{MA_SCALE_N}n           "
        f"{seconds:8.2f} s   {len(packing.trees)} trees, "
        f"{acct.total:.0f} MA rounds, D~{diameter_est}, "
        f"general CONGEST ~{estimates.general:.2e} rounds"
    )
    return row


def run_approx_cut_bench(repeats: int) -> dict:
    """The packing's exact min-cut value vs Stoer-Wagner on the whole graph.

    Every family at n=256 (best-of timings, values compared exactly),
    plus one timed n=10^5 gnm graph for feasibility only (no full
    Stoer-Wagner at that size).
    """
    from repro.baselines.stoer_wagner import stoer_wagner_min_cut
    from repro.core.tree_packing import _min_cut_value
    from repro.graphs import CSR_FAMILY_BUILDERS, csr_random_connected_gnm

    rows: dict = {}
    for family, build in CSR_FAMILY_BUILDERS.items():
        graph = build(APPROX_CUT_N, APPROX_CUT_SEED)
        fast_samples, value = _timed(lambda: _min_cut_value(graph), repeats)
        full_samples, (reference, _partition) = _timed(
            lambda: stoer_wagner_min_cut(graph), repeats
        )
        speedup = min(full_samples) / min(fast_samples)
        rows[family] = {
            "n": APPROX_CUT_N, "m": graph.m, "seed": APPROX_CUT_SEED,
            "contraction_best_seconds": round(min(fast_samples), 6),
            "stoer_wagner_best_seconds": round(min(full_samples), 6),
            "speedup": round(speedup, 2),
            "value": value,
            "identical": value == reference,
        }
        print(
            f"  {family:<28} contraction {min(fast_samples) * 1e3:8.2f} ms"
            f"  stoer-wagner {min(full_samples) * 1e3:8.2f} ms"
            f"  speedup {speedup:6.1f}x  identical={value == reference}"
        )
    identical = all(row["identical"] for row in rows.values())
    rows["median_speedup"] = round(
        statistics.median(row["speedup"] for row in rows.values()), 2
    )
    rows["identical"] = identical

    large = csr_random_connected_gnm(MA_SCALE_N, MA_SCALE_M, seed=1)
    start = time.perf_counter()
    value = _min_cut_value(large)
    seconds = time.perf_counter() - start
    rows[f"gnm_{MA_SCALE_N}n"] = {
        "n": MA_SCALE_N, "m": MA_SCALE_M, "seed": 1,
        "contraction_seconds": round(seconds, 3), "value": value,
    }
    print(
        f"  median speedup {rows['median_speedup']:.1f}x;"
        f"  gnm n={MA_SCALE_N}: {seconds:.2f} s (value {value:g})"
    )
    return rows


def run_oracle_stack_bench(repeats: int) -> dict:
    """The stacked 2-respecting oracle vs the per-tree oracle, per tree.

    Every family at n=256: the packed trees of one seeded packing go
    through ``batched_two_respecting_oracle`` (best-of timings, ms per
    tree) and, tree by tree, through ``two_respecting_oracle``; values
    and witness edges must match exactly.
    """
    from repro.core.cut_values import two_respecting_oracle
    from repro.core.session import MinCutSolver, SolverConfig
    from repro.graphs import CSR_FAMILY_BUILDERS
    from repro.kernel.batched import batched_two_respecting_oracle

    solver = MinCutSolver(SolverConfig(solver="oracle"))
    rows: dict = {}
    for family, build in CSR_FAMILY_BUILDERS.items():
        graph = build(ORACLE_STACK_N, ORACLE_STACK_SEED)
        packed = solver.pack(graph, seed=ORACLE_STACK_SEED)
        arrays, stack, rooted = packed.arrays, packed.stack, packed.rooted_trees
        trees = len(rooted)
        stacked_samples, stacked = _timed(
            lambda: batched_two_respecting_oracle(arrays, stack), repeats
        )
        per_tree_samples, per_tree = _timed(
            lambda: [
                two_respecting_oracle(packed.csr, tree, arrays=arrays)
                for tree in rooted
            ],
            repeats,
        )
        identical = [(c.value, c.edges) for c in stacked] == [
            (c.value, c.edges) for c in per_tree
        ]
        stacked_ms = min(stacked_samples) / trees * 1e3
        per_tree_ms = min(per_tree_samples) / trees * 1e3
        rows[family] = {
            "n": ORACLE_STACK_N, "m": graph.m, "seed": ORACLE_STACK_SEED,
            "trees": trees,
            "stacked_ms_per_tree": round(stacked_ms, 4),
            "per_tree_ms_per_tree": round(per_tree_ms, 4),
            "identical": identical,
        }
        print(
            f"  {family:<28} stacked {stacked_ms:7.3f} ms/tree"
            f"  per-tree {per_tree_ms:7.3f} ms/tree  ({trees} trees)"
            f"  identical={identical}"
        )
    rows["identical"] = all(row["identical"] for row in rows.values())
    return rows


def _rank_weight_trees(graph, count: int) -> list:
    """The first ``count`` greedy packing trees, each the scipy minimum
    spanning tree on 1-based rank weights of (load / multiplicity,
    ``str(edge_key)``, the closure Boruvka's tie-break): distinct
    edge-pair sets in packing order."""
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    from repro.trees.rooted import edge_key

    u, v = graph.edge_u.tolist(), graph.edge_v.tolist()
    pairs = [(min(a, b), max(a, b)) for a, b in zip(u, v)]
    row_of = {pair: row for row, pair in enumerate(pairs)}
    labels = [str(edge_key(a, b)) for a, b in pairs]
    tie = np.empty(len(pairs), dtype=np.int64)
    tie[sorted(range(len(pairs)), key=labels.__getitem__)] = np.arange(
        len(pairs)
    )
    multiplicity = np.maximum(graph.edge_w, 1e-12)
    uses = np.zeros(len(pairs))
    trees: list = []
    while len(trees) < count:
        weight = np.empty(len(pairs))
        weight[np.lexsort((tie, uses / multiplicity))] = np.arange(
            1, len(pairs) + 1
        )
        forest = minimum_spanning_tree(
            coo_matrix((weight, (u, v)), shape=(graph.n, graph.n))
        ).tocoo()
        tree = frozenset(
            (min(a, b), max(a, b))
            for a, b in zip(forest.row.tolist(), forest.col.tolist())
        )
        uses[[row_of[pair] for pair in tree]] += 1
        if tree not in trees:
            trees.append(tree)
    return trees


def run_pack_scale_bench(repeats: int) -> dict:
    """Theorem 12 packing alone at n 256/512/1024/4096: the approximate
    min-cut's ms, ms per tree, phases per tree and µs per Boruvka phase,
    with the first trees checked against the rank-weight scipy MST."""
    from repro.accounting import RoundAccountant
    from repro.core.tree_packing import pack_trees
    from repro.graphs import csr_random_connected_gnm
    from repro.obs import trace

    def traced_pack(graph):
        accountant = RoundAccountant()
        with trace.tracing():
            mark = trace.mark()
            start = time.perf_counter()
            packing = pack_trees(
                graph, seed=PACK_SCALE_SEED, accountant=accountant
            )
            total_s = time.perf_counter() - start
            records = trace.records_since(mark)
            boruvka_s = sum(
                record.seconds for record in records
                if record.name == "pack.boruvka"
            )
            approx_s = sum(
                record.seconds for record in records
                if record.name == "pack.approx_min_cut"
            )
        return total_s, boruvka_s, approx_s, packing, accountant

    # Warm-up: first-call costs stay out of the n=256 row.
    traced_pack(csr_random_connected_gnm(64, 256, seed=PACK_SCALE_SEED))
    rows: dict = {}
    for n in PACK_SCALE_NS:
        # Unit weights keep λ small, so the packing runs on the graph
        # itself (regime A, no sampling) and the reference can follow it.
        graph = csr_random_connected_gnm(
            n, 4 * n, seed=PACK_SCALE_SEED, weight_high=1
        )
        runs = [traced_pack(graph) for _ in range(repeats)]
        total_s = statistics.median(run[0] for run in runs)
        boruvka_s = statistics.median(run[1] for run in runs)
        approx_s = statistics.median(run[2] for run in runs)
        *_times, packing, accountant = runs[-1]
        iterations = len(packing.tree_edge_arrays) + packing.duplicates_removed
        phases = accountant.by_label()["packing:boruvka"]
        packed = [
            frozenset(
                (min(a, b), max(a, b))
                for a, b in zip(eu.tolist(), ev.tolist())
            )
            for eu, ev in packing.tree_edge_arrays[:PACK_SCALE_CHECKED_TREES]
        ]
        identical = not packing.sampled and packed == _rank_weight_trees(
            graph, PACK_SCALE_CHECKED_TREES
        )
        row = rows[f"gnm_{n}"] = {
            "n": n, "m": graph.m, "seed": PACK_SCALE_SEED,
            "iterations": iterations,
            "pack_median_s": round(total_s, 4),
            "approx_min_cut_ms": round(1e3 * approx_s, 3),
            "ms_per_tree": round(1e3 * boruvka_s / iterations, 3),
            "phases_per_tree": round(phases / iterations, 2),
            "us_per_phase": round(1e6 * boruvka_s / phases, 1),
            "identical": identical,
        }
        print(
            f"  gnm n={n:<5} m={graph.m:<6} pack {total_s:6.3f} s  "
            f"approx_min_cut {row['approx_min_cut_ms']:7.3f} ms  "
            f"{iterations} iterations  {row['ms_per_tree']:7.3f} ms/tree  "
            f"{row['phases_per_tree']:5.2f} phases/tree  "
            f"{row['us_per_phase']:8.1f} us/phase  "
            f"identical={identical}"
        )
    rows["identical"] = all(row["identical"] for row in rows.values())
    rows["sweep_16"] = _pack_sweep_row(repeats)
    return rows


def _pack_sweep_row(repeats: int) -> dict:
    """One sweep-size ``pack_trees_many`` batch (16 graphs, every family
    twice, n 24-48): median ms per call in each packing span and in the
    rest of the call.  Report-only."""
    from repro.core.tree_packing import pack_trees_many
    from repro.graphs import CSR_FAMILY_BUILDERS
    from repro.obs import trace

    families = sorted(CSR_FAMILY_BUILDERS)
    low, high = PACK_SWEEP_NS
    graphs = [
        CSR_FAMILY_BUILDERS[families[i % len(families)]](
            low + (high - low) * i // (PACK_SWEEP_GRAPHS - 1), PACK_SCALE_SEED + i
        )
        for i in range(PACK_SWEEP_GRAPHS)
    ]
    seeds = list(range(PACK_SCALE_SEED, PACK_SCALE_SEED + PACK_SWEEP_GRAPHS))

    def traced_batch():
        with trace.tracing():
            mark = trace.mark()
            start = time.perf_counter()
            pack_trees_many(graphs, seeds)
            total_s = time.perf_counter() - start
            records = trace.records_since(mark)
        spans = {
            name: sum(r.seconds for r in records if r.name == name)
            for name in PACK_SPANS
        }
        return total_s, spans

    traced_batch()  # warm-up
    runs = [traced_batch() for _ in range(max(repeats, 5))]
    row = {
        "graphs": PACK_SWEEP_GRAPHS, "n": list(PACK_SWEEP_NS),
        "seed": PACK_SCALE_SEED,
        "call_ms": round(1e3 * statistics.median(run[0] for run in runs), 3),
    }
    for name in PACK_SPANS:
        row[f"{name}_ms"] = round(
            1e3 * statistics.median(run[1][name] for run in runs), 3
        )
    row["rest_ms"] = round(
        1e3 * statistics.median(run[0] - sum(run[1].values()) for run in runs), 3
    )
    print(
        f"  sweep {PACK_SWEEP_GRAPHS} graphs n={low}-{high}  call "
        f"{row['call_ms']:.3f} ms  "
        + "  ".join(f"{name} {row[f'{name}_ms']:.3f}" for name in PACK_SPANS)
        + f"  rest {row['rest_ms']:.3f} ms"
    )
    return row


def run_forest_scale_bench(repeats: int) -> dict:
    """The forest build alone at n 256/1024/4096, first tree and all
    packed trees, with tree 0 checked against its ``TreeKernel``."""
    from repro.core.tree_packing import pack_trees
    from repro.graphs import csr_cycle_graph, csr_random_connected_gnm
    from repro.kernel.forest import stacked_tree_arrays
    from repro.kernel.tree_kernel import TreeKernel

    builders = {
        "gnm": lambda n: csr_random_connected_gnm(n, 4 * n, seed=FOREST_SCALE_SEED),
        "cycle": lambda n: csr_cycle_graph(n, seed=FOREST_SCALE_SEED),
    }
    rows: dict = {}
    for family, build in builders.items():
        for n in FOREST_SCALE_NS:
            packing = pack_trees(build(n), seed=FOREST_SCALE_SEED)
            trees = packing.tree_edge_arrays
            first_s, (stack,) = median_seconds(
                lambda: stacked_tree_arrays([n], [trees[:1]], [0]), max(repeats, 5)
            )
            all_s, _ = median_seconds(
                lambda: stacked_tree_arrays([n], [trees], [0]), repeats
            )
            kernel = TreeKernel(packing.rooted_tree(0, 0))
            identical = (
                stack.order[0].tolist() == kernel.nodes
                and stack.parent[0].tolist() == kernel.parent.tolist()
                and stack.tin[0].tolist() == kernel.tin.tolist()
                and stack.tout[0].tolist() == kernel.tout.tolist()
                and stack.pos[0].tolist() == [kernel.index[x] for x in range(n)]
            )
            rows[f"{family}_{n}"] = {
                "n": n, "seed": FOREST_SCALE_SEED, "trees": len(trees),
                "depth": int(kernel.depth.max()),
                "first_tree_ms": round(1e3 * first_s, 3),
                "all_trees_ms": round(1e3 * all_s, 3),
                "identical": identical,
            }
            print(
                f"  {family:<5} n={n:<5} {len(trees):3d} trees  depth "
                f"{int(kernel.depth.max()):5d}  first tree {1e3 * first_s:7.3f} ms  "
                f"all trees {1e3 * all_s:8.3f} ms  identical={identical}"
            )
    rows["identical"] = all(row["identical"] for row in rows.values())
    return rows


def run_oracle_scale_bench(repeats: int) -> dict:
    """Full oracle solves at n 1024/2048 under the stop rule, against the
    all-trees stacked oracle on the same packing."""
    from repro.core.session import MinCutSolver, SolverConfig
    from repro.graphs import csr_random_connected_gnm
    from repro.kernel.batched import batched_two_respecting_oracle
    from repro.obs import trace

    config = SolverConfig(solver="oracle", compute_congest=False)
    solver = MinCutSolver(config)
    rows: dict = {}
    for n in ORACLE_SCALE_NS:
        graph = csr_random_connected_gnm(n, 4 * n, seed=ORACLE_SCALE_SEED)
        solve_s, result = median_seconds(
            lambda: solver.solve(graph, seed=ORACLE_SCALE_SEED), repeats
        )
        with trace.tracing():
            mark = trace.mark()
            MinCutSolver(config).solve(graph, seed=ORACLE_SCALE_SEED)
            (span,) = [
                record for record in trace.records_since(mark)
                if record.name == "session.solve"
            ]
        packed = solver.pack(graph, seed=ORACLE_SCALE_SEED)
        start = time.perf_counter()
        every = batched_two_respecting_oracle(packed.arrays, packed.stack)
        all_trees_s = time.perf_counter() - start
        best = 0
        for index, candidate in enumerate(every):
            if candidate.better_than(every[best]):
                best = index
        identical = (
            result.best_tree_index == best
            and result.candidate == every[best]
            and result.value == every[best].value
        )
        rows[f"gnm_{n}"] = {
            "n": n, "m": graph.m, "seed": ORACLE_SCALE_SEED,
            "solve_median_s": round(solve_s, 4),
            "all_trees_oracle_s": round(all_trees_s, 4),
            "trees_solved": span.attrs["trees_solved"],
            "trees": span.attrs["trees"],
            "identical": identical,
        }
        print(
            f"  gnm n={n:<5} m={graph.m:<6} solve {solve_s:7.3f} s  "
            f"trees {span.attrs['trees_solved']}/{span.attrs['trees']}  "
            f"all-trees oracle {all_trees_s:7.3f} s  identical={identical}"
        )
    rows["identical"] = all(row["identical"] for row in rows.values())
    return rows


def run_many_bench(repeats: int) -> dict:
    """Sweep throughput: batched ``minimum_cut_many`` vs looped calls."""
    from repro.core.mincut import minimum_cut
    from repro.core.session import SolverConfig, minimum_cut_many
    from repro.graphs import CSR_FAMILY_BUILDERS

    graphs = [
        CSR_FAMILY_BUILDERS["gnm"](MANY_N, seed) for seed in range(MANY_COUNT)
    ]
    seeds = list(range(MANY_COUNT))
    config = SolverConfig(solver="oracle", compute_congest=False)

    micro_repeats = max(repeats, 5)
    loop_samples, loop_results = _timed(
        lambda: [
            minimum_cut(
                graph, seed=seed, solver="oracle", compute_congest=False
            )
            for graph, seed in zip(graphs, seeds)
        ],
        micro_repeats,
    )
    many_samples, many_results = _timed(
        lambda: minimum_cut_many(graphs, config, seeds=seeds), micro_repeats
    )
    identical = all(
        a.value == b.value
        and a.partition == b.partition
        and a.candidate == b.candidate
        and a.ma_rounds == b.ma_rounds
        for a, b in zip(loop_results, many_results)
    )
    speedup = min(loop_samples) / min(many_samples)
    row = {
        "count": MANY_COUNT,
        "n": MANY_N,
        "family": "gnm",
        "solver": "oracle",
        "loop_median_seconds": round(statistics.median(loop_samples), 6),
        "many_median_seconds": round(statistics.median(many_samples), 6),
        "loop_best_seconds": round(min(loop_samples), 6),
        "many_best_seconds": round(min(many_samples), 6),
        "graphs_per_second": round(MANY_COUNT / min(many_samples), 1),
        "speedup": round(speedup, 2),
        "bit_identical": bool(identical),
    }
    print(
        f"  sweep{MANY_COUNT} (gnm n={MANY_N})        "
        f"many {min(many_samples) * 1e3:8.2f} ms"
        f"  loop {min(loop_samples) * 1e3:8.2f} ms"
        f"  speedup {speedup:6.1f}x  identical={identical}"
    )
    return {f"sweep{MANY_COUNT}": row}


def run_sweep_mixed_n_bench(repeats: int) -> dict:
    """A sweep batch of 16 distinct node counts vs one of a single count.

    Both batches hold 16 gnm graphs (m = 2.5n) with the same total node
    count (n 24, 26, .., 54 against 16 x n=39), timed in interleaved
    pairs; each graph is a fresh copy per call, so no per-graph cache
    carries over.  The forest build and the approximate min-cut run once
    per batch whatever the sizes, so the ratio of medians stays near 1;
    ``--check`` fails above ``SWEEP_MIXED_N_CEILING``.  The mixed
    batch's results must equal looped ``minimum_cut`` calls.
    """
    from repro.core.mincut import minimum_cut
    from repro.core.session import SolverConfig, minimum_cut_many
    from repro.graphs import CSR_FAMILY_BUILDERS, CSRGraph

    def batch(sizes):
        return [
            CSR_FAMILY_BUILDERS["gnm"](n, SWEEP_MIXED_N_SEED + i)
            for i, n in enumerate(sizes)
        ]

    def fresh(graphs):
        return [
            CSRGraph(g.n, g.edge_u, g.edge_v, g.edge_w, canonical=True)
            for g in graphs
        ]

    mixed = batch(SWEEP_MIXED_N_SIZES)
    same_n = sum(SWEEP_MIXED_N_SIZES) // len(SWEEP_MIXED_N_SIZES)
    same = batch([same_n] * len(SWEEP_MIXED_N_SIZES))
    assert sum(g.n for g in same) == sum(g.n for g in mixed)
    seeds = list(range(len(mixed)))
    config = SolverConfig(solver="oracle", compute_congest=False)
    minimum_cut_many(fresh(mixed), config, seeds=seeds)  # warm imports
    mixed_samples, same_samples, results, _same_results = _interleaved(
        lambda: minimum_cut_many(fresh(mixed), config, seeds=seeds),
        lambda: minimum_cut_many(fresh(same), config, seeds=seeds),
        max(repeats, SWEEP_MIXED_N_PAIRS),
    )
    identical = all(
        (r.value, r.partition, r.candidate, r.ma_rounds)
        == (a.value, a.partition, a.candidate, a.ma_rounds)
        for r, a in zip(
            results,
            (
                minimum_cut(g, seed=s, solver="oracle", compute_congest=False)
                for g, s in zip(mixed, seeds)
            ),
        )
    )
    ratios = sorted(m / s for m, s in zip(mixed_samples, same_samples))
    quartiles = statistics.quantiles(ratios, n=4)
    ratio = statistics.median(mixed_samples) / statistics.median(same_samples)
    row = {
        "graphs": len(mixed),
        "sizes": list(SWEEP_MIXED_N_SIZES),
        "same_n": same_n,
        "pairs": len(ratios),
        "mixed_median_seconds": round(statistics.median(mixed_samples), 6),
        "same_median_seconds": round(statistics.median(same_samples), 6),
        "ratio": round(ratio, 3),
        "pair_ratio_iqr": round(quartiles[2] - quartiles[0], 3),
        "ceiling": SWEEP_MIXED_N_CEILING,
        "within_ceiling": ratio <= SWEEP_MIXED_N_CEILING,
        "bit_identical": bool(identical),
    }
    print(
        f"  16 distinct n {row['mixed_median_seconds'] * 1e3:8.2f} ms"
        f"  16 x n={same_n} {row['same_median_seconds'] * 1e3:8.2f} ms"
        f"  ratio {ratio:5.2f} (pair IQR {row['pair_ratio_iqr']:.3f})"
        f"  identical={identical}"
    )
    return row


def run_serve_bench(repeats: int) -> dict:
    """Service-tier throughput: cold-cache vs warm-cache vs unbatched.

    The same 50-graph gnm n=24 workload as the ``many`` section, pushed
    through :class:`repro.serve.MinCutService` concurrently:

    * **unbatched** -- one direct ``minimum_cut`` pipeline per request
      (what request-at-a-time traffic costs without the serving tier);
    * **cold** -- a fresh service, every cache empty: requests fuse into
      micro-batched ``minimum_cut_many`` sweeps;
    * **warm** -- the same workload again on the same service: repeats
      are answered from the result-dedup cache / warm packings.

    The PR 8 acceptance bar (enforced with ``--check``): warm qps >=
    3x unbatched qps, with every served result bit-identical to the
    direct solves.
    """
    import asyncio

    from repro.core.mincut import minimum_cut
    from repro.graphs import CSR_FAMILY_BUILDERS
    from repro.serve import MinCutService, ServeConfig

    graphs = [
        CSR_FAMILY_BUILDERS["gnm"](MANY_N, seed) for seed in range(MANY_COUNT)
    ]
    seeds = list(range(MANY_COUNT))
    micro_repeats = max(repeats, 5)

    unbatched_samples, loop_results = _timed(
        lambda: [
            minimum_cut(
                graph, seed=seed, solver="oracle", compute_congest=False
            )
            for graph, seed in zip(graphs, seeds)
        ],
        micro_repeats,
    )

    cold_samples: list[float] = []
    warm_samples: list[float] = []
    cold_results = warm_results = None
    last_stats: dict = {}

    async def one_service_run():
        async with MinCutService(serve=ServeConfig(batch_ms=2.0)) as service:
            start = time.perf_counter()
            cold = await asyncio.gather(
                *(service.submit(g, seed=s) for g, s in zip(graphs, seeds))
            )
            mid = time.perf_counter()
            warm = await asyncio.gather(
                *(service.submit(g, seed=s) for g, s in zip(graphs, seeds))
            )
            end = time.perf_counter()
            return cold, warm, mid - start, end - mid, service.stats()

    for _ in range(micro_repeats):
        cold_results, warm_results, cold_s, warm_s, last_stats = asyncio.run(
            one_service_run()
        )
        cold_samples.append(cold_s)
        warm_samples.append(warm_s)

    identical = all(
        a.value == b.value == c.value
        and a.partition == b.partition == c.partition
        and a.stats["accountant"] == b.stats["accountant"]
        == c.stats["accountant"]
        for a, b, c in zip(loop_results, cold_results, warm_results)
    )
    qps_unbatched = MANY_COUNT / min(unbatched_samples)
    qps_cold = MANY_COUNT / min(cold_samples)
    qps_warm = MANY_COUNT / min(warm_samples)
    row = {
        "count": MANY_COUNT,
        "n": MANY_N,
        "family": "gnm",
        "solver": "oracle",
        "batch_ms": 2.0,
        "unbatched_best_seconds": round(min(unbatched_samples), 6),
        "cold_best_seconds": round(min(cold_samples), 6),
        "warm_best_seconds": round(min(warm_samples), 6),
        "warm_speedup_vs_unbatched": round(qps_warm / qps_unbatched, 2),
        "cold_speedup_vs_unbatched": round(qps_cold / qps_unbatched, 2),
        "mean_batch": last_stats["batcher"]["mean_batch"],
        "packing_cache_hit_rate": last_stats["packing_cache"]["hit_rate"],
        "bit_identical": bool(identical),
    }
    for label, qps in (
        ("unbatched", qps_unbatched), ("cold", qps_cold), ("warm", qps_warm)
    ):
        print(
            f"  serve {label:<22} {MANY_COUNT / qps * 1e3:8.2f} ms"
            f"  {qps:8.1f} qps"
        )
    print(
        f"  warm vs unbatched            "
        f"{row['warm_speedup_vs_unbatched']:6.1f}x  identical={identical}"
    )
    return {
        "qps_unbatched": round(qps_unbatched, 1),
        "qps_cold": round(qps_cold, 1),
        "qps_warm": round(qps_warm, 1),
        f"sweep{MANY_COUNT}": row,
    }


def run_serve_overload_bench() -> dict:
    """Overload economics: the serving tier past capacity (PR 10 row).

    Open-loop arrivals -- ``OVERLOAD_COUNT`` distinct cold graphs fired
    at ``OVERLOAD_OFFERED_FACTOR`` times the service's measured solve
    rate -- against the same service twice:

    * **unshedded** -- no admission control: every request queues, so
      the tail of the arrival train waits behind the whole backlog and
      p99 *time-to-decision* grows with the run length;
    * **shedding** -- ``max_queue=OVERLOAD_MAX_QUEUE``: requests beyond
      the bound get an instant typed ``OverloadedError`` decision, so
      p99 stays bounded by the queue depth while the solver stays just
      as busy.

    Both runs are solver-throughput-bound, which is the acceptance
    argument (enforced with ``--check``): shedding must keep p99
    time-to-decision no worse than unshedded queueing *and* retain at
    least ``OVERLOAD_GOODPUT_SLACK`` of its goodput (solved requests
    per second).  A small ``max_batch`` keeps capacity modest so the
    arrival train genuinely overloads it.
    """
    import asyncio

    from repro.errors import ServeError
    from repro.graphs import CSR_FAMILY_BUILDERS
    from repro.serve import MinCutService, ResilienceConfig, ServeConfig

    serve_config = ServeConfig(batch_ms=1.0, max_batch=4)
    build = CSR_FAMILY_BUILDERS["gnm"]
    graphs = [build(MANY_N, 1000 + i) for i in range(OVERLOAD_COUNT)]

    async def calibrate() -> float:
        async with MinCutService(serve=serve_config) as service:
            start = time.perf_counter()
            await asyncio.gather(
                *(
                    service.submit(graph, seed=i)
                    for i, graph in enumerate(graphs[:32])
                )
            )
            return 32 / (time.perf_counter() - start)

    capacity_qps = asyncio.run(calibrate())
    # Arrivals come in bursts so the average rate hits the offered load
    # even though asyncio.sleep() can't resolve sub-millisecond gaps.
    burst_gap_s = 0.004
    burst = max(
        1, round(OVERLOAD_OFFERED_FACTOR * capacity_qps * burst_gap_s)
    )

    async def overload_run(resilience: "ResilienceConfig | None") -> dict:
        async with MinCutService(
            serve=serve_config, resilience=resilience
        ) as service:
            decisions: list[float] = []
            ok = shed = 0

            async def one(index: int, graph) -> None:
                nonlocal ok, shed
                started = time.perf_counter()
                try:
                    await service.submit(graph, seed=1000 + index)
                    ok += 1
                except ServeError:
                    shed += 1
                decisions.append(time.perf_counter() - started)

            started = time.perf_counter()
            tasks = []
            for index, graph in enumerate(graphs):
                tasks.append(asyncio.ensure_future(one(index, graph)))
                if (index + 1) % burst == 0:
                    await asyncio.sleep(burst_gap_s)
            await asyncio.gather(*tasks)
            elapsed = time.perf_counter() - started
        decisions.sort()
        p99 = decisions[min(len(decisions) - 1, int(0.99 * len(decisions)))]
        p50 = decisions[len(decisions) // 2]
        return {
            "ok": ok,
            "shed": shed,
            "seconds": round(elapsed, 6),
            "goodput_qps": round(ok / elapsed, 1) if elapsed > 0 else None,
            "p50_decision_ms": round(p50 * 1e3, 2),
            "p99_decision_ms": round(p99 * 1e3, 2),
        }

    def best_of(resilience: "ResilienceConfig | None") -> dict:
        trials = [
            asyncio.run(overload_run(resilience))
            for _ in range(OVERLOAD_REPEATS)
        ]
        best = dict(max(trials, key=lambda r: r["goodput_qps"]))
        best["goodput_qps"] = max(r["goodput_qps"] for r in trials)
        best["p99_decision_ms"] = min(r["p99_decision_ms"] for r in trials)
        best["trials"] = trials
        return best

    unshedded = best_of(None)
    shedding = best_of(
        ResilienceConfig(max_queue=OVERLOAD_MAX_QUEUE, retry_after_ms=5.0)
    )
    p99_bounded = (
        shedding["p99_decision_ms"] <= unshedded["p99_decision_ms"]
    )
    goodput_ok = (
        shedding["goodput_qps"]
        >= unshedded["goodput_qps"] * OVERLOAD_GOODPUT_SLACK
    )
    row = {
        "count": OVERLOAD_COUNT,
        "n": MANY_N,
        "family": "gnm",
        "solver": "oracle",
        "batch_ms": serve_config.batch_ms,
        "max_batch": serve_config.max_batch,
        "max_queue": OVERLOAD_MAX_QUEUE,
        "capacity_qps": round(capacity_qps, 1),
        "offered_qps": round(OVERLOAD_OFFERED_FACTOR * capacity_qps, 1),
        "unshedded": unshedded,
        "shedding": shedding,
        "p99_bounded": bool(p99_bounded),
        "goodput_ok": bool(goodput_ok),
    }
    for label, run in (("unshedded", unshedded), ("shedding", shedding)):
        print(
            f"  overload {label:<14} ok {run['ok']:3d}  shed {run['shed']:3d}"
            f"  goodput {run['goodput_qps']:8.1f}/s"
            f"  p99 {run['p99_decision_ms']:8.2f} ms"
        )
    print(
        f"  overload gates               p99_bounded={p99_bounded}"
        f"  goodput_ok={goodput_ok}"
    )
    return row


def run_serve_tests(marker: str = "serve", path: str = "tests/test_serve.py") -> dict:
    """Run one marked pytest suite in a subprocess (the --check gates)."""
    import subprocess

    root = Path(__file__).resolve().parent.parent
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-m", marker, path],
        cwd=root,
        env={**__import__("os").environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - start
    passed = proc.returncode == 0
    tail = (proc.stdout.strip().splitlines() or ["<no output>"])[-1]
    print(f"  pytest -m {marker:<18} {seconds * 1e3:8.0f} ms  {tail}")
    if not passed:
        print(proc.stdout, file=sys.stderr)
        print(proc.stderr, file=sys.stderr)
    return {"passed": passed, "seconds": round(seconds, 3), "summary": tail}


def run_profile_bench() -> dict:
    """Per-phase breakdown of one traced end-to-end oracle solve.

    Committed so every BENCH file shows *where* the pipeline spends its
    time (seconds + peak scratch bytes + paper-rounds per phase), not
    just the end-to-end total.
    """
    from repro.core.mincut import minimum_cut
    from repro.graphs import csr_random_connected_gnm
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    graph = csr_random_connected_gnm(CSR_E2E_N, CSR_E2E_M, seed=CSR_SEED)
    obs_trace.clear()
    obs_metrics.reset()
    with obs_trace.tracing():
        result = minimum_cut(
            graph, seed=CSR_SEED, solver="oracle", compute_congest=False
        )
    obs_trace.clear()
    obs_metrics.reset()
    profile = result.stats["profile"]

    phases: dict[str, dict] = {}

    def walk(node: dict) -> None:
        phases[node["path"]] = {
            "count": node["count"],
            "seconds": round(node["seconds"], 6),
            "self_seconds": round(node["self_seconds"], 6),
            "bytes_peak": node["bytes_peak"],
            "rounds": node["rounds"],
        }
        for child in node["children"]:
            walk(child)

    for root in profile["tree"]:
        walk(root)
    for path, row in phases.items():
        size = row["bytes_peak"]
        print(
            f"  {path:<34} {row['seconds'] * 1e3:8.2f} ms"
            f"  rounds {row['rounds'] or '-':>8}"
            + (f"  peak {size:,} B" if size else "")
        )
    return {
        "n": CSR_E2E_N, "m": CSR_E2E_M, "seed": CSR_SEED,
        "solver": "oracle",
        "total_seconds": round(profile["total_seconds"], 6),
        "ledger_rounds": profile["ledger_rounds"],
        "unattributed_rounds": profile["unattributed_rounds"],
        "phases": phases,
    }


def run_trace_overhead_bench(repeats: int) -> dict:
    """Instrumentation overhead with tracing off -- disabled spans plus
    the always-on metrics (the PR 7 acceptance row, measured on every
    gate workload: E10, the serving tier and the minor-aggregation
    solver)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
    from check_trace_overhead import WORKLOADS, measure_trace_overhead

    rows: dict = {}
    for workload in WORKLOADS:
        row = measure_trace_overhead(repeats, workload=workload)
        row["within_budget"] = bool(
            row["implied_overhead_fraction"] <= row["budget_fraction"]
        )
        print(
            f"  tracing off ({workload:<5})          "
            f"{row['span_calls']} spans @ {row['span_call_cost_ns']:.0f} ns, "
            f"{row['metric_ops']} metric ops @ {row['metric_op_cost_ns']:.0f} ns"
            f"  -> {row['implied_overhead_fraction']:.4%} of "
            f"{row['workload_best_seconds'] * 1e3:.1f} ms"
            f"  (budget {row['budget_fraction']:.0%})"
            f"  within_budget={row['within_budget']}"
        )
        rows[workload] = row
    rows["within_budget"] = all(
        row["within_budget"] for row in rows.values() if isinstance(row, dict)
    )
    return rows


def _tracked_metrics(payload: dict) -> dict[str, float]:
    """Flat name -> seconds for every regression-gated kernel metric."""
    metrics: dict[str, float] = {}
    for section, key in (
        ("kernel_micro", "kernel_best_seconds"),
        ("csr", "csr_best_seconds"),
        ("many", "many_best_seconds"),
        ("serve", "warm_best_seconds"),
        ("ma", "compiled_best_seconds"),
    ):
        for label, row in payload.get(section, {}).items():
            if isinstance(row, dict) and key in row:  # skip error rows
                metrics[f"{section}.{label}"] = row[key]
    return metrics


def compare_against(baseline_path: str, payload: dict) -> int:
    """Exit status of the regression gate vs a committed baseline file.

    Tolerant by design: metrics missing on either side (renamed sections,
    error rows, baselines from older schemas) are reported and skipped,
    never crashed on -- only a tracked metric present in *both* files can
    fail the gate.
    """
    baseline_file = Path(baseline_path)
    if not baseline_file.exists():
        print(
            f"regression gate: baseline {baseline_path} not found -- "
            "nothing to compare against, passing",
        )
        return 0
    try:
        baseline = json.loads(baseline_file.read_text())
    except json.JSONDecodeError as exc:
        print(
            f"regression gate: baseline {baseline_path} is not valid JSON "
            f"({exc}) -- skipped",
            file=sys.stderr,
        )
        return 0
    base_metrics = _tracked_metrics(baseline)
    new_metrics = _tracked_metrics(payload)
    failures = []
    print(
        f"regression gate vs {baseline_path} (>{REGRESSION_SLACK:.0%} "
        f"and >{REGRESSION_ABS_SLACK_S * 1e3:g} ms slower fails):"
    )
    for name in sorted(set(new_metrics) - set(base_metrics)):
        print(f"  {name:<42} new metric (no baseline row) -- skipped")
    for name, base_seconds in sorted(base_metrics.items()):
        if name not in new_metrics:
            print(f"  {name:<42} missing in current run -- skipped")
            continue
        now = new_metrics[name]
        ratio = now / base_seconds if base_seconds else 1.0
        regressed = (
            ratio > REGRESSION_SLACK
            and (now - base_seconds) > REGRESSION_ABS_SLACK_S
        )
        flag = "FAIL" if regressed else "ok"
        print(
            f"  {name:<42} {base_seconds * 1e3:9.2f} ms -> {now * 1e3:9.2f} ms"
            f"  ({ratio:5.2f}x) {flag}"
        )
        if regressed:
            failures.append(name)
    if failures:
        print(
            f"FAIL: {len(failures)} kernel metric(s) regressed >10%: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_local.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            f"exit non-zero unless the many-graph sweep is >= "
            f"{MANY_SPEEDUP_FLOOR}x (and the other sections meet their bars)"
        ),
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE.json",
        help="exit non-zero when any tracked metric is >10%% slower than the baseline",
    )
    args = parser.parse_args()

    print("experiments (quick=True):")
    experiments = run_experiments(args.repeats)
    print("kernel micro:")
    micro = run_kernel_micro(args.repeats)
    print("csr subsystem:")
    csr = run_csr_bench(args.repeats)
    print("many-graph sweep:")
    many = run_many_bench(args.repeats)
    print("mixed-size sweep batch (16 distinct n vs one n):")
    sweep_mixed_n = run_sweep_mixed_n_bench(args.repeats)
    print("minor-aggregation backends (closure vs compiled):")
    ma = run_ma_bench(args.repeats)
    print("packing min-cut value (contraction vs Stoer-Wagner):")
    approx_cut = run_approx_cut_bench(args.repeats)
    print("packing scale (pack_trees, unit-weight gnm m=4n):")
    pack_scale = run_pack_scale_bench(args.repeats)
    print("forest scale (stacked_tree_arrays, first tree and all trees):")
    forest_scale = run_forest_scale_bench(args.repeats)
    print("stacked 2-respecting oracle (stacked vs per-tree):")
    oracle_stack = run_oracle_stack_bench(args.repeats)
    print("oracle scale (stop rule vs all trees, gnm m=4n):")
    oracle_scale = run_oracle_scale_bench(args.repeats)
    print("minor-aggregation vs oracle (gnm m=3n):")
    ma_vs_oracle = run_ma_vs_oracle_bench(args.repeats)
    print("default config vs compute_congest=False (gnm m=4n):")
    default_config = run_default_config_bench(args.repeats)
    print("minor-aggregation scale row:")
    ma_scale = run_ma_scale_bench()
    print("serve tier (cold/warm/unbatched):")
    serve = run_serve_bench(args.repeats)
    print("serve overload (shedding on vs off past capacity):")
    serve_overload = run_serve_overload_bench()
    if args.check:
        serve["tests"] = run_serve_tests("serve", "tests/test_serve.py")
        serve["chaos_tests"] = run_serve_tests(
            "servechaos", "tests/test_serve_chaos.py"
        )
    print("traced-solve profile:")
    profile = run_profile_bench()
    print("trace overhead:")
    trace_overhead = run_trace_overhead_bench(args.repeats)

    payload = {
        "schema": "repro-bench/10",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "experiments": experiments,
        "kernel_micro": micro,
        "csr": csr,
        "many": many,
        "sweep_mixed_n": sweep_mixed_n,
        "ma": ma,
        "ma_scale": ma_scale,
        "approx_cut": approx_cut,
        "pack_scale": pack_scale,
        "forest_scale": forest_scale,
        "oracle_stack": oracle_stack,
        "oracle_scale": oracle_scale,
        "ma_vs_oracle": ma_vs_oracle,
        "default_config": default_config,
        "serve": serve,
        "serve_overload": serve_overload,
        "profile": profile,
        "trace_overhead": trace_overhead,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")

    ok = all(row["bit_identical"] for row in micro.values())
    ok = ok and csr["mincut_oracle"]["bit_identical"]
    ok = ok and all(row["bit_identical"] for row in many.values())
    ok = ok and sweep_mixed_n["bit_identical"]
    ok = ok and serve[f"sweep{MANY_COUNT}"]["bit_identical"]
    ok = ok and all(row["bit_identical"] for row in ma.values())
    ok = ok and approx_cut["identical"]
    ok = ok and pack_scale["identical"]
    ok = ok and forest_scale["identical"]
    ok = ok and oracle_stack["identical"]
    ok = ok and oracle_scale["identical"]
    ok = ok and ma_vs_oracle["identical"]
    many_fast_enough = all(
        row["speedup"] >= MANY_SPEEDUP_FLOOR for row in many.values()
    )
    if not ok:
        print(
            "FAIL: batched results are not identical to the reference path",
            file=sys.stderr,
        )
        return 1
    if args.check and not many_fast_enough:
        print(
            f"FAIL: many-graph sweep speedup below {MANY_SPEEDUP_FLOOR}x",
            file=sys.stderr,
        )
        return 1
    if args.check and not sweep_mixed_n["within_ceiling"]:
        print(
            f"FAIL: a sweep batch of 16 distinct n takes {sweep_mixed_n['ratio']}x "
            f"one of a single n (ceiling {SWEEP_MIXED_N_CEILING}x)",
            file=sys.stderr,
        )
        return 1
    ma_fast_enough = all(
        row["speedup"] >= MA_SPEEDUP_FLOOR for row in ma.values()
    )
    if args.check and not ma_fast_enough:
        print(
            f"FAIL: compiled MA round speedup below {MA_SPEEDUP_FLOOR}x",
            file=sys.stderr,
        )
        return 1
    if args.check and not default_config["within_ceiling"]:
        print(
            f"FAIL: the default config's diameter costs more than "
            f"{DEFAULT_CONFIG_OVERHEAD_CEILING:.0%} of a compute_congest=False "
            f"solve at n={max(DEFAULT_CONFIG_NS)}",
            file=sys.stderr,
        )
        return 1
    if args.check and approx_cut["median_speedup"] < APPROX_CUT_SPEEDUP_FLOOR:
        print(
            f"FAIL: packing min-cut value speedup below "
            f"{APPROX_CUT_SPEEDUP_FLOOR}x ({approx_cut['median_speedup']}x)",
            file=sys.stderr,
        )
        return 1
    serve_row = serve[f"sweep{MANY_COUNT}"]
    if args.check and serve_row["warm_speedup_vs_unbatched"] < SERVE_WARM_FLOOR:
        print(
            f"FAIL: warm-cache served qps below {SERVE_WARM_FLOOR}x unbatched "
            f"({serve_row['warm_speedup_vs_unbatched']}x)",
            file=sys.stderr,
        )
        return 1
    if args.check and not serve.get("tests", {}).get("passed", True):
        print("FAIL: serve test suite failed", file=sys.stderr)
        return 1
    if args.check and not serve.get("chaos_tests", {}).get("passed", True):
        print("FAIL: servechaos test suite failed", file=sys.stderr)
        return 1
    if args.check and not (
        serve_overload["p99_bounded"] and serve_overload["goodput_ok"]
    ):
        print(
            "FAIL: overload shedding row missed its gate "
            f"(p99_bounded={serve_overload['p99_bounded']}, "
            f"goodput_ok={serve_overload['goodput_ok']})",
            file=sys.stderr,
        )
        return 1
    if args.check and not trace_overhead["within_budget"]:
        print(
            "FAIL: disabled-mode tracing overhead exceeds budget "
            "(see trace_overhead rows)",
            file=sys.stderr,
        )
        return 1
    if args.compare:
        return compare_against(args.compare, payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
