"""Command-line interface.

Usage (also available as ``python -m repro``):

    python -m repro mincut --edges network.txt
    python -m repro mincut --edges network.npz
    python -m repro mincut --family delaunay --n 80 --seed 3 --verbose
    python -m repro mincut --family gnm --solver stoer-wagner
    python -m repro sweep --family gnm --n 24 --count 50 --json out.json
    python -m repro profile --family gnm --n 60 --solver oracle
    python -m repro generate --family grid --n 49 --out grid.npz
    python -m repro info

The ``mincut`` command reads a whitespace-separated edge list
(``u v weight`` per line, weight optional) or a ``.npz`` CSR dump, or
generates one of the built-in families, runs the exact min-cut through a
:class:`~repro.core.session.MinCutSolver` session, and prints the value,
the partition, the witness, and the round accounting.  ``--solver``
accepts any name in the solver registry -- including entries added at
run time with :func:`repro.register_solver`.

The ``sweep`` command runs a whole family sweep through the batched
:func:`repro.minimum_cut_many` entrypoint (one amortized pipeline across
all instances, bit-identical to per-graph runs) and reports JSON.

Graphs are built as CSR graphs (:class:`~repro.graphs.csr.CSRGraph`) by
default, and every solver runs on the CSR arrays.  ``--backend
networkx`` only picks what the CLI builds: a networkx graph, which the
session converts back once with :meth:`CSRGraph.from_networkx` -- an I/O
round trip that returns bit-identical results.

There is exactly **one** family table: the CSR-first builders in
:data:`repro.graphs.CSR_FAMILY_BUILDERS`.  The networkx-returning
``FAMILIES`` view below wraps each builder in ``to_networkx()``, so a
family added to the CSR table is automatically available on both
backends (and in both ``mincut`` and ``sweep``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING

import repro
from repro.core.registry import registered_solvers, solver_descriptions
from repro.errors import ReproError
from repro.graphs import CSR_FAMILY_BUILDERS, CSRGraph

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx


def _networkx_family(builder):
    def build(n: int, seed: int) -> nx.Graph:
        return builder(n, seed).to_networkx()

    return build


#: CSR-direct builders -- the single source of truth for CLI families.
CSR_FAMILIES = CSR_FAMILY_BUILDERS

#: networkx-returning view of the same families (``--backend networkx`` and
#: external callers): identical weighted graphs, edge for edge.
FAMILIES = {
    name: _networkx_family(builder)
    for name, builder in CSR_FAMILY_BUILDERS.items()
}


def read_edge_list(path: str) -> nx.Graph:
    """Parse ``u v [weight]`` lines into a networkx graph; '#' comments.

    Routed through the CSR reader so both backends enumerate edges in the
    same canonical order -- which keeps ``--backend networkx`` runs
    bit-identical to the CSR fast path on file inputs too.
    """
    return read_edge_list_csr(path).to_networkx()


def read_edge_list_csr(path: str) -> CSRGraph:
    """Parse ``u v [weight]`` lines straight into a CSR graph.

    Node labels are the literal tokens (first-appearance order, matching
    the networkx reader); repeated edges keep the last weight, like
    repeated ``add_edge`` calls would.
    """
    return CSRGraph.from_edge_list(list(_parse_edge_lines(path)))


def _parse_edge_lines(path: str):
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v [weight]'")
            weight = int(parts[2]) if len(parts) > 2 else 1
            yield parts[0], parts[1], weight


def write_edge_list(graph, out) -> None:
    """Write ``u v weight`` lines (networkx or CSR input)."""
    if isinstance(graph, CSRGraph):
        labels = graph.node_labels()
        weights = (
            graph.edge_w.astype(int) if graph.int_weights else graph.edge_w
        )
        for a, b, w in zip(
            graph.edge_u.tolist(), graph.edge_v.tolist(), weights.tolist()
        ):
            out.write(f"{labels[a]} {labels[b]} {w}\n")
        return
    for u, v, data in graph.edges(data=True):
        out.write(f"{u} {v} {data.get('weight', 1)}\n")


def _family_builder(name: str, backend: str):
    """Resolve a family name for a backend; unknown names list what exists.

    The same registry-style treatment unknown solvers get: the error
    enumerates every registered family instead of guessing.
    """
    families = CSR_FAMILIES if backend == "csr" else FAMILIES
    builder = families.get(name)
    if builder is None:
        known = ", ".join(sorted(families))
        raise SystemExit(f"unknown family {name!r}; registered families: {known}")
    return builder


def _build_graph(args):
    backend = getattr(args, "backend", "csr")
    use_csr = backend == "csr"
    if getattr(args, "edges", None):
        if args.edges.endswith(".npz"):
            graph = CSRGraph.load_npz(args.edges)
            return graph if use_csr else graph.to_networkx()
        return (read_edge_list_csr if use_csr else read_edge_list)(args.edges)
    return _family_builder(args.family, backend)(args.n, args.seed)


def cmd_mincut(args) -> int:
    try:
        config = repro.SolverConfig.from_args(args)
        graph = _build_graph(args)
        result = repro.MinCutSolver(config).solve(graph, seed=args.seed)
    except (OSError, ValueError, ReproError) as error:
        raise SystemExit(str(error))
    print(f"min-cut value : {result.value}")
    side_a, side_b = result.partition
    print(f"partition     : {len(side_a)} | {len(side_b)} nodes")
    print(f"cut edges     : {sorted(map(str, result.cut_edges))}")
    if result.respecting_edges:
        print(f"witness       : {result.candidate.kind} "
              f"{tuple(map(str, result.respecting_edges))} "
              f"on packed tree #{result.best_tree_index}")
    else:
        print(f"witness       : partition reported by {result.solver} "
              "(no respecting tree edges)")
    if getattr(args, "certify", False):
        certificate = result.verify(graph)
        status = "PASS" if certificate.ok else "FAIL"
        passed = sum(1 for ok in certificate.checks.values() if ok)
        print(f"certificate   : {status} "
              f"({passed}/{len(certificate.checks)} checks, "
              f"recomputed value {certificate.recomputed_value})")
        if not certificate.ok:
            for failure in certificate.failures:
                print(f"  ! {failure}")
            return 1
    if args.verbose:
        backend = "csr" if isinstance(graph, CSRGraph) else "networkx"
        print(f"backend       : {backend}")
        print(f"solver        : {result.solver}")
        print(f"packed trees  : {len(result.packing.trees)} "
              f"(sampled={result.packing.sampled})")
        print(f"MA rounds     : {result.ma_rounds:,.0f}")
        if result.congest is not None:
            est = result.congest
            print("CONGEST (Thm 17 estimates):")
            print(f"  general        ~ {est.general:,.0f}")
            print(f"  excluded-minor ~ {est.excluded_minor:,.0f}")
            print(f"  known topology ~ {est.known_topology:,.0f}")
            print(f"  well-connected ~ {est.mixing:,.0f}")
    return 0


def cmd_sweep(args) -> int:
    """Run a family sweep through the batched many-graph entrypoint."""
    seeds = list(range(args.seed, args.seed + args.count))
    certify = getattr(args, "certify", False)
    try:
        config = repro.SolverConfig.from_args(args)
        builder = _family_builder(args.family, args.backend)
        graphs = [builder(args.n, seed) for seed in seeds]
        start = time.perf_counter()
        results = repro.minimum_cut_many(
            graphs, config, seeds=seeds, certify=certify
        )
    except (ValueError, ReproError) as error:
        raise SystemExit(str(error))
    elapsed = time.perf_counter() - start

    def row(seed, result):
        if isinstance(result, repro.SweepFailure):
            return {"seed": seed, "failure": result.as_dict()}
        entry = {
            "seed": seed,
            "value": result.value,
            "partition_sizes": [len(side) for side in result.partition],
            "cut_edges": sorted(map(str, result.cut_edges)),
            "witness": list(map(str, result.respecting_edges)),
            "best_tree_index": result.best_tree_index,
            "ma_rounds": result.ma_rounds,
        }
        if certify:
            entry["certified"] = result.stats["certificate"]["ok"]
        return entry

    failures = [r for r in results if isinstance(r, repro.SweepFailure)]
    payload = {
        "family": args.family,
        "n": args.n,
        "count": args.count,
        "seeds": seeds,
        "config": config.as_dict(),
        "elapsed_seconds": round(elapsed, 6),
        "graphs_per_second": round(args.count / elapsed, 2) if elapsed else None,
        "failures": len(failures),
        "results": [row(seed, result) for seed, result in zip(seeds, results)],
    }
    text = json.dumps(payload, indent=2)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
        print(f"swept {args.count} x {args.family}(n={args.n}) "
              f"in {elapsed:.3f}s -> {args.json}"
              + (f" ({len(failures)} failed)" if failures else ""))
    else:
        print(text)
    return 1 if failures else 0


def cmd_profile(args) -> int:
    """Run one traced solve and print the per-phase profile table."""
    from repro.obs import export_chrome, export_ndjson, render_profile, trace

    try:
        config = repro.SolverConfig.from_args(args).replace(trace=True)
        graph = _build_graph(args)
        trace.clear()
        result = repro.MinCutSolver(config).solve(graph, seed=args.seed)
    except (OSError, ValueError, ReproError) as error:
        raise SystemExit(str(error))
    profile = result.stats.get("profile")
    if profile is None:
        raise SystemExit(
            f"solver {config.solver!r} attached no profile "
            "(tracing disabled or no spans recorded)"
        )
    print(f"min-cut value : {result.value}  (solver={result.solver}, "
          f"seed={args.seed})")
    print()
    print(render_profile(profile))
    if args.chrome:
        export_chrome(args.chrome)
        print(f"\nChrome trace  : {args.chrome} "
              "(load via chrome://tracing or https://ui.perfetto.dev)")
    if args.ndjson:
        export_ndjson(args.ndjson)
        print(f"NDJSON spans  : {args.ndjson}")
    return 0


def cmd_generate(args) -> int:
    try:
        graph = _build_graph(args)
    except (OSError, ValueError, ReproError) as error:
        raise SystemExit(str(error))
    if args.out and args.out.endswith(".npz"):
        csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_networkx(graph)
        csr.save_npz(args.out)
        print(f"wrote {csr.n} nodes / {csr.m} edges to {args.out} (CSR)")
    elif args.out:
        with open(args.out, "w") as handle:
            write_edge_list(graph, handle)
        print(f"wrote {graph.number_of_nodes()} nodes / "
              f"{graph.number_of_edges()} edges to {args.out}")
    else:
        write_edge_list(graph, sys.stdout)
    return 0


def cmd_serve(args) -> int:
    """Run the line-delimited-JSON TCP min-cut service."""
    import asyncio

    from repro.serve import MinCutServer, ResilienceConfig, ServeConfig

    try:
        config = repro.SolverConfig.from_args(args)
        serve = ServeConfig.from_env(
            **{
                key: value
                for key, value in (
                    ("batch_ms", args.batch_ms),
                    ("max_batch", args.max_batch),
                    ("cache_bytes", args.cache_bytes),
                    ("result_cache_size", args.result_cache),
                )
                if value is not None
            }
        )
        resilience = ResilienceConfig.from_env(
            **{
                key: value
                for key, value in (
                    ("deadline_ms", args.deadline_ms),
                    ("max_queue", args.max_queue),
                    ("watchdog_ms", args.watchdog_ms),
                )
                if value is not None
            }
        )
    except (ValueError, ReproError) as error:
        raise SystemExit(str(error))

    async def run() -> int:
        async with MinCutServer(
            host=args.host, port=args.port, config=config, serve=serve,
            resilience=resilience,
        ) as server:
            print(
                f"repro serve: listening on {server.host}:{server.port} "
                f"(solver={config.solver}, batch window "
                f"{server.service._batcher.batch_ms}ms, packing cache "
                f"{server.service.packing_cache.budget_bytes // (1024 * 1024)}"
                "MiB)",
                flush=True,
            )
            try:
                await server.serve_forever()
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                pass
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("repro serve: shutting down")
        return 0


def cmd_loadgen(args) -> int:
    """Drive a running ``repro serve`` instance and report qps/latency."""
    import asyncio

    from repro.serve import ChaosPlan, RetryPolicy, run_loadgen

    retry = (
        RetryPolicy(attempts=args.retries + 1, seed=args.retry_seed)
        if args.retries > 0
        else None
    )

    async def run() -> dict:
        if args.chaos is None:
            return await run_loadgen(
                host=args.host,
                port=args.port,
                count=args.count,
                n=args.n,
                family=args.family,
                distinct=args.distinct,
                concurrency=args.concurrency,
                solver=args.solver,
                repeat=args.repeat,
                deadline_ms=args.deadline_ms,
                retry=retry,
            )
        # --chaos: a self-contained drill -- spin up an in-process
        # server under the seeded plan, drive it with retrying clients,
        # and report the fault ledger next to the client summary.
        from repro.serve import MinCutServer

        plan = ChaosPlan.parse(args.chaos)
        async with MinCutServer(port=0, chaos=plan) as server:
            summary = await run_loadgen(
                host=server.host,
                port=server.port,
                count=args.count,
                n=args.n,
                family=args.family,
                distinct=args.distinct,
                concurrency=args.concurrency,
                solver=args.solver,
                repeat=args.repeat,
                deadline_ms=args.deadline_ms,
                retry=retry or RetryPolicy(seed=plan.seed),
            )
            summary["chaos"] = {
                "plan": plan.describe(),
                "injected": server.chaos.stats(),
                "resets": server.stats()["tcp"]["resets"],
                "resilience": server.service.stats()["resilience"],
            }
        return summary

    summary = asyncio.run(run())
    text = json.dumps(summary, indent=2)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
        print(
            f"loadgen: {summary['requests']} requests in "
            f"{summary['seconds']}s ({summary['qps']} qps, "
            f"{summary['failures']} failures) -> {args.json}"
        )
    else:
        print(text)
    return 1 if summary["failures"] else 0


def cmd_info(_args) -> int:
    print(f"repro {repro.__version__} -- Universally-Optimal Distributed "
          "Exact Min-Cut (Ghaffari & Zuzic, PODC 2022)")
    print("families :", ", ".join(sorted(FAMILIES)))
    print("solvers  :")
    for name, description in solver_descriptions().items():
        print(f"  {name:<20} {description}")
    print("backends : csr (default), networkx (converted to csr on input)")
    print("see also : python -m repro.experiments  (paper-vs-measured report)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Exact distributed weighted min-cut."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p, with_edges=True):
        if with_edges:
            p.add_argument(
                "--edges",
                help="edge-list file ('u v [weight]' per line) or .npz CSR dump",
            )
        p.add_argument("--family", default="gnm", help="built-in family")
        p.add_argument("--n", type=int, default=40, help="graph size")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--backend", default="csr", choices=["csr", "networkx"],
            help="graph type the CLI builds (networkx is converted to csr "
                 "on input)",
        )

    def add_solver_args(p):
        p.add_argument(
            "--solver", default="minor-aggregation",
            choices=list(registered_solvers()),
        )
        p.add_argument("--trees", type=int, default=None)
        p.add_argument(
            "--no-congest", action="store_true",
            help="skip the Theorem 17 CONGEST estimates",
        )
        p.add_argument(
            "--certify", action="store_true",
            help="independently re-verify the returned cut against the "
                 "raw edge table (nonzero exit on failure)",
        )

    p_mincut = sub.add_parser("mincut", help="compute the exact min-cut")
    add_graph_args(p_mincut)
    add_solver_args(p_mincut)
    p_mincut.add_argument("--verbose", action="store_true")
    p_mincut.set_defaults(func=cmd_mincut)

    p_sweep = sub.add_parser(
        "sweep",
        help="min-cut a whole family sweep via the batched entrypoint",
    )
    add_graph_args(p_sweep, with_edges=False)
    add_solver_args(p_sweep)
    p_sweep.add_argument(
        "--count", type=int, default=50,
        help="number of instances (seeds seed .. seed+count-1)",
    )
    p_sweep.add_argument("--json", help="write the JSON report here")
    p_sweep.set_defaults(func=cmd_sweep)

    p_profile = sub.add_parser(
        "profile",
        help="run one traced solve and print the per-phase profile "
             "(seconds + peak bytes + paper-rounds)",
    )
    add_graph_args(p_profile)
    add_solver_args(p_profile)
    p_profile.add_argument(
        "--chrome", help="also export the span buffer as a Chrome trace JSON"
    )
    p_profile.add_argument(
        "--ndjson", help="also export the span buffer as NDJSON"
    )
    p_profile.set_defaults(func=cmd_profile)

    p_gen = sub.add_parser("generate", help="emit a generated edge list")
    add_graph_args(p_gen)
    p_gen.add_argument("--out", help="output path (.txt edge list or .npz CSR)")
    p_gen.set_defaults(func=cmd_generate)

    p_serve = sub.add_parser(
        "serve",
        help="run the async min-cut service (line-delimited JSON over TCP)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7465,
        help="TCP port (0 picks a free one)",
    )
    p_serve.add_argument(
        "--solver", default="oracle", choices=list(registered_solvers()),
        help="default solver for requests that name none",
    )
    p_serve.add_argument("--trees", type=int, default=None)
    p_serve.add_argument(
        "--no-congest", action="store_true", default=True,
        help=argparse.SUPPRESS,
    )
    p_serve.add_argument(
        "--batch-ms", type=float, default=None,
        help="micro-batch window in ms (default REPRO_SERVE_BATCH_MS or 2)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=None,
        help="cap on requests fused per batch (default 64)",
    )
    p_serve.add_argument(
        "--cache-bytes", type=int, default=None,
        help="packing-cache byte budget "
             "(default REPRO_SERVE_CACHE_BYTES or 128 MiB)",
    )
    p_serve.add_argument(
        "--result-cache", type=int, default=None,
        help="result-dedup LRU entries (0 disables; default 4096)",
    )
    p_serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request budget in ms "
             "(default REPRO_SERVE_DEADLINE_MS or unbounded)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=None,
        help="admission depth budget; over it requests are shed with "
             "OverloadedError (default REPRO_SERVE_MAX_QUEUE or unbounded)",
    )
    p_serve.add_argument(
        "--watchdog-ms", type=float, default=None,
        help="hard wall-clock budget per fused batch solve "
             "(default: armed only by request deadlines)",
    )
    p_serve.set_defaults(func=cmd_serve, backend="csr", certify=False)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive a running `repro serve` and report qps + latency",
    )
    p_loadgen.add_argument("--host", default="127.0.0.1")
    p_loadgen.add_argument("--port", type=int, default=7465)
    p_loadgen.add_argument(
        "--count", type=int, default=50, help="requests per repeat"
    )
    p_loadgen.add_argument("--n", type=int, default=24, help="graph size")
    p_loadgen.add_argument("--family", default="gnm")
    p_loadgen.add_argument(
        "--distinct", type=int, default=None,
        help="unique graphs in the workload (< count exercises the caches)",
    )
    p_loadgen.add_argument("--concurrency", type=int, default=8)
    p_loadgen.add_argument(
        "--repeat", type=int, default=1,
        help="replay the workload this many times (2+ measures warm paths)",
    )
    p_loadgen.add_argument(
        "--solver", default=None, choices=list(registered_solvers()),
        help="per-request solver override (default: server's default)",
    )
    p_loadgen.add_argument(
        "--deadline-ms", type=float, default=None,
        help="stamp every request with this budget in ms",
    )
    p_loadgen.add_argument(
        "--retries", type=int, default=0,
        help="arm each connection with up to this many seeded-backoff "
             "retries (0 = no retry)",
    )
    p_loadgen.add_argument(
        "--retry-seed", type=int, default=0,
        help="base seed of the retry jitter streams",
    )
    p_loadgen.add_argument(
        "--chaos", nargs="?", const="", default=None, metavar="SPEC",
        help="self-contained chaos drill: start an in-process server "
             "under a seeded ChaosPlan (SPEC like "
             "'seed=7,drop_before=0.05,worker=0.2', a bare seed, or "
             "empty for the default mixed plan) and drive it with "
             "retrying clients; --host/--port are ignored",
    )
    p_loadgen.add_argument("--json", help="write the JSON summary here")
    p_loadgen.set_defaults(func=cmd_loadgen)

    p_info = sub.add_parser("info", help="package information")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module entry point
    sys.exit(main())
