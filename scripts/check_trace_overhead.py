#!/usr/bin/env python
"""Gate: disabled-mode tracing plus the always-on metrics must cost under 2%.

The observability layer (:mod:`repro.obs`) promises that with tracing
disabled every span collapses to a shared no-op: each call still builds
its keyword dict, reads the flag and enters and exits the no-op span,
measured at 395-423 ns per disabled span on a loaded 2-vCPU VM.  Its
metric instruments -- always on, one lock-protected update
each -- are cheap enough to leave on.  This script *measures* both
promises on three workloads -- the E10
deterministic-primitives workload (the Minor-Aggregation engine is the
hottest instrumented call site -- one span plus two counter
increments per executed round), with ``--workload serve``, the
service tier's batched request path (spans per batch/warm solve plus
cache/queue/latency instruments per request, recorded in the service's
own registry), and with ``--workload ma``
the paper's solver, whose Theorem 40 recursion opens a span per
subtree instance, star, interest computation and path-to-path solve
(``--workload both`` runs all three):

1. run the workload once with tracing **enabled** and count every
   instrumentation event it emits (recorded spans + dropped spans,
   metric mutations in the process-wide registry and in every serving
   registry the workload built);
2. microbenchmark the per-call cost of a **disabled** span and of a
   counter increment (millions of iterations, best-of-samples);
3. time the **disabled** workload itself (best of ``--repeats``);
4. the implied overhead fraction is::

       (span_calls * span_cost + metric_ops * metric_cost) / wall_seconds

The implied-cost method is deliberate: a direct enabled-vs-disabled
wall-clock diff of a sub-second workload drowns in scheduler noise,
while per-call costs measured over millions of iterations are stable to
a few nanoseconds.  The gate fails (exit 1) when the implied fraction
exceeds ``--budget`` (default 0.02).

Usage::

    PYTHONPATH=src python scripts/check_trace_overhead.py
    python scripts/check_trace_overhead.py --budget 0.02 --repeats 5
    python scripts/check_trace_overhead.py --workload both

``benchmarks/run_benchmarks.py`` imports :func:`measure_trace_overhead`
and records the same numbers as the ``trace_overhead`` section of the
BENCH json, so every committed baseline carries the proof.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # standalone: make `import repro` work
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

DEFAULT_BUDGET = 0.02
_CALIBRATION_ITERS = 200_000


def _e10_workload() -> None:
    from repro.experiments import e10_primitives

    e10_primitives.run(quick=True)


def _serve_workload() -> int:
    """A cold-then-warm service pass: batch, cache, and latency
    instruments all fire, with result dedup off so the warm pass takes
    the instrumented packing-cache path rather than a dictionary hit.

    Returns the metric mutations recorded in the service's own registry,
    which the process-wide :func:`repro.obs.metrics.op_count` does not
    see."""
    import asyncio

    from repro.graphs import CSR_FAMILY_BUILDERS
    from repro.serve import MinCutService, ServeConfig

    graphs = [(CSR_FAMILY_BUILDERS["gnm"](24, seed), seed) for seed in range(8)]

    async def drive() -> int:
        serve = ServeConfig(batch_ms=1.0, result_cache_size=0)
        async with MinCutService(serve=serve) as service:
            for _ in range(2):
                await asyncio.gather(
                    *(service.submit(g, seed=s) for g, s in graphs)
                )
        return service.metrics.op_count()

    return asyncio.run(drive())


def _ma_workload() -> None:
    """The paper's solver on small planar graphs: the Theorem 40
    recursion's per-layer spans (subtree instance, star, interest,
    path-to-path) fire once per sub-instance."""
    from repro import MinCutSolver, SolverConfig
    from repro.graphs import CSR_FAMILY_BUILDERS

    solver = MinCutSolver(SolverConfig(solver="minor-aggregation"))
    for family in ("grid", "delaunay"):
        for n in (12, 15, 18):
            solver.solve(CSR_FAMILY_BUILDERS[family](n, n), seed=n)


#: workload name -> zero-arg callable exercising instrumented code; a
#: callable that records into registries of its own returns their
#: mutation count.
WORKLOADS = {
    "e10": ("e10_primitives.run(quick=True)", _e10_workload),
    "serve": ("MinCutService cold+warm pass (8 graphs x 2)", _serve_workload),
    "ma": ("minor-aggregation solves, grid/delaunay n 12-18", _ma_workload),
}


def _per_call_seconds(fn, iters: int = _CALIBRATION_ITERS, samples: int = 5) -> float:
    """Best-of-samples cost of one ``fn()`` call, in seconds."""
    best = float("inf")
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / iters


def measure_trace_overhead(repeats: int = 3, workload: str = "e10") -> dict:
    """Measure the instrumentation overhead of a workload with tracing off.

    Returns a JSON-friendly dict; ``implied_overhead_fraction`` is the
    gated number.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    description, run_workload = WORKLOADS[workload]

    if obs_trace.enabled():
        raise RuntimeError(
            "trace overhead gate must start with tracing disabled "
            "(unset REPRO_TRACE)"
        )

    # 1. Count the instrumentation events the workload emits.
    obs_trace.clear()
    obs_metrics.reset()
    with obs_trace.tracing():
        own_ops = run_workload() or 0
        span_calls = len(obs_trace.records()) + obs_trace.dropped()
        metric_ops = obs_metrics.op_count() + own_ops
    obs_trace.clear()
    obs_metrics.reset()

    # 2. Per-call costs with tracing off (representative call shapes:
    #    the span carries keyword attributes, the counter is looked up by
    #    name -- exactly what the pipeline's hot paths do).
    def span_probe():
        with obs_trace.span("overhead.probe", n=64, acct="probe"):
            pass

    def metric_probe():
        obs_metrics.counter("overhead.probe").inc()

    span_cost = _per_call_seconds(span_probe)
    metric_cost = _per_call_seconds(metric_probe)

    # 3. Disabled workload wall time.
    wall_samples = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run_workload()
        wall_samples.append(time.perf_counter() - start)
    wall = min(wall_samples)

    # 4. Implied overhead fraction.
    implied_seconds = span_calls * span_cost + metric_ops * metric_cost
    fraction = implied_seconds / wall if wall else 0.0
    return {
        "workload": description,
        "span_calls": span_calls,
        "metric_ops": metric_ops,
        "span_call_cost_ns": round(span_cost * 1e9, 2),
        "metric_op_cost_ns": round(metric_cost * 1e9, 2),
        "workload_best_seconds": round(wall, 6),
        "implied_overhead_seconds": round(implied_seconds, 6),
        "implied_overhead_fraction": round(fraction, 6),
        "budget_fraction": DEFAULT_BUDGET,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--budget", type=float, default=DEFAULT_BUDGET,
        help="maximum allowed overhead fraction (default 0.02 = 2%%)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--workload", default="e10", choices=[*WORKLOADS, "both"],
        help="instrumented workload to gate (default e10; both = every workload)",
    )
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "both" else [args.workload]
    failures = []
    for name in names:
        report = measure_trace_overhead(args.repeats, workload=name)
        print(f"instrumentation overhead, tracing off ({report['workload']}):")
        print(f"  span call sites hit   : {report['span_calls']:,}"
              f"  @ {report['span_call_cost_ns']:.1f} ns/call disabled")
        print(f"  metric mutations      : {report['metric_ops']:,}"
              f"  @ {report['metric_op_cost_ns']:.1f} ns/op")
        print(f"  workload wall clock   : {report['workload_best_seconds'] * 1e3:.1f} ms")
        print(f"  implied overhead      : {report['implied_overhead_seconds'] * 1e3:.3f} ms"
              f" = {report['implied_overhead_fraction']:.4%}")
        print(f"  budget                : {args.budget:.2%}")
        if report["implied_overhead_fraction"] > args.budget:
            failures.append(name)
            print(
                f"FAIL: instrumentation with tracing off costs "
                f"{report['implied_overhead_fraction']:.4%} of the "
                f"{name} workload (> {args.budget:.2%})",
                file=sys.stderr,
            )
        else:
            print(f"ok: instrumentation with tracing off is within budget on {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
