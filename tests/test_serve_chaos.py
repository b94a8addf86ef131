"""The serving-tier chaos harness (``pytest -m servechaos``).

The contract under test, for every seeded :class:`ChaosPlan`:

* every request terminates -- with a **bit-identical**,
  ``result.verify()``-certified result or a **typed**
  :class:`~repro.errors.ServeError` -- never a hang (the suite wraps
  every scenario in ``asyncio.wait_for``, and ``tests/conftest.py`` arms
  a per-test watchdog on top);
* retries are idempotent by construction: a response lost *after* the
  solve is recovered from the result cache on retry, never re-solved;
* the ledgers reconcile: every injected fault shows up in
  ``service.stats()`` / server counters, which read the service's own
  ``repro.obs`` registry (``service.metrics``).

Mirrors the PR 6 CONGEST fault suite (``pytest -m chaos``), one layer up.
"""

from __future__ import annotations

import asyncio

import pytest

import repro
from repro.core.mincut import MinCutResult
from repro.errors import DeadlineExceededError, OverloadedError
from repro.graphs import CSR_FAMILY_BUILDERS
from repro.serve import (
    ChaosPlan,
    MinCutServer,
    MinCutService,
    ResilienceConfig,
    RetryPolicy,
    ServeClient,
    ServeConfig,
    make_workload,
    run_loadgen,
)

pytestmark = pytest.mark.servechaos

#: hard ceiling on any one scenario -- "never a hang", enforced.
SCENARIO_TIMEOUT_S = 60.0

SERVE = ServeConfig(batch_ms=2.0)

#: wire error names the harness accepts as typed outcomes.
TYPED_WIRE_ERRORS = {
    "DeadlineExceededError",
    "OverloadedError",
    "CircuitOpenError",
    "ServiceClosedError",
    "ConnectionError",  # client-side: server dropped us, retries spent
}


def build(family: str, n: int, seed: int):
    return CSR_FAMILY_BUILDERS[family](n, seed)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, SCENARIO_TIMEOUT_S))


def reference_value(graph, seed, solver="oracle") -> float:
    return repro.minimum_cut(
        graph, seed=seed, solver=solver, compute_congest=False
    ).value


def find_seed(predicate, limit=200) -> int:
    """Smallest plan seed whose injector draw stream satisfies ``predicate``."""
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no seed found -- loosen the predicate")


class TestConnectionDrops:
    def test_lost_response_retry_is_a_cache_hit_not_a_second_solve(self):
        """The idempotency proof: drop the response *after* the solve --
        the client's retry must be answered from the result cache."""
        seed = find_seed(
            lambda s: (
                lambda inj: inj.connection_fate() == "drop-after"
                and inj.connection_fate() is None
            )(ChaosPlan(seed=s, drop_after_rate=0.5).injector())
        )
        plan = ChaosPlan(seed=seed, drop_after_rate=0.5)
        graph = build("gnm", 20, 3)

        async def scenario():
            async with MinCutServer(port=0, serve=SERVE, chaos=plan) as server:
                client = ServeClient(
                    port=server.port,
                    retry=RetryPolicy(attempts=4, base_ms=1.0, seed=0),
                )
                async with client:
                    response = await client.solve(graph, seed=3)
                return (
                    response,
                    client.retries,
                    server.chaos.stats(),
                    server.service.stats(),
                )

        response, retries, injected, stats = run(scenario())
        assert response["ok"] is True
        assert response["value"] == reference_value(graph, 3)
        # Attempt 1 was solved, cached, and its response dropped; the
        # retry hit the cache -- exactly one real solve happened.
        assert retries == 1
        assert injected["dropped_after"] == 1
        assert response["source"] == "result-cache"
        assert stats["solved"] == 1

    def test_drop_heavy_plan_all_requests_terminate_and_reconcile(self):
        plan = ChaosPlan(seed=11, drop_before_rate=0.2, drop_after_rate=0.2)
        distinct, count = 5, 20
        workload = make_workload(count=count, n=20, distinct=distinct)

        async def scenario():
            async with MinCutServer(port=0, serve=SERVE, chaos=plan) as server:
                summary = await run_loadgen(
                    port=server.port, count=count, n=20, distinct=distinct,
                    concurrency=4,
                    retry=RetryPolicy(attempts=10, base_ms=1.0, cap_ms=20.0),
                )
                return (
                    summary,
                    server.stats()["tcp"]["resets"],
                    server.chaos.stats(),
                    server.service.stats(),
                )

        summary, resets, injected, stats = run(scenario())
        # Retries absorbed every drop: all 20 requests answered, each
        # with the reference value of its graph.
        assert summary["failures"] == 0
        assert summary["retries"] > 0
        expected = sorted(
            {
                round(reference_value(graph, seed), 9)
                for graph, seed in workload
            }
        )
        assert summary["distinct_values"] == expected
        # Ledger reconciliation: one TCP reset per injected drop, and
        # each distinct graph was actually solved at most once (lost
        # responses were recovered from the cache, never re-solved).
        assert resets == injected["dropped_before"] + injected["dropped_after"]
        assert injected["dropped_before"] + injected["dropped_after"] > 0
        assert stats["solved"] == distinct
        assert stats["failures"] == 0


class TestWorkerCrashes:
    def test_every_fused_batch_dies_all_requests_degrade_bit_identically(self):
        plan = ChaosPlan(seed=0, worker_exception_rate=1.0)
        graphs = [(build("gnm", 20, s), s) for s in range(4)]

        async def scenario():
            service = MinCutService(serve=SERVE, chaos=plan)
            async with service:
                results = await asyncio.gather(
                    *(service.submit(g, seed=s) for g, s in graphs)
                )
                return results, service.stats()

        results, stats = run(scenario())
        for (graph, seed), result in zip(graphs, results):
            assert isinstance(result, MinCutResult)
            assert result.stats["served_degraded"] is True
            reference = repro.minimum_cut(
                graph, seed=seed, solver="oracle", compute_congest=False
            )
            assert result.value == reference.value
            assert result.partition == reference.partition
            assert result.cut_edges == reference.cut_edges
            assert result.ma_rounds == reference.ma_rounds
            assert result.verify(graph).ok
        assert stats["failures"] == 0
        assert stats["resilience"]["degraded"] == len(graphs)
        assert stats["chaos"]["worker_errors"] >= 1

    def test_worker_crash_over_tcp_is_invisible_to_clients(self):
        plan = ChaosPlan(seed=5, worker_exception_rate=0.5)

        async def scenario():
            async with MinCutServer(port=0, serve=SERVE, chaos=plan) as server:
                summary = await run_loadgen(
                    port=server.port, count=12, n=20, distinct=6,
                    concurrency=4,
                )
                return summary, server.service.stats()

        summary, stats = run(scenario())
        assert summary["failures"] == 0
        assert stats["failures"] == 0
        assert stats["resilience"]["degraded"] >= stats["chaos"]["worker_errors"]


class TestClockSkew:
    def test_skewed_deadlines_expire_typed_not_hung(self):
        # The server's clock runs 60 s ahead: every 1 s budget is dead
        # on arrival, and must come back as a typed expiry.
        plan = ChaosPlan(seed=0, clock_skew_ms=60_000.0)
        graph = build("gnm", 20, 1)

        async def scenario():
            service = MinCutService(serve=SERVE, chaos=plan)
            async with service:
                with pytest.raises(DeadlineExceededError) as excinfo:
                    await service.submit(graph, seed=1, deadline_ms=1000.0)
                # A deadline-less request is untouched by the skew.
                unbounded = await service.submit(graph, seed=1)
                return excinfo.value, unbounded, service.stats()

        error, unbounded, stats = run(scenario())
        assert error.deadline_ms == 1000.0
        assert "before batching" in str(error)
        assert isinstance(unbounded, MinCutResult)
        assert unbounded.value == reference_value(graph, 1)
        assert stats["resilience"]["expired"] == 1

    def test_skewed_deadline_over_the_wire(self):
        plan = ChaosPlan(seed=0, clock_skew_ms=60_000.0)

        async def scenario():
            async with MinCutServer(port=0, serve=SERVE, chaos=plan) as server:
                async with ServeClient(port=server.port) as client:
                    return await client.solve(
                        build("gnm", 16, 0), deadline_ms=500.0
                    )

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"] == "DeadlineExceededError"
        assert response["retryable"] is False


class TestOverload:
    def test_shedding_is_typed_and_retries_drain_the_backlog(self):
        import time as _time

        def sleepy(packed, ctx):
            _time.sleep(0.03)
            return packed.finalize_partition(frozenset([0]), ctx)

        repro.register_solver("chaos-sleepy", sleepy, uses_packing=False)
        try:
            resilience = ResilienceConfig(max_queue=2, retry_after_ms=5.0)

            async def scenario():
                async with MinCutServer(
                    port=0, serve=SERVE, resilience=resilience
                ) as server:
                    # Without retries, 8 concurrent requests into a
                    # 2-deep queue shed typed overload errors ...
                    shed = await run_loadgen(
                        port=server.port, count=8, n=16, distinct=8,
                        concurrency=8, solver="chaos-sleepy",
                    )
                    # ... and with retries honoring retry_after_ms the
                    # same burst fully drains.
                    drained = await run_loadgen(
                        port=server.port, count=8, n=16, distinct=8,
                        concurrency=8, solver="chaos-sleepy",
                        retry=RetryPolicy(
                            attempts=20, base_ms=2.0, cap_ms=50.0
                        ),
                    )
                    return shed, drained, server.service.stats()

            shed, drained, stats = run(scenario())
            assert shed["failures"] > 0
            assert set(shed["errors"]) == {"OverloadedError"}
            assert drained["failures"] == 0
            assert drained["retries"] > 0
            assert stats["resilience"]["shed"] >= shed["failures"]
        finally:
            repro.unregister_solver("chaos-sleepy")

    def test_overloaded_error_carries_usable_retry_hint(self):
        resilience = ResilienceConfig(max_queue=1, retry_after_ms=25.0)

        async def scenario():
            import time as _time

            def sleepy(packed, ctx):
                _time.sleep(0.1)
                return packed.finalize_partition(frozenset([0]), ctx)

            repro.register_solver("chaos-hint", sleepy, uses_packing=False)
            try:
                service = MinCutService(serve=SERVE, resilience=resilience)
                async with service:
                    wedged = asyncio.ensure_future(service.submit(
                        build("gnm", 16, 0), solver="chaos-hint"
                    ))
                    await asyncio.sleep(0.03)
                    with pytest.raises(OverloadedError) as excinfo:
                        await service.submit(build("gnm", 16, 1))
                    await wedged
                    return excinfo.value
            finally:
                repro.unregister_solver("chaos-hint")

        error = run(scenario())
        assert error.retry_after_ms >= 25.0


class TestGrandMixedPlan:
    PLAN = ChaosPlan(
        seed=42,
        drop_before_rate=0.1,
        drop_after_rate=0.1,
        slow_read_rate=0.2,
        slow_read_ms=2.0,
        worker_exception_rate=0.3,
    )

    def test_everything_at_once_ledgers_reconcile(self):
        distinct, count = 6, 30
        workload = make_workload(count=count, n=20, distinct=distinct)

        async def scenario():
            async with MinCutServer(
                port=0, serve=SERVE, chaos=self.PLAN
            ) as server:
                summary = await run_loadgen(
                    port=server.port, count=count, n=20,
                    distinct=distinct, concurrency=6,
                    deadline_ms=30_000.0,
                    retry=RetryPolicy(
                        attempts=12, base_ms=1.0, cap_ms=20.0
                    ),
                )
                return (
                    summary,
                    server.stats()["tcp"]["resets"],
                    server.chaos.stats(),
                    server.service.stats(),
                    server.service.metrics.snapshot(prefix="serve."),
                )

        summary, resets, injected, stats, obs_snap = run(scenario())
        # Every request terminated; failures (if any) are typed.
        assert sum(summary["sources"].values()) + summary["failures"] == count
        assert set(summary["errors"]) <= TYPED_WIRE_ERRORS
        # Successes are bit-identical to direct solves.
        expected = {
            round(reference_value(graph, seed), 9)
            for graph, seed in workload
        }
        assert set(summary["distinct_values"]) <= expected
        if summary["failures"] == 0:
            assert set(summary["distinct_values"]) == expected
        # The fault ledger reconciles with the plan's injections.
        assert resets == injected["dropped_before"] + injected["dropped_after"]
        assert stats["chaos"] == injected
        assert stats["failures"] == 0  # crashes degraded, never surfaced
        assert stats["resilience"]["degraded"] >= injected["worker_errors"]
        # The stats are a view of the service's registry.
        counters = obs_snap["counters"]
        assert counters["serve.resilience.degraded"] == (
            stats["resilience"]["degraded"]
        )
        assert counters["serve.resilience.expired"] == (
            stats["resilience"]["expired"]
        )
        assert counters["serve.solved"] == stats["solved"]
        assert counters["serve.resilience.closed_rejections"] == (
            stats["resilience"]["closed_rejections"]
        )

    def test_same_plan_same_seed_same_fate_stream(self):
        a = self.PLAN.injector()
        b = self.PLAN.injector()
        draws = [
            (a.connection_fate(), a.slow_read_s(), a.worker_error())
            for _ in range(100)
        ]
        again = [
            (b.connection_fate(), b.slow_read_s(), b.worker_error())
            for _ in range(100)
        ]
        assert draws == again
        assert a.stats() == b.stats()
