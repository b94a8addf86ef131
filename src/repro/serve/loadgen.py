"""Load generator / reference client for the ``repro serve`` TCP front end.

Two layers, so both the CLI and the tests can drive a server:

* :class:`ServeClient` -- one line-delimited-JSON TCP connection with a
  request/response ``solve`` / ``stats`` / ``ping`` API.
* :func:`run_loadgen` -- open ``concurrency`` connections, fire a
  synthetic workload (``count`` requests drawn from ``distinct`` unique
  graphs of a CLI generator family), and report client-side qps plus
  p50/p99 latency (a :class:`repro.obs.metrics.Histogram` on the
  service's latency buckets).  ``distinct < count`` repeats graphs, which
  is exactly what exercises the server's result/packing caches; concurrent
  connections land in the same micro-batch window, which is what
  exercises the batcher.

The workload builder is shared with the benchmark suite's serve section
(same ``(family, n, seed)`` graphs as the ``minimum_cut_many`` rows, so
the qps numbers are comparable).

Resilience: give the client a :class:`~repro.serve.resilience.RetryPolicy`
and :meth:`ServeClient.solve` retries transparently -- reconnecting when
the connection drops mid-request, and backing off (honoring the server's
``retry_after_ms`` hint) when the response is a typed retryable
rejection.  Retries are idempotent by construction: the server keys
results by canonical graph hash + seed, so a retry of a request whose
response was lost lands as a result-cache hit, never a second solve.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import replace

from repro.graphs import CSR_FAMILY_BUILDERS
from repro.obs.metrics import MetricsRegistry
from repro.serve.resilience import RetryPolicy
from repro.serve.server import graph_to_wire
from repro.serve.service import LATENCY_BUCKETS, latency_ms

__all__ = ["ServeClient", "make_workload", "run_loadgen"]


def make_workload(
    count: int = 50,
    n: int = 24,
    family: str = "gnm",
    distinct: int | None = None,
    seed0: int = 0,
):
    """``count`` requests over ``distinct`` unique graphs of one family.

    Returns ``[(graph, seed), ...]``; request ``i`` uses graph
    ``i % distinct`` (seed ``seed0 + i % distinct``), so with
    ``distinct=count`` every request is cold and with ``distinct=1``
    every request after the first can be served warm.
    """
    if family not in CSR_FAMILY_BUILDERS:
        raise ValueError(
            f"unknown family {family!r}; choose from "
            f"{sorted(CSR_FAMILY_BUILDERS)}"
        )
    if distinct is None:
        distinct = count
    distinct = max(1, min(int(distinct), int(count)))
    builder = CSR_FAMILY_BUILDERS[family]
    uniques = [
        (builder(n, seed0 + i), seed0 + i) for i in range(distinct)
    ]
    return [uniques[i % distinct] for i in range(count)]


class ServeClient:
    """One TCP connection speaking the line-delimited-JSON protocol.

    With a :class:`RetryPolicy`, :meth:`solve` survives dropped
    connections and typed retryable rejections (``OverloadedError``,
    ``CircuitOpenError``, ``ServiceClosedError``) by reconnecting /
    backing off and resending -- up to ``policy.attempts`` tries total.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7465,
        retry: RetryPolicy | None = None,
    ):
        self.host = host
        self.port = port
        self.retry = retry
        self._rng = retry.rng() if retry is not None else None
        self.retries = 0
        self.reconnects = 0
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "ServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=32 * 1024 * 1024
        )
        return self

    async def close(self) -> None:
        if self._writer is None:
            return
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass
        self._reader = self._writer = None

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *_exc) -> bool:
        await self.close()
        return False

    async def request(self, payload: dict) -> dict:
        if self._writer is None:
            raise RuntimeError("client not connected")
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def solve(
        self,
        graph,
        seed: int = 0,
        solver: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        payload = {"op": "solve", "graph": graph_to_wire(graph), "seed": seed}
        if solver is not None:
            payload["solver"] = solver
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        if self.retry is None:
            return await self.request(payload)
        last_exc: Exception | None = None
        for attempt in range(self.retry.attempts):
            if attempt > 0:
                self.retries += 1
            try:
                if self._writer is None:
                    await self.connect()
                    if attempt > 0:
                        self.reconnects += 1
                response = await self.request(payload)
            except (ConnectionError, OSError) as exc:
                # The connection died mid-request.  The request may or
                # may not have been solved server-side; either way the
                # resend is safe -- it dedupes on canonical hash + seed.
                last_exc = exc
                await self.close()
                if attempt + 1 >= self.retry.attempts:
                    raise
                delay_ms = self.retry.delay_ms(attempt, self._rng)
                await asyncio.sleep(delay_ms / 1000.0)
                continue
            if response.get("ok") or not response.get("retryable"):
                return response
            if attempt + 1 >= self.retry.attempts:
                return response
            delay_ms = self.retry.delay_ms(
                attempt, self._rng,
                retry_after_ms=response.get("retry_after_ms"),
            )
            await asyncio.sleep(delay_ms / 1000.0)
        raise last_exc if last_exc is not None else ConnectionError(
            "retry budget exhausted"
        )

    async def stats(self) -> dict:
        return (await self.request({"op": "stats"}))["stats"]

    async def ping(self) -> bool:
        return bool((await self.request({"op": "ping"})).get("ok"))


async def run_loadgen(
    host: str = "127.0.0.1",
    port: int = 7465,
    count: int = 50,
    n: int = 24,
    family: str = "gnm",
    distinct: int | None = None,
    concurrency: int = 8,
    solver: str | None = None,
    repeat: int = 1,
    deadline_ms: float | None = None,
    retry: RetryPolicy | None = None,
) -> dict:
    """Fire the synthetic workload at a server; return a summary dict.

    ``repeat`` replays the whole workload that many times (the second
    pass onward hits whatever the server cached from the first -- the
    warm-path measurement).  Requests are spread round-robin over
    ``concurrency`` connections, each connection strictly
    request/response, so server-side batches form from genuinely
    concurrent clients.

    ``deadline_ms`` stamps every request with a budget; ``retry`` arms
    each connection with its own backoff stream (seeded ``retry.seed +
    worker index``, so jitter decorrelates across connections but the
    whole run stays reproducible).  Typed rejections and dropped
    connections are tallied per wire ``error`` name under ``errors``.
    """
    workload = make_workload(
        count=count, n=n, family=family, distinct=distinct
    ) * max(1, int(repeat))
    queue: asyncio.Queue = asyncio.Queue()
    for index, (graph, seed) in enumerate(workload):
        queue.put_nowait((index, graph, seed))

    latency = MetricsRegistry().histogram(
        "loadgen.latency_seconds", LATENCY_BUCKETS
    )
    outcomes: list = [None] * len(workload)
    failures = 0
    retries = 0
    reconnects = 0
    sources: dict = {}
    errors: dict = {}

    async def worker(worker_index: int) -> None:
        nonlocal failures, retries, reconnects
        policy = (
            replace(retry, seed=retry.seed + worker_index)
            if retry is not None
            else None
        )
        client = ServeClient(host, port, retry=policy)
        try:
            while True:
                try:
                    index, graph, seed = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                started = time.perf_counter()
                try:
                    if client._writer is None:
                        await client.connect()
                    response = await client.solve(
                        graph, seed=seed, solver=solver,
                        deadline_ms=deadline_ms,
                    )
                except (ConnectionError, OSError) as exc:
                    # Retry-less client (or exhausted budget) losing its
                    # connection: record the failure, reconnect lazily.
                    response = {
                        "ok": False,
                        "error": type(exc).__name__,
                        "message": str(exc),
                    }
                    await client.close()
                latency.observe(time.perf_counter() - started)
                outcomes[index] = response
                if not response.get("ok"):
                    failures += 1
                    name = response.get("error", "unknown")
                    errors[name] = errors.get(name, 0) + 1
                source = response.get("source")
                if source is not None:
                    sources[source] = sources.get(source, 0) + 1
        finally:
            retries += client.retries
            reconnects += client.reconnects
            await client.close()

    concurrency = max(1, min(int(concurrency), len(workload)))
    started = time.perf_counter()
    await asyncio.gather(*(worker(i) for i in range(concurrency)))
    elapsed = time.perf_counter() - started

    values = sorted(
        {
            round(response["value"], 9)
            for response in outcomes
            if response and response.get("ok")
        }
    )
    return {
        "requests": len(workload),
        "count": count,
        "repeat": max(1, int(repeat)),
        "distinct": distinct if distinct is not None else count,
        "n": n,
        "family": family,
        "concurrency": concurrency,
        "seconds": round(elapsed, 6),
        "qps": round(len(workload) / elapsed, 2) if elapsed > 0 else None,
        "failures": failures,
        "retries": retries,
        "reconnects": reconnects,
        "deadline_ms": deadline_ms,
        "errors": dict(sorted(errors.items())),
        "sources": dict(sorted(sources.items())),
        "latency": latency_ms(latency),
        "distinct_values": values[:10],
    }
