"""Pinned key trees of the serving tier's reports.

``MinCutService.stats()``, the TCP ``stats`` verb (with its ``tcp``
block) and the ``run_loadgen`` summary are read by clients, the CLI and
the benchmark harness.  This suite runs one mixed scenario through each
and checks that every key and every value type (``int`` kept apart from
``float``, ``None`` apart from both) matches ``tests/data/serve_schema.json``.

The service scenario covers every serving path at once: a cold fused
batch, an in-flight share, a request shed by the admission budget, a
solve failure (a disconnected graph), a result-cache hit and a warm
re-solve of a cached packing by a second solver.

Regenerate only for an intended change of a report's shape:
``PYTHONPATH=src python tests/test_serve_schema.py``.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.errors import OverloadedError
from repro.graphs import CSR_FAMILY_BUILDERS, CSRGraph
from repro.serve import (
    MinCutServer,
    MinCutService,
    ResilienceConfig,
    ServeClient,
    ServeConfig,
    run_loadgen,
)

pytestmark = pytest.mark.serve

SCHEMA_PATH = Path(__file__).parent / "data" / "serve_schema.json"

SERVE = ServeConfig(batch_ms=5.0)


def shape(value):
    """The key tree of ``value`` with each leaf replaced by its type name."""
    if isinstance(value, dict):
        return {str(key): shape(item) for key, item in value.items()}
    return type(value).__name__


def graph(seed: int) -> CSRGraph:
    return CSR_FAMILY_BUILDERS["gnm"](16, seed)


async def service_stats() -> dict:
    disconnected = CSRGraph.from_edge_list([(0, 1, 1.0), (2, 3, 1.0)], n=4)
    resilience = ResilienceConfig(max_queue=3)
    async with MinCutService(serve=SERVE, resilience=resilience) as service:
        # One window: g0 cold, g0 again shares its future, the
        # disconnected graph fails, g1 fills the depth budget, g2 is shed.
        outcomes = await asyncio.gather(
            service.submit_info(graph(0), seed=0),
            service.submit_info(graph(0), seed=0),
            service.submit_info(disconnected, seed=0),
            service.submit_info(graph(1), seed=1),
            service.submit_info(graph(2), seed=2),
            return_exceptions=True,
        )
        sources = [
            outcome[1] if isinstance(outcome, tuple) else type(outcome)
            for outcome in outcomes
        ]
        assert sources == [
            "solved", "inflight", "solved", "solved", OverloadedError,
        ]
        _result, source = await service.submit_info(graph(0), seed=0)
        assert source == "result-cache"
        result, source = await service.submit_info(
            graph(1), seed=1, solver="minor-aggregation"
        )
        assert source == "solved" and result.stats.get("served_warm")
        stats = service.stats()
    assert stats["failures"] == 1 and stats["warm_solves"] == 1
    assert stats["resilience"]["shed"] == 1
    return stats


async def wire_stats() -> dict:
    async with MinCutServer(port=0, serve=SERVE) as server:
        async with ServeClient(port=server.port) as client:
            assert (await client.solve(graph(0), seed=0))["ok"]
            bad = await client.request({"op": "nope"})
            assert bad["error"] == "bad-request"
            assert await client.ping()
            return await client.stats()


async def loadgen_summary() -> dict:
    async with MinCutServer(port=0, serve=SERVE) as server:
        return await run_loadgen(
            port=server.port, count=6, n=16, distinct=3, concurrency=1
        )


def capture() -> dict:
    return {
        "service_stats": shape(asyncio.run(service_stats())),
        "wire_stats": shape(asyncio.run(wire_stats())),
        "loadgen_summary": shape(asyncio.run(loadgen_summary())),
    }


@pytest.fixture(scope="module")
def captured() -> dict:
    return capture()


@pytest.mark.parametrize(
    "report", ["service_stats", "wire_stats", "loadgen_summary"]
)
def test_report_shape_is_pinned(captured, report):
    pinned = json.loads(SCHEMA_PATH.read_text())
    assert captured[report] == pinned[report]


def test_wire_stats_carry_tcp_block(captured):
    assert captured["wire_stats"]["tcp"] == {
        "connections": "int", "requests": "int",
        "errors": "int", "resets": "int",
    }


if __name__ == "__main__":
    SCHEMA_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {SCHEMA_PATH}")
