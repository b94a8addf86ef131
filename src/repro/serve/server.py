"""Line-delimited-JSON-over-TCP front end for :class:`MinCutService`.

The wire protocol is deliberately minimal -- one JSON object per line in
each direction over a plain TCP connection (``asyncio.start_server``), no
framing beyond ``\\n``, no new dependencies.  Any language with sockets
and JSON is a client; ``repro loadgen`` and
:func:`repro.serve.loadgen.run_loadgen` are the reference ones.

Requests::

    {"op": "solve", "graph": {"n": 8, "edges": [[0, 1, 2.0], ...]},
     "seed": 3, "solver": "oracle"}        -> one result line
    {"op": "stats"}                        -> service stats snapshot
    {"op": "ping"}                         -> {"ok": true, "op": "ping"}

A solve response carries the cut value, the witness (cut edges and the
smaller partition side), the round ledger totals, and ``source`` -- which
serving path answered (``result-cache`` / ``inflight`` / ``solved``).
Failed solves return ``ok: false`` with the structured
:class:`~repro.core.session.SweepFailure` record; malformed requests
return ``ok: false`` with ``error: "bad-request"`` and the connection
stays up (one bad line does not tear down a client's stream).

Connections are served concurrently by the event loop; every in-flight
``solve`` funnels into the shared service, so simultaneous clients batch
*together* -- that is the point of the tier.

Connections, request lines, errors and resets are counted under
``serve.tcp.*`` in the service's registry (the ``tcp`` stats block).
"""

from __future__ import annotations

import asyncio
import json

from repro.core.mincut import MinCutResult
from repro.core.session import SolverConfig, SweepFailure
from repro.errors import OverloadedError, ServeError
from repro.graphs.csr import CSRGraph
from repro.serve.chaos import ChaosPlan
from repro.serve.resilience import ResilienceConfig
from repro.serve.service import MinCutService, ServeConfig

__all__ = [
    "MinCutServer",
    "graph_from_wire",
    "graph_to_wire",
    "result_to_wire",
    "error_to_wire",
]

#: wire ``error`` values a client may safely retry (the request was not,
#: and will not be, solved -- backoff first, honoring retry_after_ms).
RETRYABLE_WIRE_ERRORS = frozenset(
    {"OverloadedError", "CircuitOpenError", "ServiceClosedError"}
)

#: refuse request lines larger than this (also the asyncio stream limit).
MAX_LINE_BYTES = 32 * 1024 * 1024


def graph_from_wire(payload: dict) -> CSRGraph:
    """Decode the ``{"n": ..., "edges": [[u, v, w], ...]}`` wire graph."""
    if not isinstance(payload, dict) or "edges" not in payload:
        raise ValueError('graph must be {"n": ..., "edges": [[u, v, w], ...]}')
    edges = [
        (int(u), int(v), float(w))
        for u, v, w in (
            row if len(row) == 3 else (row[0], row[1], 1.0)
            for row in payload["edges"]
        )
    ]
    n = payload.get("n")
    return CSRGraph.from_edge_list(edges, n=None if n is None else int(n))


def graph_to_wire(graph: CSRGraph) -> dict:
    """Encode a CSR graph for the wire (index space; labels not carried)."""
    return {
        "n": int(graph.n),
        "edges": [
            [int(u), int(v), float(w)]
            for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w)
        ],
    }


def result_to_wire(result, source: str | None = None) -> dict:
    """Encode a :class:`MinCutResult` / :class:`SweepFailure` response."""
    if isinstance(result, SweepFailure):
        payload = result.as_dict()
        payload["op"] = "solve"
        return payload
    assert isinstance(result, MinCutResult)
    side, other = result.partition
    smaller = side if len(side) <= len(other) else other
    accountant = result.stats.get("accountant", {})
    payload = {
        "ok": True,
        "op": "solve",
        "value": result.value,
        "cut_edges": [[u, v] for u, v in result.cut_edges],
        "partition_side": sorted(smaller, key=repr),
        "partition_sizes": [len(side), len(other)],
        "best_tree_index": result.best_tree_index,
        "solver": result.solver,
        "ma_rounds": result.ma_rounds,
        "total_rounds": accountant.get("total_rounds"),
        "graph_hash": result.stats.get("sweep", {}).get("graph_hash"),
    }
    if source is not None:
        payload["source"] = source
    return payload


def error_to_wire(exc: Exception) -> dict:
    """Encode a typed serving rejection as a structured wire error.

    ``error`` carries the exception class name (clients match on it or
    on :data:`RETRYABLE_WIRE_ERRORS`); overload rejections additionally
    carry the server's ``retry_after_ms`` backoff hint.
    """
    payload = {
        "ok": False,
        "op": "solve",
        "error": type(exc).__name__,
        "message": str(exc),
        "retryable": type(exc).__name__ in RETRYABLE_WIRE_ERRORS,
    }
    if isinstance(exc, OverloadedError):
        payload["retry_after_ms"] = exc.retry_after_ms
    return payload


class MinCutServer:
    """The TCP wrapper: owns a :class:`MinCutService` and a listener.

    >>> async with MinCutServer(host="127.0.0.1", port=0) as server:
    ...     print(server.port)        # 0 -> the OS picked a free port
    ...     await server.serve_forever()
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7465,
        config: SolverConfig | None = None,
        serve: ServeConfig | None = None,
        service: MinCutService | None = None,
        resilience: ResilienceConfig | None = None,
        chaos: ChaosPlan | None = None,
    ):
        self.host = host
        self._requested_port = port
        self.chaos = chaos.injector() if chaos is not None else None
        self.service = (
            service
            if service is not None
            else MinCutService(
                config=config, serve=serve, resilience=resilience,
                chaos=self.chaos,
            )
        )
        self._server: asyncio.base_events.Server | None = None
        self._counts = self.service.metrics.counters(
            "serve.tcp.", ("connections", "requests", "errors", "resets")
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int | None:
        """The bound port (resolves ``port=0`` to the OS's pick)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "MinCutServer":
        if self._server is not None:
            return self
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle,
            host=self.host,
            port=self._requested_port,
            limit=MAX_LINE_BYTES,
        )
        return self

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    async def __aenter__(self) -> "MinCutServer":
        return await self.start()

    async def __aexit__(self, *_exc) -> bool:
        await self.stop()
        return False

    def stats(self) -> dict:
        """The service's stats plus the ``tcp`` block (the ``stats`` verb)."""
        tcp = {name: c.value for name, c in self._counts.items()}
        return {**self.service.stats(), "tcp": tcp}

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._counts["connections"].inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                    ConnectionError,
                ):
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                self._counts["requests"].inc()
                if self.chaos is not None:
                    stall = self.chaos.slow_read_s()
                    if stall > 0:
                        await asyncio.sleep(stall)
                    fate = self.chaos.connection_fate()
                    if fate == "drop-before":
                        # The request is never dispatched; the client
                        # sees a reset and must retry from scratch.
                        self._counts["resets"].inc()
                        break
                    if fate == "drop-after":
                        # Solve (and cache) the result, then lose the
                        # response: the retry must be a cache hit.
                        await self._dispatch(stripped)
                        self._counts["resets"].inc()
                        break
                response = await self._dispatch(stripped)
                try:
                    writer.write(
                        json.dumps(response, default=_json_default).encode()
                        + b"\n"
                    )
                    await writer.drain()
                except (ConnectionError, OSError):
                    # The client vanished mid-write.  The request itself
                    # already resolved (result cached or typed error);
                    # close this connection without disturbing others.
                    self._counts["resets"].inc()
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _dispatch(self, raw: bytes) -> dict:
        op = None
        try:
            request = json.loads(raw)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            op = request.get("op", "solve")
            if op == "ping":
                return {"ok": True, "op": "ping"}
            if op == "stats":
                return {"ok": True, "op": "stats", "stats": self.stats()}
            if op != "solve":
                raise ValueError(f"unknown op {op!r}")
            graph = graph_from_wire(request.get("graph"))
            seed = int(request.get("seed", 0))
            solver = request.get("solver")
            deadline_ms = request.get("deadline_ms")
            if deadline_ms is not None:
                deadline_ms = float(deadline_ms)
                if deadline_ms <= 0:
                    raise ValueError("deadline_ms must be positive")
        except Exception as exc:
            self._counts["errors"].inc()
            return {
                "ok": False,
                "op": op,
                "error": "bad-request",
                "message": f"{type(exc).__name__}: {exc}",
            }
        try:
            result, source = await self.service.submit_info(
                graph, seed=seed, solver=solver, deadline_ms=deadline_ms
            )
        except ServeError as exc:
            # Typed rejection (deadline, overload, breaker, shutdown):
            # structured, and flagged retryable where a retry can help.
            self._counts["errors"].inc()
            return error_to_wire(exc)
        except Exception as exc:
            # Defensive: per-graph failures come back as SweepFailure
            # records; anything escaping here is a service-level error.
            self._counts["errors"].inc()
            return {
                "ok": False,
                "op": "solve",
                "error": type(exc).__name__,
                "message": str(exc),
            }
        return result_to_wire(result, source=source)


def _json_default(value):
    """JSON fallback for numpy scalars inside stats payloads."""
    for attr in ("item",):
        method = getattr(value, attr, None)
        if callable(method):
            return method()
    return repr(value)
