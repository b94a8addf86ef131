"""``MinCutService`` -- the async in-process min-cut serving tier.

The request path, front to back:

1. **Canonical hashing.**  Every request graph is keyed by
   :meth:`CSRGraph.canonical_hash` (networkx inputs cross the boundary
   once, at submission).  The hash is the identity for everything
   downstream.
2. **Result dedup.**  An LRU of recent ``(graph, seed, solver)`` results
   answers *historical* repeats without touching the pipeline at all;
   an in-flight table coalesces *concurrent* identical requests onto one
   shared future, so a thundering herd of the same graph costs one solve.
3. **Micro-batching.**  Fresh requests join a
   :class:`~repro.serve.batcher.Batcher` window (a few ms); each flush is
   solved as one :func:`~repro.core.session.minimum_cut_many` sweep --
   same-``n`` graphs fuse into one stacked oracle pass -- on a dedicated
   worker thread, keeping the event loop free.  Per-graph failures come
   back as :class:`~repro.core.session.SweepFailure` records on their own
   futures; batch-mates are unaffected.
4. **Packing cache.**  Successful solves deposit their Theorem 12
   packings into a byte-budgeted :class:`~repro.serve.cache.PackingCache`;
   a later request for a cached graph (same seed, any registered solver
   that consumes packings) skips packing entirely and re-solves the warm
   :class:`~repro.core.session.GraphPacking` handle -- with the recorded
   round charges replayed, so the ledger matches a cold end-to-end run.
5. **Warm session pool.**  One :class:`~repro.core.session.MinCutSolver`
   per distinct :class:`~repro.core.session.SolverConfig`, shared across
   requests.

Results are **bit-identical** to calling
:func:`repro.minimum_cut(graph, seed=..., solver=...) <repro.core.mincut.minimum_cut>`
directly -- value, witness, partition, and round ledger -- whichever of
the four paths (result cache, in-flight share, warm packing, cold batch)
served them; the serve test suite asserts this via ``result.verify()``.

Overload safety (PR 10) wraps the request path end to end
(:mod:`repro.serve.resilience`):

* **deadlines** -- a per-request budget (request field or
  ``REPRO_SERVE_DEADLINE_MS``) checked on arrival, again when its batch
  flushes, and enforced mid-solve by a **watchdog** that fails (never
  hangs) a fused batch whose worker thread overruns -- surviving
  batch-mates degrade to individual solves with bit-identical results,
  the PR 6 degradation idiom lifted to the service;
* **admission control** -- depth/byte budgets shed excess load with a
  typed :class:`~repro.errors.OverloadedError` carrying
  ``retry_after_ms``;
* a per-:class:`SolverConfig` **circuit breaker** so one poisoned graph
  family rejects fast (:class:`~repro.errors.CircuitOpenError`) instead
  of burning the worker pool;
* **graceful shutdown** -- :meth:`MinCutService.stop` stops admitting,
  drains in-flight work, and rejects stragglers with a typed
  :class:`~repro.errors.ServiceClosedError` (hard stop:
  ``stop(drain=False)`` rejects immediately).

Every rejection is a typed :class:`~repro.errors.ServeError`; the
seeded :class:`~repro.serve.chaos.ChaosPlan` harness
(``pytest -m servechaos``) asserts the full contract: result-or-typed-
error, never a hang, ledgers reconciling with the injected faults.

Every count of the tier is recorded once, in the service's own always-on
:class:`~repro.obs.metrics.MetricsRegistry` (``service.metrics``), which
its packing cache, batcher, admission controller, breakers and a
wrapping TCP server record into too (``serve.*``).
:meth:`MinCutService.stats` is a view of it plus live state (queue
depth, resident bytes, breaker states, config echoes).  Spans
(``serve.batch`` / ``serve.solve_warm``) follow the tracer switch.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.mincut import MinCutResult
from repro.core.registry import get_solver
from repro.core.session import (
    GraphPacking,
    MinCutSolver,
    SolverConfig,
    SweepFailure,
    minimum_cut_many,
)
from repro.errors import ServiceClosedError
from repro.graphs.csr import CSRGraph, as_csr
from repro.obs import trace as obs_trace
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.serve.batcher import DEFAULT_MAX_BATCH, Batcher
from repro.serve.cache import PackingCache
from repro.serve.chaos import ChaosInjector, ChaosPlan, ChaosWorkerError
from repro.serve.resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    ResilienceConfig,
)

__all__ = ["ServeConfig", "MinCutService", "latency_ms"]

#: default bound on the result-dedup LRU (entries, not bytes -- results
#: are small; the packing cache is the byte-governed store).
DEFAULT_RESULT_CACHE = 4096

#: latency histogram bucket upper edges, in seconds (10 us .. 10 s).
LATENCY_BUCKETS = (
    1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
)

#: the service's own counters, under ``serve.``.
SERVICE_COUNTS = (
    "requests", "solved", "failures", "result_cache.hits", "inflight.hits",
    "warm_solves", "resilience.expired", "resilience.watchdog_trips",
    "resilience.degraded", "resilience.closed_rejections",
)


@dataclass(frozen=True)
class ServeConfig:
    """The serving-layer knobs (the solver knobs live in ``SolverConfig``).

    Parameters
    ----------
    batch_ms:
        Micro-batch collection window in milliseconds; ``None`` inherits
        ``REPRO_SERVE_BATCH_MS`` (default 2 ms).  ``0`` still batches
        whatever queued while the previous batch was solving.
    max_batch:
        Cap on requests fused into one flush.
    cache_bytes:
        Byte budget of the :class:`PackingCache`; ``None`` inherits
        ``REPRO_SERVE_CACHE_BYTES`` (default 128 MiB).
    result_cache_size:
        Entry bound of the result-dedup LRU; ``0`` disables result dedup
        (every repeat re-solves, exercising the packing cache instead).
    """

    batch_ms: float | None = None
    max_batch: int = DEFAULT_MAX_BATCH
    cache_bytes: int | None = None
    result_cache_size: int = DEFAULT_RESULT_CACHE

    def __post_init__(self):
        if self.batch_ms is not None and self.batch_ms < 0:
            raise ValueError("batch_ms cannot be negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.result_cache_size < 0:
            raise ValueError("result_cache_size cannot be negative")

    @classmethod
    def from_env(cls, env=None, **overrides) -> "ServeConfig":
        """Capture ``REPRO_SERVE_BATCH_MS`` / ``REPRO_SERVE_CACHE_BYTES``
        into an explicit config; keyword overrides win."""
        env = os.environ if env is None else env
        fields: dict = {}
        raw = env.get("REPRO_SERVE_BATCH_MS")
        if raw is not None:
            try:
                value = float(raw)
            except ValueError:
                value = None
            if value is not None and value >= 0:
                fields["batch_ms"] = value
        raw = env.get("REPRO_SERVE_CACHE_BYTES")
        if raw is not None:
            try:
                fields["cache_bytes"] = int(raw)
            except ValueError:
                pass
        fields.update(overrides)
        return cls(**fields)


def latency_ms(histogram: Histogram) -> dict:
    """The ``latency`` report block of a seconds histogram, in ms."""

    def ms(seconds):
        return None if seconds is None else round(seconds * 1e3, 4)

    return {
        "count": histogram.count,
        "mean_ms": ms(histogram.mean),
        "p50_ms": ms(histogram.percentile(0.50)),
        "p99_ms": ms(histogram.percentile(0.99)),
        "max_ms": ms(histogram.max),
    }


def _graph_nbytes(csr: CSRGraph) -> int:
    """Resident bytes of one request graph (the admission byte unit)."""
    return int(
        csr.edge_u.nbytes + csr.edge_v.nbytes + csr.edge_w.nbytes
        + csr.indptr.nbytes
    )


@dataclass
class _Pending:
    """One queued request: identity key, graph, and its result future."""

    key: tuple
    csr: CSRGraph
    seed: int
    solver: str
    future: asyncio.Future = field(repr=False)
    deadline: "Deadline | None" = None
    nbytes: int = 0
    released: bool = False


class MinCutService:
    """Async min-cut service: dedup + packing cache + micro-batched sweeps.

    >>> async with MinCutService() as service:
    ...     result = await service.submit(graph, seed=3)

    ``submit`` returns a :class:`MinCutResult` on success and a
    :class:`SweepFailure` record when that graph's solve failed (other
    requests in the same batch are isolated from it); both carry ``.ok``
    semantics via ``isinstance`` / ``SweepFailure.ok``.

    The default solver configuration is the serving fast path --
    ``oracle`` on CSR with CONGEST estimates off -- override with any
    :class:`SolverConfig`.
    """

    def __init__(
        self,
        config: SolverConfig | None = None,
        serve: ServeConfig | None = None,
        resilience: ResilienceConfig | None = None,
        chaos: "ChaosPlan | ChaosInjector | None" = None,
    ):
        self.config = (
            config
            if config is not None
            else SolverConfig(solver="oracle", compute_congest=False)
        )
        get_solver(self.config.solver)  # fail fast on unknown names
        self.serve = serve if serve is not None else ServeConfig.from_env()
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig.from_env()
        )
        self._chaos = (
            chaos.injector() if isinstance(chaos, ChaosPlan) else chaos
        )
        self._sessions: dict[SolverConfig, MinCutSolver] = {}
        #: every serving-tier count of this service and its components.
        self.metrics = MetricsRegistry()
        self._counts = self.metrics.counters("serve.", SERVICE_COUNTS)
        self._latency = self.metrics.histogram(
            "serve.latency_seconds", LATENCY_BUCKETS
        )
        self._packings = PackingCache(
            self.serve.cache_bytes, metrics=self.metrics
        )
        self._results: "OrderedDict[tuple, MinCutResult] | None" = (
            OrderedDict() if self.serve.result_cache_size else None
        )
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._batcher = Batcher(
            self._flush,
            batch_ms=self.serve.batch_ms,
            max_batch=self.serve.max_batch,
            on_error=self._flush_failed,
            metrics=self.metrics,
        )
        self._admission = AdmissionController(
            self.resilience, metrics=self.metrics
        )
        self._breakers: dict[SolverConfig, CircuitBreaker] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._degrade_executor: ThreadPoolExecutor | None = None
        self._started_at: float | None = None
        self._closing = False
        #: watchdog-abandoned batch solves still holding a worker thread
        #: (drives whether shutdown can afford to wait for the pool).
        self._abandoned = 0

    def _now(self) -> float:
        """The service's deadline clock (chaos-skewable)."""
        if self._chaos is not None:
            return self._chaos.clock()
        return time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "MinCutService":
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )
            self._started_at = time.perf_counter()
            self._closing = False
            await self._batcher.start()
        return self

    async def stop(self, drain: bool = True) -> None:
        """Shut the service down.

        ``drain=True`` (graceful): stop admitting new requests
        (:class:`ServiceClosedError` at the front door), flush and
        finish everything already in the system, then retire the worker
        pool.  ``drain=False`` (hard stop): cancel the collector,
        reject every unanswered request with a typed
        :class:`ServiceClosedError`, and abandon the pool without
        waiting.  Either way no pending future is left unresolved --
        the PR 8 ordering bug (cancelling futures *after*
        ``shutdown(wait=True)`` had already drained them, a no-op) is
        exactly what this replaces.
        """
        if self._executor is None:
            return
        self._closing = True
        stranded = await self._batcher.stop(flush=drain)
        for pending in stranded:
            self._reject(pending, ServiceClosedError(
                "service stopped before this request was solved"
            ))
            self._counts["resilience.closed_rejections"].inc()
        # Any still-unresolved in-flight future lost its batch (hard
        # stop mid-solve, or a drain cut short by an abandoned worker):
        # reject it typed rather than leave a caller hanging.
        for key, future in list(self._inflight.items()):
            if not future.done():
                future.set_exception(ServiceClosedError(
                    "service stopped before this request was solved"
                ))
                self._counts["resilience.closed_rejections"].inc()
            self._inflight.pop(key, None)
        wait = drain and self._abandoned == 0
        self._executor.shutdown(wait=wait, cancel_futures=not drain)
        if self._degrade_executor is not None:
            self._degrade_executor.shutdown(
                wait=wait, cancel_futures=not drain
            )
            self._degrade_executor = None
        self._executor = None

    async def __aenter__(self) -> "MinCutService":
        return await self.start()

    async def __aexit__(self, *_exc) -> bool:
        await self.stop()
        return False

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    async def submit(
        self,
        graph,
        seed: int = 0,
        solver: str | None = None,
        deadline_ms: float | None = None,
    ) -> "MinCutResult | SweepFailure":
        """Solve ``graph`` through the serving tier (awaitable).

        Raises a typed :class:`~repro.errors.ServeError` subclass when
        the tier *rejects* the request (deadline expired, load shed,
        circuit open, service closed); per-graph solve failures still
        come back as :class:`SweepFailure` records.
        """
        result, _source = await self.submit_info(
            graph, seed, solver, deadline_ms=deadline_ms
        )
        return result

    async def submit_info(
        self,
        graph,
        seed: int = 0,
        solver: str | None = None,
        deadline_ms: float | None = None,
    ) -> "tuple[MinCutResult | SweepFailure, str]":
        """Like :meth:`submit`, also reporting which path answered:
        ``"result-cache"``, ``"inflight"``, or ``"solved"``."""
        if self._executor is None or self._closing:
            if self._closing:
                self._counts["resilience.closed_rejections"].inc()
                raise ServiceClosedError(
                    "service is draining; not admitting new requests"
                )
            raise RuntimeError(
                "service not started (use `async with MinCutService()` "
                "or await start())"
            )
        started = time.perf_counter()
        csr = as_csr(graph)
        name = solver if solver is not None else self.config.solver
        get_solver(name)  # unknown solver: raise here, not inside the batch
        key = (csr.canonical_hash(), int(seed), name)
        self._counts["requests"].inc()

        if self._results is not None:
            cached = self._results.get(key)
            if cached is not None:
                self._results.move_to_end(key)
                self._counts["result_cache.hits"].inc()
                self._observe_latency(started)
                return cached, "result-cache"

        shared = self._inflight.get(key)
        if shared is not None:
            self._counts["inflight.hits"].inc()
            result = await asyncio.shield(shared)
            self._observe_latency(started)
            return result, "inflight"

        # -- overload protection, cheapest check first ------------------
        # (cache/in-flight hits above are free and never shed.)
        budget_ms = (
            deadline_ms
            if deadline_ms is not None
            else self.resilience.deadline_ms
        )
        deadline = Deadline(budget_ms) if budget_ms else None
        if deadline is not None and deadline.expired(self._now()):
            # only possible under clock skew: the budget died in transit.
            self._counts["resilience.expired"].inc()
            raise deadline.error(self._now(), "before batching")
        breaker = self._breaker_for(name)
        if breaker is not None:
            breaker.allow(name)
        nbytes = _graph_nbytes(csr)
        self._admission.admit(nbytes)

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        pending = _Pending(
            key=key, csr=csr, seed=int(seed), solver=name, future=future,
            deadline=deadline, nbytes=nbytes,
        )
        try:
            await self._batcher.put(pending)
        except RuntimeError:
            self._release(pending)
            self._inflight.pop(key, None)
            self._counts["resilience.closed_rejections"].inc()
            raise ServiceClosedError(
                "service is draining; not admitting new requests"
            ) from None
        try:
            result = await future
        finally:
            self._observe_latency(started)
        return result, "solved"

    def _observe_latency(self, started: float) -> None:
        self._latency.observe(time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _breaker_for(self, solver: str) -> "CircuitBreaker | None":
        if self.resilience.breaker_threshold <= 0:
            return None
        config = (
            self.config
            if solver == self.config.solver
            else self.config.replace(solver=solver)
        )
        breaker = self._breakers.get(config)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=self.resilience.breaker_threshold,
                reset_ms=self.resilience.breaker_reset_ms,
                clock=self._now,
                metrics=self.metrics,
                name=f"serve.breaker.{solver}",
            )
            self._breakers[config] = breaker
        return breaker

    def _release(self, pending: _Pending) -> None:
        """Give the request's admission slot back (exactly once)."""
        if not pending.released:
            pending.released = True
            self._admission.release(pending.nbytes)

    def _reject(self, pending: _Pending, error: Exception) -> None:
        """Resolve one request with a typed rejection."""
        self._release(pending)
        self._inflight.pop(pending.key, None)
        if not pending.future.done():
            pending.future.set_exception(error)

    def _settle(self, pending: _Pending, result) -> None:
        """Resolve one request with its solve outcome (result/failure)."""
        self._release(pending)
        breaker = self._breaker_for(pending.solver)
        if isinstance(result, MinCutResult):
            self._counts["solved"].inc()
            self._result_put(pending.key, result)
            if breaker is not None:
                breaker.record_success()
        else:
            self._counts["failures"].inc()
            # Only solve-stage failures poison a circuit: validate-stage
            # rejections are the client's bad input, not the solver's.
            if breaker is not None and result.stage == "solve":
                breaker.record_failure()
        self._inflight.pop(pending.key, None)
        if not pending.future.done():
            pending.future.set_result(result)

    def _expire(self, pending: _Pending, where: str) -> None:
        self._counts["resilience.expired"].inc()
        self._reject(
            pending, pending.deadline.error(self._now(), where)
        )

    def _watchdog_budget_s(self, batch) -> "float | None":
        """Wall-clock budget for one fused batch solve, in seconds."""
        now = self._now()
        candidates = [
            pending.deadline.remaining_s(now)
            for pending in batch
            if pending.deadline is not None
        ]
        if self.resilience.watchdog_ms is not None:
            candidates.append(self.resilience.watchdog_ms / 1000.0)
        if not candidates:
            return None
        return max(min(candidates), 0.001)

    async def _flush(self, batch) -> None:
        # Requests whose budget died while queued are rejected typed,
        # before costing any solve.
        live = []
        for pending in batch:
            if pending.deadline is not None and pending.deadline.expired(
                self._now()
            ):
                self._expire(pending, "while queued")
            else:
                live.append(pending)
        if not live:
            return
        loop = asyncio.get_running_loop()
        budget = self._watchdog_budget_s(live)
        task = loop.run_in_executor(
            self._executor, self._solve_batch, list(live)
        )
        try:
            if budget is None:
                outcomes = await task
            else:
                outcomes = await asyncio.wait_for(
                    asyncio.shield(task), timeout=budget
                )
        except asyncio.TimeoutError:
            # The watchdog tripped: the fused solve overran the tightest
            # member budget.  The worker thread cannot be killed -- it is
            # abandoned (its late result is discarded by the future.done()
            # guards) and the batch degrades to individual solves.
            self._counts["resilience.watchdog_trips"].inc()
            self._abandon(task)
            await self._degrade(live)
            return
        except Exception:
            # The whole batch call died inside the worker (for real, or
            # via chaos injection): per the PR 6 idiom, degrade to
            # individual solves -- bit-identical when they succeed.
            await self._degrade(live)
            return
        for pending, result in outcomes:
            self._settle(pending, result)

    def _abandon(self, task: "asyncio.Future") -> None:
        """Account for a watchdog-abandoned solve still holding its
        worker thread (consumes its eventual result/exception)."""
        self._abandoned += 1

        def _consume(done: "asyncio.Future") -> None:
            self._abandoned -= 1
            if not done.cancelled():
                done.exception()  # retrieve, so nothing warns later

        task.add_done_callback(_consume)

    async def _degrade(self, batch) -> None:
        """Individually re-solve a failed/overrun batch's members.

        Mirrors the pinned-budget degradation idiom of PR 6: the fused
        fast path failed, so each member gets its own (bit-identical)
        solve on a spare worker, bounded by whatever budget it has left;
        members with no budget left are expired typed.
        """
        await asyncio.gather(
            *(self._degrade_one(pending) for pending in batch)
        )

    async def _degrade_one(self, pending: _Pending) -> None:
        now = self._now()
        if pending.deadline is not None and pending.deadline.expired(now):
            self._expire(pending, "mid-solve (batch watchdog)")
            return
        # Only a request's own deadline bounds its degraded solve:
        # ``watchdog_ms`` fails the *fused* fast path fast, but the
        # recovery solve of a deadline-less member must be allowed to
        # finish (there is no tighter typed error to give it).
        budget = (
            max(pending.deadline.remaining_s(now), 0.001)
            if pending.deadline is not None
            else None
        )
        loop = asyncio.get_running_loop()
        task = loop.run_in_executor(
            self._degrade_pool(), self._solve_single, pending
        )
        try:
            if budget is None:
                outcomes = await task
            else:
                outcomes = await asyncio.wait_for(
                    asyncio.shield(task), timeout=budget
                )
        except asyncio.TimeoutError:
            self._abandon(task)
            self._expire(pending, "mid-solve (degraded solve)")
            return
        except Exception as exc:
            # Even the individual solve died on infrastructure: report
            # it structurally, never as a bare exception.
            self._settle(pending, SweepFailure(
                index=0,
                seed=pending.seed,
                stage="solve",
                error=type(exc).__name__,
                message=str(exc),
                solver=pending.solver,
                graph_hash=pending.key[0],
            ))
            return
        self._counts["resilience.degraded"].inc()
        for member, result in outcomes:
            if isinstance(result, MinCutResult):
                result.stats["served_degraded"] = True
            self._settle(member, result)

    def _degrade_pool(self) -> ThreadPoolExecutor:
        """Spare workers for degraded solves (the primary worker may be
        wedged under the very batch being degraded)."""
        if self._degrade_executor is None:
            self._degrade_executor = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="repro-serve-degrade"
            )
        return self._degrade_executor

    def _solve_single(self, pending: _Pending):
        """Worker-thread body of one degraded individual solve."""
        with self.config._trace_scope():
            with obs_trace.span(
                "serve.solve_degraded", solver=pending.solver, n=pending.csr.n
            ):
                return self._solve_batch_inner([pending])

    async def _flush_failed(self, batch, exc: BaseException) -> None:
        """Batcher ``on_error`` backstop: :meth:`_flush` already contains
        every failure it knows about, so anything surfacing here is a
        bug in the flush path itself -- still, resolve every future."""
        for pending in batch:
            self._reject(pending, exc if isinstance(exc, Exception)
                         else RuntimeError(repr(exc)))

    def _result_put(self, key: tuple, result: MinCutResult) -> None:
        if self._results is None:
            return
        self._results[key] = result
        self._results.move_to_end(key)
        while len(self._results) > self.serve.result_cache_size:
            self._results.popitem(last=False)

    def _session_for(self, solver: str) -> MinCutSolver:
        config = (
            self.config
            if solver == self.config.solver
            else self.config.replace(solver=solver)
        )
        session = self._sessions.get(config)
        if session is None:
            session = MinCutSolver(config)
            self._sessions[config] = session
        return session

    def _packing_key(self, pending: _Pending) -> tuple:
        # The Theorem 12 packing depends on (graph, seed, tree count) but
        # not on which packing-consuming solver reads it -- oracle and
        # minor-aggregation requests share one cached packing.
        return (pending.key[0], pending.seed, self.config.num_trees)

    def _solve_batch(self, batch):
        """Worker-thread body: warm solves + one fused cold sweep per solver."""
        if self._chaos is not None and self._chaos.worker_error():
            # The chaos plan kills this fused solve the way a real
            # worker-thread bug would; _flush degrades the members to
            # individual (chaos-free, bit-identical) solves.
            raise ChaosWorkerError("injected worker-thread failure")
        with self.config._trace_scope():
            with obs_trace.span("serve.batch", requests=len(batch)):
                return self._solve_batch_inner(batch)

    def _solve_batch_inner(self, batch):
        by_solver: dict[str, list[_Pending]] = {}
        for pending in batch:
            by_solver.setdefault(pending.solver, []).append(pending)

        outcomes: list = []
        for solver, members in by_solver.items():
            entry = get_solver(solver)
            session = self._session_for(solver)
            cold: list[_Pending] = []
            for pending in members:
                packed = (
                    self._packings.get(self._packing_key(pending))
                    if entry.uses_packing
                    else None
                )
                if packed is None:
                    cold.append(pending)
                    continue
                outcomes.append(
                    (pending, self._solve_warm(packed, pending, solver))
                )
            if not cold:
                continue
            sweep = minimum_cut_many(
                [pending.csr for pending in cold],
                session.config,
                seeds=[pending.seed for pending in cold],
                strict=False,
            )
            # Re-associate by the identity the results carry (the
            # ``stats["sweep"]`` index/hash fix), not by zip order.
            for result in sweep:
                if isinstance(result, MinCutResult):
                    meta = result.stats["sweep"]
                    pending = cold[meta["index"]]
                    if (
                        meta["graph_hash"] is not None
                        and meta["graph_hash"] != pending.key[0]
                    ):  # pragma: no cover - sweep invariant
                        raise AssertionError(
                            "sweep result hash does not match its request"
                        )
                    if entry.uses_packing and result.packing.tree_edge_arrays:
                        adopted = self._adopt_packing(
                            session, pending, result
                        )
                        self._packings.put(
                            self._packing_key(pending), adopted
                        )
                else:
                    pending = cold[result.index]
                outcomes.append((pending, result))
        return outcomes

    def _solve_warm(
        self, packed: GraphPacking, pending: _Pending, solver: str
    ) -> "MinCutResult | SweepFailure":
        """Re-solve a cached packing (Theorem 12 skipped entirely)."""
        self._counts["warm_solves"].inc()
        started = time.perf_counter()
        try:
            with obs_trace.span(
                "serve.solve_warm", solver=solver, n=pending.csr.n
            ):
                result = packed.solve(solver=solver)
        except Exception as exc:
            return SweepFailure(
                index=0,
                seed=pending.seed,
                stage="solve",
                error=type(exc).__name__,
                message=str(exc),
                solver=solver,
                seconds=time.perf_counter() - started,
                phase=obs_trace.last_error_span() or "serve.solve_warm",
                graph_hash=pending.key[0],
            )
        result.stats.setdefault("sweep", {
            "index": 0, "graph_hash": pending.key[0],
        })
        result.stats["served_warm"] = True
        return result

    def _adopt_packing(
        self, session: MinCutSolver, pending: _Pending, result: MinCutResult
    ) -> GraphPacking:
        """Wrap a fused-sweep packing in a reusable session handle.

        The handle adopts the sweep's computed packing and its recorded
        ``packing:*`` round charges (:meth:`GraphPacking.adopt_packing`),
        so later warm solves replay the same ledger a cold end-to-end run
        reports.
        """
        packed = session.pack(pending.csr, seed=pending.seed)
        packed.adopt_packing(result.packing, result.stats["accountant"])
        return packed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One JSON-friendly view of every serving-layer metric: the
        ``serve.*`` counts of :attr:`metrics` plus live state."""
        counts = {name: c.value for name, c in self._counts.items()}
        admission = self._admission.stats()
        uptime = (
            time.perf_counter() - self._started_at
            if self._started_at is not None
            else None
        )
        return {
            "requests": counts["requests"],
            "solved": counts["solved"],
            "failures": counts["failures"],
            "result_cache": {
                "hits": counts["result_cache.hits"],
                "entries": len(self._results) if self._results is not None else 0,
                "size_bound": self.serve.result_cache_size,
            },
            "inflight_hits": counts["inflight.hits"],
            "warm_solves": counts["warm_solves"],
            "latency": latency_ms(self._latency),
            "batcher": self._batcher.stats(),
            "packing_cache": self._packings.stats(),
            "resilience": {
                "shed": admission["shed"],
                "expired": counts["resilience.expired"],
                "watchdog_trips": counts["resilience.watchdog_trips"],
                "degraded": counts["resilience.degraded"],
                "closed_rejections": counts["resilience.closed_rejections"],
                "admission": admission,
                "breakers": {
                    config.solver: breaker.stats()
                    for config, breaker in self._breakers.items()
                },
            },
            "chaos": (
                self._chaos.stats() if self._chaos is not None else None
            ),
            "sessions": len(self._sessions),
            "uptime_seconds": None if uptime is None else round(uptime, 6),
            "qps": (
                round(counts["requests"] / uptime, 2)
                if uptime and counts["requests"]
                else None
            ),
        }

    @property
    def packing_cache(self) -> PackingCache:
        return self._packings
