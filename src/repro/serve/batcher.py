"""The micro-batcher: collect requests for a few ms, flush them together.

Amortization is the whole economics of this serving tier: one fused
:func:`~repro.core.session.minimum_cut_many` pass over ``k`` same-``n``
graphs costs far less than ``k`` independent pipelines (one concatenated
tree packing, one stacked BFS/Euler build, one chunked stacked-tensor
oracle pass).  But requests arrive one at a time -- so the batcher trades
a few milliseconds of added latency for that throughput: the first
request in an idle service opens a *collection window*
(``batch_ms``), everything arriving inside the window joins the batch
(capped at ``max_batch``), and the whole batch is flushed to the solver
at once.  Results fan back out to per-request futures, with per-graph
:class:`~repro.core.session.SweepFailure` isolation -- one bad graph
fails its own future, not its batch-mates'.

The class is deliberately generic (items in, ``flush(batch)`` out): the
service owns request semantics, the batcher owns only timing.  All of it
runs on the event loop; the flush callback is async so the service can
push the actual solve into a worker thread without stalling collection
bookkeeping.

Failure containment: a flush callback that raises does **not** kill the
collector task -- the exception is routed to the ``on_error`` callback
(so the owner can fail the batch's futures) and collection continues.
Shutdown drains: items enqueued before *and during* the drain are
flushed before :meth:`Batcher.stop` returns, so no pending future is
ever stranded; a hard stop (``flush=False``) instead hands the
unflushed remainder back to the caller.

Its counts live in a :class:`~repro.obs.metrics.MetricsRegistry` (its
service's, or a fresh one): one ``serve.batch_size`` observation per
flush, the ``serve.queue_depth`` gauge and ``serve.batcher.flush_errors``.
"""

from __future__ import annotations

import asyncio
import os
from typing import Awaitable, Callable, Sequence

from repro.obs.metrics import MetricsRegistry

__all__ = ["Batcher", "env_batch_ms"]

#: default collection window in milliseconds.
DEFAULT_BATCH_MS = 2.0
#: default cap on requests fused into one flush.
DEFAULT_MAX_BATCH = 64

_SHUTDOWN = object()


def env_batch_ms() -> float:
    """The ``REPRO_SERVE_BATCH_MS`` collection window (default 2 ms)."""
    try:
        value = float(os.environ.get("REPRO_SERVE_BATCH_MS", DEFAULT_BATCH_MS))
    except ValueError:
        return DEFAULT_BATCH_MS
    return value if value >= 0 else DEFAULT_BATCH_MS


class Batcher:
    """Window-based request coalescing on the running event loop.

    >>> batcher = Batcher(flush, batch_ms=2.0, max_batch=64)
    >>> await batcher.start()
    >>> await batcher.put(request)       # joins the open window, if any
    >>> await batcher.stop()             # drains, then stops
    """

    def __init__(
        self,
        flush: Callable[[Sequence], Awaitable[None]],
        batch_ms: float | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        on_error: "Callable[[Sequence, BaseException], Awaitable[None]] | None" = None,
        metrics: MetricsRegistry | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self._flush = flush
        self._on_error = on_error
        self.batch_ms = env_batch_ms() if batch_ms is None else float(batch_ms)
        self.max_batch = int(max_batch)
        self._queue: asyncio.Queue | None = None
        self._task: asyncio.Task | None = None
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._sizes = self.metrics.histogram(
            "serve.batch_size", (1, 2, 4, 8, 16, 32, 64, 128)
        )
        self._depth = self.metrics.gauge("serve.queue_depth")
        self._flush_errors = self.metrics.counter("serve.batcher.flush_errors")

    async def start(self) -> None:
        if self._task is not None:
            return
        self._queue = asyncio.Queue()
        # The queue is passed in, not re-read from self: stop() nulls
        # self._queue to fail new puts fast, possibly before the
        # collector task has run its first step.
        self._task = asyncio.get_running_loop().create_task(
            self._run(self._queue), name="repro-serve-batcher"
        )

    async def stop(self, flush: bool = True) -> list:
        """Retire the collector task; returns the unflushed remainder.

        ``flush=True`` (the default, graceful drain): everything already
        queued -- including items that raced in while draining -- is
        flushed before returning, and the returned list is empty.

        ``flush=False`` (hard stop): the collector is cancelled without
        flushing; pending items are *returned* so the owner can reject
        their futures instead of stranding them.
        """
        if self._task is None:
            return []
        queue, task = self._queue, self._task
        self._queue = None  # new puts now fail fast
        stranded: list = []
        if flush:
            await queue.put(_SHUTDOWN)
            await task
        else:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            while not queue.empty():
                item = queue.get_nowait()
                if item is not _SHUTDOWN:
                    stranded.append(item)
        self._task = None
        self._depth.set(0)
        return stranded

    async def put(self, item) -> None:
        if self._queue is None:
            raise RuntimeError("batcher not started (call start() first)")
        await self._queue.put(item)
        self._depth.set(self._queue.qsize())

    # ------------------------------------------------------------------
    async def _run(self, queue: asyncio.Queue) -> None:
        loop = asyncio.get_running_loop()
        shutting_down = False
        while not shutting_down:
            head = await queue.get()
            if head is _SHUTDOWN:
                shutting_down = True
                batch: list = []
            else:
                batch = [head]
                deadline = loop.time() + self.batch_ms / 1000.0
                while len(batch) < self.max_batch:
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        # Window closed: drain whatever already queued up
                        # (they arrived inside the window) without waiting.
                        while (
                            len(batch) < self.max_batch and not queue.empty()
                        ):
                            item = queue.get_nowait()
                            if item is _SHUTDOWN:
                                shutting_down = True
                                break
                            batch.append(item)
                        break
                    try:
                        item = await asyncio.wait_for(queue.get(), timeout)
                    except asyncio.TimeoutError:
                        break
                    if item is _SHUTDOWN:
                        shutting_down = True
                        break
                    batch.append(item)
            self._depth.set(queue.qsize())
            if batch:
                await self._flush_safely(batch)
        # Drain phase: anything that raced in behind the shutdown
        # sentinel (enqueued while a window or flush was in progress)
        # still gets flushed -- stop() never strands a pending item.
        leftovers: list = []
        while not queue.empty():
            item = queue.get_nowait()
            if item is not _SHUTDOWN:
                leftovers.append(item)
        for start in range(0, len(leftovers), self.max_batch):
            await self._flush_safely(leftovers[start:start + self.max_batch])

    async def _flush_safely(self, batch: list) -> None:
        """One accounted flush; a raising callback is contained, not fatal."""
        self._sizes.observe(len(batch))
        try:
            await self._flush(batch)
        except asyncio.CancelledError:  # hard stop: let stop() collect
            raise
        except BaseException as exc:
            self._flush_errors.inc()
            if self._on_error is not None:
                await self._on_error(batch, exc)

    def stats(self) -> dict:
        sizes = self._sizes
        return {
            "batches": sizes.count,
            "items": sizes.total,
            "max_batch_seen": sizes.max or 0,
            "mean_batch": sizes.mean,
            "batch_ms": self.batch_ms,
            "max_batch": self.max_batch,
            "flush_errors": self._flush_errors.value,
        }
