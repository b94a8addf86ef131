"""Overload protection for the serving tier: deadlines, admission
control, circuit breaking, and seeded retry backoff.

The PR 8 service assumed a polite world: requests queue unboundedly, a
stuck solve blocks its batch forever, and clients never retry.  This
module is the impolite-world toolkit -- four small, independently
testable mechanisms the service composes:

* :class:`Deadline` -- a per-request time budget, carried from the
  client through the JSON-lines protocol into the batcher.  Expired
  requests are rejected with a typed
  :class:`~repro.errors.DeadlineExceededError` *before* they cost a
  solve; the batch watchdog uses the minimum member budget to fail (not
  hang) a fused sweep whose worker thread overruns.
* :class:`AdmissionController` -- bounded queue with depth *and* byte
  budgets.  Over budget, requests are shed with a typed
  :class:`~repro.errors.OverloadedError` carrying ``retry_after_ms``,
  so the failure mode under 2x traffic is fast bounded rejection
  instead of unbounded latency.
* :class:`CircuitBreaker` -- per-:class:`~repro.core.session.SolverConfig`
  closed -> open -> half-open state machine on *consecutive* solver
  failures, so one poisoned graph family cannot take the pool down with
  it.  Open circuits reject with
  :class:`~repro.errors.CircuitOpenError` (an ``OverloadedError``, so
  clients back off identically).
* :class:`RetryPolicy` -- capped exponential backoff with **seeded**
  jitter for the client side.  Retries are idempotent by construction:
  requests are keyed by canonical graph hash + seed, so a retry that
  lands after a late success is a result-cache hit, never a second
  solve.

Everything is stdlib, clock-injectable (the chaos harness skews time
through the same seam), and deterministic under a fixed seed.  The
admission controller and the breakers count into a
:class:`~repro.obs.metrics.MetricsRegistry` (their service's, or a
fresh one).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from threading import Lock

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
)
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ResilienceConfig",
    "Deadline",
    "AdmissionController",
    "CircuitBreaker",
    "RetryPolicy",
    "env_deadline_ms",
    "env_max_queue",
]

#: default backoff hint attached to shed requests, in milliseconds.
DEFAULT_RETRY_AFTER_MS = 25.0
#: default consecutive-failure threshold that opens a circuit.
DEFAULT_BREAKER_THRESHOLD = 5
#: default open -> half-open cooldown, in milliseconds.
DEFAULT_BREAKER_RESET_MS = 1000.0


def env_deadline_ms() -> "float | None":
    """The ``REPRO_SERVE_DEADLINE_MS`` default budget (None = unbounded)."""
    raw = os.environ.get("REPRO_SERVE_DEADLINE_MS")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def env_max_queue() -> "int | None":
    """The ``REPRO_SERVE_MAX_QUEUE`` depth budget (None = unbounded)."""
    raw = os.environ.get("REPRO_SERVE_MAX_QUEUE")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass(frozen=True)
class ResilienceConfig:
    """The overload-protection knobs, separate from the batching knobs.

    Parameters
    ----------
    deadline_ms:
        Default per-request budget applied when a request names none;
        ``None`` (the default) means requests without an explicit
        deadline are unbounded.
    max_queue / max_queue_bytes:
        Admission budgets on requests *in the system* (queued or inside
        an executing batch, not yet answered).  ``None`` disables that
        budget; both default to unbounded, i.e. PR 8 behavior.
    retry_after_ms:
        Base backoff hint attached to shed requests (scaled up by how
        far over budget the queue is).
    breaker_threshold:
        Consecutive solve-stage failures of one solver config that open
        its circuit; ``0`` disables circuit breaking.
    breaker_reset_ms:
        Open -> half-open cooldown.  A half-open circuit admits one
        probe; success closes it, failure re-opens it for another
        cooldown.
    watchdog_ms:
        Hard wall-clock budget for one fused batch solve even when no
        member carries a deadline; ``None`` means the watchdog only
        arms when deadlines do.
    """

    deadline_ms: "float | None" = None
    max_queue: "int | None" = None
    max_queue_bytes: "int | None" = None
    retry_after_ms: float = DEFAULT_RETRY_AFTER_MS
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD
    breaker_reset_ms: float = DEFAULT_BREAKER_RESET_MS
    watchdog_ms: "float | None" = None

    def __post_init__(self):
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None)")
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None)")
        if self.max_queue_bytes is not None and self.max_queue_bytes < 1:
            raise ValueError("max_queue_bytes must be >= 1 (or None)")
        if self.retry_after_ms < 0:
            raise ValueError("retry_after_ms cannot be negative")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold cannot be negative")
        if self.breaker_reset_ms < 0:
            raise ValueError("breaker_reset_ms cannot be negative")
        if self.watchdog_ms is not None and self.watchdog_ms <= 0:
            raise ValueError("watchdog_ms must be positive (or None)")

    @classmethod
    def from_env(cls, env=None, **overrides) -> "ResilienceConfig":
        """Capture ``REPRO_SERVE_DEADLINE_MS`` / ``REPRO_SERVE_MAX_QUEUE``
        into an explicit config; keyword overrides win."""
        env = os.environ if env is None else env
        fields: dict = {}
        raw = env.get("REPRO_SERVE_DEADLINE_MS")
        if raw is not None:
            try:
                value = float(raw)
            except ValueError:
                value = 0.0
            if value > 0:
                fields["deadline_ms"] = value
        raw = env.get("REPRO_SERVE_MAX_QUEUE")
        if raw is not None:
            try:
                depth = int(raw)
            except ValueError:
                depth = 0
            if depth > 0:
                fields["max_queue"] = depth
        fields.update(overrides)
        return cls(**fields)


class Deadline:
    """One request's absolute time budget on an injectable clock.

    ``clock`` is any zero-arg monotonic-seconds callable; the service
    threads its (possibly chaos-skewed) clock through, so skewing time
    skews every expiry decision coherently.
    """

    __slots__ = ("budget_ms", "expires_at", "started_at")

    def __init__(self, budget_ms: float, clock=time.monotonic):
        if budget_ms <= 0:
            raise ValueError("deadline budget_ms must be positive")
        self.budget_ms = float(budget_ms)
        self.started_at = clock()
        self.expires_at = self.started_at + self.budget_ms / 1000.0

    def remaining_s(self, now: float) -> float:
        """Seconds of budget left at ``now`` (negative when expired)."""
        return self.expires_at - now

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def error(self, now: float, where: str) -> DeadlineExceededError:
        """A typed expiry rejection describing where the budget died."""
        elapsed_ms = (now - self.started_at) * 1000.0
        return DeadlineExceededError(
            f"deadline of {self.budget_ms:g} ms exceeded {where} "
            f"({elapsed_ms:.1f} ms elapsed)",
            deadline_ms=self.budget_ms,
            elapsed_ms=round(elapsed_ms, 3),
        )


class AdmissionController:
    """Depth/byte-budgeted admission: admit, or shed with a typed error.

    Accounting covers requests *in the system* -- admitted but not yet
    answered -- so a slow drain backs pressure up to the front door
    instead of hiding it in the batcher queue.  Thread-safe because
    releases can arrive from watchdog-degraded completions.  The
    ``serve.admission.depth`` / ``.bytes`` gauges' maxima are the peaks.
    """

    def __init__(
        self, config: ResilienceConfig, metrics: MetricsRegistry | None = None
    ):
        self.config = config
        self.depth = 0
        self.bytes = 0
        self._lock = Lock()
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._admitted = self.metrics.counter("serve.admission.admitted")
        self._shed = self.metrics.counter("serve.admission.shed")
        self._depth = self.metrics.gauge("serve.admission.depth")
        self._bytes = self.metrics.gauge("serve.admission.bytes")

    def admit(self, nbytes: int) -> None:
        """Admit one ``nbytes``-sized request or raise ``OverloadedError``."""
        config = self.config
        with self._lock:
            over_depth = (
                config.max_queue is not None
                and self.depth >= config.max_queue
            )
            over_bytes = (
                config.max_queue_bytes is not None
                and self.bytes + nbytes > config.max_queue_bytes
                # a request bigger than the whole byte budget is still
                # admitted when the queue is idle -- shedding it forever
                # would make it unservable, which is worse than briefly
                # exceeding the budget.
                and self.depth > 0
            )
            if over_depth or over_bytes:
                self._shed.inc()
                if config.max_queue:
                    pressure = max(1.0, self.depth / config.max_queue)
                else:
                    pressure = 1.0
                what = "depth" if over_depth else "bytes"
                raise OverloadedError(
                    f"admission queue over {what} budget "
                    f"(depth {self.depth}"
                    + (f"/{config.max_queue}" if config.max_queue else "")
                    + f", {self.bytes} B queued)",
                    retry_after_ms=round(config.retry_after_ms * pressure, 3),
                )
            self.depth += 1
            self.bytes += nbytes
            self._admitted.inc()
            self._depth.set(self.depth)
            self._bytes.set(self.bytes)

    def release(self, nbytes: int) -> None:
        with self._lock:
            self.depth = max(0, self.depth - 1)
            self.bytes = max(0, self.bytes - nbytes)
            self._depth.set(self.depth)
            self._bytes.set(self.bytes)

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": self.depth,
                "bytes": self.bytes,
                "admitted": self._admitted.value,
                "shed": self._shed.value,
                "peak_depth": self._depth.max or 0,
                "peak_bytes": self._bytes.max or 0,
                "max_queue": self.config.max_queue,
                "max_queue_bytes": self.config.max_queue_bytes,
            }


class CircuitBreaker:
    """Closed -> open -> half-open breaker on consecutive failures.

    * **closed** -- requests flow; each solve-stage failure increments a
      consecutive counter, any success clears it.
    * **open** -- ``threshold`` consecutive failures trip the circuit:
      requests are rejected with :class:`CircuitOpenError` (no solve
      attempted) until ``reset_ms`` has passed.
    * **half-open** -- after the cooldown one probe request is admitted;
      success closes the circuit, failure re-opens it for another
      cooldown.

    One breaker guards one solver config; the service keeps a board of
    them so a poisoned graph family only opens *its* circuit.  Opens,
    rejections and probes count under ``<name>.*`` in ``metrics``.
    """

    __slots__ = (
        "threshold", "reset_ms", "clock", "state", "consecutive_failures",
        "opened_at", "metrics", "_counts", "_lock",
    )

    def __init__(
        self,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        reset_ms: float = DEFAULT_BREAKER_RESET_MS,
        clock=time.monotonic,
        metrics: MetricsRegistry | None = None,
        name: str = "serve.breaker",
    ):
        self.threshold = int(threshold)
        self.reset_ms = float(reset_ms)
        self.clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at: "float | None" = None
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._counts = self.metrics.counters(
            name + ".", ("opens", "rejected", "probes")
        )
        self._lock = Lock()

    def allow(self, solver: str) -> None:
        """Admit one request or raise :class:`CircuitOpenError`."""
        if self.threshold <= 0:
            return
        with self._lock:
            if self.state == "open":
                elapsed_ms = (self.clock() - self.opened_at) * 1000.0
                if elapsed_ms < self.reset_ms:
                    self._counts["rejected"].inc()
                    raise CircuitOpenError(
                        f"circuit for solver {solver!r} is open "
                        f"({self.consecutive_failures} consecutive "
                        f"failures); retry after "
                        f"{self.reset_ms - elapsed_ms:.0f} ms",
                        retry_after_ms=round(self.reset_ms - elapsed_ms, 3),
                    )
                self.state = "half-open"
                self._counts["probes"].inc()

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            self.state = "closed"
            self.opened_at = None

    def record_failure(self) -> None:
        if self.threshold <= 0:
            return
        with self._lock:
            self.consecutive_failures += 1
            tripped = (
                self.state == "half-open"
                or self.consecutive_failures >= self.threshold
            )
            if tripped and self.state != "open":
                self.state = "open"
                self.opened_at = self.clock()
                self._counts["opens"].inc()
            elif self.state == "open":
                # failures while open (in-flight stragglers) restart
                # the cooldown -- the family is still poisoned.
                self.opened_at = self.clock()

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                **{name: c.value for name, c in self._counts.items()},
                "threshold": self.threshold,
                "reset_ms": self.reset_ms,
            }


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter (client side).

    ``delay_ms(attempt)`` grows ``base_ms * multiplier**attempt`` up to
    ``cap_ms``, jittered uniformly in ``[jitter, 1] x`` by a
    ``random.Random(seed)`` stream -- seeded so chaos-harness runs
    replay identically.  A server ``retry_after_ms`` hint takes
    precedence when it is longer (the server knows its own queue).

    ``attempts`` counts *tries*, not retries: ``attempts=4`` is one
    initial request plus up to three retries.
    """

    attempts: int = 4
    base_ms: float = 25.0
    cap_ms: float = 1000.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_ms < 0 or self.cap_ms < 0:
            raise ValueError("backoff milliseconds cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 < self.jitter <= 1.0:
            raise ValueError("jitter must be in (0, 1]")

    def rng(self) -> random.Random:
        """A fresh seeded jitter stream (one per client connection)."""
        return random.Random(self.seed)

    def delay_ms(
        self,
        attempt: int,
        rng: "random.Random | None" = None,
        retry_after_ms: "float | None" = None,
    ) -> float:
        """Backoff before retry number ``attempt`` (0-based), in ms."""
        raw = min(self.cap_ms, self.base_ms * self.multiplier ** attempt)
        jittered = raw * (
            (rng or self.rng()).uniform(self.jitter, 1.0)
        )
        if retry_after_ms is not None:
            jittered = max(jittered, float(retry_after_ms))
        return min(jittered, self.cap_ms)
