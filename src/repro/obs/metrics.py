"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Complement to the span tracer (:mod:`repro.obs.trace`): spans answer
*where time went*, metrics answer *how much of what happened* -- oracle
chunk sizes, stacked-solve scratch bytes, CONGEST physical rounds and
retransmit counts, degradation events, sweep failure rates, and every
count of the serving tier.

Instruments are always on: they do not read the tracer's switch (spans
do).  A mutation is one lock-protected update, about 0.3 us, and the
pipeline makes only a few per solve, so leaving them on costs well
under 0.1% of a solve; ``scripts/check_trace_overhead.py`` gates it.
The lock keeps them safe under the threaded batched sweep and the
serve tier's worker threads.

The pipeline reports to the process-wide :data:`REGISTRY`; each
:class:`~repro.serve.service.MinCutService` owns a registry of its own
(``service.metrics``) that its components record into, so its
``stats()`` are a view of that registry.

>>> from repro.obs import metrics
>>> metrics.counter("congest.messages").inc(3)
>>> metrics.histogram("oracle.chunk_trees", (1, 8, 64)).observe(5)
>>> metrics.snapshot()["counters"]["congest.messages"]
3
"""

from __future__ import annotations

import bisect
import threading
from typing import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "reset",
    "op_count",
]

#: default histogram buckets: power-of-4 ladder, good for byte / count
#: distributions spanning many orders of magnitude.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(4.0 ** k for k in range(1, 16))


class Counter:
    """Monotonically increasing count (events, messages, rounds)."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry"):
        self.name = name
        self.value = 0
        self._registry = registry

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._registry._lock:
            self.value += amount
            self._registry._ops += 1

    def as_dict(self) -> float:
        return self.value


class Gauge:
    """Last-written value plus the observed extrema (working-set sizes)."""

    __slots__ = ("name", "value", "min", "max", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry"):
        self.name = name
        self.value: float | None = None
        self.min: float | None = None
        self.max: float | None = None
        self._registry = registry

    def set(self, value: float) -> None:
        with self._registry._lock:
            self.value = value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self._registry._ops += 1

    def as_dict(self) -> dict:
        return {"value": self.value, "min": self.min, "max": self.max}


class Histogram:
    """Fixed-boundary histogram (cumulative-style buckets, like Prometheus).

    ``boundaries`` are the inclusive upper edges of the finite buckets;
    an implicit ``+inf`` bucket catches the rest.  ``counts[i]`` is the
    number of observations ``<= boundaries[i]`` exclusive of earlier
    buckets (plain, not cumulative, so the export stays readable).
    """

    __slots__ = ("name", "boundaries", "counts", "count", "total", "max", "_registry")

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        boundaries: Sequence[float] = DEFAULT_BUCKETS,
    ):
        cleaned = tuple(float(b) for b in boundaries)
        if list(cleaned) != sorted(set(cleaned)):
            raise ValueError(f"histogram {name!r} boundaries must be "
                             "strictly increasing")
        self.name = name
        self.boundaries = cleaned
        self.counts = [0] * (len(cleaned) + 1)  # last = +inf bucket
        self.count = 0
        self.total = 0
        self.max: float | None = None
        self._registry = registry

    def observe(self, value: float) -> None:
        with self._registry._lock:
            self.counts[bisect.bisect_left(self.boundaries, value)] += 1
            self.count += 1
            self.total += value
            self.max = value if self.max is None else max(self.max, value)
            self._registry._ops += 1

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> float | None:
        """Upper-edge estimate of the ``q``-quantile (``0 < q <= 1``).

        The boundary of the first bucket whose running count reaches
        ``q * count``, clamped to the largest observation (no quantile
        lies above it); past the last boundary, the largest observation.
        """
        with self._registry._lock:
            if not self.count:
                return None
            target = q * self.count
            seen = 0
            for edge, bucket_count in zip(self.boundaries, self.counts):
                seen += bucket_count
                if seen >= target:
                    return min(edge, float(self.max))
            return self.max

    def as_dict(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "max": self.max,
        }


class MetricsRegistry:
    """Name-keyed instrument store: the pipeline's :data:`REGISTRY`, or
    one serving tier's ``service.metrics``.

    Instruments are created on first access and keep their identity for
    the registry's lifetime, so hot paths can prebind
    ``registry.counter("x")`` outside a loop and call ``.inc()`` inside.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._ops = 0

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(
                    name, Counter(name, self)
                )
        return instrument

    def counters(self, prefix: str, names: Sequence[str]) -> dict[str, Counter]:
        """The counter ``prefix + name`` of each of ``names``, by name."""
        return {name: self.counter(prefix + name) for name in names}

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name, self))
        return instrument

    def histogram(
        self, name: str, boundaries: "Sequence[float] | None" = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name,
                    Histogram(name, self, boundaries or DEFAULT_BUCKETS),
                )
        return instrument

    def op_count(self) -> int:
        """Total mutations recorded (the overhead gate sizes itself on it)."""
        with self._lock:
            return self._ops

    def snapshot(self, prefix: "str | None" = None) -> dict:
        """JSON-friendly view of every instrument, names sorted.

        ``prefix`` narrows the view to one namespace (e.g.
        ``snapshot(prefix="serve.resilience.")`` -- the chaos-harness
        ledger) without paying for the rest of the pipeline's
        instruments.
        """

        def keep(name: str) -> bool:
            return prefix is None or name.startswith(prefix)

        with self._lock:
            return {
                "counters": {
                    name: c.as_dict()
                    for name, c in sorted(self._counters.items())
                    if keep(name)
                },
                "gauges": {
                    name: g.as_dict()
                    for name, g in sorted(self._gauges.items())
                    if keep(name)
                },
                "histograms": {
                    name: h.as_dict()
                    for name, h in sorted(self._histograms.items())
                    if keep(name)
                },
            }

    def reset(self) -> None:
        """Drop every instrument (tests / fresh CLI runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._ops = 0


#: the process-wide registry the pipeline instrumentation reports to.
REGISTRY = MetricsRegistry()

counter = REGISTRY.counter
gauge = REGISTRY.gauge
histogram = REGISTRY.histogram
snapshot = REGISTRY.snapshot
reset = REGISTRY.reset
op_count = REGISTRY.op_count
