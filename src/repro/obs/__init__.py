"""``repro.obs`` -- zero-dependency observability for the min-cut pipeline.

Three pieces, all stdlib-only and import-cycle-free:

* :mod:`repro.obs.trace` -- nested wall-clock spans with structured
  attributes, a bounded thread-safe buffer, NDJSON and Chrome Trace
  Event Format exporters;
* :mod:`repro.obs.metrics` -- counters, gauges, and fixed-bucket
  histograms, always on (the serving tier's counts live there too);
* :mod:`repro.obs.profile` -- per-phase reports joining span seconds,
  peak array bytes, and ``RoundAccountant`` paper-rounds.

Spans are gated on ``REPRO_TRACE`` (or ``SolverConfig(trace=True)``
/ :func:`trace.tracing`): disabled, every span degrades to a shared
no-op.  Either way the pipeline stays bit-identical, and the cost of
the disabled spans plus the always-on metrics stays under 2% (enforced
by ``scripts/check_trace_overhead.py``).
"""

from repro.obs import metrics, profile, trace
from repro.obs.profile import build_profile, format_bytes, render_profile
from repro.obs.trace import (
    Span,
    enabled,
    export_chrome,
    export_ndjson,
    last_error_span,
    set_enabled,
    span,
    tracing,
)

__all__ = [
    "trace",
    "metrics",
    "profile",
    "Span",
    "span",
    "tracing",
    "enabled",
    "set_enabled",
    "last_error_span",
    "export_ndjson",
    "export_chrome",
    "build_profile",
    "render_profile",
    "format_bytes",
]
