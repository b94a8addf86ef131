"""``repro.serve`` -- the async min-cut service layer.

The pipeline beneath this package is pack-once/solve-many and batches
best across many graphs at once; this package turns those two properties
into a serving tier for request-at-a-time traffic:

* :mod:`repro.serve.cache` -- byte-budgeted LRU
  :class:`~repro.serve.cache.PackingCache` of warm Theorem 12 packings,
  keyed by :meth:`CSRGraph.canonical_hash()
  <repro.graphs.csr.CSRGraph.canonical_hash>`.
* :mod:`repro.serve.batcher` -- the micro-batcher: a few-ms collection
  window fusing concurrent requests into one
  :func:`~repro.core.session.minimum_cut_many` sweep.
* :mod:`repro.serve.service` -- :class:`~repro.serve.service.MinCutService`,
  the in-process async API tying dedup, caching, batching, and the warm
  session pool together.
* :mod:`repro.serve.server` / :mod:`repro.serve.loadgen` -- the
  line-delimited-JSON-over-TCP front end (``repro serve``) and its
  reference client / load generator (``repro loadgen``).
* :mod:`repro.serve.resilience` -- the overload-protection toolkit:
  per-request :class:`~repro.serve.resilience.Deadline` budgets, the
  depth/byte-budgeted
  :class:`~repro.serve.resilience.AdmissionController`, per-solver
  :class:`~repro.serve.resilience.CircuitBreaker` boards, and the
  client-side seeded :class:`~repro.serve.resilience.RetryPolicy`.
* :mod:`repro.serve.chaos` -- seeded, declarative
  :class:`~repro.serve.chaos.ChaosPlan` fault injection (connection
  drops, slow reads, worker-thread crashes, clock skew) driven through
  the server, in the PR 6 :class:`~repro.faults.FaultPlan` discipline.

Every count of the tier lives in one :mod:`repro.obs` metrics registry
per service (``service.metrics``); each component's ``stats()`` is a view
of it.  Everything is stdlib ``asyncio`` -- no new dependencies -- and every
served result is bit-identical to a direct
:func:`~repro.core.mincut.minimum_cut` call; under overload or chaos
every request terminates with that result or a typed
:class:`~repro.errors.ServeError`, never a hang.
"""

from repro.serve.batcher import Batcher, env_batch_ms
from repro.serve.cache import PackingCache, env_cache_bytes, packing_nbytes
from repro.serve.chaos import ChaosInjector, ChaosPlan, ChaosWorkerError
from repro.serve.loadgen import ServeClient, make_workload, run_loadgen
from repro.serve.resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    ResilienceConfig,
    RetryPolicy,
)
from repro.serve.server import (
    MinCutServer,
    error_to_wire,
    graph_from_wire,
    graph_to_wire,
    result_to_wire,
)
from repro.serve.service import MinCutService, ServeConfig

__all__ = [
    "AdmissionController",
    "Batcher",
    "ChaosInjector",
    "ChaosPlan",
    "ChaosWorkerError",
    "CircuitBreaker",
    "Deadline",
    "MinCutServer",
    "MinCutService",
    "PackingCache",
    "ResilienceConfig",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "env_batch_ms",
    "env_cache_bytes",
    "error_to_wire",
    "graph_from_wire",
    "graph_to_wire",
    "make_workload",
    "packing_nbytes",
    "result_to_wire",
    "run_loadgen",
]
