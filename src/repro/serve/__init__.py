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

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    ".resilience": (
        "AdmissionController",
        "CircuitBreaker",
        "Deadline",
        "ResilienceConfig",
        "RetryPolicy",
    ),
    ".batcher": ("Batcher", "env_batch_ms"),
    ".chaos": ("ChaosInjector", "ChaosPlan", "ChaosWorkerError"),
    ".server": (
        "MinCutServer",
        "error_to_wire",
        "graph_from_wire",
        "graph_to_wire",
        "result_to_wire",
    ),
    ".service": ("MinCutService", "ServeConfig"),
    ".cache": ("PackingCache", "env_cache_bytes", "packing_nbytes"),
    ".loadgen": ("ServeClient", "make_workload", "run_loadgen"),
})
