"""``PackingCache`` -- LRU :class:`~repro.core.session.GraphPacking` store.

The paper's pipeline is pack-once/solve-many: the Theorem 12 tree packing
dominates the per-request cost of a small-instance solve, and it depends
only on ``(graph, seed, num_trees)`` -- not on which registered solver
later consumes it.  A serving tier therefore wants to keep warm packings
around: a repeat query for a graph it has already packed skips Theorem 12
entirely and goes straight to the 2-respecting solve.

This cache is that store.  Entries are keyed by the graph's
:meth:`~repro.graphs.csr.CSRGraph.canonical_hash` (plus seed / tree count
-- the key is opaque to the cache), evicted in LRU order, and bounded by
a configurable **byte budget** rather than an entry count: a handful of
n=4096 packings can out-weigh thousands of n=24 ones, and the budget is
what keeps the resident working set predictable under mixed traffic.

Per-entry size reuses the kernel's working-set accounting: the shared
:class:`~repro.kernel.cut_kernel.GraphArrays` extraction reports its
exact ``nbytes`` (the same number the ``session.arrays`` span records),
and the packed trees + their lazily built Euler/LCA kernels are estimated
per node per tree.  The estimate is deliberately coarse-but-monotone --
budget enforcement needs ordering, not byte-exact sums.

Its counts and the resident-bytes gauge live under ``serve.cache.*`` in
a :class:`~repro.obs.metrics.MetricsRegistry` (its service's, or a fresh
one).

Thread-safe: the serve worker thread mutates it while the event-loop
thread reads ``stats()``.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Hashable

from repro.core.session import GraphPacking
from repro.obs.metrics import MetricsRegistry

__all__ = ["PackingCache", "packing_nbytes", "env_cache_bytes"]

#: default byte budget for a service's packing cache (128 MiB).
DEFAULT_CACHE_BYTES = 128 * 1024 * 1024

#: per-node-per-tree estimate for a packed tree's resident bytes: its
#: edge arrays (16 B/edge) plus, once a warm solve roots it, the
#: ``RootedTree`` dicts (~100 B/node of Python dict + list overhead) and
#: the array kernel attached to it (Euler tours, tin/tout/pos,
#: binary-lifting tables -- roughly ``8 * (6 + log2 n)`` B/node).  Coarse
#: on purpose; see module docstring.
TREE_NODE_BYTES = 200

#: the cache's counters, under ``serve.cache.``.
COUNTS = ("hits", "misses", "hit_bytes", "miss_bytes", "evictions", "rejected")


def env_cache_bytes() -> int:
    """The ``REPRO_SERVE_CACHE_BYTES`` budget (default 128 MiB)."""
    try:
        return int(
            os.environ.get("REPRO_SERVE_CACHE_BYTES", DEFAULT_CACHE_BYTES)
        )
    except ValueError:
        return DEFAULT_CACHE_BYTES


def packing_nbytes(packed: GraphPacking) -> int:
    """Working-set estimate of a *materialized* packing handle.

    Forces the lazy packing and shared arrays (a cache insert wants them
    computed anyway -- that is the work a warm hit skips), then charges
    the exact ``GraphArrays.nbytes`` plus the per-tree estimate.
    """
    trees = len(packed.packing.tree_edge_arrays)
    return int(packed.arrays.nbytes) + trees * packed.csr.n * TREE_NODE_BYTES


class PackingCache:
    """Byte-budgeted LRU cache of :class:`GraphPacking` handles."""

    def __init__(
        self,
        budget_bytes: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        budget = env_cache_bytes() if budget_bytes is None else int(budget_bytes)
        if budget < 1:
            raise ValueError("cache byte budget must be positive")
        self.budget_bytes = budget
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, tuple[GraphPacking, int]]" = (
            OrderedDict()
        )
        self._bytes = 0
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._counts = self.metrics.counters("serve.cache.", COUNTS)
        self._bytes_gauge = self.metrics.gauge("serve.cache.bytes")

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> GraphPacking | None:
        """The cached packing for ``key`` (refreshing its LRU slot)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._counts["misses"].inc()
                return None
            self._entries.move_to_end(key)
            self._counts["hits"].inc()
            self._counts["hit_bytes"].inc(entry[1])
            return entry[0]

    def put(self, key: Hashable, packed: GraphPacking) -> int:
        """Insert (or refresh) a packing; returns its charged byte size.

        Evicts LRU entries until the budget holds.  An entry larger than
        the whole budget is *rejected* (returned size ``0``) rather than
        inserted-then-immediately-evicted -- caching it would purge the
        entire working set for a packing that can never be retained.
        """
        nbytes = packing_nbytes(packed)
        with self._lock:
            if nbytes > self.budget_bytes:
                self._counts["rejected"].inc()
                return 0
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (packed, nbytes)
            self._bytes += nbytes
            self._counts["miss_bytes"].inc(nbytes)
            while self._bytes > self.budget_bytes:
                _evicted_key, (_packed, evicted_bytes) = (
                    self._entries.popitem(last=False)
                )
                self._bytes -= evicted_bytes
                self._counts["evictions"].inc()
            self._bytes_gauge.set(self._bytes)
            return nbytes

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Total charged bytes of the resident entries."""
        with self._lock:
            return self._bytes

    def keys(self) -> list:
        """Resident keys in LRU-to-MRU order (eviction order)."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._bytes_gauge.set(0)

    def stats(self) -> dict:
        """JSON-friendly view: the resident entries and bytes plus the
        ``serve.cache.*`` counts."""
        counts = {name: c.value for name, c in self._counts.items()}
        lookups = counts["hits"] + counts["misses"]
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "hits": counts["hits"],
                "misses": counts["misses"],
                "hit_rate": (counts["hits"] / lookups) if lookups else None,
                "hit_bytes": counts["hit_bytes"],
                "miss_bytes": counts["miss_bytes"],
                "evictions": counts["evictions"],
                "rejected": counts["rejected"],
            }
