"""Typed error taxonomy for the whole pipeline.

Every error the package raises deliberately derives from
:class:`ReproError`, so callers can catch one base class instead of
guessing which layer threw.  Two of the classes *also* subclass
``ValueError`` -- :class:`GraphValidationError` and :class:`SolverError`
-- because that is what the historical API raised for bad inputs and
unknown solver names; existing ``except ValueError`` call sites keep
working unchanged.

Hierarchy::

    ReproError
    ├── GraphValidationError (ValueError)   bad graph input
    ├── SolverError          (ValueError)   unknown/broken solver dispatch
    │   ├── NumericalRangeError             float error broke a cut witness
    │   └── CandidateBelowMinCutError       an exact oracle cut fell below λ
    ├── FaultPlanError       (ValueError)   malformed fault-injection plan
    ├── PackingError         (RuntimeError) tree-packing stage failure
    ├── BudgetExceeded       (RuntimeError) scratch budget cannot fit a solve
    ├── CertificationError   (RuntimeError) a returned cut failed its audit
    ├── TransportTimeout     (RuntimeError) reliable transport ran out of
    │                                       physical rounds under faults
    └── ServeError           (RuntimeError) serving-tier rejections
        ├── DeadlineExceededError           request budget expired
        ├── OverloadedError                 admission control shed the request
        │   └── CircuitOpenError            solver circuit breaker is open
        └── ServiceClosedError              service is draining / stopped

The serving errors are *rejections*, not crashes: each one is a complete,
retryable answer (``OverloadedError`` even says when to come back via
``retry_after_ms``).  Clients match on the subclass -- or on the wire,
the ``error`` field carrying the class name.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphValidationError",
    "SolverError",
    "NumericalRangeError",
    "CandidateBelowMinCutError",
    "FaultPlanError",
    "PackingError",
    "BudgetExceeded",
    "CertificationError",
    "TransportTimeout",
    "ServeError",
    "DeadlineExceededError",
    "OverloadedError",
    "CircuitOpenError",
    "ServiceClosedError",
]


class ReproError(Exception):
    """Base class of every deliberate error raised by :mod:`repro`."""


class GraphValidationError(ReproError, ValueError):
    """The input graph cannot be solved (too small, disconnected, bad
    weights, malformed arrays).  Subclasses ``ValueError`` for backward
    compatibility with the historical validation errors."""


class SolverError(ReproError, ValueError):
    """Solver dispatch failed (unknown registry name)."""


class NumericalRangeError(SolverError):
    """Float accumulation over the graph's weight range lost the cut: the
    best candidate's value and the weight of the partition it induces
    disagree beyond the finalize tolerance (cancellation in the prefix-sum
    grid, e.g. integer weights near 1e18 mixed with small ones).  Both
    numbers are kept on the exception and in its message."""

    def __init__(
        self,
        message: str,
        candidate_value: float = 0.0,
        partition_value: float = 0.0,
    ):
        super().__init__(message)
        self.candidate_value = candidate_value
        self.partition_value = partition_value


class CandidateBelowMinCutError(SolverError):
    """An oracle candidate came out below the packing's exact min-cut
    value λ on a graph whose arithmetic is exact (positive integer
    weights, four times their total below 2**53).  Every candidate there
    is the weight of a real cut, so this is a defect, not rounding; both
    numbers are kept on the exception and in its message."""

    def __init__(
        self,
        message: str,
        candidate_value: float = 0.0,
        min_cut_value: float = 0.0,
    ):
        super().__init__(message)
        self.candidate_value = candidate_value
        self.min_cut_value = min_cut_value


class FaultPlanError(ReproError, ValueError):
    """A :class:`~repro.faults.FaultPlan` field is out of range."""


class PackingError(ReproError, RuntimeError):
    """The Theorem 12 tree-packing stage cannot run (e.g. a trivial
    two-node graph has no packing to expose)."""


class BudgetExceeded(ReproError, RuntimeError):
    """A single stacked-oracle tree needs more scratch than the
    ``batch_bytes`` budget allows; callers degrade to per-tree solves."""

    def __init__(self, message: str, required_bytes: int = 0, budget_bytes: int = 0):
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


class CertificationError(ReproError, RuntimeError):
    """An independently re-evaluated cut disagreed with the result."""


class TransportTimeout(ReproError, RuntimeError):
    """The retry transport exhausted its physical-round budget without
    completing the inner (logical) execution -- the injected fault rate
    (or a crashed node) was beyond what retransmission can absorb."""


class ServeError(ReproError, RuntimeError):
    """Base class of the serving tier's typed rejections."""


class DeadlineExceededError(ServeError):
    """The request's deadline budget ran out -- before batching (stale on
    arrival or while queued) or mid-solve (the batch watchdog tripped and
    this request had no budget left to degrade into)."""

    def __init__(self, message: str, deadline_ms: "float | None" = None,
                 elapsed_ms: "float | None" = None):
        super().__init__(message)
        self.deadline_ms = deadline_ms
        self.elapsed_ms = elapsed_ms


class OverloadedError(ServeError):
    """Admission control shed the request (queue depth or byte budget
    exhausted).  ``retry_after_ms`` is the server's backoff hint; the
    resilient client honors it before retrying."""

    def __init__(self, message: str, retry_after_ms: float = 0.0):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class CircuitOpenError(OverloadedError):
    """The per-``SolverConfig`` circuit breaker is open: recent solves of
    this solver family failed consecutively, so requests are rejected
    outright until the reset cooldown admits a half-open probe."""


class ServiceClosedError(ServeError):
    """The service is draining or already stopped; the request was not
    (and will not be) solved."""
