"""Round accounting for Minor-Aggregation algorithms.

The paper's complexity statements compose three ways:

* **sequential** composition adds rounds;
* **parallel** composition on node-disjoint connected subgraphs takes the
  maximum over the branches (Corollary 11);
* **virtual-node elimination** multiplies the rounds spent inside the scope
  by ``O(beta + 1)`` where ``beta`` is the number of virtual nodes
  (Theorem 14).

:class:`RoundAccountant` mirrors exactly those three rules.  Engine-genuine
primitives call :meth:`RoundAccountant.charge` once per executed round;
cost-charged solvers call the same method with the documented formula cost of
the primitive they stand in for (see DESIGN.md section 2).  Either way the
ledger records labelled line items so benchmarks can break a total down by
phase.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field


def log2ceil(n: int) -> int:
    """``ceil(log2(n))`` clamped below at 1; the paper's ubiquitous ``L``."""
    return max(1, math.ceil(math.log2(max(2, n))))


def log_star(n: int) -> int:
    """Iterated logarithm (down to 2), the Cole-Vishkin round budget."""
    count = 0
    value: float = max(2, n).bit_length() if n > 2 ** 53 else float(max(2, n))
    while value > 2.0:
        value = math.log2(value)
        count += 1
    # Huge ints enter via their bit length = ceil(log2), one level down.
    if n > 2 ** 53:
        count += 1
    return max(1, count)


def _tabled(formula):
    """Memoise a :class:`CostModel` formula per instance, keyed by its
    arguments: the recursion charges the same few sizes thousands of
    times.  A formula must be a pure function of its arguments (``scale``
    is applied by :meth:`CostModel.scaled`, not here); an override in a
    subclass is its own formula and is not memoised unless it says so.
    """
    name = formula.__name__

    @functools.wraps(formula)
    def lookup(self, *args, **kwargs):
        if kwargs:
            return formula(self, *args, **kwargs)
        key = (name, *args)
        try:
            return self._table[key]
        except KeyError:
            value = self._table[key] = formula(self, *args)
            return value

    return lookup


@dataclass
class CostModel:
    """Documented Minor-Aggregation round costs of the paper's primitives.

    Every formula is the cost the paper proves, with explicit constants so
    that the charged totals are reproducible numbers rather than asymptotic
    hand-waves.  All formulas are in *Minor-Aggregation rounds*; conversion
    to CONGEST happens separately in :mod:`repro.ma.simulation`.
    """

    #: Multiplier applied to every formula (lets experiments study constants).
    scale: float = 1.0
    #: formula values already computed, keyed by ``(formula, *args)``
    _table: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @_tabled
    def prefix_sum(self, length: int) -> int:
        """Lemma 45: one round per recursion level, ``ceil(log2 len)`` levels."""
        return max(1, log2ceil(max(2, length)))

    @_tabled
    def subtree_sum(self, n: int) -> int:
        """Lemma 46: O(log n) HL levels x (1 collect + prefix-sum) rounds."""
        levels = log2ceil(n) + 1
        return levels * (1 + self.prefix_sum(n))

    @_tabled
    def ancestor_sum(self, n: int) -> int:
        """Lemma 46 (symmetric to the subtree sum)."""
        return self.subtree_sum(n)

    @_tabled
    def hld(self, n: int) -> int:
        """Lemma 47 / Theorem 48: O(log n) merge iterations, each doing a
        star-merge (Cole-Vishkin) plus a constant number of subtree sums."""
        iterations = log2ceil(n)
        per_iteration = log_star(n) + 3 + 2 * self.subtree_sum(n)
        return iterations * per_iteration

    @_tabled
    def centroid(self, n: int) -> int:
        """Lemma 42: root election + subtree sum + local max + leader round."""
        return self.subtree_sum(n) + 3

    @_tabled
    def one_respecting(self, n: int) -> int:
        """Theorem 18: HLD + 2 local rounds + 2 subtree sums."""
        return self.hld(n) + 2 + 2 * self.subtree_sum(n)

    @_tabled
    def edge_coloring(self, max_degree: int, n: int) -> int:
        """Lemma 35 (Panconesi-Rizzi): O(Delta + log* n) CONGEST rounds on the
        interest graph, simulated with O(Delta) blowup (Lemma 34)."""
        delta = max(1, max_degree)
        return delta * (delta + log_star(n))

    def broadcast(self) -> int:
        """One global contraction + consensus round."""
        return 1

    def scaled(self, rounds: float) -> float:
        return self.scale * rounds


class _VirtualOverhead:
    """A :meth:`RoundAccountant.virtual_overhead` scope: its multiplier is
    on the stack exactly while the body runs, also when the body raises."""

    __slots__ = ("_stack", "_factor")

    def __init__(self, stack: list, factor: float):
        self._stack = stack
        self._factor = factor

    def __enter__(self) -> None:
        self._stack.append(self._factor)

    def __exit__(self, *exc) -> bool:
        self._stack.pop()
        return False


class _ParallelScope:
    """A :meth:`RoundAccountant.parallel` scope: collects per-branch
    totals and contributes their max on exit (also when the body raises,
    counting the branches that finished)."""

    __slots__ = ("_acct", "branch_totals", "current")

    def __init__(self, acct: "RoundAccountant"):
        self._acct = acct
        self.branch_totals: list[float] = []
        self.current = 0.0

    def __enter__(self) -> "_ParallelScope":
        self._acct._parallel_stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        acct = self._acct
        stack = acct._parallel_stack
        stack.pop()
        contribution = max(self.branch_totals, default=0.0)
        # Re-inject the max into the enclosing context.
        if stack:
            stack[-1].current += contribution
        else:
            acct._total += contribution
        return False

    def branch(self) -> "_Branch":
        """One node-disjoint branch: its charges are totalled separately."""
        return _Branch(self)


class _Branch:
    """One branch of a :class:`_ParallelScope`.  A branch whose body
    raises records no total (its partial charges are dropped)."""

    __slots__ = ("_scope",)

    def __init__(self, scope: _ParallelScope):
        self._scope = scope

    def __enter__(self) -> None:
        self._scope.current = 0.0

    def __exit__(self, exc_type, *exc) -> bool:
        if exc_type is None:
            scope = self._scope
            scope.branch_totals.append(scope.current)
            scope.current = 0.0
        return False


class RoundAccountant:
    """Labelled ledger of Minor-Aggregation rounds.

    >>> acct = RoundAccountant()
    >>> acct.charge(3, "warmup")
    >>> with acct.parallel() as par:
    ...     with par.branch():
    ...         acct.charge(5, "left")
    ...     with par.branch():
    ...         acct.charge(2, "right")
    >>> acct.total
    8.0
    """

    def __init__(self, cost_model: CostModel | None = None):
        self.cost = cost_model or CostModel()
        self._total = 0.0
        self._by_label: Counter = Counter()
        self._multiplier_stack: list[float] = []
        self._parallel_stack: list[_ParallelScope] = []
        self.max_message_bits = 0

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """Total Minor-Aggregation rounds accumulated so far."""
        return self._total

    def by_label(self) -> dict[str, float]:
        """Per-label round breakdown (after multipliers)."""
        return dict(self._by_label)

    def charge(self, rounds: float, label: str = "rounds") -> None:
        """Add ``rounds`` (scaled by any active virtual-overhead scopes)."""
        if rounds < 0:
            raise ValueError(f"cannot charge negative rounds: {rounds}")
        effective = self.cost.scaled(rounds)
        for multiplier in self._multiplier_stack:
            effective *= multiplier
        self._by_label[label] += effective
        if self._parallel_stack:
            self._parallel_stack[-1].current += effective
        else:
            self._total += effective

    def absorb(self, by_label: dict) -> None:
        """Replay another ledger's (post-scaling) per-label totals verbatim.

        Used by the session API to restore a packing's recorded charges
        onto a fresh accountant before re-solving without repacking; the
        amounts are already scaled, so neither the cost model nor any
        active virtual-overhead multipliers are applied again.
        """
        for label, rounds in by_label.items():
            if rounds < 0:
                raise ValueError(f"cannot absorb negative rounds: {rounds}")
            self._by_label[label] += rounds
            if self._parallel_stack:
                self._parallel_stack[-1].current += rounds
            else:
                self._total += rounds

    def record_message_bits(self, bits: int) -> None:
        """Track the largest message ever aggregated (honesty check on B)."""
        if bits > self.max_message_bits:
            self.max_message_bits = bits

    # ------------------------------------------------------------------
    # Composition rules
    # ------------------------------------------------------------------
    def virtual_overhead(self, beta: int) -> _VirtualOverhead:
        """Theorem 14: everything inside costs ``(beta + 1)`` times more."""
        if beta < 0:
            raise ValueError("beta must be non-negative")
        return _VirtualOverhead(self._multiplier_stack, beta + 1)

    def parallel(self) -> _ParallelScope:
        """Corollary 11: node-disjoint branches cost the max, not the sum."""
        return _ParallelScope(self)

    def merge(self, *others: "RoundAccountant | dict") -> "RoundAccountant":
        """Fold other ledgers into this one (sequential composition).

        Accepts :class:`RoundAccountant` instances or ``snapshot()``
        dicts, so per-graph ledgers from ``minimum_cut_many`` can be
        aggregated into one sweep-level accountant.  Amounts are
        absorbed verbatim (already scaled); ``max_message_bits`` takes
        the maximum.  Returns ``self`` for chaining.
        """
        for other in others:
            if isinstance(other, RoundAccountant):
                other = other.snapshot()
            self.absorb(other.get("by_label", {}))
            self.record_message_bits(int(other.get("max_message_bits", 0)))
        return self

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe ledger view; ``by_label`` keys are sorted for stable
        diffs and comparisons across runs."""
        return {
            "total_rounds": self.total,
            "by_label": dict(sorted(self._by_label.items())),
            "max_message_bits": self.max_message_bits,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundAccountant(total={self.total:.1f})"
