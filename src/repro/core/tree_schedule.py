"""The order in which the oracle solves packed trees, and when it stops.

Finalize's winner is the first packed tree whose candidate has the least
``(value, len(edges))`` (:meth:`~repro.core.cut_values.CutCandidate.better_than`).
Theorem 12 packs Θ(log n) trees so that one of them 2-respects a minimum
cut, but the packing already knows the min-cut value λ
(``approx_cut_value``, exact by contraction plus Stoer-Wagner).  When the
oracle's arithmetic is exact, every candidate is the weight of a real
cut and so at least λ, and the trees can be solved in order under a stop
rule:

* a ``(λ, 1 edge)`` candidate is the winner: no later tree is solved;
* after a ``(λ, 2 edges)`` candidate only a later ``(λ, 1 edge)`` one can
  win, and that needs a tree edge whose 1-respecting cover is λ.  The
  trees left are filtered once by their stacked covers
  (:func:`~repro.kernel.cut_kernel.stacked_covers`); the search stops
  when none is left.

The rule applies when every weight is a positive integer (a Theorem 12
multiplicity; a zero weight is packed at the 1e-12 floor), four times
the total weight is below 2**53 (every prefix cell, cover and candidate
is then an exactly represented integer) and λ was computed by the
packing itself (:attr:`TreePacking.approx_cut_computed`).  Otherwise
every tree is solved, in one batch.  A candidate below λ under the rule
raises :class:`~repro.errors.CandidateBelowMinCutError`.

Trees run in doubling batches (1, 2, 4, ...), each at most ``cap``
trees, so a graph that settles on its first tree solves one.  The
solved trees' candidates keep their packed indices (``solved``), which
is what finalize reads.
"""

from __future__ import annotations

import numpy as np

from repro.core.cut_values import CutCandidate
from repro.errors import CandidateBelowMinCutError
from repro.kernel.cut_kernel import GraphArrays, stacked_covers

#: every float sum of integers below this bound is exact.
_EXACT_LIMIT = 2.0 ** 53


def stop_value(csr, packing) -> "float | None":
    """λ when the stop rule applies to ``csr`` and its ``packing``,
    ``None`` when every tree must be solved."""
    weights = csr.edge_w
    if not (packing.approx_cut_computed and csr.int_weights):
        return None
    if len(weights) and not (weights > 0).all():
        return None
    # Positive summands: every partial sum is at most the total, so the
    # float total is exact whenever the true one is below 2**53.
    if 4.0 * float(weights.sum()) >= _EXACT_LIMIT:
        return None
    return float(packing.approx_cut_value)


class TreeSchedule:
    """One graph's packed trees in solve order, under the stop rule.

    ``stack`` (the graph's :class:`~repro.kernel.forest.TreeStack`) and
    ``arrays`` are read only for the cover filter.
    """

    def __init__(
        self,
        min_cut: "float | None",
        stack,
        arrays: GraphArrays,
        cap: int,
    ):
        self.min_cut = min_cut
        self.trees = stack.trees
        self.stack = stack
        self.arrays = arrays
        self.cap = cap
        self.solved: "list[tuple[int, CutCandidate]]" = []
        self.best: "CutCandidate | None" = None
        self._left = np.arange(self.trees, dtype=np.int64)
        self._batch = 1
        self._filtered = False

    @property
    def settled(self) -> bool:
        return not len(self._left)

    def next_rows(self) -> np.ndarray:
        """The packed indices of the next batch of trees to solve."""
        if self.min_cut is None:
            take = len(self._left)
        else:
            take = min(self._batch, self.cap)
            self._batch *= 2
        rows, self._left = self._left[:take], self._left[take:]
        return rows

    def absorb(
        self, rows: np.ndarray, candidates: "list[CutCandidate]"
    ) -> None:
        """Record the candidates of trees ``rows`` and apply the stop rule."""
        for index, candidate in zip(rows.tolist(), candidates):
            self.solved.append((index, candidate))
            if candidate.better_than(self.best):
                self.best = candidate
        lam = self.min_cut
        if lam is None:
            return
        if self.best.value < lam:
            raise CandidateBelowMinCutError(
                f"oracle candidate {self.best.value!r} is below the exact "
                f"min-cut value {lam!r} on exact integer weights",
                candidate_value=self.best.value,
                min_cut_value=lam,
            )
        if self.best.value > lam:
            return
        if len(self.best.edges) == 1:
            self._left = self._left[:0]
        elif not self._filtered:
            self._filtered = True
            if len(self._left):
                covers = stacked_covers(self.stack.select(self._left), self.arrays)
                self._left = self._left[(covers[:, 1:] == lam).any(axis=1)]


def run_schedule(schedule: TreeSchedule, solve) -> TreeSchedule:
    """Solve ``schedule``'s batches with ``solve(rows) -> candidates``
    until it settles."""
    while not schedule.settled:
        rows = schedule.next_rows()
        schedule.absorb(rows, solve(rows))
    return schedule
