"""The order in which the oracle solves packed trees, and when it stops.

Finalize's winner is the first packed tree whose candidate has the least
``(value, len(edges))`` (:meth:`~repro.core.cut_values.CutCandidate.better_than`).
Theorem 12 packs Θ(log n) trees so that one of them 2-respects a minimum
cut, but the packing already knows the min-cut value λ
(``approx_cut_value``, exact by Padberg-Rinaldi contraction plus
Nagamochi-Ibaraki CAPFOREST passes on a stalled kernel).  When the
oracle's arithmetic is exact, every candidate is the weight of a real
cut and so at least λ, and the trees can be solved in order under a stop
rule:

* a ``(λ, 1 edge)`` candidate is the winner: no later tree is solved;
* after a ``(λ, 2 edges)`` candidate only a later ``(λ, 1 edge)`` one can
  win, and that needs a tree edge whose 1-respecting cover is λ.  From
  then on each batch is filtered by its own stacked covers
  (:func:`~repro.kernel.cut_kernel.stacked_covers` over the batch's
  :class:`~repro.kernel.forest.TreeStack`), and only the trees with a λ
  cover are solved; the search stops when no tree is left.

The rule applies when every weight is a positive integer (a Theorem 12
multiplicity; a zero weight is packed at the 1e-12 floor), four times
the total weight is below 2**53 (every prefix cell, cover and candidate
is then an exactly represented integer) and λ was computed by the
packing itself (:attr:`TreePacking.approx_cut_computed`).  Otherwise
every tree is solved, in one batch.  A candidate below λ under the rule
raises :class:`~repro.errors.CandidateBelowMinCutError`.

Trees run in doubling batches (1, 2, 4, ...), each at most ``cap``
trees, so a graph that settles on its first tree solves one.  One loop
drives every schedule, :func:`repro.core.session._oracle_schedules`: a
single-graph solve is a batch of one, a sweep runs every graph's
schedule in the same rounds, and the budget fallback runs 1-tree
batches.  It builds each batch's stacked forest -- only the trees the
schedule reaches are ever rooted -- and the solved trees' candidates
keep their packed indices (``solved``), which is what finalize reads;
the winner's witness comes off its batch's stack row
(:meth:`TreeSchedule.cut_side`).
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
    """One graph's ``trees`` packed trees in solve order, under the stop
    rule.  ``arrays`` is read only for the cover filter."""

    def __init__(
        self,
        min_cut: "float | None",
        trees: int,
        arrays: GraphArrays,
        cap: int,
    ):
        self.min_cut = min_cut
        self.trees = trees
        self.arrays = arrays
        self.cap = cap
        self.solved: "list[tuple[int, CutCandidate]]" = []
        self.built = 0
        self.best: "CutCandidate | None" = None
        self._best_row = None  # (packed index, batch stack, row)
        self._left = np.arange(trees, dtype=np.int64)
        self._batch = 1

    @property
    def settled(self) -> bool:
        return not len(self._left)

    def next_rows(self) -> np.ndarray:
        """The packed indices of the next batch of trees to build."""
        if self.min_cut is None:
            take = len(self._left)
        else:
            take = min(self._batch, self.cap)
            self._batch *= 2
        rows, self._left = self._left[:take], self._left[take:]
        return rows

    def keep(self, rows: np.ndarray, stack) -> tuple:
        """The trees of a built batch (``rows`` and their ``stack``) that
        can still change the winner: after a ``(λ, 2 edges)`` candidate,
        only those with a 1-respecting cover of λ."""
        self.built += len(rows)
        lam = self.min_cut
        if self.best is None or self.best.value != lam:
            return rows, stack
        covers = stacked_covers(stack, self.arrays)
        kept = np.flatnonzero((covers[:, 1:] == lam).any(axis=1))
        if len(kept) == len(rows):
            return rows, stack
        return rows[kept], stack.select(kept)

    def absorb(
        self, rows: np.ndarray, stack, candidates: "list[CutCandidate]"
    ) -> None:
        """Record the candidates of trees ``rows`` (``stack``'s rows, in
        order) and apply the stop rule."""
        for row, (index, candidate) in enumerate(zip(rows.tolist(), candidates)):
            self.solved.append((index, candidate))
            if candidate.better_than(self.best):
                self.best = candidate
                self._best_row = (index, stack, row)
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
        if self.best.value == lam and len(self.best.edges) == 1:
            self._left = self._left[:0]

    def cut_side(self, index: int, edges) -> frozenset:
        """One side of the winning candidate's cut (tree ``index``,
        ``edges``), read off its batch's stack row."""
        best_index, stack, row = self._best_row
        assert index == best_index
        return stack.cut_side(row, edges)

