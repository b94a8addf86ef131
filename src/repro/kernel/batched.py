"""Batched 2-respecting solves over stacked tree kernels.

The Θ(log n) packed trees in a min-cut run are independent, and with the
array kernel each per-tree oracle is pure numpy (one O(n² + m) Euler
prefix-sum pass).  This module takes the trees' ``tin``/``tout`` and
endpoint positions as ``(trees, ...)`` tensors (a
:class:`~repro.kernel.forest.TreeStack`) and runs a chunk of trees
through one vectorized pass: one ``np.bincount``
deposit into a 3D prefix tensor, cumulative sums along both Euler axes,
whole-row gathers for the subtree rows, per-tree column gathers for the
pair matrices, and one row-major argmin per tree.

One solver runs the low-level pass:
:func:`batched_two_respecting_oracle_many` solves the trees of **many**
graphs at once (every ``oracle`` solve: a sweep, or a single graph as a
batch of one).  Jobs whose trees have the same node count share stacked
tensors, so a 50-graph sweep costs a handful of numpy passes instead of
50; per-tree edge deposits arrive as flattened COO triples, which makes
mixed edge counts across graphs exact no-ops for parity (``np.bincount``
adds the flattened cell ids in order: every ``(a, b)`` deposit in
tree-major, edge-order sequence, then every ``(b, a)`` one, so each
cell sums its deposits in edge order).
:func:`batched_two_respecting_oracle` is its one-graph delegate (the
oracle's per-tree budget fallback solves each tree with it); both take
the trees as a stacked BFS/Euler forest (:mod:`repro.kernel.forest`).

The pair covers come from :func:`stacked_pair_covers`, which
:func:`~repro.core.cut_values.pair_cover_matrix` also calls on a one-row
stack: every float operation of a tree slice runs in the same order
whatever the slices beside it, so a tree's candidate, value and
tie-break equal the reference
:func:`~repro.core.cut_values.two_respecting_oracle` on that tree bit
for bit (the equivalence suite asserts it), for integer and float
weights alike.

Memory is bounded by chunking the tree axis: a chunk of ``c`` trees needs
at most ``32 * c * n²`` bytes of scratch.  Chunks aim at an L2-resident
working set (``_CACHE_TARGET``, 1 MiB: one tree from n = 128 up, 13 at
n = 48); the hard cap is ``REPRO_BATCH_BYTES`` (default 256 MiB) -- or
the explicit ``batch_bytes`` argument, which is how
:class:`~repro.core.session.SolverConfig` pins the budget per session --
so large instances degrade to the per-tree behaviour instead of blowing
up.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import BudgetExceeded
from repro.kernel.cut_kernel import GraphArrays
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.cut_values import CutCandidate

_DEFAULT_BUDGET = 256 * 1024 * 1024
#: bytes of scratch per tree per n²: the largest live set is ``rows`` +
#: ``matrix`` + one tree's two column gathers (8 + 8 + 16, the gathers
#: are per tree so a 1-tree chunk is the worst case); the prefix stage
#: peaks at 24 (prefix + rows + one row gather), the mask and cut stages
#: stay below 18 (matrix + boolean masks, then matrix + cuts).
_BYTES_PER_CELL = 32
#: preferred per-chunk working set: chunks that stay in the per-core L2
#: run the pass fastest.  On a 2 MiB-L2 Xeon, 512 KiB-2 MiB targets were
#: within noise of each other on 1221 single-graph chunks (n 64-256),
#: 4 MiB ran ~1.35x slower, and many-graph sweeps (n 24-48) did not move;
#: the budget only acts as the hard upper bound.
_CACHE_TARGET = 1024 * 1024


def parse_batch_bytes(raw: str | None) -> int | None:
    """A ``REPRO_BATCH_BYTES`` value as a byte budget: ``None`` (use the
    default) when absent, unparsable or not positive."""
    try:
        value = int(raw) if raw is not None else 0
    except ValueError:
        return None
    return value if value > 0 else None


def env_batch_bytes() -> int:
    """The ``REPRO_BATCH_BYTES`` scratch budget (default 256 MiB)."""
    value = parse_batch_bytes(os.environ.get("REPRO_BATCH_BYTES"))
    return _DEFAULT_BUDGET if value is None else value


def _chunk_size(n: int, batch_bytes: int | None = None) -> int:
    budget = env_batch_bytes() if batch_bytes is None else batch_bytes
    per_tree = max(1, _BYTES_PER_CELL * (n + 1) * (n + 1))
    if batch_bytes is not None and per_tree > batch_bytes:
        # An explicitly pinned budget is a hard commitment: even a
        # single-tree chunk needs more scratch than allowed, so refuse
        # instead of silently blowing past it.  (The REPRO_BATCH_BYTES
        # environment knob stays advisory -- it clamps to 1-tree chunks
        # as it always has.)  The oracle solver catches this and
        # degrades to per-tree solves.
        raise BudgetExceeded(
            f"one stacked tree at n={n} needs {per_tree} bytes of "
            f"scratch, over the pinned batch_bytes={batch_bytes}",
            required_bytes=per_tree,
            budget_bytes=batch_bytes,
        )
    return max(1, min(budget, _CACHE_TARGET) // per_tree)


def stacked_pair_covers(
    tin: np.ndarray,
    tout: np.ndarray,
    dep_t: np.ndarray,
    dep_a: np.ndarray,
    dep_b: np.ndarray,
    dep_w: np.ndarray,
) -> np.ndarray:
    """``Cov(e, f)`` for every pair of tree edges of every stacked tree,
    in O(n^2 + m) per tree.

    ``tin``/``tout`` are ``(c, n)`` Euler intervals (one row per tree,
    ``n >= 2``); the deposits are flattened ``(tree, tin(u), tin(v),
    weight)`` COO triples of the nonzero-weight edges in tree-major,
    per-tree edge order.  ``out[t, i, j]`` is ``Cov(e_i, e_j)`` of tree
    ``t``, edge ``i`` above BFS index ``i + 1``; the diagonal holds
    ``Cov(e_i)``.  Every float operation of a tree slice runs in the
    same order whatever the trees stacked beside it.

    With ``P`` the 2D prefix sums of the deposits over the Euler order,
    ``S(x, y)`` (the weight over ``subtree(x) x subtree(y)``) is a
    four-corner difference of ``P``.  For tree edges ``e = (bot b_e)``:

    - ``b_e``, ``b_f`` incomparable:  ``Cov(e, f) = S(b_e, b_f)`` (a path
      covers both edges iff it has one endpoint under each bottom);
    - ``b_e`` ancestor of ``b_f``:    ``Cov(e, f) = T(b_f) - S(b_f, b_e)``
      where ``T(x) = S(x, V)`` -- edges leaving ``subtree(b_f)`` that
      also leave ``subtree(b_e)``;
    - diagonal: the ancestor formula degenerates to ``T(b_e) - S(b_e,
      b_e)`` = ``Cov(e)`` exactly, so one vectorized formula covers
      everything.
    """
    c, n = tin.shape
    side = n + 1

    # 3D deposit + prefix integration: P[t, a, b] = weight over the
    # preorder box [0, a) x [0, b) of tree t.  One bincount over the flat
    # cell ids, the (a, b) orientation first and then (b, a), so each
    # cell sums its deposits in edge order; then rows, then columns.
    cells = np.concatenate((
        (dep_t * side + dep_a + 1) * side + dep_b + 1,
        (dep_t * side + dep_b + 1) * side + dep_a + 1,
    ))
    prefix = np.bincount(
        cells,
        weights=np.concatenate((dep_w, dep_w)),
        minlength=c * side * side,
    ).reshape(c, side, side)
    prefix.cumsum(axis=1, out=prefix)
    prefix.cumsum(axis=2, out=prefix)

    # Tree edge i of tree t <-> bottom node index i + 1 (BFS order).  Rows
    # are whole-row gathers from the (c * side, side) view of the prefix:
    # rows[t, i, b] = weight of subtree(b_i) x (preorder positions < b).
    lo = tin[:, 1:]
    hi = tout[:, 1:]
    base = np.arange(0, c * side, side, dtype=np.int64)[:, None]
    prefix = prefix.reshape(c * side, side)
    rows = prefix.take((base + hi).ravel(), axis=0)
    rows -= prefix.take((base + lo).ravel(), axis=0)
    # Each stage frees its input before the next one allocates, so the
    # chunk's live set stays at _BYTES_PER_CELL and in cache (keeping
    # them alive measured ~1.4x slower on a solve pass).
    del prefix
    rows = rows.reshape(c, n - 1, side)
    # Differencing the columns gives S; the last column is T(b_i):
    # every edge leaving subtree(b_i) once, internal ones twice.
    totals = rows[:, :, n].copy()
    matrix = np.empty((c, n - 1, n - 1), dtype=np.float64)
    for t in range(c):
        np.subtract(
            rows[t].take(hi[t], axis=1),
            rows[t].take(lo[t], axis=1),
            out=matrix[t],
        )
    del rows

    # Ancestor-related pairs: Cov = T(descendant) - S.  The two strict
    # masks are disjoint and the diagonal belongs to either, so the
    # fix-ups run in place over the incomparable-pair base values.
    ancestor = (lo[:, :, None] <= lo[:, None, :]) & (
        hi[:, None, :] <= hi[:, :, None]
    )
    descendant = ancestor.transpose(0, 2, 1).copy()
    diag = np.arange(n - 1)
    descendant[:, diag, diag] = False
    np.subtract(totals[:, None, :], matrix, out=matrix, where=ancestor)
    np.subtract(totals[:, :, None], matrix, out=matrix, where=descendant)
    return matrix


def _solve_stacked(
    tin: np.ndarray,
    tout: np.ndarray,
    dep_t: np.ndarray,
    dep_a: np.ndarray,
    dep_b: np.ndarray,
    dep_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best 1-/2-respecting cut per stacked tree slice.

    The arguments are those of :func:`stacked_pair_covers`.  Returns
    ``(values, flat)`` where ``flat[t]`` is the row-major argmin of tree
    ``t``'s ``(n-1, n-1)`` cut matrix (``i == j`` on the diagonal means a
    1-respecting cut).
    """
    c, n = tin.shape
    matrix = stacked_pair_covers(tin, tout, dep_t, dep_a, dep_b, dep_w)

    # Cut(e_i, e_j) = Cov(e_i) + Cov(e_j) - 2 Cov(e_i, e_j); diagonal =
    # the 1-respecting values.  Doubling in place is exact, so the
    # subtraction sees the same operands as ``cut_matrix``'s.
    diag = np.arange(n - 1)
    covers = matrix[:, diag, diag].copy()
    matrix *= 2
    cuts = covers[:, :, None] + covers[:, None, :]
    cuts -= matrix
    cuts[:, diag, diag] = covers

    flat_view = cuts.reshape(c, -1)
    flat = flat_view.argmin(axis=1)
    values = flat_view[np.arange(c), flat]
    return values, flat


def _filtered_edges(
    arrays: GraphArrays,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    u_pos, v_pos, weights = arrays.u_pos, arrays.v_pos, arrays.weights
    nonzero = weights != 0
    if not nonzero.all():
        u_pos, v_pos = u_pos[nonzero], v_pos[nonzero]
        weights = weights[nonzero]
    return u_pos, v_pos, weights


def stack_candidates(
    values: np.ndarray, flats: np.ndarray, stack, nodes=None
) -> "list[CutCandidate]":
    """Decode one graph's stacked-solve argmins into :class:`CutCandidate`\\ s.

    ``flats[t]`` is the row-major argmin of tree ``t``'s cut matrix
    (``i == j``: a 1-respecting cut); edge ``i`` is the tree's ``i``-th
    edge in BFS order, ``stack.edge_at(t, i)`` in node-index space,
    relabelled through ``nodes`` when given.
    """
    from repro.core.cut_values import CutCandidate
    from repro.trees.rooted import edge_key

    n = stack.tin.shape[1]
    candidates = []
    for t, (value, flat) in enumerate(zip(values.tolist(), flats.tolist())):
        i, j = divmod(flat, n - 1)
        edges = [stack.edge_at(t, e) for e in ((i,) if i == j else (i, j))]
        if nodes is not None:
            edges = [edge_key(nodes[u], nodes[v]) for u, v in edges]
        candidates.append(CutCandidate(value=value, edges=tuple(edges)))
    return candidates


def batched_two_respecting_oracle(
    arrays: GraphArrays,
    stack,
    batch_bytes: int | None = None,
) -> "list[CutCandidate]":
    """Best 1-/2-respecting cut per tree of one graph's stacked forest.

    A one-graph delegate to :func:`batched_two_respecting_oracle_many`.
    ``stack`` is the graph's :class:`~repro.kernel.forest.TreeStack` over
    the node positions of ``arrays``.
    Returns one :class:`CutCandidate` per solved tree, equal (value,
    edges, and tie-break) to ``two_respecting_oracle(graph, tree,
    arrays=arrays)`` on the same tree with the same root; edges name the
    nodes of ``arrays`` (labels for networkx-extracted arrays, indices
    for CSR).  A tree's candidate does not depend on the trees solved
    beside it.
    """
    if not len(stack.tin):
        return []
    job = OracleJob.from_arrays(arrays, stack.tin, stack.tout, stack.pos)
    values, flats = batched_two_respecting_oracle_many(
        [job], batch_bytes=batch_bytes
    )[0]
    return stack_candidates(
        values, flats, stack, None if arrays.identity_nodes else arrays.nodes
    )


class OracleJob:
    """One graph's stacked-tree solve request for the many-graph path.

    ``tin``/``tout``/``pos`` are ``(T, n)`` stacks over the graph's packed
    trees (``pos`` maps node index -> BFS index per tree, as in a
    :class:`~repro.kernel.forest.TreeStack`); ``u_pos``/``v_pos``/
    ``weights`` are the graph's zero-filtered edge arrays.  The per-tree Euler times of every edge
    endpoint are precomputed once here -- the chunked solver only
    concatenates slices of them.
    """

    __slots__ = ("n", "trees", "tin", "tout", "ut", "vt", "weights")

    def __init__(
        self,
        tin: np.ndarray,
        tout: np.ndarray,
        pos: np.ndarray,
        u_pos: np.ndarray,
        v_pos: np.ndarray,
        weights: np.ndarray,
    ):
        self.tin = tin
        self.tout = tout
        self.trees, self.n = tin.shape
        rows = np.arange(self.trees, dtype=np.int64)[:, None]
        self.ut = tin[rows, pos[:, u_pos]]
        self.vt = tin[rows, pos[:, v_pos]]
        self.weights = weights

    @classmethod
    def from_arrays(
        cls,
        arrays: GraphArrays,
        tin: np.ndarray,
        tout: np.ndarray,
        pos: np.ndarray,
    ) -> "OracleJob":
        u_pos, v_pos, weights = _filtered_edges(arrays)
        return cls(tin, tout, pos, u_pos, v_pos, weights)


def batched_two_respecting_oracle_many(
    jobs: "Sequence[OracleJob]",
    batch_bytes: int | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Solve every job's trees, fusing same-``n`` jobs into shared chunks.

    Returns, for each job in input order, ``(values, flat)`` arrays with
    one entry per tree -- the same numbers
    :func:`batched_two_respecting_oracle` would produce per graph
    (decode with :func:`stack_candidates`).  Trees from different
    graphs never interact: all per-tree arithmetic is slice-local, so
    fusing a 50-graph sweep into a handful of tensor passes is a pure
    amortization of numpy call overhead.
    """
    results: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(jobs)
    by_n: dict[int, list[int]] = {}
    for idx, job in enumerate(jobs):
        if job.n <= 1:
            raise ValueError("tree has no edges")
        by_n.setdefault(job.n, []).append(idx)

    for n, idxs in by_n.items():
        chunk = _chunk_size(n, batch_bytes)
        # Flat stream of per-job tree runs, chunked along the tree axis;
        # a chunk touches whole row-range segments of each job, so the
        # deposit assembly is a handful of ravels per segment rather than
        # one Python iteration per tree.
        values_parts: dict[int, list] = {j: [] for j in idxs}
        flat_parts: dict[int, list] = {j: [] for j in idxs}
        stream = [(j, 0, jobs[j].trees) for j in idxs]
        cursor = 0
        while cursor < len(stream):
            filled = 0
            tin_rows, tout_rows = [], []
            dep_t_parts, dep_a_parts, dep_b_parts, dep_w_parts = [], [], [], []
            segments: list[tuple[int, int]] = []  # (job, rows taken)
            while cursor < len(stream) and filled < chunk:
                j, lo, hi = stream[cursor]
                take = min(hi - lo, chunk - filled)
                job = jobs[j]
                tin_rows.append(job.tin[lo:lo + take])
                tout_rows.append(job.tout[lo:lo + take])
                m = len(job.weights)
                dep_t_parts.append(
                    np.repeat(
                        np.arange(filled, filled + take, dtype=np.int64), m
                    )
                )
                dep_a_parts.append(job.ut[lo:lo + take].ravel())
                dep_b_parts.append(job.vt[lo:lo + take].ravel())
                dep_w_parts.append(np.tile(job.weights, take))
                segments.append((j, take))
                filled += take
                if lo + take == hi:
                    cursor += 1
                else:
                    stream[cursor] = (j, lo + take, hi)
            scratch = _BYTES_PER_CELL * filled * (n + 1) * (n + 1)
            obs_metrics.histogram("oracle.chunk_trees").observe(filled)
            obs_metrics.histogram("oracle.chunk_bytes").observe(scratch)
            with obs_trace.span(
                "oracle.chunk",
                trees=filled,
                n=n,
                bytes=scratch,
                jobs=len(segments),
            ):
                values, flat = _solve_stacked(
                    np.concatenate(tin_rows),
                    np.concatenate(tout_rows),
                    np.concatenate(dep_t_parts),
                    np.concatenate(dep_a_parts),
                    np.concatenate(dep_b_parts),
                    np.concatenate(dep_w_parts),
                )
            row = 0
            for j, take in segments:
                values_parts[j].append(values[row:row + take])
                flat_parts[j].append(flat[row:row + take])
                row += take
        for j in idxs:
            results[j] = (
                np.concatenate(values_parts[j]),
                np.concatenate(flat_parts[j]),
            )
    return results  # type: ignore[return-value]
