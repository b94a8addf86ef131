"""The Theorem 40 recursion's leaves, evaluated as one batch.

The 2-respecting recursion (Sections 6-9) ends in thousands of tiny leaf
computations whose values feed nothing but the final minimum:

* **Lemma 43 base cases** -- a tree of at most
  :data:`~repro.core.general.BASE_CASE_EDGES` edges, every labelled pair
  enumerated against its pair-cover matrix;
* **Lemma 21 scans** -- a path-to-path instance whose shorter path has at
  most :data:`~repro.core.path_to_path.BASE_CASE_EDGES` edges, every edge
  of the shorter path scanned against the longer one.

No control flow reads a leaf's value: interest lists, colorings and the
Theorem 39 contractions depend only on weights, and a Monge step's best
response comes from its own (non-leaf) scans.  So the recursion records
each leaf into a :class:`LeafBatch` and returns a :data:`Deferred` -- its
candidates and leaf ids in DFS order -- and the batch evaluates every
recorded leaf at once with segment-id array passes:

* all base-case trees get their Euler intervals from one call of the
  forest builder (:func:`~repro.kernel.forest._flat_forest`, the one
  Euler-interval builder), and their pair-cover matrices come out of one
  zero-padded stack of 2D prefix grids;
* all Lemma 21 scans share one ragged bucket deposit and one reverse
  cumulative sum per row width;
* a segmented first-minimum picks each leaf's winner.

**Bit parity.**  Every leaf keeps its float operations in the per-leaf
order: deposits land cell by cell in edge (or cross-edge) order, the
prefix grids integrate rows then columns, a scan's pair covers are
suffix sums taken right to left, and a value is
``(Cov(e) + Cov(f)) - 2 * Cov(e, f)``.  Zero padding only appends
additions of ``0.0`` past the cells a leaf reads.  Resolving a deferred
result is a first-minimum fold in DFS order -- the earliest of equal
``(value, len(edges))`` wins -- which is exactly what the recursion's
nested :func:`~repro.core.cut_values.best_candidate` calls compute, so
values, witnesses and round ledgers are those of leaf-by-leaf
evaluation.
"""

from __future__ import annotations

from array import array
from functools import cache
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.core.cut_values import CutCandidate
from repro.graphs.csr import validate_weights
from repro.kernel.forest import _flat_forest
from repro.obs import trace as obs_trace
from repro.trees.rooted import Edge

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.edge_table import EdgeTable
    from repro.core.path_to_path import PathInstance
    from repro.trees.rooted import RootedTree

#: A recursion result awaiting its leaves: concrete candidates and leaf
#: ids (ints into a :class:`LeafBatch`), in the recursion's DFS order.
Deferred = tuple

@cache
def _pairs(count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(a, b)`` for ``a < b < count`` in nested-loop order."""
    first, second = np.triu_indices(count, 1)
    return tuple(first.tolist()), tuple(second.tolist())


def join(parts: Iterable["CutCandidate | Deferred | None"]) -> Deferred:
    """Concatenate results in order; adjacent candidates fold early."""
    out: list = []
    for part in parts:
        if part is None:
            continue
        for item in part if isinstance(part, tuple) else (part,):
            if (
                type(item) is CutCandidate
                and out
                and type(out[-1]) is CutCandidate
            ):
                if item.better_than(out[-1]):
                    out[-1] = item
            else:
                out.append(item)
    return tuple(out)


def _ints(values: array) -> np.ndarray:
    return np.frombuffer(values, dtype=np.int64)


def _first_minima(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per contiguous segment, the position of its first minimum (-1 for
    an empty segment), with :meth:`CutCandidate.better_than`'s NaN rule:
    a leading NaN sticks, a later one never wins."""
    winners = np.full(len(lengths), -1, dtype=np.int64)
    nonempty = lengths > 0
    if not nonempty.any():
        return winners
    lengths = lengths[nonempty]
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    keys = values
    nan = np.isnan(values)
    if nan.any():
        keys = values.copy()
        keys[nan] = np.inf
        keys[starts[nan[starts]]] = -np.inf
    segment = np.repeat(np.arange(len(lengths)), lengths)
    at_min = keys == np.minimum.reduceat(keys, starts)[segment]
    positions = np.where(at_min, np.arange(len(keys)), len(keys))
    winners[nonempty] = np.minimum.reduceat(positions, starts)
    return winners


class LeafBatch:
    """Recorded leaves of one or more Theorem 40 recursions.

    ``base_case`` and ``path_scans`` record a leaf and return its
    :data:`Deferred`; :meth:`flush` evaluates everything recorded since
    the last flush; :meth:`resolve` folds a deferred result into its
    :class:`CutCandidate` (flushing first when needed).  One batch is
    shared by all packed trees of a ``minor-aggregation`` solve.
    """

    def __init__(self):
        #: resolved leaf winners, by leaf id (None until flushed / empty)
        self._best: list[CutCandidate | None] = []
        self._reset()

    def _reset(self) -> None:
        # Recorded leaves live in flat typed arrays (8 bytes an entry, no
        # Python objects), since a solve holds every tree's leaves at once.

        # Lemma 43 base cases: one grid per leaf, nodes in BFS order.
        self._grid_leaf = array("q")
        self._grid_n = array("q")
        self._grid_pairs = array("q")
        self._node_parent = array("q")  # batch-global node ids
        self._dep_u = array("q")
        self._dep_v = array("q")
        self._dep_w = array("d")
        self._lab_node = array("q")  # bottom node of a labelled edge
        self._lab_cov = array("d")
        self._lab_orig: list[Edge] = []
        self._pair_a = array("q")  # batch-global labelled-edge ids
        self._pair_b = array("q")
        # Lemma 21 scans: one leaf = rows (fixed edges) x width (other path).
        self._scan_leaf = array("q")
        self._scan_rows = array("q")
        self._scan_width = array("q")
        self._scan_fixed_p = array("b")
        self._scan_orig: list[Edge] = []  # P's edges, then Q's, per scan
        self._cross_count = array("q")
        self._cross_p = array("q")  # P position, Q position, weight
        self._cross_q = array("q")
        self._cross_w = array("d")
        self._cov_fixed = array("d")
        self._cov_other = array("d")

    @property
    def pending(self) -> int:
        """Leaves recorded but not yet evaluated."""
        return len(self._grid_leaf) + len(self._scan_leaf)

    def _new_leaf(self) -> int:
        self._best.append(None)
        return len(self._best) - 1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def base_case(
        self,
        graph: "EdgeTable",
        tree: "RootedTree",
        cov: Mapping[Edge, float],
        orig_of: Mapping[Edge, Edge],
    ) -> Deferred:
        """Record a Lemma 43 base case: every pair of labelled tree edges,
        ``Cov(e) + Cov(f) - 2 Cov(e, f)`` over the instance graph."""
        leaf = self._new_leaf()
        nodes = tree.order
        parent = tree.parent
        base = len(self._node_parent)
        index = {node: base + i for i, node in enumerate(nodes)}
        self._grid_leaf.append(leaf)
        self._grid_n.append(len(nodes))
        self._node_parent.append(base)
        self._node_parent.extend([index[parent[node]] for node in nodes[1:]])
        self._dep_u.extend([index[u] for u, _v, _w in graph])
        self._dep_v.extend([index[v] for _u, v, _w in graph])
        self._dep_w.extend([w for _u, _v, w in graph])
        first = len(self._lab_node)
        for i in range(1, len(nodes)):
            node = nodes[i]
            up = parent[node]
            # orig_of is keyed by canonical edge keys: one orientation.
            orig = orig_of.get((node, up))
            if orig is None:
                orig = orig_of.get((up, node))
            if orig is not None:
                self._lab_node.append(base + i)
                self._lab_cov.append(cov[orig])
                self._lab_orig.append(orig)
        first_of, second_of = _pairs(len(self._lab_node) - first)
        self._pair_a.extend([first + a for a in first_of])
        self._pair_b.extend([first + b for b in second_of])
        self._grid_pairs.append(len(first_of))
        return (leaf,)

    def path_scans(
        self,
        instance: "PathInstance",
        crosses: list[tuple[int, int, float]],
    ) -> Deferred:
        """Record a Lemma 21 base case: every edge of the shorter path
        (``P`` on a tie) scanned against every edge of the other."""
        leaf = self._new_leaf()
        p_orig, q_orig = instance.p_orig, instance.q_orig
        fixed_p = len(p_orig) <= len(q_orig)
        fixed, other = (p_orig, q_orig) if fixed_p else (q_orig, p_orig)
        self._scan_leaf.append(leaf)
        self._scan_rows.append(len(fixed))
        self._scan_width.append(len(other))
        self._scan_fixed_p.append(fixed_p)
        self._scan_orig.extend(p_orig)
        self._scan_orig.extend(q_orig)
        self._cross_count.append(len(crosses))
        self._cross_p.extend([pu for pu, _qv, _w in crosses])
        self._cross_q.extend([qv for _pu, qv, _w in crosses])
        self._cross_w.extend([w for _pu, _qv, w in crosses])
        cov = instance.cov
        self._cov_fixed.extend([cov[orig] for orig in fixed])
        self._cov_other.extend([cov[orig] for orig in other])
        return (leaf,)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Evaluate every leaf recorded since the last flush."""
        if not self.pending:
            return
        with obs_trace.span(
            "ma.leaves",
            base_cases=len(self._grid_leaf),
            scans=len(self._scan_leaf),
        ):
            rows = _ints(self._scan_rows)
            width = _ints(self._scan_width)
            lengths = np.concatenate([_ints(self._grid_pairs), rows * width])
            values = np.empty(int(lengths.sum()), dtype=np.float64)
            pairs = len(self._pair_a)
            values[:pairs] = self._base_case_values()
            self._scan_values(rows, width, values[pairs:])
            winners = _first_minima(values, lengths)
            self._decode(winners, values, lengths)
        self._reset()

    def _base_case_values(self) -> np.ndarray:
        """``Cut(e, f)`` of every recorded base-case pair, in record order."""
        if not self._grid_leaf:
            return np.zeros(0, dtype=np.float64)
        parent = _ints(self._node_parent)
        grid_n = _ints(self._grid_n)
        grid_of = np.repeat(np.arange(len(grid_n)), grid_n)
        # Every grid's nodes are its BFS indices, root 0, in one flat slot
        # space: the (parent, child) pairs in BFS order give the forest
        # builder the RootedTree's child order.
        offset = np.zeros(len(grid_n) + 1, dtype=np.int64)
        np.cumsum(grid_n, out=offset[1:])
        child = np.flatnonzero(parent != np.arange(len(parent)))
        *_, tin, tout = _flat_forest(
            parent[child], child, np.zeros(len(grid_n), dtype=np.int64), offset
        )

        # One zero-padded (n + 1)^2 prefix grid per tree: deposit each edge
        # weight at (tin(u) + 1, tin(v) + 1), then (tin(v) + 1, tin(u) + 1),
        # and integrate rows, then columns (stacked_pair_covers).
        side = int(grid_n.max()) + 1
        cells = side * side
        weights = validate_weights(self._dep_w, context="LeafBatch")
        dep_u = _ints(self._dep_u)
        dep_v = _ints(self._dep_v)
        nonzero = weights != 0
        if not nonzero.all():
            dep_u, dep_v, weights = dep_u[nonzero], dep_v[nonzero], weights[nonzero]
        origin = grid_of[dep_u] * cells
        ut, vt = tin[dep_u] + 1, tin[dep_v] + 1
        prefix = np.bincount(
            np.concatenate([origin + ut * side + vt, origin + vt * side + ut]),
            weights=np.concatenate([weights, weights]),
            minlength=len(grid_n) * cells,
        ).reshape(len(grid_n), side, side)
        prefix.cumsum(axis=1, out=prefix)
        prefix.cumsum(axis=2, out=prefix)
        flat = prefix.reshape(-1)

        # Pair (i, j), i before j: S = box subtree(b_i) x subtree(b_j);
        # ancestor-related pairs take T(descendant) - S, T(x) = S(x, V).
        lab_node = _ints(self._lab_node)
        lab_cov = np.frombuffer(self._lab_cov, dtype=np.float64)
        a = _ints(self._pair_a)
        b = _ints(self._pair_b)
        node_i, node_j = lab_node[a], lab_node[b]
        origin = grid_of[node_i] * cells
        lo_i, hi_i = tin[node_i] * side, tout[node_i] * side
        lo_j, hi_j = tin[node_j], tout[node_j]
        last = grid_n[grid_of[node_i]]
        box = (flat[origin + hi_i + hi_j] - flat[origin + lo_i + hi_j]) - (
            flat[origin + hi_i + lo_j] - flat[origin + lo_i + lo_j]
        )
        total_i = flat[origin + hi_i + last] - flat[origin + lo_i + last]
        total_j = (
            flat[origin + tout[node_j] * side + last]
            - flat[origin + tin[node_j] * side + last]
        )
        i_above = (tin[node_i] <= lo_j) & (hi_j <= tout[node_i])
        j_above = (lo_j <= tin[node_i]) & (tout[node_i] <= hi_j)
        pair = np.where(
            i_above, total_j - box, np.where(j_above, total_i - box, box)
        )
        return (lab_cov[a] + lab_cov[b]) - 2 * pair

    def _scan_values(
        self, rows: np.ndarray, width: np.ndarray, out: np.ndarray
    ) -> None:
        """``Cut(e, f)`` of every recorded scan cell into ``out``: per leaf,
        row by row (fixed edge ``e_1, e_2, ...``), each row across the
        other path."""
        if not len(rows):
            return
        sizes = rows * width
        origin = np.cumsum(sizes) - sizes

        # Lemma 21 buckets: a cross edge whose fixed-side end sits at
        # position `own` covers fixed edges 1..own+1, so it lands in rows
        # 0..min(own, rows - 1) at the column of its other end.  Rows are
        # generated cross-major, so each cell sums in cross-edge order.
        bucket = np.zeros(len(out), dtype=np.float64)
        if self._cross_w:
            scan = np.repeat(np.arange(len(sizes)), _ints(self._cross_count))
            p_pos, q_pos = _ints(self._cross_p), _ints(self._cross_q)
            weights = validate_weights(self._cross_w, context="LeafBatch")
            fixed_p = np.frombuffer(self._scan_fixed_p, dtype=np.int8)[scan] != 0
            own = np.where(fixed_p, p_pos, q_pos)
            other = np.where(fixed_p, q_pos, p_pos)
            reach = np.minimum(own + 1, rows[scan])
            cross = np.repeat(np.arange(len(scan)), reach)
            row = np.arange(len(cross)) - np.repeat(np.cumsum(reach) - reach, reach)
            scan = scan[cross]
            bucket = np.bincount(
                origin[scan] + row * width[scan] + other[cross],
                weights=weights[cross],
                minlength=len(out),
            )

        # Per row width: pair covers are the bucket's suffix sums (right to
        # left), and a cell's value is (Cov(e) + Cov(f)) - 2 Cov(e, f).
        row_scan = np.repeat(np.arange(len(sizes)), rows)
        row_width = width[row_scan]
        row_start = origin[row_scan] + (
            np.arange(len(row_scan)) - (np.cumsum(rows) - rows)[row_scan]
        ) * row_width
        cov_fixed = np.frombuffer(self._cov_fixed, dtype=np.float64)
        cov_other = np.frombuffer(self._cov_other, dtype=np.float64)
        other_first = (np.cumsum(width) - width)[row_scan]
        for w in np.unique(row_width).tolist():
            at = np.flatnonzero(row_width == w)
            columns = np.arange(w)
            cells = row_start[at][:, None] + columns
            pair = np.cumsum(bucket[cells][:, ::-1], axis=1)[:, ::-1]
            covs = cov_fixed[at][:, None] + cov_other[other_first[at][:, None] + columns]
            out[cells] = covs - 2 * pair

    def _decode(
        self, winners: np.ndarray, values: np.ndarray, lengths: np.ndarray
    ) -> None:
        """Each leaf's winning candidate from its winning position."""
        best = self._best
        labelled = self._lab_orig
        first_of, second_of = self._pair_a, self._pair_b
        grids = len(self._grid_leaf)
        # Base-case pairs come first, so a winner *is* its pair's index.
        for grid, leaf in enumerate(self._grid_leaf):
            win = int(winners[grid])
            if win >= 0:
                best[leaf] = CutCandidate(
                    value=values[win],
                    edges=(labelled[first_of[win]], labelled[second_of[win]]),
                )
        offset = len(first_of)
        origs = self._scan_orig
        orig_at = 0
        for scan, leaf in enumerate(self._scan_leaf):
            rows, width = self._scan_rows[scan], self._scan_width[scan]
            win = int(winners[grids + scan])
            fixed, other = divmod(win - offset, width)
            if self._scan_fixed_p[scan]:
                i, j, k = fixed, other, rows
            else:
                i, j, k = other, fixed, width
            best[leaf] = CutCandidate(
                value=float(values[win]),
                edges=(origs[orig_at + i], origs[orig_at + k + j]),
            )
            offset += rows * width
            orig_at += rows + width

    # ------------------------------------------------------------------
    def resolve(self, deferred: "Deferred | CutCandidate | None") -> CutCandidate | None:
        """The first minimum of a deferred result, in its DFS order."""
        if deferred is None or type(deferred) is CutCandidate:
            return deferred
        self.flush()
        best: CutCandidate | None = None
        leaves = self._best
        for item in deferred:
            candidate = leaves[item] if type(item) is int else item
            if candidate is not None and candidate.better_than(best):
                best = candidate
        return best

