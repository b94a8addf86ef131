"""Path-to-path 2-respecting min-cut (paper Section 6, Theorem 19).

An instance is a root plus two descending paths ``P`` and ``Q``; the goal is
``min Cut(e, f)`` over ``E(P) x E(Q)``.  Following the paper:

* **Edge convention.**  ``E(P)`` *includes* the attachment edge
  ``e_1 = (root, p_1)`` ("e1 is connected to the root"), so the instance has
  ``|P|`` edges for ``|P|`` path nodes.  This is what the between-subtree
  reduction (Section 8) needs -- an HL-path's top light edge must stay
  pairable after its top endpoint is contracted into the star root.
* **Carried cover values.**  Exact global ``Cov(e)`` values are carried into
  every recursive call (they are computed once, by Theorem 18); recursive
  sub-instances therefore only need *pair-cover* equivalence
  (``Cov(e, f)`` for the surviving pairs), which the cut-equivalent
  ``G_up``/``G_down`` constructions of Lemma 23 preserve exactly.
* **Monge recursion** (Fact 20): fix the midpoint edge ``e_a`` of ``P``,
  find its best response ``f_b`` on ``Q``, scan both (Lemma 21), and recurse
  on the strictly-up and strictly-down sub-instances, which are node-disjoint
  and scheduled in parallel (Corollary 11).
* **Separable instances** (Lemma 22): when all cross-path edges touch the
  five special nodes, ``Cov(e, f)`` decomposes as
  ``A(f) + B(e) + [e = e1] C(f) + [f = f1] D(e)`` and three linear
  minimizations finish without recursion.  (The explicit ``e1``/``f1`` terms
  extend Lemma 22 to the attachment-edge pairs; see DESIGN.md.)
* **Deferred leaves.**  A base case (Lemma 21 scans of the shorter path)
  is recorded into a :class:`~repro.core.leaves.LeafBatch` and evaluated
  later with every other leaf of the solve; the recursion returns a
  :data:`~repro.core.leaves.Deferred` (candidates and leaf ids in DFS
  order: the Monge step's scans, then ``G_up``, then ``G_down``).
  Resolving it folds first minima in that order, the earliest of equal
  ``(value, len(edges))`` winning -- what nested ``best_candidate`` calls
  over leaf-by-leaf results return.  The Monge step's best response reads
  only its own scans, never a leaf, so deferral moves no decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.accounting import RoundAccountant
from repro.core.cut_values import CutCandidate, best_candidate
from repro.core.edge_table import EdgeTable, assemble, chains, edge_table
from repro.core.leaves import Deferred, LeafBatch, join
from repro.obs import trace as obs_trace
from repro.trees.rooted import Edge, Node

#: Instances whose shorter path has at most this many edges are solved by
#: direct per-edge scans (the paper uses 10).
BASE_CASE_EDGES = 10


@dataclass
class PathInstance:
    """A path-to-path instance with carried global cover values.

    ``p_orig[i - 1]`` is the *original* tree edge labelled by path edge
    ``e_i`` (``e_1`` is the attachment ``(root, p_nodes[0])``); candidates
    are reported in terms of original edges.  ``graph`` is the instance's
    ordered edge table (a networkx graph is converted once).
    """

    graph: EdgeTable
    root: Node
    p_nodes: list[Node]
    q_nodes: list[Node]
    p_orig: list[Edge]
    q_orig: list[Edge]
    cov: Mapping[Edge, float]
    virtual_nodes: frozenset = frozenset()

    def __post_init__(self):
        self.graph = edge_table(self.graph)
        if len(self.p_nodes) != len(self.p_orig):
            raise ValueError("p_orig must label every P edge")
        if len(self.q_nodes) != len(self.q_orig):
            raise ValueError("q_orig must label every Q edge")

    def cross_edges(self) -> list[tuple[int, int, float]]:
        """Cross-path edges as (P-position, Q-position, weight) triples."""
        pos_p = {node: i for i, node in enumerate(self.p_nodes)}
        pos_q = {node: i for i, node in enumerate(self.q_nodes)}
        crosses = []
        for u, v, weight in self.graph:
            if u in pos_p and v in pos_q:
                crosses.append((pos_p[u], pos_q[v], weight))
            elif v in pos_p and u in pos_q:
                crosses.append((pos_p[v], pos_q[u], weight))
        return crosses


@dataclass
class PathSolveStats:
    instances: int = 0
    max_depth: int = 0
    separable_solved: int = 0
    base_cases: int = 0


def _suffix_cumulative(bucket: list[float]) -> list[float]:
    """``out[j] = sum(bucket[j:])`` -- 'covered by every reach >= j'."""
    out = [0.0] * (len(bucket) + 1)
    for index in range(len(bucket) - 1, -1, -1):
        out[index] = out[index + 1] + bucket[index]
    return out[: len(bucket)]


def _pair_covers_for_edge(
    edge_index: int,
    crosses: list[tuple[int, int, float]],
    other_len: int,
    fixed_side: str,
) -> list[float]:
    """Lemma 21: ``Cov(e_fixed, f_j)`` for every ``j`` (1-indexed list).

    A cross edge at positions ``(pu, qv)`` covers ``e_i`` iff ``pu + 1 >= i``
    and covers ``f_j`` iff ``qv + 1 >= j``.
    """
    bucket = [0.0] * (other_len + 2)
    for pu, qv, weight in crosses:
        own, other = (pu, qv) if fixed_side == "p" else (qv, pu)
        if own + 1 >= edge_index:
            bucket[other + 1] += weight
    suffix = _suffix_cumulative(bucket)
    return suffix[1 : other_len + 1]


class PathToPathSolver:
    """Solves a :class:`PathInstance`; see the module docstring.

    With ``leaves``, :meth:`solve` records its base cases there and returns
    a :data:`~repro.core.leaves.Deferred`; without, each call evaluates a
    private batch and returns the best candidate.
    """

    def __init__(
        self,
        accountant: RoundAccountant | None = None,
        leaves: LeafBatch | None = None,
    ):
        self.acct = accountant or RoundAccountant()
        self.stats = PathSolveStats()
        self.leaves = leaves

    # ------------------------------------------------------------------
    def solve(self, instance: PathInstance) -> "CutCandidate | Deferred | None":
        with obs_trace.span("ma.path_to_path", acct_prefix="path-to-path:"):
            if self.leaves is not None:
                return self._solve(instance, 0, self.leaves)
            leaves = LeafBatch()
            return leaves.resolve(self._solve(instance, 0, leaves))

    def _cut_value(
        self, instance: PathInstance, i: int, j: int, pair_cov: float
    ) -> float:
        cov_e = instance.cov[instance.p_orig[i - 1]]
        cov_f = instance.cov[instance.q_orig[j - 1]]
        return cov_e + cov_f - 2 * pair_cov

    def _charge_scan(self, instance: PathInstance) -> None:
        size = len(instance.p_nodes) + len(instance.q_nodes) + 1
        self.acct.charge(
            self.acct.cost.subtree_sum(size) + 2, "path-to-path:scan"
        )

    def _scan_candidates(
        self,
        instance: PathInstance,
        crosses: list[tuple[int, int, float]],
        edge_index: int,
        fixed_side: str,
    ) -> list[CutCandidate]:
        """All pairs touching one fixed edge (Lemma 21 + a min-fold)."""
        other_len = (
            len(instance.q_nodes) if fixed_side == "p" else len(instance.p_nodes)
        )
        self._charge_scan(instance)
        pair_cov = _pair_covers_for_edge(edge_index, crosses, other_len, fixed_side)
        candidates = []
        for other_index in range(1, other_len + 1):
            if fixed_side == "p":
                i, j = edge_index, other_index
            else:
                i, j = other_index, edge_index
            value = self._cut_value(instance, i, j, pair_cov[other_index - 1])
            candidates.append(
                CutCandidate(
                    value=value,
                    edges=(instance.p_orig[i - 1], instance.q_orig[j - 1]),
                )
            )
        return candidates

    # ------------------------------------------------------------------
    def _is_separable(
        self, instance: PathInstance, crosses: list[tuple[int, int, float]]
    ) -> bool:
        """Lemma 22's condition: no cross edge avoids all five special nodes."""
        k = len(instance.p_nodes)
        l = len(instance.q_nodes)
        return not any(
            0 < pu < k - 1 and 0 < qv < l - 1 for pu, qv, _w in crosses
        )

    def _solve_separable(
        self, instance: PathInstance, crosses: list[tuple[int, int, float]]
    ) -> CutCandidate | None:
        """Lemma 22 (extended): Cov(e_i, f_j) = A(j)+B(i)+[i=1]C(j)+[j=1]D(i)."""
        k = len(instance.p_nodes)
        l = len(instance.q_nodes)
        size = k + l + 1
        self.acct.charge(
            2 * self.acct.cost.subtree_sum(size) + 2, "path-to-path:separable"
        )
        bucket_a = [0.0] * (l + 2)  # edges at bottom(P): cover all e
        bucket_c = [0.0] * (l + 2)  # edges at top(P): cover e_1 only
        bucket_b = [0.0] * (k + 2)  # edges at bottom(Q): cover all f
        bucket_d = [0.0] * (k + 2)  # edges at top(Q): cover f_1 only
        for pu, qv, weight in crosses:
            if pu == k - 1:
                bucket_a[qv + 1] += weight
            elif pu == 0:
                bucket_c[qv + 1] += weight
            elif qv == l - 1:
                bucket_b[pu + 1] += weight
            elif qv == 0:
                bucket_d[pu + 1] += weight
            else:  # pragma: no cover - guarded by _is_separable
                raise AssertionError("instance is not separable")
        a_of = _suffix_cumulative(bucket_a)
        c_of = _suffix_cumulative(bucket_c)
        b_of = _suffix_cumulative(bucket_b)
        d_of = _suffix_cumulative(bucket_d)
        cov_p = [instance.cov[o] for o in instance.p_orig]  # cov_p[i-1] = Cov(e_i)
        cov_q = [instance.cov[o] for o in instance.q_orig]

        candidates: list[CutCandidate] = []

        def emit(i: int, j: int, pair_cov: float) -> None:
            candidates.append(
                CutCandidate(
                    value=cov_p[i - 1] + cov_q[j - 1] - 2 * pair_cov,
                    edges=(instance.p_orig[i - 1], instance.q_orig[j - 1]),
                )
            )

        # Generic pairs (i >= 2, j >= 2): fully separable, minimize each side.
        if k >= 2 and l >= 2:
            best_i = min(range(2, k + 1), key=lambda i: cov_p[i - 1] - 2 * b_of[i])
            best_j = min(range(2, l + 1), key=lambda j: cov_q[j - 1] - 2 * a_of[j])
            emit(best_i, best_j, a_of[best_j] + b_of[best_i])
        # Attachment-edge row (i = 1) and column (j = 1): direct 1-D scans.
        for j in range(1, l + 1):
            pair_cov = a_of[j] + b_of[1] + c_of[j] + (d_of[1] if j == 1 else 0.0)
            emit(1, j, pair_cov)
        for i in range(1, k + 1):
            pair_cov = a_of[1] + b_of[i] + (c_of[1] if i == 1 else 0.0) + d_of[i]
            emit(i, 1, pair_cov)
        return best_candidate(candidates)

    # ------------------------------------------------------------------
    def _build_up(
        self, instance: PathInstance, a: int, b: int,
        crosses: list[tuple[int, int, float]],
    ) -> PathInstance | None:
        """Cut-equivalent G_up: P edges 1..a-1, Q edges 1..b-1 (Lemma 23).

        Everything at or below the midpoint / best-response bottoms is
        aggregated onto the sub-paths' bottom nodes, exactly preserving the
        pair covers of the surviving pairs.
        """
        if a <= 1 or b <= 1:
            return None
        p_up = instance.p_nodes[: a - 1]
        q_up = instance.q_nodes[: b - 1]
        graph = assemble(
            [instance.root, *p_up, *q_up],
            chains(instance.root, (p_up, q_up)),
            (
                (p_up[min(pu, a - 2)], q_up[min(qv, b - 2)], weight)
                for pu, qv, weight in crosses
            ),
        )
        kept = set(p_up) | set(q_up) | {instance.root}
        virtuals = (instance.virtual_nodes & kept) | {p_up[-1], q_up[-1]}
        return PathInstance(
            graph=graph,
            root=instance.root,
            p_nodes=p_up,
            q_nodes=q_up,
            p_orig=instance.p_orig[: a - 1],
            q_orig=instance.q_orig[: b - 1],
            cov=instance.cov,
            virtual_nodes=frozenset(virtuals),
        )

    def _build_down(
        self, instance: PathInstance, a: int, b: int,
        crosses: list[tuple[int, int, float]],
    ) -> PathInstance | None:
        """Cut-equivalent G_down: P edges a+1..k, Q edges b+1..l (Lemma 23).

        Cross edges not entirely below the split contribute nothing to the
        surviving pair covers and are dropped (their ``Cov(e)`` part is
        carried); a fresh virtual root replaces everything above.
        """
        k = len(instance.p_nodes)
        l = len(instance.q_nodes)
        if a >= k or b >= l:
            return None
        p_down = instance.p_nodes[a:]
        q_down = instance.q_nodes[b:]
        root = ("__path_root__", id(instance), a, b)
        graph = assemble(
            [root, *p_down, *q_down],
            chains(root, (p_down, q_down)),
            (
                (p_down[pu - a], q_down[qv - b], weight)
                for pu, qv, weight in crosses
                if pu >= a and qv >= b
            ),
        )
        kept = set(p_down) | set(q_down)
        virtuals = (instance.virtual_nodes & kept) | {root}
        return PathInstance(
            graph=graph,
            root=root,
            p_nodes=p_down,
            q_nodes=q_down,
            p_orig=instance.p_orig[a:],
            q_orig=instance.q_orig[b:],
            cov=instance.cov,
            virtual_nodes=frozenset(virtuals),
        )

    # ------------------------------------------------------------------
    def _solve(
        self, instance: PathInstance, depth: int, leaves: LeafBatch
    ) -> Deferred | None:
        k = len(instance.p_nodes)
        l = len(instance.q_nodes)
        if k == 0 or l == 0:
            return None
        self.stats.instances += 1
        self.stats.max_depth = max(self.stats.max_depth, depth)
        crosses = instance.cross_edges()

        with self.acct.virtual_overhead(len(instance.virtual_nodes)):
            # Base case: scan every edge of the shorter path (Lemma 21),
            # in the leaf batch.
            if min(k, l) <= BASE_CASE_EDGES:
                self.stats.base_cases += 1
                for _ in range(min(k, l)):
                    self._charge_scan(instance)
                return leaves.path_scans(instance, crosses)

            # Separable instance: solve without recursion (Lemma 22).
            self.acct.charge(1, "path-to-path:separability-check")
            if self._is_separable(instance, crosses):
                self.stats.separable_solved += 1
                return join([self._solve_separable(instance, crosses)])

            # Monge step: midpoint, best response, counter-best-response.
            a = k // 2
            candidates = self._scan_candidates(instance, crosses, a, "p")
            best_a = best_candidate(candidates)
            b = instance.q_orig.index(best_a.edges[1]) + 1
            candidates.extend(self._scan_candidates(instance, crosses, b, "q"))

            up = self._build_up(instance, a, b, crosses)
            down = self._build_down(instance, a, b, crosses)

        results = [best_candidate(candidates)]
        with self.acct.parallel() as par:
            if up is not None:
                with par.branch():
                    results.append(self._solve(up, depth + 1, leaves))
            if down is not None:
                with par.branch():
                    results.append(self._solve(down, depth + 1, leaves))
        return join(results)


def solve_path_to_path(
    instance: PathInstance, accountant: RoundAccountant | None = None
) -> CutCandidate | None:
    """Theorem 19 entry point: best 2-respecting pair across the two paths."""
    solver = PathToPathSolver(accountant)
    return solver.solve(instance)
