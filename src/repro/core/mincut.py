"""Exact weighted min-cut, end to end (paper Theorem 1).

Pipeline: pack Θ(log n) spanning trees (Theorem 12), compute the best 1-/2-
respecting cut per tree (Theorems 18 and 40), take the global minimum, and
materialise the witness (node bipartition + crossing edges).  Reported
alongside: the accumulated Minor-Aggregation round charges and the
Theorem 17 compile-down estimates for every regime of Theorem 1.

The returned value is *recomputed from the extracted partition* and checked
against the solver's candidate -- an internal consistency proof that the
reported cut really is a cut of the claimed weight.

The pipeline itself lives in the session API
(:mod:`repro.core.session`): a :class:`~repro.core.session.MinCutSolver`
bound to a :class:`~repro.core.session.SolverConfig` stages packing and
solving explicitly, dispatches through the solver registry
(:mod:`repro.core.registry` -- ``minor-aggregation``, ``oracle``,
``stoer-wagner``, ``karger``, plus anything registered at run time), and
batches whole sweeps via
:func:`~repro.core.session.minimum_cut_many`.  :func:`minimum_cut` here
is the historical one-shot spelling, kept as a thin wrapper over a
default session -- bit-identical results (value, witness, partition, and
round ledger) to the pre-session implementation.

A networkx input is converted once, where it enters, with
:meth:`CSRGraph.from_networkx <repro.graphs.csr.CSRGraph.from_networkx>`;
from there on every stage -- packing, one shared array extraction, the
registered solvers and the witness -- runs on the
:class:`~repro.graphs.csr.CSRGraph`, and results name the input's node
labels.  A networkx graph and its CSR conversion therefore return
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from repro.accounting import RoundAccountant
from repro.core.cut_values import CutCandidate
from repro.core.tree_packing import TreePacking
from repro.graphs.csr import CSRGraph
from repro.ma.simulation import CongestEstimates
from repro.trees.rooted import Edge, edge_key

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx

Node = Hashable


@dataclass
class MinCutResult:
    """The exact minimum cut plus every measurement the benchmarks report."""

    value: float
    partition: tuple[frozenset, frozenset]
    cut_edges: list[Edge]
    candidate: CutCandidate
    best_tree_index: int
    packing: TreePacking
    ma_rounds: float
    congest: CongestEstimates | None
    solver: str
    stats: dict = field(default_factory=dict)

    @property
    def respecting_edges(self) -> tuple[Edge, ...]:
        """The 1 or 2 tree edges of the witnessing respecting cut."""
        return self.candidate.edges

    def verify(self, graph, cross_check: str | None = None):
        """Independently certify this result against its source graph.

        Delegates to :func:`repro.certify.certify_result`: the witness
        cut is re-evaluated from the raw CSR edge table (partition
        consistency, crossing weight, cut-edge set, disconnection) with
        none of the solver machinery, optionally cross-checked against a
        second registered solver.  Returns the
        :class:`~repro.certify.Certificate`.
        """
        from repro.certify import certify_result

        return certify_result(graph, self, cross_check=cross_check)


def _empty_packing(value: float) -> TreePacking:
    return TreePacking(
        tree_edge_arrays=[], sampled=False, sampling_probability=None,
        approx_cut_value=value, ma_rounds=0.0,
    )


def _two_node_cut_csr(graph: CSRGraph) -> MinCutResult:
    labels = graph.node_labels()
    off_diagonal = graph.edge_u != graph.edge_v
    value = float(graph.edge_w[off_diagonal].sum())
    crossing = [
        edge_key(labels[0], labels[1]) for _ in range(int(off_diagonal.sum()))
    ]
    candidate = CutCandidate(value=value, edges=tuple(crossing[:1]))
    return MinCutResult(
        value=value,
        partition=(frozenset([labels[0]]), frozenset([labels[1]])),
        cut_edges=crossing,
        candidate=candidate,
        best_tree_index=0,
        packing=_empty_packing(value),
        ma_rounds=0.0,
        congest=None,
        solver="trivial",
    )


def _relabel(candidate: CutCandidate, labels: list) -> CutCandidate:
    return CutCandidate(
        value=candidate.value,
        edges=tuple(edge_key(labels[u], labels[v]) for u, v in candidate.edges),
    )


def minimum_cut(
    graph: "nx.Graph | CSRGraph",
    seed: int = 0,
    solver: str = "minor-aggregation",
    num_trees: int | None = None,
    accountant: RoundAccountant | None = None,
    compute_congest: bool = True,
) -> MinCutResult:
    """Exact weighted min-cut of a connected graph (Theorem 1).

    A thin wrapper over a default :class:`~repro.core.session.MinCutSolver`
    session, kept for the historical call signature.  ``solver`` accepts
    any registered name -- ``"minor-aggregation"`` runs the paper's
    2-respecting solver per packed tree with full round accounting,
    ``"oracle"`` substitutes the centralized 2-respecting brute force
    batched over stacked kernels, ``"stoer-wagner"`` / ``"karger"`` run
    the centralized baselines -- plus anything added via
    :func:`~repro.core.registry.register_solver`.

    Migration: prefer ``MinCutSolver(SolverConfig(...)).solve(graph)``;
    the session form makes packing reuse (``solver.pack(graph)``) and
    many-graph sweeps (:func:`~repro.core.session.minimum_cut_many`)
    explicit.
    """
    from repro.core.session import MinCutSolver, SolverConfig

    config = SolverConfig(
        solver=solver,
        num_trees=num_trees,
        compute_congest=compute_congest,
    )
    return MinCutSolver(config).solve(graph, seed=seed, accountant=accountant)
