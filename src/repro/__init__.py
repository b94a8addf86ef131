"""repro -- Universally-Optimal Distributed Exact Min-Cut (PODC 2022).

A full reproduction of Ghaffari & Zuzic's aggregation-based exact min-cut:
the Minor-Aggregation model with virtual nodes, the deterministic tree
primitives of Appendix A, the 2-respecting solver chain (path-to-path, star,
between-subtree, general), Karger-style tree packing, compile-down cost
models to CONGEST, and the baselines they are measured against.

Quickstart (the session API)::

    import repro
    from repro.graphs import csr_random_connected_gnm

    config = repro.SolverConfig(solver="oracle")
    solver = repro.MinCutSolver(config)

    G = csr_random_connected_gnm(60, 150, seed=1)
    result = solver.solve(G, seed=1)
    print(result.value, result.ma_rounds)

Sessions are staged and reusable: ``solver.pack(G)`` returns a packing
handle whose Theorem 12 tree packing can be solved under several solver
names (or re-solved with fresh accountants) without repacking, and
``repro.minimum_cut_many(graphs, config)`` pushes whole sweeps through
one batched pipeline (concatenated-table packing, stacked BFS/Euler
kernels, chunked stacked-tensor oracle) with results bit-identical to a
per-graph loop::

    packed = solver.pack(G, seed=1)
    a = packed.solve("oracle")
    b = packed.solve("minor-aggregation")   # same packing, full accounting

    sweep = repro.minimum_cut_many(
        [csr_random_connected_gnm(60, 150, seed=s) for s in range(50)],
        config, seeds=range(50),
    )

Solvers live in a registry (``minor-aggregation``, ``oracle``, and the
first-class ``stoer-wagner`` / ``karger`` baselines); add your own with
``repro.register_solver(name, fn)`` and it becomes reachable from the
session API and the CLI's ``--solver`` flag alike.

Migration note: the legacy one-shot call ``repro.minimum_cut(G, seed=1,
solver="oracle")`` keeps working -- it is a thin wrapper over a default
session and returns bit-identical results (value, witness, partition,
round ledger).  The networkx boundary stays supported too:
``random_connected_gnm`` returns the same weighted graph as a
``networkx.Graph`` and every entry point accepts either type.
"""

from repro.accounting import CostModel, RoundAccountant
from repro.certify import Certificate, certify_cut, certify_result
from repro.errors import (
    BudgetExceeded,
    CandidateBelowMinCutError,
    CertificationError,
    FaultPlanError,
    GraphValidationError,
    NumericalRangeError,
    PackingError,
    ReproError,
    SolverError,
    TransportTimeout,
)
from repro.faults import FaultPlan
from repro.graphs import CSRGraph
from repro.core import (
    CutCandidate,
    GraphPacking,
    MinCutResult,
    MinCutSolver,
    SolverConfig,
    SweepFailure,
    minimum_cut,
    minimum_cut_many,
    one_respecting_cuts,
    one_respecting_min_cut,
    pack_trees,
    pack_trees_many,
    register_solver,
    registered_solvers,
    solver_descriptions,
    two_respecting_min_cut,
    two_respecting_oracle,
    unregister_solver,
)
from repro.kernel import TreeKernel
from repro.ma import MinorAggregationEngine, congest_estimates

__version__ = "1.3.0"

__all__ = [
    "CSRGraph",
    "FaultPlan",
    "Certificate",
    "certify_cut",
    "certify_result",
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
    "SweepFailure",
    "TreeKernel",
    "CostModel",
    "RoundAccountant",
    "CutCandidate",
    "MinCutResult",
    "MinCutSolver",
    "SolverConfig",
    "GraphPacking",
    "minimum_cut",
    "minimum_cut_many",
    "register_solver",
    "registered_solvers",
    "unregister_solver",
    "solver_descriptions",
    "one_respecting_cuts",
    "one_respecting_min_cut",
    "pack_trees",
    "pack_trees_many",
    "two_respecting_min_cut",
    "two_respecting_oracle",
    "MinorAggregationEngine",
    "congest_estimates",
    "__version__",
]
