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
round ledger).

The networkx boundary stays supported: ``random_connected_gnm`` returns
the same weighted graph as a ``networkx.Graph``, and every entry point
accepts either type and converts a networkx input once with
``CSRGraph.from_networkx``.  networkx itself is imported only there:
by the functions that build, read or convert a networkx graph, never
by a CSR solve.

Cold start: ``import repro`` loads this module and nothing else (no
numpy, networkx or scipy).  Each public name below is served by the
PEP 562 ``__getattr__`` of :mod:`repro._lazy`, which imports the one
submodule that defines it on first access and caches it here, so a CSR
``oracle`` solve loads only the modules it runs.
"""

from repro import _lazy

__version__ = "1.3.0"

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    ".graphs.csr": ("CSRGraph",),
    ".faults": ("FaultPlan",),
    ".certify": ("Certificate", "certify_cut", "certify_result"),
    ".errors": (
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
    ),
    ".core.session": (
        "SweepFailure",
        "MinCutSolver",
        "SolverConfig",
        "GraphPacking",
        "minimum_cut_many",
    ),
    ".kernel.tree_kernel": ("TreeKernel",),
    ".accounting": ("CostModel", "RoundAccountant"),
    ".core.cut_values": ("CutCandidate", "two_respecting_oracle"),
    ".core.mincut": ("MinCutResult", "minimum_cut"),
    ".core.registry": (
        "register_solver",
        "registered_solvers",
        "unregister_solver",
        "solver_descriptions",
    ),
    ".core.one_respecting": ("one_respecting_cuts", "one_respecting_min_cut"),
    ".core.tree_packing": ("pack_trees", "pack_trees_many"),
    ".core.general": ("two_respecting_min_cut",),
    ".ma.engine": ("MinorAggregationEngine",),
    ".ma.simulation": ("congest_estimates",),
})
__all__ += ["__version__"]
