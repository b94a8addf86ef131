"""The paper's primary contribution: exact min-cut via tree packing and
universally near-optimal 2-respecting min-cut (Sections 5-9).

Solver chain, bottom-up:

* :mod:`repro.core.cut_values` -- cut/cover definitions and the exact oracle.
* :mod:`repro.core.one_respecting` -- Theorem 18 (engine-genuine warm-up).
* :mod:`repro.core.path_to_path` -- Theorem 19 (Monge recursion).
* :mod:`repro.core.interest` + :mod:`repro.core.star` -- Theorem 27.
* :mod:`repro.core.subtree_instance` -- Theorem 39.
* :mod:`repro.core.general` -- Theorem 40 (centroid recursion).
* :mod:`repro.core.tree_packing` -- Theorem 12.
* :mod:`repro.core.mincut` -- Theorem 1, the end-to-end algorithm.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    ".cut_values": (
        "CutCandidate",
        "cover_values",
        "cut_matrix",
        "cut_partition",
        "pair_cover_matrix",
        "two_respecting_oracle",
    ),
    ".one_respecting": ("one_respecting_cuts", "one_respecting_min_cut"),
    ".general": ("two_respecting_min_cut",),
    ".tree_packing": ("pack_trees", "pack_trees_many"),
    ".mincut": ("MinCutResult", "minimum_cut"),
    ".session": (
        "minimum_cut_many",
        "MinCutSolver",
        "SolverConfig",
        "GraphPacking",
        "SweepFailure",
    ),
    ".registry": (
        "SolverEntry",
        "register_solver",
        "registered_solvers",
        "unregister_solver",
        "get_solver",
        "solver_descriptions",
    ),
})
