"""Workload generators and the CSR weighted-graph core.

Every generator family is built CSR-first: ``csr_<family>`` returns the
canonical :class:`~repro.graphs.csr.CSRGraph` (flat indptr/indices/weights
arrays, vectorized weight draw), and the networkx-returning function of the
same name is a boundary wrapper over ``to_networkx()`` -- the same weighted
graph, edge for edge.  Edges carry integer weights in ``[1, poly(n)]`` (the
paper's weight model, Section 3 "Graphs").
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    ".csr": ("CSRGraph", "validate_weights"),
    ".generators": (
        "CSR_FAMILY_BUILDERS",
        "assign_random_weights",
        "barbell_graph",
        "csr_barbell_graph",
        "csr_cycle_graph",
        "csr_delaunay_planar_graph",
        "csr_expander_graph",
        "csr_grid_graph",
        "csr_planted_cut_graph",
        "csr_random_connected_gnm",
        "csr_tree_plus_chords",
        "csr_triangulated_grid_graph",
        "cycle_graph",
        "delaunay_planar_graph",
        "expander_graph",
        "grid_graph",
        "planted_cut_graph",
        "random_connected_gnm",
        "random_spanning_tree",
        "tree_plus_chords",
        "triangulated_grid_graph",
    ),
})
