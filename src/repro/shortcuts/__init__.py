"""Low-congestion shortcuts (paper Section 1, "Detour to low-congestion
shortcuts and shortcut quality").

Shortcut quality ``SQ(G)`` is both the cost of simulating one
Minor-Aggregation round in CONGEST (Theorem 17) and a universal lower bound
for min-cut (Haeupler-Wajc-Zuzic).  This package provides an empirical
upper-bound *constructor* (greedy BFS-based shortcuts, measuring achieved
congestion + dilation for a concrete partition) and the part-wise
aggregation primitive those shortcuts accelerate.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    ".quality": (
        "ShortcutAssignment",
        "greedy_shortcuts",
        "random_connected_partition",
        "shortcut_quality_upper_bound",
    ),
    ".partwise": ("partwise_aggregation_rounds",),
})
