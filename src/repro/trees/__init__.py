"""Tree substrates: rooted trees, heavy-light decomposition, deterministic
primitives (Cole-Vishkin coloring, star-merging, prefix/subtree/ancestor
sums), and centroid finding (paper Sections 3.1, 4.2 and Appendix A)."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    ".rooted": ("RootedTree", "edge_key"),
    ".hld": ("HeavyLightDecomposition", "HLInfo", "lca_from_hl_info"),
})
