"""Reference oracles: the centralized computations everything is tested against."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.cut_values import CutCandidate, two_respecting_oracle
from repro.trees.rooted import RootedTree

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx


def reference_two_respecting(
    graph: nx.Graph, tree: nx.Graph | RootedTree, root=None
) -> CutCandidate:
    """Exact min over all 1-/2-respecting cuts of (G, T), brute force."""
    if isinstance(tree, RootedTree):
        rooted = tree
    else:
        if root is None:
            root = min(tree.nodes(), key=lambda v: (type(v).__name__, str(v)))
        rooted = RootedTree(tree, root)
    return two_respecting_oracle(graph, rooted)


def exact_min_cut_reference(graph: nx.Graph) -> float:
    """Exact min-cut value, cross-checked between our Stoer-Wagner and
    networkx's implementation (belt and braces for the test suite)."""
    import networkx as nx

    from repro.baselines.stoer_wagner import stoer_wagner_min_cut

    ours, _partition = stoer_wagner_min_cut(graph)
    theirs, _cut = nx.stoer_wagner(graph)
    if abs(ours - theirs) > 1e-6:
        raise AssertionError(
            f"Stoer-Wagner implementations disagree: {ours} vs {theirs}"
        )
    return ours
