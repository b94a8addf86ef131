#!/usr/bin/env python3
"""Inside the algorithm: tree packing and 2-respecting cuts (Theorem 12).

Karger's framework splits exact min-cut into (a) packing Θ(log n) spanning
trees such that the min-cut crosses one of them at most twice, and (b) for
each tree, finding the best cut that 2-respects it.  This demo makes the
machinery visible: it packs trees via Boruvka in the Minor-Aggregation
engine, reports how often each tree is crossed by the true min-cut, and
shows the witness pair of tree edges the 2-respecting solver finds.

Run:  python examples/tree_packing_demo.py
"""

import repro
from repro.baselines import stoer_wagner_min_cut
from repro.graphs import random_connected_gnm


def main() -> None:
    graph = random_connected_gnm(40, 110, seed=21, weight_high=25)
    value, (side, _other) = stoer_wagner_min_cut(graph)
    print(f"graph n={graph.number_of_nodes()} m={graph.number_of_edges()}, "
          f"true min-cut = {value}")

    packing = repro.pack_trees(graph, seed=21)
    print(f"\npacked {len(packing.trees)} trees "
          f"(sampled={packing.sampled}, "
          f"boruvka rounds charged={packing.ma_rounds:,.0f})")

    crossings = []
    for index, tree in enumerate(packing.trees):
        crossed = sum(1 for u, v in tree if (u in side) != (v in side))
        crossings.append(crossed)
        marker = " <-- 2-respects the min-cut" if crossed <= 2 else ""
        print(f"  tree {index:2d}: min-cut crosses {crossed} edges{marker}")
    assert min(crossings) <= 2, "Theorem 12 property violated!"

    result = repro.minimum_cut(graph, seed=21)
    print(f"\n2-respecting solver found value {result.value} on tree "
          f"#{result.best_tree_index}")
    print(f"witness tree edges: {result.respecting_edges}")
    rooted = packing.rooted_tree(result.best_tree_index, root=0)
    for edge in result.respecting_edges:
        print(f"  {edge}: subtree below has "
              f"{len(rooted.subtree_nodes(rooted.bottom(edge)))} nodes")
    assert abs(result.value - value) < 1e-9


if __name__ == "__main__":
    main()
