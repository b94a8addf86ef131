"""E3 -- Theorem 12: tree packing.

Claim: a Θ(log n)-size packing such that w.h.p. the minimum cut 2-respects
at least one packed tree; Karger sampling handles large min-cut values.
Measured: success rate across seeds and families, packing sizes vs log n,
and the sampled regime firing on heavy graphs.
"""

from __future__ import annotations

import math

from repro.baselines import stoer_wagner_min_cut
from repro.core.tree_packing import pack_trees
from repro.experiments.common import ExperimentResult
from repro.graphs import planted_cut_graph, random_connected_gnm


def _crossings(tree, side) -> int:
    return sum(1 for u, v in tree if (u in side) != (v in side))


def run(quick: bool = True) -> ExperimentResult:
    seeds = range(10) if quick else range(30)
    rows = []
    successes = 0
    total = 0
    for seed in seeds:
        graph = random_connected_gnm(28, 70, seed=seed + 1000, weight_high=25)
        value, (side, _other) = stoer_wagner_min_cut(graph)
        packing = pack_trees(graph, seed=seed)
        best = min(_crossings(t, side) for t in packing.trees)
        ok = best <= 2
        successes += ok
        total += 1
        if seed < 6:
            rows.append(
                {
                    "instance": f"gnm-28-70 seed {seed}",
                    "min_cut": value,
                    "trees": len(packing.trees),
                    "log2_n": round(math.log2(28), 1),
                    "min_crossings": best,
                    "2-respected": ok,
                    "sampled": packing.sampled,
                }
            )

    # Heavy-weight instance: the Karger sampling regime must fire and the
    # property must still hold.
    heavy = planted_cut_graph(
        10, 12, cross_edges=5, cross_weight=300, inside_weight=3000, seed=5
    )
    left, _right = heavy.graph["planted_partition"]
    heavy_packing = pack_trees(heavy, seed=5)
    heavy_best = min(_crossings(t, left) for t in heavy_packing.trees)
    rows.append(
        {
            "instance": "planted heavy (sampling regime)",
            "min_cut": heavy.graph["planted_cut_value"],
            "trees": len(heavy_packing.trees),
            "log2_n": round(math.log2(len(heavy)), 1),
            "min_crossings": heavy_best,
            "2-respected": heavy_best <= 2,
            "sampled": heavy_packing.sampled,
        }
    )
    rate = successes / total
    return ExperimentResult(
        experiment="E3 tree packing (Thm 12)",
        paper_claim="Θ(log n) trees; min-cut 2-respects one of them w.h.p.",
        rows=rows,
        observed=(
            f"success rate {successes}/{total} = {rate:.0%}; heavy instance "
            f"sampled={heavy_packing.sampled}, crossings={heavy_best}"
        ),
        holds=rate == 1.0 and heavy_packing.sampled and heavy_best <= 2,
    )
