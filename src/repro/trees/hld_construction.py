"""Merge-based heavy-light decomposition construction (paper Lemma 47).

The paper builds the HLD distributedly by maintaining a partition of the
tree into parts, each with a valid internal decomposition, and merging a
constant fraction of parts per iteration via deterministic star-merging
(Lemma 44, Cole-Vishkin underneath).  O(log n) iterations suffice because
every iteration retires at least a third of the non-root parts.

This module runs that merge schedule *genuinely*: part adjacency, the
parts-point-at-parents successor structure, the star-merge partition, and
the merge bookkeeping are all executed, with the per-iteration
recomputation (two Lemma 46 tree sums, separately engine-validated in
:mod:`repro.trees.sums`) charged at its documented cost.  The final
decomposition provably equals the direct one, which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accounting import RoundAccountant, log2ceil
from repro.trees.hld import HeavyLightDecomposition
from repro.trees.rooted import RootedTree
from repro.trees.star_merge import star_merge


@dataclass
class HLDConstructionResult:
    hld: HeavyLightDecomposition
    iterations: int
    ma_rounds: float
    #: number of parts after each merge iteration (starts at n)
    part_counts: list[int] = field(default_factory=list)


def build_hld_distributed(
    tree: RootedTree,
    accountant: RoundAccountant | None = None,
) -> HLDConstructionResult:
    """Lemma 47: construct the heavy-light decomposition by star-merging.

    Each iteration: every non-root part marks its parent edge in the
    contracted minor ``T / P``, star-merging splits the parts into joiners
    and receivers (Cole-Vishkin rounds counted), joiners merge into their
    parents, and the merged parts recompute their internal labels (charged
    as two Lemma 46 sums).  Terminates when one part remains.
    """
    acct = accountant or RoundAccountant()
    n = len(tree)
    max_iterations = 8 * log2ceil(n) + 8
    part_counts, iterations = _merge_schedule(tree, acct, max_iterations)

    # The final recomputation is with respect to the full tree, so the
    # result coincides with the direct decomposition.
    hld = HeavyLightDecomposition(tree)
    return HLDConstructionResult(
        hld=hld,
        iterations=iterations,
        ma_rounds=acct.total,
        part_counts=part_counts,
    )


def _merge_schedule(
    tree: RootedTree, acct: RoundAccountant, max_iterations: int
) -> tuple[list[int], int]:
    """The merge schedule, bookkept in the tree's BFS index space.

    Part membership lives in a flat array (one vectorized assignment
    relabels a whole merged part) and the parent/depth lookups are lists
    over ``tree.order``.  The parts handed to :func:`star_merge` keep
    their *node-object* identifiers, so the Cole-Vishkin coloring -- and
    with it the schedule, the iteration count, and the charged rounds --
    is bit-identical to the historical dict-based loop.
    """
    nodes = tree.order
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    # Index 0 is the root; its entry in ``parent`` is never read.
    parent = [0] + [index[tree.parent[node]] for node in nodes[1:]]
    depth = [tree.depth[node] for node in nodes]
    part_of = np.arange(n, dtype=np.int64)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    #: shallowest node of each part (parts stay connected subtrees of T)
    top_of: dict[int, int] = {i: i for i in range(n)}
    part_counts = [n]
    iterations = 0

    while len(members) > 1 and iterations < max_iterations:
        # Index 0 is the root (BFS order), whose part has no parent edge.
        successor_idx: dict[int, int | None] = {
            pid: int(part_of[parent[top]]) if top != 0 else None
            for pid, top in top_of.items()
        }
        successor = {
            nodes[pid]: nodes[succ] if succ is not None else None
            for pid, succ in successor_idx.items()
        }
        acct.charge(1, "hld-construction:mark")

        merge = star_merge(successor)
        acct.charge(merge.rounds, "hld-construction:star-merge")
        assert 3 * len(merge.joiners) >= sum(
            1 for s in successor_idx.values() if s is not None
        ), "Lemma 44 joiner fraction violated"

        for joiner_node in merge.joiners:
            joiner = index[joiner_node]
            target = successor_idx[joiner]
            absorbed = members.pop(joiner)
            part_of[absorbed] = target
            members[target].extend(absorbed)
            if depth[top_of[joiner]] < depth[top_of[target]]:
                top_of[target] = top_of[joiner]
            del top_of[joiner]

        acct.charge(
            2 * acct.cost.subtree_sum(n), "hld-construction:recompute"
        )
        iterations += 1
        part_counts.append(len(members))

    if len(members) > 1:  # pragma: no cover - the fraction bound forbids it
        raise AssertionError("merge schedule failed to converge")
    return part_counts, iterations
