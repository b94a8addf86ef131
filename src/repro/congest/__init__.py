"""The CONGEST message-passing model (paper Section 1, "Model").

A synchronous network of nodes exchanging O(log n)-bit messages per edge per
round.  :class:`~repro.congest.network.CongestNetwork` executes node
programs round by round, counts rounds, and audits message sizes;
:mod:`repro.congest.algorithms` provides the classic building blocks (BFS
tree, broadcast, convergecast, leader election) plus the naive
collect-at-a-leader exact min-cut baseline the paper's algorithms are
compared against.

Runs optionally execute under an injected :class:`~repro.faults.FaultPlan`
(``network.run(..., faults=plan)``): a reliable go-back-N retry transport
re-delivers dropped/duplicated/reordered frames so the inner execution
stays bit-identical to the lossless run, with the physical-round overhead
reported on ``network.transport``.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    ".network": ("CongestNetwork", "NodeProgram", "NodeContext"),
    ".algorithms": ("bfs_tree", "broadcast", "convergecast_sum", "leader_election"),
})
