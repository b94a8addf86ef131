"""Karger's randomized contraction and Karger-Stein (Monte Carlo baselines).

Both operate on the weighted multigraph view (weight = multiplicity):
contraction picks an edge with probability proportional to its weight.  A
single contraction run succeeds with probability Ω(1/n^2); ``karger_min_cut``
amplifies by repetition, ``karger_stein_min_cut`` by the recursive
sqrt-schedule, succeeding w.h.p. with far fewer edge contractions.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx

Node = Hashable


class _ContractState:
    """Weighted adjacency with supernode membership tracking."""

    def __init__(self, graph: nx.Graph):
        self.adjacency: dict[Node, dict[Node, float]] = {
            v: {} for v in graph.nodes()
        }
        for u, v, data in graph.edges(data=True):
            if u == v:
                continue
            weight = data.get("weight", 1)
            self.adjacency[u][v] = self.adjacency[u].get(v, 0) + weight
            self.adjacency[v][u] = self.adjacency[v].get(u, 0) + weight
        self.members: dict[Node, set] = {v: {v} for v in graph.nodes()}

    def clone(self) -> "_ContractState":
        out = object.__new__(_ContractState)
        out.adjacency = {
            v: dict(neighbors) for v, neighbors in self.adjacency.items()
        }
        out.members = {v: set(m) for v, m in self.members.items()}
        return out

    def __len__(self) -> int:
        return len(self.adjacency)

    def random_edge(self, rng: random.Random) -> tuple[Node, Node]:
        total = sum(
            weight
            for v, neighbors in self.adjacency.items()
            for u, weight in neighbors.items()
            if str(u) > str(v) or (str(u) == str(v) and u != v)
        )
        threshold = rng.random() * total
        acc = 0.0
        last = None
        for v, neighbors in self.adjacency.items():
            for u, weight in neighbors.items():
                if not (str(u) > str(v) or (str(u) == str(v) and u != v)):
                    continue
                acc += weight
                last = (v, u)
                if acc >= threshold:
                    return (v, u)
        assert last is not None
        return last

    def contract(self, u: Node, v: Node) -> None:
        for neighbor, weight in self.adjacency[v].items():
            if neighbor == u:
                continue
            self.adjacency[u][neighbor] = self.adjacency[u].get(neighbor, 0) + weight
            self.adjacency[neighbor][u] = self.adjacency[u][neighbor]
            del self.adjacency[neighbor][v]
        self.adjacency[u].pop(v, None)
        del self.adjacency[v]
        self.members[u] |= self.members[v]
        del self.members[v]

    def contract_down_to(self, target: int, rng: random.Random) -> None:
        while len(self.adjacency) > target:
            u, v = self.random_edge(rng)
            self.contract(u, v)

    def cut_of_two(self) -> tuple[float, frozenset]:
        assert len(self.adjacency) == 2
        v = next(iter(self.adjacency))
        return sum(self.adjacency[v].values()), frozenset(self.members[v])


def karger_min_cut(
    graph: nx.Graph, trials: int | None = None, seed: int = 0
) -> tuple[float, tuple[frozenset, frozenset]]:
    """Repeated contraction; ``trials`` defaults to ``ceil(n^2 ln n / 8)``-ish
    capped for practicality (this is a Monte Carlo baseline, not the star)."""
    n = graph.number_of_nodes()
    if trials is None:
        trials = min(400, max(32, n * 4))
    rng = random.Random(seed)
    base = _ContractState(graph)
    all_nodes = frozenset(graph.nodes())
    best = (float("inf"), frozenset())
    for _trial in range(trials):
        state = base.clone()
        state.contract_down_to(2, rng)
        value, side = state.cut_of_two()
        if value < best[0]:
            best = (value, side)
    side = best[1]
    return best[0], (side, frozenset(all_nodes - side))


def karger_stein_min_cut(
    graph: nx.Graph, seed: int = 0, repetitions: int | None = None
) -> tuple[float, tuple[frozenset, frozenset]]:
    """Karger-Stein recursive contraction, repeated O(log n) times."""
    n = graph.number_of_nodes()
    rng = random.Random(seed)
    all_nodes = frozenset(graph.nodes())
    if repetitions is None:
        repetitions = max(4, int(math.log(max(n, 2)) ** 2 / 2))

    def recurse(state: _ContractState) -> tuple[float, frozenset]:
        size = len(state)
        if size <= 6:
            state.contract_down_to(2, rng)
            return state.cut_of_two()
        target = max(2, int(math.ceil(1 + size / math.sqrt(2))))
        first = state.clone()
        first.contract_down_to(target, rng)
        second = state
        second.contract_down_to(target, rng)
        return min(recurse(first), recurse(second), key=lambda r: r[0])

    best = (float("inf"), frozenset())
    base = _ContractState(graph)
    for _rep in range(repetitions):
        value, side = recurse(base.clone())
        if value < best[0]:
            best = (value, side)
    side = best[1]
    return best[0], (side, frozenset(all_nodes - side))
