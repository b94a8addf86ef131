"""Theorem 17: compiling Minor-Aggregation rounds down to CONGEST.

A tau-round Minor-Aggregation algorithm simulates in CONGEST at a per-round
cost equal to the cost of solving the part-wise aggregation problem, which
is what low-congestion shortcuts provide:

* general graphs:            tau * Õ(D + sqrt(n))      (deterministic) [GH16]
* excluded-minor graphs:     tau * Õ(D)                (deterministic) [GH21]
* known topology:            tau * Õ(SQ(G))            (randomized)    [HWZ21]
* mixing-time 2^O(sqrt(log n)): tau * 2^O(sqrt(log n)) (randomized)    [GKS17]

This module is the explicit-constant calculator for those conversions: the
"universal optimality" experiments report these derived CONGEST round counts
next to the measured Minor-Aggregation rounds.  Constants are configurable
and documented; the paper's claims are about growth rates, so benchmarks
compare *shapes* (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx

from repro.accounting import log2ceil


@dataclass(frozen=True)
class CongestEstimates:
    """Per-regime CONGEST round estimates for one MA algorithm execution."""

    ma_rounds: float
    n: int
    diameter: int
    general: float
    excluded_minor: float
    known_topology: float
    mixing: float

    def as_dict(self) -> dict[str, float]:
        return {
            "ma_rounds": self.ma_rounds,
            "general": self.general,
            "excluded_minor": self.excluded_minor,
            "known_topology": self.known_topology,
            "mixing": self.mixing,
        }


def expected_transport_overhead(drop_rate: float) -> float:
    """Expected physical-per-logical round blowup of the retry transport.

    A stop-and-wait exchange completes only when the data frame *and*
    its ack both survive, each independently with probability
    ``1 - p`` -- so the expected number of physical attempts per
    delivered logical round is ``1 / (1 - p)^2``.  The sliding-window
    transport in :mod:`repro.congest.network` pipelines away most of
    the ack latency, so this is the *upper* curve the measured overhead
    of E16 is compared against (measured values sit between 1 and this
    bound for absorbable drop rates, with go-back-N gap recovery adding
    a topology-dependent constant).
    """
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError(
            f"drop_rate must be in [0, 1) for a finite overhead, got {drop_rate}"
        )
    return 1.0 / ((1.0 - drop_rate) ** 2)


def faulty_congest_estimates(
    estimates: CongestEstimates, drop_rate: float
) -> CongestEstimates:
    """Theorem 17 estimates scaled by the expected retry overhead.

    Every CONGEST regime pays the same per-round transport blowup under
    i.i.d. link loss, so the conversion is a uniform multiplier on the
    compiled round counts (the MA round count itself is unchanged --
    loss is a physical-layer phenomenon).
    """
    factor = expected_transport_overhead(drop_rate)
    return CongestEstimates(
        ma_rounds=estimates.ma_rounds,
        n=estimates.n,
        diameter=estimates.diameter,
        general=estimates.general * factor,
        excluded_minor=estimates.excluded_minor * factor,
        known_topology=estimates.known_topology * factor,
        mixing=estimates.mixing * factor,
    )


def general_simulation_cost(n: int, diameter: int) -> float:
    """Per-MA-round CONGEST cost on a general graph: Õ(D + sqrt(n))."""
    return (diameter + math.sqrt(n)) * log2ceil(n)


def excluded_minor_simulation_cost(n: int, diameter: int) -> float:
    """Per-MA-round CONGEST cost on an excluded-minor graph: Õ(D)."""
    return diameter * log2ceil(n) ** 2


def known_topology_simulation_cost(n: int, shortcut_quality: float) -> float:
    """Per-MA-round CONGEST cost with known topology: Õ(SQ(G))."""
    return shortcut_quality * log2ceil(n)


def mixing_simulation_cost(n: int) -> float:
    """Per-MA-round CONGEST cost on well-connected graphs: 2^O(sqrt(log n))."""
    return 2 ** math.sqrt(log2ceil(n))


def congest_estimates(
    ma_rounds: float,
    graph=None,
    n: int | None = None,
    diameter: int | None = None,
    shortcut_quality: float | None = None,
) -> CongestEstimates:
    """All Theorem 17 conversions for one execution.

    Either pass the ``graph`` -- networkx or a
    :class:`~repro.graphs.csr.CSRGraph` (n and diameter are computed, the
    latter by a bit-parallel all-sources BFS, once per graph) -- or pass
    ``n`` and ``diameter``
    directly.  ``shortcut_quality`` defaults to the existential
    ``D + sqrt(n)`` bound of [GH16].
    """
    if graph is not None:
        from repro.graphs.csr import CSRGraph

        if isinstance(graph, CSRGraph):
            n = graph.n
            if diameter is None:
                diameter = graph.diameter()
        else:
            n = graph.number_of_nodes()
            if diameter is None:
                diameter = nx.diameter(graph)
    if n is None or diameter is None:
        raise ValueError("need a graph, or both n and diameter")
    if shortcut_quality is None:
        shortcut_quality = diameter + math.sqrt(n)
    return CongestEstimates(
        ma_rounds=ma_rounds,
        n=n,
        diameter=diameter,
        general=ma_rounds * general_simulation_cost(n, diameter),
        excluded_minor=ma_rounds * excluded_minor_simulation_cost(n, diameter),
        known_topology=ma_rounds * known_topology_simulation_cost(n, shortcut_quality),
        mixing=ma_rounds * mixing_simulation_cost(n),
    )
