"""Independent certification of returned min-cuts.

``minimum_cut`` already recomputes the reported value from the extracted
partition, but that check runs *inside* the pipeline, sharing its edge
arrays and its code paths.  This module is the outside auditor: given
the original graph and a :class:`~repro.core.mincut.MinCutResult`, it
re-derives everything from the raw CSR edge table with none of the
solver machinery --

* **partition consistency** -- the two sides are disjoint, non-empty,
  and cover every node;
* **value** -- the summed weight of edges crossing the partition equals
  the reported ``value``;
* **cut edges** -- the reported crossing-edge list is exactly the set
  of edges with endpoints on both sides;
* **disconnection** -- removing the crossing edges splits the graph,
  with no remaining edge joining the two sides (union-find over the
  non-crossing edges);
* optionally, **cross-check** -- a second registered solver is run on
  the same graph and must agree on the cut value (the Dinic/submodular
  cross-validation idiom: two independent algorithms agreeing on an
  optimum is a much stronger certificate than either alone).

The entry points are :func:`certify_result` /
:meth:`MinCutResult.verify() <repro.core.mincut.MinCutResult.verify>`,
the ``--certify`` CLI flag, the ``certify=`` option of
:func:`~repro.core.session.minimum_cut_many`, and the fault-injection
experiments, which certify every cut computed under injected loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CertificationError
from repro.graphs.csr import DisjointSets, as_csr
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.trees.rooted import edge_key

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.mincut import MinCutResult

__all__ = ["Certificate", "certify_cut", "certify_result"]

#: relative tolerance for value comparisons -- float sums may associate
#: differently between the pipeline and the audit (integer weights, the
#: paper's model, compare exactly well below this).
_RTOL = 1e-9


@dataclass
class Certificate:
    """Outcome of one independent cut audit."""

    ok: bool
    value: float
    recomputed_value: float | None
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    cross_solver: str | None = None
    cross_value: float | None = None

    def raise_if_failed(self) -> "Certificate":
        if not self.ok:
            raise CertificationError(
                "cut certification failed: " + "; ".join(self.failures)
            )
        return self

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "value": self.value,
            "recomputed_value": self.recomputed_value,
            "checks": dict(self.checks),
            "failures": list(self.failures),
            "cross_solver": self.cross_solver,
            "cross_value": self.cross_value,
        }


def certify_cut(
    graph,
    partition,
    value: float,
    cut_edges=None,
) -> Certificate:
    """Audit a claimed cut (partition + value [+ crossing edges]).

    Works in the graph's label space -- ``partition`` holds node labels
    for labelled graphs, dense indices otherwise, exactly as results
    report them.
    """
    with obs_trace.span("certify", value=value):
        certificate = _certify_cut(graph, partition, value, cut_edges)
    obs_metrics.counter("certify.audits").inc()
    if not certificate.ok:
        obs_metrics.counter("certify.failures").inc()
    return certificate


def _certify_cut(
    graph,
    partition,
    value: float,
    cut_edges=None,
) -> Certificate:
    csr = as_csr(graph)
    labels = csr.node_labels()
    index_of = {label: i for i, label in enumerate(labels)}
    checks: dict = {}
    failures: list[str] = []
    side_a, side_b = partition

    unknown = [v for v in side_a | side_b if v not in index_of]
    overlap = side_a & side_b
    covered = len(side_a) + len(side_b) == csr.n and not unknown
    consistent = (
        bool(side_a) and bool(side_b) and not overlap and covered and not unknown
    )
    checks["partition_consistent"] = consistent
    if not consistent:
        failures.append(
            "partition inconsistent: "
            f"|A|={len(side_a)}, |B|={len(side_b)}, n={csr.n}, "
            f"overlap={len(overlap)}, unknown={len(unknown)}"
        )
        return Certificate(
            ok=False, value=value, recomputed_value=None,
            checks=checks, failures=failures,
        )

    in_a = np.zeros(csr.n, dtype=bool)
    for label in side_a:
        in_a[index_of[label]] = True
    u, v, w = csr.edge_u, csr.edge_v, csr.edge_w
    crossing_mask = in_a[u] != in_a[v]  # self-loops never cross
    recomputed = float(w[crossing_mask].sum())
    value_ok = abs(recomputed - value) <= _RTOL * max(1.0, abs(recomputed))
    checks["value_matches"] = value_ok
    if not value_ok:
        failures.append(
            f"reported value {value} != recomputed crossing weight {recomputed}"
        )

    if cut_edges is not None:
        derived = {
            edge_key(labels[a], labels[b])
            for a, b in zip(u[crossing_mask].tolist(), v[crossing_mask].tolist())
        }
        claimed = {edge_key(a, b) for a, b in cut_edges}
        edges_ok = derived == claimed
        checks["cut_edges_match"] = edges_ok
        if not edges_ok:
            missing = len(derived - claimed)
            extra = len(claimed - derived)
            failures.append(
                f"cut-edge witness disagrees with the edge table: "
                f"{missing} crossing edge(s) unreported, {extra} reported "
                "edge(s) do not cross"
            )

    # Removing the crossing edges must disconnect A from B -- and every
    # surviving component must lie wholly inside one side.
    sets = DisjointSets(csr.n)
    keep = ~crossing_mask
    for a, b in zip(u[keep].tolist(), v[keep].tolist()):
        sets.union(a, b)
    roots_a = {sets.find(i) for i in range(csr.n) if in_a[i]}
    roots_b = {sets.find(i) for i in range(csr.n) if not in_a[i]}
    disconnects = not (roots_a & roots_b)
    checks["removal_disconnects"] = disconnects
    if not disconnects:
        failures.append(
            "removing the crossing edges does not separate the two sides"
        )

    return Certificate(
        ok=not failures,
        value=value,
        recomputed_value=recomputed,
        checks=checks,
        failures=failures,
    )


def certify_result(
    graph,
    result: "MinCutResult",
    cross_check: str | None = None,
    seed: int = 0,
) -> Certificate:
    """Audit a :class:`~repro.core.mincut.MinCutResult` against its graph.

    ``cross_check`` names a second registered solver (for example
    ``"stoer-wagner"``) to run independently on the same graph; its cut
    value must agree with the result's.
    """
    certificate = certify_cut(
        graph, result.partition, result.value, cut_edges=result.cut_edges
    )
    if cross_check is not None and certificate.checks.get("partition_consistent"):
        from repro.core.session import MinCutSolver, SolverConfig

        with obs_trace.span("certify.cross_check", solver=cross_check):
            other = MinCutSolver(
                SolverConfig(solver=cross_check, compute_congest=False)
            ).solve(graph, seed=seed)
        agree = abs(other.value - result.value) <= _RTOL * max(
            1.0, abs(other.value)
        )
        certificate.cross_solver = cross_check
        certificate.cross_value = other.value
        certificate.checks["cross_solver_agrees"] = agree
        if not agree:
            certificate.failures.append(
                f"cross-check solver {cross_check!r} found value "
                f"{other.value}, result claims {result.value}"
            )
            certificate.ok = False
    return certificate
