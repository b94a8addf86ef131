"""Certification, the typed error taxonomy, and resilient sessions."""

from __future__ import annotations

import json
import random

import pytest

import repro
from repro.certify import certify_cut, certify_result
from repro.cli import main
from repro.errors import (
    BudgetExceeded,
    CertificationError,
    GraphValidationError,
    NumericalRangeError,
    PackingError,
    ReproError,
    SolverError,
)
from repro.graphs import (
    CSR_FAMILY_BUILDERS,
    CSRGraph,
    csr_random_connected_gnm,
    random_connected_gnm,
)


def _disconnected_csr() -> CSRGraph:
    return CSRGraph(4, [0, 2], [1, 3], [1.0, 1.0])


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_hierarchy(self):
        # The input-shaped errors stay catchable as ValueError (the
        # pre-taxonomy contract); runtime failures are RuntimeErrors.
        assert issubclass(GraphValidationError, ValueError)
        assert issubclass(SolverError, ValueError)
        assert issubclass(BudgetExceeded, RuntimeError)
        assert issubclass(PackingError, RuntimeError)
        assert issubclass(CertificationError, RuntimeError)
        for exc in (GraphValidationError, SolverError, BudgetExceeded,
                    PackingError, CertificationError):
            assert issubclass(exc, ReproError)

    def test_validation_messages_are_actionable(self):
        with pytest.raises(GraphValidationError, match="2 connected"):
            repro.minimum_cut(_disconnected_csr())
        with pytest.raises(GraphValidationError, match="got a graph with 1"):
            repro.minimum_cut(CSRGraph(1, [], [], []))

    def test_networkx_and_csr_validation_agree(self):
        import networkx as nx

        nx_disc = nx.Graph()
        nx_disc.add_edge(0, 1)
        nx_disc.add_edge(2, 3)
        with pytest.raises(GraphValidationError) as from_nx:
            repro.minimum_cut(nx_disc)
        with pytest.raises(GraphValidationError) as from_csr:
            repro.minimum_cut(_disconnected_csr())
        assert str(from_nx.value) == str(from_csr.value)

    def test_unknown_solver_is_solver_error(self):
        with pytest.raises(SolverError, match="quantum"):
            repro.minimum_cut(
                random_connected_gnm(10, 18, seed=0), solver="quantum"
            )

    def test_two_node_packing_is_packing_error(self):
        two = CSRGraph(2, [0], [1], [5.0])
        packed = repro.MinCutSolver(repro.SolverConfig()).pack(two)
        assert packed.solve().value == 5.0  # trivial path still solves
        with pytest.raises(PackingError):
            packed.packing

    def test_budget_exceeded_carries_sizes(self):
        from repro.kernel.batched import _chunk_size

        with pytest.raises(BudgetExceeded) as excinfo:
            _chunk_size(100, batch_bytes=1000)
        assert excinfo.value.required_bytes > excinfo.value.budget_bytes == 1000


def _huge_weight_graph(seed: int) -> CSRGraph:
    """A connected gnm graph (n 4-10) with weights mixing 1..3 and ~1e18:
    beyond float64's exact-integer range, so prefix-sum cancellation can
    move a candidate's value far from its partition's weight."""
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    base = csr_random_connected_gnm(
        n, rng.randint(n, min(n * (n - 1) // 2, 3 * n)), seed=seed
    )
    choices = [1, 2, 3, 3 * 10**17, 10**18, 10**18 + 1]
    weights = [rng.choice(choices) for _ in range(base.m)]
    return CSRGraph(base.n, base.edge_u, base.edge_v, weights)


class TestNumericalRange:
    """Float cancellation surfaces as a typed error, not an assertion.
    (Making these cuts exact is separate work; this pins the failure mode.)"""

    def test_hierarchy_and_export(self):
        assert issubclass(NumericalRangeError, SolverError)
        assert issubclass(NumericalRangeError, ReproError)
        assert repro.NumericalRangeError is NumericalRangeError

    @pytest.mark.parametrize("solver", ["oracle", "minor-aggregation"])
    def test_inconsistent_witness_raises_typed_error(self, solver):
        with pytest.raises(NumericalRangeError) as excinfo:
            repro.minimum_cut(_huge_weight_graph(2), seed=2, solver=solver)
        error = excinfo.value
        assert error.candidate_value != error.partition_value
        message = str(error)
        assert "cut witness inconsistent" in message
        assert str(error.candidate_value) in message
        assert str(error.partition_value) in message

    @pytest.mark.parametrize("solver", ["oracle", "minor-aggregation"])
    def test_sweep_isolates_the_failure(self, solver):
        graphs = [_huge_weight_graph(2), csr_random_connected_gnm(12, 24, seed=1)]
        results = repro.minimum_cut_many(
            graphs, seeds=[2, 1], solver=solver, strict=False,
            compute_congest=False,
        )
        failure, ok = results
        assert isinstance(failure, repro.SweepFailure)
        assert failure.error == "NumericalRangeError"
        assert failure.stage == "solve"
        assert isinstance(ok, repro.MinCutResult)
        with pytest.raises(NumericalRangeError):
            repro.minimum_cut_many(graphs, seeds=[2, 1], solver=solver, strict=True)


# ----------------------------------------------------------------------
# certify_result / MinCutResult.verify
# ----------------------------------------------------------------------
class TestCertify:
    @pytest.mark.parametrize("solver", ["oracle", "minor-aggregation",
                                        "stoer-wagner", "karger"])
    def test_valid_results_certify(self, solver):
        graph = csr_random_connected_gnm(18, 36, seed=2)
        result = repro.minimum_cut(graph, seed=1, solver=solver,
                                   compute_congest=False)
        certificate = certify_result(graph, result)
        assert certificate.ok, certificate.failures
        assert certificate.recomputed_value == result.value
        assert all(certificate.checks.values())

    def test_verify_method_and_cross_check(self):
        graph = random_connected_gnm(16, 30, seed=3)
        result = repro.minimum_cut(graph, seed=0, solver="oracle",
                                   compute_congest=False)
        certificate = result.verify(graph, cross_check="stoer-wagner")
        assert certificate.ok
        assert certificate.cross_solver == "stoer-wagner"
        assert certificate.cross_value == result.value
        assert certificate.checks["cross_solver_agrees"]

    def test_tampered_value_fails(self):
        graph = csr_random_connected_gnm(14, 26, seed=4)
        result = repro.minimum_cut(graph, solver="oracle",
                                   compute_congest=False)
        bad = certify_cut(graph, result.partition, result.value + 1,
                          cut_edges=result.cut_edges)
        assert not bad.ok
        assert not bad.checks["value_matches"]
        with pytest.raises(CertificationError, match="recomputed"):
            bad.raise_if_failed()

    def test_tampered_partition_fails(self):
        graph = csr_random_connected_gnm(14, 26, seed=4)
        result = repro.minimum_cut(graph, solver="oracle",
                                   compute_congest=False)
        side_a, side_b = result.partition
        moved = next(iter(side_b))
        overlap = certify_cut(
            graph, (side_a | {moved}, side_b), result.value
        )
        assert not overlap.ok
        assert not overlap.checks["partition_consistent"]
        unknown = certify_cut(graph, (side_a | {9999}, side_b), result.value)
        assert not unknown.ok

    def test_tampered_cut_edges_fail(self):
        graph = csr_random_connected_gnm(14, 26, seed=5)
        result = repro.minimum_cut(graph, solver="oracle",
                                   compute_congest=False)
        bad = certify_cut(graph, result.partition, result.value,
                          cut_edges=result.cut_edges[:-1] or [(0, 1)])
        assert not bad.ok
        assert not bad.checks["cut_edges_match"]

    def test_certificate_round_trips_to_json(self):
        graph = csr_random_connected_gnm(12, 22, seed=6)
        result = repro.minimum_cut(graph, solver="oracle",
                                   compute_congest=False)
        payload = json.loads(json.dumps(certify_result(graph, result).as_dict()))
        assert payload["ok"] is True

    def test_labelled_graph_certifies_in_label_space(self):
        labelled = CSRGraph.from_edge_list(
            [("a", "b", 2), ("b", "c", 3), ("c", "a", 1), ("c", "d", 4),
             ("d", "a", 2)]
        )
        result = repro.minimum_cut(labelled, solver="oracle",
                                   compute_congest=False)
        assert certify_result(labelled, result).ok


# ----------------------------------------------------------------------
# Degradation: pinned budgets fall back to per-tree solves
# ----------------------------------------------------------------------
class TestDegradation:
    def test_oracle_degrades_bit_identically(self):
        graph = csr_random_connected_gnm(20, 40, seed=7)
        full = repro.MinCutSolver(
            repro.SolverConfig(solver="oracle", compute_congest=False)
        ).solve(graph, seed=1)
        tight = repro.MinCutSolver(
            repro.SolverConfig(solver="oracle", compute_congest=False,
                               batch_bytes=10_000)
        ).solve(graph, seed=1)
        assert "degraded" not in full.stats
        assert tight.stats["degraded"]["to"] == "per-tree-oracle"
        assert tight.value == full.value
        assert tight.partition == full.partition
        assert tight.candidate == full.candidate

    def test_generous_budget_does_not_degrade(self):
        graph = csr_random_connected_gnm(16, 30, seed=8)
        result = repro.MinCutSolver(
            repro.SolverConfig(solver="oracle", batch_bytes=1 << 26,
                               compute_congest=False)
        ).solve(graph)
        assert "degraded" not in result.stats

    def test_sweep_budget_chain(self, monkeypatch):
        """A pinned budget too small for the fused sweep: it raises
        BudgetExceeded, each graph is re-solved by its own session on the
        sweep's packing (no graph is packed twice), and the graphs whose
        one stacked tree needs more than the budget (32 * (n + 1)**2
        bytes) fall back to per-tree solves."""
        from repro.core import session as session_module

        sizes = [12, 16, 20, 24, 28, 36, 48]
        graphs = [
            CSR_FAMILY_BUILDERS[family](n, seed)
            for n in sizes
            for seed, family in enumerate(("gnm", "cycle", "planted"))
        ]
        seeds = list(range(len(graphs)))
        config = repro.SolverConfig(solver="oracle", compute_congest=False)
        full = repro.minimum_cut_many(graphs, config, seeds=seeds)
        calls = []
        for name in ("pack_trees", "pack_trees_many"):
            original = getattr(session_module, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(session_module, name, spy)
        tight = repro.minimum_cut_many(
            graphs, config.replace(batch_bytes=20_000), seeds=seeds
        )
        assert calls == ["pack_trees_many"]
        for graph, a, b in zip(graphs, full, tight):
            assert "degraded" not in a.stats
            assert float(b.value).hex() == float(a.value).hex()
            assert b.partition == a.partition
            assert b.cut_edges == a.cut_edges
            assert b.candidate == a.candidate
            assert b.best_tree_index == a.best_tree_index
            assert b.stats["accountant"] == a.stats["accountant"]
            fits = 32 * (graph.n + 1) ** 2 <= 20_000
            assert b.stats["degraded"]["to"] == (
                "per-graph-session" if fits else "per-tree-oracle"
            )
        kinds = {result.stats["degraded"]["to"] for result in tight}
        assert kinds == {"per-graph-session", "per-tree-oracle"}


# ----------------------------------------------------------------------
# minimum_cut_many: per-graph isolation
# ----------------------------------------------------------------------
class TestSweepIsolation:
    def _mixed_graphs(self):
        return [
            csr_random_connected_gnm(14, 26, seed=0),
            _disconnected_csr(),                      # invalid: disconnected
            CSR_FAMILY_BUILDERS["cycle"](10, 1),
            CSRGraph(1, [], [], []),                  # invalid: one node
        ]

    def test_failures_are_isolated_records(self):
        graphs = self._mixed_graphs()
        results = repro.minimum_cut_many(
            graphs, repro.SolverConfig(solver="oracle"), certify=True
        )
        assert len(results) == len(graphs)
        ok = [r for r in results if isinstance(r, repro.MinCutResult)]
        bad = [r for r in results if isinstance(r, repro.SweepFailure)]
        assert len(ok) == 2 and len(bad) == 2
        for result in ok:
            assert result.stats["certificate"]["ok"]
        for failure in bad:
            assert failure.stage == "validate"
            assert failure.error == "GraphValidationError"
            assert not failure.ok
            json.dumps(failure.as_dict())  # structured + serializable

    def test_valid_graphs_unchanged_by_failing_neighbors(self):
        graphs = self._mixed_graphs()
        mixed = repro.minimum_cut_many(
            graphs, repro.SolverConfig(solver="oracle")
        )
        alone = repro.minimum_cut(graphs[0], solver="oracle")
        assert mixed[0].value == alone.value
        assert mixed[0].partition == alone.partition

    def test_strict_restores_raising(self):
        with pytest.raises(GraphValidationError):
            repro.minimum_cut_many(
                self._mixed_graphs(), repro.SolverConfig(solver="oracle"),
                strict=True,
            )

    def test_seed_mismatch_and_unknown_solver_always_raise(self):
        graphs = [csr_random_connected_gnm(10, 18, seed=0)]
        with pytest.raises(ValueError):
            repro.minimum_cut_many(graphs, seeds=[1, 2])
        with pytest.raises(SolverError):
            repro.minimum_cut_many(graphs, solver="nope")

    def test_isolation_on_networkx_solver_path(self):
        import networkx as nx

        disc = nx.Graph()
        disc.add_edge(0, 1)
        disc.add_edge(2, 3)
        graphs = [random_connected_gnm(12, 22, seed=1), disc]
        results = repro.minimum_cut_many(
            graphs, repro.SolverConfig(solver="stoer-wagner")
        )
        assert isinstance(results[0], repro.MinCutResult)
        assert isinstance(results[1], repro.SweepFailure)


# ----------------------------------------------------------------------
# CLI --certify
# ----------------------------------------------------------------------
class TestCliCertify:
    def test_mincut_certify_pass(self, capsys):
        code = main(["mincut", "--family", "gnm", "--n", "16",
                     "--solver", "oracle", "--certify"])
        assert code == 0
        assert "certificate   : PASS" in capsys.readouterr().out

    def test_sweep_certify_rows(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--family", "cycle", "--n", "8",
                     "--count", "2", "--solver", "oracle",
                     "--certify", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["failures"] == 0
        assert all(row["certified"] for row in payload["results"])
