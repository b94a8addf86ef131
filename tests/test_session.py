"""The session API: SolverConfig, the registry, MinCutSolver, and the
batched many-graph entrypoint -- including the bit-identity contracts the
redesign promises (wrapper == session == sweep, ledger included)."""

import json

import pytest

import repro
from repro.accounting import RoundAccountant
from repro.baselines import stoer_wagner_min_cut
from repro.cli import build_parser, main
from repro.core.registry import get_solver, registered_solvers
from repro.core.session import GraphPacking, SolveContext
from repro.graphs import CSR_FAMILY_BUILDERS, CSRGraph, csr_random_connected_gnm

ALL_FAMILIES = sorted(CSR_FAMILY_BUILDERS)


def build(family, n, seed):
    return CSR_FAMILY_BUILDERS[family](n, seed)


# ----------------------------------------------------------------------
# SolverConfig
# ----------------------------------------------------------------------
class TestSolverConfig:
    def test_defaults(self):
        config = repro.SolverConfig()
        assert list(config.as_dict()) == [
            "solver", "num_trees", "batch_bytes", "compute_congest", "trace",
        ]
        assert config.solver == "minor-aggregation"
        assert config.num_trees is None
        assert config.batch_bytes is None
        assert config.compute_congest is True

    def test_frozen_and_replace(self):
        config = repro.SolverConfig()
        with pytest.raises(AttributeError):
            config.solver = "oracle"
        other = config.replace(solver="oracle", num_trees=5)
        assert other.solver == "oracle" and other.num_trees == 5
        assert config.solver == "minor-aggregation"  # original untouched

    @pytest.mark.parametrize(
        "fields",
        [dict(num_trees=-3), dict(num_trees=0), dict(batch_bytes=0)],
    )
    def test_validation(self, fields):
        with pytest.raises(ValueError):
            repro.SolverConfig(**fields)

    def test_from_env_round_trip(self):
        env = {"REPRO_BATCH_BYTES": "12345", "REPRO_TRACE": "0"}
        config = repro.SolverConfig.from_env(env)
        assert config.batch_bytes == 12345
        assert config.trace is False
        assert repro.SolverConfig.from_env({}) == repro.SolverConfig()
        # overrides win over the environment
        overridden = repro.SolverConfig.from_env(env, batch_bytes=777)
        assert overridden.batch_bytes == 777

    def test_from_env_reads_process_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_BYTES", "999")
        config = repro.SolverConfig.from_env()
        assert config.batch_bytes == 999

    def test_from_env_ignores_garbage_batch_bytes(self):
        for raw in ("lots", "0", "-5"):
            config = repro.SolverConfig.from_env({"REPRO_BATCH_BYTES": raw})
            assert config.batch_bytes is None

    def test_batch_bytes_env_parsed_one_way(self, monkeypatch):
        # The kernel's run-time budget reads REPRO_BATCH_BYTES exactly as
        # from_env does: a garbage or non-positive value means the default.
        from repro.kernel.batched import _chunk_size, env_batch_bytes

        monkeypatch.delenv("REPRO_BATCH_BYTES", raising=False)
        default_budget, default_chunk = env_batch_bytes(), _chunk_size(48)
        for raw in ("lots", "0", "-5"):
            monkeypatch.setenv("REPRO_BATCH_BYTES", raw)
            assert env_batch_bytes() == default_budget
            assert _chunk_size(48) == default_chunk
            assert repro.SolverConfig.from_env().batch_bytes is None
        monkeypatch.setenv("REPRO_BATCH_BYTES", "999")
        assert env_batch_bytes() == 999
        assert repro.SolverConfig.from_env().batch_bytes == 999

    def test_from_args_round_trip(self):
        args = build_parser().parse_args(
            ["mincut", "--solver", "oracle", "--backend", "networkx",
             "--trees", "7", "--no-congest"]
        )
        config = repro.SolverConfig.from_args(args)
        assert config.solver == "oracle"
        # --backend picks the graph the CLI builds, not a solver setting
        assert args.backend == "networkx"
        assert "backend" not in config.as_dict()
        assert config.num_trees == 7
        assert config.compute_congest is False

    def test_from_args_defaults(self):
        args = build_parser().parse_args(["mincut"])
        config = repro.SolverConfig.from_args(args)
        assert config.solver == "minor-aggregation"
        assert args.backend == "csr"
        assert config.num_trees is None
        assert config.compute_congest is True

    def test_as_dict_json_round_trip(self):
        config = repro.SolverConfig(solver="oracle", batch_bytes=1 << 20)
        decoded = json.loads(json.dumps(config.as_dict()))
        assert repro.SolverConfig(**decoded) == config


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_default_entries(self):
        names = registered_solvers()
        for name in ("minor-aggregation", "oracle", "stoer-wagner", "karger"):
            assert name in names

    def test_unknown_solver_lists_registered_names(self):
        graph = build("gnm", 12, 1)
        with pytest.raises(ValueError) as excinfo:
            repro.minimum_cut(graph, solver="quantum")
        message = str(excinfo.value)
        assert "quantum" in message
        for name in registered_solvers():
            assert name in message

    def test_custom_solver_reachable_everywhere(self):
        def echo_solver(packed: GraphPacking, ctx: SolveContext):
            # A toy solver: report the trivial single-node cut of node 0.
            return packed.finalize_partition(frozenset([0]), ctx)

        repro.register_solver("echo", echo_solver, uses_packing=False)
        try:
            graph = build("gnm", 10, 3)
            via_wrapper = repro.minimum_cut(graph, solver="echo")
            via_session = repro.MinCutSolver(
                repro.SolverConfig(solver="echo")
            ).solve(graph)
            assert via_wrapper.solver == via_session.solver == "echo"
            assert via_wrapper.value == via_session.value
            assert frozenset([0]) in via_wrapper.partition
            assert "echo" in registered_solvers()
            # and the CLI picks it up as a --solver choice
            args = build_parser().parse_args(
                ["mincut", "--solver", "echo"]
            )
            assert args.solver == "echo"
        finally:
            repro.unregister_solver("echo")
        assert "echo" not in registered_solvers()

    def test_get_solver_traits(self):
        assert get_solver("minor-aggregation").uses_packing
        assert get_solver("oracle").uses_packing
        assert not get_solver("stoer-wagner").uses_packing


# ----------------------------------------------------------------------
# Sessions: staged pack/solve
# ----------------------------------------------------------------------
class TestStagedSessions:
    def test_pack_once_solve_many_solvers(self):
        graph = build("gnm", 24, 5)
        solver = repro.MinCutSolver(repro.SolverConfig(solver="oracle"))
        packed = solver.pack(graph, seed=5)
        oracle = packed.solve()
        ma = packed.solve("minor-aggregation")
        sw = packed.solve("stoer-wagner")
        reference = repro.minimum_cut(graph, seed=5, solver="oracle")
        assert oracle.value == ma.value == sw.value == reference.value
        # only one packing was computed for the two packing-based solves
        assert oracle.packing is ma.packing

    @pytest.mark.parametrize("solver", ["oracle", "minor-aggregation"])
    def test_staged_solve_bit_identical_to_wrapper(self, solver):
        graph = build("delaunay", 24, 2)
        reference = repro.minimum_cut(graph, seed=2, solver=solver)
        packed = repro.MinCutSolver().pack(graph, seed=2)
        result = packed.solve(solver)
        assert result.value == reference.value
        assert result.partition == reference.partition
        assert result.cut_edges == reference.cut_edges
        assert result.candidate == reference.candidate
        assert result.best_tree_index == reference.best_tree_index
        assert result.ma_rounds == reference.ma_rounds
        assert result.stats["accountant"] == reference.stats["accountant"]

    def test_repeated_solves_replay_the_packing_ledger(self):
        graph = build("gnm", 20, 9)
        packed = repro.MinCutSolver(repro.SolverConfig(solver="oracle")).pack(
            graph, seed=9
        )
        first = packed.solve()
        second = packed.solve()
        assert first.ma_rounds == second.ma_rounds
        assert first.stats["accountant"] == second.stats["accountant"]
        assert first.value == second.value

    def test_caller_accountant_receives_all_charges(self):
        graph = build("gnm", 20, 11)
        acct = RoundAccountant()
        result = repro.MinCutSolver(repro.SolverConfig()).solve(
            graph, seed=11, accountant=acct
        )
        assert result.ma_rounds == acct.total > 0

    def test_lazy_packing_skipped_for_baselines(self):
        graph = build("gnm", 18, 4)
        packed = repro.MinCutSolver().pack(graph, seed=4)
        packed.solve("stoer-wagner")
        assert packed._packing is None  # baseline never packed
        packed.solve("oracle")
        assert packed._packing is not None

    def test_two_node_graphs_short_circuit(self):
        graph = csr_random_connected_gnm(2, 1, seed=0)
        packed = repro.MinCutSolver().pack(graph)
        result = packed.solve()
        assert result.solver == "trivial"
        assert result.value == packed.solve("oracle").value

    def test_config_num_trees_respected(self):
        graph = build("gnm", 22, 6)
        result = repro.MinCutSolver(
            repro.SolverConfig(solver="oracle", num_trees=4)
        ).solve(graph, seed=6)
        assert len(result.packing.trees) <= 4
        reference = repro.minimum_cut(graph, seed=6, solver="oracle", num_trees=4)
        assert result.value == reference.value
        assert result.partition == reference.partition

    def test_batch_bytes_pin_changes_nothing_observable(self):
        graph = build("gnm", 24, 10)
        tiny = repro.MinCutSolver(
            repro.SolverConfig(solver="oracle", batch_bytes=50_000)
        ).solve(graph, seed=10)
        reference = repro.minimum_cut(graph, seed=10, solver="oracle")
        assert tiny.value == reference.value
        assert tiny.partition == reference.partition
        assert tiny.candidate == reference.candidate


# ----------------------------------------------------------------------
# Baseline solvers through the registry
# ----------------------------------------------------------------------
class TestBaselineSolvers:
    @pytest.mark.parametrize("family", ["gnm", "planted", "barbell"])
    def test_stoer_wagner_solver_exact(self, family):
        graph = build(family, 20, 3)
        result = repro.minimum_cut(graph, seed=3, solver="stoer-wagner")
        expected, _ = stoer_wagner_min_cut(graph)
        assert result.value == pytest.approx(expected)
        assert result.solver == "stoer-wagner"
        assert result.respecting_edges == ()
        assert result.best_tree_index == -1
        side_a, side_b = result.partition
        assert side_a and side_b and not (side_a & side_b)

    def test_karger_solver_finds_planted_cut(self):
        graph = build("planted", 20, 1)
        result = repro.minimum_cut(graph, seed=1, solver="karger")
        assert result.value == graph.meta["planted_cut_value"]

    def test_baselines_carry_no_congest_estimates(self):
        # Documented: Theorem 17 estimates compile MA rounds down to
        # CONGEST, and centralized baselines execute no MA rounds.
        graph = build("gnm", 14, 2)
        result = repro.MinCutSolver(
            repro.SolverConfig(solver="karger", compute_congest=True)
        ).solve(graph, seed=2)
        assert result.congest is None
        assert result.ma_rounds == 0.0

    def test_baseline_partition_is_consistent(self):
        graph = build("gnm", 16, 7)
        result = repro.minimum_cut(graph, seed=7, solver="stoer-wagner")
        # the value is recomputed from the partition by construction
        weight = sum(
            w
            for u, v, w in zip(
                graph.edge_u.tolist(), graph.edge_v.tolist(),
                graph.edge_w.tolist(),
            )
            if (u in result.partition[0]) != (v in result.partition[0])
        )
        assert weight == pytest.approx(result.value)


# ----------------------------------------------------------------------
# minimum_cut_many: the batched sweep entrypoint
# ----------------------------------------------------------------------
def assert_results_bit_identical(reference, result, check_rounds=True):
    assert result.value == reference.value
    assert result.partition == reference.partition
    assert result.cut_edges == reference.cut_edges
    assert result.candidate == reference.candidate
    assert result.best_tree_index == reference.best_tree_index
    if check_rounds:
        assert result.ma_rounds == reference.ma_rounds
        assert result.stats["accountant"] == reference.stats["accountant"]


class TestMinimumCutMany:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_bit_identical_to_loop_oracle(self, family):
        graphs = [build(family, 20 + 6 * i, i + 1) for i in range(3)]
        seeds = [7, 1, 3]
        config = repro.SolverConfig(solver="oracle")
        sweep = repro.minimum_cut_many(graphs, config, seeds=seeds)
        for graph, seed, result in zip(graphs, seeds, sweep):
            reference = repro.minimum_cut(graph, seed=seed, solver="oracle")
            assert_results_bit_identical(reference, result)
            assert result.packing.trees == reference.packing.trees

    @pytest.mark.parametrize("solver", ["minor-aggregation", "stoer-wagner"])
    def test_bit_identical_to_loop_other_solvers(self, solver):
        graphs = [build("gnm", 18, 2), build("grid", 25, 4)]
        seeds = [5, 6]
        sweep = repro.minimum_cut_many(
            graphs, repro.SolverConfig(solver=solver), seeds=seeds
        )
        for graph, seed, result in zip(graphs, seeds, sweep):
            reference = repro.minimum_cut(graph, seed=seed, solver=solver)
            assert_results_bit_identical(reference, result)

    def test_per_graph_path_validates_once(self, monkeypatch):
        """A graph off the fused path reuses the sweep's own validation:
        one connectivity BFS per graph, none in ``pack`` or in the
        Stoer-Wagner baseline."""
        checks = []
        is_connected = CSRGraph.is_connected

        def spy(self):
            checks.append(self)
            return is_connected(self)

        monkeypatch.setattr(CSRGraph, "is_connected", spy)
        graphs = [build("gnm", 18, 2), build("grid", 25, 4), build("cycle", 12, 1)]
        sweep = repro.minimum_cut_many(
            graphs, repro.SolverConfig(solver="stoer-wagner"), seeds=[5, 6, 7]
        )
        assert len(checks) == 3
        monkeypatch.setattr(CSRGraph, "is_connected", is_connected)
        for graph, seed, result in zip(graphs, [5, 6, 7], sweep):
            reference = repro.minimum_cut(graph, seed=seed, solver="stoer-wagner")
            assert_results_bit_identical(reference, result)

    def test_networkx_graphs_run_fused(self, monkeypatch):
        from repro.core import session as session_module

        graphs = [build("gnm", 16, s).to_networkx() for s in range(2)]
        fused = []
        solve_many = session_module._solve_many_oracle

        def spy(csrs, seeds, cfg):
            fused.extend(csrs)
            return solve_many(csrs, seeds, cfg)

        monkeypatch.setattr(session_module, "_solve_many_oracle", spy)
        sweep = repro.minimum_cut_many(
            graphs, repro.SolverConfig(solver="oracle"), seeds=[0, 1]
        )
        assert len(fused) == 2
        assert all(isinstance(csr, CSRGraph) for csr in fused)
        for seed, (graph, result) in enumerate(zip(graphs, sweep)):
            reference = repro.minimum_cut(graph, seed=seed, solver="oracle")
            assert_results_bit_identical(reference, result)

    def test_mixed_inputs_preserve_order(self):
        csr = build("gnm", 18, 1)
        two_node = csr_random_connected_gnm(2, 1, seed=0)
        nxg = build("cycle", 12, 2).to_networkx()
        sweep = repro.minimum_cut_many(
            [csr, two_node, nxg], repro.SolverConfig(solver="oracle"),
            seeds=[4, 0, 9],
        )
        assert sweep[0].value == repro.minimum_cut(csr, seed=4, solver="oracle").value
        assert sweep[1].solver == "trivial"
        assert sweep[2].value == repro.minimum_cut(nxg, seed=9, solver="oracle").value

    def test_labelled_csr_graphs_supported(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b 2\nb c 3\nc a 4\nc d 1\nd a 5\n")
        from repro.cli import read_edge_list_csr

        graph = read_edge_list_csr(str(path))
        sweep = repro.minimum_cut_many(
            [graph], repro.SolverConfig(solver="oracle"), seeds=[0]
        )
        reference = repro.minimum_cut(graph, seed=0, solver="oracle")
        assert_results_bit_identical(reference, sweep[0])

    def test_scalar_seed_broadcasts(self):
        graphs = [build("gnm", 16, s) for s in range(2)]
        sweep = repro.minimum_cut_many(
            graphs, repro.SolverConfig(solver="oracle"), seeds=3
        )
        for graph, result in zip(graphs, sweep):
            reference = repro.minimum_cut(graph, seed=3, solver="oracle")
            assert_results_bit_identical(reference, result)

    def test_config_overrides_kwargs(self):
        graphs = [build("gnm", 16, 0)]
        sweep = repro.minimum_cut_many(graphs, solver="oracle", compute_congest=False)
        assert sweep[0].congest is None
        assert sweep[0].value == repro.minimum_cut(graphs[0], solver="oracle").value

    def test_seed_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            repro.minimum_cut_many(
                [build("gnm", 12, 0)], repro.SolverConfig(), seeds=[1, 2]
            )

    def test_unknown_solver_rejected_before_work(self):
        with pytest.raises(ValueError):
            repro.minimum_cut_many(
                [build("gnm", 12, 0)], repro.SolverConfig(solver="nope")
            )

    def test_empty_sweep(self):
        assert repro.minimum_cut_many([], repro.SolverConfig()) == []

    def test_session_solve_many(self):
        graphs = [build("gnm", 16, s) for s in range(2)]
        session = repro.MinCutSolver(repro.SolverConfig(solver="oracle"))
        assert [r.value for r in session.solve_many(graphs, seeds=[0, 1])] == [
            repro.minimum_cut(g, seed=s, solver="oracle").value
            for s, g in enumerate(graphs)
        ]

    def test_results_carry_sweep_index_and_graph_hash(self):
        # Batchers re-associate results with requests by the identity the
        # result itself carries -- no positional bookkeeping on the caller.
        graphs = [build("gnm", 14 + 2 * i, i) for i in range(4)]
        sweep = repro.minimum_cut_many(
            graphs, repro.SolverConfig(solver="oracle"), seeds=[9, 8, 7, 6]
        )
        for index, (graph, result) in enumerate(zip(graphs, sweep)):
            assert result.stats["sweep"] == {
                "index": index,
                "graph_hash": graph.canonical_hash(),
            }

    def test_networkx_results_carry_index_and_hash(self):
        graphs = [build("gnm", 14, s).to_networkx() for s in range(2)]
        sweep = repro.minimum_cut_many(
            graphs, repro.SolverConfig(solver="oracle"), seeds=[0, 1]
        )
        for index, (graph, result) in enumerate(zip(graphs, sweep)):
            assert result.stats["sweep"] == {
                "index": index,
                "graph_hash": CSRGraph.from_networkx(graph).canonical_hash(),
            }

    def test_sweep_failures_carry_graph_hash(self):
        good = build("gnm", 16, 0)
        disconnected = CSRGraph(4, [0, 2], [1, 3], [1.0, 1.0])
        sweep = repro.minimum_cut_many(
            [good, disconnected], repro.SolverConfig(solver="oracle"),
            seeds=[0, 1], strict=False,
        )
        failure = sweep[1]
        assert isinstance(failure, repro.SweepFailure)
        assert failure.graph_hash == disconnected.canonical_hash()
        assert failure.as_dict()["graph_hash"] == disconnected.canonical_hash()
        assert sweep[0].stats["sweep"]["graph_hash"] == good.canonical_hash()


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCliIntegration:
    def test_sweep_json_matches_direct_runs(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--family", "gnm", "--n", "16", "--count", "3",
             "--seed", "2", "--solver", "oracle", "--json", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["count"] == 3
        assert payload["config"]["solver"] == "oracle"
        assert [row["seed"] for row in payload["results"]] == [2, 3, 4]
        for row in payload["results"]:
            graph = build("gnm", 16, row["seed"])
            reference = repro.minimum_cut(
                graph, seed=row["seed"], solver="oracle"
            )
            assert row["value"] == reference.value
            assert row["ma_rounds"] == reference.ma_rounds

    def test_sweep_stdout_json(self, capsys):
        assert main(
            ["sweep", "--family", "cycle", "--n", "10", "--count", "2",
             "--solver", "oracle"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 2

    def test_mincut_baseline_solver(self, capsys):
        assert main(
            ["mincut", "--family", "gnm", "--n", "14", "--seed", "1",
             "--solver", "stoer-wagner", "--verbose"]
        ) == 0
        out = capsys.readouterr().out
        assert "stoer-wagner" in out

    def test_unknown_family_lists_names(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--family", "doom", "--count", "1"])
        assert "registered families" in str(excinfo.value)

    def test_info_lists_registered_solvers(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in registered_solvers():
            assert name in out
