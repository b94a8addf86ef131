"""The oracle's stop rule: solve packed trees in order, stop once no later
tree can change finalize's winner (:mod:`repro.core.tree_schedule`).

Single solves, sweeps and the per-tree budget fallback all run one loop,
``repro.core.session._oracle_schedules`` (a single graph is a batch of
one).  Every result must equal, byte for byte, the run that solves all
packed trees (``stop_value`` patched to ``None``, so the same loop
builds and solves every tree in one batch): value, partition, cut
edges, candidate, ``best_tree_index`` and ``stats``; and a sweep's
results must equal its graphs' single solves.  Graphs outside the
rule's conditions -- fractional weights, a total weight too large for
exact sums, zero-weight edges, a caller-supplied ``approx_cut_value``
-- solve every tree.  No oracle solve roots a ``RootedTree``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import session
from repro.core.tree_packing import pack_trees
from repro.core.tree_schedule import TreeSchedule, stop_value
from repro.errors import CandidateBelowMinCutError
from repro.graphs import CSR_FAMILY_BUILDERS
from repro.graphs.csr import CSRGraph
from repro.kernel.batched import batched_two_respecting_oracle
from repro.kernel.cut_kernel import stacked_covers
from repro.kernel.forest import stacked_tree_arrays
from repro.obs import metrics, trace
from repro.trees.rooted import RootedTree

FAMILIES = sorted(CSR_FAMILY_BUILDERS)
CONFIG = repro.SolverConfig(solver="oracle", compute_congest=False)


def _signature(result, drop=()) -> tuple:
    stats = {
        k: v for k, v in result.stats.items()
        if k not in ("profile", "sweep_profile", *drop)
    }
    if "degraded" in stats:
        stats["degraded"] = {
            k: v for k, v in stats["degraded"].items() if k != "seconds"
        }
    return (
        float(result.value).hex(),
        result.partition,
        repr(result.cut_edges),
        repr(result.candidate),
        result.best_tree_index,
        repr(stats),
        result.ma_rounds,
    )


def _labelled(graph):
    labels = [f"v{(7 * i) % graph.n}" if i % 2 else (i, "t") for i in range(graph.n)]
    return CSRGraph(
        graph.n, graph.edge_u, graph.edge_v, graph.edge_w,
        nodes=labels, canonical=True,
    )


def _all_trees(monkeypatch):
    monkeypatch.setattr(session, "stop_value", lambda csr, packing: None)


def _traced(run, name: str):
    """``run()`` under tracing, and the attributes of its ``name`` span."""
    with trace.tracing():
        mark = trace.mark()
        result = run()
        spans = [r for r in trace.records_since(mark) if r.name == name]
    return result, spans[-1].attrs


def _solve(graph, seed, config=CONFIG):
    return repro.MinCutSolver(config).solve(graph, seed=seed)


def _corpus():
    return [
        (CSR_FAMILY_BUILDERS[family](24 + 8 * seed, seed), seed)
        for family in FAMILIES
        for seed in (1, 2, 3)
    ]


class TestSingleGraph:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_all_trees(self, family, seed, monkeypatch):
        graph = CSR_FAMILY_BUILDERS[family](40 + 4 * seed, seed)
        cases = [graph, _labelled(graph)]
        stopped = [_signature(_solve(g, seed)) for g in cases]
        _all_trees(monkeypatch)
        full = [_signature(_solve(g, seed)) for g in cases]
        assert stopped == full

    def test_rule_solves_fewer_trees(self):
        solved = packed = 0
        for graph, seed in _corpus():
            _result, attrs = _traced(lambda: _solve(graph, seed), "session.solve")
            assert 1 <= attrs["trees_solved"] <= attrs["trees"]
            solved += attrs["trees_solved"]
            packed += attrs["trees"]
        assert solved < packed / 2

    def test_two_edge_candidate_then_one_edge_winner(self, monkeypatch):
        """gnm n=12 seed 3: tree 0's candidate is (λ, 2 edges) and tree 3
        is the first with (λ, 1 edge); the cover filter skips the trees
        between that have no λ cover, and tree 3 wins."""
        graph = CSR_FAMILY_BUILDERS["gnm"](12, 3)
        packed = repro.MinCutSolver(CONFIG).pack(graph, seed=3)
        lam = packed.packing.approx_cut_value
        every = batched_two_respecting_oracle(packed.arrays, packed.stack)
        assert every[0].value == lam and len(every[0].edges) == 2
        first_single = next(
            i for i, c in enumerate(every)
            if c.value == lam and len(c.edges) == 1
        )
        assert first_single == 3
        result, attrs = _traced(lambda: _solve(graph, 3), "session.solve")
        assert result.best_tree_index == 3
        assert attrs["trees_solved"] < attrs["trees"]
        _all_trees(monkeypatch)
        assert _signature(_solve(graph, 3)) == _signature(result)

    def test_cover_filter_keeps_trees_with_a_lambda_cover(self):
        """After a (λ, 2) candidate the schedule keeps, from each batch it
        builds, only the trees with a 1-respecting cover equal to λ, in
        packed order, with their rows of the batch's stack."""
        graph = CSR_FAMILY_BUILDERS["gnm"](12, 3)
        packed = repro.MinCutSolver(CONFIG).pack(graph, seed=3)
        lam = packed.packing.approx_cut_value
        every = batched_two_respecting_oracle(packed.arrays, packed.stack)
        edges = packed.packing.tree_edge_arrays

        def build(rows):
            (stack,) = stacked_tree_arrays(
                [graph.n], [[edges[r] for r in rows.tolist()]],
                [packed.root_position],
            )
            return stack

        schedule = TreeSchedule(
            stop_value(graph, packed.packing), len(edges), packed.arrays, cap=1
        )
        rows = schedule.next_rows()
        assert rows.tolist() == [0]
        rows, stack = schedule.keep(rows, build(rows))
        assert rows.tolist() == [0]
        schedule.absorb(rows, stack, [every[0]])
        kept = []
        while not schedule.settled:
            batch = schedule.next_rows()
            rows, stack = schedule.keep(batch, build(batch))
            assert np.array_equal(stack.tin, packed.stack.tin[rows])
            kept += rows.tolist()
        covers = stacked_covers(packed.stack, packed.arrays)
        assert kept == [
            t for t in range(1, packed.stack.trees)
            if (covers[t, 1:] == lam).any()
        ]
        assert schedule.built == packed.stack.trees

    @pytest.mark.parametrize("regime", ["fractional", "huge", "zero"])
    def test_outside_the_rule_every_tree_is_solved(self, regime, monkeypatch):
        rng = np.random.default_rng(5)
        graph = CSR_FAMILY_BUILDERS["gnm"](40, 5)
        if regime == "fractional":
            graph = graph.with_weights(rng.uniform(0.1, 0.3, graph.m))
        elif regime == "huge":
            # 4 * total >= 2**53: prefix sums are no longer exact.
            graph = graph.with_weights(rng.integers(10**17, 10**18, graph.m).astype(float))
            assert 4 * graph.edge_w.sum() >= 2.0 ** 53
        else:
            weights = graph.edge_w.copy()
            weights[::4] = 0.0
            graph = graph.with_weights(weights)
        result, attrs = _traced(lambda: _solve(graph, 5), "session.solve")
        assert attrs["trees_solved"] == attrs["trees"] == len(result.packing.trees)
        _all_trees(monkeypatch)
        assert _signature(_solve(graph, 5)) == _signature(result)

    def test_caller_supplied_cut_value_solves_every_tree(self):
        graph = CSR_FAMILY_BUILDERS["gnm"](40, 5)
        own = pack_trees(graph, seed=5)
        given = pack_trees(graph, seed=5, approx_cut_value=own.approx_cut_value)
        assert own.approx_cut_computed and not given.approx_cut_computed
        assert stop_value(graph, own) == own.approx_cut_value
        assert stop_value(graph, given) is None
        packed = repro.MinCutSolver(CONFIG).pack(graph, seed=5)
        schedule = TreeSchedule(None, packed.stack.trees, packed.arrays, cap=1)
        assert schedule.next_rows().tolist() == list(range(packed.stack.trees))
        assert schedule.settled

    def test_budget_fallback_uses_the_stop_rule(self, monkeypatch):
        tight = CONFIG.replace(batch_bytes=20_000)
        results = []
        for graph, seed in _corpus():
            result, attrs = _traced(
                lambda: _solve(graph, seed, tight), "session.solve"
            )
            assert result.stats["degraded"]["to"] == "per-tree-oracle"
            results.append((_signature(result), attrs))
        assert sum(a["trees_solved"] for _s, a in results) < sum(
            a["trees"] for _s, a in results
        )
        _all_trees(monkeypatch)
        for (graph, seed), (signature, _attrs) in zip(_corpus(), results):
            assert _signature(_solve(graph, seed, tight)) == signature

    def test_candidate_below_lambda_raises(self):
        graph = CSR_FAMILY_BUILDERS["gnm"](30, 2)
        packed = repro.MinCutSolver(CONFIG).pack(graph, seed=2)
        true_value = packed.packing.approx_cut_value
        packed.packing.approx_cut_value = true_value + 1
        with pytest.raises(CandidateBelowMinCutError) as info:
            packed.solve()
        assert info.value.min_cut_value == true_value + 1
        assert info.value.candidate_value == true_value
        assert repr(true_value + 1) in str(info.value)

    def test_skipped_trees_counter(self):
        graph = CSR_FAMILY_BUILDERS["grid"](64, 1)
        metrics.reset()
        _result, attrs = _traced(lambda: _solve(graph, 1), "session.solve")
        skipped = metrics.snapshot()["counters"]["oracle.trees_skipped"]
        assert skipped == attrs["trees"] - attrs["trees_solved"] > 0


class TestSweep:
    def _mixed(self):
        graphs, seeds = [], []
        rng = np.random.default_rng(11)
        for index, (graph, seed) in enumerate(_corpus()):
            kind = index % 4
            if kind == 1:
                graph = _labelled(graph)
            elif kind == 2:
                graph = graph.with_weights(rng.uniform(0.1, 0.3, graph.m))
            elif kind == 3 and index % 8 == 3:
                weights = graph.edge_w.copy()
                weights[::3] = 0.0
                graph = graph.with_weights(weights)
            graphs.append(graph)
            seeds.append(seed)
        return graphs, seeds

    def test_matches_all_trees_and_single_solves(self, monkeypatch):
        graphs, seeds = self._mixed()
        results, attrs = _traced(
            lambda: repro.minimum_cut_many(graphs, CONFIG, seeds=seeds),
            "sweep.oracle",
        )
        solos = [
            _traced(lambda: _solve(g, s), "session.solve")
            for g, s in zip(graphs, seeds)
        ]
        single = [a for _r, a in solos]
        # The same trees settle each graph alone and in the sweep.
        assert attrs["trees_solved"] == sum(a["trees_solved"] for a in single)
        assert attrs["trees"] == sum(a["trees"] for a in single)
        assert attrs["trees_solved"] < attrs["trees"]
        for graph, a in zip(graphs, single):
            if not graph.int_weights or not (graph.edge_w > 0).all():
                assert a["trees_solved"] == a["trees"]
        # Byte-equal results too, inside and outside the stop rule.
        assert [_signature(r, drop=("sweep",)) for r in results] == [
            _signature(r) for r, _a in solos
        ]
        stopped = [_signature(r) for r in results]
        _all_trees(monkeypatch)
        full = repro.minimum_cut_many(graphs, CONFIG, seeds=seeds)
        assert stopped == [_signature(r) for r in full]


def _spy_builds(monkeypatch) -> list:
    """Every forest build the session makes: the tree count per graph."""
    calls: list = []
    original = session.stacked_tree_arrays

    def spy(sizes, trees, roots):
        calls.append([len(group) for group in trees])
        return original(sizes, trees, roots)

    monkeypatch.setattr(session, "stacked_tree_arrays", spy)
    return calls


class TestBuiltRows:
    """The oracle roots only the trees its schedule reaches, one forest
    build per batch (spied at ``repro.core.session.stacked_tree_arrays``,
    the name the session calls)."""

    def test_settling_on_the_first_tree_builds_one_row(self, monkeypatch):
        graph, seed = _corpus()[0]  # barbell n=32: tree 0 is (λ, 1 edge)
        calls = _spy_builds(monkeypatch)
        result, attrs = _traced(lambda: _solve(graph, seed), "session.solve")
        assert calls == [[1]]
        assert result.best_tree_index == 0
        assert attrs["trees_built"] == attrs["trees_solved"] == 1 < attrs["trees"]

    def test_no_row_past_the_last_reached_batch(self, monkeypatch):
        calls = _spy_builds(monkeypatch)
        for graph, seed in _corpus():
            calls.clear()
            result, attrs = _traced(lambda: _solve(graph, seed), "session.solve")
            batches = [group for (group,) in calls]
            cap = session._chunk_size(graph.n, CONFIG.batch_bytes)
            for k, size in enumerate(batches):
                left = attrs["trees"] - sum(batches[:k])
                assert size == min(2 ** k, cap, left)
            built = sum(batches)
            assert built == attrs["trees_built"] >= attrs["trees_solved"]
            # Short of every tree, the last batch holds the winner.
            assert built == attrs["trees"] or (
                built - batches[-1] <= result.best_tree_index < built
            )

    def test_filtered_trees_are_built_but_not_solved(self, monkeypatch):
        """gnm n=12 seed 3: after tree 0's (λ, 2 edges) candidate each
        batch is filtered by its own covers, so fewer trees are solved
        than built, and no all-trees stack is built."""
        graph = CSR_FAMILY_BUILDERS["gnm"](12, 3)
        calls = _spy_builds(monkeypatch)
        result, attrs = _traced(lambda: _solve(graph, 3), "session.solve")
        assert result.best_tree_index == 3
        assert [group for (group,) in calls] == [1, 2, 4]
        assert attrs["trees_solved"] < attrs["trees_built"] == 7 < attrs["trees"]

    def test_budget_fallback_builds_no_all_trees_stack(self, monkeypatch):
        tight = CONFIG.replace(batch_bytes=20_000)
        calls = _spy_builds(monkeypatch)
        built = packed = 0
        for graph, seed in _corpus():
            calls.clear()
            result, attrs = _traced(
                lambda: _solve(graph, seed, tight), "session.solve"
            )
            assert result.stats["degraded"]["to"] == "per-tree-oracle"
            assert calls == [[1]] * attrs["trees_built"]
            built += attrs["trees_built"]
            packed += attrs["trees"]
        assert built < packed

    def test_outputs_equal_the_all_trees_run(self, monkeypatch):
        """Per-batch builds change no output; with the rule off, each solve
        makes one all-trees build."""
        calls = _spy_builds(monkeypatch)
        graphs = [graph for graph, _seed in _corpus()]
        seeds = [seed for _graph, seed in _corpus()]
        stopped = [_solve(g, s) for g, s in zip(graphs, seeds)]
        calls.clear()
        swept, attrs = _traced(
            lambda: repro.minimum_cut_many(graphs, CONFIG, seeds=seeds),
            "sweep.oracle",
        )
        assert sum(map(sum, calls)) == attrs["trees_built"]
        assert attrs["trees_solved"] <= attrs["trees_built"] < attrs["trees"]
        _all_trees(monkeypatch)
        calls.clear()
        full = [_signature(_solve(g, s)) for g, s in zip(graphs, seeds)]
        assert calls == [[len(r.packing.tree_edge_arrays)] for r in stopped]
        assert [_signature(r) for r in stopped] == full
        full_sweep = repro.minimum_cut_many(graphs, CONFIG, seeds=seeds)
        assert [_signature(r) for r in swept] == [_signature(r) for r in full_sweep]


class TestNoRootedTree:
    """No ``oracle`` solve roots a :class:`RootedTree`: single, sweep,
    the 20 KB-pinned per-tree fallback and the sweep's budget chain all
    run on stacked forests (spied at ``RootedTree.__init__``)."""

    @staticmethod
    def _spy(monkeypatch) -> list:
        calls: list = []
        original = RootedTree.__init__

        def spy(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RootedTree, "__init__", spy)
        return calls

    def test_oracle_solves_root_no_tree(self, monkeypatch):
        graphs, seeds = TestSweep()._mixed()
        small = CSR_FAMILY_BUILDERS["gnm"](20, 4)
        calls = self._spy(monkeypatch)
        tight = CONFIG.replace(batch_bytes=20_000)
        for config in (CONFIG, tight):
            for graph, seed in zip(graphs, seeds):
                _solve(graph, seed, config)
            swept = repro.minimum_cut_many(
                [small, *graphs], config, seeds=[4, *seeds]
            )
            assert all(isinstance(r, repro.MinCutResult) for r in swept)
        assert swept[0].stats["degraded"]["to"] == "per-graph-session"
        assert swept[1].stats["degraded"]["to"] == "per-tree-oracle"
        assert calls == []
        # The spy sees the trees the minor-aggregation recursion roots.
        _solve(small, 4, CONFIG.replace(solver="minor-aggregation"))
        assert calls
