"""The observability layer: tracer, metrics, profiles, and the promise
that instrumentation never changes results.

Run alone with ``pytest -m obs``.
"""

from __future__ import annotations

import io
import json
import sys
import threading

import pytest

import repro
from repro.accounting import RoundAccountant
from repro.cli import main
from repro.core.session import SolverConfig, minimum_cut_many
from repro.graphs import CSR_FAMILY_BUILDERS
from repro.obs import metrics, trace
from repro.obs.profile import build_profile, format_bytes, render_profile

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with tracing off and empty buffers."""
    trace.set_enabled(False)
    trace.clear()
    metrics.reset()
    yield
    trace.set_enabled(False)
    trace.clear()
    metrics.reset()


def graph_case(n: int = 24, seed: int = 0):
    return CSR_FAMILY_BUILDERS["gnm"](n, seed)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        probe = trace.span("x", n=1)
        assert probe is trace.NULL_SPAN
        with probe as inner:
            assert inner.set(bytes=3) is inner
        assert trace.records() == []

    def test_nesting_and_attributes(self):
        with trace.tracing():
            with trace.span("outer", n=5) as outer:
                with trace.span("inner") as inner:
                    inner.set(bytes=128)
        outer_rec, inner_rec = None, None
        for record in trace.records():
            if record.name == "outer":
                outer_rec = record
            elif record.name == "inner":
                inner_rec = record
        assert outer_rec is outer and inner_rec is inner
        assert inner_rec.parent_id == outer_rec.span_id
        assert outer_rec.parent_id is None
        assert outer_rec.attrs == {"n": 5}
        assert inner_rec.attrs == {"bytes": 128}
        # children close first, so they land in the buffer first
        assert trace.records().index(inner_rec) < trace.records().index(outer_rec)
        assert outer_rec.seconds >= inner_rec.seconds >= 0.0

    def test_tracing_context_restores_previous_state(self):
        assert not trace.enabled()
        with trace.tracing():
            assert trace.enabled()
            with trace.tracing(False):
                assert not trace.enabled()
            assert trace.enabled()
        assert not trace.enabled()

    def test_mark_and_records_since(self):
        with trace.tracing():
            with trace.span("before"):
                pass
            position = trace.mark()
            with trace.span("after"):
                pass
        names = [record.name for record in trace.records_since(position)]
        assert names == ["after"]

    def test_last_error_span(self):
        with trace.tracing():
            with pytest.raises(ValueError):
                with trace.span("good"):
                    with trace.span("bad"):
                        raise ValueError("boom")
        assert trace.last_error_span() == "bad"

    def test_subtree_selects_descendants_only(self):
        with trace.tracing():
            with trace.span("stranger"):
                pass
            with trace.span("root") as root:
                with trace.span("child"):
                    with trace.span("grandchild"):
                        pass
        names = {record.name for record in trace.subtree(root)}
        assert names == {"root", "child", "grandchild"}

    def test_thread_nesting_is_per_thread(self):
        seen = {}

        def worker(tag):
            with trace.span(f"w-{tag}"):
                seen[tag] = trace.current_span().name

        with trace.tracing():
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert seen == {i: f"w-{i}" for i in range(4)}
        for record in trace.records():
            assert record.parent_id is None  # no cross-thread parenting


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _record_some_spans(self):
        with trace.tracing():
            with trace.span("parent", n=7):
                with trace.span("child", label=("not", "json")):
                    pass

    def test_ndjson_round_trip(self):
        self._record_some_spans()
        sink = io.StringIO()
        count = trace.export_ndjson(sink)
        lines = [line for line in sink.getvalue().splitlines() if line]
        assert count == len(lines) == 2
        rows = [json.loads(line) for line in lines]
        by_name = {row["name"]: row for row in rows}
        assert by_name["child"]["parent_id"] == by_name["parent"]["span_id"]
        assert by_name["parent"]["attrs"] == {"n": 7}

    def test_chrome_trace_is_valid_json(self, tmp_path):
        self._record_some_spans()
        path = tmp_path / "trace.json"
        count = trace.export_chrome(str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert count == len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            json.dumps(event)  # every field individually serialisable
        args = {e["name"]: e["args"] for e in events}
        assert args["parent"] == {"n": 7}
        assert isinstance(args["child"]["label"], str)  # coerced, not crashed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_mutations_record_with_tracing_off(self):
        assert not trace.enabled()
        metrics.counter("c").inc()
        metrics.gauge("g").set(3)
        metrics.histogram("h").observe(5)
        snap = metrics.snapshot()
        assert snap["counters"]["c"] == 1
        assert snap["gauges"]["g"] == {"value": 3, "min": 3, "max": 3}
        assert snap["histograms"]["h"]["count"] == 1
        # A negative increment raises whether or not tracing is on, and
        # records nothing.
        with pytest.raises(ValueError):
            metrics.counter("c").inc(-1)
        with trace.tracing():
            with pytest.raises(ValueError):
                metrics.counter("c").inc(-1)
        assert metrics.snapshot()["counters"]["c"] == 1
        assert metrics.op_count() == 3

    def test_histogram_percentiles(self):
        histogram = metrics.MetricsRegistry().histogram(
            "latency", (0.001, 0.01, 0.1)
        )
        assert histogram.percentile(0.5) is None
        for _ in range(98):
            histogram.observe(0.0005)
        histogram.observe(0.05)
        histogram.observe(0.2)
        assert histogram.percentile(0.50) == 0.001
        assert histogram.percentile(0.99) == 0.1
        snapshot = histogram.as_dict()
        assert snapshot["count"] == 100
        assert snapshot["max"] == pytest.approx(0.2)
        # Past the last boundary the estimate is the largest observation.
        histogram.observe(5.0)
        assert histogram.counts[-1] == 2
        assert histogram.percentile(1.0) == 5.0

    def test_histogram_percentile_never_exceeds_the_largest_observation(self):
        histogram = metrics.MetricsRegistry().histogram(
            "latency", (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
        )
        for value in (11.0, 11.5, 12.0, 12.5, 13.0):
            histogram.observe(value)
        # Every observation sits in the (10, 20] bucket: its upper edge
        # would overstate every quantile.
        assert histogram.percentile(0.5) <= 13.0
        assert histogram.percentile(0.99) <= 13.0
        assert histogram.percentile(0.99) == 13.0
        assert isinstance(histogram.percentile(0.5), float)

    def test_counter_gauge_histogram(self):
        with trace.tracing():
            metrics.counter("c").inc()
            metrics.counter("c").inc(2)
            with pytest.raises(ValueError):
                metrics.counter("c").inc(-1)
            for value in (5, 1, 9):
                metrics.gauge("g").set(value)
            for value in (0.5, 2.0, 4.0, 1e9):
                metrics.histogram("h", (1.0, 4.0, 16.0)).observe(value)
        snap = metrics.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == {"value": 9, "min": 1, "max": 9}
        hist = snap["histograms"]["h"]
        # boundaries are inclusive upper edges: <=1, <=4, <=16, +inf
        assert hist["counts"] == [1, 2, 0, 1]
        assert hist["count"] == 4 and hist["max"] == 1e9
        # rejected negative inc records no op: 2 incs + 3 sets + 4 observes
        assert metrics.op_count() == 2 + 3 + 4

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ValueError):
            metrics.histogram("bad", (4.0, 4.0, 1.0))

    def test_instruments_keep_identity(self):
        assert metrics.counter("same") is metrics.counter("same")

    def test_concurrent_mutations_are_not_lost(self):
        # The serve tier's worker threads and event loop share one
        # registry; a lost read-modify-write would show as a short count.
        registry = metrics.MetricsRegistry()
        counts = registry.counters("t.", ("a", "b"))
        histogram = registry.histogram("t.h")
        threads_n, per_thread = 8, 5000

        def worker():
            for _ in range(per_thread):
                counts["a"].inc()
                counts["b"].inc(2)
            for i in range(per_thread):
                histogram.observe(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = threads_n * per_thread
        assert counts["a"].value == total and counts["b"].value == 2 * total
        assert histogram.count == total and sum(histogram.counts) == total
        assert registry.op_count() == 3 * total


# ----------------------------------------------------------------------
# Profile building
# ----------------------------------------------------------------------
class TestProfile:
    def test_rounds_join_exact_prefix_and_rollup(self):
        with trace.tracing():
            with trace.span("solve", acct_prefix="congest"):
                with trace.span("pack", acct="packing:boruvka"):
                    pass
        acct = RoundAccountant()
        acct.charge(10, "packing:boruvka")
        acct.charge(7, "congest:compile")
        acct.charge(2, "mystery")
        profile = build_profile(trace.records(), acct)
        solve = profile["tree"][0]
        pack = solve["children"][0]
        assert pack["rounds"] == 10
        assert solve["rounds"] == 17  # prefix claim + child roll-up
        assert profile["unattributed_rounds"] == {"mystery": 2}
        assert profile["ledger_rounds"] == 19

    def test_acct_accepts_label_collections(self):
        with trace.tracing():
            with trace.span("run", acct=("a", "b")):
                pass
        acct = RoundAccountant()
        acct.charge(1, "a")
        acct.charge(4, "b")
        profile = build_profile(trace.records(), acct)
        assert profile["tree"][0]["rounds"] == 5
        assert profile["unattributed_rounds"] == {}

    def test_self_seconds_and_bytes_peak(self):
        with trace.tracing():
            with trace.span("outer"):
                with trace.span("inner", bytes=100):
                    pass
                with trace.span("inner", bytes=300):
                    pass
        profile = build_profile(trace.records())
        outer = profile["tree"][0]
        inner = outer["children"][0]
        assert inner["count"] == 2 and inner["bytes_peak"] == 300
        assert outer["self_seconds"] <= outer["seconds"]
        assert profile["span_count"] == 3

    def test_render_profile_table(self):
        with trace.tracing():
            with trace.span("outer"):
                with trace.span("inner", bytes=2048):
                    pass
        text = render_profile(build_profile(trace.records()))
        lines = text.splitlines()
        assert lines[0].split() == [
            "phase", "count", "seconds", "self", "bytes", "rounds"
        ]
        assert any(line.startswith("outer") for line in lines)
        assert any(line.startswith("  inner") and "2.0KiB" in line
                   for line in lines)

    def test_format_bytes(self):
        assert format_bytes(None) == "-"
        assert format_bytes(512) == "512B"
        assert format_bytes(2048) == "2.0KiB"
        assert format_bytes(3 << 20) == "3.0MiB"
        assert format_bytes(5 << 30) == "5.0GiB"


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------
def _result_fingerprint(result):
    return (
        result.value,
        result.partition,
        tuple(sorted(map(str, result.cut_edges))),
        tuple(map(str, result.respecting_edges)),
        result.best_tree_index,
        result.ma_rounds,
        result.stats["accountant"],
    )


class TestPipelineIntegration:
    @pytest.mark.parametrize("solver", ["oracle", "minor-aggregation"])
    def test_traced_solve_is_bit_identical(self, solver):
        graph = graph_case()
        baseline = repro.minimum_cut(graph, seed=3, solver=solver)
        traced = repro.MinCutSolver(
            SolverConfig(solver=solver, trace=True)
        ).solve(graph, seed=3)
        assert _result_fingerprint(baseline) == _result_fingerprint(traced)
        # the only stats difference is the added profile
        assert "profile" not in baseline.stats
        assert set(traced.stats) - set(baseline.stats) == {"profile"}

    def test_repro_trace_env_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        config = SolverConfig.from_env(solver="oracle")
        assert config.trace is True
        result = repro.MinCutSolver(config).solve(graph_case())
        assert "profile" in result.stats
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert SolverConfig.from_env().trace is False

    def test_profile_joins_seconds_bytes_and_rounds(self):
        result = repro.MinCutSolver(
            SolverConfig(solver="oracle", trace=True)
        ).solve(graph_case())
        profile = result.stats["profile"]
        roots = {node["name"]: node for node in profile["tree"]}
        assert {"session.pack", "session.solve"} <= set(roots)
        pack = roots["session.pack"]
        assert pack["rounds"] == profile["ledger_rounds"] > 0
        assert {child["name"] for child in pack["children"]} >= {
            "pack.approx_min_cut", "pack.sampling", "pack.boruvka"
        }
        (approx,) = [
            record for record in trace.records()
            if record.name == "pack.approx_min_cut"
        ]
        assert approx.attrs["kernel_n"] >= 1
        assert approx.attrs["passes"] >= 1
        solve_children = {
            child["name"]: child
            for child in roots["session.solve"]["children"]
        }
        assert solve_children["session.arrays"]["bytes_peak"] > 0
        assert solve_children["oracle.chunk"]["bytes_peak"] > 0
        assert profile["unattributed_rounds"] == {}
        assert profile["total_seconds"] > 0

    def test_ma_profile_names_recursion_layers(self):
        """The Theorem 40 layers appear as spans nested under
        ``ma.two_respecting`` and claim their own ledger rounds."""
        result = repro.MinCutSolver(
            SolverConfig(solver="minor-aggregation", trace=True)
        ).solve(CSR_FAMILY_BUILDERS["grid"](16, 1), seed=1)
        profile = result.stats["profile"]

        def walk(nodes):
            for node in nodes:
                yield node
                yield from walk(node["children"])

        two_respecting = [
            node for node in walk(profile["tree"])
            if node["name"] == "ma.two_respecting"
        ]
        assert two_respecting
        nested = {
            node["name"]: node
            for top in two_respecting
            for node in walk(top["children"])
        }
        layers = {
            "ma.subtree_instance", "ma.star", "ma.interest", "ma.path_to_path"
        }
        assert layers <= set(nested)
        assert nested["ma.star"]["path"].endswith(
            "ma.subtree_instance/ma.star"
        )
        assert nested["ma.interest"]["path"].endswith("ma.star/ma.interest")
        assert nested["ma.path_to_path"]["path"].endswith(
            "ma.star/ma.path_to_path"
        )
        assert all(nested[name]["rounds"] > 0 for name in layers)
        assert profile["unattributed_rounds"] == {}
        # Every tree's leaves are evaluated once, after the last tree, in
        # their own span; evaluation charges no rounds.
        leaves = [
            node for node in walk(profile["tree"]) if node["name"] == "ma.leaves"
        ]
        assert len(leaves) == 1
        assert "ma.two_respecting" not in leaves[0]["path"]
        assert leaves[0]["rounds"] == 0

    def test_sweep_profile_and_thread_safety(self):
        graphs = [graph_case(seed=s) for s in range(6)]
        seeds = list(range(6))
        cfg = SolverConfig(solver="oracle", compute_congest=False)
        baseline = minimum_cut_many(graphs, cfg, seeds=seeds)

        # Concurrent traced sweeps share one span buffer; per-thread
        # filtering must keep each sweep's profile to its own spans.
        # (The enable flag is ambient here -- per-config trace=True
        # save/restore is process-wide, not a per-thread scope.)
        outcome = {}

        def run_sweep(tag):
            outcome[tag] = minimum_cut_many(graphs, cfg, seeds=seeds)

        with trace.tracing():
            threads = [
                threading.Thread(target=run_sweep, args=(i,))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        for results in outcome.values():
            for base, traced in zip(baseline, results):
                assert base.value == traced.value
                assert base.partition == traced.partition
            sweep_profile = results[0].stats["sweep_profile"]
            roots = {node["name"]: node for node in sweep_profile["tree"]}
            assert "sweep.run" in roots
            stages = {c["name"] for c in roots["sweep.run"]["children"]}
            assert {"sweep.pack_many", "sweep.oracle"} <= stages
            assert sweep_profile["unattributed_rounds"] == {}

    def test_metrics_populated_by_traced_solve(self):
        with trace.tracing():
            repro.minimum_cut(
                graph_case(40), solver="oracle", compute_congest=False
            )
        snap = metrics.snapshot()
        assert snap["histograms"]["oracle.chunk_trees"]["count"] >= 1
        assert snap["histograms"]["oracle.chunk_bytes"]["total"] > 0

    def test_sweep_failure_records_seconds_and_phase(self):
        graphs = [graph_case(), "not a graph"]
        results = minimum_cut_many(
            graphs, SolverConfig(solver="oracle", trace=True), strict=False
        )
        failure = results[1]
        assert isinstance(failure, repro.SweepFailure)
        payload = failure.as_dict()
        assert payload["seconds"] >= 0.0
        assert payload["phase"]  # named, even without an error span
        assert metrics.snapshot() is not None
        json.dumps(payload)


# ----------------------------------------------------------------------
# Accountant helpers (PR 7 satellites)
# ----------------------------------------------------------------------
class TestAccountant:
    def test_snapshot_by_label_is_sorted(self):
        acct = RoundAccountant()
        for label in ("zeta", "alpha", "midway"):
            acct.charge(1, label)
        assert list(acct.snapshot()["by_label"]) == ["alpha", "midway", "zeta"]

    def test_merge_accountants_and_snapshots(self):
        a = RoundAccountant()
        a.charge(2, "x")
        a.record_message_bits(8)
        b = RoundAccountant()
        b.charge(3, "x")
        b.charge(1, "y")
        b.record_message_bits(32)
        merged = RoundAccountant().merge(a, b.snapshot())
        snap = merged.snapshot()
        assert snap["by_label"] == {"x": 5.0, "y": 1.0}
        assert snap["max_message_bits"] == 32
        # merge returns self for chaining
        assert merged.merge() is merged


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestProfileCLI:
    def test_profile_subcommand_prints_table(self, capsys, tmp_path):
        chrome = tmp_path / "trace.json"
        ndjson = tmp_path / "trace.ndjson"
        assert main([
            "profile", "--family", "gnm", "--n", "24", "--solver", "oracle",
            "--chrome", str(chrome), "--ndjson", str(ndjson),
        ]) == 0
        out = capsys.readouterr().out
        assert "min-cut value" in out
        assert "phase" in out and "rounds" in out
        assert "session.pack" in out and "session.solve" in out
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]
        assert all(
            json.loads(line)["name"]
            for line in ndjson.read_text().splitlines() if line
        )
        # the CLI pins tracing on for its run only
        assert not trace.enabled()
