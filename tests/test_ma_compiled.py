"""Compiled Minor-Aggregation backend: bit-identical to the closure engine.

The closure engine (:mod:`repro.ma.engine`) is the correctness reference;
:mod:`repro.ma.compiled` lowers whole rounds to array passes.  Every test
here runs the SAME schedule through both engines and asserts the
:class:`MARoundResult` contents and the :class:`RoundAccountant` ledgers
are identical — including on the fallback paths (non-numeric operators,
closure edge messages, ``measure_bits``), where the compiled engine
inherits the closure round body.

Run alone with ``pytest -m ma``.
"""

import random

import numpy as np
import pytest

import networkx as nx

from repro.accounting import RoundAccountant
from repro.errors import SolverError
from repro.graphs import csr_random_connected_gnm, random_connected_gnm
from repro.graphs.generators import CSR_FAMILY_BUILDERS
from repro.core.tree_packing import (
    default_tree_count,
    pack_trees,
    pack_trees_many,
)
from repro.trees.rooted import edge_key
from repro.ma import (
    AND,
    DICT_SUM,
    FIRST,
    MAX,
    MIN,
    OR,
    SUM,
    ArrayMessage,
    CompiledMinorAggregationEngine,
    MinorAggregationEngine,
    boruvka_mst,
)

pytestmark = pytest.mark.ma

FAMILIES = sorted(CSR_FAMILY_BUILDERS)
NUMERIC_OPS = {"sum": SUM, "min": MIN, "max": MAX, "or": OR, "and": AND}


def engine_pair(graph):
    """A (closure, compiled) engine pair with fresh accountants."""
    a_ref, a_cmp = RoundAccountant(), RoundAccountant()
    ref = MinorAggregationEngine(graph, accountant=a_ref)
    cmp_ = CompiledMinorAggregationEngine(graph, accountant=a_cmp)
    return ref, cmp_, a_ref, a_cmp


def assert_round_parity(ref, cmp_, a_ref, a_cmp, **round_kwargs):
    r1 = ref.round(**round_kwargs)
    r2 = cmp_.round(**round_kwargs)
    assert r1.supernode == r2.supernode
    assert r1.consensus == r2.consensus
    assert r1.aggregate == r2.aggregate
    assert a_ref.by_label() == a_cmp.by_label()
    assert a_ref.total == a_cmp.total
    return r1, r2


def random_schedule(rng, engine, steps=4):
    """A list of round() kwargs exercising every lowering path."""
    edges = [edge for edge, _u, _v in engine.edge_list]
    nodes = list(engine.node_list)
    schedule = []
    for _ in range(steps):
        kwargs = {}
        style = rng.choice(["none", "set", "predicate", "all"])
        if style == "set":
            kwargs["contract"] = set(
                rng.sample(edges, k=rng.randrange(0, min(len(edges), 7) + 1))
            )
        elif style == "predicate":
            threshold = rng.random()
            kwargs["contract"] = (
                lambda e, t=threshold: (hash(e) % 1000) / 1000.0 < t
            )
        elif style == "all":
            kwargs["contract"] = engine.edge_keys()
        op_name = rng.choice(sorted(NUMERIC_OPS))
        op = NUMERIC_OPS[op_name]
        input_style = rng.choice(["full", "partial", "callable", "none"])
        if op_name in ("or", "and"):
            value = lambda r: r.random() < 0.5
        else:
            value = lambda r: r.randrange(-20, 20)
        if input_style == "full":
            kwargs["node_input"] = {v: value(rng) for v in nodes}
        elif input_style == "partial":
            kwargs["node_input"] = {
                v: value(rng) for v in nodes if rng.random() < 0.6
            }
        elif input_style == "callable":
            offsets = {v: value(rng) for v in nodes}
            kwargs["node_input"] = lambda v, o=offsets: o[v]
        kwargs["consensus_op"] = op
        if rng.random() < 0.7:
            agg_name = rng.choice(sorted(NUMERIC_OPS))
            kwargs["aggregate_op"] = NUMERIC_OPS[agg_name]
            if rng.random() < 0.5:
                m = len(edges)
                kwargs["edge_message"] = ArrayMessage.constant(
                    np.arange(m, dtype=np.float64),
                    np.arange(m, dtype=np.float64) * -2.0,
                )
            else:
                kwargs["edge_message"] = ArrayMessage.vectorized(
                    lambda yu, yv: (yv, yu)
                )
                # skip_missing consensus + incomplete inputs can hand the
                # builder None values — invalid for the closure reference
                # too, so pin full coverage for vectorized messages.
                if op_name in ("min", "max") and input_style != "full":
                    kwargs["node_input"] = {v: value(rng) for v in nodes}
        schedule.append(kwargs)
    return schedule


class TestRandomizedParity:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_random_schedules(self, family):
        graph = CSR_FAMILY_BUILDERS[family](36, 0xA5)
        ref, cmp_, a_ref, a_cmp = engine_pair(graph)
        rng = random.Random(hash(family) & 0xFFFF)
        for kwargs in random_schedule(rng, ref, steps=5):
            assert_round_parity(ref, cmp_, a_ref, a_cmp, **kwargs)
        assert cmp_.compiled_rounds + cmp_.fallback_rounds == 5
        assert ref.rounds_executed == cmp_.rounds_executed == 5

    @pytest.mark.parametrize("seed", range(4))
    def test_gnm_deep_schedules(self, seed):
        graph = csr_random_connected_gnm(50, 140, seed=seed)
        ref, cmp_, a_ref, a_cmp = engine_pair(graph)
        rng = random.Random(seed)
        for kwargs in random_schedule(rng, ref, steps=8):
            assert_round_parity(ref, cmp_, a_ref, a_cmp, **kwargs)

    @pytest.mark.parametrize("op_name", sorted(NUMERIC_OPS))
    def test_every_numeric_operator_consensus(self, op_name):
        op = NUMERIC_OPS[op_name]
        graph = csr_random_connected_gnm(24, 60, seed=7)
        ref, cmp_, a_ref, a_cmp = engine_pair(graph)
        boolean = op_name in ("or", "and")
        inputs = {
            v: (v % 2 == 0) if boolean else float(v) - 11
            for v in ref.node_list
        }
        contract = {edge for edge, _u, _v in ref.edge_list[::3]}
        r1, _ = assert_round_parity(
            ref, cmp_, a_ref, a_cmp,
            contract=contract, node_input=inputs, consensus_op=op,
        )
        assert r1.consensus  # non-trivial round


class TestFallbackParity:
    def test_non_numeric_operator_falls_back(self):
        graph = csr_random_connected_gnm(18, 40, seed=3)
        ref, cmp_, a_ref, a_cmp = engine_pair(graph)
        inputs = {v: {v: 1} for v in ref.node_list}
        assert_round_parity(
            ref, cmp_, a_ref, a_cmp, node_input=inputs, consensus_op=DICT_SUM
        )
        assert cmp_.fallback_rounds == 1
        assert cmp_.compiled_rounds == 0

    def test_closure_edge_message_falls_back(self):
        graph = csr_random_connected_gnm(18, 40, seed=4)
        ref, cmp_, a_ref, a_cmp = engine_pair(graph)
        message = lambda e, u, v, yu, yv: (yu + 1, yv + 1)
        assert_round_parity(
            ref, cmp_, a_ref, a_cmp,
            node_input={v: 1 for v in ref.node_list},
            consensus_op=SUM, edge_message=message, aggregate_op=SUM,
        )
        assert cmp_.fallback_rounds == 1

    def test_object_dtype_inputs_fall_back(self):
        graph = csr_random_connected_gnm(12, 26, seed=5)
        ref, cmp_, a_ref, a_cmp = engine_pair(graph)
        inputs = {v: "x" * (v % 3 + 1) for v in ref.node_list}
        assert_round_parity(
            ref, cmp_, a_ref, a_cmp, node_input=inputs, consensus_op=FIRST
        )
        assert cmp_.fallback_rounds == 1

    def test_measure_bits_always_falls_back(self):
        graph = csr_random_connected_gnm(12, 26, seed=6)
        a_ref, a_cmp = RoundAccountant(), RoundAccountant()
        ref = MinorAggregationEngine(graph, accountant=a_ref, measure_bits=True)
        cmp_ = CompiledMinorAggregationEngine(
            graph, accountant=a_cmp, measure_bits=True
        )
        kwargs = dict(node_input={v: v for v in ref.node_list}, consensus_op=SUM)
        r1, r2 = ref.round(**kwargs), cmp_.round(**kwargs)
        assert r1.consensus == r2.consensus
        assert cmp_.fallback_rounds == 1
        assert a_ref.max_message_bits == a_cmp.max_message_bits

    def test_solver_error_raised_before_dispatch(self):
        graph = csr_random_connected_gnm(10, 20, seed=8)
        cmp_ = CompiledMinorAggregationEngine(graph)
        with pytest.raises(SolverError, match="consensus_op"):
            cmp_.round(
                edge_message=ArrayMessage.vectorized(lambda yu, yv: (yu, yv)),
                aggregate_op=SUM,
            )


class TestBoruvkaParity:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mst_and_ledger_identical(self, family):
        graph = CSR_FAMILY_BUILDERS[family](42, 19)
        a_ref, a_cmp = RoundAccountant(), RoundAccountant()
        m1 = boruvka_mst(MinorAggregationEngine(graph, accountant=a_ref))
        m2 = boruvka_mst(
            CompiledMinorAggregationEngine(graph, accountant=a_cmp)
        )
        assert m1 == m2
        assert a_ref.by_label() == a_cmp.by_label()

    def test_custom_edge_cost_parity(self):
        graph = csr_random_connected_gnm(30, 80, seed=21)
        cost = lambda edge: (hash(edge) % 997) / 10.0
        a_ref, a_cmp = RoundAccountant(), RoundAccountant()
        m1 = boruvka_mst(
            MinorAggregationEngine(graph, accountant=a_ref), edge_cost=cost
        )
        m2 = boruvka_mst(
            CompiledMinorAggregationEngine(graph, accountant=a_cmp),
            edge_cost=cost,
        )
        assert m1 == m2
        assert a_ref.by_label() == a_cmp.by_label()


def closure_greedy_packing(graph, num_trees, accountant):
    """Regime (A) greedy packing driven by the closure engine's
    ``boruvka_mst`` -- the reference the array packing kernel must match
    tree for tree and charge for charge."""
    engine = MinorAggregationEngine(graph, accountant=accountant)
    multiplicity = {
        edge: max(engine.edge_weight(edge), 1e-12)
        for edge, _u, _v in engine.edge_list
    }
    uses = dict.fromkeys(multiplicity, 0)
    trees, seen = [], set()
    for _ in range(num_trees):
        mst = boruvka_mst(
            engine,
            edge_cost=lambda e: uses[e] / multiplicity[e],
            label="packing:boruvka",
        )
        for edge in mst:
            uses[edge] += 1
        if frozenset(mst) not in seen:
            seen.add(frozenset(mst))
            trees.append(mst)
    return trees, num_trees - len(trees)


def assert_matches_closure(graph, packing, accountant):
    a_ref = RoundAccountant()
    trees, duplicates = closure_greedy_packing(
        graph, default_tree_count(graph.n), a_ref
    )
    labels = graph.node_labels()
    assert [
        {edge_key(labels[u], labels[v]) for u, v in zip(eu.tolist(), ev.tolist())}
        for eu, ev in packing.tree_edge_arrays
    ] == trees
    assert packing.duplicates_removed == duplicates
    assert accountant.by_label() == a_ref.by_label()


class TestPackingParity:
    """The array packing kernel against the closure engine's Boruvka.

    ``approx_cut_value=1.0`` pins regime (A) (no Stoer-Wagner charge, no
    sampling), so both sides pack the same weighted graph."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_pack_trees_backends_identical(self, family):
        graph = CSR_FAMILY_BUILDERS[family](36, 2)
        acct = RoundAccountant()
        packing = pack_trees(
            graph, seed=5, accountant=acct, approx_cut_value=1.0
        )
        assert not packing.sampled
        assert_matches_closure(graph, packing, acct)

    def test_pack_trees_many_closure_matches_fused(self):
        graphs = [csr_random_connected_gnm(20, 45, seed=s) for s in (1, 2)]
        many = pack_trees_many(graphs, [11, 12], approx_cut_values=[1.0, 1.0])
        for graph, packing, acct in zip(graphs, many.packings, many.accountants):
            assert_matches_closure(graph, packing, acct)


class TestBackendSelection:
    def test_compiled_engine_rejects_nx(self):
        graph = random_connected_gnm(10, 20, seed=1)
        with pytest.raises(SolverError):
            CompiledMinorAggregationEngine(graph)


class TestArrayMessage:
    def test_constant_length_mismatch_raises(self):
        graph = csr_random_connected_gnm(10, 20, seed=9)
        engine = CompiledMinorAggregationEngine(graph)
        bad = ArrayMessage.constant(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            engine.round(
                consensus_op=FIRST, edge_message=bad, aggregate_op=SUM
            )

    def test_constant_matches_closure_lookup(self):
        graph = csr_random_connected_gnm(14, 30, seed=10)
        ref, cmp_, a_ref, a_cmp = engine_pair(graph)
        m = len(ref.edge_list)
        message = ArrayMessage.constant(
            np.linspace(0.0, 1.0, m), np.linspace(1.0, 0.0, m)
        )
        assert_round_parity(
            ref, cmp_, a_ref, a_cmp,
            contract={edge for edge, _u, _v in ref.edge_list[::4]},
            consensus_op=FIRST, edge_message=message, aggregate_op=SUM,
        )
