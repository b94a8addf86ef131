"""Round accounting: sequential sum, parallel max, virtual overhead scopes."""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from repro.accounting import CostModel, RoundAccountant, log2ceil, log_star


class TestLogHelpers:
    def test_log2ceil_basics(self):
        assert log2ceil(2) == 1
        assert log2ceil(3) == 2
        assert log2ceil(4) == 2
        assert log2ceil(1024) == 10
        assert log2ceil(1025) == 11

    def test_log2ceil_clamps_small(self):
        assert log2ceil(0) == 1
        assert log2ceil(1) == 1

    def test_log_star_growth(self):
        # Our log* iterates log2 until the value drops to 2.
        assert log_star(2) == 1
        assert log_star(16) == 2
        assert log_star(65536) == 3
        assert log_star(2 ** 65536) <= 5
        assert log_star(10 ** 9) <= log_star(2 ** 65536)

    def test_log_star_tiny(self):
        assert log_star(1) == 1


class TestCostModel:
    def test_prefix_sum_is_log(self):
        cost = CostModel()
        assert cost.prefix_sum(8) == 3
        assert cost.prefix_sum(1000) == 10

    def test_subtree_sum_polylog(self):
        cost = CostModel()
        n = 1 << 16
        assert cost.subtree_sum(n) <= 40 * log2ceil(n) ** 2

    def test_formulas_monotone_in_n(self):
        cost = CostModel()
        for method in ("prefix_sum", "subtree_sum", "hld", "centroid", "one_respecting"):
            values = [getattr(cost, method)(n) for n in (4, 16, 256, 4096)]
            assert values == sorted(values), method

    def test_scale_multiplier(self):
        acct = RoundAccountant(CostModel(scale=2.0))
        acct.charge(3)
        assert acct.total == 6.0

    def test_edge_coloring_cost_grows_with_degree(self):
        cost = CostModel()
        assert cost.edge_coloring(1, 100) < cost.edge_coloring(8, 100)


class TestRoundAccountant:
    def test_sequential_sum(self):
        acct = RoundAccountant()
        acct.charge(2, "a")
        acct.charge(3, "b")
        assert acct.total == 5.0
        assert acct.by_label() == {"a": 2.0, "b": 3.0}

    def test_negative_charge_rejected(self):
        acct = RoundAccountant()
        with pytest.raises(ValueError):
            acct.charge(-1)

    def test_parallel_takes_max(self):
        acct = RoundAccountant()
        with acct.parallel() as par:
            with par.branch():
                acct.charge(5)
            with par.branch():
                acct.charge(2)
            with par.branch():
                acct.charge(4)
        assert acct.total == 5.0

    def test_parallel_empty_contributes_zero(self):
        acct = RoundAccountant()
        with acct.parallel():
            pass
        assert acct.total == 0.0

    def test_nested_parallel(self):
        acct = RoundAccountant()
        with acct.parallel() as outer:
            with outer.branch():
                acct.charge(1)
                with acct.parallel() as inner:
                    with inner.branch():
                        acct.charge(10)
                    with inner.branch():
                        acct.charge(3)
            with outer.branch():
                acct.charge(6)
        # branch 1 costs 1 + max(10, 3) = 11; branch 2 costs 6.
        assert acct.total == 11.0

    def test_sequential_after_parallel(self):
        acct = RoundAccountant()
        with acct.parallel() as par:
            with par.branch():
                acct.charge(4)
        acct.charge(1)
        assert acct.total == 5.0

    def test_virtual_overhead_multiplies(self):
        acct = RoundAccountant()
        with acct.virtual_overhead(3):
            acct.charge(2)
        assert acct.total == 8.0  # (beta + 1) * rounds

    def test_virtual_overhead_beta_zero_is_identity(self):
        acct = RoundAccountant()
        with acct.virtual_overhead(0):
            acct.charge(7)
        assert acct.total == 7.0

    def test_virtual_overhead_nested_stacks(self):
        acct = RoundAccountant()
        with acct.virtual_overhead(1):
            with acct.virtual_overhead(2):
                acct.charge(1)
        assert acct.total == 6.0

    def test_virtual_overhead_negative_beta_rejected(self):
        acct = RoundAccountant()
        with pytest.raises(ValueError):
            with acct.virtual_overhead(-1):
                pass

    def test_overhead_inside_parallel_branch(self):
        acct = RoundAccountant()
        with acct.parallel() as par:
            with par.branch():
                with acct.virtual_overhead(4):
                    acct.charge(2)
            with par.branch():
                acct.charge(3)
        assert acct.total == 10.0

    def test_snapshot_structure(self):
        acct = RoundAccountant()
        acct.charge(1, "x")
        acct.record_message_bits(99)
        snap = acct.snapshot()
        assert snap["total_rounds"] == 1.0
        assert snap["by_label"] == {"x": 1.0}
        assert snap["max_message_bits"] == 99

    def test_message_bits_keeps_max(self):
        acct = RoundAccountant()
        acct.record_message_bits(10)
        acct.record_message_bits(5)
        assert acct.max_message_bits == 10


class _GeneratorScope:
    """The parallel scope as a ``@contextmanager`` generator (reference)."""

    def __init__(self):
        self.branch_totals = []
        self.current = 0.0

    @contextmanager
    def branch(self):
        self.current = 0.0
        yield
        self.branch_totals.append(self.current)
        self.current = 0.0


class _GeneratorLedger(RoundAccountant):
    """The composition scopes as generators: the behaviour the class-based
    scopes must keep, also when a body raises."""

    @contextmanager
    def virtual_overhead(self, beta):
        if beta < 0:
            raise ValueError("beta must be non-negative")
        self._multiplier_stack.append(beta + 1)
        try:
            yield
        finally:
            self._multiplier_stack.pop()

    @contextmanager
    def parallel(self):
        scope = _GeneratorScope()
        self._parallel_stack.append(scope)
        try:
            yield scope
        finally:
            self._parallel_stack.pop()
            contribution = max(scope.branch_totals, default=0.0)
            if self._parallel_stack:
                self._parallel_stack[-1].current += contribution
            else:
                self._total += contribution


class _Boom(Exception):
    pass


def _scripted(acct, fail_at):
    """Nested scopes charging odd amounts; raises at step ``fail_at``."""

    def step(name, rounds):
        if name == fail_at:
            raise _Boom(name)
        acct.charge(rounds, name)

    step("head", 1.5)
    with acct.virtual_overhead(2):
        step("overhead", 0.7)
        with acct.parallel() as par:
            with par.branch():
                step("branch-a", 3.25)
            step("between-branches", 0.1)
            with par.branch():
                step("branch-b", 1.0)
                with acct.parallel() as inner:
                    with inner.branch():
                        step("inner", 4.5)
                    with inner.branch():
                        with acct.virtual_overhead(1):
                            step("inner-overhead", 2.0)
                step("branch-b-tail", 0.3)
    step("tail", 1.0)


class TestScopesWhenTheBodyRaises:
    @pytest.mark.parametrize(
        "fail_at",
        [
            None, "head", "overhead", "branch-a", "between-branches",
            "branch-b", "inner", "inner-overhead", "branch-b-tail", "tail",
        ],
    )
    def test_match_the_generator_scopes(self, fail_at):
        ledgers = []
        for acct in (RoundAccountant(), _GeneratorLedger()):
            try:
                _scripted(acct, fail_at)
            except _Boom:
                assert fail_at is not None
            # The stacks are balanced and the ledger keeps charging.
            assert acct._multiplier_stack == []
            assert acct._parallel_stack == []
            acct.charge(0.25, "after")
            ledgers.append((acct.total, acct.by_label()))
        assert ledgers[0] == ledgers[1]

    def test_failed_branch_records_no_total(self):
        acct = RoundAccountant()
        with pytest.raises(_Boom):
            with acct.parallel() as par:
                with par.branch():
                    acct.charge(2)
                with par.branch():
                    acct.charge(9)
                    raise _Boom
        # The finished branch's 2 rounds count, the failed branch's 9 do not.
        assert acct.total == 2.0
        assert acct.by_label() == {"rounds": 11.0}

    def test_overhead_popped_when_the_body_raises(self):
        acct = RoundAccountant()
        with pytest.raises(_Boom):
            with acct.virtual_overhead(3):
                acct.charge(1)
                raise _Boom
        acct.charge(1)
        assert acct.total == 5.0


class TestTabledFormulas:
    def test_tabled_values_are_the_formulas(self):
        cost = CostModel()
        for n in list(range(0, 70)) + [1000, 1 << 20]:
            levels = log2ceil(n) + 1
            subtree = levels * (1 + max(1, log2ceil(max(2, n))))
            hld = log2ceil(n) * (log_star(n) + 3 + 2 * subtree)
            for _ in range(2):  # computed, then read back from the table
                assert cost.subtree_sum(n) == subtree
                assert cost.ancestor_sum(n) == subtree
                assert cost.centroid(n) == subtree + 3
                assert cost.hld(n) == hld
                assert cost.one_respecting(n) == hld + 2 + 2 * subtree
                assert cost.edge_coloring(3, n) == 3 * (3 + log_star(n))
        assert cost.prefix_sum(length=8) == 3

    def test_subclass_override_charges_its_own_values(self):
        class Doubled(CostModel):
            def subtree_sum(self, n):
                return 2 * super().subtree_sum(n)

        base = CostModel()
        before = base.centroid(64)  # fills the base instance's table first
        doubled = Doubled()
        assert doubled.subtree_sum(64) == 2 * base.subtree_sum(64)
        # Formulas built on the override see it, table or not.
        assert doubled.centroid(64) == 2 * base.subtree_sum(64) + 3
        assert doubled.centroid(64) != before
        assert base.centroid(64) == before
        acct = RoundAccountant(doubled)
        acct.charge(acct.cost.one_respecting(64), "one-respecting")
        assert doubled.hld(64) == base.hld(64) + 2 * log2ceil(64) * base.subtree_sum(64)
        assert acct.total == doubled.hld(64) + 2 + 2 * doubled.subtree_sum(64)

    def test_tables_are_per_instance(self):
        @dataclass
        class Padded(CostModel):
            pad: int = 0

            def prefix_sum(self, length):
                return super().prefix_sum(length) + self.pad

        one, five = Padded(pad=1), Padded(pad=5)
        assert one.subtree_sum(32) != five.subtree_sum(32)
        assert five.subtree_sum(32) - one.subtree_sum(32) == 4 * (log2ceil(32) + 1)
        assert Padded(pad=1) == one  # the table takes no part in equality

    def test_scale_applies_only_when_charging(self):
        scaled = CostModel(scale=2.5)
        assert scaled.subtree_sum(64) == CostModel().subtree_sum(64)
        acct = RoundAccountant(scaled)
        acct.charge(acct.cost.subtree_sum(64), "subtree")
        acct.charge(acct.cost.subtree_sum(64), "subtree")
        assert acct.total == 2 * 2.5 * CostModel().subtree_sum(64)
        assert repr(scaled) == "CostModel(scale=2.5)"
