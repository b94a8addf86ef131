"""The session API: ``SolverConfig``, ``MinCutSolver``, ``minimum_cut_many``.

The pipeline of Theorem 1 is naturally staged -- tree packing (Theorem
12), per-tree 2-respecting solves (Theorems 18/40), witness extraction and
round accounting -- and the historical ``minimum_cut()`` call re-derived
every stage per invocation with its two solvers hard-coded behind string
compares.  This module is the redesigned public surface:

* :class:`SolverConfig` -- one frozen value object for every knob that
  used to be scattered across keyword arguments and ``REPRO_*``
  environment variables (solver name, tree count, batched-solve scratch
  budget, CONGEST estimates on/off, tracing).
* :class:`MinCutSolver` -- a reusable session bound to a config.
  ``solve(graph)`` runs the full pipeline; ``pack(graph)`` returns a
  :class:`GraphPacking` handle whose Theorem 12 packing can be solved
  under *multiple* solver names (or re-solved into fresh accountants)
  without repacking.
* the **solver registry** (:mod:`repro.core.registry`) -- the paper's
  ``minor-aggregation`` recursion, the centralized ``oracle``, and the
  first-class ``stoer-wagner`` / ``karger`` baselines all register here
  and return one uniform :class:`~repro.core.mincut.MinCutResult`;
  :func:`~repro.core.registry.register_solver` adds external entries
  that the CLI's ``--solver`` flag picks up automatically.
* :func:`minimum_cut_many` -- the batched many-graph entrypoint.  For
  sweeps under the ``oracle`` solver it amortizes the whole
  pipeline across graphs: one concatenated-table tree packing
  (:func:`~repro.core.tree_packing.pack_trees_many`), then rounds of
  one stacked BFS/Euler forest build (:mod:`repro.kernel.forest`) and
  chunked stacked-tensor oracle passes (:mod:`repro.kernel.batched`)
  over every graph's next batch of trees -- with results bit-identical
  to looping ``minimum_cut`` (asserted by the test suite).

Every ``oracle`` solve -- ``MinCutSolver.solve``, a sweep, a serve
re-solve of a cached packing, the sweep's per-graph retry and the
per-tree budget fallback -- runs one loop, :func:`_oracle_schedules`
(a single graph is a batch of one).  It solves the packed trees in
order, roots only the trees it reaches, stops once no later tree can
change the winner (:mod:`repro.core.tree_schedule`) and reads the
witness off the winning tree's stack row; no oracle solve builds a
:class:`~repro.trees.rooted.RootedTree`.

``minimum_cut()`` survives as a thin wrapper over a default session and
stays bit-identical -- value, witness, partition, *and* round ledger --
to its historical behaviour.

Networkx only at the boundary: ``pack``, ``minimum_cut_many`` and its
certify step convert a networkx input once with
:meth:`CSRGraph.from_networkx`, so every stage behind them -- the
packing handle, validation, the registered solvers, finalize -- sees a
:class:`~repro.graphs.csr.CSRGraph` and nothing else.
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.accounting import RoundAccountant
from repro.core.cut_values import CutCandidate
from repro.core.mincut import (
    MinCutResult,
    _empty_packing,
    _relabel,
    _two_node_cut_csr,
)
from repro.core.registry import SolverEntry, get_solver, register_solver
from repro.core.tree_packing import ManyPacking, pack_trees, pack_trees_many
from repro.core.tree_schedule import TreeSchedule, stop_value
from repro.errors import (
    BudgetExceeded,
    GraphValidationError,
    NumericalRangeError,
    PackingError,
)
from repro.graphs.csr import CSRGraph, as_csr
from repro.kernel.batched import (
    OracleJob,
    _chunk_size,
    batched_two_respecting_oracle,
    batched_two_respecting_oracle_many,
    parse_batch_bytes,
    stack_candidates,
)
from repro.kernel.cut_kernel import (
    GraphArrays,
    cover_dict,
    partition_cut_weight_arrays,
    stacked_covers,
)
from repro.kernel.forest import stacked_tree_arrays
from repro.ma.simulation import congest_estimates
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.profile import build_profile
from repro.trees.rooted import RootedTree, _node_sort_key, edge_key

__all__ = [
    "SolverConfig",
    "MinCutSolver",
    "GraphPacking",
    "SweepFailure",
    "minimum_cut_many",
]

@dataclass(frozen=True)
class SolverConfig:
    """Frozen bundle of every pipeline knob.

    Parameters
    ----------
    solver:
        Registry name of the solver ``solve()`` dispatches to; see
        :func:`~repro.core.registry.registered_solvers`.
    num_trees:
        Override for the Theorem 12 packing size (default Θ(log n)).
    batch_bytes:
        Scratch budget for the stacked-tensor batched oracle;
        ``None`` inherits ``REPRO_BATCH_BYTES`` (default 256 MiB).  A
        pinned budget is a hard cap: below one stacked tree's
        ``32 * (n + 1)**2`` bytes the oracle degrades to per-tree
        solves (recorded in ``stats["degraded"]``).  The inherited
        budget is advisory and clamps to 1-tree chunks instead.
        :meth:`from_env` turns the ``REPRO_BATCH_BYTES`` value into a
        pinned budget.
    compute_congest:
        Whether results carry the Theorem 17 CONGEST estimates.  Only
        meaningful for solvers that execute Minor-Aggregation rounds;
        centralized baselines (``stoer-wagner``, ``karger``) always
        report ``congest=None``.
    trace:
        Tri-state observability switch (:mod:`repro.obs`): ``None``
        inherits the ambient ``REPRO_TRACE`` setting, ``True``/``False``
        pin span recording on/off for this session's solves.  Enabled
        solves additionally attach ``stats["profile"]`` (a per-phase
        table joining seconds, peak array bytes, and paper-rounds);
        results themselves stay bit-identical either way.
    """

    solver: str = "minor-aggregation"
    num_trees: int | None = None
    batch_bytes: int | None = None
    compute_congest: bool = True
    trace: bool | None = None

    def __post_init__(self):
        if self.num_trees is not None and self.num_trees < 1:
            raise ValueError("num_trees must be positive")
        if self.batch_bytes is not None and self.batch_bytes < 1:
            raise ValueError("batch_bytes must be positive")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_env(
        cls, env: "Mapping[str, str] | None" = None, **overrides
    ) -> "SolverConfig":
        """Capture the ``REPRO_*`` environment knobs into an explicit config.

        ``REPRO_BATCH_BYTES`` and ``REPRO_TRACE`` become ``batch_bytes``
        / ``trace`` (absent, unparsable or non-positive values stay
        ``None`` = inherit at run time); keyword overrides win.
        """
        env = os.environ if env is None else env
        fields: dict = {}
        batch_bytes = parse_batch_bytes(env.get("REPRO_BATCH_BYTES"))
        if batch_bytes is not None:
            fields["batch_bytes"] = batch_bytes
        raw = env.get("REPRO_TRACE")
        if raw is not None:
            fields["trace"] = obs_trace.parse_trace_flag(raw)
        fields.update(overrides)
        return cls(**fields)

    @classmethod
    def from_args(cls, args) -> "SolverConfig":
        """Build a config from CLI-style arguments (argparse namespace).

        Starts from :meth:`from_env` so environment knobs flow through
        CLI runs, then applies ``--solver`` / ``--trees`` (and
        ``--no-congest`` where the subcommand defines it).  ``--backend``
        is not a solver setting: it picks the graph the CLI builds.
        """
        overrides: dict = {}
        for field, attr in (("solver", "solver"), ("num_trees", "trees")):
            value = getattr(args, attr, None)
            if value is not None:
                overrides[field] = value
        if getattr(args, "no_congest", False):
            overrides["compute_congest"] = False
        return cls.from_env(**overrides)

    def replace(self, **changes) -> "SolverConfig":
        """A copy with the given fields changed (configs are frozen)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        """Plain-dict view (JSON-friendly; the CLI ``sweep`` emits it)."""
        return dataclasses.asdict(self)

    def _trace_scope(self):
        if self.trace is None:
            return nullcontext()
        return obs_trace.tracing(self.trace)


class GraphPacking:
    """A CSR graph validated and (lazily) packed under one session config.

    The handle owns everything ``minimum_cut`` used to recompute per
    call: the Theorem 12 tree packing, the shared
    :class:`~repro.kernel.cut_kernel.GraphArrays` extraction, the
    stacked BFS/Euler forest of the packed trees, and the rooted
    per-tree views.  ``solve()`` may be called repeatedly -- with
    different solver names, or fresh accountants -- without repacking;
    the packing's round charges are recorded once and replayed onto
    every later accountant, so each solve reports the same ledger a
    fresh end-to-end run would.

    Solvers that don't consume a packing (the centralized baselines)
    never trigger it -- ``pack`` is lazy.
    """

    def __init__(
        self,
        config: SolverConfig,
        csr: CSRGraph,
        seed: int,
        num_trees: int | None,
        accountant: RoundAccountant | None,
        trivial: MinCutResult | None = None,
    ):
        self.config = config
        self.csr = csr
        self.seed = seed
        self.num_trees = num_trees
        self._origin_acct = accountant
        self._origin_used = False
        self._trivial = trivial
        self._packing = None
        self._packing_charges: dict[str, float] | None = None
        self._arrays: GraphArrays | None = None
        self._stack = None
        self._rooted: dict[int, RootedTree] = {}

    # ------------------------------------------------------------------
    # Lazily computed pipeline state
    # ------------------------------------------------------------------
    @property
    def packing(self):
        """The Theorem 12 tree packing (computed on first access)."""
        if self._packing is None:
            if self._trivial is not None:
                raise PackingError("two-node graphs have no tree packing")
            acct = self._origin_acct or RoundAccountant()
            self._origin_acct = acct
            before = acct.by_label()
            with self.config._trace_scope():
                with obs_trace.span(
                    "session.pack", seed=self.seed, acct_prefix="packing:"
                ):
                    self._packing = pack_trees(
                        self.csr,
                        seed=self.seed,
                        num_trees=self.num_trees,
                        accountant=acct,
                    )
            after = acct.by_label()
            self._packing_charges = {
                label: after[label] - before.get(label, 0.0)
                for label in after
                if after[label] != before.get(label, 0.0)
            }
        return self._packing

    def adopt_packing(self, packing, ledger: dict) -> None:
        """Take a packing computed elsewhere (a fused sweep's) instead of
        packing again, with the ``packing:*`` charges of ``ledger`` (a
        :meth:`RoundAccountant.snapshot` that holds them), so solves
        replay the ledger a cold end-to-end run reports."""
        charges = {
            label: rounds
            for label, rounds in ledger["by_label"].items()
            if label.startswith("packing:")
        }
        origin = RoundAccountant()
        origin.absorb(charges)
        origin.max_message_bits = ledger["max_message_bits"]
        self._packing = packing
        self._packing_charges = charges
        self._origin_acct = origin

    @property
    def arrays(self) -> GraphArrays:
        """Shared edge arrays (extracted once, after the packing -- the
        same stage order, and hence the same error order, as the
        historical pipeline)."""
        if self._arrays is None:
            self.packing  # noqa: B018 -- packing errors surface first
            with obs_trace.span("session.arrays") as sp:
                self._arrays = GraphArrays.from_csr(self.csr)
                sp.set(bytes=self._arrays.nbytes)
        return self._arrays

    @property
    def root_position(self) -> int:
        """Node index every packed tree is rooted at (:func:`_root_position`)."""
        return _root_position(self.csr.nodes)

    @property
    def stack(self):
        """Every packed tree as one stacked BFS/Euler forest over node
        indices, rooted at the session root (built on first use).  The
        minor-aggregation solver's covers and witness read it; the oracle
        builds only the trees its schedule reaches, batch by batch
        (:func:`_oracle_schedules`)."""
        if self._stack is None:
            (self._stack,) = stacked_tree_arrays(
                [self.csr.n],
                [self.packing.tree_edge_arrays],
                [self.root_position],
            )
        return self._stack

    def rooted_tree(self, index: int) -> RootedTree:
        """Packed tree ``index`` over node indices, rooted at the session
        root (built on first use; only the minor-aggregation recursion
        reads it -- no oracle solve roots a :class:`RootedTree`)."""
        if index not in self._rooted:
            self._rooted[index] = self.packing.rooted_tree(
                index, self.root_position
            )
        return self._rooted[index]

    @property
    def rooted_trees(self) -> list[RootedTree]:
        """Every packed tree rooted at the session root."""
        return [
            self.rooted_tree(i)
            for i in range(len(self.packing.tree_edge_arrays))
        ]

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        solver: str | None = None,
        accountant: RoundAccountant | None = None,
        compute_congest: bool | None = None,
    ) -> MinCutResult:
        """Run a registered solver over this packing.

        ``solver`` defaults to the session config's; repeated calls
        reuse the packing (and its recorded round charges) instead of
        repacking.
        """
        if self._trivial is not None:
            return self._trivial
        name = solver if solver is not None else self.config.solver
        entry = get_solver(name)
        with self.config._trace_scope():
            # Mark before the accountant setup: it triggers the lazy
            # packing, whose spans belong in this solve's profile.
            position = obs_trace.mark() if obs_trace.enabled() else None
            ctx = SolveContext(
                accountant=self._solve_accountant(accountant, entry),
                compute_congest=(
                    self.config.compute_congest
                    if compute_congest is None
                    else compute_congest
                ),
                solver=name,
            )
            if position is None:
                return entry.fn(self, ctx)
            with obs_trace.span(
                "session.solve", solver=name, seed=self.seed, n=self.csr.n
            ) as root:
                ctx.span = root
                result = entry.fn(self, ctx)
            # Everything this thread recorded during the solve (the pack
            # subtree is a sibling of the root span, not a child).
            spans = [
                record
                for record in obs_trace.records_since(position)
                if record.thread_id == root.thread_id
            ]
            result.stats["profile"] = build_profile(
                spans, ctx.accountant, dropped=obs_trace.dropped()
            )
            return result

    def _solve_accountant(
        self, accountant: RoundAccountant | None, entry: SolverEntry
    ) -> RoundAccountant:
        if not entry.uses_packing:
            return accountant or RoundAccountant()
        self.packing  # noqa: B018 -- ensure charges are recorded
        use_origin = (
            accountant is None and not self._origin_used
        ) or accountant is self._origin_acct
        if use_origin:
            self._origin_used = True
            return self._origin_acct
        acct = accountant or RoundAccountant()
        acct.absorb(self._packing_charges or {})
        return acct

    # ------------------------------------------------------------------
    # Result assembly (shared by every packing-based solver)
    # ------------------------------------------------------------------
    def finalize(
        self,
        candidates: "Sequence[tuple[int, CutCandidate]]",
        ctx: "SolveContext",
        solve_stats=None,
        cut_side=None,
    ) -> MinCutResult:
        """Select the best per-tree candidate and materialise the witness.

        ``candidates`` pairs each solved tree's packed index with its
        candidate, in solve order.  ``solve_stats`` (a dict) becomes
        ``result.stats["general_solver"]``.  ``cut_side(index, edges)``
        gives the winner's side; by default it is read off the all-trees
        :attr:`stack`.
        """
        return _finalize_candidates(
            csr=self.csr,
            arrays=self.arrays,
            packing=self.packing,
            cut_side=cut_side or self.stack.cut_side,
            candidates=candidates,
            acct=ctx.accountant,
            compute_congest=ctx.compute_congest,
            solver_name=ctx.solver,
            solve_stats=solve_stats,
        )

    def finalize_partition(
        self, side: frozenset, ctx: "SolveContext", in_label_space: bool = False
    ) -> MinCutResult:
        """Wrap a node bipartition (a packing-free solver's output).

        ``side`` is one side of the cut -- in CSR index space unless
        ``in_label_space`` says the solver worked on labelled nodes.
        The value and crossing edges are recomputed from the partition,
        so the reported cut is consistent by construction.

        ``congest`` is always ``None`` here, regardless of
        ``compute_congest``: the Theorem 17 estimates compile a
        Minor-Aggregation round count down to CONGEST, and a centralized
        baseline executes no Minor-Aggregation rounds to compile.
        """
        labels = self.csr.nodes
        if in_label_space and labels is not None:
            side = frozenset(self.csr.index_of(label) for label in side)
        if self._arrays is None:
            self._arrays = GraphArrays.from_csr(self.csr)
        value, crossing = partition_cut_weight_arrays(self._arrays, side)
        other = frozenset(set(range(self.csr.n)) - side)
        candidate = CutCandidate(value=value, edges=())
        if labels is not None:
            side = frozenset(labels[i] for i in side)
            other = frozenset(labels[i] for i in other)
            crossing = [edge_key(labels[u], labels[v]) for u, v in crossing]
        return MinCutResult(
            value=value,
            partition=(side, other),
            cut_edges=crossing,
            candidate=candidate,
            best_tree_index=-1,
            packing=_empty_packing(value),
            ma_rounds=ctx.accountant.total,
            congest=None,
            solver=ctx.solver,
            stats={"accountant": ctx.accountant.snapshot(), "trees": 0},
        )


@dataclass
class SolveContext:
    """Per-solve state handed to registry solver functions."""

    accountant: RoundAccountant
    compute_congest: bool
    solver: str
    #: the ``session.solve`` span of a traced solve (attributes only).
    span: object = obs_trace.NULL_SPAN


class MinCutSolver:
    """A reusable min-cut session bound to a :class:`SolverConfig`.

    >>> solver = MinCutSolver(SolverConfig(solver="oracle"))
    >>> result = solver.solve(graph, seed=3)          # full pipeline
    >>> packed = solver.pack(graph, seed=3)           # staged
    >>> a = packed.solve()                            # config's solver
    >>> b = packed.solve("minor-aggregation")         # same packing
    """

    def __init__(self, config: SolverConfig | None = None, **overrides):
        base = config if config is not None else SolverConfig()
        if overrides:
            base = base.replace(**overrides)
        self.config = base

    def pack(
        self,
        graph: "object | CSRGraph",
        seed: int = 0,
        num_trees: int | None = None,
        accountant: RoundAccountant | None = None,
    ) -> GraphPacking:
        """Validate ``graph`` and return the (lazily packed) session handle."""
        csr = as_csr(graph)
        return self._packing(
            csr, seed, num_trees, accountant, trivial=_validate_graph(csr)
        )

    def _packing(
        self,
        csr: CSRGraph,
        seed: int,
        num_trees: int | None,
        accountant: RoundAccountant | None,
        trivial: MinCutResult | None,
    ) -> GraphPacking:
        """The session handle of an already validated graph (``trivial``
        is what :func:`_validate_graph` returned for it)."""
        return GraphPacking(
            config=self.config,
            csr=csr,
            seed=seed,
            num_trees=num_trees if num_trees is not None else self.config.num_trees,
            accountant=accountant,
            trivial=trivial,
        )

    def solve(
        self,
        graph: "object | CSRGraph",
        seed: int = 0,
        solver: str | None = None,
        num_trees: int | None = None,
        accountant: RoundAccountant | None = None,
        compute_congest: bool | None = None,
    ) -> MinCutResult:
        """Pack and solve in one call (what ``minimum_cut`` wraps)."""
        packed = self.pack(
            graph, seed=seed, num_trees=num_trees, accountant=accountant
        )
        return packed.solve(
            solver=solver,
            accountant=accountant,
            compute_congest=compute_congest,
        )

    def solve_many(
        self,
        graphs: Sequence,
        seeds: "int | Sequence[int]" = 0,
    ) -> list[MinCutResult]:
        """Batched sweep over ``graphs`` -- see :func:`minimum_cut_many`."""
        return minimum_cut_many(graphs, config=self.config, seeds=seeds)


def _validate_graph(csr: CSRGraph) -> MinCutResult | None:
    """Shared input validation; returns the trivial result of a two-node
    graph (``None`` otherwise).

    Every caller (``pack``, ``minimum_cut_many``) raises the same
    :class:`~repro.errors.GraphValidationError` with the numbers a user
    needs to act on (node count, component count).
    """
    n = csr.n
    if n < 2:
        raise GraphValidationError(
            f"minimum cut needs at least two nodes, got a graph with {n}"
        )
    if not csr.is_connected():
        components = len(np.unique(csr.connected_components()))
        raise GraphValidationError(
            f"graph must be connected: {n} nodes form {components} "
            "connected components (every cut of a disconnected graph is "
            "trivially 0; solve each component separately)"
        )
    return _two_node_cut_csr(csr) if n == 2 else None


def _finalize_candidates(
    csr: CSRGraph,
    arrays: GraphArrays,
    packing,
    cut_side,
    candidates: "Sequence[tuple[int, CutCandidate]]",
    acct: RoundAccountant,
    compute_congest: bool,
    solver_name: str,
    solve_stats=None,
) -> MinCutResult:
    with obs_trace.span(
        "session.finalize", solver=solver_name, trees=len(candidates)
    ):
        best: CutCandidate | None = None
        best_index = -1
        for index, candidate in candidates:
            if candidate.better_than(best):
                best = candidate
                best_index = index
        assert best is not None
        side = cut_side(best_index, best.edges)
        value, crossing = partition_cut_weight_arrays(arrays, side)
        # Relative tolerance: candidate values come from prefix-sum/matrix
        # accumulation whose float error scales with total graph weight,
        # while the partition weight sums only the crossing edges.
        if abs(value - best.value) > 1e-6 * max(1.0, abs(value)):
            raise NumericalRangeError(
                f"cut witness inconsistent: candidate {best.value}, partition "
                f"{value} (float cancellation over the graph's weight range)",
                candidate_value=best.value,
                partition_value=value,
            )
        other = frozenset(set(range(csr.n)) - side)

        congest = None
        if compute_congest:
            with obs_trace.span("finalize.diameter", n=csr.n):
                diameter = csr.diameter()
            congest = congest_estimates(acct.total, n=csr.n, diameter=diameter)

        stats: dict = {
            "accountant": acct.snapshot(),
            "trees": len(packing.tree_edge_arrays),
        }
        if solve_stats is not None:
            stats["general_solver"] = dict(solve_stats)

        if csr.nodes is not None:
            # Map the index-space witness back onto the graph's labels.
            labels = csr.nodes
            side = frozenset(labels[i] for i in side)
            other = frozenset(labels[i] for i in other)
            crossing = [edge_key(labels[u], labels[v]) for u, v in crossing]
            best = _relabel(best, labels)

        return MinCutResult(
            value=value,
            partition=(side, other),
            cut_edges=crossing,
            candidate=best,
            best_tree_index=best_index,
            packing=packing,
            ma_rounds=acct.total,
            congest=congest,
            solver=solver_name,
            stats=stats,
        )


# ----------------------------------------------------------------------
# Registered solvers
# ----------------------------------------------------------------------
@register_solver(
    "minor-aggregation",
    description="the paper's 2-respecting recursion with full round accounting",
)
def _solve_minor_aggregation(packed: GraphPacking, ctx: SolveContext) -> MinCutResult:
    from repro.core.edge_table import edge_table
    from repro.core.general import two_respecting_min_cut
    from repro.core.leaves import LeafBatch

    # The recursion runs on ordered edge tables; the graph's table is read
    # once per solve and shared by every packed tree.  It breaks ties in
    # node-label space, so a labelled graph runs it on label-space views
    # of the CSR arrays (edge table, arrays, rooted trees) and its
    # candidates return to index space for finalize.
    csr = packed.csr
    labels = csr.nodes
    table = edge_table(csr, labelled=True)
    if labels is None:
        arrays, trees = packed.arrays, packed.rooted_trees
    else:
        packing = packed.packing
        arrays = GraphArrays.from_csr(csr, labelled=True)
        root = labels[packed.root_position]
        trees = [
            packing.rooted_tree(index, root, labelled=True)
            for index in range(len(packing.tree_edge_arrays))
        ]
    acct = ctx.accountant
    # Theorem 18's Cov(e) for every packed tree in one stacked pass; a
    # stack row is indexed like its tree's BFS order in either space.
    with obs_trace.span("ma.covers", trees=len(trees)):
        covers = stacked_covers(packed.stack, arrays)
    # Every tree's recursion leaves go into one batch, evaluated once
    # after the last tree (the ``ma.leaves`` span).
    leaves = LeafBatch()
    results = []
    for index, rooted in enumerate(trees):
        with obs_trace.span(
            "ma.two_respecting",
            tree=index,
            acct_prefix=(
                "general:", "one-respecting", "path-to-path:",
                "star:", "subtree:",
            ),
        ):
            results.append(
                two_respecting_min_cut(
                    csr, rooted, accountant=acct, arrays=arrays, table=table,
                    leaves=leaves, cov=cover_dict(rooted, covers[index]),
                )
            )
    leaves.flush()
    candidates = [result.best for result in results]
    # The recursion statistics of the whole solve, over every packed tree.
    solve_stats = None
    if results:
        solve_stats = {
            "instances": sum(r.stats.instances for r in results),
            "max_depth": max(r.stats.max_depth for r in results),
            "max_virtual_nodes": max(r.stats.max_virtual_nodes for r in results),
        }
    if labels is not None:
        index_of = csr.index_of
        candidates = [
            CutCandidate(
                value=candidate.value,
                edges=tuple(
                    edge_key(index_of(u), index_of(v))
                    for u, v in candidate.edges
                ),
            )
            for candidate in candidates
        ]
    return packed.finalize(
        list(enumerate(candidates)), ctx, solve_stats=solve_stats
    )


@register_solver(
    "oracle",
    description="centralized 2-respecting brute force, batched over stacked kernels",
)
def _solve_oracle(packed: GraphPacking, ctx: SolveContext) -> MinCutResult:
    degraded = None
    started = time.perf_counter()
    # A batch of one through the sweep's loop.
    one = (
        [packed.csr], [packed.packing], [packed.arrays], [packed.root_position]
    )
    try:
        (schedule,) = _oracle_schedules(*one, packed.config.batch_bytes)
    except (BudgetExceeded, MemoryError) as exc:
        # Automatic degradation: the stacked tensor does not fit the
        # scratch budget (or the allocator), so give up on batching and
        # solve tree by tree -- same candidates, just slower.
        failed_phase = obs_trace.last_error_span() or "oracle.batched"
        obs_metrics.counter("session.degraded").inc()
        with obs_trace.span("oracle.per_tree_fallback", reason=str(exc)):
            (schedule,) = _oracle_schedules(*one, None, per_tree=True)
        degraded = {
            "from": "batched-oracle",
            "to": "per-tree-oracle",
            "reason": f"{type(exc).__name__}: {exc}",
            "phase": failed_phase,
            "seconds": time.perf_counter() - started,
        }
    ctx.span.set(**_count_trees([schedule]))
    result = packed.finalize(
        schedule.solved, ctx, cut_side=schedule.cut_side
    )
    if degraded is not None:
        result.stats["degraded"] = degraded
    return result


def _oracle_schedules(
    graphs: "list[CSRGraph]",
    packings: list,
    arrays_list: "list[GraphArrays]",
    roots: "list[int]",
    batch_bytes: "int | None",
    per_tree: bool = False,
) -> "list[TreeSchedule]":
    """Run every graph's :class:`TreeSchedule` until it settles: the one
    oracle loop of single solves, sweeps and the budget fallback.

    Each round, every unsettled graph adds its next batch of packed trees
    (rooted at ``roots[g]``); one forest build roots every graph's batch,
    whatever the node counts, each schedule keeps the trees that can
    still change its winner, and one many-graph pass solves them under
    ``batch_bytes``.  ``per_tree`` is the fallback for a budget too small
    for one stacked tree: 1-tree batches, each kept tree solved alone
    under the inherited budget.
    """
    schedules = [
        TreeSchedule(
            stop_value(graph, packing),
            len(packing.tree_edge_arrays),
            arrays,
            1 if per_tree else _chunk_size(graph.n, batch_bytes),
        )
        for graph, packing, arrays in zip(graphs, packings, arrays_list)
    ]
    running = list(range(len(graphs)))
    while running:
        rows = [schedules[g].next_rows() for g in running]
        stacks = stacked_tree_arrays(
            [graphs[g].n for g in running],
            [
                [packings[g].tree_edge_arrays[r] for r in batch.tolist()]
                for g, batch in zip(running, rows)
            ],
            [roots[g] for g in running],
        )
        batches = [
            (g, *schedules[g].keep(batch, stack))
            for g, batch, stack in zip(running, rows, stacks)
        ]
        batches = [batch for batch in batches if len(batch[1])]
        if per_tree:
            solved = [
                [
                    batched_two_respecting_oracle(
                        arrays_list[g], stack.select([row])
                    )[0]
                    for row in range(len(kept))
                ]
                for g, kept, stack in batches
            ]
        else:
            passes = batched_two_respecting_oracle_many(
                [
                    OracleJob.from_arrays(
                        arrays_list[g], stack.tin, stack.tout, stack.pos
                    )
                    for g, _kept, stack in batches
                ],
                batch_bytes=batch_bytes,
            )
            solved = [
                stack_candidates(values, flats, stack)
                for (_g, _kept, stack), (values, flats) in zip(batches, passes)
            ]
        for (g, kept, stack), candidates in zip(batches, solved):
            schedules[g].absorb(kept, stack, candidates)
        running = [g for g in running if not schedules[g].settled]
    return schedules


def _count_trees(schedules: "Sequence[TreeSchedule]") -> dict:
    """Span attributes of built (rooted), solved and packed trees; the
    skipped ones also go to the ``oracle.trees_skipped`` counter."""
    solved = sum(len(schedule.solved) for schedule in schedules)
    trees = sum(schedule.trees for schedule in schedules)
    obs_metrics.counter("oracle.trees_skipped").inc(trees - solved)
    return {
        "trees_built": sum(schedule.built for schedule in schedules),
        "trees_solved": solved,
        "trees": trees,
    }


@register_solver(
    "stoer-wagner",
    uses_packing=False,
    description="exact centralized baseline (maximum adjacency ordering)",
)
def _solve_stoer_wagner(packed: GraphPacking, ctx: SolveContext) -> MinCutResult:
    from repro.baselines.stoer_wagner import csr_stoer_wagner

    # The CSR variant works in index space even on labelled graphs; the
    # graph was validated (connected, n > 2) when it was packed.
    _value, (side, _other) = csr_stoer_wagner(packed.csr)
    return packed.finalize_partition(side, ctx)


@register_solver(
    "karger",
    uses_packing=False,
    description="randomized contraction baseline (Monte Carlo, w.h.p. exact)",
)
def _solve_karger(packed: GraphPacking, ctx: SolveContext) -> MinCutResult:
    from repro.baselines.karger import karger_min_cut

    _value, (side, _other) = karger_min_cut(
        packed.csr.to_networkx(), seed=packed.seed
    )
    return packed.finalize_partition(side, ctx, in_label_space=True)


# ----------------------------------------------------------------------
# The batched many-graph entrypoint
# ----------------------------------------------------------------------
@dataclass
class SweepFailure:
    """Structured record of one graph that failed inside a sweep.

    ``minimum_cut_many`` (with the default ``strict=False``) isolates
    per-graph errors: a failed graph contributes one of these in its
    result slot instead of aborting the whole sweep.  ``ok`` mirrors
    :attr:`Certificate.ok <repro.certify.Certificate.ok>` so callers can
    filter a mixed result list uniformly.
    """

    index: int
    seed: int
    stage: str  # "validate" | "solve" | "certify"
    error: str  # exception class name
    message: str
    solver: str

    #: wall-clock seconds spent on this graph before it failed.
    seconds: float = 0.0
    #: innermost trace span active when the error surfaced (requires
    #: tracing; falls back to the sweep stage name when disabled).
    phase: "str | None" = None
    #: :meth:`CSRGraph.canonical_hash` of the originating graph (of its
    #: CSR conversion for a networkx input; ``None`` only when that
    #: conversion failed), so batchers can re-associate failures with
    #: their requests without positional bookkeeping.
    graph_hash: "str | None" = None

    ok: bool = False

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "stage": self.stage,
            "error": self.error,
            "message": self.message,
            "solver": self.solver,
            "seconds": self.seconds,
            "phase": self.phase,
            "graph_hash": self.graph_hash,
            "ok": self.ok,
        }


def _sweep_failure(
    index, seed, stage, exc, solver, seconds: float = 0.0
) -> SweepFailure:
    obs_metrics.counter("sweep.failures").inc()
    obs_metrics.counter(f"sweep.failures.{stage}").inc()
    return SweepFailure(
        index=index,
        seed=seed,
        stage=stage,
        error=type(exc).__name__,
        message=str(exc),
        solver=solver,
        seconds=seconds,
        phase=obs_trace.last_error_span() or stage,
    )


def minimum_cut_many(
    graphs: Sequence,
    config: SolverConfig | None = None,
    seeds: "int | Sequence[int]" = 0,
    strict: bool = False,
    certify: bool = False,
    **overrides,
) -> "list[MinCutResult | SweepFailure]":
    """Exact min-cut of every graph, amortizing the pipeline across a sweep.

    Bit-identical (value, witness, partition, round ledger) to calling
    ``minimum_cut(graph, seed, ...)`` per graph, but under the ``oracle``
    solver the whole sweep shares one batched tree packing, then per
    round one stacked BFS/Euler forest build and one chunked
    stacked-tensor oracle pass over every unsettled graph's trees -- the
    per-graph numpy call overhead that dominates small instances is
    paid once per sweep instead of once per graph.  Other solvers run the
    per-graph session path.  Each networkx input is converted once, with
    :meth:`CSRGraph.from_networkx`, before validation.

    ``seeds`` is one packing seed for all graphs or a per-graph sequence.

    **Failure isolation.**  With the default ``strict=False`` a graph
    that fails -- invalid input, a solver error, a failed certificate --
    yields a :class:`SweepFailure` in its result slot and the sweep
    continues; a seed-count mismatch or an unknown solver name still
    raises, because those poison every slot.  If the *fused* oracle
    sweep fails as a whole, the batched graphs are re-solved one by one
    (results marked ``stats["degraded"]``) so one pathological graph
    cannot take down its batch-mates.  ``strict=True`` restores
    fail-fast raising on the first error.

    ``certify=True`` additionally runs
    :func:`repro.certify.certify_result` over every successful result,
    attaching the certificate under ``stats["certificate"]``; a result
    whose certificate fails becomes a :class:`SweepFailure` (stage
    ``"certify"``) under ``strict=False`` and raises
    :class:`~repro.errors.CertificationError` under ``strict=True``.
    """
    cfg = config if config is not None else SolverConfig()
    if overrides:
        cfg = cfg.replace(**overrides)
    graphs = list(graphs)
    if isinstance(seeds, int):
        seed_list = [seeds] * len(graphs)
    else:
        seed_list = list(seeds)
        if len(seed_list) != len(graphs):
            raise ValueError(
                f"got {len(seed_list)} seeds for {len(graphs)} graphs"
            )
    get_solver(cfg.solver)  # unknown names fail before any work

    with cfg._trace_scope():
        if not obs_trace.enabled():
            return _sweep_impl(graphs, seed_list, cfg, strict, certify)
        position = obs_trace.mark()
        with obs_trace.span(
            "sweep.run", graphs=len(graphs), solver=cfg.solver
        ) as root:
            results = _sweep_impl(graphs, seed_list, cfg, strict, certify)
        # One sweep-level profile: the sweep's span tree joined with the
        # union of every successful per-graph round ledger.
        spans = [
            record
            for record in obs_trace.records_since(position)
            if record.thread_id == root.thread_id
        ]
        merged = RoundAccountant().merge(
            *(
                result.stats.get("accountant", {})
                for result in results
                if isinstance(result, MinCutResult)
            )
        )
        sweep_profile = build_profile(
            spans, merged, dropped=obs_trace.dropped()
        )
        for result in results:
            if isinstance(result, MinCutResult):
                result.stats["sweep_profile"] = sweep_profile
        return results


def _sweep_impl(
    graphs: list,
    seed_list: "list[int]",
    cfg: SolverConfig,
    strict: bool,
    certify: bool,
) -> "list[MinCutResult | SweepFailure]":
    results: "list[MinCutResult | SweepFailure | None]" = [None] * len(graphs)
    csrs: "list[CSRGraph | None]" = [None] * len(graphs)
    # Canonical content hash per graph (``None`` where the conversion
    # failed) -- every result and failure row carries it
    # (``stats["sweep"]`` / ``graph_hash``) so fan-out layers like the
    # serve batcher re-associate by identity, not by position.
    hashes: "list[str | None]" = [None] * len(graphs)
    # Validation runs once, here; per-graph solves reuse its outcome.
    trivials: "list[MinCutResult | None]" = [None] * len(graphs)
    valid: list[int] = []
    with obs_trace.span("sweep.validate", graphs=len(graphs)):
        for index, graph in enumerate(graphs):
            try:
                csr = csrs[index] = as_csr(graph)
                hashes[index] = csr.canonical_hash()
                trivials[index] = _validate_graph(csr)
            except Exception as exc:
                if strict:
                    raise
                results[index] = _sweep_failure(
                    index, seed_list[index], "validate", exc, cfg.solver
                )
            else:
                valid.append(index)

    batched = [
        index
        for index in valid
        if cfg.solver == "oracle" and csrs[index].n > 2
    ]
    session = MinCutSolver(cfg)
    batched_set = set(batched)

    def solve_one(
        index: int, degraded: "dict | None" = None, packed=None
    ):
        """Solve graph ``index`` in its own session; ``packed`` is a
        ``(packing, ledger)`` pair it adopts instead of packing."""
        started = time.perf_counter()
        try:
            handle = session._packing(
                csrs[index], seed_list[index], num_trees=None,
                accountant=None, trivial=trivials[index],
            )
            if packed is not None:
                handle.adopt_packing(*packed)
            result = handle.solve()
        except Exception as exc:
            if strict:
                raise
            return _sweep_failure(
                index, seed_list[index], "solve", exc, cfg.solver,
                seconds=time.perf_counter() - started,
            )
        if degraded is not None and "degraded" not in result.stats:
            result.stats["degraded"] = degraded
        return result

    for index in valid:
        if index not in batched_set:
            results[index] = solve_one(index)
    if batched:
        started = time.perf_counter()
        graphs = [csrs[i] for i in batched]
        many = None
        try:
            with obs_trace.span(
                "sweep.pack_many", graphs=len(graphs), acct_prefix="packing:"
            ):
                many = pack_trees_many(
                    graphs,
                    [seed_list[i] for i in batched],
                    num_trees=cfg.num_trees,
                )
            sweep = _solve_many_oracle(graphs, many, cfg)
        except Exception as exc:
            if strict:
                raise
            # The fused sweep shares arrays across graphs, so one bad
            # graph can sink the batch; retry each member in isolation,
            # on its own packing when the packing stage went through.
            obs_metrics.counter("sweep.fused_batch_failures").inc()
            degraded = {
                "from": "fused-oracle-sweep",
                "to": "per-graph-session",
                "reason": f"{type(exc).__name__}: {exc}",
                "phase": obs_trace.last_error_span() or "sweep.oracle",
                "seconds": time.perf_counter() - started,
            }
            packings = [None] * len(batched)
            if many is not None:
                packings = [
                    (packing, acct.snapshot())
                    for packing, acct in zip(many.packings, many.accountants)
                ]
            sweep = [
                solve_one(i, degraded=dict(degraded), packed=packed)
                for i, packed in zip(batched, packings)
            ]
        for index, result in zip(batched, sweep):
            results[index] = result

    if certify:
        from repro.certify import certify_result

        for index, result in enumerate(results):
            if not isinstance(result, MinCutResult):
                continue
            started = time.perf_counter()
            certificate = certify_result(csrs[index], result)
            result.stats["certificate"] = certificate.as_dict()
            if not certificate.ok:
                if strict:
                    certificate.raise_if_failed()
                obs_metrics.counter("sweep.failures").inc()
                obs_metrics.counter("sweep.failures.certify").inc()
                results[index] = SweepFailure(
                    index=index,
                    seed=seed_list[index],
                    stage="certify",
                    error="CertificationError",
                    message="; ".join(certificate.failures),
                    solver=cfg.solver,
                    seconds=time.perf_counter() - started,
                    phase=obs_trace.last_error_span() or "certify",
                )

    for index, result in enumerate(results):
        if isinstance(result, MinCutResult):
            result.stats["sweep"] = {
                "index": index,
                "graph_hash": hashes[index],
            }
        elif isinstance(result, SweepFailure):
            result.graph_hash = hashes[index]
    return results  # type: ignore[return-value]


def _solve_many_oracle(
    graphs: "list[CSRGraph]", many: ManyPacking, cfg: SolverConfig
) -> list[MinCutResult]:
    """The fused oracle sweep over validated graphs and their packings
    (:func:`~repro.core.tree_packing.pack_trees_many`): batch every
    stage across graphs."""
    # Stage 2: every graph's trees in schedule rounds, one forest build
    # and one many-graph oracle pass per round (:func:`_oracle_schedules`).
    roots = [_root_position(graph.nodes) for graph in graphs]
    arrays_list = [GraphArrays.from_csr(graph) for graph in graphs]
    with obs_trace.span("sweep.oracle", graphs=len(graphs)) as sp:
        schedules = _oracle_schedules(
            graphs, many.packings, arrays_list, roots, cfg.batch_bytes
        )
        sp.set(**_count_trees(schedules))

    # Stage 3: per-graph candidate decode + witness extraction, the
    # witness read off the winning tree's batch stack.
    return [
        _finalize_candidates(
            csr=graph,
            arrays=arrays_list[g],
            packing=many.packings[g],
            cut_side=schedules[g].cut_side,
            candidates=schedules[g].solved,
            acct=many.accountants[g],
            compute_congest=cfg.compute_congest,
            solver_name="oracle",
        )
        for g, graph in enumerate(graphs)
    ]


def _root_position(labels: "list | None") -> int:
    """Index of the node every packed tree is rooted at: the least label
    by ``(type name, str)`` -- index 0 when ``labels`` is ``None`` (the
    indices are the labels)."""
    if labels is None:
        return 0
    return min(range(len(labels)), key=lambda i: _node_sort_key(labels[i]))
