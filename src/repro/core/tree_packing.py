"""Tree packing (paper Theorem 12, after [Karger00, Thorup07, Daga+19]).

Produces a small collection of spanning trees such that (w.h.p.) every
near-minimum cut 2-respects at least one of them.  Two regimes, as in the
paper's proof sketch:

(A) small min-cut: greedy tree packing directly -- each iteration computes a
    minimum-cost spanning tree where an edge's cost is its *relative load*
    (times used so far / multiplicity), via Boruvka in the
    Minor-Aggregation model (one measured round per phase);
(B) large min-cut: Karger-sample each edge's multiplicity down so the
    sampled graph has Θ(log n) min-cut, then apply (A) on the sample; any
    1.05-minimum cut of G remains a 1.1-minimum cut of the sample w.h.p.

Substitution note (DESIGN.md): the sampling threshold needs a constant
approximation of the min-cut value; the paper uses the Õ(1)-round
(1+eps)-approximation of [GH16], we use the exact value
(:func:`_min_cut_value`, still charged ``log2ceil(n)**2`` rounds) -- only
the value is used, to pick the regime and the sampling probability.  It
is computed centrally by Padberg-Rinaldi contraction (heavy edges and
heavy-neighbour tests, a few array passes over the concatenated edge
table of every graph of a batch, :func:`_contract_many`), usually down
to a single supernode, and by Nagamochi-Ibaraki CAPFOREST passes
(:func:`_capforest_value`, as in Henzinger, Noe, Schulz and Strash,
"Practical Minimum Cut Algorithms") on each kernel that stalls.  Every
contraction preserves the minimum of the running upper bound and the
kernel's min-cut, so the value is exact; on integer weights every float
sum is exact below 2**53 and the value equals Stoer-Wagner's bit for
bit, while on non-integral weights the two may differ by rounding only
(Stoer-Wagner's own float value depends on its merge order).

One implementation: :func:`pack_trees_many` packs any number of CSR graphs
over one concatenated edge table, and :func:`pack_trees` is a batch of one
(a networkx input is converted with :meth:`CSRGraph.from_networkx` on the
way in).  The table is laid out graph-major, each graph's rows in its
``str(edge_key)`` order, and a row's position is its Boruvka tie rank.
Every greedy iteration is one call of
:func:`~repro.ma.compiled.compiled_boruvka_rows` (Boruvka's contraction
sequence as array passes, contracting each phase's winners by jumping
their pointer graph, with the deterministic ``(cost, str(edge_key))``
tie-break and one Minor-Aggregation round per phase) and one load
increment; nothing else runs per graph between calls.  After the loop a
few array passes group every tree's rows graph by graph (an
index-labelled graph's rows already come in canonical order, a labelled
graph's are re-sorted), drop repeated trees exactly (a fingerprint finds
the candidates, row equality confirms them), and charge each iteration's
phases.  The sampling regime draws one binomial over the canonical CSR
edge order, and one connectivity pass checks every graph's draw.  A
networkx graph and its CSR
conversion therefore pack identical trees with identical ledgers.  A
packing stores its trees only as node-index edge arrays plus the graph's
node labels; a tree's adjacency is derived when it is rooted
(:meth:`TreePacking.rooted_tree`).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.accounting import RoundAccountant, log2ceil
from repro.graphs.csr import CSRGraph, _canonicalize, as_csr, merge_components
from repro.ma.compiled import compiled_boruvka_rows
from repro.obs import trace as obs_trace
from repro.trees.rooted import Edge, Node, RootedTree, _node_sort_key


@dataclass
class TreePacking:
    """The packed spanning trees plus provenance of how they were obtained.

    ``tree_edge_arrays`` holds one ``(edge_u, edge_v)`` pair of node-index
    arrays per tree, in the exact insertion order the tree was built with
    -- what :func:`~repro.kernel.forest.stacked_tree_arrays` consumes and
    what fixes every BFS downstream.  ``nodes`` is the graph's label table
    (``None``: the indices are the labels).  ``approx_cut_computed`` says
    that ``approx_cut_value`` came from the packing's own contraction
    (:func:`_contract_many`) rather than from the caller.
    """

    tree_edge_arrays: "list[tuple[np.ndarray, np.ndarray]]" = field(
        repr=False, compare=False
    )
    sampled: bool
    sampling_probability: float | None
    approx_cut_value: float
    ma_rounds: float
    duplicates_removed: int = 0
    nodes: "list | None" = None
    approx_cut_computed: bool = False

    @property
    def trees(self) -> "list[list[Edge]]":
        """Every packed tree as its ``(u, v)`` edge list over node labels,
        in insertion order."""
        labels = self.nodes
        trees = []
        for eu, ev in self.tree_edge_arrays:
            pairs = zip(eu.tolist(), ev.tolist())
            if labels is not None:
                pairs = ((labels[u], labels[v]) for u, v in pairs)
            trees.append(list(pairs))
        return trees

    def rooted_tree(
        self, index: int, root: Node, labelled: bool = False
    ) -> RootedTree:
        """Tree ``index`` rooted at ``root``: over node indices, or over
        the node labels when ``labelled``.  Neighbours are listed in
        insertion order either way, so both spaces root the same tree
        with the same BFS."""
        eu, ev = self.tree_edge_arrays[index]
        us, vs = eu.tolist(), ev.tolist()
        # A spanning tree has one edge fewer than the graph has nodes.
        names = range(len(us) + 1)
        if labelled and self.nodes is not None:
            names = self.nodes
            us = [names[u] for u in us]
            vs = [names[v] for v in vs]
        adjacency: dict = {node: [] for node in names}
        for u, v in zip(us, vs):
            adjacency[u].append(v)
            adjacency[v].append(u)
        return RootedTree(adjacency, root)


@dataclass
class ManyPacking:
    """Per-graph packings and the accountants their rounds were charged to."""

    packings: list[TreePacking]
    accountants: list[RoundAccountant]


def _index_node_rank(count: int) -> np.ndarray:
    """The rank of every index label ``0 .. count - 1`` in ``str``
    order.  A decimal string sorts by its digits padded with zeros to a
    common width, the shorter string first among equal paddings; the
    order of any ``0 .. n - 1`` is this one restricted."""
    index = np.arange(count, dtype=np.int64)
    width = len(str(count - 1))
    digits = 1 + np.searchsorted(
        10 ** np.arange(1, width, dtype=np.int64), index, side="right"
    )
    padded = index * 10 ** (width - digits)
    node_rank = np.empty(count, dtype=np.int64)
    node_rank[np.lexsort((digits, padded))] = index
    return node_rank


def _canonical_order(
    node_rank: np.ndarray,
    eu: np.ndarray,
    ev: np.ndarray,
    block: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows ``(eu, ev)`` in canonical order -- by the node ranks of
    their ``edge_key`` ends, within each ``block`` when given -- and the
    ends ``(first, second)`` as ``edge_key`` orders them."""
    swap = node_rank[eu] > node_rank[ev]
    first = np.where(swap, ev, eu)
    second = np.where(swap, eu, ev)
    keys = (node_rank[second], node_rank[first])
    if block is not None:
        keys += (block,)
    return np.lexsort(keys), first, second


def _edge_ranks(
    nodes: "list | None", eu: np.ndarray, ev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of the edge rows ``(eu, ev)`` in label space: by the string
    of their ``edge_key`` (the Boruvka tie-break) and by the
    ``_node_sort_key`` order of its endpoints (a tree's insertion order).
    ``nodes`` is the label table (``None``: the indices are the labels).

    ``edge_key`` orders endpoints by ``(type name, str)``, not by index
    -- ``edge_key(4, 10)`` is ``(10, 4)`` -- and ``str`` of a 2-tuple is
    ``"(" + repr(a) + ", " + repr(b) + ")"``, so one ``_node_sort_key``
    and one ``repr`` per node give every row's key by array operations.
    Index labels need no strings at all: ``,`` and ``)`` sort below
    every digit, so ``str(edge_key(u, v))`` sorts like
    ``(str(u), str(v))`` -- the canonical order
    (:func:`_index_node_rank`).
    """
    if nodes is None:
        node_rank = _index_node_rank(
            int(max(eu.max(initial=0), ev.max(initial=0))) + 1
        )
    else:
        count = len(nodes)
        keys = [_node_sort_key(label) for label in nodes]
        # Dense rank of every node's key: equal keys share a rank, and
        # edge_key keeps (u, v) as given when the keys are equal.
        node_rank = np.empty(count, dtype=np.int64)
        rank, previous = -1, None
        for node in sorted(range(count), key=keys.__getitem__):
            if keys[node] != previous:
                rank, previous = rank + 1, keys[node]
            node_rank[node] = rank
    by_edge, first, second = _canonical_order(node_rank, eu, ev)
    rows = np.arange(len(eu), dtype=np.int64)
    canon_rank = np.empty(len(eu), dtype=np.int64)
    canon_rank[by_edge] = rows
    if nodes is None:
        return canon_rank, canon_rank
    reprs = np.array([repr(label) for label in nodes], dtype=np.str_)
    add = np.strings.add
    pairs = add(add(add("(", reprs[first]), ", "), add(reprs[second], ")"))
    str_rank = np.empty(len(eu), dtype=np.int64)
    str_rank[np.argsort(pairs)] = rows
    return str_rank, canon_rank


class EdgeSample(NamedTuple):
    """The rows of a graph's canonical edge table that survive a regime
    (B) sample, with their sampled multiplicities."""

    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray


def _sample_multiplicities_csr(
    graph: CSRGraph, probability: float, rng: random.Random
) -> EdgeSample:
    """Binomially subsample each edge's weight-as-multiplicity.

    One vectorized exact binomial draw over the canonical edge order
    (numpy's BTPE sampler handles arbitrary multiplicities in O(1) each).
    The generator is seeded from ``rng``'s stream, so sampling stays a
    deterministic function of the packing seed.  Caveat: NEP 19 lets
    Generator distribution streams change between numpy feature releases,
    so sampled-regime packings are reproducible per (seed, numpy
    version), not across numpy upgrades.

    A multiplicity of 2**63 or more does not fit the sampler's int64
    count; such an edge keeps its mean ``rint(w * p)`` (the exact draw
    deviates from it by about ``sqrt(w * p)``).  Every other edge's draw
    is the same as if no such edge were present.
    """
    weights = np.rint(graph.edge_w)
    huge = weights >= 2.0 ** 63
    drawn = (weights > 0) & ~huge
    generator = np.random.default_rng(rng.getrandbits(64))
    kept = np.zeros(len(weights))
    kept[drawn] = generator.binomial(
        weights[drawn].astype(np.int64), probability
    )
    kept[huge] = np.rint(weights[huge] * probability)
    survivors = kept > 0
    return EdgeSample(
        graph.edge_u[survivors], graph.edge_v[survivors], kept[survivors]
    )


def default_tree_count(n: int) -> int:
    """Θ(log n) trees -- the collection size of Theorem 12."""
    return 3 * log2ceil(n) + 8


def pack_trees(
    graph,
    seed: int = 0,
    num_trees: int | None = None,
    accountant: RoundAccountant | None = None,
    approx_cut_value: float | None = None,
) -> TreePacking:
    """Theorem 12: pack Θ(log n) spanning trees by greedy load-balancing.

    A batch of one through :func:`pack_trees_many` (a networkx input is
    converted once with :meth:`CSRGraph.from_networkx`).  An explicit
    ``approx_cut_value`` skips the approximate min-cut and its
    ``log2ceil(n)**2`` round charge.
    """
    return pack_trees_many(
        [as_csr(graph)],
        [seed],
        num_trees=num_trees,
        accountants=[accountant or RoundAccountant()],
        approx_cut_values=[approx_cut_value],
    ).packings[0]


def _min_cut_value(graph: CSRGraph, span=obs_trace.NULL_SPAN) -> float:
    """Exact min-cut value of a connected graph: :func:`_contract_many`
    on a batch of one, then :meth:`Contracted.value`."""
    (contracted,) = _contract_many([graph])
    return contracted.value(span)


@dataclass
class Contracted:
    """One graph after its Padberg-Rinaldi passes: the running upper
    bound ``best``, the pass count, and the kernel left for CAPFOREST
    passes (``None`` once one or two supernodes are left)."""

    best: float
    passes: int
    kernel: "CSRGraph | None" = None

    def value(self, span=obs_trace.NULL_SPAN) -> float:
        """The exact min-cut value: ``best``, lowered by
        :func:`_capforest_value` on the kernel when one is left.
        ``span`` gets ``kernel_n`` (the kernel's supernodes, or 1),
        ``passes`` and ``capforest_passes``."""
        best, kernel_n, capforest = self.best, 1, 0
        if self.kernel is not None:
            kernel_n = self.kernel.n
            best, capforest = _capforest_value(self.kernel, best)
        span.set(
            kernel_n=kernel_n, passes=self.passes, capforest_passes=capforest
        )
        return float(best)


def _capforest_value(kernel: CSRGraph, bound: float) -> tuple[float, int]:
    """``min(bound, λ(kernel))`` by Nagamochi-Ibaraki CAPFOREST passes,
    and the number of passes.

    Each pass lowers ``bound`` to the least weighted degree, runs one
    maximum-adjacency scan (:func:`_max_adjacency_scan`), lowers
    ``bound`` to the scan's cut of the phase ``r(t)``, and contracts
    every edge with ``q(e) >= bound``: ``λ(v, w) >= q(e)`` for an edge
    ``(v, w)``, so a cut that separates its ends weighs at least
    ``bound``.  The last edge into ``t`` has ``q(e) = r(t) >= bound``,
    so every pass contracts something, whatever the float rounding of
    the degree sums.  The passes stop at two or fewer supernodes (the
    worst case is Stoer-Wagner's n - 1 phases).
    """
    k = kernel.n
    eu, ev, ew = kernel.edge_u, kernel.edge_v, kernel.edge_w
    passes = 0
    while k > 1:
        degree = np.bincount(eu, ew, minlength=k)
        degree += np.bincount(ev, ew, minlength=k)
        bound = min(bound, float(degree.min()))
        if k == 2:
            break
        passes += 1
        scanned, cut = _max_adjacency_scan(k, eu, ev, ew)
        bound = min(bound, cut)
        heavy = scanned >= bound
        labels = merge_components(np.arange(k), eu[heavy], ev[heavy])
        roots, dense = np.unique(labels, return_inverse=True)
        k = len(roots)
        cu, cv = dense[eu], dense[ev]
        cross = cu != cv
        eu, ev, ew = _canonicalize(cu[cross], cv[cross], ew[cross])
    return bound, passes


def _max_adjacency_scan(
    k: int, eu: np.ndarray, ev: np.ndarray, ew: np.ndarray
) -> tuple[np.ndarray, float]:
    """One maximum-adjacency scan of a connected graph on ``k`` nodes:
    ``(q, r(t))``.

    The scan starts at node 0 and repeatedly scans the unscanned node
    ``x`` of greatest ``r(x)``, the weight between ``x`` and the nodes
    scanned before it (heap ties to the least index).  ``q[e]`` is
    ``r(w)`` just after edge ``e`` raised it from its scanned end ``v``
    to its other end ``w``; ``r(t)`` of the last scanned node ``t`` is
    the cut of the phase, ``t``'s weighted degree.
    """
    m = len(eu)
    src = np.concatenate([eu, ev])
    order = np.argsort(src, kind="stable")
    start = np.searchsorted(src[order], np.arange(k + 1)).tolist()
    neighbour = np.concatenate([ev, eu])[order].tolist()
    weight = np.concatenate([ew, ew])[order].tolist()
    edge = (order % m).tolist()
    reach = [0.0] * k
    done = [False] * k
    q = [0.0] * m
    heap = [(-0.0, 0)]
    cut = 0.0
    while heap:
        negative, x = heapq.heappop(heap)
        if done[x] or -negative != reach[x]:
            continue
        done[x] = True
        cut = reach[x]
        for slot in range(start[x], start[x + 1]):
            y = neighbour[slot]
            if not done[y]:
                r = reach[y] + weight[slot]
                reach[y] = r
                q[edge[slot]] = r
                heapq.heappush(heap, (-r, y))
    return np.array(q), cut


def _contract_many(graphs: "list[CSRGraph]") -> "list[Contracted]":
    """Padberg-Rinaldi contraction of many connected graphs at once.

    Each pass lowers a graph's upper bound ``best`` to its least
    weighted degree (a trivial cut is a real cut), then contracts every
    edge of weight >= ``best`` (a cut separating its ends weighs at
    least ``best``, whatever else is contracted) and every supernode
    ``x`` into its heaviest neighbour ``t`` when ``2 w(x, t) >= d(x)``
    (moving ``x`` to ``t``'s side never makes a cut heavier, and the
    trivial cut ``{x}`` is already in ``best``).  All of one pass
    contracts at once: one pointer per supernode forms a forest (plus
    tie cycles, whose closing edge is redundant), and contracting it
    root-down applies each test while its ``x`` is still unmerged, with
    ``w(x, t's supernode) >= w(x, t)``.  A graph stops at one or two
    supernodes, or with its kernel when a pass contracts nothing.

    The passes run over one canonical edge table of every running
    graph, node blocks side by side.  Every float operation of a block
    -- degree sums in edge order, parallel-edge merges -- is the one the
    graph alone would make, so each result is bit-identical to a batch
    of one.
    """
    for graph in graphs:
        if graph.n < 2:
            raise ValueError("minimum cut needs at least two nodes")
        if not graph.is_connected():
            raise ValueError("graph must be connected")
    if not graphs:
        return []
    results: "list[Contracted | None]" = [None] * len(graphs)
    best = [math.inf] * len(graphs)
    passes = [0] * len(graphs)
    # The running graphs, their supernode counts and first node ids, and
    # their concatenated canonical edge table (sorted by ``eu``).
    live = list(range(len(graphs)))
    k = np.array([graph.n for graph in graphs], dtype=np.int64)
    start = np.zeros(len(graphs) + 1, dtype=np.int64)
    np.cumsum(k, out=start[1:])
    shift = np.repeat(start[:-1], [graph.m for graph in graphs])
    eu = np.concatenate([graph.edge_u for graph in graphs]) + shift
    ev = np.concatenate([graph.edge_v for graph in graphs]) + shift
    ew = np.concatenate([graph.edge_w for graph in graphs])
    loops = eu == ev
    if loops.any():
        eu, ev, ew = eu[~loops], ev[~loops], ew[~loops]
    while live:
        total = int(start[-1])
        first_node = start[:-1]
        node_block = np.repeat(np.arange(len(live)), k)
        degree = np.bincount(eu, ew, minlength=total)
        degree += np.bincount(ev, ew, minlength=total)
        least = np.minimum.reduceat(degree, first_node).tolist()
        for block, g in enumerate(live):
            passes[g] += 1
            best[g] = min(best[g], least[block])
        bound = np.array([best[g] for g in live])
        heavy = ew >= bound[node_block[eu]]
        # Each supernode's heaviest neighbour, ties to the least index
        # (the first in adjacency order): one scatter-max of the weights
        # over the directed edges, one scatter-min over the tied ones.
        src = np.concatenate([eu, ev])
        dst = np.concatenate([ev, eu])
        wgt = np.concatenate([ew, ew])
        heaviest = np.full(total, -math.inf)
        np.maximum.at(heaviest, src, wgt)
        tied = wgt == heaviest[src]
        neighbour = np.full(total, total, dtype=np.int64)
        np.minimum.at(neighbour, src[tied], dst[tied])
        witness = 2 * heaviest >= degree
        labels = merge_components(
            np.arange(total),
            np.concatenate([eu[heavy], np.flatnonzero(witness)]),
            np.concatenate([ev[heavy], neighbour[witness]]),
        )
        # Labels are each component's least node, so a block's supernode
        # count after contraction is its number of fixed points.
        fixed = labels == np.arange(total)
        left = np.add.reduceat(fixed, first_node)
        edge_start = np.searchsorted(eu, start).tolist()
        keep = (k > 2) & (left < k) & (left > 1)
        for block, g in enumerate(live):
            if keep[block]:
                continue
            kernel = None
            if k[block] > 2 and left[block] == k[block]:
                # Nothing contracts: CAPFOREST passes solve the kernel.
                lo, hi = edge_start[block], edge_start[block + 1]
                base = int(start[block])
                kernel = CSRGraph(
                    int(k[block]), eu[lo:hi] - base, ev[lo:hi] - base,
                    ew[lo:hi], canonical=True,
                )
            results[g] = Contracted(float(best[g]), passes[g], kernel)
        if not keep.any():
            break
        # Contract the blocks that go on: supernodes renumbered densely
        # in order of least member (block by block), loops dropped,
        # parallel edges merged by the canonical order.
        kept_nodes = keep[node_block]
        _uniq, dense = np.unique(labels[kept_nodes], return_inverse=True)
        supernode = np.full(total, -1, dtype=np.int64)
        supernode[kept_nodes] = dense
        kept_edges = kept_nodes[eu]
        cu, cv = supernode[eu[kept_edges]], supernode[ev[kept_edges]]
        cross = cu != cv
        eu, ev, ew = _canonicalize(cu[cross], cv[cross], ew[kept_edges][cross])
        live = [g for block, g in enumerate(live) if keep[block]]
        k = left[keep]
        start = np.zeros(len(live) + 1, dtype=np.int64)
        np.cumsum(k, out=start[1:])
    return results


def _connected_blocks(
    sizes: "list[int]", samples: "list[EdgeSample]"
) -> np.ndarray:
    """Whether each sample connects its graph's ``sizes[i]`` nodes: one
    :func:`~repro.graphs.csr.merge_components` call over the samples'
    tables, node blocks side by side."""
    start = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=start[1:])
    shift = np.repeat(start[:-1], [len(s.edge_u) for s in samples])
    labels = merge_components(
        np.arange(start[-1], dtype=np.int64),
        np.concatenate([s.edge_u for s in samples]) + shift,
        np.concatenate([s.edge_v for s in samples]) + shift,
    )
    # Labels are each component's least node, never below the block's
    # first: a block is connected when none lies above it.
    return np.maximum.reduceat(labels, start[:-1]) == start[:-1]


def _packing_tables(
    graphs: "list[CSRGraph]",
    seeds: "list[int]",
    accts: "list[RoundAccountant]",
    approx_values: "list[float]",
) -> "list[tuple[CSRGraph | EdgeSample, bool, float | None]]":
    """The regime (B) sample of every graph: ``(edge table to pack,
    sampled, sampling probability)``; the table is the graph itself when
    it is not sampled.

    A graph with a large min-cut draws from its own ``Random(seed)``
    stream until a sample is connected (at most six draws, doubling the
    probability after each disconnected one).  Each round of draws is
    checked by one :func:`_connected_blocks` call, and only the graphs
    whose sample came out disconnected draw again.
    """
    tables: list = [(graph, False, None) for graph in graphs]
    probability: dict = {}
    for g, graph in enumerate(graphs):
        # Regime (B): sample down to a Θ(log n) min-cut when lambda is large.
        target = 24.0 * max(1.0, math.log(graph.n))
        if approx_values[g] > 2 * target:
            probability[g] = min(1.0, target / approx_values[g])
    if not probability:
        return tables
    pending = list(probability)
    with obs_trace.span(
        "pack.sampling", graphs=len(pending), acct="packing:sampling"
    ):
        rngs = {g: random.Random(seeds[g]) for g in pending}
        for _attempt in range(6):
            samples = [
                _sample_multiplicities_csr(graphs[g], probability[g], rngs[g])
                for g in pending
            ]
            connected = _connected_blocks(
                [graphs[g].n for g in pending], samples
            ).tolist()
            retry = []
            for g, sample, ok in zip(pending, samples, connected):
                if ok:
                    tables[g] = (sample, True, probability[g])
                else:
                    probability[g] = min(1.0, 2 * probability[g])
                    retry.append(g)
            pending = retry
            if not pending:
                break
        for g in pending:
            tables[g] = (graphs[g], False, probability[g])
    for g in probability:
        accts[g].charge(1, "packing:sampling")
    return tables


def _row_hash(rows: np.ndarray) -> np.ndarray:
    """A 64-bit mix of each row index; a tree's fingerprint is the
    wrapping sum over its rows."""
    mixed = rows.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    mixed ^= mixed >> np.uint64(29)
    return mixed


def _duplicate_trees(
    rows: np.ndarray, start: np.ndarray, length: np.ndarray, owner: np.ndarray
) -> np.ndarray:
    """Which trees repeat an earlier tree of the same graph.

    Tree ``t`` is ``rows[start[t]:start[t] + length[t]]`` (canonical row
    order, so equal edge sets have equal bytes) of graph ``owner[t]``,
    the trees listed graph by graph in packing order.  A fingerprint
    groups the candidates; each later member of a group is compared
    with the group's first, and only one that differs from it (a
    fingerprint collision) is compared byte by byte with every earlier
    member.
    """
    count = len(start)
    fingerprint = np.zeros(count, dtype=np.uint64)
    filled = length > 0
    if filled.any():
        fingerprint[filled] = np.add.reduceat(_row_hash(rows), start[filled])
    # lexsort is stable: a group's first entry is its earliest tree.
    group = np.lexsort((fingerprint, length, owner))
    first = np.zeros(count, dtype=bool)
    first[:1] = True
    for key in (owner, length, fingerprint):
        ordered = key[group]
        first[1:] |= ordered[1:] != ordered[:-1]
    head = np.empty(count, dtype=np.int64)
    head[group] = group[
        np.maximum.accumulate(np.where(first, np.arange(count), 0))
    ]
    duplicate = head != np.arange(count)
    candidate = np.flatnonzero(duplicate)
    size = length[candidate]
    offset = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    differs = rows[np.repeat(start[candidate], size) + offset] != rows[
        np.repeat(start[head[candidate]], size) + offset
    ]
    mismatched = np.bincount(
        np.repeat(np.arange(len(candidate)), size), differs, len(candidate)
    )
    for t in candidate[mismatched > 0].tolist():
        tree = rows[start[t]:start[t] + length[t]].tobytes()
        duplicate[t] = any(
            rows[start[e]:start[e] + length[e]].tobytes() == tree
            for e in np.flatnonzero(head[:t] == head[t]).tolist()
        )
    return duplicate


def pack_trees_many(
    graphs: "list[CSRGraph]",
    seeds: "list[int]",
    num_trees: int | None = None,
    accountants: "list[RoundAccountant] | None" = None,
    approx_cut_values: "list[float | None] | None" = None,
) -> ManyPacking:
    """Pack spanning trees for many CSR graphs in one vectorized sweep.

    Every graph's packing depends only on that graph and its seed: the
    per-graph preamble (approximate min-cut, sampling regime, edge-order
    ranks) draws from the graph's own ``Random(seed)`` stream, and the
    greedy Boruvka iterations run over one concatenated edge table where
    every decision -- cost ties via the ``(cost, str)`` edge order,
    winner selection per component, phase counts, duplicate-tree dedup
    -- compares edges of one graph only.  A sweep therefore packs each
    graph exactly as ``pack_trees(graph, seed)``.

    A greedy iteration is one :func:`compiled_boruvka_rows` call and one
    ``uses`` increment; the trees, their dedup and the ``packing:boruvka``
    charges are read off the recorded rows and phases after the loop.
    """
    if not graphs:
        return ManyPacking(packings=[], accountants=[])
    count_of = len(graphs)
    accts = (
        list(accountants)
        if accountants is not None
        else [RoundAccountant() for _ in range(count_of)]
    )
    approx_values = (
        list(approx_cut_values)
        if approx_cut_values is not None
        else [None] * count_of
    )

    if any(graph.n < 2 for graph in graphs):
        raise ValueError("need at least two nodes to pack trees")
    # The approximate min-cut of every graph without a given value: one
    # batched contraction, then each graph's kernel on its own.
    pending = [g for g, approx in enumerate(approx_values) if approx is None]
    computed = set(pending)
    with obs_trace.span("pack.contract", graphs=len(pending)):
        contracted = _contract_many([graphs[g] for g in pending])
    for g, cut in zip(pending, contracted):
        n = graphs[g].n
        with obs_trace.span(
            "pack.approx_min_cut", n=n, acct="packing:approx-min-cut"
        ) as sp:
            approx_values[g] = cut.value(sp)
        # The distributed stand-in: Õ(1) Minor-Aggregation rounds [GH16].
        accts[g].charge(log2ceil(n) ** 2, "packing:approx-min-cut")

    tables = _packing_tables(graphs, seeds, accts, approx_values)
    sizes = np.array([len(table.edge_u) for table, _s, _p in tables])
    node_off = np.zeros(count_of + 1, dtype=np.int64)
    edge_off = np.zeros(count_of + 1, dtype=np.int64)
    np.cumsum([graph.n for graph in graphs], out=node_off[1:])
    np.cumsum(sizes, out=edge_off[1:])
    total = int(edge_off[-1])
    gid = np.repeat(np.arange(count_of), sizes)
    eu = np.concatenate([table.edge_u for table, _s, _p in tables])
    ev = np.concatenate([table.edge_v for table, _s, _p in tables])
    mult = np.concatenate([table.edge_w for table, _s, _p in tables])

    # The concatenated table, graph-major and in each graph's tie-rank
    # (``str(edge_key)``) order: position ``p`` holds row ``order[p]``,
    # and the position itself is the tie rank every Boruvka call sorts
    # by (stably, so the sort is linear).  Index labels tie-rank in
    # canonical order, which one lexsort finds for all such graphs; a
    # labelled graph's ranks come from its labels, and ``canon`` keeps
    # each position's canonical position for its trees' insertion order.
    order = np.arange(total, dtype=np.int64)
    canon = np.arange(total, dtype=np.int64)
    plain = np.flatnonzero(np.repeat([g.nodes is None for g in graphs], sizes))
    if len(plain):
        node_rank = _index_node_rank(max(g.n for g in graphs))
        by_edge, _first, _second = _canonical_order(
            node_rank, eu[plain], ev[plain], gid[plain]
        )
        order[plain] = plain[by_edge]
    for g, graph in enumerate(graphs):
        if graph.nodes is not None:
            lo, hi = int(edge_off[g]), int(edge_off[g + 1])
            str_rank, canon_rank = _edge_ranks(graph.nodes, eu[lo:hi], ev[lo:hi])
            order[lo + str_rank] = np.arange(lo, hi)
            canon[lo + str_rank] = lo + canon_rank
    local_u, local_v = eu[order], ev[order]
    shift = node_off[gid]
    all_eu, all_ev = local_u + shift, local_v + shift
    all_mult = np.maximum(mult, 1e-12)[order]
    position = np.arange(total, dtype=np.int64)

    uses = np.zeros(total, dtype=np.int64)
    counts = [
        num_trees if num_trees is not None else default_tree_count(graph.n)
        for graph in graphs
    ]
    phase_caps = np.array([log2ceil(graph.n) + 1 for graph in graphs])
    iterations = max(0, *counts)
    tree_rows: "list[np.ndarray]" = []
    tree_phases: "list[list[int]]" = []
    for iteration in range(iterations):
        with obs_trace.span(
            "pack.boruvka",
            iteration=iteration,
            graphs=count_of,
            acct="packing:boruvka",
        ):
            caps = [
                cap if count > iteration else 0
                for cap, count in zip(phase_caps.tolist(), counts)
            ]
            rows, phases = compiled_boruvka_rows(
                all_eu, all_ev, uses / all_mult, position, gid, caps,
                int(node_off[-1]),
            )
            uses[rows] += 1
            tree_rows.append(rows)
            tree_phases.append(phases.tolist())

    for iteration, phases in enumerate(tree_phases):
        for g, count in enumerate(counts):
            if count > iteration:
                accts[g].charge(phases[g], "packing:boruvka")

    # Every tree's rows, graph by graph in packing order, each tree in
    # canonical order: an index-labelled graph's positions already are
    # canonical, and sorting an iteration's rows by canonical position
    # keeps its graph-major blocks.
    tree_edges: "list[list]" = [[] for _ in graphs]
    duplicates = np.zeros(count_of, dtype=np.int64)
    if iterations:
        bounds = np.array([np.searchsorted(r, edge_off) for r in tree_rows])
        if len(plain) < total:
            tree_rows = [r[np.argsort(canon[r])] for r in tree_rows]
        rows = np.concatenate(tree_rows)
        # Tree (g, i) is rows[source[g, i]:][:length[g, i]]; move the
        # trees into graph-major order with one gather.
        length = np.diff(bounds, axis=1).T.ravel()
        offset = np.cumsum([0] + [len(r) for r in tree_rows[:-1]])
        source = (offset[:, None] + bounds[:, :-1]).T.ravel()
        start = np.cumsum(length) - length
        rows = rows[
            np.repeat(source - start, length) + np.arange(len(rows))
        ]
        packed = (
            np.arange(iterations)[None, :] < np.array(counts)[:, None]
        ).ravel()
        owner = np.repeat(np.arange(count_of), iterations)[packed]
        duplicate = _duplicate_trees(
            rows, start[packed], length[packed], owner
        )
        duplicates = np.bincount(owner[duplicate], minlength=count_of)
        kept = np.zeros(count_of * iterations, dtype=bool)
        kept[np.flatnonzero(packed)[~duplicate]] = True
        rows = rows[np.repeat(kept, length)]
        # A graph's trees are spanning forests of one table, so all
        # have the same edge count: its block reshapes to one tree a row
        # (a gather per graph, so no packing holds another graph's rows).
        per_graph = kept.reshape(count_of, iterations).sum(axis=1)
        edges = length.reshape(count_of, iterations)[:, 0]
        ends = np.concatenate([[0], np.cumsum(per_graph * edges)]).tolist()
        for g, (trees, width) in enumerate(
            zip(per_graph.tolist(), edges.tolist())
        ):
            block = rows[ends[g]:ends[g + 1]]
            tree_edges[g] = list(zip(
                local_u[block].reshape(trees, width),
                local_v[block].reshape(trees, width),
            ))

    packings = [
        TreePacking(
            tree_edge_arrays=tree_edges[g],
            sampled=sampled,
            sampling_probability=probability,
            approx_cut_value=approx_values[g],
            ma_rounds=accts[g].total,
            duplicates_removed=int(duplicates[g]),
            nodes=graph.nodes,
            approx_cut_computed=g in computed,
        )
        for g, (graph, (_table, sampled, probability)) in enumerate(
            zip(graphs, tables)
        )
    ]
    return ManyPacking(packings=packings, accountants=accts)
