"""Path interest: the structural engine behind star instances (Section 7.1-7.2).

Path ``P_i`` is *strongly interested* in ``P_j`` when some edge ``e`` of
``P_i`` has more than half of its cross-edge cover weight going to ``P_j``
(Definition 29 with alpha = 1/2); the 2-respecting optimum can only live on
mutually-interested pairs (Lemma 28), and each path is weakly interested in
at most O(log n) others (Lemma 30).

Interest lists are computed exactly as in Lemma 32: every node holds a
Misra-Gries sketch of the cross edges at it, labelled by the *other* path's
ID; a suffix merge along each path (a subtree sum, since paths hang off the
star root) yields each edge's sketch; majority keys -- filtered with the
sketch's tracked slack, so no strong interest is ever missed and everything
reported is at least weakly interesting -- are unioned into the path's list.

**Exact sums when nothing can overflow.**  A sketch at a node of path
``P_i`` (and every suffix merge along ``P_i``) only ever holds keys of the
*other* paths, so a star with ``k`` paths puts at most ``k - 1`` keys in
any sketch.  With ``k <= SKETCH_CAPACITY + 1`` that is at most
``SKETCH_CAPACITY`` keys: no insert or merge ever exceeds the capacity,
so no sketch ever decrements, its slack stays ``0.0``, and every counter
is the exact per-(node, path) weight sum.  Those stars skip the sketch
objects and fold plain sums with the same float operations in the same
order (edge-table order per node, bottom-up per path), so they report
bit for bit what the sketches would.  Stars with more paths fold
Misra-Gries sketches, whose decrements depend on the fold order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accounting import RoundAccountant
from repro.core.edge_table import EdgeTable, edge_table
from repro.ma.operators import MisraGries
from repro.obs import trace as obs_trace

#: Sketch capacity: with c = 10, the slack is <= W/11 per merge chain, so a
#: detected key has true weight > W(1/2 - 2/11) > W/5 -- i.e. weak interest.
SKETCH_CAPACITY = 10


@dataclass
class InterestResult:
    #: interest list (set of path indices) per path index
    lists: list[set[int]]
    #: mutual-interest graph over path indices, as ``(i, j)`` pairs, i < j
    pairs: list[tuple[int, int]]

    @property
    def max_degree(self) -> int:
        degree: dict[int, int] = {}
        for i, j in self.pairs:
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        return max(degree.values(), default=0)


def _node_sketches(paths: list[list], graph) -> dict:
    """Misra-Gries sketch of the cross edges at every path node, keyed by
    the other endpoint's path (folded in edge-table order)."""
    path_of: dict = {}
    for index, path in enumerate(paths):
        for node in path:
            path_of[node] = index

    sketches: dict = {}
    for u, v, weight in edge_table(graph):
        pu, pv = path_of.get(u), path_of.get(v)
        if pu is None or pv is None or pu == pv:
            continue
        for node, label in ((u, pv), (v, pu)):
            current = sketches.get(node, MisraGries.empty(SKETCH_CAPACITY))
            sketches[node] = current.add(label, weight)
    return sketches


def compute_interest_lists(
    paths: list[list],
    graph: EdgeTable,
    accountant: RoundAccountant | None = None,
) -> list[set[int]]:
    """Interest list of every path (Lemma 32).

    ``paths`` are node lists (top to bottom); ``graph`` (an ordered edge
    table, or a networkx graph read once) supplies the cross edges.
    Charged as one batched subtree sum with the heavy-hitter aggregation
    (all paths share the rounds, Corollary 11).
    """
    if accountant is not None:
        size = sum(len(p) for p in paths) + 1
        accountant.charge(
            accountant.cost.subtree_sum(size) + 2, "star:interest-lists"
        )
    if len(paths) <= SKETCH_CAPACITY + 1:
        return _exact_interest_lists(paths, graph)

    sketches = _node_sketches(paths, graph)
    lists: list[set[int]] = []
    for index, path in enumerate(paths):
        found: set[int] = set()
        acc = MisraGries.empty(SKETCH_CAPACITY)
        # Suffix merge bottom-up: after folding position t, `acc` is the
        # sketch of all cross edges covering path edge t+1.
        for node in reversed(path):
            node_sketch = sketches.get(node)
            if node_sketch is not None:
                acc = acc.merged(node_sketch)
            total = acc.total
            if total <= 0:
                continue
            for key, estimate in acc.counts.items():
                # est + slack > W/2 catches every true strict majority; any
                # catch has true weight > W/2 - 2*slack >= W(1/2 - 2/11).
                if estimate + acc.decremented > total / 2:
                    found.add(key)
        found.discard(index)
        lists.append(found)
    return lists


def _exact_interest_lists(paths: list[list], graph) -> list[set[int]]:
    """:func:`compute_interest_lists` for stars whose sketches cannot
    overflow (see the module docstring): per-(node, path) sums and
    per-node totals in edge-table order, then a bottom-up suffix fold per
    path, each operation the one a sketch would make.  A node without
    cross edges leaves the fold as it was, so its check is skipped."""
    path_of: dict = {}
    for index, path in enumerate(paths):
        for node in path:
            path_of[node] = index

    sums: dict = {}
    totals: dict = {}
    for u, v, weight in edge_table(graph):
        pu, pv = path_of.get(u), path_of.get(v)
        if pu is None or pv is None or pu == pv:
            continue
        for node, label in ((u, pv), (v, pu)):
            counts = sums.get(node)
            if counts is None:
                sums[node] = {label: weight}
                totals[node] = 0.0 + weight
            else:
                counts[label] = counts.get(label, 0) + weight
                totals[node] += weight

    lists: list[set[int]] = []
    for index, path in enumerate(paths):
        found: set[int] = set()
        acc: dict = {}
        total = 0.0
        for node in reversed(path):
            counts = sums.get(node)
            if counts is None:
                continue  # nothing changed since the last check
            total += totals[node]
            for key, value in counts.items():
                acc[key] = acc.get(key, 0) + value
            if total <= 0:
                continue
            half = total / 2
            for key, estimate in acc.items():
                # ``+ 0.0`` is the sketch's zero slack: a huge int
                # estimate is compared as a float, exactly as there.
                if estimate + 0.0 > half:
                    found.add(key)
        found.discard(index)
        lists.append(found)
    return lists


def compute_interest_lists_engine(
    paths: list[list],
    graph,
) -> tuple[list[set[int]], int]:
    """Lemma 32, engine-genuine: the suffix merge runs as Minor-Aggregation
    path suffix sums with the Misra-Gries sketch as the aggregation operator
    (Example 8's "subtree sum + heavy-hitter aggregator" combination).

    ``graph`` is a networkx graph (the engine's topology).  Returns
    (interest lists, executed engine rounds).  Produces the same lists as
    :func:`compute_interest_lists`, which the tests assert; the
    charged-cost solvers use the direct version, this one is the validation
    artifact for the model claim.
    """
    from repro.ma.engine import MinorAggregationEngine
    from repro.ma.operators import misra_gries_operator
    from repro.trees.sums import path_suffix_sums

    sketches = _node_sketches(paths, graph)
    op = misra_gries_operator(SKETCH_CAPACITY)
    engine = MinorAggregationEngine(graph)
    values = {
        node: sketches.get(node, MisraGries.empty(SKETCH_CAPACITY))
        for path in paths
        for node in path
    }
    suffix = path_suffix_sums(
        engine, paths, values, op, label="interest:suffix-mg"
    )

    lists: list[set[int]] = []
    for index, path in enumerate(paths):
        found: set[int] = set()
        for node in path:
            sketch = suffix[node]
            total = sketch.total
            if total <= 0:
                continue
            for key, estimate in sketch.counts.items():
                if estimate + sketch.decremented > total / 2:
                    found.add(key)
        found.discard(index)
        lists.append(found)
    return lists, engine.rounds_executed


def build_interest_graph(lists: list[set[int]]) -> list[tuple[int, int]]:
    """Definition 33: the mutually-interested path pairs ``(i, j)``, i < j."""
    return [
        (i, j)
        for i, interested in enumerate(lists)
        for j in sorted(interested)
        if i < j and i in lists[j]
    ]


def greedy_edge_coloring(pairs: list[tuple]) -> dict[tuple, int]:
    """Proper edge coloring with at most ``2*Delta - 1`` colors.

    Stands in for the Panconesi-Rizzi CONGEST algorithm (Lemma 35), which is
    simulated on the interest graph with O(Delta) overhead (Lemma 34); only
    properness and the Õ(1) color count matter downstream.
    """
    coloring: dict[tuple, int] = {}
    used_at: dict = {}
    for u, v in sorted(pairs, key=lambda e: (str(e[0]), str(e[1]))):
        at_u = used_at.setdefault(u, set())
        at_v = used_at.setdefault(v, set())
        forbidden = at_u | at_v
        color = 0
        while color in forbidden:
            color += 1
        coloring[(u, v)] = color
        at_u.add(color)
        at_v.add(color)
    return coloring


def interest_structure(
    paths: list[list],
    graph: EdgeTable,
    accountant: RoundAccountant | None = None,
) -> InterestResult:
    """Interest lists + mutual-interest pairs in one call."""
    with obs_trace.span("ma.interest", acct_prefix="star:interest"):
        lists = compute_interest_lists(paths, graph, accountant)
        return InterestResult(lists=lists, pairs=build_interest_graph(lists))
