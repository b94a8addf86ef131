"""CSR weighted-graph core: the native interchange type of the pipeline.

A :class:`CSRGraph` stores a weighted undirected graph as flat numpy
arrays and is the canonical representation the hot pipeline runs on
(generators -> tree packing -> batched per-tree solves -> oracle), with
networkx supported only at the boundary via :meth:`from_networkx` /
:meth:`to_networkx`.

Layout
------
Two aligned views of the same edge set:

* **edge table** -- ``edge_u``, ``edge_v``, ``edge_w``: one row per
  undirected edge in *canonical order* (``edge_u <= edge_v`` per row by
  node index, rows sorted lexicographically, parallel edges merged by
  weight summation).  Every per-edge vector computation (weight draws,
  Karger sampling, Boruvka costs, cover scatter) runs over this table.
* **CSR adjacency** -- ``indptr``, ``indices``, ``adj_weight``,
  ``adj_edge``: node ``i``'s neighbors are
  ``indices[indptr[i]:indptr[i+1]]`` (sorted by neighbor index), with
  the parallel arrays carrying the edge weight and the edge-table row of
  each adjacency slot.  This is what BFS, the CONGEST simulator, and the
  Minor-Aggregation engine consume instead of dict scans.

Nodes are dense indices ``0..n-1``.  Arbitrary hashable labels are
supported through the optional ``nodes`` table (``nodes[i]`` is the
label of index ``i``); ``nodes is None`` means the labels *are* the
indices, which is the zero-overhead fast path every generator uses.

Weights are float64 internally (what the kernel consumes) and validated
at construction: NaN, infinity, and negative weights are rejected with a
clear error instead of surfacing as a witness-consistency failure deep
inside ``mincut``.  Zero-weight edges and self-loops are representable;
cut machinery ignores self-loops (they never cross a cut) and keeps
zero-weight edges reportable as crossing witnesses.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.errors import GraphValidationError

Node = Hashable

__all__ = [
    "CSRGraph", "DisjointSets", "as_csr", "merge_components", "validate_weights",
]

#: Byte budget of :meth:`CSRGraph.diameter`'s per-level neighbour gather
#: (8 bytes per adjacency slot per 64 sources): bounds its memory on any
#: graph, while a gnm graph with m = 4n up to n = 4096 runs in one block.
DIAMETER_GATHER_BYTES = 32 << 20


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + k) for s, k in zip(starts, lengths)])``
    as one vectorised expansion (``lengths`` non-empty)."""
    ends = np.cumsum(lengths)
    offsets = np.repeat(starts - (ends - lengths), lengths)
    return np.arange(int(ends[-1]), dtype=np.int64) + offsets


class DisjointSets:
    """Array union-find over dense indices ``0..n-1`` (path halving).

    Shared by the CSR spanning-tree and Boruvka implementations so the
    structure lives in one place.
    """

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the two sets; returns False when already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def merge_components(
    labels: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Union the components of the ``(u, v)`` pairs, fully vectorized.

    ``labels`` maps node -> component representative and must be
    idempotent (``labels[labels] == labels``); the return value is again
    idempotent.  Min-hooking plus pointer jumping: each round hooks every
    still-split pair's larger root under the smaller one and compresses,
    converging in O(log) rounds.  Which representative a component ends
    up with is irrelevant to callers (only the partition matters), so
    this is decision-free with respect to the serial union-find.

    Started from ``np.arange(n)`` (every node its own least-index root),
    a root is only ever hooked under a smaller root of its own
    component, so each returned label is its component's least index:
    :meth:`CSRGraph.connected_components` and the packing's contraction
    passes (:func:`~repro.core.tree_packing._contract_many`) read that.
    The compiled Minor-Aggregation engine's contraction step uses it too.
    """
    ru, rv = labels[u], labels[v]
    while True:
        lo = np.minimum(ru, rv)
        hi = np.maximum(ru, rv)
        split = lo != hi
        if not split.any():
            break
        np.minimum.at(labels, hi[split], lo[split])
        while True:
            compressed = labels[labels]
            if np.array_equal(compressed, labels):
                break
            labels = compressed
        ru, rv = labels[ru], labels[rv]
    return labels


def validate_weights(weights, context: str = "graph") -> np.ndarray:
    """One dtype-checked conversion to float64, rejecting bad weights.

    Raises :class:`~repro.errors.GraphValidationError` (a ``ValueError``)
    naming the offending position for non-numeric, NaN, infinite, or
    negative entries.
    """
    try:
        array = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GraphValidationError(
            f"{context}: edge weights must be numeric, got "
            f"{type(weights).__name__} that does not convert to float64 ({exc})"
        ) from None
    if array.ndim != 1:
        array = array.reshape(-1)
    bad = ~np.isfinite(array)
    if bad.any():
        i = int(np.argmax(bad))
        raise GraphValidationError(
            f"{context}: edge weight at position {i} is {array[i]} "
            "(NaN/inf weights are not allowed)"
        )
    negative = array < 0
    if negative.any():
        i = int(np.argmax(negative))
        raise GraphValidationError(
            f"{context}: edge weight at position {i} is {array[i]} "
            "(negative weights are not allowed; the paper's model uses "
            "non-negative poly(n) integers)"
        )
    return array


def _as_index_array(values, n: int, what: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64).reshape(-1)
    if len(array) and (array.min() < 0 or array.max() >= n):
        raise GraphValidationError(f"{what}: node index out of range [0, {n})")
    return array


class CSRGraph:
    """Weighted undirected graph in canonical CSR form."""

    __slots__ = (
        "n", "edge_u", "edge_v", "edge_w",
        "indptr", "indices", "adj_weight", "adj_edge",
        "nodes", "meta", "int_weights", "_index", "_hash", "_diameter",
        "_connected",
    )

    def __init__(
        self,
        n: int,
        edge_u,
        edge_v,
        edge_w=None,
        nodes: Sequence[Node] | None = None,
        meta: dict | None = None,
        canonical: bool = False,
    ):
        if n < 0:
            raise GraphValidationError("need a non-negative node count")
        if nodes is not None:
            nodes = list(nodes)
            if len(nodes) != n:
                raise GraphValidationError(f"node table has {len(nodes)} labels for n={n}")
            if all(label == i for i, label in enumerate(nodes)):
                nodes = None  # identity labels: use the zero-overhead path
        self.n = int(n)
        self.nodes = nodes
        self.meta = dict(meta) if meta else {}
        self._index: dict | None = None
        self._hash: str | None = None
        self._diameter: int | None = None
        self._connected: bool | None = None

        u = _as_index_array(edge_u, n, "edge_u")
        v = _as_index_array(edge_v, n, "edge_v")
        if len(u) != len(v):
            raise GraphValidationError("edge_u and edge_v lengths differ")
        if edge_w is None:
            w = np.ones(len(u), dtype=np.float64)
        else:
            w = validate_weights(edge_w, context="CSRGraph")
            if len(w) != len(u):
                raise GraphValidationError("edge weight array length differs from edges")

        if not canonical:
            u, v, w = _canonicalize(u, v, w)
        self.edge_u = u
        self.edge_v = v
        self.edge_w = w
        self.int_weights = bool(len(w) == 0 or np.all(w == np.floor(w)))
        self._build_adjacency()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_adjacency(self) -> None:
        """Both directions of the edge table, grouped per node (vectorized)."""
        u, v, w = self.edge_u, self.edge_v, self.edge_w
        loops = u == v
        m = len(u)
        eid = np.arange(m, dtype=np.int64)
        # Self-loops get a single adjacency slot (node -> itself).
        keep = ~loops
        src = np.concatenate([u, v[keep]])
        dst = np.concatenate([v, u[keep]])
        wgt = np.concatenate([w, w[keep]])
        ids = np.concatenate([eid, eid[keep]])
        order = np.lexsort((dst, src))
        self.indices = dst[order]
        self.adj_weight = wgt[order]
        self.adj_edge = ids[order]
        counts = np.bincount(src, minlength=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self.indptr = indptr

    @classmethod
    def from_edge_list(
        cls,
        edges: Iterable[tuple],
        n: int | None = None,
        nodes: Sequence[Node] | None = None,
        default_weight: float = 1.0,
        meta: dict | None = None,
    ) -> "CSRGraph":
        """Build from ``(u, v)`` / ``(u, v, w)`` tuples.

        When *every* endpoint is a plain integer (and no node table is
        given) the integers are taken as dense indices directly.  In every
        other case all endpoints -- integers included -- become labels in
        a first-appearance node table, which matches networkx insertion
        semantics (``"a"`` and ``0`` stay distinct nodes).  Later
        duplicate rows *overwrite* earlier ones (edge-list-file
        semantics); use the raw constructor to merge parallel edges by
        summation instead.
        """
        rows: list[tuple[Node, Node, float]] = []
        for row in edges:
            if len(row) == 2:
                a, b = row
                weight = default_weight
            else:
                a, b, weight = row
            rows.append((a, b, weight))

        def is_index(x) -> bool:
            return isinstance(x, (int, np.integer)) and not isinstance(x, bool)

        implicit = nodes is None
        identity = implicit and all(
            is_index(a) and is_index(b) for a, b, _w in rows
        )
        labels: list[Node] = list(nodes) if nodes is not None else []
        index: dict[Node, int] = {label: i for i, label in enumerate(labels)}

        def resolve(label: Node) -> int:
            if identity:
                return int(label)
            if label not in index:
                if not implicit:
                    raise GraphValidationError(f"unknown node label {label!r}")
                index[label] = len(labels)
                labels.append(label)
            return index[label]

        dedup: dict[tuple, float] = {}
        for a, b, weight in rows:
            ia, ib = resolve(a), resolve(b)
            dedup[(ia, ib) if ia <= ib else (ib, ia)] = weight

        count = n
        if count is None:
            count = len(labels) if labels else (
                max((max(a, b) for a, b in dedup), default=-1) + 1
            )
        elif labels and len(labels) != count:
            raise GraphValidationError(
                f"n={count} disagrees with the {len(labels)} node labels "
                "appearing in the edge list"
            )
        m = len(dedup)
        u = np.empty(m, dtype=np.int64)
        v = np.empty(m, dtype=np.int64)
        w = np.empty(m, dtype=np.float64)
        for i, ((a, b), weight) in enumerate(dedup.items()):
            u[i] = a
            v[i] = b
            w[i] = weight
        return cls(count, u, v, w, nodes=labels or None, meta=meta)

    @classmethod
    def from_networkx(cls, graph) -> "CSRGraph":
        """Boundary conversion from a networkx graph (weights validated)."""
        node_list = list(graph.nodes())
        n = len(node_list)
        identity = all(
            isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x == i
            for i, x in enumerate(node_list)
        )
        position = None if identity else {x: i for i, x in enumerate(node_list)}
        m = graph.number_of_edges()
        u = np.empty(m, dtype=np.int64)
        v = np.empty(m, dtype=np.int64)
        w = [None] * m
        for i, (a, b, weight) in enumerate(graph.edges(data="weight", default=1)):
            u[i] = a if position is None else position[a]
            v[i] = b if position is None else position[b]
            w[i] = weight
        weights = validate_weights(w, context="from_networkx")
        return cls(
            n, u, v, weights,
            nodes=None if identity else node_list,
            meta=dict(graph.graph),
        )

    def to_networkx(self):
        """Boundary conversion to a weighted ``networkx.Graph``.

        Integral weights come back as Python ints (the paper's weight
        model); node labels are restored from the node table.  Edge
        insertion follows the canonical order, so for identity-labelled
        graphs ``graph.edges()`` enumerates edges exactly in the CSR
        edge-table order.
        """
        import networkx as nx

        graph = nx.Graph()
        if self.nodes is None:
            graph.add_nodes_from(range(self.n))
            pairs = zip(self.edge_u.tolist(), self.edge_v.tolist())
        else:
            graph.add_nodes_from(self.nodes)
            labels = self.nodes
            pairs = (
                (labels[a], labels[b])
                for a, b in zip(self.edge_u.tolist(), self.edge_v.tolist())
            )
        weights = (
            (int(x) for x in self.edge_w.tolist())
            if self.int_weights
            else iter(self.edge_w.tolist())
        )
        graph.add_weighted_edges_from(
            (a, b, w) for (a, b), w in zip(pairs, weights)
        )
        graph.graph.update(self.meta)
        return graph

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_npz(self, path) -> None:
        """Write the canonical arrays to a compressed ``.npz`` file.

        A node table survives the round trip when its labels are all
        integers (stored as int64) or all strings; anything else is
        rejected rather than silently coerced.  ``meta`` is not persisted
        -- it may hold non-array payloads like planted partitions.
        """
        payload = {
            "format": np.array("repro-csr/1"),
            "n": np.array(self.n, dtype=np.int64),
            "edge_u": self.edge_u,
            "edge_v": self.edge_v,
            "edge_w": self.edge_w,
        }
        if self.nodes is not None:
            if all(
                isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                for x in self.nodes
            ):
                payload["labels"] = np.array(self.nodes, dtype=np.int64)
            elif all(isinstance(x, str) for x in self.nodes):
                payload["labels"] = np.array(self.nodes)
            else:
                raise GraphValidationError(
                    "save_npz supports all-int or all-str node labels; "
                    "relabel the graph before persisting"
                )
        np.savez_compressed(path, **payload)

    @classmethod
    def load_npz(cls, path) -> "CSRGraph":
        with np.load(path, allow_pickle=False) as data:
            if "edge_u" not in data or "n" not in data:
                raise GraphValidationError(f"{path}: not a repro CSR graph file")
            nodes = data["labels"].tolist() if "labels" in data else None
            return cls(
                int(data["n"]),
                data["edge_u"],
                data["edge_v"],
                data["edge_w"],
                nodes=nodes,
                canonical=True,
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of undirected edges (parallel edges already merged)."""
        return len(self.edge_u)

    def number_of_nodes(self) -> int:
        return self.n

    def number_of_edges(self) -> int:
        return self.m

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        labelled = "" if self.nodes is None else ", labelled"
        return f"CSRGraph(n={self.n}, m={self.m}{labelled})"

    def node_labels(self) -> list:
        """Labels by index (the identity list when no table is attached)."""
        return list(range(self.n)) if self.nodes is None else list(self.nodes)

    def index_of(self, label: Node) -> int:
        """Dense index of a node label (O(1) after the first call)."""
        if self.nodes is None:
            i = int(label)
            if not 0 <= i < self.n:
                raise KeyError(label)
            return i
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self.nodes)}
        return self._index[label]

    def total_weight(self) -> float:
        return float(self.edge_w.sum())

    def canonical_hash(self) -> str:
        """Content hash of the canonical edge table (hex SHA-256).

        Two :class:`CSRGraph` instances hash equal iff they describe the
        same weighted graph on the same node labels: construction already
        canonicalizes the edge table (rows as ``(min, max)`` pairs sorted
        lexicographically, parallel edges merged), so any permutation of
        the input edge list -- and an ``.npz`` round trip -- produces the
        identical hash, while any weight change produces a different one.
        The node-label table participates when present (two structurally
        equal graphs with different labels yield different partitions, so
        they must not collide); identity-labelled graphs hash over the
        arrays alone.

        The serving layer (:mod:`repro.serve`) keys its request dedup and
        :class:`~repro.serve.PackingCache` on this.  The digest is
        computed once and memoized (graphs are immutable; the weight- and
        topology-changing operations all return fresh instances).
        """
        if self._hash is None:
            digest = hashlib.sha256()
            digest.update(b"repro-csr-hash/1")
            digest.update(np.int64(self.n).tobytes())
            digest.update(np.ascontiguousarray(self.edge_u).tobytes())
            digest.update(np.ascontiguousarray(self.edge_v).tobytes())
            digest.update(np.ascontiguousarray(self.edge_w).tobytes())
            if self.nodes is not None:
                for label in self.nodes:
                    token = f"{type(label).__name__}:{label!r}"
                    digest.update(token.encode("utf-8", "backslashreplace"))
                    digest.update(b"\x00")
            self._hash = digest.hexdigest()
        return self._hash

    # ------------------------------------------------------------------
    # Degree / neighbor primitives (indptr slices, no dict scans)
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Unweighted degree per index (self-loops count twice, as in nx)."""
        deg = np.bincount(self.edge_u, minlength=self.n)
        deg += np.bincount(self.edge_v, minlength=self.n)
        return deg

    def weighted_degrees(self) -> np.ndarray:
        """Sum of incident edge weights per index (self-loops twice)."""
        deg = np.zeros(self.n, dtype=np.float64)
        np.add.at(deg, self.edge_u, self.edge_w)
        np.add.at(deg, self.edge_v, self.edge_w)
        return deg

    def neighbors(self, i: int) -> np.ndarray:
        """Neighbor indices of node ``i`` -- a zero-copy indptr slice."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def neighbor_weights(self, i: int) -> np.ndarray:
        return self.adj_weight[self.indptr[i]:self.indptr[i + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        row = self.neighbors(i)
        pos = int(np.searchsorted(row, j))
        return pos < len(row) and int(row[pos]) == j

    def edge_weight(self, i: int, j: int, default: float | None = None) -> float:
        """Weight of edge ``{i, j}`` via binary search in ``i``'s row."""
        row = self.neighbors(i)
        pos = int(np.searchsorted(row, j))
        if pos < len(row) and int(row[pos]) == j:
            return float(self.adj_weight[self.indptr[i] + pos])
        if default is None:
            raise KeyError((i, j))
        return default

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def bfs_levels(self, source: int) -> np.ndarray:
        """Hop distance from ``source`` per index (-1 = unreachable).

        Frontier-at-a-time with numpy gathers: each level is one
        concatenated indptr expansion, no per-node Python work.
        """
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        indptr, indices = self.indptr, self.indices
        while len(frontier):
            level += 1
            starts = indptr[frontier]
            lengths = indptr[frontier + 1] - starts
            if not lengths.any():
                break
            # Gather all frontier adjacency rows in one shot.
            reach = indices[_ranges(starts, lengths)]
            fresh = reach[dist[reach] < 0]
            if not len(fresh):
                break
            fresh = np.unique(fresh)
            dist[fresh] = level
            frontier = fresh
        return dist

    def connected_components(self) -> np.ndarray:
        """Component id per index (ids are the minimum member index): one
        :func:`merge_components` pass over the edge table, whose
        min-hooking leaves each component's least index as its label."""
        return merge_components(
            np.arange(self.n, dtype=np.int64), self.edge_u, self.edge_v
        )

    def is_connected(self) -> bool:
        """Whether every node is in node 0's component (computed once per
        graph)."""
        if self._connected is None:
            self._connected = self.n > 0 and not self.connected_components().any()
        return self._connected

    def diameter(self) -> int:
        """Exact hop diameter (requires connectivity), computed once per
        graph.

        Bit-parallel BFS from every source at once: each node's packed
        ``uint64`` reach words hold one bit per source, set once the
        source is within the current distance of the node.  A level ORs
        the neighbours' words into the words of every neighbour of a
        word that changed in the previous level -- one gather and one
        ``bitwise_or.reduceat`` -- and the diameter is the level at which
        every node's words are full.  Sources run in blocks of words that
        keep a level's gather under :data:`DIAMETER_GATHER_BYTES`.
        """
        if self._diameter is None:
            self._diameter = self._bit_parallel_diameter()
        return self._diameter

    def _bit_parallel_diameter(self) -> int:
        n = self.n
        if n <= 1:
            return 0
        degree = np.diff(self.indptr)
        # reduceat needs every segment non-empty; an isolated node (n >= 2)
        # is disconnected anyway.
        if not degree.all():
            raise GraphValidationError("diameter of a disconnected graph")
        total_words = (n + 63) // 64
        block_words = max(1, DIAMETER_GATHER_BYTES // (8 * len(self.indices)))
        best = 0
        for first in range(0, total_words, block_words):
            words = min(block_words, total_words - first)
            # Word-major units: reach[w * n + v] holds sources 64w .. 64w + 63
            # of the block (bit = source - 64w) for node v.
            sources = np.arange(
                first * 64, min(n, (first + words) * 64), dtype=np.int64
            )
            column = sources - first * 64
            bits = np.left_shift(np.uint64(1), (column & 63).astype(np.uint64))
            reach = np.zeros(words * n, dtype=np.uint64)
            reach[(column >> 6) * n + sources] = bits
            full = np.zeros((words, 1), dtype=np.uint64)
            np.bitwise_or.at(full[:, 0], column >> 6, bits)
            best = max(best, self._levels_until_full(reach, full, degree))
        return best

    def _levels_until_full(
        self, reach: np.ndarray, full: np.ndarray, degree: np.ndarray
    ) -> int:
        """BFS levels until every ``(word, node)`` unit of ``reach`` equals
        its word of ``full``: the block's largest eccentricity."""
        words, n = len(full), self.n
        starts, indices = self.indptr[:-1], self.indices

        def neighbour_units(units):
            """The ``(word, neighbour)`` units of each unit, unit by unit,
            and each unit's degree."""
            word, node = np.divmod(units, n)
            count = degree[node]
            around = np.repeat(word * n, count) + indices[_ranges(starts[node], count)]
            return around, count

        # Only neighbours of the units that changed in the last level can
        # change in the next one.
        changed = np.flatnonzero(reach)
        level = 0
        while not (reach.reshape(words, n) == full).all():
            if not len(changed):
                raise GraphValidationError("diameter of a disconnected graph")
            level += 1
            mark = np.zeros(words * n, dtype=bool)
            mark[neighbour_units(changed)[0]] = True
            targets = np.flatnonzero(mark)
            around, count = neighbour_units(targets)
            offsets = np.zeros(len(targets), dtype=np.int64)
            np.cumsum(count[:-1], out=offsets[1:])
            old = reach[targets]
            grown = np.bitwise_or.reduceat(reach[around], offsets) | old
            moved = grown != old
            changed = targets[moved]
            reach[changed] = grown[moved]
        return level

    # ------------------------------------------------------------------
    # Structural primitives
    # ------------------------------------------------------------------
    def subgraph(self, keep) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on the given indices.

        Returns the sub-CSR (relabelled to ``0..k-1`` in the order given)
        and the array mapping new index -> old index.
        """
        keep = np.asarray(keep, dtype=np.int64).reshape(-1)
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[keep] = np.arange(len(keep), dtype=np.int64)
        mask = (remap[self.edge_u] >= 0) & (remap[self.edge_v] >= 0)
        labels = None
        if self.nodes is not None:
            labels = [self.nodes[i] for i in keep.tolist()]
        sub = CSRGraph(
            len(keep),
            remap[self.edge_u[mask]],
            remap[self.edge_v[mask]],
            self.edge_w[mask],
            nodes=labels,
        )
        return sub, keep

    def contract(self, component: np.ndarray, keep_self_loops: bool = False) -> tuple["CSRGraph", np.ndarray]:
        """Quotient graph under a node -> component assignment.

        ``component`` is any integer labelling; supernodes are renumbered
        densely (in order of minimum member index).  Parallel edges merge
        by weight summation; self-loops of the minor are dropped unless
        ``keep_self_loops``.  Returns the contracted CSR and the dense
        supernode id per original index.
        """
        component = np.asarray(component, dtype=np.int64).reshape(-1)
        if len(component) != self.n:
            raise GraphValidationError("component labelling must cover every node")
        _uniq, dense = np.unique(component, return_inverse=True)
        cu = dense[self.edge_u]
        cv = dense[self.edge_v]
        w = self.edge_w
        if not keep_self_loops:
            off = cu != cv
            cu, cv, w = cu[off], cv[off], w[off]
        quotient = CSRGraph(int(dense.max()) + 1 if self.n else 0, cu, cv, w)
        return quotient, dense

    def drop_self_loops(self) -> "CSRGraph":
        mask = self.edge_u != self.edge_v
        if mask.all():
            return self
        return CSRGraph(
            self.n, self.edge_u[mask], self.edge_v[mask], self.edge_w[mask],
            nodes=self.nodes, meta=self.meta, canonical=True,
        )

    def with_weights(self, weights) -> "CSRGraph":
        """Same topology, new per-edge weights (canonical order preserved)."""
        w = validate_weights(weights, context="with_weights")
        if len(w) != self.m:
            raise GraphValidationError("weight array length differs from edge count")
        return CSRGraph(
            self.n, self.edge_u, self.edge_v, w,
            nodes=self.nodes, meta=self.meta, canonical=True,
        )


def as_csr(graph) -> CSRGraph:
    """``graph`` itself when it is a :class:`CSRGraph`, else its
    :meth:`CSRGraph.from_networkx` conversion -- the one crossing a
    networkx input makes into the pipeline."""
    if isinstance(graph, CSRGraph):
        return graph
    return CSRGraph.from_networkx(graph)


def _canonicalize(
    u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort rows as (min, max) pairs and merge parallel edges (weight sum)."""
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    if len(lo) > 1:
        fresh = np.empty(len(lo), dtype=bool)
        fresh[0] = True
        np.not_equal(lo[1:], lo[:-1], out=fresh[1:])
        fresh[1:] |= hi[1:] != hi[:-1]
        if not fresh.all():
            starts = np.nonzero(fresh)[0]
            w = np.add.reduceat(w, starts)
            lo, hi = lo[starts], hi[starts]
    return lo, hi, np.ascontiguousarray(w, dtype=np.float64)
