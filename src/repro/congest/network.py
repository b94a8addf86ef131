"""Synchronous CONGEST network simulator, with optional fault injection.

Each node runs a :class:`NodeProgram`: per round it receives the messages
sent to it in the previous round (a dict keyed by neighbor) and returns the
messages to send (a dict keyed by neighbor).  The simulator enforces the
CONGEST discipline: one message per edge direction per round, each at most
``message_bits`` bits (default ``32 * ceil(log2 n)``, i.e. a constant number
of O(log n)-bit words, matching the convention that an edge/node descriptor
fits in one message).

Nodes only know their own ID, their neighbors' IDs, and ``n`` -- exactly the
paper's initial-knowledge assumption.

Fault injection
---------------
``run(..., faults=FaultPlan(...))`` replays the program over a lossy
fabric (see :mod:`repro.faults`).  Two transports are available:

* ``reliable=True`` (default): a per-link retry/ack transport -- a
  sliding-window go-back-N ARQ with cumulative piggybacked acks --
  underneath an alpha-synchronizer.  Every *inner* (logical) round of
  the program is carried in sequenced frames; a node executes inner
  round ``t`` only once it holds every neighbor's round ``t-1``
  envelope and every other node has reached round ``t-1``.  The inner
  execution is therefore **bit-identical** to the lossless run: same
  per-round inboxes, same final contexts, same inner round count --
  the injected loss only costs extra *physical* rounds, reported in
  :attr:`transport` and charged to the accountant under
  ``congest-retransmit``.  If the physical budget runs out first (a
  crashed node, or drop rates near 1), :class:`~repro.errors.
  TransportTimeout` is raised.
* ``reliable=False``: raw best-effort delivery -- program messages are
  dropped/duplicated/delayed exactly as the plan dictates and nobody
  retries.  This is the mode that *demonstrates* corruption (and what
  a fault-oblivious algorithm would experience).

Both transports draw every fate from the plan's single seeded RNG in a
fixed link order, so a given plan replays deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.accounting import RoundAccountant, log2ceil
from repro.errors import TransportTimeout
from repro.graphs.csr import CSRGraph
from repro.ma.operators import estimate_bits
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - types only
    import networkx as nx

    from repro.faults import FaultPlan

Node = Hashable

#: go-back-N window: frames a sender may have un-acked per link.
_ARQ_WINDOW = 4
#: rounds a sender waits for an ack before retransmitting the oldest frame.
_ARQ_RTO = 2


@dataclass
class NodeContext:
    """What a node legitimately knows."""

    node: Node
    neighbors: list[Node]
    n: int
    state: dict = field(default_factory=dict)


class NodeProgram:
    """Override :meth:`start` and :meth:`round`; manage ``ctx.state['done']``.

    A program that never touches ``done`` is considered passive: it
    terminates as soon as the network is quiescent.  Programs with silent
    phases must set ``ctx.state['done'] = False`` up front and flip it when
    finished.
    """

    def start(self, ctx: NodeContext) -> dict[Node, Any]:
        """Messages to send in round 1."""
        return {}

    def round(self, ctx: NodeContext, received: dict[Node, Any]) -> dict[Node, Any]:
        """Process round ``r`` inbox, return round ``r+1`` outbox."""
        return {}

    def done(self, ctx: NodeContext) -> bool:
        return bool(ctx.state.get("done", True))


class MessageTooLarge(RuntimeError):
    pass


class CongestNetwork:
    """Executes a :class:`NodeProgram` on every node of a topology."""

    def __init__(
        self,
        graph: "nx.Graph | CSRGraph",
        message_bits: int | None = None,
        enforce_message_size: bool = True,
    ):
        # Topology is frozen at construction: neighbor lists are derived
        # once here (not once per run) and _check consults the same frozen
        # adjacency, so later graph mutation cannot be half-honored.  For
        # a CSRGraph the lists come straight off indptr slices.
        if isinstance(graph, CSRGraph):
            if not graph.is_connected():
                raise ValueError("CONGEST requires a connected graph")
            self.n = graph.n
            labels = graph.node_labels()
            self._nodes: list[Node] = labels
            self._neighbors: dict[Node, list[Node]] = {}
            for i, node in enumerate(labels):
                row = graph.neighbors(i)
                self._neighbors[node] = sorted(
                    (labels[j] for j in row.tolist() if j != i),
                    key=lambda v: (type(v).__name__, str(v)),
                )
            self._edge_count = graph.m
        else:
            import networkx as nx

            if not nx.is_connected(graph):
                raise ValueError("CONGEST requires a connected graph")
            self.n = graph.number_of_nodes()
            self._nodes = list(graph.nodes())
            self._neighbors = {
                node: sorted(
                    graph.neighbors(node),
                    key=lambda v: (type(v).__name__, str(v)),
                )
                for node in self._nodes
            }
            self._edge_count = graph.number_of_edges()
        self.graph = graph
        self.message_bits = message_bits or 32 * log2ceil(self.n)
        self.enforce_message_size = enforce_message_size
        self.rounds_executed = 0
        self.messages_sent = 0
        self.max_message_bits_seen = 0
        #: transport report of the most recent ``run`` (empty = lossless).
        self.transport: dict = {}
        self._neighbor_sets: dict[Node, frozenset] = {
            node: frozenset(neighbors)
            for node, neighbors in self._neighbors.items()
        }

    def _check(self, sender: Node, target: Node, message: Any) -> None:
        if target not in self._neighbor_sets[sender]:
            raise ValueError(f"{sender!r} tried to message non-neighbor {target!r}")
        bits = estimate_bits(message)
        if bits > self.max_message_bits_seen:
            self.max_message_bits_seen = bits
        if self.enforce_message_size and bits > self.message_bits:
            raise MessageTooLarge(
                f"{sender!r}->{target!r}: {bits} bits > budget {self.message_bits}"
            )

    def run(
        self,
        program_factory: Callable[[], NodeProgram],
        max_rounds: int | None = None,
        faults: "FaultPlan | None" = None,
        accountant: RoundAccountant | None = None,
        reliable: bool = True,
        max_physical_rounds: int | None = None,
    ) -> dict[Node, NodeContext]:
        """Run until every node reports done (or ``max_rounds``).

        With ``faults`` the run goes through one of the lossy transports
        (see the module docstring); ``max_rounds`` then bounds the
        *inner* (logical) rounds and ``max_physical_rounds`` the
        physical ones.  ``accountant``, when given, is charged the
        executed rounds under the label ``"congest"`` (plus
        ``"congest-retransmit"`` for the reliable transport's recovery
        overhead).
        """
        if max_rounds is None:
            max_rounds = 4 * (self.n + self._edge_count) + 16
        rounds_before = self.rounds_executed
        messages_before = self.messages_sent
        with obs_trace.span(
            "congest.run",
            n=self.n,
            mode=(
                "lossless" if faults is None
                else ("reliable" if reliable else "raw")
            ),
            acct=("congest", "congest-retransmit"),
        ) as sp:
            if faults is not None:
                runner = self._run_reliable if reliable else self._run_raw
                contexts = runner(
                    program_factory, max_rounds, faults, accountant,
                    max_physical_rounds,
                )
            else:
                contexts = self._run_lossless(program_factory, max_rounds)
                self.transport = {}
                if accountant is not None:
                    accountant.charge(
                        self.rounds_executed - rounds_before, "congest"
                    )
            self._record_run_metrics(sp, rounds_before, messages_before)
        return contexts

    def _record_run_metrics(
        self, sp, rounds_before: int, messages_before: int
    ) -> None:
        if not obs_trace.enabled():
            return
        rounds = self.rounds_executed - rounds_before
        messages = self.messages_sent - messages_before
        sp.set(physical_rounds=rounds, messages=messages)
        obs_metrics.counter("congest.physical_rounds").inc(rounds)
        obs_metrics.counter("congest.messages").inc(messages)
        obs_metrics.counter("congest.runs").inc()
        if self.transport:
            retrans = int(self.transport.get("retransmissions", 0))
            frames = int(self.transport.get("frames_sent", 0))
            sp.set(
                retransmissions=retrans,
                frames=frames,
                inner_rounds=self.transport.get("inner_rounds"),
            )
            obs_metrics.counter("congest.retransmissions").inc(retrans)
            obs_metrics.counter("congest.frames").inc(frames)
            obs_metrics.histogram("congest.run_physical_rounds").observe(
                int(self.transport.get("physical_rounds", rounds))
            )

    def _run_lossless(
        self,
        program_factory: Callable[[], NodeProgram],
        max_rounds: int,
    ) -> dict[Node, NodeContext]:
        nodes = self._nodes
        programs: dict[Node, NodeProgram] = {}
        contexts: dict[Node, NodeContext] = {}
        for node in nodes:
            contexts[node] = NodeContext(
                node=node, neighbors=list(self._neighbors[node]), n=self.n,
            )
            programs[node] = program_factory()

        outboxes: dict[Node, dict[Node, Any]] = {}
        for node in nodes:
            outbox = programs[node].start(contexts[node]) or {}
            for target, message in outbox.items():
                self._check(node, target, message)
            outboxes[node] = outbox

        for _ in range(max_rounds):
            pending = any(outbox for outbox in outboxes.values())
            if not pending and all(
                programs[v].done(contexts[v]) for v in nodes
            ):
                break
            # Inbox dicts only where a message actually lands; quiet nodes
            # share nothing and allocate nothing.
            inboxes: dict[Node, dict[Node, Any]] = {}
            any_message = False
            for sender, outbox in outboxes.items():
                for target, message in outbox.items():
                    inboxes.setdefault(target, {})[sender] = message
                    self.messages_sent += 1
                    any_message = True
            self.rounds_executed += 1
            next_outboxes: dict[Node, dict[Node, Any]] = {}
            for node in nodes:
                received = inboxes.get(node) or {}
                outbox = programs[node].round(contexts[node], received) or {}
                for target, message in outbox.items():
                    self._check(node, target, message)
                next_outboxes[node] = outbox
            outboxes = next_outboxes
            if (
                not any_message
                and all(not outbox for outbox in outboxes.values())
                and all(programs[v].done(contexts[v]) for v in nodes)
            ):
                # Quiescent: nothing in flight, nothing queued, all done.
                break
        return contexts

    # ------------------------------------------------------------------
    # Fault-injected transports
    # ------------------------------------------------------------------
    def _physical_budget(self, faults: "FaultPlan", inner_limit: int) -> int:
        """Generous physical-round ceiling for the reliable transport.

        The go-back-N pipeline needs ~1 physical round per inner round
        when lossless and ~1/(1-p)^2 when both the data frame and its
        ack must survive drop rate ``p``; the budget multiplies that by
        a fat safety factor so only genuinely unabsorbable plans (p near
        1, crashed nodes) time out.
        """
        p = faults.max_drop_rate
        if p >= 0.99:
            mult = 64
        else:
            mult = max(8, min(2048, math.ceil(12.0 / ((1.0 - p) ** 2))))
        per_inner = 1 + faults.latency + faults.max_skew
        return 64 + mult * per_inner * (inner_limit + 8)

    def _run_reliable(
        self,
        program_factory: Callable[[], NodeProgram],
        inner_limit: int,
        faults: "FaultPlan",
        accountant: RoundAccountant | None,
        max_physical_rounds: int | None,
    ) -> dict[Node, NodeContext]:
        """ARQ + alpha-synchronizer: bit-identical inner execution.

        Every directed link carries sequenced frames ``(seq, inner
        round, payload-or-None)`` with a cumulative piggybacked ack of
        the reverse direction.  Receivers deliver strictly in sequence
        (go-back-N: out-of-order frames are discarded and re-acked);
        senders keep at most ``_ARQ_WINDOW`` frames in flight and
        retransmit the oldest after ``_ARQ_RTO`` silent rounds.  A node
        executes inner round ``t`` only when (a) it holds all round
        ``t-1`` envelopes and (b) the global frontier has reached
        ``t-1`` -- so no node can run ahead of a termination decision
        the lossless execution would have made.
        """
        if max_physical_rounds is None:
            max_physical_rounds = self._physical_budget(faults, inner_limit)
        injector = faults.injector()
        nodes = self._nodes
        neighbors = self._neighbors
        programs: dict[Node, NodeProgram] = {}
        contexts: dict[Node, NodeContext] = {}
        for node in nodes:
            contexts[node] = NodeContext(
                node=node, neighbors=list(neighbors[node]), n=self.n,
            )
            programs[node] = program_factory()

        # Per-directed-link ARQ state.
        send_q: dict[tuple, list] = {}
        expected: dict[tuple, int] = {}  # (sender, receiver) -> next seq
        for u in nodes:
            for v in neighbors[u]:
                send_q[(u, v)] = []
                expected[(u, v)] = 0
        owe_ack: set[tuple] = set()
        # Received-but-unconsumed envelopes: node -> neighbor -> round -> payload.
        envelopes: dict[Node, dict[Node, dict[int, Any]]] = {
            u: {v: {} for v in neighbors[u]} for u in nodes
        }
        inner_executed: dict[Node, int] = {}
        produced_any: dict[int, bool] = {}
        arrivals: dict[int, list] = {}
        frames_sent = 0
        retransmissions = 0
        logical_messages = 0

        _next_seq: dict[tuple, int] = {link: 0 for link in send_q}

        def queue_outbox(node: Node, inner_round: int, outbox: dict) -> None:
            nonlocal logical_messages
            for target, message in outbox.items():
                self._check(node, target, message)
            logical_messages += len(outbox)
            for v in neighbors[node]:
                link = (node, v)
                send_q[link].append(
                    _Frame(_next_seq[link], inner_round, outbox.get(v))
                )
                _next_seq[link] += 1
            produced_any[inner_round] = (
                produced_any.get(inner_round, False) or bool(outbox)
            )
            inner_executed[node] = inner_round

        for node in nodes:
            outbox = programs[node].start(contexts[node]) or {}
            queue_outbox(node, 0, outbox)

        def all_done(phys: int) -> bool:
            return all(
                injector.crashed(v, phys) or programs[v].done(contexts[v])
                for v in nodes
            )

        def finish(phys_rounds: int, inner: int) -> dict[Node, NodeContext]:
            overhead = phys_rounds / inner if inner else None
            self.transport = {
                "mode": "reliable",
                "physical_rounds": phys_rounds,
                "inner_rounds": inner,
                "frames_sent": frames_sent,
                "retransmissions": retransmissions,
                "logical_messages": logical_messages,
                "overhead": overhead,
                "faults": injector.stats(),
                "plan": faults.describe(),
            }
            if accountant is not None:
                accountant.charge(inner, "congest")
                extra = phys_rounds - inner
                if extra > 0:
                    accountant.charge(extra, "congest-retransmit")
            return contexts

        phys = 0
        while True:
            # Execute every inner round the synchronizer allows, checking
            # the (lossless-equivalent) termination condition whenever
            # the frontier advances -- nodes never run past a round the
            # lossless execution would have stopped at.
            while True:
                frontier = min(inner_executed.values())
                if not produced_any.get(frontier, False) and all_done(phys):
                    self.rounds_executed += phys
                    return finish(phys, frontier)
                if frontier >= inner_limit:
                    self.rounds_executed += phys
                    return finish(phys, frontier)
                progress = False
                for u in nodes:
                    t = inner_executed[u] + 1
                    if t > frontier + 1 or t > inner_limit:
                        continue
                    if injector.crashed(u, phys):
                        continue
                    env = envelopes[u]
                    if any(t - 1 not in env[v] for v in neighbors[u]):
                        continue
                    received = {}
                    for v in neighbors[u]:
                        payload = env[v].pop(t - 1)
                        if payload is not None:
                            received[v] = payload
                    outbox = programs[u].round(contexts[u], received) or {}
                    queue_outbox(u, t, outbox)
                    progress = True
                if not progress:
                    break

            if phys >= max_physical_rounds:
                self.rounds_executed += phys
                frontier = min(inner_executed.values())
                raise TransportTimeout(
                    f"reliable transport spent {phys} physical rounds but the "
                    f"program only reached inner round {frontier} (limit "
                    f"{inner_limit}); drop rate {faults.max_drop_rate} and "
                    f"{len(faults.crash_rounds)} crash(es) exceed what "
                    "retransmission can absorb"
                )
            phys += 1

            # Send phase: one frame per directed link per physical round.
            for u in nodes:
                if injector.crashed(u, phys):
                    continue
                for v in neighbors[u]:
                    queue = send_q[(u, v)]
                    data = None
                    for frame in queue[:_ARQ_WINDOW]:
                        if frame.last_sent < 0:
                            data = frame
                            break
                    if data is None and queue and (
                        phys - queue[0].last_sent >= _ARQ_RTO
                    ):
                        data = queue[0]
                    if data is None and (u, v) not in owe_ack:
                        continue
                    owe_ack.discard((u, v))
                    ack = expected[(v, u)] - 1
                    if data is not None:
                        if data.last_sent >= 0:
                            retransmissions += 1
                        data.last_sent = phys
                    frames_sent += 1
                    self.messages_sent += 1
                    payload = (
                        (data.seq, data.inner_round, data.payload)
                        if data is not None else None
                    )
                    for extra in injector.deliveries(u, v):
                        arrivals.setdefault(phys + 1 + extra, []).append(
                            (u, v, payload, ack)
                        )

            # Delivery phase of the *next* tick happens at the top of the
            # loop conceptually; here we advance time and process frames
            # that arrive at the new physical round.
            for sender, target, payload, ack in arrivals.pop(phys + 1, []):
                if injector.crashed(target, phys + 1):
                    continue
                back = send_q[(target, sender)]
                while back and back[0].seq <= ack:
                    back.pop(0)
                if payload is None:
                    continue
                seq, inner_round, message = payload
                want = expected[(sender, target)]
                if seq == want:
                    expected[(sender, target)] = want + 1
                    envelopes[target][sender][inner_round] = message
                owe_ack.add((target, sender))

    def _run_raw(
        self,
        program_factory: Callable[[], NodeProgram],
        max_rounds: int,
        faults: "FaultPlan",
        accountant: RoundAccountant | None,
        max_physical_rounds: int | None,
    ) -> dict[Node, NodeContext]:
        """Best-effort transport: losses hit the program directly.

        The lossless loop with the injector spliced into delivery --
        no retries, no sequencing, no synchronizer.  With an all-zero
        plan this reproduces the lossless execution exactly; with real
        loss the program sees whatever survives (the mode that shows
        what fault-oblivious algorithms do under failure).
        """
        del max_physical_rounds  # raw mode is bounded by max_rounds alone
        injector = faults.injector()
        nodes = self._nodes
        neighbors = self._neighbors
        before = self.rounds_executed
        programs: dict[Node, NodeProgram] = {}
        contexts: dict[Node, NodeContext] = {}
        for node in nodes:
            contexts[node] = NodeContext(
                node=node, neighbors=list(neighbors[node]), n=self.n,
            )
            programs[node] = program_factory()

        outboxes: dict[Node, dict[Node, Any]] = {}
        for node in nodes:
            outbox = programs[node].start(contexts[node]) or {}
            for target, message in outbox.items():
                self._check(node, target, message)
            outboxes[node] = outbox

        arrivals: dict[int, list] = {}
        logical_messages = 0
        phys = 0

        def live_done() -> bool:
            return all(
                injector.crashed(v, phys + 1) or programs[v].done(contexts[v])
                for v in nodes
            )

        for _ in range(max_rounds):
            pending = any(outbox for outbox in outboxes.values())
            if not pending and not arrivals and live_done():
                break
            phys += 1
            for u in nodes:
                if injector.crashed(u, phys):
                    continue
                outbox = outboxes[u]
                for v in neighbors[u]:
                    if v not in outbox:
                        continue
                    logical_messages += 1
                    self.messages_sent += 1
                    for extra in injector.deliveries(u, v):
                        arrivals.setdefault(phys + extra, []).append(
                            (u, v, outbox[v])
                        )
            inboxes: dict[Node, dict[Node, Any]] = {}
            for sender, target, message in arrivals.pop(phys, []):
                if injector.crashed(target, phys):
                    continue
                inboxes.setdefault(target, {})[sender] = message
            self.rounds_executed += 1
            next_outboxes: dict[Node, dict[Node, Any]] = {}
            for node in nodes:
                if injector.crashed(node, phys):
                    next_outboxes[node] = {}
                    continue
                received = inboxes.get(node) or {}
                outbox = programs[node].round(contexts[node], received) or {}
                for target, message in outbox.items():
                    self._check(node, target, message)
                next_outboxes[node] = outbox
            outboxes = next_outboxes
            if (
                not arrivals
                and all(not outbox for outbox in outboxes.values())
                and live_done()
            ):
                break

        executed = self.rounds_executed - before
        self.transport = {
            "mode": "raw",
            "physical_rounds": executed,
            "inner_rounds": executed,
            "frames_sent": logical_messages,
            "retransmissions": 0,
            "logical_messages": logical_messages,
            "overhead": 1.0 if executed else None,
            "faults": injector.stats(),
            "plan": faults.describe(),
        }
        if accountant is not None:
            accountant.charge(executed, "congest")
        return contexts


class _Frame:
    """One sequenced data frame on a directed link (reliable transport)."""

    __slots__ = ("seq", "inner_round", "payload", "last_sent")

    def __init__(self, seq: int, inner_round: int, payload: Any):
        self.seq = seq
        self.inner_round = inner_round
        self.payload = payload
        self.last_sent = -1  # physical round of the last transmission
