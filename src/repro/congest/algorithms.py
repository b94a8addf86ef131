"""Classic CONGEST building blocks, plus measured helpers for baselines.

These algorithms are both substrate (BFS trees and convergecast underpin the
naive baseline and the part-wise-aggregation discussion) and calibration:
their measured round counts are the `D`-shaped quantities that the
Theorem 17 estimates are built from.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.congest.network import CongestNetwork, NodeContext, NodeProgram

Node = Hashable


class _BFSProgram(NodeProgram):
    """Flooding BFS from a root; each node learns (parent, depth)."""

    def __init__(self, root: Node):
        self.root = root

    def start(self, ctx: NodeContext):
        if ctx.node == self.root:
            ctx.state.update(parent=None, depth=0, done=True)
            return {nbr: 0 for nbr in ctx.neighbors}
        return {}

    def round(self, ctx: NodeContext, received):
        if "depth" in ctx.state or not received:
            ctx.state["done"] = "depth" in ctx.state
            return {}
        parent, depth = min(
            ((s, d) for s, d in received.items()),
            key=lambda item: (item[1], type(item[0]).__name__, str(item[0])),
        )
        ctx.state.update(parent=parent, depth=depth + 1, done=True)
        return {
            nbr: depth + 1 for nbr in ctx.neighbors if nbr != parent
        }


def bfs_tree(network: CongestNetwork, root: Node, **run_kwargs) -> dict[Node, dict]:
    """Build a BFS tree; returns per-node {parent, depth}.  ~ecc(root) rounds.

    Extra keyword arguments (``faults``, ``accountant``, ``reliable``,
    ...) pass through to :meth:`CongestNetwork.run` -- same for every
    helper below.
    """
    contexts = network.run(lambda: _BFSProgram(root), **run_kwargs)
    return {
        v: {"parent": c.state.get("parent"), "depth": c.state.get("depth")}
        for v, c in contexts.items()
    }


class _BroadcastProgram(NodeProgram):
    """Flood a value from the root to everyone."""

    def __init__(self, root: Node, value: Any):
        self.root = root
        self.value = value

    def start(self, ctx: NodeContext):
        if ctx.node == self.root:
            ctx.state.update(value=self.value, done=True)
            return {nbr: self.value for nbr in ctx.neighbors}
        return {}

    def round(self, ctx: NodeContext, received):
        if "value" in ctx.state or not received:
            ctx.state["done"] = "value" in ctx.state
            return {}
        value = next(iter(received.values()))
        ctx.state.update(value=value, done=True)
        senders = set(received)
        return {nbr: value for nbr in ctx.neighbors if nbr not in senders}


def broadcast(
    network: CongestNetwork, root: Node, value: Any, **run_kwargs
) -> dict[Node, Any]:
    """Flood ``value`` from ``root``; ~D rounds."""
    contexts = network.run(lambda: _BroadcastProgram(root, value), **run_kwargs)
    return {v: c.state.get("value") for v, c in contexts.items()}


class _ConvergecastProgram(NodeProgram):
    """Sum node inputs up a BFS tree (built in a prior phase)."""

    def __init__(self, parents: dict[Node, Node | None], inputs: dict[Node, float]):
        self.parents = parents
        self.inputs = inputs

    def start(self, ctx: NodeContext):
        parent = self.parents[ctx.node]
        children = [v for v in ctx.neighbors if self.parents.get(v) == ctx.node]
        ctx.state.update(
            parent=parent,
            children=set(children),
            pending=set(children),
            acc=self.inputs.get(ctx.node, 0),
        )
        if not children:
            ctx.state["done"] = True
            if parent is not None:
                return {parent: ctx.state["acc"]}
            ctx.state["total"] = ctx.state["acc"]
        return {}

    def round(self, ctx: NodeContext, received):
        for sender, value in received.items():
            if sender in ctx.state["pending"]:
                ctx.state["pending"].discard(sender)
                ctx.state["acc"] += value
        if not ctx.state["pending"] and not ctx.state.get("sent"):
            ctx.state["sent"] = True
            ctx.state["done"] = True
            parent = ctx.state["parent"]
            if parent is not None:
                return {parent: ctx.state["acc"]}
            ctx.state["total"] = ctx.state["acc"]
        return {}


def convergecast_sum(
    network: CongestNetwork, root: Node, inputs: dict[Node, float], **run_kwargs
) -> float:
    """Sum all inputs at the root over a fresh BFS tree; ~2·ecc(root) rounds."""
    tree = bfs_tree(network, root, **run_kwargs)
    parents = {v: info["parent"] for v, info in tree.items()}
    contexts = network.run(lambda: _ConvergecastProgram(parents, inputs), **run_kwargs)
    return contexts[root].state["total"]


class _LeaderProgram(NodeProgram):
    """Min-ID flooding; every node learns the leader's ID."""

    def start(self, ctx: NodeContext):
        ctx.state["best"] = (type(ctx.node).__name__, str(ctx.node), ctx.node)
        return {nbr: ctx.state["best"] for nbr in ctx.neighbors}

    def round(self, ctx: NodeContext, received):
        improved = False
        for candidate in received.values():
            if tuple(candidate[:2]) < tuple(ctx.state["best"][:2]):
                ctx.state["best"] = candidate
                improved = True
        ctx.state["done"] = True  # quiescence detection ends the run
        if improved:
            return {nbr: ctx.state["best"] for nbr in ctx.neighbors}
        return {}


def leader_election(network: CongestNetwork, **run_kwargs) -> Node:
    """Everyone agrees on the minimum ID; ~D rounds (quiescence-detected)."""
    contexts = network.run(lambda: _LeaderProgram(), **run_kwargs)
    leaders = {c.state["best"][2] for c in contexts.values()}
    assert len(leaders) == 1, "leader election did not converge"
    return leaders.pop()
