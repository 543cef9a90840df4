"""Distributed primitives: BFS-tree construction, convergecast, broadcast.

These are the O(D)-round building blocks the paper's subroutines lean on —
SAMPLE-DESTINATION is literally "three sweeps over a BFS tree" (Algorithm 3)
and the RST/mixing applications use tree aggregation for cover checks and
bucket counts.

Each primitive exists in two forms that are *proved equivalent by tests*:

* an **event-driven protocol** executed message-by-message on the
  :class:`~repro.congest.network.Network` engine (the ground truth), and
* a **charged fast path** that computes the same result centrally and
  charges the identical round/message cost to the ledger.

The fast paths exist because algorithms such as SINGLE-RANDOM-WALK invoke
`O(ℓ/λ)` tree sweeps whose message patterns are deterministic given the
tree; re-simulating identical floods adds nothing but wall-clock time.
``Network`` totals are the same either way (see
``tests/test_congest_primitives.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Collection, Iterable, Sequence

import numpy as np

from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.protocol import Protocol, ProtocolAPI
from repro.errors import ProtocolError
from repro.graphs.graph import Graph, pair_keys
from repro.graphs.properties import bfs_tree
from repro.util.contracts import charged_fast_path

__all__ = [
    "BfsTree",
    "TreeSlots",
    "BfsFloodProtocol",
    "ConvergecastProtocol",
    "BroadcastProtocol",
    "build_bfs_tree",
    "charge_closures",
    "charge_tree_funnel",
    "charge_tree_routes",
    "charged_convergecast",
    "charged_broadcast",
    "deliver_tree_path",
    "stage_tree_funnel",
    "stage_tree_hops",
]


@dataclass(frozen=True, eq=False)
class TreeSlots:
    """A BFS tree's directed CSR slots on one network topology.

    ``up[v]`` and ``down[v]`` are the representative slots of ``v →
    parent[v]`` and ``parent[v] → v`` — the first CSR slot of the pair, as
    :meth:`~repro.graphs.graph.Graph.pair_slots` finds it — or ``-1`` where
    the pair has no live slot, which happens only for an unreached node of
    an ``allow_unreached`` tree (its ``parent`` defaults to the root).  The
    root's own entries are never read.  ``flood`` counts the flood's
    explore sends per slot and ``flood_first`` is the slot of
    its lowest ``(src, dst)`` pair, where :func:`_stage_flood` folds count
    drift.  ``parent`` is the tree's own int32 parent array.  ``topology``
    is the stamp of the network topology the slots were read on, which
    :meth:`~repro.congest.network.Network.refresh_topology` replaces.
    """

    topology: object
    parent: np.ndarray
    up: np.ndarray
    down: np.ndarray
    flood: np.ndarray
    flood_first: int


@dataclass(eq=False)
class BfsTree:
    """A rooted BFS tree produced by the flood protocol.

    ``parent`` and ``depth`` are int32 arrays (a list passed in is
    converted).  ``parent[root] == root``; ``depth`` is hop distance from
    the root, ``-1`` for an unreached node of an ``allow_unreached`` tree;
    ``height`` is the eccentricity of the root (max depth).  A tree is never
    mutated after construction, so ``height`` and ``n`` are computed once,
    here, and :attr:`children` and the deepest-first order on their first
    read.  The tree's CSR slots are a function of the topology as well, so
    :meth:`slots` caches them stamped with the topology they were read on.

    The climbs (:meth:`closure`, :meth:`path_to_root`) read the arrays
    through a ``memoryview``, which yields Python ints without a copy.  A
    climb is a few parent reads per holder, so it stays a Python loop: one
    numpy call costs more than a whole climb.
    """

    root: int
    parent: np.ndarray
    depth: np.ndarray
    build_rounds: int = 0
    build_messages: int = 0
    height: int = field(init=False)
    n: int = field(init=False)
    _slots: TreeSlots | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.parent = np.ascontiguousarray(self.parent, dtype=np.int32)
        self.depth = np.ascontiguousarray(self.depth, dtype=np.int32)
        self.height = int(self.depth.max())
        self.n = int(self.parent.size)

    @cached_property
    def children(self) -> list[list[int]]:
        """Each node's children in ascending order; unreached nodes are in no list.

        Only the event-driven protocols and the funnel's root-child lookup
        read it, so it is grouped from ``parent`` on first read, not at build.
        """
        reached = np.flatnonzero(self.depth > 0)
        parents = self.parent[reached]
        kids = reached[np.argsort(parents, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(parents, minlength=self.n)).tolist()
        return [kids[start:end] for start, end in zip([0, *ends], ends)]

    def path_to_root(self, node: int) -> list[int]:
        """Tree path ``node -> ... -> root`` (inclusive both ends)."""
        parent, root, limit = memoryview(self.parent), self.root, self.n
        path = [node]
        while node != root:
            node = parent[node]
            path.append(node)
            if len(path) > limit:
                raise ProtocolError("parent pointers contain a cycle")
        return path

    @cached_property
    def _deepest_first(self) -> np.ndarray:
        order = np.argsort(-self.depth, kind="stable").astype(np.int32)
        order.flags.writeable = False
        return order

    def nodes_by_depth_desc(self) -> np.ndarray:
        """All nodes deepest-first, ties by ascending id, unreached nodes last.

        The convergecast schedule order, computed once per tree; a read-only
        int32 array.
        """
        return self._deepest_first

    def closure(self, nodes: Iterable[int]) -> set[int]:
        """Non-root nodes on the paths from ``nodes`` to the root: a convergecast's reporters.

        A climb stops at the first node already in the closure.
        """
        parent, root = memoryview(self.parent), self.root
        closure: set[int] = set()
        for node in nodes:
            while node != root and node not in closure:
                closure.add(node)
                node = parent[node]
        return closure

    def slots(self, network: Network) -> TreeSlots:
        """This tree's slots on ``network``'s current topology.

        Read once per topology: a tree held across a churn or crash event
        re-derives them rather than stage slot ids of a graph that is gone.
        """
        cached = self._slots
        if cached is None or cached.topology is not network._topology:
            cached = self._slots = _read_slots(self, network)
        return cached


def _read_slots(tree: BfsTree, network: Network) -> TreeSlots:
    """Read ``tree``'s slots off the pair index of ``network``'s graph."""
    graph = network.graph
    nodes = np.arange(tree.n, dtype=np.int64)
    parent = tree.parent
    up = graph.pair_slots(pair_keys(nodes, parent, graph.n))
    down = graph.pair_slots(pair_keys(parent, nodes, graph.n))
    # The flood sends one explore per distinct directed non-loop pair, except
    # a non-root node's pair to its own parent.
    pair_slots = graph.distinct_pair_slots()
    flood = np.zeros(graph.n_slots, dtype=np.int64)
    flood[pair_slots] = 1
    to_parent = np.delete(up, tree.root)
    flood[to_parent[to_parent >= 0]] = 0
    sent = pair_slots[flood[pair_slots] > 0]
    return TreeSlots(
        topology=network._topology,
        parent=parent,
        up=up,
        down=down,
        flood=flood,
        flood_first=int(sent[0]) if sent.size else -1,
    )


class BfsFloodProtocol(Protocol):
    """Distributed BFS-tree construction by flooding.

    Round 1: the root sends ``explore`` to every neighbor.  A node adopts as
    parent the lowest-ID sender among the explores it receives in the first
    round any arrive, then floods its remaining neighbors.  Completes in
    ``ecc(root)`` rounds — the ``O(D)`` the paper charges for Sweep 1 of
    SAMPLE-DESTINATION.
    """

    name = "bfs-flood"

    def __init__(self, root: int) -> None:
        self.root = root
        self.parent: dict[int, int] = {root: root}
        self.depth: dict[int, int] = {root: 0}

    def on_start(self, api: ProtocolAPI) -> None:
        for u in sorted(set(int(x) for x in api.graph.neighbors(self.root)) - {self.root}):
            api.send(self.root, u, ("explore", 0))

    def on_receive(self, api: ProtocolAPI, node: int, messages: Sequence[Message]) -> None:
        if node in self.parent:
            return
        explores = [m for m in messages if m.payload[0] == "explore"]
        if not explores:
            return
        best = min(explores, key=lambda m: (m.payload[1], m.src))
        self.parent[node] = best.src
        self.depth[node] = best.payload[1] + 1
        for u in sorted(set(int(x) for x in api.graph.neighbors(node)) - {node, best.src}):
            api.send(node, u, ("explore", self.depth[node]))

    def tree(self, n: int) -> BfsTree:
        if len(self.parent) != n:
            raise ProtocolError(
                f"BFS reached {len(self.parent)}/{n} nodes; graph must be connected"
            )
        parent = [self.parent[v] for v in range(n)]
        depth = [self.depth[v] for v in range(n)]
        return BfsTree(root=self.root, parent=parent, depth=depth)


def _flood_cost(graph: Graph, root: int, depth: np.ndarray) -> tuple[int, int]:
    """Exact ``(rounds, messages)`` the event-driven flood would charge.

    Every node that joins the tree at depth ``d`` sends one ``explore`` to
    each distinct neighbor other than itself and its parent (the root skips
    only itself); those sends are delivered — and the run's last round
    happens — one round after the deepest sender adopts.  One message per
    directed node pair means queues never exceed one, so congestion is 1
    every delivering round, exactly as the engine observes.
    """
    distinct = graph.distinct_neighbor_counts()
    sends = distinct - 1  # every non-root node skips its parent...
    sends[root] = distinct[root]  # ...the root skips only itself
    messages = int(sends.sum())
    rounds = 1 + int(depth[sends > 0].max()) if messages else 0
    return rounds, messages


def _stage_flood(network: Network, tree: BfsTree) -> None:
    """Stage the flood's per-edge explore sends onto the attached heatmap.

    Mirrors :func:`_flood_cost`'s enumeration: every joining node explores
    each distinct non-loop neighbor except its parent (the root skips only
    itself), one message per directed pair — the tree's cached per-slot
    ``flood`` vector, staged whole.  Any count drift versus the recorded
    ``build_messages`` (recovery trees with unreached nodes) folds onto the
    lowest pair so the staged sum always equals the charge; an
    irreconcilable tree stays unstaged and the charge lands in the sink's
    residual bucket instead.
    """
    if network.heatmap is None or tree.build_messages <= 0:
        return
    if tree.n != network.graph.n:
        return
    slots = tree.slots(network)
    if slots.flood_first < 0:
        return
    counts = slots.flood
    drift = tree.build_messages - int(counts.sum())
    if drift:
        counts = counts.copy()
        counts[slots.flood_first] += drift
        if counts[slots.flood_first] < 0:
            return
    network.heatmap.stage_counts(counts, tree.build_messages, 1)


def stage_tree_funnel(network: Network, tree: BfsTree, *, messages: int, congestion: int) -> None:
    """Stage :func:`charge_tree_funnel`'s whole charge on the first root-child edge.

    The busiest link of the funnel is the one into the root.  A tree with
    no children leaves the charge unstaged (sink residual).
    """
    if network.heatmap is None or messages <= 0:
        return
    children = tree.children[tree.root]
    if not children:
        return
    network._stage_slots(
        tree.slots(network).up[children[:1]],
        np.array([messages], dtype=np.int64),
        np.array([congestion], dtype=np.int64),
    )


def stage_tree_hops(
    network: Network, tree: BfsTree, climbs: Sequence[int], descents: Sequence[int]
) -> None:
    """Stage tokens routed hop by hop along tree edges, one message per hop.

    ``climbs`` names, once per upward hop, the node whose edge to its
    parent the hop crosses; ``descents`` likewise for downward hops.  Per
    edge the hops add up, staged in ``(src, dst)`` pair order, so a stray
    folds onto the lowest located pair.
    """
    slots = tree.slots(network)
    parent = slots.parent
    n = network.graph.n
    up = np.asarray(climbs, dtype=np.int64)
    down = np.asarray(descents, dtype=np.int64)
    keys = np.concatenate([pair_keys(up, parent[up], n), pair_keys(parent[down], down, n)])
    hop_slots = np.concatenate([slots.up[up], slots.down[down]])
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    network._stage_slots(hop_slots[first], counts, np.ones(first.size, dtype=np.int64))


@charged_fast_path(
    equivalence_test="tests/test_congest_primitives.py::test_tree_and_ledger_identical"
)
def build_bfs_tree(
    network: Network,
    root: int,
    *,
    cache: dict[int, BfsTree] | None = None,
    use_protocol: bool = False,
    allow_unreached: bool = False,
) -> BfsTree:
    """Build (or recall) the BFS tree rooted at ``root``, charging rounds.

    By default this takes the **charged fast path**, which has no search of
    its own: the tree is :func:`repro.graphs.properties.bfs_tree`, whose
    lowest-ID tie-break is the flood's, and the ledger is charged the exact
    rounds/messages/congestion the event-driven :class:`BfsFloodProtocol`
    run would have produced (the flood's message pattern is deterministic
    given the topology, so re-simulating it adds wall-clock and nothing
    else — the same "charged fast path" contract as
    :func:`charged_convergecast`, proved by
    ``tests/test_congest_primitives.py``).  ``use_protocol=True`` forces the
    message-by-message execution instead.

    With a ``cache`` dict, the first call per root computes and records the
    exact cost; later calls charge the same recorded cost without
    recomputing.

    ``allow_unreached`` (fast path only) tolerates unreachable nodes — the
    crash-recovery regime where crashed nodes are isolated by
    construction.  Unreached nodes carry depth ``-1``, take the root as
    parent and join no children list; callers must not route to or
    through them.  Without it an unreached node raises
    :class:`ProtocolError` with the protocol's message.

    Neither path builds the tree's child lists; :attr:`BfsTree.children`
    groups them from ``parent`` when something first reads them.
    """
    if cache is not None and root in cache:
        tree = cache[root]
        if tree.build_rounds or tree.build_messages:
            _stage_flood(network, tree)
            network.ledger.charge(tree.build_rounds, messages=tree.build_messages, congestion=1)
        return tree
    if use_protocol:
        proto = BfsFloodProtocol(root)
        messages_before = network.messages_sent
        rounds = network.run(proto)
        tree = proto.tree(network.graph.n)
        tree.build_rounds = rounds
        tree.build_messages = network.messages_sent - messages_before
    else:
        graph = network.graph
        parent, depth = bfs_tree(graph, root)
        unreached = depth < 0
        if not allow_unreached and unreached.any():
            reached = graph.n - int(np.count_nonzero(unreached))
            raise ProtocolError(f"BFS reached {reached}/{graph.n} nodes; graph must be connected")
        parent[unreached] = root
        rounds, messages = _flood_cost(graph, root, depth)
        tree = BfsTree(
            root=root,
            parent=parent,
            depth=depth,
            build_rounds=rounds,
            build_messages=messages,
        )
        if rounds:
            _stage_flood(network, tree)
            network.ledger.charge(rounds, messages=messages, congestion=1)
    if cache is not None:
        cache[root] = tree
    return tree


class ConvergecastProtocol(Protocol):
    """Generic bottom-up aggregation over a BFS tree.

    Every node owns a value; interior nodes combine their own value with all
    children's results (via ``combine``) before reporting to their parent.
    Terminates in ``height`` rounds with ``n − 1`` messages.  ``combine``
    must be associative-ish in the usual convergecast sense: it receives the
    node's running value and one child value and returns the new value.
    """

    name = "convergecast"

    def __init__(
        self,
        tree: BfsTree,
        values: list[Any],
        combine: Callable[[Any, Any], Any],
        *,
        words: int = 1,
    ) -> None:
        self.tree = tree
        self.acc = list(values)
        self.combine = combine
        self.words = words
        self.pending = [len(tree.children[v]) for v in range(tree.n)]
        self.result: Any = None

    def _report(self, api: ProtocolAPI, node: int) -> None:
        if node == self.tree.root:
            self.result = self.acc[node]
        else:
            api.send(node, int(self.tree.parent[node]), ("agg", self.acc[node]), words=self.words)

    def on_start(self, api: ProtocolAPI) -> None:
        ready = [v for v in range(self.tree.n) if self.pending[v] == 0]
        for v in ready:
            self._report(api, v)
        if self.tree.n == 1:
            self.result = self.acc[self.tree.root]

    def on_receive(self, api: ProtocolAPI, node: int, messages: Sequence[Message]) -> None:
        for msg in messages:
            self.acc[node] = self.combine(self.acc[node], msg.payload[1])
            self.pending[node] -= 1
        if self.pending[node] == 0:
            self._report(api, node)

    def is_done(self, api: ProtocolAPI) -> bool:
        return self.pending[self.tree.root] == 0


class BroadcastProtocol(Protocol):
    """Top-down dissemination of one payload over a BFS tree.

    ``height`` rounds, ``n − 1`` messages (each tree edge carries the
    payload once).
    """

    name = "broadcast"

    def __init__(self, tree: BfsTree, payload: Any, *, words: int = 1) -> None:
        self.tree = tree
        self.payload = payload
        self.words = words
        self.received: set[int] = set()

    def on_start(self, api: ProtocolAPI) -> None:
        self.received.add(self.tree.root)
        for child in self.tree.children[self.tree.root]:
            api.send(self.tree.root, child, self.payload, words=self.words)

    def on_receive(self, api: ProtocolAPI, node: int, messages: Sequence[Message]) -> None:
        self.received.add(node)
        for child in self.tree.children[node]:
            api.send(node, child, self.payload, words=self.words)


def charged_convergecast(
    network: Network,
    tree: BfsTree,
    values: list[Any],
    combine: Callable[[Any, Any], Any],
    *,
    words: int = 1,
) -> Any:
    """Fast-path convergecast: same result and cost as the protocol."""
    if words > network.max_words:
        raise ProtocolError(f"convergecast payload of {words} words exceeds cap")
    acc = list(values)
    parent, root = memoryview(tree.parent), tree.root
    for node in memoryview(tree.nodes_by_depth_desc()):
        if node != root:
            acc[parent[node]] = combine(acc[parent[node]], acc[node])
    charge_closures(network, tree, [([v for v in range(tree.n) if v != tree.root], 1)])
    return acc[tree.root]


def charged_broadcast(network: Network, tree: BfsTree, *, words: int = 1, count: int = 1) -> None:
    """Fast-path cost of ``count`` pipelined broadcasts.

    ``height + count − 1`` rounds and ``count · (n − 1)`` messages.
    """
    if words > network.max_words:
        raise ProtocolError(f"broadcast payload of {words} words exceeds cap")
    if network.heatmap is not None and tree.n > 1:
        slots = np.delete(tree.slots(network).down, tree.root)
        network._stage_slots(
            slots, np.full(slots.size, count, dtype=np.int64), np.ones(slots.size, dtype=np.int64)
        )
    network.ledger.charge(tree.height + count - 1, messages=count * (tree.n - 1), congestion=1)


def charge_tree_funnel(network: Network, tree: BfsTree, k: int, *, merged: bool = False) -> int:
    """Charge ``k`` tokens pipelined up ``tree`` to the root and answered back down.

    ``height + k`` rounds, ``2k`` messages, congestion ``k`` on the link into
    the root; ``height + k − 1`` rounds when ``merged`` (several requests'
    tokens share one pipelined wave).
    """
    rounds = tree.height + k - (1 if merged else 0)
    stage_tree_funnel(network, tree, messages=2 * k, congestion=k)
    network.ledger.charge(rounds, messages=2 * k, congestion=k)
    return rounds


def deliver_tree_path(network: Network, tree: BfsTree, node: int, *, upward: bool = True) -> int:
    """Charge one token's ``depth[node]`` hops up ``tree`` to its root (or down from it).

    The path is built only for an attached heatmap.
    """
    path = None
    if network.heatmap is not None:
        path = tree.path_to_root(node)
        if not upward:
            path.reverse()
    return network.deliver_sequential(int(tree.depth[node]), path=path)


def charge_tree_routes(network: Network, tree: BfsTree, routes: Sequence[tuple[int, int]]) -> int:
    """Charge pipelined ``start → root → end`` routes: the longest plus one round per other.

    One message per hop, congestion 1.
    """
    depth = memoryview(tree.depth)
    hops = [depth[start] + depth[end] for start, end in routes]
    if network.heatmap is not None:
        climbs = [hop for start, _ in routes for hop in tree.path_to_root(start)[:-1]]
        descents = [hop for _, end in routes for hop in tree.path_to_root(end)[:-1]]
        if climbs or descents:
            stage_tree_hops(network, tree, climbs, descents)
    rounds = max(hops) + len(routes) - 1
    network.ledger.charge(rounds, messages=sum(hops), congestion=1)
    return rounds


def charge_closures(network: Network, tree: BfsTree, closures: Sequence[tuple[Collection[int], int]]) -> int:
    """Charge ``count`` pipelined convergecasts per ``(reporters, count)`` group.

    Every reporter sends one message to its parent per convergecast; all
    Σ count of them take ``height + Σ count − 1`` rounds, congestion 1.
    """
    n_casts = sum(count for _, count in closures)
    messages = sum(len(reporters) * count for reporters, count in closures)
    if network.heatmap is not None and messages:
        up = tree.slots(network).up
        nodes: list[int] = []
        counts: list[int] = []
        for reporters, count in closures:
            nodes.extend(sorted(reporters))
            counts.extend([count] * len(reporters))
        network._stage_slots(
            up[nodes], np.array(counts, dtype=np.int64), np.ones(len(nodes), dtype=np.int64)
        )
    rounds = tree.height + n_casts - 1
    network.ledger.charge(rounds, messages=messages, congestion=1)
    return rounds
