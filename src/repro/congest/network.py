"""The synchronous CONGEST engine.

This is the substrate every distributed algorithm in the library runs on.
It models the system of Section 1.1 of the paper:

* communication happens in synchronous *rounds*;
* in each round, each directed edge carries at most ``capacity`` messages of
  at most ``max_words`` words each (one ``O(log n)``-bit message per edge per
  round in the standard model, i.e. ``capacity=1``);
* local computation is free.

Two execution styles share one round/ledger namespace:

1. **Event-driven protocols** (:meth:`Network.run`) — per-node callbacks
   with FIFO queueing on congested edges.  Used for BFS construction,
   convergecast, broadcast, and the naive walk.
2. **Batch steps** — an algorithm hands the engine the full set of
   directed-edge traversals one logical iteration needs; the engine
   charges ``ceil(max-per-edge-load / capacity)`` rounds, which is exactly
   the congestion quantity bounded in the paper's Lemma 2.1 ("any
   iteration could require more than 1 round").  Used for the massively
   parallel short-walk phases where per-message callbacks would be
   needless overhead.  A walk-token hop is billed by one of two rules:
   :meth:`Network.deliver_step` (one message per token, Lemma 2.1) or
   :meth:`Network.deliver_step_grouped` (one per edge per source, Lemma 2.2).

Both styles draw rounds from the same counter, so a composite algorithm
(e.g. SINGLE-RANDOM-WALK = batch Phase 1 + protocol-driven BFS sweeps +
batch stitching) reports one faithful total.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.congest.message import Message
from repro.congest.protocol import Protocol, ProtocolAPI
from repro.errors import ProtocolError
from repro.graphs.graph import Graph, pair_keys
from repro.util.arrays import sorted_unique
from repro.util.rng import make_rng

__all__ = ["Network"]


def _counts_touched_slots(batch: int, n_slots: int) -> bool:
    """Whether ``deliver_step`` counts a batch's loads over its touched slots.

    ``np.unique(..., return_counts=True)`` over ``batch`` messages costs a
    fixed ~10 µs plus about what a ``bincount`` pays for 16 slots per
    message; one dense ``bincount`` costs 0.3–0.6 ns per slot (numpy 2.4).
    Both charge the same, so the cheaper one runs: the sort for a serving
    tail step on a large graph, the bincount for Phase 1 and for small
    graphs.
    """
    return 16 * batch + 32_768 < n_slots


class Network:
    """A synchronous message-passing network over a :class:`Graph`.

    Parameters
    ----------
    graph:
        Topology.  Directed-edge identity uses the graph's CSR slots.
    capacity:
        Messages per directed edge per round (standard CONGEST: 1).
    max_words:
        Maximum words per message; a word is one ``O(log n)``-bit quantity.
        Default 8 admits constant-size payloads while rejecting accidental
        bulk transfer in one message.
    seed:
        Seed for the engine RNG handed to protocols (also accepts a
        :class:`numpy.random.Generator`).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        capacity: int = 1,
        max_words: int = 8,
        seed=None,
    ) -> None:
        if capacity < 1:
            raise ProtocolError(f"capacity must be >= 1, got {capacity}")
        if max_words < 1:
            raise ProtocolError(f"max_words must be >= 1, got {max_words}")
        self.graph = graph
        self.capacity = capacity
        self.max_words = max_words
        self.rng = make_rng(seed)
        self.ledger = RoundLedger()
        # Telemetry: total retransmissions reported by protocols run on
        # this network (protocols expose a `retransmissions` counter, e.g.
        # ReliableTokenWalkProtocol); aggregated here so engine/scheduler
        # stats can surface them without holding protocol objects.
        self.retransmissions_seen = 0
        # Optional congestion-cartography sink (repro.obs.heatmap).  When
        # attached, every deliver/charge path stages its per-edge message
        # attribution immediately before charging the ledger; detached, each
        # site pays exactly one `is not None` test.
        self.heatmap = None
        # Stamp of the current topology: slots cached off it (a BFS tree's
        # TreeSlots) are stale once refresh_topology replaces it.
        self._topology = object()
        # FIFO queue per directed edge, keyed by (src, dst).  Multi-edges
        # between the same pair pool their bandwidth, which matches the
        # multigraph-bandwidth equivalence used in Section 3.2.
        self._queues: dict[tuple[int, int], deque[Message]] = defaultdict(deque)

    def refresh_topology(self) -> None:
        """Start a new topology after the graph's edge set changed.

        Called by the churn cascade right after
        :meth:`~repro.graphs.graph.Graph.apply_delta` rebuilt the CSR
        arrays (and dropped the graph's pair index).  Only the topology
        stamp is replaced, so slots a BFS tree cached off the old topology
        are read again — the ledger, RNG, and round counters carry straight
        across the topology event (churn happens *between* rounds of one
        continuing execution).  Refusing
        to re-key in-flight messages is deliberate: protocols run to
        quiescence before control returns to the caller, so a non-empty
        queue here means a protocol was abandoned mid-run.
        """
        if any(self._queues.values()):
            raise ProtocolError("cannot change topology with messages in flight")
        self._queues.clear()
        self._topology = object()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Total rounds consumed so far (the paper's complexity measure)."""
        return self.ledger.rounds

    @property
    def messages_sent(self) -> int:
        return self.ledger.messages

    def phase(self, name: str):
        """Attribute subsequent costs to phase ``name`` (context manager)."""
        return self.ledger.phase(name)

    # ------------------------------------------------------------------
    # Heatmap attribution support
    # ------------------------------------------------------------------
    def _stage_slots(
        self,
        slots: np.ndarray,
        messages: np.ndarray,
        congestion: np.ndarray | None = None,
    ) -> None:
        """Stage per-slot messages (and loads, by default the messages) on the attached heatmap.

        A ``-1`` slot is a stray: a charged pair with no live slot.  In the
        library's own charge paths only an unreached node of an
        ``allow_unreached`` BFS tree yields one (its ``parent`` defaults to
        the root); a caller may still hand :meth:`deliver_pairs` a
        non-adjacent pair.  Strays fold sum-preservingly onto the first
        located slot so the conservation identity survives; a batch with no
        located slot at all stays unstaged and lands in the sink's residual
        bucket.
        """
        if slots.size and slots.min() < 0:
            if congestion is None:
                congestion = messages
            bad = slots < 0
            good = ~bad
            if not good.any():
                return
            stray_messages = int(messages[bad].sum())
            stray_load = int(congestion[bad].max())
            slots = slots[good]
            messages = messages[good].copy()
            congestion = congestion[good].copy()
            messages[0] += stray_messages
            congestion[0] = max(congestion[0], stray_load)
        self.heatmap.stage_edges(slots, messages, congestion)

    # ------------------------------------------------------------------
    # Batch-step execution
    # ------------------------------------------------------------------
    def _as_slot_array(self, slots: np.ndarray | Iterable[int]) -> np.ndarray:
        """Coerce to an int64 slot array and validate the CSR slot range."""
        arr = np.asarray(list(slots) if not isinstance(slots, np.ndarray) else slots, dtype=np.int64)
        # One pass: a negative int64 reads as a uint64 of at least 2⁶³.
        if arr.size and arr.view(np.uint64).max() >= self.graph.n_slots:
            raise ProtocolError("slot index out of range")
        return arr

    def _check_words(self, words: int) -> None:
        if words > self.max_words:
            raise ProtocolError(f"message of {words} words exceeds the {self.max_words}-word cap")

    def _charge_iteration(self, n_messages: int, congestion: int) -> int:
        """Charge one batch iteration: ``max(1, ceil(congestion/capacity))``."""
        rounds = max(1, -(-congestion // self.capacity))  # ceil division
        self.ledger.charge(rounds, messages=n_messages, congestion=congestion)
        return rounds

    def _deliver_loads(self, slots: np.ndarray | None, loads: np.ndarray, n_messages: int) -> int:
        """Stage and charge one iteration that puts ``loads[i]`` messages on ``slots[i]``.

        The delivery core of every batch path but ``deliver_step``'s dense
        one: the heaviest load sets the rounds and the congestion.
        ``slots`` (``-1`` for a pair with no live slot) is read only when a
        heatmap is attached, so pair-keyed callers look slots up only then.
        """
        if self.heatmap is not None:
            self._stage_slots(slots, loads)
        return self._charge_iteration(n_messages, int(loads.max()))

    def deliver_step(
        self,
        slots: np.ndarray | Iterable[int],
        *,
        words: int = 1,
    ) -> int:
        """Charge one logical iteration that pushes a message along each slot.

        ``slots`` are directed-edge CSR slot indices, one per message.  The
        iteration costs ``max(1, ceil(L / capacity))`` rounds where ``L`` is
        the heaviest per-edge load — the congestion measure from the
        paper's analysis.  Messages that may share an edge as one
        *(payload, count)* message go through :meth:`deliver_step_grouped`.

        Returns the number of rounds charged.
        """
        slot_arr = self._as_slot_array(slots)
        if slot_arr.size == 0:
            return 0
        self._check_words(words)
        if _counts_touched_slots(slot_arr.size, self.graph.n_slots):
            touched, loads = np.unique(slot_arr, return_counts=True)
            return self._deliver_loads(touched, loads, int(slot_arr.size))
        counts = np.bincount(slot_arr)
        n_messages, congestion = int(slot_arr.size), int(counts.max())
        if self.heatmap is not None:
            self.heatmap.stage_counts(counts, n_messages, congestion)
        return self._charge_iteration(n_messages, congestion)

    def deliver_step_grouped(
        self,
        slots: np.ndarray | Iterable[int],
        groups: np.ndarray | Iterable[int],
        *,
        words: int = 1,
    ) -> int:
        """Charge one iteration whose messages aggregate per (edge, group).

        ``groups[i]`` names the aggregation class of message ``i`` (for
        GET-MORE-WALKS, the walk's source ID).  Tokens of the *same* group
        crossing the same directed edge collapse into one *(group payload,
        count)* message — the paper's count-aggregation trick ("only the
        count of the number of walks along an edge are passed") — while
        tokens of *different* groups stay distinct messages, so the
        per-edge load is the number of distinct groups on that edge.  With
        a single group every iteration costs one round.

        Returns the number of rounds charged.
        """
        slot_arr = self._as_slot_array(slots)
        group_arr = np.asarray(list(groups) if not isinstance(groups, np.ndarray) else groups, dtype=np.int64)
        if slot_arr.shape != group_arr.shape:
            raise ProtocolError("slots and groups must have equal length")
        if slot_arr.size == 0:
            return 0
        self._check_words(words)
        low = int(group_arr.min())
        span = int(group_arr.max()) - low + 1
        if span == 1:  # one group: one message per distinct slot
            used = sorted_unique(slot_arr)
            return self._deliver_loads(used, np.ones(used.size, dtype=np.int64), int(used.size))
        pair_slots = sorted_unique(slot_arr * span + (group_arr - low)) // span
        used, per_edge = np.unique(pair_slots, return_counts=True)
        return self._deliver_loads(used, per_edge, int(pair_slots.size))

    def deliver_pairs(
        self,
        sources: np.ndarray | Iterable[int],
        targets: np.ndarray | Iterable[int],
        *,
        words: int = 1,
    ) -> int:
        """Like :meth:`deliver_step` but keyed by (src, dst) node pairs.

        Used when the caller has hop endpoints rather than CSR slots (walk
        regeneration re-sends along recorded trajectories).  Parallel edges
        between one node pair pool bandwidth here — identical to the
        event-driven engine's per-pair FIFO queues: loads count per
        :func:`~repro.graphs.graph.pair_keys` key, staged on the pair's first slot.
        """
        src = np.asarray(list(sources) if not isinstance(sources, np.ndarray) else sources, dtype=np.int64)
        dst = np.asarray(list(targets) if not isinstance(targets, np.ndarray) else targets, dtype=np.int64)
        if src.shape != dst.shape:
            raise ProtocolError("sources and targets must have equal length")
        if src.size == 0:
            return 0
        self._check_words(words)
        keys, loads = np.unique(pair_keys(src, dst, self.graph.n), return_counts=True)
        slots = self.graph.pair_slots(keys) if self.heatmap is not None else None
        return self._deliver_loads(slots, loads, int(src.size))

    def deliver_sequential(
        self,
        hop_count: int,
        *,
        messages_per_hop: int = 1,
        path: np.ndarray | Iterable[int] | None = None,
    ) -> int:
        """Charge a token travelling ``hop_count`` hops, one hop per round.

        Convenience for walk tokens and path routing, where congestion is
        structurally impossible (a single message moves per round).

        ``path`` optionally names the node sequence travelled (at least
        ``hop_count + 1`` nodes, hop ``i`` crossing ``path[i] → path[i+1]``)
        so an attached heatmap can attribute the traffic per edge.  Only an
        attached heatmap reads it, so a caller that would build a path for
        this alone asks first (as
        :func:`~repro.congest.primitives.deliver_tree_path` does); a
        too-short path simply leaves the charge in the sink's residual
        bucket.
        """
        if hop_count < 0:
            raise ProtocolError("hop_count must be non-negative")
        if hop_count:
            if self.heatmap is not None and path is not None:
                nodes = np.asarray(
                    list(path) if not isinstance(path, np.ndarray) else path,
                    dtype=np.int64,
                )
                if nodes.size > hop_count:
                    keys = pair_keys(nodes[:hop_count], nodes[1 : hop_count + 1], self.graph.n)
                    keys, hops = np.unique(keys, return_counts=True)
                    self._stage_slots(
                        self.graph.pair_slots(keys),
                        hops * messages_per_hop,
                        np.ones(keys.size, dtype=np.int64),
                    )
            self.ledger.charge(hop_count, messages=hop_count * messages_per_hop, congestion=1)
        return hop_count

    # ------------------------------------------------------------------
    # Event-driven execution
    # ------------------------------------------------------------------
    def run(self, protocol: Protocol, *, max_rounds: int = 1_000_000, rng=None) -> int:
        """Execute ``protocol`` until quiescence; return rounds consumed.

        Messages queue FIFO per directed edge; at most ``capacity`` of them
        are delivered per round per edge.  The run ends when no messages are
        queued and ``protocol.is_done()`` holds.  Raises
        :class:`ProtocolError` if ``max_rounds`` elapse first (protocol
        bug or genuinely divergent algorithm).
        """
        api = ProtocolAPI(self, make_rng(rng) if rng is not None else self.rng)
        start_round = self.rounds
        protocol.on_start(api)
        self._enqueue(api.drain_outbox())

        rounds_used = 0
        while True:
            if not any(self._queues.values()):
                done = protocol.is_done(api)
                # is_done may queue recovery traffic (e.g. retransmissions
                # after message loss); pick it up before judging deadlock.
                self._enqueue(api.drain_outbox())
                if done:
                    break
                if not any(self._queues.values()):
                    raise ProtocolError(
                        f"protocol {protocol.name!r} is idle but not done (deadlock) "
                        f"after {rounds_used} rounds"
                    )
            if rounds_used >= max_rounds:
                raise ProtocolError(
                    f"protocol {protocol.name!r} exceeded the {max_rounds}-round budget"
                )
            protocol.on_round_begin(api)
            self._enqueue(api.drain_outbox())
            delivered = self._deliver_one_round()
            rounds_used += 1
            inbox: dict[int, list[Message]] = defaultdict(list)
            for msg in delivered:
                inbox[msg.dst].append(msg)
            for node in sorted(inbox):
                protocol.on_receive(api, node, inbox[node])
            self._enqueue(api.drain_outbox())
        self.retransmissions_seen += int(getattr(protocol, "retransmissions", 0))
        return self.rounds - start_round

    def _enqueue(self, messages: list[Message]) -> None:
        for msg in messages:
            self._queues[(msg.src, msg.dst)].append(msg)

    def _deliver_one_round(self) -> list[Message]:
        """Pop up to ``capacity`` messages from each directed edge; charge 1 round."""
        delivered: list[Message] = []
        congestion = 0
        staged: list[tuple[int, int, int, int]] | None = [] if self.heatmap is not None else None
        for key in list(self._queues):
            queue = self._queues[key]
            load = len(queue)
            congestion = max(congestion, load)
            take = min(self.capacity, load)
            if staged is not None and take:
                staged.append((*key, take, load))
            for _ in range(take):
                delivered.append(queue.popleft())
            if not queue:
                del self._queues[key]
        if staged:
            cols = np.asarray(staged, dtype=np.int64)
            slots = self.graph.pair_slots(pair_keys(cols[:, 0], cols[:, 1], self.graph.n))
            self._stage_slots(slots, cols[:, 2], cols[:, 3])
        self.ledger.charge(1, messages=len(delivered), congestion=congestion)
        return delivered
