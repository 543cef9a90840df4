"""Fault injection: node crashes, omission windows, lossy links.

The paper closes (§5) with: "from a practical standpoint, it is important
to develop algorithms that are robust to failures and it would be nice to
extend our techniques to handle such node/edge failures."  This module is
that substrate — three failure models plus one concrete robust algorithm:

* :class:`FaultSchedule` — a deterministic, replayable script of node
  **crash-stop** and **crash-recover** events plus **omission windows** on
  individual links.  Schedules come from explicit event lists or from the
  seeded :meth:`FaultSchedule.sample` generator (adversarial membership
  churn in the style of routing-simulator fault scripts): same seed, same
  schedule, bit-for-bit.
* :class:`FaultyNetwork` — a :class:`~repro.congest.network.Network` that
  tracks per-node liveness and *silently* stops delivering any message
  sent by, addressed to, or routed over a crashed node or an omitting
  link.  Crashes are silent exactly as in the crash-stop model: senders
  learn nothing; detection is the algorithm's problem.  The schedule's
  node events fire automatically as the round counter passes them during
  protocol runs.
* :class:`LossyNetwork` — links drop each delivered message independently
  with probability ``p`` (crash-free but lossy links, the classic first
  failure model).

Only event-driven traffic is subject to loss/crash filtering — the
batch-charged fast paths model algorithms already proven correct, so the
*engine-level* crash story (pool eviction, in-flight walk recovery,
``serve/recovery`` charging) lives in :mod:`repro.engine.faults`, which
consumes the same :class:`FaultSchedule` and models a crashed node as an
isolated one via :meth:`~repro.graphs.graph.Graph.apply_delta`.

* :class:`ReliableTokenWalkProtocol` — the naive walk made loss-tolerant
  with per-hop acknowledgements and timeout retransmission.  Crucially the
  retransmitted hop re-sends the *same* sampled neighbor, so reliability
  does not bias the walk's law: the endpoint distribution remains exactly
  ``P^ℓ`` (chi-square-verified in ``tests/test_faults.py``), only the
  round count inflates by ≈ ``1/(1−p)²`` (token and ack must both survive).
  The engine's suffix recovery reuses this sampling-once discipline:
  recovery replays already-sampled prefixes, never resamples them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.protocol import Protocol, ProtocolAPI
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.graphs.properties import bfs_distances
from repro.util.rng import make_rng

__all__ = [
    "FaultSchedule",
    "FaultStep",
    "FaultyNetwork",
    "LossyNetwork",
    "OmissionWindow",
    "ReliableTokenWalkProtocol",
]


@dataclass(frozen=True)
class FaultStep:
    """One batch of node fault events firing at a simulated round.

    ``crash`` nodes stop at ``at_round``: they deliver nothing, forward
    nothing, and (at the engine level) lose all resident walk state.
    ``recover`` nodes rejoin with their former incident edges but blank
    memory.  A node may not crash and recover in the same step.
    """

    at_round: int
    crash: tuple[int, ...] = ()
    recover: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.at_round < 0:
            raise ProtocolError(f"fault step round must be >= 0, got {self.at_round}")
        crash = tuple(int(v) for v in self.crash)
        recover = tuple(int(v) for v in self.recover)
        object.__setattr__(self, "crash", crash)
        object.__setattr__(self, "recover", recover)
        if set(crash) & set(recover):
            raise ProtocolError("a node cannot crash and recover in the same step")
        if not crash and not recover:
            raise ProtocolError("a fault step must name at least one node event")


@dataclass(frozen=True)
class OmissionWindow:
    """Link ``{u, v}`` silently drops every message during ``[start, end)``."""

    u: int
    v: int
    start_round: int
    end_round: int

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ProtocolError("omission window needs two distinct endpoints")
        if not 0 <= self.start_round < self.end_round:
            raise ProtocolError(
                f"omission window needs 0 <= start < end, got "
                f"[{self.start_round}, {self.end_round})"
            )

    def covers(self, u: int, v: int, at_round: int) -> bool:
        if {u, v} != {self.u, self.v}:
            return False
        return self.start_round <= at_round < self.end_round


def _live_graph_connected(graph: Graph, dead: np.ndarray) -> bool:
    """Connectivity of the subgraph induced on the live (non-dead) nodes."""
    live = ~dead
    dist = bfs_distances(graph, int(np.argmax(live)), slot_mask=live[graph.csr_target])
    return bool((dist[live] >= 0).all())


@dataclass(frozen=True)
class FaultSchedule:
    """A replayable script of crash/recover node events and link omissions.

    ``steps`` are kept sorted by ``at_round`` (stable for ties) and fire
    when a consumer's round counter passes them — the
    :class:`FaultyNetwork` applies them during protocol runs, and
    :class:`repro.engine.faults.FaultController` applies them to a serving
    session.  The schedule itself is immutable and carries no cursor, so
    one schedule object can drive any number of replays.
    """

    steps: tuple[FaultStep, ...] = ()
    omissions: tuple[OmissionWindow, ...] = ()

    def __post_init__(self) -> None:
        steps = tuple(sorted(self.steps, key=lambda s: s.at_round))
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "omissions", tuple(self.omissions))
        crashed: set[int] = set()
        for step in steps:
            for v in step.recover:
                if v not in crashed:
                    raise ProtocolError(
                        f"step at round {step.at_round} recovers node {v}, "
                        "which is not crashed at that point"
                    )
                crashed.discard(v)
            for v in step.crash:
                if v in crashed:
                    raise ProtocolError(
                        f"step at round {step.at_round} crashes node {v} twice"
                    )
                crashed.add(v)

    @property
    def is_empty(self) -> bool:
        return not self.steps and not self.omissions

    @property
    def num_crashes(self) -> int:
        return sum(len(s.crash) for s in self.steps)

    @property
    def num_recoveries(self) -> int:
        return sum(len(s.recover) for s in self.steps)

    def link_omitted(self, u: int, v: int, at_round: int) -> bool:
        """Is link ``{u, v}`` inside an omission window at ``at_round``?"""
        return any(w.covers(u, v, at_round) for w in self.omissions)

    def recovery_pending(self, node: int, *, after_index: int = 0) -> bool:
        """Will ``node`` recover in any step from ``after_index`` on?

        The engine uses this to distinguish a transient crash (park the
        walk, wait) from a permanent crash-stop (fail loudly rather than
        spin forever).
        """
        return any(node in s.recover for s in self.steps[after_index:])

    @classmethod
    def sample(
        cls,
        graph: Graph,
        *,
        crashes: int,
        start_round: int,
        end_round: int,
        recover_after: int | None,
        seed=None,
        protect: Sequence[int] = (),
        preserve_connectivity: bool = True,
    ) -> "FaultSchedule":
        """Draw a seeded crash/recover schedule for ``graph``.

        ``crashes`` crash events land at rng-uniform rounds in
        ``[start_round, end_round)``; each crashed node recovers
        ``recover_after`` rounds later (``None`` for crash-stop: no
        recovery).  Victims are drawn uniformly among nodes that are live
        at the event time and not in ``protect``; with
        ``preserve_connectivity`` a victim whose removal would disconnect
        the surviving live subgraph is skipped (re-drawn), mirroring
        :func:`repro.dynamic.workload.sample_churn_delta`.  Each candidate
        costs one :func:`~repro.graphs.properties.bfs_distances` search
        whose slot mask closes the slots into dead nodes.  The realized
        crash count can fall short of ``crashes`` on graphs with few
        removable nodes — the schedule records what was actually sampled.
        Same seed, same graph: identical schedule.
        """
        if crashes < 0:
            raise ProtocolError(f"crashes must be >= 0, got {crashes}")
        if crashes and not start_round < end_round:
            raise ProtocolError("need start_round < end_round to place crash events")
        if recover_after is not None and recover_after < 1:
            raise ProtocolError(f"recover_after must be >= 1, got {recover_after}")
        if crashes == 0:
            return cls()
        rng = make_rng(seed)
        n = graph.n
        protected = np.zeros(n, dtype=bool)
        if len(protect):
            protected[np.asarray(list(protect), dtype=np.int64)] = True
        crash_rounds = np.sort(rng.integers(start_round, end_round, size=crashes))
        dead = np.zeros(n, dtype=bool)
        pending_recovers: list[tuple[int, int]] = []  # (round, node), kept sorted
        events: dict[int, dict[str, list[int]]] = {}

        def note(at_round: int, kind: str, node: int) -> None:
            events.setdefault(int(at_round), {"crash": [], "recover": []})[kind].append(node)

        for r in crash_rounds:
            r = int(r)
            while pending_recovers and pending_recovers[0][0] <= r:
                rec_round, node = pending_recovers.pop(0)
                dead[node] = False
                note(rec_round, "recover", node)
            candidates = np.flatnonzero(~dead & ~protected)
            if candidates.size == 0:
                continue
            victim = -1
            for v in rng.permutation(candidates):
                dead[v] = True
                if not preserve_connectivity or _live_graph_connected(graph, dead):
                    victim = int(v)
                    break
                dead[v] = False
            if victim < 0:
                continue  # every candidate would disconnect the live graph
            note(r, "crash", victim)
            if recover_after is not None:
                pending_recovers.append((r + recover_after, victim))
                pending_recovers.sort()
        for rec_round, node in pending_recovers:
            note(rec_round, "recover", node)
        steps = tuple(
            FaultStep(at_round=r, crash=tuple(ev["crash"]), recover=tuple(ev["recover"]))
            for r, ev in sorted(events.items())
            if ev["crash"] or ev["recover"]
        )
        return cls(steps=steps)


class FaultyNetwork(Network):
    """A network with crash-stop/crash-recover nodes and omitting links.

    Liveness is a per-node boolean surface (:meth:`is_live`,
    :attr:`live_mask`).  Delivery filtering is *silent*: a message whose
    sender or receiver is crashed at delivery time — or whose link sits in
    an omission window — consumed its bandwidth slot but never arrives,
    and nobody is told.  During :meth:`~Network.run` the attached
    schedule's node events fire automatically as rounds pass; callers
    driving liveness by hand (the engine's fault controller) use
    :meth:`mark_crashed` / :meth:`mark_recovered` directly.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        schedule: FaultSchedule | None = None,
        capacity: int = 1,
        max_words: int = 8,
        seed=None,
    ) -> None:
        super().__init__(graph, capacity=capacity, max_words=max_words, seed=seed)
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self._live = np.ones(graph.n, dtype=bool)
        self._step_cursor = 0
        self.crashes_seen = 0
        self.recoveries_seen = 0
        self.messages_lost_to_crashes = 0
        self.messages_omitted = 0

    # -- liveness surface ----------------------------------------------
    @property
    def live_mask(self) -> np.ndarray:
        """Per-node liveness (read-only view; True = live)."""
        view = self._live.view()
        view.flags.writeable = False
        return view

    def is_live(self, v: int) -> bool:
        return bool(self._live[v])

    @property
    def crashed_nodes(self) -> tuple[int, ...]:
        return tuple(int(v) for v in np.flatnonzero(~self._live))

    def mark_crashed(self, nodes: Sequence[int]) -> None:
        for v in nodes:
            if self._live[v]:
                self._live[v] = False
                self.crashes_seen += 1

    def mark_recovered(self, nodes: Sequence[int]) -> None:
        for v in nodes:
            if not self._live[v]:
                self._live[v] = True
                self.recoveries_seen += 1

    # -- delivery filtering --------------------------------------------
    def _advance_schedule(self) -> None:
        steps = self.schedule.steps
        while self._step_cursor < len(steps) and steps[self._step_cursor].at_round <= self.rounds:
            step = steps[self._step_cursor]
            self.mark_crashed(step.crash)
            self.mark_recovered(step.recover)
            self._step_cursor += 1

    def _deliver_one_round(self) -> list[Message]:
        self._advance_schedule()
        delivered = super()._deliver_one_round()
        survivors: list[Message] = []
        for msg in delivered:
            if not (self._live[msg.src] and self._live[msg.dst]):
                self.messages_lost_to_crashes += 1
            elif self.schedule.link_omitted(msg.src, msg.dst, self.rounds):
                self.messages_omitted += 1
            else:
                survivors.append(msg)
        return survivors


class LossyNetwork(Network):
    """A network whose links lose messages independently with probability p.

    Loss happens at delivery time: a dropped message consumed its slot of
    the edge's per-round bandwidth (as a real corrupted frame would) but
    never reaches the receiver.  Drops are counted in ``messages_dropped``.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        drop_probability: float,
        capacity: int = 1,
        max_words: int = 8,
        seed=None,
        fault_seed=None,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ProtocolError(
                f"drop probability must be in [0, 1), got {drop_probability}"
            )
        super().__init__(graph, capacity=capacity, max_words=max_words, seed=seed)
        self.drop_probability = drop_probability
        self.messages_dropped = 0
        self._fault_rng = make_rng(fault_seed if fault_seed is not None else self.rng)

    def _deliver_one_round(self) -> list[Message]:
        delivered = super()._deliver_one_round()
        if self.drop_probability == 0.0:
            return delivered
        survivors: list[Message] = []
        for msg in delivered:
            if self._fault_rng.random() < self.drop_probability:
                self.messages_dropped += 1
            else:
                survivors.append(msg)
        return survivors


class ReliableTokenWalkProtocol(Protocol):
    """Loss-tolerant naive walk: per-hop ACK + timeout retransmission.

    Protocol per hop: the holder samples a neighbor **once**, then sends
    ``(token, hop_index, remaining)`` and keeps retransmitting every
    ``timeout`` rounds until the receiver's ACK arrives.  Receivers
    deduplicate by hop index, so retransmissions are idempotent; sampling
    once per hop keeps the walk's law exact under any loss pattern.

    ``is_done`` requires the *source-visible* completion: the final holder
    floods nothing — it just stops — but the last ACK confirms delivery,
    at which point every hop has been both taken and acknowledged.
    """

    name = "reliable-token-walk"

    def __init__(self, source: int, length: int, *, timeout: int = 2) -> None:
        if timeout < 1:
            raise ProtocolError(f"timeout must be >= 1, got {timeout}")
        self.source = source
        self.length = length
        self.timeout = timeout
        self.destination: int | None = None
        self.trajectory: list[int] = [source]
        self.retransmissions = 0
        # Sender-side state for the single in-flight hop:
        # (sender, receiver, hop_index, remaining, last_sent_round)
        self._pending: tuple[int, int, int, int, int] | None = None
        self._acked_hops: set[int] = set()
        self._received_hops: set[int] = set()

    # ------------------------------------------------------------------
    def _launch_hop(self, api: ProtocolAPI, node: int, hop_index: int, remaining: int) -> None:
        if remaining == 0:
            self.destination = node
            self._pending = None
            return
        nxt = api.graph.random_neighbor(node, api.rng)  # sampled exactly once
        self.trajectory.append(nxt)
        self._pending = (node, nxt, hop_index, remaining, api.round)
        api.send(node, nxt, ("token", hop_index, remaining - 1), words=3)

    def on_start(self, api: ProtocolAPI) -> None:
        self._launch_hop(api, self.source, 0, self.length)

    def on_receive(self, api: ProtocolAPI, node: int, messages: Sequence[Message]) -> None:
        for msg in messages:
            kind = msg.payload[0]
            if kind == "token":
                _tag, hop_index, remaining = msg.payload
                api.send(node, msg.src, ("ack", hop_index), words=2)
                if hop_index in self._received_hops:
                    continue  # duplicate delivery of a retransmission
                self._received_hops.add(hop_index)
                self._launch_hop(api, node, hop_index + 1, remaining)
            elif kind == "ack":
                _tag, hop_index = msg.payload
                self._acked_hops.add(hop_index)
                if self._pending is not None and self._pending[2] == hop_index:
                    self._pending = None

    def maybe_retransmit(self, api: ProtocolAPI, *, force: bool = False) -> bool:
        """Resend the in-flight hop (if timed out, or always when forced)."""
        if self._pending is None:
            return False
        sender, receiver, hop_index, remaining, last_sent = self._pending
        if not force and api.round - last_sent < self.timeout:
            return False
        self._pending = (sender, receiver, hop_index, remaining, api.round)
        self.retransmissions += 1
        api.send(sender, receiver, ("token", hop_index, remaining - 1), words=3)
        return True

    def on_round_begin(self, api: ProtocolAPI) -> None:
        # Timeout-based retransmission while the network is busy (the ACK
        # takes 2 rounds when everything survives; beyond that, resend).
        if self.destination is None:
            self.maybe_retransmit(api)

    def is_done(self, api: ProtocolAPI) -> bool:
        if self.destination is not None:
            return True
        # The network has gone quiet while the walk is incomplete: in a
        # synchronous system that is a definite loss signal, so retransmit
        # immediately (the engine picks the resend up from the outbox).
        self.maybe_retransmit(api, force=True)
        return False


def reliable_walk(
    graph: Graph,
    source: int,
    length: int,
    *,
    drop_probability: float,
    seed=None,
    fault_seed=None,
    timeout: int = 2,
    max_rounds: int = 1_000_000,
) -> tuple[ReliableTokenWalkProtocol, LossyNetwork]:
    """Run a reliable token walk over a lossy network; returns (protocol, net)."""
    net = LossyNetwork(
        graph,
        drop_probability=drop_probability,
        seed=seed,
        fault_seed=fault_seed,
    )
    proto = ReliableTokenWalkProtocol(source, length, timeout=timeout)
    net.run(proto, max_rounds=max_rounds)
    if proto.destination is None:
        raise ProtocolError("reliable walk terminated without a destination (bug)")
    return proto, net
