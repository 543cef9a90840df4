"""Protocol interface for event-driven CONGEST executions.

A :class:`Protocol` expresses per-node behaviour: what each node sends at
wake-up and how it reacts to delivered messages.  The engine
(:class:`repro.congest.network.Network`) owns timing — it batches sends,
enforces per-edge bandwidth, and advances rounds — so protocol code never
sees or manipulates the clock.  This mirrors the paper's model: "all the
nodes wake up simultaneously at the beginning of round 1" and react to
messages arriving "at the end of the current round".

Protocols interact with the world only through :class:`ProtocolAPI`:

* ``api.send(src, dst, payload, words=1)`` — enqueue a message for the next
  round (``dst`` must neighbor ``src``).
* ``api.graph`` / ``api.rng`` — topology access and the protocol's RNG.
* ``api.round`` — current round number (read-only; for logging/asserts).

Local computation is free, per the model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.congest.message import Message
from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.congest.network import Network

__all__ = ["Protocol", "ProtocolAPI"]


class ProtocolAPI:
    """The capabilities handed to protocol callbacks by the engine."""

    def __init__(self, network: "Network", rng) -> None:
        self._network = network
        self.graph = network.graph
        self.rng = rng
        self._outbox: list[Message] = []

    @property
    def round(self) -> int:
        return self._network.rounds

    def send(self, src: int, dst: int, payload: Any, words: int = 1) -> None:
        """Queue a message from ``src`` to its neighbor ``dst``.

        Raises :class:`ProtocolError` when ``dst`` is not adjacent to
        ``src`` (CONGEST has no routing — only edge-local communication) or
        when the message is wider than the per-round bandwidth allows.
        """
        if words > self._network.max_words:
            raise ProtocolError(
                f"message of {words} words exceeds the engine's {self._network.max_words}-word"
                " bandwidth cap; split it across rounds"
            )
        if not self.graph.has_edge(src, dst):
            raise ProtocolError(f"node {src} tried to message non-neighbor {dst}")
        self._outbox.append(Message(src=src, dst=dst, payload=payload, words=words))

    def drain_outbox(self) -> list[Message]:
        out, self._outbox = self._outbox, []
        return out


class Protocol:
    """Base class for event-driven protocols.

    Subclasses override some of:

    * :meth:`on_start` — called once before round 1; initial sends go here.
    * :meth:`on_receive` — called for each node that received messages in
      the round just completed.
    * :meth:`is_done` — polled after each round once no messages remain in
      flight; defaults to True (quiescence = termination).

    The engine guarantees that messages sent during ``on_receive`` in round
    ``r`` are delivered no earlier than round ``r+1``, and later if the edge
    is congested (FIFO per directed edge).
    """

    name = "protocol"

    def on_start(self, api: ProtocolAPI) -> None:  # noqa: B027 - optional hook
        """Initial sends, before any round has run."""

    def on_round_begin(self, api: ProtocolAPI) -> None:  # noqa: B027 - optional hook
        """Per-round tick before delivery — nodes act every round in the
        synchronous model, not only when messages arrive.  Sends made here
        are delivered at the end of the same round (they share it with
        sends from the previous round's ``on_receive``)."""

    def on_receive(self, api: ProtocolAPI, node: int, messages: Sequence[Message]) -> None:  # noqa: B027
        """React to the batch of messages ``node`` received this round."""

    def is_done(self, api: ProtocolAPI) -> bool:
        """Extra termination predicate checked when the network is quiet."""
        return True
