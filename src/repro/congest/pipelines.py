"""Pipelined upcast: move many items to the root in height + k − 1 rounds.

Several charged costs in the library (MANY-RANDOM-WALKS' destination
reports, the mixing estimator's bucket-count recovery) rely on the classic
CONGEST pipelining fact: ``k`` constant-size items spread over a BFS tree
reach the root in ``height + k − 1`` rounds, because each tree edge can
forward one item per round and items stream behind each other.  This
module implements that primitive as a real protocol so the charge formulas
elsewhere are *validated by measurement* (``tests/test_pipelines.py``)
rather than asserted.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.primitives import BfsTree
from repro.congest.protocol import Protocol, ProtocolAPI
from repro.errors import ProtocolError

__all__ = ["PipelinedUpcastProtocol", "pipelined_upcast"]


class PipelinedUpcastProtocol(Protocol):
    """Stream every node's items up a BFS tree, one item per edge per round.

    Each node keeps a FIFO of items to forward (its own plus everything
    received from children) and pushes one to its parent per round.  The
    root collects all items in arrival order.
    """

    name = "pipelined-upcast"

    def __init__(self, tree: BfsTree, items: Sequence[Sequence[Any]], *, words: int = 2) -> None:
        if len(items) != tree.n:
            raise ProtocolError("items must provide one (possibly empty) list per node")
        self.tree = tree
        self.words = words
        self.collected: list[Any] = list(items[tree.root])
        self._queues: list[deque[Any]] = [deque(node_items) for node_items in items]
        self._queues[tree.root].clear()
        self.expected = sum(len(node_items) for i, node_items in enumerate(items) if i != tree.root)
        self.received_at_root = 0

    def _pump(self, api: ProtocolAPI, node: int) -> None:
        if node == self.tree.root or not self._queues[node]:
            return
        item = self._queues[node].popleft()
        api.send(node, int(self.tree.parent[node]), ("up", item), words=self.words)

    def _pump_all(self, api: ProtocolAPI) -> None:
        for node in range(self.tree.n):
            self._pump(api, node)

    def on_start(self, api: ProtocolAPI) -> None:
        self._pump_all(api)

    def on_round_begin(self, api: ProtocolAPI) -> None:
        # Every round, every node streams its next queued item upward —
        # this is what makes the height + k − 1 pipelining bound real.
        self._pump_all(api)

    def on_receive(self, api: ProtocolAPI, node: int, messages: Sequence[Message]) -> None:
        for msg in messages:
            item = msg.payload[1]
            if node == self.tree.root:
                self.collected.append(item)
                self.received_at_root += 1
            else:
                self._queues[node].append(item)

    def is_done(self, api: ProtocolAPI) -> bool:
        if self.received_at_root >= self.expected:
            return True
        # Quiet but incomplete should be impossible (any nonempty queue
        # pumps at round begin); kick defensively rather than deadlock.
        self._pump_all(api)
        return False


def pipelined_upcast(
    network: Network,
    tree: BfsTree,
    items: Sequence[Sequence[Any]],
    *,
    words: int = 2,
    max_rounds: int = 1_000_000,
) -> tuple[list[Any], int]:
    """Run the upcast; returns (items collected at root, rounds used)."""
    proto = PipelinedUpcastProtocol(tree, items, words=words)
    rounds = network.run(proto, max_rounds=max_rounds)
    return proto.collected, rounds
