"""The naive ``O(ℓ)``-round baseline: forward a token for ℓ steps.

This is the algorithm the paper's introduction describes every application
as using before its result: "simply passing a token from one node to its
neighbor: thus to perform a random walk of length ℓ takes time linear in ℓ".

Two implementations:

* :func:`naive_random_walk` — the charged fast path used by benches
  (ℓ rounds, one message per round; congestion is impossible for a single
  token so the cost is exact, not an estimate).
* :class:`TokenWalkProtocol` — the same algorithm written as an
  event-driven per-node protocol on the engine; tests run both and check
  they agree on rounds and on the endpoint law.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.phases import NAIVE, REPORT
from repro.congest.protocol import Protocol, ProtocolAPI
from repro.graphs.graph import Graph
from repro.walks.single_walk import WalkResult

__all__ = ["naive_random_walk", "TokenWalkProtocol"]


class TokenWalkProtocol(Protocol):
    """Event-driven token walk: each hop is one message, one round.

    The payload carries ``(source ID, remaining length)`` — the exact token
    format of Phase 1.  When the counter hits zero the holder records
    itself as the destination and stops forwarding.
    """

    name = "token-walk"

    def __init__(self, source: int, length: int) -> None:
        self.source = source
        self.length = length
        self.destination: int | None = None
        self.trajectory: list[int] = [source]

    def _forward(self, api: ProtocolAPI, node: int, remaining: int) -> None:
        if remaining == 0:
            self.destination = node
            return
        nxt = api.graph.random_neighbor(node, api.rng)
        self.trajectory.append(nxt)
        api.send(node, nxt, (self.source, remaining - 1), words=2)

    def on_start(self, api: ProtocolAPI) -> None:
        self._forward(api, self.source, self.length)

    def on_receive(self, api: ProtocolAPI, node: int, messages: Sequence[Message]) -> None:
        for msg in messages:
            _, remaining = msg.payload
            self._forward(api, node, remaining)

    def is_done(self, api: ProtocolAPI) -> bool:
        return self.destination is not None


def _run_naive_walk(
    graph: Graph,
    source: int,
    length: int,
    rng,
    net: Network,
    *,
    record_paths: bool = True,
    report_to_source: bool = False,
) -> WalkResult:
    """One-shot naive token walk on a resolved (rng, network) — legacy body.

    :meth:`~repro.engine.core.WalkEngine.run` validates the request and
    fills in the result's ``rounds`` and ``phase_rounds``.
    """
    positions = graph.walk(source, length, rng)
    with net.phase(NAIVE):
        net.deliver_sequential(length, path=positions)
    if report_to_source:
        with net.phase(REPORT):
            # The report retraces the trajectory back to the source.
            net.deliver_sequential(length, path=positions[::-1])

    return WalkResult(
        source=source,
        length=length,
        destination=positions[-1],
        mode="naive",
        lam=length,
        positions=np.asarray(positions, dtype=np.int64) if record_paths else None,
    )


def naive_random_walk(
    graph: Graph,
    source: int,
    length: int,
    *,
    seed=None,
    record_paths: bool = True,
    report_to_source: bool = False,
    network: Network | None = None,
) -> WalkResult:
    """Perform the ℓ-round naive walk; returns a :class:`WalkResult`.

    ``report_to_source=True`` adds the paper's "sends its ID back (along
    the same path)" step — another ℓ rounds — turning 1-RW-DoS into
    1-RW-SoD.  Benches leave it off so the baseline is compared at its most
    favorable ``O(ℓ)`` reading.

    Thin wrapper over a one-shot :class:`~repro.engine.core.WalkEngine`
    (``algorithm="naive"``).
    """
    from repro.engine.core import WalkEngine

    engine = WalkEngine(graph, seed=seed, network=network)
    return engine.walk(
        source,
        length,
        algorithm="naive",
        pooled=False,
        record_paths=record_paths,
        report_to_source=report_to_source,
    )
