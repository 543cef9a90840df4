"""Metropolis–Hastings walks.

Section 1.3 notes the PODC'09 algorithm "applies to the more general
Metropolis-Hastings walk" while this paper optimizes the simple walk.  We
include MH support both as that baseline's companion and as a useful
extension: an MH walk converges to an *arbitrary* target distribution
``π`` (e.g. uniform node sampling on an irregular topology).

Transition rule from node ``u`` (simple-walk proposal, then accept/reject):

``P(u→v) = (1/d(u)) · min(1, π(v)·d(u) / (π(u)·d(v)))`` for each neighbor
``v ≠ u``, with the leftover probability as a self-loop.  Each node needs
its neighbors' degrees and π-values, which costs one exchange round in the
distributed setting — charged by the token-walk wrapper below.
"""

from __future__ import annotations

import numpy as np

from repro.congest.network import Network
from repro.congest.phases import MH_SETUP, MH_WALK
from repro.errors import WalkError
from repro.graphs.graph import Graph
from repro.util.rng import make_rng
from repro.walks.single_walk import WalkResult

__all__ = [
    "metropolis_transition_matrix",
    "metropolis_step",
    "metropolis_walk",
    "naive_metropolis_walk",
]


def _validate_target(graph: Graph, target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (graph.n,):
        raise WalkError(f"target distribution must have shape ({graph.n},)")
    if np.any(target <= 0):
        raise WalkError("target distribution must be strictly positive")
    return target / target.sum()


def metropolis_transition_matrix(graph: Graph, target: np.ndarray | None = None) -> np.ndarray:
    """Dense MH transition matrix for ``target`` (default: uniform)."""
    target = _validate_target(graph, target if target is not None else np.ones(graph.n))
    n = graph.n
    p = np.zeros((n, n), dtype=np.float64)
    deg = graph.degrees.astype(np.float64)
    for u in range(n):
        for v in graph.neighbors(u):
            v = int(v)
            if v == u:
                continue
            accept = min(1.0, (target[v] * deg[u]) / (target[u] * deg[v]))
            p[u, v] += accept / deg[u]
        p[u, u] = 1.0 - p[u].sum()
    return p


def metropolis_step(graph: Graph, node: int, target: np.ndarray, rng: np.random.Generator) -> int:
    """One MH transition from ``node`` (target must be pre-normalized)."""
    deg_u = graph.degree(node)
    proposal = graph.random_neighbor(node, rng)
    if proposal == node:
        return node
    accept = min(1.0, (target[proposal] * deg_u) / (target[node] * graph.degree(proposal)))
    return proposal if rng.random() < accept else node


def metropolis_walk(
    graph: Graph, start: int, length: int, rng, target: np.ndarray | None = None
) -> list[int]:
    """Centralized MH walk trajectory (ℓ+1 nodes)."""
    if length < 0:
        raise WalkError("length must be non-negative")
    rng = make_rng(rng)
    target = _validate_target(graph, target if target is not None else np.ones(graph.n))
    path = [int(start)]
    for _ in range(length):
        path.append(metropolis_step(graph, path[-1], target, rng))
    return path


def _run_metropolis_walk(
    graph: Graph,
    source: int,
    length: int,
    rng,
    net: Network,
    *,
    target: np.ndarray | None = None,
) -> WalkResult:
    """One-shot distributed MH walk on a resolved (rng, network) — legacy body.

    :meth:`~repro.engine.core.WalkEngine.run` validates the request and
    fills in the result's ``rounds`` and ``phase_rounds``.
    """
    with net.phase(MH_SETUP):
        # Every node tells each neighbor (degree, pi); full-edge congestion 1.
        net.ledger.charge(1, messages=graph.n_slots, congestion=1)

    positions = metropolis_walk(graph, source, length, rng, target)
    moves = sum(1 for a, b in zip(positions[:-1], positions[1:]) if a != b)
    with net.phase(MH_WALK):
        net.deliver_sequential(moves, messages_per_hop=1)

    return WalkResult(
        source=source,
        length=length,
        destination=positions[-1],
        mode="metropolis-naive",
        lam=length,
        positions=np.asarray(positions, dtype=np.int64),
    )


def naive_metropolis_walk(
    graph: Graph,
    source: int,
    length: int,
    *,
    seed=None,
    target: np.ndarray | None = None,
    network: Network | None = None,
) -> WalkResult:
    """Distributed naive MH walk: 1 setup round + one round per *move*.

    The setup round exchanges (degree, π-value) with neighbors — after that
    every accept/reject decision is local.  Rejected proposals are
    self-loops and cost no communication, so the round count is the number
    of actual moves, not ℓ.

    Thin wrapper over a one-shot :class:`~repro.engine.core.WalkEngine`
    (``algorithm="metropolis"``).
    """
    from repro.engine.core import WalkEngine

    engine = WalkEngine(graph, seed=seed, network=network)
    return engine.walk(source, length, algorithm="metropolis", pooled=False, target=target)
