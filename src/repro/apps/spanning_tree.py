"""Section 4.1: distributed random spanning trees in Õ(√(mD)) rounds.

Distributed simulation of Aldous–Broder, exactly as the paper schedules it:

* pick a root, set ``ℓ = n``;
* each *phase*, run ``⌈log₂ n⌉`` independent walks of length ``ℓ`` from the
  root (one MANY-RANDOM-WALKS call — this is where the √(ℓD) speedup
  enters), then check in ``O(D)`` whether any walk covered all nodes
  (a convergecast of per-walk visit bits);
* no cover → double ``ℓ`` and repeat; cover → regenerate the covering walk
  so every node knows its visit positions, let each non-root node pick the
  edge of its first visit (one local round), output the tree.

The doubling halts w.h.p. once ``ℓ`` reaches ~2× the cover time
``τ = O(mD)``, and each phase costs ``Õ(√(ℓD))``, giving Theorem 4.1's
``Õ(√(mD))`` total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.apps.wilson import cover_time_of, first_entry_tree
from repro.congest.network import Network
from repro.congest.phases import (
    PHASE1,
    RST_COVER_CHECK,
    RST_PICK_EDGES,
    RST_REGENERATE,
    RST_SETUP,
)
from repro.congest.primitives import BfsTree, build_bfs_tree, charged_convergecast
from repro.engine.model import ResultBase
from repro.errors import ConvergenceError, GraphError, WalkError
from repro.graphs.graph import Graph
from repro.graphs.spanning import TreeKey, canonical_tree
from repro.util.arrays import sorted_unique
from repro.util.rng import make_rng
from repro.walks.many_walks import many_random_walks

__all__ = ["PhaseRecord", "RSTResult", "random_spanning_tree"]


@dataclass(frozen=True)
class PhaseRecord:
    """One doubling phase of the RST schedule."""

    length: int
    walks: int
    covered: bool
    rounds: int


@dataclass
class RSTResult(ResultBase):
    """A sampled spanning tree plus the full cost breakdown.

    ``rounds``/``mode``/``phase_rounds`` come from
    :class:`~repro.engine.model.ResultBase` (``mode`` is ``"rst"``; the
    phase breakdown covers this request only, even on a shared network).
    """

    root: int
    tree: TreeKey
    phases: list[PhaseRecord] = field(default_factory=list)
    cover_time: int = 0
    final_length: int = 0

    @property
    def edges(self) -> list[tuple[int, int]]:
        return list(self.tree)


def _cover_check(
    network: Network,
    tree: BfsTree,
    trajectories: list[np.ndarray],
    n: int,
) -> int | None:
    """Which walk (if any) covered all nodes; charged as one convergecast.

    Each node holds one visited-bit per walk (``⌈log₂ n⌉`` bits — a single
    O(log n)-word), so the AND-aggregation is one sweep: ``height`` rounds.
    """
    k = len(trajectories)
    visited = np.zeros((n, k), dtype=bool)
    for j, traj in enumerate(trajectories):
        visited[sorted_unique(traj), j] = True
    values = [tuple(bool(b) for b in visited[v]) for v in range(n)]
    combined = charged_convergecast(
        network,
        tree,
        values,
        lambda a, b: tuple(x and y for x, y in zip(a, b)),
        words=1,
    )
    for j, all_visited in enumerate(combined):
        if all_visited:
            return j
    return None


def random_spanning_tree(
    graph: Graph,
    *,
    root: int = 0,
    seed=None,
    walks_per_phase: int | None = None,
    initial_length: int | None = None,
    max_phases: int = 40,
    network: Network | None = None,
) -> RSTResult:
    """Sample a uniform random spanning tree, distributedly.

    Defaults follow the paper: ``⌈log₂ n⌉`` walks per phase starting at
    ``ℓ = n``.  Raises :class:`ConvergenceError` if ``max_phases``
    doublings never produce a covering walk (pathological only: the
    schedule reaches 4× the cover time in ``O(log τ)`` phases w.h.p.).
    """
    if graph.n < 2:
        raise GraphError("spanning tree needs at least 2 nodes")
    if not 0 <= root < graph.n:
        raise GraphError(f"root {root} out of range")
    rng = make_rng(seed)
    net = network if network is not None else Network(graph, seed=rng)
    rounds_before = net.rounds
    ledger_before = net.ledger.capture()
    k = walks_per_phase if walks_per_phase is not None else max(1, math.ceil(math.log2(graph.n)))
    length = initial_length if initial_length is not None else graph.n

    tree_cache: dict[int, BfsTree] = {}
    with net.phase(RST_SETUP):
        bfs = build_bfs_tree(net, root, cache=tree_cache)

    phases: list[PhaseRecord] = []
    for _ in range(max_phases):
        phase_start = net.rounds
        walk_rng = rng.integers(0, 2**63 - 1)
        result = many_random_walks(
            graph,
            [root] * k,
            length,
            seed=int(walk_rng),
            record_paths=True,
            report_to_source=False,
            network=net,
        )
        if result.positions is None:
            raise WalkError("many_random_walks(record_paths=True) returned no trajectories")
        with net.phase(RST_COVER_CHECK):
            winner = _cover_check(net, bfs, result.positions, graph.n)
        phases.append(
            PhaseRecord(
                length=length,
                walks=k,
                covered=winner is not None,
                rounds=net.rounds - phase_start,
            )
        )
        if winner is None:
            length *= 2
            continue

        trajectory = result.positions[winner]
        cover_time = cover_time_of(trajectory, graph.n)
        if cover_time is None:
            raise WalkError("the covering walk's trajectory misses a node")
        truncated = trajectory[: cover_time + 1]

        with net.phase(RST_REGENERATE):
            # Every node must learn its first-visit position.  The paper
            # charges this at most one Phase-1 equivalent (§2.2); for the
            # naive-parallel mode the token already told every node.
            if result.mode == "stitched":
                phase1 = net.ledger.phases.get(PHASE1)
                net.ledger.charge(phase1.rounds if phase1 else 0, messages=0, congestion=1)

        with net.phase(RST_PICK_EDGES):
            # Each non-root node asks the neighbor visited just before its
            # first visit for the shared edge — one local exchange round.
            net.ledger.charge(1, messages=graph.n - 1, congestion=1)
        edges = first_entry_tree(truncated, graph.n)
        if not graph.subgraph_is_spanning_tree(edges):
            raise GraphError("first-entry edges do not form a spanning tree (bug)")
        return RSTResult(
            root=root,
            tree=canonical_tree(edges),
            mode="rst",
            rounds=net.rounds - rounds_before,
            phase_rounds=dict(net.ledger.delta_since(ledger_before).phase_rounds),
            phases=phases,
            cover_time=cover_time,
            final_length=length,
        )

    raise ConvergenceError(
        f"no covering walk after {max_phases} doubling phases (reached length {length})"
    )
