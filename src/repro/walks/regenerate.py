"""Walk regeneration: make every node learn its position(s) in the walk.

Section 2.2, "Regenerating the entire random walk": applications like the
random spanning tree need more than the endpoint — each node must know at
which steps the walk visited it.  The paper's procedure, implemented here:

1. **Inform the connectors** of their positions: there are only ``O(√ℓ)``
   of them, so routing one (connector, offset) message each from the source
   over its BFS tree pipelines in ``height + #segments`` rounds.
2. **Re-send a message through each used short walk**: each segment's
   hop-owners forward a position counter along the recorded hops.  All
   segments replay simultaneously, charged per-iteration by congestion —
   at most the cost of Phase 1 itself ("takes time at most the time taken
   in Phase 1"), and usually much less because only the used segments
   replay.

Every walk that stitched segments regenerates this way, this paper's and
the PODC'09 baseline's alike.  Walks computed naively need no
regeneration: the token already passed through every node with its
counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.congest.network import Network
from repro.congest.phases import REGENERATE
from repro.congest.primitives import BfsTree, build_bfs_tree, charge_tree_funnel
from repro.errors import WalkError
from repro.walks.single_walk import WalkResult

__all__ = [
    "RegenerationResult",
    "positions_by_node",
    "regenerate_walk",
    "replay_segments",
    "trajectory_from_positions",
]


def replay_segments(network: Network, seg_paths: list[np.ndarray], *, words: int = 2) -> int:
    """Charge the simultaneous replay of recorded hop sequences.

    Each path's hop-owners forward a position counter along the recorded
    hops; all segments replay at once, iteration ``j`` moving one message
    along hop ``j`` of every segment longer than ``j``, charged
    per-iteration by congestion.  Shared by walk regeneration (§2.2
    Step 2) and crash recovery, where a truncated in-flight walk's
    surviving prefix is re-announced instead of resampled — the
    sampling-once discipline of
    :class:`~repro.congest.faults.ReliableTokenWalkProtocol` applied at
    the segment scale.  Returns the number of replayed segments.
    """
    seg_paths = [p for p in seg_paths if len(p) > 1]
    if not seg_paths:
        return 0
    seg_lens = np.array([len(p) - 1 for p in seg_paths], dtype=np.int64)
    max_len = int(seg_lens.max())
    # Segments pad into one (k, max_len + 1) matrix so each iteration is
    # a column slice instead of a per-segment Python scan.
    hops = np.zeros((len(seg_paths), max_len + 1), dtype=np.int64)
    for i, p in enumerate(seg_paths):
        hops[i, : len(p)] = p
    for j in range(max_len):
        live = seg_lens > j
        network.deliver_pairs(hops[live, j], hops[live, j + 1], words=words)
    return len(seg_paths)


@dataclass
class RegenerationResult:
    """Node-local position knowledge after regeneration."""

    node_positions: dict[int, list[int]]
    rounds: int
    informed_connectors: int = 0
    replayed_segments: int = 0
    extra: dict[str, int] = field(default_factory=dict)


def positions_by_node(positions: np.ndarray) -> dict[int, list[int]]:
    """Invert a trajectory into per-node sorted position lists."""
    out: dict[int, list[int]] = {}
    for step, node in enumerate(positions):
        out.setdefault(int(node), []).append(step)
    return out


def trajectory_from_positions(node_positions: dict[int, list[int]], length: int) -> np.ndarray:
    """Rebuild the full trajectory from regenerated node-local knowledge.

    The inverse of :func:`positions_by_node` — what a central observer can
    reconstruct after regeneration, when every node knows exactly the
    steps at which the walk visited it.  Raises when the claimed positions
    do not tile ``0..length`` exactly (each step claimed by one node):
    that is the correctness contract regeneration must deliver, and the
    exactness tests rebuild walks through this to test the regenerated
    knowledge itself rather than the original trajectory.
    """
    trajectory = np.full(length + 1, -1, dtype=np.int64)
    for node, steps in node_positions.items():
        for step in steps:
            if not 0 <= step <= length:
                raise WalkError(f"node {node} claims out-of-range step {step}")
            if trajectory[step] != -1:
                raise WalkError(f"step {step} claimed by nodes {trajectory[step]} and {node}")
            trajectory[step] = node
    missing = np.nonzero(trajectory == -1)[0]
    if missing.size:
        raise WalkError(f"no node claims step {int(missing[0])}")
    return trajectory


def regenerate_walk(
    network: Network,
    result: WalkResult,
    *,
    tree_cache: dict[int, BfsTree] | None = None,
    phase: str = REGENERATE,
) -> RegenerationResult:
    """Charge the regeneration protocol and return per-node positions.

    Requires the walk to have been computed with ``record_paths=True``
    (the trajectory *is* the distributed hop-knowledge being re-announced).
    """
    if result.positions is None:
        raise WalkError("walk was computed without record_paths; cannot regenerate")
    node_positions = positions_by_node(result.positions)
    rounds_before = network.rounds

    if not result.segments:
        # Naive modes: every visited node already saw the token counter.
        return RegenerationResult(node_positions=node_positions, rounds=0)

    with network.phase(phase):
        # Step 1: source tells each connector its segment's start offset.
        tree = build_bfs_tree(network, result.source, cache=tree_cache)
        charge_tree_funnel(network, tree, len(result.segments))

        # Step 2: replay all used segments simultaneously; iteration j
        # forwards one message along hop j of every segment longer than j.
        seg_paths = [seg.path for seg in result.segments]
        if any(p is None for p in seg_paths):
            raise WalkError("segment paths missing; Phase 1 must record paths")
        replay_segments(network, seg_paths, words=2)

    return RegenerationResult(
        node_positions=node_positions,
        rounds=network.rounds - rounds_before,
        informed_connectors=len(result.connectors),
        replayed_segments=len(result.segments),
    )
