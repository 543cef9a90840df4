"""GET-MORE-WALKS (Algorithm 2): replenish a node's short-walk pool.

When the stitching phase lands on a node ``v`` whose walks are exhausted,
``v`` launches ``count`` fresh tokens.  All tokens share the single source
``v``, so a directed edge never needs more than one message per iteration:
nodes forward *(source ID, count)* pairs, not individual tokens — hence no
congestion and ``O(λ)`` rounds total (Lemma 2.2).

Length randomization cannot be done by sampling ``r_i`` up front (each token
would need its own remaining-length counter on the wire, breaking count
aggregation); instead the paper uses **reservoir sampling** (Vitter):
after the common ``λ`` steps, at extension step ``i`` every surviving token
stops with probability ``1/(λ−i)``, which makes the realized length uniform
on ``[λ, 2λ−1]`` (Lemma 2.4) while the wire still carries only counts.

That charge rule has one loop, :func:`get_more_walks_batch`, which refills
many sources at once; :func:`get_more_walks` is its one-source call.
"""

from __future__ import annotations

import numpy as np

from repro.congest.network import Network
from repro.congest.phases import GET_MORE_WALKS
from repro.errors import WalkError
from repro.util.contracts import charged_fast_path
from repro.walks.store import WalkStore

__all__ = ["get_more_walks", "get_more_walks_batch"]


def get_more_walks(
    network: Network,
    store: WalkStore,
    source: int,
    count: int,
    lam: int,
    rng: np.random.Generator,
    *,
    randomized_lengths: bool = True,
    record_paths: bool = True,
    phase: str = GET_MORE_WALKS,
) -> int:
    """Launch ``count`` new short walks from ``source``; returns rounds charged.

    With ``randomized_lengths=False`` this reproduces the PODC'09 variant:
    fixed-length ``λ`` walks, still count-aggregated, ``λ`` rounds.
    """
    return get_more_walks_batch(
        network, store, np.array([source]), np.array([count]), lam, rng,
        randomized_lengths=randomized_lengths, record_paths=record_paths, phase=phase,
    )


@charged_fast_path(
    equivalence_test="tests/test_token_loops.py::test_get_more_walks_batch_bills_its_recorded_hops"
)
def get_more_walks_batch(
    network: Network,
    store: WalkStore,
    sources: np.ndarray,
    counts: np.ndarray,
    lam: int,
    rng: np.random.Generator,
    *,
    randomized_lengths: bool = True,
    record_paths: bool = True,
    phase: str = GET_MORE_WALKS,
) -> int:
    """Replenish *many* nodes' pools in one interleaved sweep; returns rounds.

    ``sources[i]`` launches ``counts[i]`` fresh tokens; all tokens of all
    sources advance simultaneously.  Count aggregation still works per
    source — an edge carries one *(source ID, count)* message per distinct
    source crossing it — so each iteration is charged by the worst per-edge
    number of distinct sources (:meth:`~repro.congest.network.Network.
    deliver_step_grouped`), never by raw token load.  With ``r`` depleted
    sources this costs ``O(λ · max-overlap)`` rounds total instead of the
    ``r·O(λ)`` of serial per-node GET-MORE-WALKS — the batched refill the
    pool manager's background ``maintain()`` sweep relies on.

    Length randomization is the per-token reservoir extension (stop w.p.
    ``1/(λ−i)`` at extension step ``i``), so every token's length stays
    uniform on ``[λ, 2λ−1]`` regardless of which source launched it.  Each
    extension step draws one uniform per token still walking.
    """
    src = np.ascontiguousarray(sources, dtype=np.int64)
    cnt = np.ascontiguousarray(counts, dtype=np.int64)
    if src.ndim != 1 or src.shape != cnt.shape:
        raise WalkError("sources and counts must be 1-D arrays of equal length")
    if np.any(cnt < 1):
        raise WalkError("per-source refill counts must be >= 1")
    if lam < 1:
        raise WalkError(f"lambda must be >= 1, got {lam}")
    graph = network.graph
    if src.size and (src.min() < 0 or src.max() >= graph.n):
        raise WalkError(f"refill sources must be nodes in [0, {graph.n})")
    total = int(cnt.sum())
    if total == 0:
        return 0

    origins = np.repeat(src, cnt)
    positions = origins.copy()
    max_len = 2 * lam - 1 if randomized_lengths else lam
    paths = None
    if record_paths:
        paths = np.empty((total, max_len + 1), dtype=np.int32)
        paths[:, 0] = origins
    final_length = np.full(total, lam, dtype=np.int64)

    rounds_before = network.rounds
    with network.phase(phase):
        # Common prefix: λ hops, (source ID, count) aggregated per edge.
        for step in range(1, lam + 1):
            slots = graph.step_walk_slots(positions, rng)
            network.deliver_step_grouped(slots, origins, words=2)
            positions = graph.csr_target[slots]
            if paths is not None:
                paths[:, step] = positions

        if randomized_lengths:
            # Reservoir extension: at step i each live token stops w.p.
            # 1/(λ−i).  ``live`` names the walking tokens, compacted stably,
            # and only they draw.
            live = np.arange(total)
            for i in range(lam):
                stops = rng.random(live.size) < 1.0 / (lam - i)
                final_length[live[stops]] = lam + i
                live = live[~stops]
                if not live.size:
                    break
                slots = graph.step_walk_slots(positions[live], rng)
                network.deliver_step_grouped(slots, origins[live], words=2)
                positions[live] = graph.csr_target[slots]
                if paths is not None:
                    paths[:, lam + 1 + i] = positions
            if live.size:
                raise WalkError("reservoir extension must retire every token")

    store.add_batch(origins, final_length, positions, paths=paths)
    return network.rounds - rounds_before
