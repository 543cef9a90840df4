"""Phase 1: every node prepares its pool of short walks.

Implements the first phase of SINGLE-RANDOM-WALK (Algorithm 1): node ``v``
launches ``counts[v]`` walk tokens, token ``i`` carrying its source ID and a
desired length.  In the randomized scheme (this paper) the desired length is
``λ + r_i`` with ``r_i`` uniform on ``[0, λ−1]`` — the device behind
Lemma 2.7 — while the PODC'09 baseline uses exactly ``λ``.

All tokens advance simultaneously, one hop per iteration; iteration ``j``
costs ``max_e X_j(e)`` rounds where ``X_j(e)`` is the number of tokens
crossing edge ``e`` (tokens of *different* sources cannot share a message,
so congestion is real here — this is precisely the quantity Lemma 2.1
bounds by ``O(η log n)`` w.h.p.).

That charge rule has one loop, :func:`walk_tokens` — one NumPy step per
iteration over all live tokens — which MANY-RANDOM-WALKS' parallel tails
run too.  Storage is vectorized as well: the finished batch (origins,
lengths, endpoints, and the shared hop matrix) transfers to the columnar
:class:`~repro.walks.store.WalkStore` in a single :meth:`add_batch` call;
no per-token Python objects are built on this path (they materialize
lazily when stitching pops a token).
"""

from __future__ import annotations

import numpy as np

from repro.congest.network import Network
from repro.congest.phases import PHASE1
from repro.errors import WalkError
from repro.util.contracts import charged_fast_path
from repro.walks.store import WalkStore

__all__ = ["perform_short_walks", "token_counts", "walk_tokens"]


def token_counts(degrees: np.ndarray, eta: float, *, degree_proportional: bool) -> np.ndarray:
    """Per-node Phase-1 token counts.

    Degree-proportional mode (this paper): ``⌈η·deg(v)⌉`` — each node's pool
    is sized to how often Lemma 2.6 says it can be hit.  Uniform mode
    (PODC'09): ``⌈η⌉`` per node.
    """
    if eta <= 0:
        raise WalkError(f"eta must be positive, got {eta}")
    if degree_proportional:
        counts = np.ceil(eta * degrees.astype(np.float64))
    else:
        counts = np.full(len(degrees), np.ceil(eta))
    return counts.astype(np.int64)


@charged_fast_path(
    equivalence_test="tests/test_ledger_golden.py::test_single_random_walk_matches_seed"
)
def perform_short_walks(
    network: Network,
    store: WalkStore,
    lam: int,
    rng: np.random.Generator,
    *,
    counts: np.ndarray,
    randomized_lengths: bool = True,
    record_paths: bool = True,
    phase: str = PHASE1,
) -> int:
    """Run Phase 1; returns rounds charged.

    Parameters
    ----------
    counts:
        Tokens to launch per node (see :func:`token_counts`).
    randomized_lengths:
        Draw lengths from ``[λ, 2λ−1]`` (True, this paper) or use ``λ``
        exactly (False, PODC'09 baseline).
    record_paths:
        Keep each token's full hop sequence on its record (needed for walk
        regeneration and the RST application; costs memory only — the hop
        knowledge is node-local in the real system).
    """
    graph = network.graph
    if lam < 1:
        raise WalkError(f"lambda must be >= 1, got {lam}")
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (graph.n,):
        raise WalkError(f"counts must have one entry per node, got shape {counts.shape}")
    if np.any(counts < 0):
        raise WalkError("token counts must be non-negative")
    total = int(counts.sum())
    if total == 0:
        return 0

    # int32, the store's column width.  The int32 draw yields the values
    # and the generator state of the int64 one.
    origins = np.repeat(np.arange(graph.n, dtype=np.int32), counts)
    if randomized_lengths:
        target_len = lam + rng.integers(0, lam, size=total, dtype=np.int32)
    else:
        target_len = np.full(total, lam, dtype=np.int32)

    rounds_before = network.rounds
    positions, paths = walk_tokens(
        network, origins, target_len, rng, record_paths=record_paths, phase=phase
    )
    store.add_batch(origins, target_len, positions, paths=paths)
    return network.rounds - rounds_before


@charged_fast_path(
    equivalence_test="tests/test_token_loops.py::test_walk_tokens_bills_its_recorded_hops"
)
def walk_tokens(
    network: Network,
    starts: np.ndarray,
    lengths: np.ndarray,
    rng: np.random.Generator,
    *,
    record_paths: bool,
    phase: str,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Walk token ``i`` for ``lengths[i]`` hops from ``starts[i]``, all in lockstep.

    Each iteration is charged to ``phase`` by the worst per-edge token load.
    Returns the final positions (int64) and, with ``record_paths``, the
    int32 hop matrix (row ``i``: ``starts[i]``, then hop ``j`` in column
    ``j``), the width the store keeps it at.

    The loop has two stages.  While ``step ≤ min(lengths)`` every token
    walks, so those steps take ``positions`` whole, with no mask.  After
    that a live-index array, compacted stably each step, names the tokens
    still walking.  Either way the live tokens draw in index order, so the
    RNG stream is the one a per-step mask over all tokens would consume.
    """
    graph = network.graph
    positions = np.array(starts, dtype=np.int64)
    max_len = int(lengths.max()) if lengths.size else 0
    prefix = max(int(lengths.min()), 0) if lengths.size else 0
    paths = None
    if record_paths:
        paths = np.empty((positions.size, max_len + 1), dtype=np.int32)
        paths[:, 0] = positions
    with network.phase(phase):
        for step in range(1, prefix + 1):
            slots = graph.step_walk_slots(positions, rng)
            network.deliver_step(slots, words=2)  # (source ID, remaining length)
            positions = graph.csr_target[slots]
            if paths is not None:
                paths[:, step] = positions
        live = np.arange(positions.size)
        for step in range(prefix + 1, max_len + 1):
            live = live[lengths[live] >= step]
            slots = graph.step_walk_slots(positions[live], rng)
            network.deliver_step(slots, words=2)
            positions[live] = graph.csr_target[slots]
            if paths is not None:
                # Full-column write: rows of finished tokens hold their
                # final position, in columns past `length` that no reader
                # ever slices — and a strided column store beats a
                # boolean-mask scatter by a wide margin.
                paths[:, step] = positions
    return positions, paths
