"""SAMPLE-DESTINATION (Algorithm 3): pick one unused short walk of ``v``.

Three sweeps over a BFS tree rooted at ``v``:

1. **Build** the BFS tree (``ecc(v) ≤ D`` rounds).
2. **Convergecast-sample**: each node holding tokens of ``v`` nominates one
   of its own uniformly (with its count); interior nodes repeatedly merge
   child nominations, keeping candidate ``d_j`` with probability
   ``c_j / Σc`` — the weighted merge of Algorithm 3 line 6.  The root ends
   with a token drawn uniformly over *all* stored tokens of ``v``
   (Lemma A.2), in ``height`` rounds with constant-size messages.
3. **Delete**: broadcast the chosen ``(holder, token_id)`` so the holder
   retires the token — walks are never re-stitched (``height`` rounds).

Total ``O(D)`` rounds per invocation (Lemma 2.3), and the returned length is
uniform on ``[λ, 2λ−1]`` because Phase 1 / GET-MORE-WALKS made it so
(Lemma 2.4).

The fast path, :func:`sample_destination`, bills Sweep 2 by
:func:`~repro.congest.primitives.charge_closures` over the ancestor closure
of the source's holders (the convergecast's reporters) and draws the token
centrally by the store's one draw rule
(:meth:`~repro.walks.store.WalkStore.sample_uniform_token`), whose law is
the merge's (Lemma A.2).  The event-driven
:func:`sample_destination_protocol` keeps the weighted merge, and
``tests/test_sample_destination.py`` checks that the two agree on both the
sampling law and the round count.
"""

from __future__ import annotations

import numpy as np

from repro.congest.network import Network
from repro.congest.phases import SAMPLE_DESTINATION
from repro.congest.primitives import BfsTree, build_bfs_tree, charge_closures, charged_broadcast
from repro.errors import ProtocolError
from repro.util.contracts import charged_fast_path
from repro.walks.store import TokenRecord, WalkStore

__all__ = ["sample_destination", "make_sample_combine"]

#: Sweep 2's payload: (owner ID, token id, length, count).
_SWEEP2_WORDS = 4


def make_sample_combine(rng: np.random.Generator):
    """The weighted reservoir merge of Algorithm 3.

    Values are ``(count, record)`` pairs; merging keeps the left candidate
    with probability proportional to its count.  Commutative in
    distribution, which is all the convergecast needs.
    """

    def combine(left: tuple[int, TokenRecord | None], right: tuple[int, TokenRecord | None]):
        lc, lrec = left
        rc, rrec = right
        total = lc + rc
        if total == 0:
            return (0, None)
        if lc == 0:
            return (total, rrec)
        if rc == 0:
            return (total, lrec)
        keep_left = rng.random() < lc / total
        return (total, lrec if keep_left else rrec)

    return combine


def _leaf_values(store: WalkStore, source: int, n: int, rng: np.random.Generator):
    """Per-node (count, own-nominee) pairs — Algorithm 3 line 3.

    Materializes exactly one nominee record per holder, drawing one
    uniform per holder in the store's holder order.
    """
    values: list[tuple[int, TokenRecord | None]] = [(0, None)] * n
    holders = store.holders_for_source(source)
    for holder, count in holders.items():
        nominee = store.token_at(holder, source, int(rng.integers(0, count)))
        values[holder] = (count, nominee)
    return values


def sample_destination_protocol(
    network: Network,
    store: WalkStore,
    source: int,
    rng: np.random.Generator,
) -> tuple[TokenRecord | None, int]:
    """Fully event-driven SAMPLE-DESTINATION (Algorithm 3, message by message).

    Runs the three sweeps as real protocols on the engine —
    :class:`~repro.congest.primitives.BfsFloodProtocol`, then
    :class:`~repro.congest.primitives.ConvergecastProtocol` with the
    weighted-reservoir merge, then
    :class:`~repro.congest.primitives.BroadcastProtocol` carrying the
    delete directive.  Returns ``(record, rounds_used)``.

    This is the ground-truth counterpart of :func:`sample_destination`
    (which charges the identical costs without per-message simulation);
    ``tests/test_sample_destination.py`` proves the two agree on both the
    sampling law and the round count.
    """
    from repro.congest.primitives import (
        BfsFloodProtocol,
        BroadcastProtocol,
        ConvergecastProtocol,
        build_bfs_tree,
    )

    rounds_before = network.rounds
    tree = build_bfs_tree(network, source, use_protocol=True)  # Sweep 1 (event-driven flood)
    values = _leaf_values(store, source, network.graph.n, rng)
    sweep2 = ConvergecastProtocol(tree, values, make_sample_combine(rng), words=_SWEEP2_WORDS)
    network.run(sweep2)  # Sweep 2
    count, record = sweep2.result
    if count == 0 or record is None:
        return None, network.rounds - rounds_before
    sweep3 = BroadcastProtocol(tree, ("delete", record.destination, record.token_id), words=3)
    network.run(sweep3)  # Sweep 3
    store.remove(record)
    return record, network.rounds - rounds_before


@charged_fast_path(
    equivalence_test="tests/test_sample_destination.py::TestProtocolEquivalence::test_rounds_agree"
)
def sample_destination(
    network: Network,
    store: WalkStore,
    source: int,
    rng: np.random.Generator,
    *,
    tree_cache: dict[int, BfsTree] | None = None,
    phase: str = SAMPLE_DESTINATION,
    allow_unreached: bool = False,
) -> tuple[TokenRecord | None, BfsTree]:
    """Sample-and-retire one unused short walk of ``source``.

    Returns ``(record, bfs_tree)``; ``record`` is ``None`` when the network
    holds no unused walks of ``source`` (the caller then invokes
    GET-MORE-WALKS, cf. Algorithm 1 lines 7–10).  The BFS tree is returned
    so the caller can route the walk token to the sampled destination along
    tree edges (the "stitch" costing ``depth(destination) ≤ D`` rounds).
    A source with no tokens still pays Sweep 2's ``height`` rounds; Sweep 3
    runs only when a token was drawn.
    """
    with network.phase(phase):
        tree = build_bfs_tree(  # Sweep 1
            network, source, cache=tree_cache, allow_unreached=allow_unreached
        )
        if _SWEEP2_WORDS > network.max_words:
            raise ProtocolError(f"convergecast payload of {_SWEEP2_WORDS} words exceeds cap")
        # Sweep 2: the holders' closure reports once; the draw is central.
        charge_closures(network, tree, [(tree.closure(store.holders_for_source(source)), 1)])
        record = store.sample_uniform_token(source, rng)
        if record is None:
            return None, tree
        charged_broadcast(network, tree, words=3)  # Sweep 3: delete directive
    return record, tree
