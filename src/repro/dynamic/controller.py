"""``ChurnController`` — the invalidation cascade behind ``apply_churn``.

A :class:`~repro.dynamic.delta.GraphDelta` applied to a live session must
leave *every* layer consistent.  The cascade below is the one crash/recover
shares (:mod:`repro.engine.faults`): steps 1–2 are
:meth:`~repro.engine.core.WalkEngine._apply_delta`, steps 3–5 are
:meth:`~repro.engine.pool.PoolManager.invalidate`, and this module keeps
only the churn report and telemetry.  In order:

1. **Topology** — :meth:`~repro.graphs.graph.Graph.apply_delta` rebuilds
   the CSR arrays in place and reports the slot remap and mutated nodes;
   :meth:`~repro.congest.network.Network.refresh_topology` re-stamps the
   topology, so BFS trees re-read the CSR slots they stage on.
2. **Caches** — the engine's BFS-tree cache drops wholesale: tree shape,
   heights, and charged flood costs are all topology functions.
3. **Pool invalidation** — one blocked scan of the
   :class:`~repro.walks.store.WalkStore` path matrices
   (:meth:`~repro.walks.store.WalkStore.find_invalid_rows`) finds every
   pooled token whose recorded walk stepped *from* a node whose sampling
   law changed, and evicts exactly those.  Both endpoints of a deleted
   edge are such nodes, so a hop across a deleted edge is caught too.
   Tokens that never touched a mutated node keep the identical law on the
   new graph, so they keep serving — that selectivity is the whole win
   over discarding the pool.  A pool prepared with ``record_paths=False``
   has nothing to scan, so churn falls back to full eviction there
   (correct, never wrong — just not incremental).
4. **Quotas** — :meth:`~repro.engine.pool.PoolManager.rebuild_quotas`
   re-derives per-source base allocations, shard quotas, and watermarks
   from the *new* degree profile (``⌈η·deg(v)⌉``, Lemma 2.6's shape).
5. **Charged regeneration** — the affected shards (any shard that lost a
   token or contains a mutated node) top back up to quota in one batched
   GET-MORE-WALKS sweep on the new graph, billed to the
   ``"pool-refill/churn"`` sub-phase: on the session ledger, excluded
   from request deltas, summed by the ``pool-refill`` family — the exact
   accounting contract of ``pool-refill/maintain``.  An optional round
   budget defers the least-urgent shards; their deficit stays visible to
   the serving scheduler's admission pricing, which already folds
   per-shard deficits into its modeled refill cost.

Charging model: detection is free — every endpoint of a changed edge
learns of it locally (churn *is* a local event), and hop validity is
node-local knowledge (node ``path[j]`` owns its hop, cf. §2.2's
regeneration premise) — so only the regeneration traffic is charged.
Propagating eviction notices to token holders is not separately billed;
it is bounded above by a replay of the evicted suffixes (strictly less
than the regeneration sweep that follows) and noted as future work.

Exactness is preserved end to end: surviving tokens are untouched samples
of the *new* graph's short-walk law, replacements are freshly sampled on
the new graph, and stitching always draws uniform unused tokens — so
served endpoints follow the new ``P^ℓ`` exactly (chi-square-proved in
``tests/test_dynamic.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.dynamic.delta import GraphDelta
from repro.engine.model import _jsonify
from repro.engine.pool import CHURN_PHASE, NO_INVALIDATION

__all__ = ["ChurnController", "ChurnReport"]


@dataclass(frozen=True)
class ChurnReport:
    """Outcome of one :meth:`~repro.engine.core.WalkEngine.apply_churn`.

    ``tokens_scanned`` counts the live tokens the vectorized path scan
    inspected; ``tokens_evicted`` of them were invalidated
    (``full_eviction`` marks the pathless-pool fallback where the whole
    pool goes).  ``tokens_regenerated`` replacements were launched by the
    charged sweep (``regen_rounds``, billed to ``"pool-refill/churn"``);
    under a round budget ``deferred_shards`` lists affected shards whose
    regeneration was pushed to later maintenance.  ``rounds`` is the full
    ledger delta of the event — regeneration only, since detection is
    node-local (see the module docstring's charging model).
    """

    edges_inserted: int
    edges_deleted: int
    mutated_nodes: int
    tokens_scanned: int
    tokens_evicted: int
    full_eviction: bool
    shards_affected: tuple[int, ...]
    sources_regenerated: int
    tokens_regenerated: int
    regen_rounds: int
    rounds: int
    deferred_shards: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return _jsonify(dataclasses.asdict(self))


class ChurnController:
    """Drives the churn cascade on one engine session.

    Stateless between events except for cumulative telemetry (surfaced via
    ``engine.stats()``); the engine creates one lazily on the first
    :meth:`~repro.engine.core.WalkEngine.apply_churn` call and keeps it
    for the session.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.events = 0
        self.tokens_evicted = 0
        self.tokens_regenerated = 0

    def apply(self, delta: GraphDelta, *, round_budget: int | None = None) -> ChurnReport:
        # Churn-event context rides the regeneration sweep's spans.
        probe = self.engine.obs
        with probe.annotate(churn_event=self.events + 1):
            report = self._apply_impl(delta, round_budget=round_budget)
        probe.event(
            "churn",
            self.engine.network.ledger,
            edges_deleted=report.edges_deleted,
            edges_inserted=report.edges_inserted,
            event=self.events,
        )
        return report

    def _apply_impl(self, delta: GraphDelta, *, round_budget: int | None = None) -> ChurnReport:
        engine = self.engine
        net = engine.network
        rounds_before = net.rounds
        remap = engine._apply_delta(delta)
        self.events += 1
        pool = engine.pool
        inv = NO_INVALIDATION
        if pool is not None:
            inv = pool.invalidate(net, engine.rng, remap, phase=CHURN_PHASE, round_budget=round_budget)
            self.tokens_evicted += inv.tokens_evicted
            self.tokens_regenerated += inv.regen.tokens_added
        return ChurnReport(
            edges_inserted=remap.edges_inserted,
            edges_deleted=remap.edges_deleted,
            mutated_nodes=remap.num_mutated,
            tokens_scanned=inv.tokens_scanned,
            tokens_evicted=inv.tokens_evicted,
            full_eviction=inv.full_eviction,
            shards_affected=inv.shards_affected,
            sources_regenerated=inv.regen.sources_refilled,
            tokens_regenerated=inv.regen.tokens_added,
            regen_rounds=inv.regen.rounds,
            rounds=net.rounds - rounds_before,
            deferred_shards=inv.regen.deferred_shards,
        )
