"""The persistent Phase-1 pool: its tokens, its shards, and its refill loops.

:class:`PoolManager` *is* the pool one :class:`~repro.engine.core.WalkEngine`
session serves from (``engine.pool``): it owns the columnar
:class:`~repro.walks.store.WalkStore` of unused tokens and the ``λ``/``η``/
``record_paths`` policy Phase 1 ran with.  Refilling purely *reactively*
(a query stitching through a dry connector pays a GET-MORE-WALKS round trip
mid-request) would let one hot query source drain the whole Θ(η·m) token
population before quieter sources ever queried, so the pool also runs the
two control loops arXiv:1201.1363's k-walk serving regime assumes:

* **Shards** — the per-source token buckets are partitioned into
  ``num_shards`` shards (source ``v`` belongs to shard ``v mod num_shards``).
  Each shard owns an occupancy *quota* (its Phase-1 allocation,
  ``Σ ⌈η·deg(v)⌉`` over its sources) and a *low watermark*; draining and
  refill decisions are per-shard, so an adversarial stream hammering one
  neighborhood exhausts only the shards it actually stitches through.
* **Background refills** — :meth:`PoolManager.maintain` detects every shard
  below its watermark and tops all of them up in **one** batched
  GET-MORE-WALKS sweep (:func:`~repro.walks.get_more_walks.
  get_more_walks_batch`): all depleted sources launch tokens simultaneously,
  charged by per-edge distinct-source congestion rather than serially per
  node.  The engine auto-triggers a sweep *between* requests, so its rounds
  land on the session ledger under the ``"pool-refill/maintain"`` sub-phase
  but never in any request's delta — background work, charged, not free.

Refill targets are per-source: a depleted shard refills each member source
back to its Phase-1 base allocation, which restores the shard to quota and
keeps the token population degree-proportional (the shape Lemma 2.6's
hitting argument sizes the pool for).

The serving subsystem (:mod:`repro.serve`, PR 4) drives :meth:`PoolManager.
maintain` with a **round budget** per scheduling tick: depleted shards are
ordered emptiest/most-demanded first and refilled only as far as the
budget's price allows (:meth:`PoolManager.estimate_refill_rounds`, the same
estimator admission control uses to reject requests whose source shard
cannot be restored in time).

Churn (:mod:`repro.dynamic`) and crash/recover (:mod:`repro.engine.faults`)
share one invalidation cascade: the engine applies the topology change
(:meth:`~repro.engine.core.WalkEngine._apply_delta`), then
:meth:`PoolManager.invalidate` evicts the tokens it broke and restores the
shards they came from.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from repro.congest.network import Network
from repro.congest.phases import POOL_REFILL_CHURN, POOL_REFILL_MAINTAIN
from repro.errors import WalkError
from repro.util.arrays import sorted_unique
from repro.walks.get_more_walks import get_more_walks_batch
from repro.walks.short_walks import token_counts
from repro.walks.store import WalkStore

__all__ = [
    "CHURN_PHASE", "EMPTY_REPORT", "Invalidation", "MAINTAIN_PHASE", "MaintenanceReport",
    "NO_INVALIDATION", "PoolManager", "PoolShard",
]

#: Ledger sub-phase background refill sweeps charge to (reactive mid-request
#: refills keep charging plain ``"pool-refill"``; ``RoundLedger.phase_total
#: ("pool-refill")`` sums the family).
MAINTAIN_PHASE = POOL_REFILL_MAINTAIN

#: Ledger sub-phase for churn-driven regeneration: after a
#: :class:`~repro.dynamic.delta.GraphDelta` evicts invalidated tokens,
#: :meth:`PoolManager.restore_shards` launches their replacements under this
#: name — same accounting contract as :data:`MAINTAIN_PHASE` (on the session
#: ledger, summed by the ``pool-refill`` family, never in a request delta).
CHURN_PHASE = POOL_REFILL_CHURN


def default_num_shards(n: int) -> int:
    """Shard-count policy: ``min(64, ⌈√n⌉)``, at least 1.

    √n shards keeps both the per-shard source count and the shard count
    sublinear; the cap bounds watermark-scan work for huge graphs.
    """
    n = max(1, n)
    return min(64, math.isqrt(n - 1) + 1)  # isqrt(n-1)+1 == ceil(sqrt(n))


@dataclass
class PoolShard:
    """Occupancy bookkeeping for one shard of the Phase-1 pool.

    ``quota`` is the shard's Phase-1 token allocation (the occupancy a
    refill sweep restores); ``low_watermark`` the unused-token level below
    which the shard is *depleted* and joins the next background sweep.
    """

    shard_id: int
    num_sources: int
    quota: int
    low_watermark: int
    refills: int = 0  # background sweeps that topped this shard up
    tokens_added: int = 0  # tokens those sweeps launched for this shard
    tokens_served: int = 0  # tokens stitching consumed out of this shard


@dataclass(frozen=True)
class MaintenanceReport:
    """Outcome of one :meth:`PoolManager.maintain` call.

    ``swept`` is False when no shard sat below its watermark (the call was
    a free occupancy check); ``rounds`` is the simulated cost of the batched
    refill sweep, charged to :data:`MAINTAIN_PHASE`.  Under a
    ``round_budget`` (the deadline-driven maintain policy) ``deferred_shards``
    names the depleted shards the budget pushed to a later tick —
    emptiest-first ordering guarantees they are strictly less urgent than
    every shard actually refilled.
    """

    swept: bool
    shards_refilled: tuple[int, ...]
    sources_refilled: int
    tokens_added: int
    rounds: int
    deferred_shards: tuple[int, ...] = ()
    estimated_rounds: int = 0


#: The report of a call that refilled nothing (zero rounds).
EMPTY_REPORT = MaintenanceReport(
    swept=False, shards_refilled=(), sources_refilled=0, tokens_added=0, rounds=0
)


@dataclass(frozen=True)
class Invalidation:
    """Outcome of one :meth:`PoolManager.invalidate` — the pool half of a churn or fault report.

    ``tokens_scanned`` live tokens were inspected and ``tokens_evicted`` of
    them invalidated (``full_eviction`` marks the pathless-pool fallback
    where the whole pool goes); ``tokens_lost_at_crashed`` of those were
    stored at a crashed node.  ``regen`` is the restoring sweep over
    ``shards_affected``.
    """

    tokens_scanned: int
    tokens_evicted: int
    tokens_lost_at_crashed: int
    full_eviction: bool
    shards_affected: tuple[int, ...]
    regen: MaintenanceReport


#: What a cascade reports when there is no pool to invalidate.
NO_INVALIDATION = Invalidation(0, 0, 0, False, (), EMPTY_REPORT)


class PoolManager:
    """The persistent Phase-1 pool: tokens, shard quotas, watermarks, and refills.

    Parameters
    ----------
    graph:
        Topology, for degrees (base allocations) and the shard map.
    lam / eta:
        The parameters Phase 1 runs with.  Every refill reuses them, so the
        pool stays homogeneous: every token length is uniform on
        ``[λ, 2λ−1]``.
    record_paths:
        Whether tokens carry their hop paths; fixed for the pool's lifetime
        for the same reason.
    num_shards:
        Shard count; default :func:`default_num_shards`.
    watermark_fraction:
        ``low_watermark = max(1, ⌈fraction · quota⌉)`` per shard.

    The pool starts empty: ``store`` is a fresh
    :class:`~repro.walks.store.WalkStore` that Phase 1 fills with each
    node's base allocation (``base_counts``).  ``queries`` counts the
    requests served from its tokens.
    """

    def __init__(
        self,
        graph,
        *,
        lam: int,
        eta: float,
        record_paths: bool,
        num_shards: int | None = None,
        watermark_fraction: float = 0.5,
    ) -> None:
        if lam < 1:
            raise WalkError(f"lambda must be >= 1, got {lam}")
        n = graph.n
        if num_shards is None:
            num_shards = default_num_shards(n)
        if num_shards < 1:
            raise WalkError(f"num_shards must be >= 1, got {num_shards}")
        if not 0.0 < watermark_fraction <= 1.0:
            raise WalkError(
                f"watermark_fraction must be in (0, 1], got {watermark_fraction}"
            )
        self.num_shards = int(min(num_shards, n))
        self.store = WalkStore(n, num_shards=self.num_shards)
        self.lam = int(lam)
        self.eta = float(eta)
        self.record_paths = bool(record_paths)
        self.queries = 0
        self.graph = graph
        self.watermark_fraction = float(watermark_fraction)
        # Shard s holds nodes s, s + S, s + 2S, ...  Quotas and watermarks
        # come from rebuild_quotas below — ONE home for the allocation
        # math, shared with the churn cascade.
        self.shards = [
            PoolShard(
                shard_id=s, num_sources=len(range(s, n, self.num_shards)), quota=0, low_watermark=1
            )
            for s in range(self.num_shards)
        ]
        # Speculative prefetch: transient per-shard demand fed by the
        # serving scheduler from queued-but-unserviced tickets, consumed by
        # the next maintenance ordering (see :meth:`note_demand`).
        self._prefetch_demand = np.zeros(self.num_shards, dtype=np.float64)
        # Adaptive cost model for refill sweeps: one batched GET-MORE-WALKS
        # runs at most ``2λ−1`` iterations, each charged by the worst
        # per-edge distinct-source overlap, and the overlap grows with the
        # token load of the sweep.  We price a sweep launching T tokens as
        # ``(2λ−1) · (1 + c·T)`` where ``c`` is an EMA of the *observed*
        # per-token excess congestion (rounds/(2λ−1) − 1)/T of past sweeps
        # — 0 before any sweep, so a congestion-free pool prices every
        # sweep at the flat iteration base and only starts charging for
        # size once size has actually been seen to cost rounds.
        self._congestion_per_token = 0.0
        self.rebuild_quotas()

    # ------------------------------------------------------------------
    # Occupancy views
    # ------------------------------------------------------------------
    @property
    def unused(self) -> int:
        """Current pool occupancy (tokens not yet consumed)."""
        return self.store.total_unused()

    def shard_of(self, source: int) -> int:
        return int(source) % self.num_shards

    def shard_unused(self) -> np.ndarray:
        """Unused-token count per shard, kept by the store as it changes: O(shards)."""
        return self.store.shard_counts()

    def depleted_shards(self) -> list[int]:
        """Shards below their low watermark; a pure read."""
        unused = self.shard_unused()
        return [s.shard_id for s in self.shards if unused[s.shard_id] < s.low_watermark]

    def rebuild_quotas(self) -> None:
        """Derive base allocations and shard quotas from current degrees.

        The single home of the allocation math — Phase-1 allocations are
        ``⌈η·deg(v)⌉`` (the shape Lemma 2.6's hitting argument sizes the
        pool for), binned into shard quotas with watermarks at
        ``⌈fraction·quota⌉``.  Construction calls this once;
        :meth:`invalidate` calls it again after a churn or crash/recover
        step changed the degree profile, so quotas and watermarks track
        the *new* degrees.  Shard
        membership, the refill/served counters, and the congestion price
        EMA all survive — only the occupancy targets move.
        """
        self.base_counts = token_counts(self.graph.degrees, self.eta, degree_proportional=True)
        for shard in self.shards:
            shard.quota = int(self.base_counts[shard.shard_id :: self.num_shards].sum())
            shard.low_watermark = max(1, int(math.ceil(self.watermark_fraction * shard.quota)))

    def outstanding_deficit(self) -> int:
        """Tokens a full watermark sweep would launch *right now*.

        Zero immediately after an unbudgeted :meth:`maintain`; positive when
        shards sit below watermark (e.g. because a round budget deferred
        them) — the telemetry gap PR 3 left in ``EngineStats``.
        """
        depleted = self.depleted_shards()
        if not depleted:
            return 0
        _sources, counts = self.refill_plan(depleted)
        return int(counts.sum())

    def estimate_refill_rounds(self, shard_ids) -> int:
        """Price one batched sweep restoring ``shard_ids`` to quota.

        The sweep runs at most ``2λ−1`` iterations (λ common steps plus the
        reservoir extension), each charged by the worst per-edge
        distinct-source overlap; we price it with :meth:`_price` — the
        iteration base scaled by the EMA-calibrated per-token congestion of
        past sweeps, applied to this set's token deficit, so bigger refills
        cost estimably more once congestion has ever been observed.  Pure
        bookkeeping — nothing is charged to the ledger, so admission
        control can price requests for free.
        """
        _sources, counts = self.refill_plan(shard_ids)
        return self._price(int(counts.sum()))

    def _price(self, tokens: int) -> int:
        """Model rounds for one batched sweep launching ``tokens`` tokens."""
        if tokens <= 0:
            return 0
        base = 2 * self.lam - 1
        return max(1, int(math.ceil(base * (1.0 + self._congestion_per_token * tokens))))

    def record_served(self, token_source: int) -> None:
        """Attribute one consumed token to its shard (stitching telemetry)."""
        self.shards[self.shard_of(token_source)].tokens_served += 1

    # ------------------------------------------------------------------
    # Background refill
    # ------------------------------------------------------------------
    def refill_plan(self, shard_ids) -> tuple[np.ndarray, np.ndarray]:
        """Per-source deficits restoring the given shards to quota.

        Returns parallel int64 ``(sources, counts)`` arrays (ascending
        source order — deterministic for fixed-seed replay); a source
        appears only if it currently holds fewer unused tokens than its
        Phase-1 base allocation.  Reads only the named shards' sources,
        O(n·|shards|/num_shards); an id outside ``[0, num_shards)`` raises
        :class:`~repro.errors.WalkError`.
        """
        ids = sorted({int(s) for s in shard_ids})
        self._check_shard_ids(ids)
        # Shard s holds s, s + S, ...: one row of S-blocks per block start,
        # the member columns ascending, so the flattened sources ascend.
        n, width = self.graph.n, self.num_shards
        starts = np.arange(0, n, width, dtype=np.int64)
        sources = (starts[:, None] + np.array(ids, dtype=np.int64)).ravel()
        sources = sources[sources < n]
        deficit = self.base_counts[sources] - self.store.counts_for_sources(sources)
        needy = deficit > 0
        return sources[needy], deficit[needy]

    def _check_shard_ids(self, shard_ids) -> None:
        """Raise :class:`~repro.errors.WalkError` naming an id outside ``[0, num_shards)``."""
        for s in shard_ids:
            if not 0 <= s < self.num_shards:
                raise WalkError(f"shard id {s} is not in [0, {self.num_shards})")

    def note_demand(self, shard_ids, *, weight: float = 1.0) -> None:
        """Register speculative demand for shards (queued-but-unserviced walks).

        The serving scheduler peeks its queues each tick and feeds the
        source shards of tickets *waiting* for a later cohort in here; the
        next :meth:`maintenance_order` treats each unit of demand as one
        token of extra urgency, so a deadline-budgeted maintain warms the
        shards those cohorts will stitch through before they run.  Demand
        is transient — consumed (cleared) by the next budgeted sweep — so
        a ticket that drains from the queue stops inflating priorities.

        ``weight`` scales each note (multi-tenant serving, PR 7): a
        queued walk from a weight-4 tenant exerts 4× the warming pressure
        of a weight-1 tenant's, matching the share of upcoming cohorts
        deficit-round-robin will actually grant it.  Ordering pressure
        only — budgets and refill amounts never change.  An id outside
        ``[0, num_shards)`` raises :class:`~repro.errors.WalkError`, and no
        demand is noted.
        """
        ids = [int(s) for s in shard_ids]
        self._check_shard_ids(ids)
        for s in ids:
            self._prefetch_demand[s] += weight

    def maintenance_order(self, shard_ids: list[int], unused: np.ndarray | None = None) -> list[int]:
        """Deadline-driven refill priority: emptiest / most-demanded first.

        Sorts by (unused − watermark − queued demand) ascending — how deep
        below its watermark a shard sits, with each unit of speculative
        demand (:meth:`note_demand`) counting as one token of extra depth —
        breaking ties by historical demand (``tokens_served`` descending),
        then shard id for determinism.  ``unused`` lets a caller that
        already scanned occupancy skip the rescan.  An id outside
        ``[0, num_shards)`` raises :class:`~repro.errors.WalkError`.
        """
        self._check_shard_ids(shard_ids)
        if unused is None:
            unused = self.shard_unused()
        return sorted(
            shard_ids,
            key=lambda s: (
                int(unused[s]) - self.shards[s].low_watermark - float(self._prefetch_demand[s]),
                -self.shards[s].tokens_served,
                s,
            ),
        )

    def maintain(
        self,
        network: Network,
        rng: np.random.Generator,
        *,
        phase: str = MAINTAIN_PHASE,
        round_budget: int | None = None,
        exclude_shards=None,
    ) -> MaintenanceReport:
        """One background sweep: batch-refill depleted shards to quota.

        A no-op (and zero rounds) when every shard sits at or above its
        watermark — the engine can call this after every request without
        paying anything in the healthy steady state: the occupancy check
        reads one kept count per shard.

        With ``round_budget=None`` every depleted shard refills in one
        batched sweep (the PR-3 full-quota behavior).  With a budget the
        sweep becomes the **deadline-driven policy**: depleted shards are
        ordered emptiest/most-demanded first (:meth:`maintenance_order`)
        and the sweep takes the longest prefix whose modeled price
        (:meth:`_price`, token-weighted) stays within the budget; the rest
        are reported as ``deferred_shards``.  Two deliberate edges: the
        most urgent shard always refills even when its price alone exceeds
        the budget (deferring everything would starve the very shard
        admission control is rejecting requests over), and once that
        violation is forced, further shards that do not raise the modeled
        price above what is already being paid join the same batched sweep
        — with no observed congestion a sweep costs its ``2λ−1`` iteration
        base regardless of size, so splitting it across ticks would buy
        nothing and pay the base repeatedly.

        ``exclude_shards`` names shards this sweep must not touch even when
        depleted — the serving scheduler's backoff for shards whose refills
        keep stalling on crashed sources.  Excluded depleted shards are
        reported in ``deferred_shards`` so their deficit stays visible.  An
        excluded id outside ``[0, num_shards)`` raises
        :class:`~repro.errors.WalkError`, as :meth:`refill_plan` does.
        """
        excluded = frozenset(int(s) for s in exclude_shards) if exclude_shards else frozenset()
        self._check_shard_ids(excluded)
        try:
            unused = self.shard_unused()
            depleted = [s.shard_id for s in self.shards if unused[s.shard_id] < s.low_watermark]
            skipped = tuple(s for s in depleted if s in excluded)
            depleted = [s for s in depleted if s not in excluded]
            if not depleted:
                return dataclasses.replace(EMPTY_REPORT, deferred_shards=skipped)
            report = self._sweep(
                network, rng, depleted, unused, phase=phase, round_budget=round_budget
            )
            if skipped:
                report = dataclasses.replace(
                    report, deferred_shards=report.deferred_shards + skipped
                )
            return report
        finally:
            # Speculative demand is per-tick: whatever the scheduler noted
            # has now either informed this ordering or expired with it.
            self._prefetch_demand[:] = 0

    def restore_shards(
        self,
        network: Network,
        rng: np.random.Generator,
        shard_ids,
        *,
        phase: str = CHURN_PHASE,
        round_budget: int | None = None,
    ) -> MaintenanceReport:
        """Charged regeneration: top the given shards back up to quota.

        The refill step of :meth:`invalidate`: after invalidated tokens
        are evicted and :meth:`rebuild_quotas` re-derived targets from the
        new degree profile, this launches every affected source's deficit
        in one batched GET-MORE-WALKS sweep billed to ``phase``.
        Unlike :meth:`maintain` it does not gate on watermarks — churn and
        crashes are exogenous events and the affected shards are named by
        the caller
        — but it shares the same budget-prefix policy, so a
        ``round_budget`` defers the least-urgent shards and leaves their
        deficit visible to admission pricing
        (:meth:`estimate_refill_rounds` folds any outstanding deficit into
        a request's modeled refill cost).
        """
        ids = sorted({int(s) for s in shard_ids})
        if not ids:
            return EMPTY_REPORT
        unused = self.shard_unused()
        return self._sweep(network, rng, ids, unused, phase=phase, round_budget=round_budget)

    def invalidate(
        self,
        network: Network,
        rng: np.random.Generator,
        remap,
        *,
        crashed: np.ndarray | None = None,
        phase: str,
        round_budget: int | None = None,
    ) -> Invalidation:
        """Evict the tokens a topology change broke, then restore the shards they left.

        The pool half of the one invalidation cascade churn and
        crash/recover share (the topology half is
        :meth:`~repro.engine.core.WalkEngine._apply_delta`).  ``remap`` is
        the applied delta's :class:`~repro.dynamic.delta.DeltaRemap`, or
        ``None`` when the step changed no edge.  ``crashed`` is a crash
        step's node mask: a crash destroys the tokens *stored at* the
        node (:meth:`~repro.walks.store.WalkStore.rows_held_at`), whatever
        their law.

        On a path-recording pool one blocked scan
        (:meth:`~repro.walks.store.WalkStore.find_invalid_rows`) finds every
        token whose recorded walk stepped *from* a node whose sampling law
        changed.  The remap's mutated nodes include both endpoints of every
        deleted edge, so a hop across one is such a step.  Tokens that never
        stepped from a mutated node keep their law on the new graph and keep
        serving.  A pathless pool has no hops to scan and evicts everything
        once any node mutated — correct, just not incremental; a step that
        mutated no node leaves it whole.  Quotas then re-derive from the
        new degrees (a crashed, isolated node's ``⌈η·0⌉ = 0`` allocation
        drops it out of every refill plan), and every shard that lost a
        token or holds a mutated node is restored in one batched sweep
        billed to ``phase`` under ``round_budget`` (:meth:`restore_shards`).
        """
        store = self.store
        n = self.graph.n
        scanned = store.total_unused()
        held = store.rows_held_at(crashed) if crashed is not None else None
        full = False
        if remap is None or not remap.num_mutated:
            rows = np.empty(0, dtype=np.int64)
        elif self.record_paths:
            mutated = np.zeros(n, dtype=bool)
            mutated[remap.mutated_nodes] = True
            rows = store.find_invalid_rows(mutated)
        else:
            rows, full = store.live_rows(), True
        if held is not None:
            rows = np.union1d(rows, held)
        sources = store.evict_rows(rows)
        self.rebuild_quotas()
        affected = set(sorted_unique(sources % self.num_shards).tolist())
        if remap is not None:
            affected.update(sorted_unique(remap.mutated_nodes % self.num_shards).tolist())
        regen = self.restore_shards(network, rng, affected, phase=phase, round_budget=round_budget)
        return Invalidation(
            tokens_scanned=scanned,
            tokens_evicted=int(sources.size),
            tokens_lost_at_crashed=int(held.size) if held is not None else 0,
            full_eviction=full,
            shards_affected=tuple(sorted(affected)),
            regen=regen,
        )

    def _sweep(
        self,
        network: Network,
        rng: np.random.Generator,
        shard_ids: list[int],
        unused: np.ndarray,
        *,
        phase: str,
        round_budget: int | None,
    ) -> MaintenanceReport:
        """One batched refill of ``shard_ids`` to quota, optionally budgeted."""
        # ONE deficit scan serves pricing, budget selection, and the sweep.
        sources, counts = self.refill_plan(shard_ids)
        if sources.size == 0:
            return EMPTY_REPORT
        # Drop shards with no deficit (restore_shards may name shards that
        # are already at quota) in one pass over the plan.
        present = set(sorted_unique(sources % self.num_shards).tolist())
        shard_ids = [s for s in shard_ids if s in present]
        deferred: tuple[int, ...] = ()
        estimate = self._price(int(counts.sum()))
        if round_budget is not None and estimate > round_budget and len(shard_ids) > 1:
            per_shard = np.bincount(
                sources % self.num_shards,
                weights=counts.astype(np.float64),
                minlength=self.num_shards,
            ).astype(np.int64)
            ordered = self.maintenance_order(shard_ids, unused)
            cum = int(per_shard[ordered[0]])
            floor = self._price(cum)  # the forced minimum-progress price
            cut = 1
            for s in ordered[1:]:
                next_price = self._price(cum + int(per_shard[s]))
                if next_price > max(round_budget, floor):
                    break
                cum += int(per_shard[s])
                cut += 1
            shard_ids, deferred = ordered[:cut], tuple(ordered[cut:])
            if deferred:
                mask = np.isin(sources % self.num_shards, shard_ids)
                sources, counts = sources[mask], counts[mask]
            estimate = self._price(int(counts.sum()))
        rounds = get_more_walks_batch(
            network,
            self.store,
            sources,
            counts,
            self.lam,
            rng,
            randomized_lengths=True,
            record_paths=self.record_paths,
            phase=phase,
        )
        added_per_shard = np.bincount(
            sources % self.num_shards,
            weights=counts.astype(np.float64),
            minlength=self.num_shards,
        ).astype(np.int64)
        for s in shard_ids:
            self.shards[s].refills += 1
            self.shards[s].tokens_added += int(added_per_shard[s])
        # Calibrate the price model: excess rounds over the iteration base,
        # normalized per token launched, folded into the EMA.
        base = 2 * self.lam - 1
        tokens_swept = int(counts.sum())
        observed = max(0.0, rounds / base - 1.0) / max(1, tokens_swept)
        self._congestion_per_token = 0.5 * self._congestion_per_token + 0.5 * observed
        return MaintenanceReport(
            swept=True,
            shards_refilled=tuple(shard_ids),
            sources_refilled=int(sources.size),
            tokens_added=int(counts.sum()),
            rounds=rounds,
            deferred_shards=deferred,
            estimated_rounds=estimate,
        )
