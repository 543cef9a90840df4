"""``WalkScheduler`` — round-driven request scheduling on one engine session.

The engine (PR 2/3) serves exactly one request at a time and sweeps the
pool to full quota after each.  This module adds the serving layer the
paper's regime actually rewards: arXiv:1201.1363's ``Θ(√(kℓD) + k)`` bound
comes from aggregating many outstanding walk demands into *shared* sweeps,
and arXiv:1102.2906's lower bound says rounds are the scarce resource to
schedule against.  Concretely:

* **Admission control** (per shard).  ``submit`` prices the refill of the
  request's source shards with the pool's sweep-cost estimator;
  a request whose round budget cannot cover restoring a below-watermark
  shard is rejected *immediately and for free* — rejection is pure
  bookkeeping, no ledger charge, so an overloaded scheduler sheds load
  without spending the very rounds it is short of.
* **Multi-tenant weighted-fair queueing** (PR 7).  Every submission lands
  on a tenant (:mod:`repro.serve.tenants`; untagged → the default
  tenant).  Each tenant has its own heap ordered by (priority, deadline
  round, submission order), and cohort formation runs **deficit round
  robin** across tenants: each pass grants every backlogged tenant
  ``weight ×`` :data:`DRR_QUANTUM` walks of deficit, and a tenant's head ticket
  is served once its deficit covers the ticket's walk count.  Under
  saturating load each tenant's share of served walks — and therefore of
  attributed rounds — converges to ``weight / Σ weights``, so a 10× hot
  tenant cannot starve the others.  Token-bucket **round quotas** cap
  tenants harder than fair share: the bucket refills ``quota`` rounds per
  tick and is debited each cohort with the tenant's exact attributed
  rounds; an overdrawn tenant is *throttled* — its queue is skipped until
  refills cover the debt, deferred, never dropped.
* **A documented total order.**  The schedule is a deterministic function
  of (tenant registration order, per-tenant heap order), where the heap
  breaks priority and deadline ties by ticket id — global submission
  order.  There is no other tie-break anywhere, so replays with a fixed
  seed are bit-reproducible across tenants (tested in
  ``tests/test_tenants.py``).
* **Concurrent interleaved servicing with walk-count packing.**  Each
  scheduling round hands the popped work as one batch to the engine's
  interleaved stitching core
  (:meth:`~repro.engine.core.WalkEngine._stitch_interleaved`, the same
  code ``engine.walks()`` runs): one BFS (re-)flood per sweep for the
  whole cohort, every walk parked at a connector sharing one pipelined
  SAMPLE-DESTINATION round trip, all cross-request tails completing in
  one parallel phase.  By default the
  cohort is ``max_batch_requests`` whole tickets (PR 4); with
  ``max_batch_walks`` set the cohort instead packs **walks** up to a Σk
  budget — the quantity sweep cost actually scales with — *splitting*
  the last ticket across cohorts when it does not fit whole.  Split
  tickets accumulate partial results chunk by chunk and complete when
  the last chunk lands.
* **The engine's serving decisions, not copies of them.**  A cohort's
  tree is the engine's cached one (:meth:`~repro.engine.core.WalkEngine._tree`);
  a cold engine prepares through
  :meth:`~repro.engine.core.WalkEngine._pool_for_request`, so a cohort
  gets the pool ``engine.walks()`` would prepare for its walks; a crashed
  source with no recovery left fails through
  :meth:`~repro.engine.faults.FaultController.require_recovery`.
* **Charged attribution.**  Shared cohort work lands on the session ledger
  under the ``"serve"`` phase family (``serve/setup``, ``serve/sample``,
  ``serve/stitch-route``, ``serve/tail``, and — under
  ``pipelined_report`` — ``serve/report``) and reactive refills under
  ``"pool-refill/serve"``; each ticket's *private* delta
  (:meth:`~repro.congest.ledger.RoundLedger.capture` /
  :meth:`~repro.congest.ledger.RoundLedger.delta_since` around its own
  report convergecast) never contains them.  ``rounds_attributed`` adds a
  proportional share of the cohort's shared delta, apportioned so every
  cohort's attributed rounds sum *exactly* to its ledger delta — requests
  + background maintenance balance the session ledger to the round, and
  per tenant: Σ over tenants of attributed rounds + maintain + churn +
  recovery = session delta exactly.  With ``pipelined_report`` the k
  per-ticket ``height + k`` convergecasts collapse into ONE shared
  ``height + Σk − 1`` wave per cohort
  (:meth:`~repro.engine.core.WalkEngine._report_convergecast`), billed
  shared and apportioned like the sweeps.
* **Deadline-driven maintenance.**  Instead of the engine's unconditional
  full-quota sweep after every request, each tick ends with
  ``engine.maintain(round_budget=...)``: the emptiest/most-demanded shard
  refills first and the budget defers the rest, with queued tickets'
  shards fed in as demand weighted by their tenant's fair-share weight
  (see :meth:`~repro.engine.pool.PoolManager.maintain`).

The exactness contract is unchanged: every draw inside a merged sweep is a
uniform unused token of its connector (Lemma A.2, without replacement), so
scheduled endpoints keep the exact ``P^ℓ`` law per walk, independent walks
across requests — including chunks of one request split across cohorts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.congest.phases import (
    POOL_REFILL_MAINTAIN,
    POOL_REFILL_SERVE,
    REPORT,
    SERVE_FAMILY,
    SERVE_RECOVERY,
    SERVE_REPORT,
    SERVE_SAMPLE,
    SERVE_SETUP,
    SERVE_STITCH_ROUTE,
    SERVE_TAIL,
)
from repro.engine.core import WalkEngine
from repro.engine.model import WalkRequest
from repro.errors import WalkError
from repro.serve.model import (
    DONE,
    REJECTED,
    SchedulerStats,
    ServePolicy,
    TickReport,
    WalkTicket,
)
from repro.serve.tenants import DEFAULT_TENANT, TenantRegistry
from repro.util.stats import sample_quantiles
from repro.walks.many_walks import ManyWalksResult

__all__ = ["WalkScheduler"]

#: Reject reasons (stable strings for telemetry and tests).
REASON_QUEUE_FULL = "queue-full"
REASON_SHARD_BUDGET = "shard-refill-exceeds-budget"

#: Walks of deficit one deficit-round-robin pass grants per unit of tenant
#: weight: per-pass service stays near one small request per unit weight.
DRR_QUANTUM = 8


@dataclass
class _CohortEntry:
    """One cohort's slice of a ticket: walks ``[start, start + k)``.

    Whole tickets ride as a single entry (``start == 0, k == ticket.k``);
    walk-count packing may split a ticket into chunks served by
    consecutive cohorts, each chunk one entry.
    """

    ticket: WalkTicket
    start: int
    k: int


class _Partial:
    """Accumulated state of a ticket served across one or more cohorts."""

    __slots__ = ("destinations", "trajectories", "phase_rounds", "drew")

    def __init__(self) -> None:
        self.destinations: list[int] = []
        self.trajectories: list[np.ndarray] = []
        self.phase_rounds: dict[str, int] = {}
        self.drew = False


class WalkScheduler:
    """Round-driven scheduler for a stream of walk requests on one engine.

    Usage::

        engine = WalkEngine(graph, seed=7, record_paths=False)
        tenants = TenantRegistry.parse("free:1:0,pro:4:0")
        sched = engine.scheduler(tenants=tenants, max_batch_walks=64,
                                 pipelined_report=True,
                                 maintain_round_budget=64)
        tickets = [sched.submit([0, 17, 33], 4096, deadline=5000,
                                tenant="pro")
                   for _ in range(32)]
        sched.drain()                      # tick until the queues are empty
        done = [t for t in tickets if t.status == "done"]
        print(sched.stats())               # incl. per-tenant telemetry

    The scheduler owns no network state of its own — everything is charged
    on the engine's session ledger, with shared scheduling work in the
    ``"serve"`` phase family.  Construction attaches the scheduler to the
    engine (``engine.stats().serve`` surfaces its telemetry); attaching a
    second scheduler replaces the first.  With no registry and no tenant
    tags every request rides the auto-registered default tenant, and the
    scheduler is exactly the PR-4 single-stream scheduler.
    """

    def __init__(
        self,
        engine: WalkEngine,
        *,
        policy: ServePolicy | None = None,
        tenants: TenantRegistry | None = None,
        **knobs,
    ) -> None:
        if policy is not None and knobs:
            raise WalkError("pass either policy= or individual policy knobs, not both")
        self.engine = engine
        self.policy = policy if policy is not None else ServePolicy(**knobs)
        if self.policy.max_queue_depth < 1:
            raise WalkError("max_queue_depth must be >= 1")
        if self.policy.max_batch_requests < 1:
            raise WalkError("max_batch_requests must be >= 1")
        if self.policy.max_batch_walks is not None and self.policy.max_batch_walks < 1:
            raise WalkError("max_batch_walks must be >= 1 (or None for request-count cohorts)")
        self.tenants = tenants if tenants is not None else TenantRegistry()
        engine._scheduler = self
        self.root: int | None = None  # shared-tree root, pinned at first cohort
        # True once any trajectory request was admitted while the engine
        # was still cold: the eventual auto-prepared pool must record
        # paths even if that ticket lands in a later cohort than the one
        # that installs the pool.
        self._trajectories_requested = False
        # One (priority, deadline, ticket_id) heap per tenant, visited in
        # registry registration order by deficit round robin.  The cursor
        # persists across cohorts: a tenant whose turn a full cohort cut
        # short resumes it (same deficit, no fresh quantum) in the next
        # one — without this, tenants early in registration order would
        # eat every cohort's budget and permanently truncate the last.
        self._queues: dict[str, list[tuple[int, float, int]]] = {}
        self._deficits: dict[str, float] = {}
        self._drr_cursor = 0
        self._drr_resume = False
        self._tickets: dict[int, WalkTicket] = {}
        self._partials: dict[int, _Partial] = {}
        self._next_id = 0
        self._ticks = 0
        self._cohorts = 0
        # Submission/completion totals and reject reasons live on the
        # per-tenant counters only (every ticket has an owner, the default
        # tenant included); stats() derives the session totals from them so
        # the same quantity is never maintained in two places.
        self._refill_calls = 0
        self._prefetch_noted = 0
        self._cohort_splits = 0
        # Crash-fault serving state: tickets parked on a crashed source
        # (ticket_id -> heap key, re-queued when the source recovers), and
        # the exponential-backoff schedule for shards whose maintenance
        # refills keep deferring (shard -> (defer streak, skip-until tick)).
        self._parked: dict[int, tuple[int, float, int]] = {}
        self._ticket_retries = 0
        self._shard_defer_streak: dict[int, int] = {}
        self._shard_skip_until: dict[int, int] = {}
        self._refill_backoffs = 0

    # ------------------------------------------------------------------
    # Submission and admission control
    # ------------------------------------------------------------------
    def submit(
        self,
        sources,
        length: int,
        *,
        deadline: int | None = None,
        priority: int = 0,
        tenant: str | None = None,
        record_paths: bool | None = None,
        report_to_source: bool = True,
    ) -> WalkTicket:
        """Submit one walk request; returns its ticket immediately.

        ``sources`` is a single node or an iterable of nodes (the request's
        k walks).  ``deadline`` is a round budget: the request should
        complete within that many *simulated rounds* from now; ``None``
        falls back to the policy default.  Smaller ``priority`` values are
        served first; ties (and the default priority 0) are FIFO.
        ``tenant`` names the submitting client (``None`` → the default
        tenant); unknown names auto-register at weight 1 with no quota —
        pre-register via the :class:`~repro.serve.TenantRegistry` to give
        a client a weight or a round quota.

        Malformed requests (bad source, non-positive length, trajectory
        request on an endpoint-only pool) raise :class:`WalkError` — those
        are caller bugs.  *Admission* failures — queue full, or a source
        shard below watermark whose estimated refill cost exceeds the
        request's round budget — return a ``REJECTED`` ticket instead:
        rejection is a scheduling outcome, costs zero ledger rounds, and is
        counted in :meth:`stats` (globally and per tenant).
        """
        if isinstance(sources, (int, np.integer)):
            sources = (int(sources),)
        request = WalkRequest(
            sources=tuple(sources),
            length=length,
            many=True,
            record_paths=record_paths,
            report_to_source=report_to_source,
        )
        for s in request.sources:
            self.engine._validate_query(s, length)
        pool = self.engine.pool
        if record_paths and pool is not None and not pool.record_paths:
            raise WalkError(
                "pool was prepared with record_paths=False; "
                "call engine.prepare(record_paths=True) to serve trajectory requests"
            )
        budget = deadline if deadline is not None else self.policy.default_deadline
        if budget is not None and budget < 1:
            raise WalkError(f"deadline must be >= 1 round, got {budget}")
        tenant_name = tenant if tenant is not None else DEFAULT_TENANT
        owner = self.tenants.ensure(tenant_name)
        owner.submitted += 1
        now = self.engine.network.rounds
        ticket = WalkTicket(
            ticket_id=self._next_id,
            request=request,
            priority=int(priority),
            submitted_round=now,
            deadline_round=now + budget if budget is not None else None,
            tenant=tenant_name,
        )
        self._next_id += 1
        reason = self._admission_reason(request, budget)
        obs = self.engine.obs
        if reason is not None:
            ticket.status = REJECTED
            ticket.reject_reason = reason
            owner.rejected += 1
            owner.rejects_by_reason[reason] = owner.rejects_by_reason.get(reason, 0) + 1
            obs.slo_record("reject", tenant_name)
            self._tickets[ticket.ticket_id] = ticket
            return ticket
        owner.admitted += 1
        obs.slo_record("admit", tenant_name)
        if record_paths and pool is None:
            # Cold engine and the request was ADMITTED: remember the wish
            # so whichever cohort installs the pool prepares it
            # path-capable (a rejected wish must not tax the session).
            self._trajectories_requested = True
        self._tickets[ticket.ticket_id] = ticket
        heapq.heappush(
            self._queues.setdefault(tenant_name, []),
            (
                ticket.priority,
                float(ticket.deadline_round) if ticket.deadline_round is not None else math.inf,
                ticket.ticket_id,  # submission order: FIFO within a class
            ),
        )
        return ticket

    def _admission_reason(self, request: WalkRequest, budget: int | None) -> str | None:
        """Admission control; pure bookkeeping, charges nothing.

        Queue-bound check first, then the per-shard rule: every distinct
        source shard sitting below its watermark must be restorable within
        the request's round budget at the pool's estimated sweep price
        (:meth:`~repro.engine.pool.PoolManager.estimate_refill_rounds`).  A
        request with no budget (no deadline) skips the shard rule — it has
        nothing to miss.  A cold engine (no pool yet) admits everything:
        the first cohort prepares the pool at full quota.
        """
        if self.queue_depth >= self.policy.max_queue_depth:
            return REASON_QUEUE_FULL
        pool = self.engine.pool
        if budget is None or pool is None:
            return None
        unused = pool.shard_unused()
        for shard_id in sorted({pool.shard_of(s) for s in request.sources}):
            shard = pool.shards[shard_id]
            if unused[shard_id] >= shard.low_watermark:
                continue
            if pool.estimate_refill_rounds([shard_id]) > budget:
                return REASON_SHARD_BUDGET
        return None

    # ------------------------------------------------------------------
    # The scheduling loop
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        # Parked tickets are still queued work (they re-enter their queue
        # at recovery), so they count against the admission bound too.  A
        # split ticket counts once until its last chunk completes.
        return sum(len(q) for q in self._queues.values()) + len(self._parked)

    def _has_queued(self) -> bool:
        return any(self._queues.values())

    def ticket(self, ticket_id: int) -> WalkTicket:
        return self._tickets[ticket_id]

    def tick(self) -> TickReport:
        """One scheduling round: service a cohort, then budgeted maintenance.

        Refills every tenant's quota bucket, forms a cohort by deficit
        round robin over the tenant queues — whole tickets up to
        ``max_batch_requests``, or walk chunks up to ``max_batch_walks``
        when packing — services it as ONE merged interleaved batch, and
        closes with the deadline-driven maintenance sweep under the
        policy's round budget.  Safe to call with an empty queue — an idle
        tick costs only the (possibly zero-cost) maintenance check.

        With a fault controller attached the tick starts by polling the
        schedule (crash/recovery cascades fire as simulated time passes
        their rounds, and the shared-tree root re-pins if it crashed),
        tickets whose source is crashed are *parked* — retried once the
        scheduled recovery fires, counted, never dropped — and when parked
        work is all that remains the tick waits simulated time forward
        (exponential backoff, billed to ``"serve/recovery"``) instead of
        spinning.  A parked ticket whose source will never recover raises
        :class:`~repro.errors.WalkError` — an unservable request fails
        loudly rather than silently vanishing.  The closing maintenance
        sweep excludes shards on refill backoff (see ``refill_backoffs``
        in :meth:`stats`).
        """
        net = self.engine.network
        rounds_before = net.rounds
        self._ticks += 1
        self._poll_faults()
        self.tenants.refill()
        for name, queue in self._queues.items():
            owner = self.tenants.get(name)
            if queue and owner.throttled:
                owner.throttled_ticks += 1
                self.engine.obs.slo_record("throttle", name)
        cohort = self._form_cohort()
        refill_calls = 0
        if cohort:
            self._cohorts += 1
            refill_calls = self._service_cohort(cohort)
        elif self._parked and not self._has_queued():
            # Every remaining request sits on a crashed source: advance
            # simulated time toward the scheduled recovery (idle rounds
            # billed to "serve/recovery", exponentially backed off).
            self.engine._faults.wait_for_next_step()
        self._note_prefetch_demand()
        maintain = self.engine.maintain(
            round_budget=self.policy.maintain_round_budget,
            exclude_shards=self._excluded_shards() or None,
        )
        self._note_shard_backoff(maintain)
        self.engine.obs.slo_tick(self._ticks, net.rounds, self.queue_depth, net.ledger)
        return TickReport(
            tick=self._ticks,
            serviced=tuple(e.ticket.ticket_id for e in cohort),
            rounds=net.rounds - rounds_before,
            queue_depth=self.queue_depth,
            refill_calls=refill_calls,
            maintain_rounds=maintain.rounds,
            deferred_shards=maintain.deferred_shards,
        )

    def _poll_faults(self) -> None:
        """Fire due fault steps, re-pin a crashed root, unpark recovered tickets."""
        faults = self.engine._faults
        if faults is None:
            return
        faults.poll()
        live = faults.live
        if self.root is not None and not live[self.root]:
            # The shared-tree root is down: the next cohort re-pins to one
            # of its own (live) sources.
            self.root = None
        if self._parked:
            for ticket_id, key in list(self._parked.items()):
                ticket = self._tickets[ticket_id]
                if all(live[s] for s in ticket.request.sources):
                    del self._parked[ticket_id]
                    heapq.heappush(self._queues[ticket.tenant], key)

    def _park_if_crashed(self, ticket: WalkTicket) -> bool:
        """Park a crashed-source ticket for retry; True if parked.

        Parking preserves the ticket's heap key, so a recovered ticket
        re-enters its tenant's queue with its original (priority, deadline,
        FIFO) position.  A crashed source with no scheduled recovery makes
        the request unservable — that raises rather than parking forever.
        """
        faults = self.engine._faults
        if faults is None:
            return False
        if all(faults.live[s] for s in ticket.request.sources):
            return False
        faults.require_recovery(ticket.request.sources)
        ticket.retries += 1
        self._ticket_retries += 1
        return True

    def _form_cohort(self) -> list[_CohortEntry]:
        """Deficit-round-robin cohort formation across the tenant queues.

        The rotation visits tenants in **registration order**
        (:attr:`~repro.serve.tenants.TenantRegistry.order`) from a cursor
        that persists across cohorts.  Arriving at a backlogged,
        unthrottled tenant grants it ``weight ×`` :data:`DRR_QUANTUM` walks of
        deficit, and its queue head is taken while the deficit covers the
        head's walk count; the rotation keeps cycling (granting a fresh
        quantum per arrival) until the cohort budget fills or no tenant
        has eligible work.  When a full cohort cuts a tenant's turn short
        the cursor stays on it and the next cohort *resumes* the turn —
        same deficit, no fresh quantum — so one full rotation always
        grants walks in exact ``weight`` proportion no matter how the
        budget slices rotations into cohorts, and each tenant's share of
        served walks (hence of attributed rounds) converges to
        ``weight / Σ weights`` under backlog.  A tenant's deficit resets
        when its queue drains (no banking credit while idle) and persists
        while backlogged (a big ticket is not starved — the deficit keeps
        growing until it covers it).

        With ``max_batch_walks`` unset (default) the cohort is whole
        tickets, capped at ``max_batch_requests`` — the PR-4 cohort, and
        with a single tenant the pop order is bit-identical to the PR-4
        heap.  With it set, the cohort packs walks up to the Σk budget and
        the final ticket is *split* when only part of it fits: the taken
        chunk rides this cohort, the rest stays at the head of its
        tenant's queue (same key) for the next one.  Crashed-source
        tickets are parked for retry exactly as before.  The whole
        schedule is a deterministic function of (cursor, registration
        order, per-tenant heap order) with ticket id — global submission
        order — as the final tie-break, so fixed-seed replays are
        bit-reproducible.
        """
        order = self.tenants.order
        if not order:
            return []
        walk_budget = self.policy.max_batch_walks
        request_budget = self.policy.max_batch_requests if walk_budget is None else None
        entries: list[_CohortEntry] = []
        walks_packed = 0
        n = len(order)
        i = self._drr_cursor % n
        resume = self._drr_resume
        self._drr_resume = False
        visited = 0
        any_eligible = False
        while True:
            name = order[i]
            queue = self._queues.get(name)
            owner = self.tenants.get(name)
            if queue and not owner.throttled:
                any_eligible = True
                if not resume:
                    self._deficits[name] = (
                        self._deficits.get(name, 0.0) + owner.weight * DRR_QUANTUM
                    )
                while queue:
                    if request_budget is not None and len(entries) >= request_budget:
                        self._drr_cursor, self._drr_resume = i, True
                        return entries
                    key = queue[0]
                    ticket = self._tickets[key[2]]
                    if self._park_if_crashed(ticket):
                        heapq.heappop(queue)
                        self._parked[ticket.ticket_id] = key
                        continue
                    remaining = ticket.k - ticket.walks_served
                    take = remaining
                    if walk_budget is not None:
                        room = walk_budget - walks_packed
                        if room <= 0:
                            self._drr_cursor, self._drr_resume = i, True
                            return entries
                        take = min(remaining, room)
                    if self._deficits.get(name, 0.0) < take:
                        break  # turn over — the rotation moves on
                    heapq.heappop(queue)
                    if take < remaining:
                        # Split: the chunk rides this cohort, the ticket
                        # keeps its key (and queue position) for the rest.
                        heapq.heappush(queue, key)
                        self._cohort_splits += 1
                    entries.append(_CohortEntry(ticket=ticket, start=ticket.walks_served, k=take))
                    self._deficits[name] -= take
                    walks_packed += take
                    if take < remaining:
                        # The walk budget is exactly exhausted (take was
                        # capped by room); return before re-popping the
                        # same head.
                        self._drr_cursor, self._drr_resume = i, True
                        return entries
            if queue is not None and not queue:
                self._deficits[name] = 0.0
            resume = False
            i = (i + 1) % n
            visited += 1
            if visited % n == 0:
                if not any_eligible:
                    # Every queue is empty, throttled, or fully parked.
                    self._drr_cursor = i
                    return entries
                # Some tenant still has work but deficits were short: keep
                # rotating — each arrival grants quantum (take >= 1,
                # weight > 0), so a head ticket is eventually covered and
                # termination is guaranteed.
                any_eligible = False

    def _excluded_shards(self) -> list[int]:
        """Shards currently skipped by the refill backoff schedule."""
        return [s for s, until in self._shard_skip_until.items() if self._ticks < until]

    def _note_shard_backoff(self, maintain) -> None:
        """Track defer streaks; repeatedly-deferring shards back off exponentially.

        A shard the budgeted sweep defers twice in a row is skipped for
        ``2^(streak−2)`` ticks (capped at 8) before maintenance retries it
        — the refill analogue of ticket parking: a shard that keeps losing
        the budget race (e.g. because crash evictions re-opened a deficit
        faster than the budget closes it) stops consuming ordering slots
        every tick.  Any successful refill resets the shard's streak.  The
        deficit stays visible throughout — admission pricing reads it from
        the store, not from the sweep schedule.
        """
        excluded = set(self._excluded_shards())
        for s in maintain.deferred_shards:
            if s in excluded:
                continue  # skipped by us, not deferred by the budget
            streak = self._shard_defer_streak.get(s, 0) + 1
            self._shard_defer_streak[s] = streak
            if streak >= 2:
                self._shard_skip_until[s] = self._ticks + min(1 << (streak - 2), 8)
                self._refill_backoffs += 1
        for s in maintain.shards_refilled:
            self._shard_defer_streak.pop(s, None)
            self._shard_skip_until.pop(s, None)

    def _note_prefetch_demand(self) -> None:
        """Speculative prefetch: queue contents steer the maintenance order.

        The tickets still waiting in the tenant queues name exactly the
        shards the *next* cohorts will stitch through; feeding them to
        :meth:`~repro.engine.pool.PoolManager.note_demand` makes the
        deadline-budgeted maintain about to run warm those shards first,
        each queued walk weighted by its tenant's fair-share weight — the
        share of upcoming cohorts DRR will actually grant it.  Pure
        ordering pressure — the budget and refill amounts are untouched,
        and demand expires with the sweep, so a drained queue stops
        steering.
        """
        pool = self.engine.pool
        if pool is None or not self._has_queued():
            return
        for name, queue in self._queues.items():
            if not queue:
                continue
            shards = [
                pool.shard_of(s)
                for _, _, ticket_id in queue
                for s in self._tickets[ticket_id].request.sources
            ]
            pool.note_demand(shards, weight=self.tenants.get(name).weight)
            self._prefetch_noted += len(shards)

    def drain(self, *, max_ticks: int = 100_000) -> list[WalkTicket]:
        """Tick until the queues are empty; returns every completed ticket.

        Parked tickets count as queued work: drain keeps ticking (waiting
        simulated time toward scheduled recoveries when nothing else is
        serviceable) until every admitted ticket completes.  Throttled
        tenants make progress too — their buckets refill every tick, so a
        quota defers work, it never wedges the drain.  A parked ticket
        whose source will never recover surfaces as
        :class:`~repro.errors.WalkError` from the tick that tries it.
        """
        ticks = 0
        while self._has_queued() or self._parked:
            self.tick()
            ticks += 1
            if ticks >= max_ticks:
                raise WalkError(f"drain() exceeded {max_ticks} ticks (scheduler bug)")
        return [t for t in self._tickets.values() if t.status == DONE]

    # ------------------------------------------------------------------
    # Cohort servicing
    # ------------------------------------------------------------------
    def _service_cohort(self, cohort: list[_CohortEntry]) -> int:
        """Serve one cohort as a single merged interleaved batch."""
        # The annotation context rides every phase span opened inside the
        # cohort (setup, sweeps, tails, reports) and names the cohort-level
        # delta's scope span; it costs nothing when tracing is off.
        with self.engine.obs.annotate(
            scope="cohort", cohort=self._cohorts, tick=self._ticks
        ):
            return self._service_cohort_impl(cohort)

    def _service_cohort_impl(self, cohort: list[_CohortEntry]) -> int:
        engine = self.engine
        net = engine.network
        if self.root is None:
            self.root = cohort[0].ticket.request.source
        pool = engine.pool
        if pool is None:
            # A cold engine prepares the pool engine.walks() would for the
            # cohort's walks.  That is session warm-up, not cohort work:
            # its flood bills to "serve/setup" and Phase 1 to "phase1",
            # both before the cohort's delta opens.  When the policy says
            # λ ≥ ℓ no pool is installed and the cohort runs as merged tails.
            wants_paths = self._trajectories_requested or any(
                e.ticket.request.record_paths for e in cohort
            )
            pool, _lam = engine._pool_for_request(
                max(e.ticket.request.length for e in cohort),
                None,
                None,
                wants_paths,
                engine._tree(self.root, SERVE_SETUP),
                k=sum(e.k for e in cohort),
            )

        cohort_snapshot = net.ledger.capture()
        tree = engine._tree(self.root, SERVE_SETUP)

        # Every entry of the cohort (a whole ticket, or one chunk of a
        # walk-count-split one) joins ONE interleaved batch.  With no pool
        # (naive regime) all walks complete as one merged parallel-tail phase.
        batch = []
        for entry in cohort:
            req = entry.ticket.request
            # submit() rejects trajectory requests a pathless pool cannot
            # serve, and a cold-engine trajectory wish makes the cold cohort
            # prepare path-capable — but the engine owner can still swap in
            # a pathless pool (engine.prepare / a pooled query) between
            # submit and service, so re-enforce the contract here rather
            # than silently downgrade.
            rp = bool(req.record_paths)
            if rp and pool is not None and not pool.record_paths:
                raise WalkError(
                    f"ticket {entry.ticket.ticket_id} requested trajectories but the pool "
                    "was re-prepared with record_paths=False while it was queued"
                )
            batch.append((req.sources[entry.start : entry.start + entry.k], req.length, rp))
        slots, destinations, trajectories, refill_calls = engine._stitch_interleaved(
            pool,
            batch,
            tree,
            sample_phase=SERVE_SAMPLE,
            route_phase=SERVE_STITCH_ROUTE,
            refill_phase=POOL_REFILL_SERVE,
            tail_phase=SERVE_TAIL,
        )
        self._refill_calls += refill_calls

        pipelined = self.policy.pipelined_report
        if pipelined:
            # Cross-request pipelining: ONE shared convergecast carries the
            # whole cohort's reports in height + Σk − 1 rounds (vs. one
            # height + k wave per ticket), billed to the shared
            # "serve/report" phase and apportioned below like the sweeps.
            # A lone reporting entry has no pipelining partner: the helper
            # then bills the PR-3 height + k formula — the identical
            # charge, just on the shared phase instead of a private delta.
            report_ks = [e.k for e in cohort if e.ticket.request.report_to_source]
            engine._report_convergecast(tree, report_ks, phase=SERVE_REPORT)

        # Per-entry private work + capture/delta accumulation into tickets;
        # completion fires when a ticket's last chunk lands.
        private_total = 0
        entry_private: list[int] = []
        finished: list[_CohortEntry] = []
        offset = 0
        for entry, (_, _, rp) in zip(cohort, batch):
            ticket = entry.ticket
            req = ticket.request
            span = slice(offset, offset + entry.k)
            offset += entry.k
            with engine.obs.annotate(
                scope="ticket", ticket=ticket.ticket_id, tenant=ticket.tenant
            ):
                snapshot = net.ledger.capture()
                if not pipelined and req.report_to_source:
                    # Pipelined destination→source convergecast on the shared
                    # tree, the PR-3 formula: O(height + k) per entry.
                    engine._report_convergecast(tree, [entry.k], phase=REPORT)
                delta = net.ledger.delta_since(snapshot)
            private_total += delta.rounds
            entry_private.append(delta.rounds)

            part = self._partials.setdefault(ticket.ticket_id, _Partial())
            part.destinations.extend(destinations[span])
            if rp:
                part.trajectories.extend(trajectories[span])
            part.drew = part.drew or any(slot.draws for slot in slots[span])
            for name, rounds in delta.phase_rounds.items():
                part.phase_rounds[name] = part.phase_rounds.get(name, 0) + rounds

            owner = self.tenants.get(ticket.tenant)
            ticket.rounds += delta.rounds
            ticket.walks_served += entry.k
            ticket.cohorts += 1
            ticket.serviced_tick = self._ticks
            owner.walks_served += entry.k
            if ticket.walks_served == req.k:
                part = self._partials.pop(ticket.ticket_id)
                ticket.result = ManyWalksResult(
                    sources=[int(s) for s in req.sources],
                    length=req.length,
                    destinations=part.destinations,
                    positions=part.trajectories if rp else None,
                    mode="scheduled",
                    rounds=ticket.rounds,
                    lam=pool.lam if pool is not None else 0,
                    phase_rounds=dict(part.phase_rounds),
                )
                ticket.status = DONE
                if pool is not None and part.drew:
                    pool.queries += 1
                engine._queries += 1
                owner.completed += 1
                finished.append(entry)

        # Apportion the cohort's shared rounds (sweeps, tails, refills,
        # setup, pipelined reports — everything not in a private delta) by
        # walk count, largest entries first for the remainder, so
        # attributed rounds sum EXACTLY to the cohort's ledger delta.
        # Recovery rounds billed mid-cohort ("serve/recovery": fault
        # cascades, slot truncation, idle waits) are session failure cost,
        # not request work — they stay out of attribution, extending the
        # ledger-balance identity to Σ per-tenant attributed + maintain +
        # churn + recovery = session delta.  Each tenant's quota bucket is
        # debited with exactly the rounds attributed to it here.
        cohort_delta = net.ledger.delta_since(cohort_snapshot)
        cohort_recovery = cohort_delta.phase_rounds.get(SERVE_RECOVERY, 0)
        shared = cohort_delta.rounds - private_total - cohort_recovery
        total_walks = len(slots)
        shares = [shared * e.k // total_walks for e in cohort]
        remainder = shared - sum(shares)
        order = sorted(range(len(cohort)), key=lambda i: (-cohort[i].k, i))
        for j in range(remainder):
            shares[order[j % len(shares)]] += 1
        now = net.rounds
        done_now = {e.ticket.ticket_id for e in finished}
        tracer = engine.obs.tracer
        for entry, share, private in zip(cohort, shares, entry_private):
            ticket = entry.ticket
            attributed = private + share
            ticket.rounds_attributed += attributed
            owner = self.tenants.get(ticket.tenant)
            owner.rounds_attributed += attributed
            owner.debit(attributed)
            if tracer is not None:
                # The ticket's scope span carries only its private delta (0
                # under pipelined reports); the apportioned share exists
                # only here, so stamp it into the trace for the per-tenant
                # rollup of trace-report.
                tracer.instant(
                    "attribution",
                    net.ledger,
                    {"tenant": ticket.tenant, "ticket": ticket.ticket_id, "rounds": attributed},
                )
            if ticket.ticket_id in done_now:
                ticket.completed_round = now
                ticket.latency_rounds = now - ticket.submitted_round
                engine.obs.slo_record("complete", ticket.tenant, ticket.latency_rounds)
                if ticket.deadline_round is not None and now > ticket.deadline_round:
                    ticket.deadline_missed = True
                    owner.deadline_misses += 1
                    engine.obs.slo_record("deadline_miss", ticket.tenant)
        return refill_calls

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _tenant_total(self, field: str) -> int:
        """Session total derived from the per-tenant counters (single home).

        Every ticket has an owner (the default tenant included), so the
        per-tenant counters ARE the session counters; deriving the totals
        here instead of double-incrementing scalars keeps one home for each
        quantity (the metrics registry derives its families from them too).
        """
        return sum(getattr(t, field) for t in self.tenants.tenants.values())

    def completed(self) -> list[WalkTicket]:
        """Tickets served to completion, in submission order."""
        return [t for t in self._tickets.values() if t.status == DONE]

    def stats(self) -> SchedulerStats:
        """Scheduler telemetry; also surfaced via ``engine.stats().serve``."""
        ledger = self.engine.network.ledger
        done = self.completed()
        attributed = [t.rounds_attributed for t in done]
        latencies = [t.latency_rounds for t in done if t.latency_rounds is not None]
        rounds_p50, rounds_p99 = sample_quantiles(attributed, [0.5, 0.99]) if attributed else (0.0, 0.0)
        latency_p50, latency_p99 = sample_quantiles(latencies, [0.5, 0.99]) if latencies else (0.0, 0.0)
        faults = self.engine._faults
        rejects: dict[str, int] = {}
        for t in self.tenants.tenants.values():
            for reason, count in t.rejects_by_reason.items():
                rejects[reason] = rejects.get(reason, 0) + count
        return SchedulerStats(
            submitted=self._tenant_total("submitted"),
            admitted=self._tenant_total("admitted"),
            rejected=self._tenant_total("rejected"),
            completed=self._tenant_total("completed"),
            deadline_misses=self._tenant_total("deadline_misses"),
            queue_depth=self.queue_depth,
            ticks=self._ticks,
            cohorts=self._cohorts,
            walks_served=self._tenant_total("walks_served"),
            refill_calls=self._refill_calls,
            p50_rounds_per_request=rounds_p50,
            p99_rounds_per_request=rounds_p99,
            p50_latency_rounds=latency_p50,
            p99_latency_rounds=latency_p99,
            serve_rounds=ledger.phase_total(SERVE_FAMILY),
            serve_refill_rounds=ledger.phase_rounds(POOL_REFILL_SERVE),
            maintain_rounds=ledger.phase_rounds(POOL_REFILL_MAINTAIN),
            rejects_by_reason=rejects,
            prefetch_shards_noted=self._prefetch_noted,
            crashes_seen=faults.crashes_seen if faults is not None else 0,
            recoveries_seen=faults.recoveries_seen if faults is not None else 0,
            walks_recovered=faults.walks_recovered if faults is not None else 0,
            walks_restarted=faults.walks_restarted if faults is not None else 0,
            recovery_rounds=ledger.phase_rounds(SERVE_RECOVERY),
            ticket_retries=self._ticket_retries,
            backoff_waits=faults.backoff_waits if faults is not None else 0,
            refill_backoffs=self._refill_backoffs,
            tenants=self.tenants.stats(),
            cohort_splits=self._cohort_splits,
            throttled_ticks=self._tenant_total("throttled_ticks"),
        )

    def __repr__(self) -> str:
        return (
            f"WalkScheduler(queue={self.queue_depth}, "
            f"submitted={self._tenant_total('submitted')}, "
            f"completed={self._tenant_total('completed')}, "
            f"rejected={self._tenant_total('rejected')}, "
            f"tenants={len(self.tenants)}, ticks={self._ticks})"
        )
