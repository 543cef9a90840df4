"""Data model of the serving subsystem: tickets, policy, telemetry.

A :class:`~repro.serve.scheduler.WalkScheduler` turns the engine's
one-request-at-a-time API into a *stream* interface: callers ``submit``
walk requests and get a :class:`WalkTicket` back immediately; the
scheduler's round-driven loop (``tick``) admits, queues, batches, and
services them.  This module holds the passive records that flow across
that boundary:

* :class:`ServePolicy` — the scheduler's knobs (queue bound, cohort size,
  walk-count packing budget, pipelined-report switch, the per-tick
  maintenance round budget, default deadline).
* :class:`WalkTicket` — one submitted request's lifecycle: QUEUED →
  DONE, or REJECTED at admission.  Deadlines are expressed in *simulated
  rounds on the session ledger* — the paper's complexity measure, so "serve
  me within 500 rounds" means 500 rounds of simulated CONGEST time, not
  wall-clock.  A missed deadline is **counted, never dropped**: the ticket
  still completes and carries its result.
* :class:`SchedulerStats` / :class:`TickReport` — telemetry: queue depth,
  admit/reject/deadline-miss counters, p50/p99 rounds-per-request.

Like :mod:`repro.engine.model` this module is deliberately light — it
imports only dataclasses/numpy plus the engine's request model — so tests
and tooling can reason about tickets without pulling in the scheduler.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.engine.model import WalkRequest, _jsonify
from repro.serve.tenants import DEFAULT_TENANT

__all__ = [
    "DONE",
    "QUEUED",
    "REJECTED",
    "SchedulerStats",
    "ServePolicy",
    "TickReport",
    "WalkTicket",
]

#: Ticket lifecycle states (plain strings, matching the repo's ``mode`` idiom).
QUEUED = "queued"
REJECTED = "rejected"
DONE = "done"


@dataclass(frozen=True)
class ServePolicy:
    """Knobs of one :class:`~repro.serve.scheduler.WalkScheduler`.

    Attributes
    ----------
    max_queue_depth:
        Admission bound: submissions beyond this many queued tickets are
        rejected (``"queue-full"``) instead of growing the backlog without
        bound — the open-loop overload guard.
    max_batch_requests:
        How many queued requests one scheduling round services as a merged
        cohort.  Larger cohorts amortize shared BFS floods and pipeline more
        draws per sweep but delay the requests behind them.  Ignored when
        ``max_batch_walks`` is set — walk-count packing then governs.
    max_batch_walks:
        Walk-count (Σk) packing budget per merged cohort, the PODC'10-native
        cohort measure: sweep cost scales with the walks in flight, not the
        requests they came from, so the cohort fills with walks until this
        budget is met, **splitting** the last ticket across cohorts when it
        does not fit whole.  Split tickets accumulate partial results and
        complete when their last chunk is served — never dropped, never
        reordered within their tenant.  ``None`` (default) keeps PR-4
        request-count cohorts.
    pipelined_report:
        Replace each ticket's private ``height + k`` report convergecast
        with ONE shared ``height + Σk − 1`` convergecast per cohort (phase
        ``"serve/report"``, the arXiv:1201.1363 cross-request pipelining),
        apportioned into ``rounds_attributed`` with the rest of the shared
        cohort delta.  Private request deltas (``WalkTicket.rounds``) are
        then 0 — the whole cohort cost is shared.  Off by default: the
        PR-4 per-request report billing is the documented attribution
        contract, and
        ``tests/test_serve.py::TestLedgerBalance::test_private_deltas_contain_only_report``
        pins it.
    maintain_round_budget:
        Per-tick round budget for the deadline-driven maintenance sweep
        (emptiest/most-demanded shard first); ``None`` keeps the PR-3
        full-quota sweep every tick.
    default_deadline:
        Round budget applied to submissions that do not carry their own
        ``deadline``; ``None`` means no deadline (and admission control then
        has no budget to reject against for that request).

    Per-shard admission control and speculative prefetch are always on,
    and the deficit-round-robin quantum is a fixed
    :data:`~repro.serve.scheduler.DRR_QUANTUM` walks per unit of tenant
    weight.
    """

    max_queue_depth: int = 256
    max_batch_requests: int = 8
    max_batch_walks: int | None = None
    pipelined_report: bool = False
    maintain_round_budget: int | None = None
    default_deadline: int | None = None


@dataclass
class WalkTicket:
    """One submitted request's lifecycle inside the scheduler.

    ``rounds`` is the ticket's *private* request delta
    (:meth:`~repro.congest.ledger.RoundLedger.delta_since` around the work
    attributable to this request alone — its report convergecast); shared
    cohort work (merged sweeps, tails, refills) is charged to the
    ``"serve"``/``"pool-refill"`` phase families and **never** leaks into
    it.  ``rounds_attributed`` adds this ticket's proportional share (by
    walk count) of its cohort's shared rounds — the quantity the p50/p99
    rounds-per-request telemetry summarizes; per cohort the attributed
    rounds sum exactly to the cohort's ledger delta.  Under
    ``ServePolicy.pipelined_report`` the report itself is shared (one
    ``height + Σk − 1`` convergecast per cohort), so ``rounds`` is 0 and
    the whole cost arrives through attribution.  ``latency_rounds`` is
    end-to-end simulated latency: ledger rounds between submission and
    completion, the number deadlines are checked against.
    """

    ticket_id: int
    request: WalkRequest
    priority: int
    submitted_round: int
    deadline_round: int | None
    #: Owning tenant (deficit-round-robin class + quota bucket); untagged
    #: submissions land on the auto-registered default tenant.
    tenant: str = DEFAULT_TENANT
    status: str = QUEUED
    reject_reason: str | None = None
    result: object | None = None  # ManyWalksResult once DONE
    serviced_tick: int | None = None
    completed_round: int | None = None
    rounds: int = 0
    rounds_attributed: int = 0
    latency_rounds: int | None = None
    deadline_missed: bool = False
    #: Walks served so far — equals ``request.k`` once DONE; in between it
    #: tracks a walk-count-packed ticket's progress across the cohorts its
    #: chunks rode (see ``ServePolicy.max_batch_walks``).
    walks_served: int = 0
    #: Cohorts this ticket's walks were split across (1 = served whole).
    cohorts: int = 0
    #: Times the scheduler parked this ticket because a source was crashed
    #: (retried — never dropped — once the scheduled recovery fires).
    retries: int = 0

    @property
    def k(self) -> int:
        return self.request.k

    def to_dict(self) -> dict:
        return _jsonify(dataclasses.asdict(self))


@dataclass(frozen=True)
class TickReport:
    """Outcome of one scheduling round (:meth:`WalkScheduler.tick`).

    ``rounds`` is the full ledger delta of the tick — cohort servicing plus
    the maintenance sweep; ``serviced`` lists the ticket ids the cohort
    completed; ``maintain_rounds`` / ``deferred_shards`` echo the budgeted
    maintenance outcome.
    """

    tick: int
    serviced: tuple[int, ...]
    rounds: int
    queue_depth: int
    refill_calls: int = 0
    maintain_rounds: int = 0
    deferred_shards: tuple[int, ...] = ()


@dataclass(frozen=True)
class SchedulerStats:
    """Telemetry snapshot from ``WalkScheduler.stats()``.

    Counter block: ``submitted = admitted + rejected``; ``completed`` of
    the admitted have results; ``deadline_misses`` of those completed after
    their deadline round (they still completed — misses are counted, not
    dropped).  ``rejects_by_reason`` splits rejections (``"queue-full"``
    vs. ``"shard-refill-exceeds-budget"``).

    Cost block: ``p50_rounds_per_request`` / ``p99_rounds_per_request``
    summarize completed tickets' attributed rounds (private + cohort
    share); ``p50_latency_rounds`` / ``p99_latency_rounds`` the end-to-end
    simulated latencies.  ``serve_rounds`` is the ledger's ``"serve"``
    phase-family total (shared scheduling work), ``serve_refill_rounds``
    the reactive refills inside merged sweeps
    (``"pool-refill/serve"``), ``maintain_rounds`` the budgeted background
    sweeps (``"pool-refill/maintain"``).

    Failures block (crash-fault serving, :mod:`repro.engine.faults`):
    ``crashes_seen`` / ``recoveries_seen`` node events fired by the
    session's fault schedule; ``walks_recovered`` in-flight walks resumed
    from a surviving prefix (``walks_restarted`` had none and restarted
    from source); ``recovery_rounds`` the ledger's ``"serve/recovery"``
    bill — regeneration, tree rebuilds, prefix replays, and idle backoff
    waits; ``ticket_retries`` park-and-retry events (a cohort slot's
    source was crashed — the ticket waited out the scheduled recovery,
    it was **never dropped**); ``backoff_waits`` idle waits charged while
    every serviceable walk sat on a crashed node; ``refill_backoffs``
    maintenance sweeps that skipped a repeatedly-deferring shard on an
    exponential retry schedule.
    """

    submitted: int
    admitted: int
    rejected: int
    completed: int
    deadline_misses: int
    queue_depth: int
    ticks: int
    cohorts: int
    walks_served: int
    refill_calls: int
    p50_rounds_per_request: float
    p99_rounds_per_request: float
    p50_latency_rounds: float
    p99_latency_rounds: float
    serve_rounds: int
    serve_refill_rounds: int
    maintain_rounds: int
    rejects_by_reason: dict[str, int] = field(default_factory=dict)
    #: Shard-demand notes fed to the pool by speculative prefetch
    #: (one per queued-but-unserviced ticket source shard per tick).
    prefetch_shards_noted: int = 0
    crashes_seen: int = 0
    recoveries_seen: int = 0
    walks_recovered: int = 0
    walks_restarted: int = 0
    recovery_rounds: int = 0
    ticket_retries: int = 0
    backoff_waits: int = 0
    refill_backoffs: int = 0
    #: Multi-tenant block (:mod:`repro.serve.tenants`): per-tenant
    #: telemetry keyed by name in registration order (weights, quota
    #: balances, attributed rounds, throttle counts); ``cohort_splits``
    #: counts tickets whose walks were split across cohorts by walk-count
    #: packing; ``throttled_ticks`` sums tenant-ticks on which queued work
    #: was deferred by an overdrawn quota bucket.
    tenants: dict[str, dict] = field(default_factory=dict)
    cohort_splits: int = 0
    throttled_ticks: int = 0

    def to_dict(self) -> dict:
        return _jsonify(dataclasses.asdict(self))
