"""The single indirection between instrumented code and the obs sinks.

A :class:`Probe` is the one object instrumentation points talk to: the
ledger drives its observer interface (``phase_pushed``/``phase_popped``/
``charged``/``delta_measured``), and the engine/scheduler/fault/churn
layers add context (``annotate``) and instant events (``event``).

Zero-cost-when-off is the design constraint: a sink-less probe
early-returns from every hook on a single attribute check, ``annotate``
hands back one shared ``nullcontext`` (no allocation), and engines that
never attach observability leave ``ledger.observer`` as ``None`` so the
hot charge path pays exactly one ``is not None`` test.  The probe is
strictly *passive* — it reads the ledger, never charges it, and never
touches an RNG (enforced by the ``obs-passivity`` analyzer rule).

The probe is also the metrics registry's collector and the one home of
the ``repro_*`` family names: :meth:`Probe.collect` rebuilds them on each
registry read from the counters ``engine.stats()`` already keeps.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.obs.metrics import Counter, Gauge, Histogram

__all__ = ["FAMILIES", "Probe"]

_NULL = nullcontext()

#: Every derived metric family, ``name -> (type, HELP text)``: the one
#: home of the ``repro_*`` names (see :meth:`Probe.collect`).
FAMILIES = {
    "repro_rounds_total": (Counter, "Simulated rounds charged, by ledger phase."),
    "repro_messages_total": (Counter, "Messages charged, by ledger phase."),
    "repro_congestion_max": (Gauge, "Worst per-edge congestion observed."),
    "repro_events_total": (Counter, "Instant events, by kind."),
    "repro_trace_spans_dropped": (Gauge, "Spans evicted from the tracer ring buffer."),
    "repro_slo_alerts_total": (Counter, "SLO alert transitions, by kind."),
    "repro_tokens_added_total": (Counter, "Pool tokens created by refills, by kind."),
    "repro_tokens_evicted_total": (Counter, "Pool tokens evicted, by cause."),
    "repro_fault_nodes_total": (Counter, "Nodes crashed/recovered by fault cascades."),
    "repro_maintenance_sweeps_total": (Counter, "Background watermark sweeps run."),
    "repro_pool_tokens_unused": (Gauge, "Unused tokens in the live pool."),
    "repro_pool_tokens_created": (Gauge, "Tokens created into the live pool (cumulative)."),
    "repro_pool_tokens_consumed": (Gauge, "Tokens consumed from the live pool (cumulative)."),
    "repro_shards_below_watermark": (Gauge, "Shards currently under their watermark."),
    "repro_shard_unused_min": (Gauge, "Occupancy of the emptiest shard."),
    "repro_shard_unused_max": (Gauge, "Occupancy of the fullest shard."),
    "repro_pool_outstanding_deficit": (Gauge, "Tokens still owed to deferred/below-watermark shards."),
    "repro_ticks_total": (Counter, "Scheduler ticks run."),
    "repro_queue_depth": (Gauge, "Queued + parked tickets (admission-bound depth)."),
    "repro_requests_total": (Counter, "Submitted requests, by tenant and outcome."),
    "repro_admission_rejects_total": (Counter, "Requests rejected at admission, by tenant and reason."),
    "repro_walks_served_total": (Counter, "Walks served, by tenant."),
    "repro_rounds_attributed_total": (Counter, "Cohort rounds attributed, by tenant."),
    "repro_tickets_completed_total": (Counter, "Tickets completed, by tenant."),
    "repro_tenant_fairness_dev": (
        Gauge,
        "Relative deviation of a tenant's attributed-rounds share from its weight share (signed).",
    ),
    "repro_ticket_latency_rounds": (Histogram, "Submit-to-complete latency in simulated rounds, by tenant."),
    "repro_ticket_service_rounds": (Histogram, "Attributed service rounds per completed ticket, by tenant."),
}


def _count(counter: Counter, label: str, values: dict, **labels: object) -> None:
    """Add ``counter{label=key, **labels}`` for each non-zero entry of ``values``."""
    for key, value in values.items():
        if value:
            counter.inc(value, **labels, **{label: key})


def _engine_series(m: dict, engine) -> None:
    """Fill the pool, churn, fault, scheduler and tenant families from stats()."""
    st = engine.stats()
    added = {
        "maintain": st.background_refill_tokens,
        "churn": st.churn_tokens_regenerated,
        "recovery": st.fault_tokens_regenerated,
    }
    _count(m["repro_tokens_added_total"], "kind", added)
    evicted = {"churn": st.churn_tokens_evicted, "fault": st.fault_tokens_evicted}
    _count(m["repro_tokens_evicted_total"], "cause", evicted)
    nodes = {"crash": st.fault_crashes, "recover": st.fault_recoveries}
    _count(m["repro_fault_nodes_total"], "kind", nodes)
    if st.num_shards is not None:
        m["repro_maintenance_sweeps_total"].inc(st.maintenance_sweeps)
        for name, value in (
            ("repro_pool_tokens_unused", st.pool_unused),
            ("repro_pool_tokens_created", st.tokens_prepared),
            ("repro_pool_tokens_consumed", st.tokens_consumed),
            ("repro_shards_below_watermark", st.shards_below_watermark),
            ("repro_shard_unused_min", st.shard_unused_min),
            ("repro_shard_unused_max", st.shard_unused_max),
            ("repro_pool_outstanding_deficit", st.outstanding_deficit),
        ):
            m[name].set(value)
    serve = st.serve
    if serve is None:
        return
    m["repro_ticks_total"].inc(serve["ticks"])
    m["repro_queue_depth"].set(serve["queue_depth"])
    tenants = serve["tenants"]
    total = sum(t["rounds_attributed"] for t in tenants.values())
    weight_sum = sum(t["weight"] for t in tenants.values())
    for name, t in tenants.items():
        outcomes = {"admitted": t["admitted"], "rejected": t["rejected"]}
        _count(m["repro_requests_total"], "outcome", outcomes, tenant=name)
        _count(m["repro_admission_rejects_total"], "reason", t["rejects_by_reason"], tenant=name)
        _count(m["repro_walks_served_total"], "tenant", {name: t["walks_served"]})
        _count(m["repro_rounds_attributed_total"], "tenant", {name: t["rounds_attributed"]})
        _count(m["repro_tickets_completed_total"], "tenant", {name: t["completed"]})
        if total > 0:
            share = t["rounds_attributed"] / total / (t["weight"] / weight_sum)
            m["repro_tenant_fairness_dev"].set(share - 1.0, tenant=name)
    for ticket in engine._scheduler.completed():
        m["repro_ticket_latency_rounds"].observe(ticket.latency_rounds, tenant=ticket.tenant)
        m["repro_ticket_service_rounds"].observe(ticket.rounds_attributed, tenant=ticket.tenant)


class _Annotation:
    """Context-stack frame pushed by :meth:`Probe.annotate`."""

    __slots__ = ("_probe", "_ctx")

    def __init__(self, probe: Probe, ctx: dict) -> None:
        self._probe = probe
        self._ctx = ctx

    def __enter__(self) -> _Annotation:
        probe = self._probe
        probe._context.append(self._ctx)
        merged = dict(probe._merged)
        merged.update(self._ctx)
        probe._merged = merged
        return self

    def __exit__(self, *exc: object) -> None:
        probe = self._probe
        probe._context.pop()
        merged: dict = {}
        for frame in probe._context:
            merged.update(frame)
        probe._merged = merged


class Probe:
    """Ledger observer + annotation/event entry point for one engine."""

    __slots__ = (
        "tracer",
        "metrics",
        "heatmap",
        "slo",
        "engine",
        "_context",
        "_merged",
        "_ledger",
        "_attach_snapshot",
        "_events",
    )

    def __init__(self, tracer=None, metrics=None, heatmap=None, slo=None) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.heatmap = heatmap
        self.slo = slo
        # The session whose stats() the derived families read; set by
        # WalkEngine.attach_observability (None on a bare ledger probe).
        self.engine = None
        self._context: list[dict] = []
        self._merged: dict = {}
        self._ledger = None
        self._attach_snapshot = None
        # Instants emitted, by kind: the one count no other store keeps.
        self._events: dict[str, int] = {}

    @property
    def active(self) -> bool:
        return (
            self.tracer is not None
            or self.metrics is not None
            or self.heatmap is not None
            or self.slo is not None
        )

    @property
    def context(self) -> dict:
        """The currently merged annotation context (read-only by convention)."""
        return self._merged

    def annotate(self, **context: object):
        """Attach ``context`` (tenant, ticket, cohort, ...) to spans opened inside.

        A ``scope=...`` key also names the scope span emitted for any
        ``delta_since`` measured inside the block.  With neither a tracer
        nor a heatmap (which attributes settled charges by the ``tenant``
        key) this returns a shared ``nullcontext`` — no allocation on the
        off path.
        """
        if self.tracer is None and self.heatmap is None:
            return _NULL
        return _Annotation(self, context)

    # ------------------------------------------------------------------
    # ledger observer interface (see RoundLedger.observer)

    def attached(self, ledger) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.attached(ledger)
        metrics = self.metrics
        if metrics is not None:
            self._ledger = ledger
            # Baseline for the since-attach phase totals; subtracted in
            # collect() rather than delta'd, so no scope span is emitted.
            self._attach_snapshot = ledger.capture()  # repro: allow-capture-balance
            metrics._collector = self.collect

    def phase_pushed(self, name: str, ledger) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.phase_push(name, ledger, self._merged)

    def phase_popped(self, name: str, ledger) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.phase_pop(name, ledger)

    def charged(self, phase: str, rounds: int, messages: int, congestion: int) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.charged(rounds, messages, congestion)
        heatmap = self.heatmap
        if heatmap is not None:
            heatmap.settle_charge(
                phase, rounds, messages, congestion, tenant=self._merged.get("tenant")
            )

    def delta_measured(self, ledger, snapshot, delta) -> None:
        tracer = self.tracer
        if tracer is not None:
            ctx = self._merged
            tracer.scope(str(ctx.get("scope", "delta")), ledger, snapshot, delta, ctx)

    # ------------------------------------------------------------------
    # instant events (crash / recovery / churn / admission markers)

    def event(self, name: str, ledger=None, **args: object) -> None:
        tracer = self.tracer
        if tracer is not None and ledger is not None:
            merged = {**self._merged, **args} if args else self._merged
            tracer.instant(name, ledger, merged)
        if self.metrics is not None:
            self._events[name] = self._events.get(name, 0) + 1

    # ------------------------------------------------------------------
    # streaming-SLO feed (driven by the serving scheduler)

    def slo_record(self, kind: str, tenant: str | None = None, value: float | None = None) -> None:
        """Fold one serving event into the SLO monitor's open tick frame."""
        slo = self.slo
        if slo is not None:
            slo.record(kind, tenant, value)

    def slo_tick(self, tick: int, round_now: int, queue_depth: int = 0, ledger=None) -> list:
        """Close one scheduler tick: roll windows, evaluate rules, emit alerts.

        Alert transitions become tracer instant events (``slo-fire`` /
        ``slo-resolve``), counted by ``repro_slo_alerts_total`` from the
        monitor's alert history; the list of transitions is returned for
        the caller (dashboard rendering).
        """
        slo = self.slo
        if slo is None:
            return []
        alerts = slo.close_tick(tick, round_now, queue_depth)
        for alert in alerts:
            self.event(
                f"slo-{alert.kind}",
                ledger,
                slo=alert.spec,
                tenant=alert.tenant,
                burn=round(alert.burn, 4),
            )
        return alerts

    # ------------------------------------------------------------------
    # the metrics registry's collector

    def collect(self) -> list:
        """Every ``repro_*`` family with a series, rebuilt from the counters it mirrors.

        Bound as the registry's collector by :meth:`attached`, so it runs
        on registry reads and never on the charge path.  Rounds and
        messages by phase count since attach; the engine families are
        ``engine.stats()`` at read time (session totals, and gauges that
        describe the pool *now*).
        """
        m = {name: cls(name, help) for name, (cls, help) in FAMILIES.items()}
        ledger, base = self._ledger, self._attach_snapshot
        for phase, cell in ledger.phases.items():
            rounds = cell.rounds - base.phase_rounds.get(phase, 0)
            messages = cell.messages - base.phase_messages.get(phase, 0)
            if rounds or messages:
                m["repro_rounds_total"].inc(rounds, phase=phase)
                m["repro_messages_total"].inc(messages, phase=phase)
        m["repro_congestion_max"].set(ledger.max_congestion)
        _count(m["repro_events_total"], "kind", self._events)
        if self.tracer is not None:
            m["repro_trace_spans_dropped"].set(self.tracer.dropped)
        if self.slo is not None:
            for alert in self.slo.alerts:
                m["repro_slo_alerts_total"].inc(1, kind=alert.kind)
        if self.engine is not None:
            _engine_series(m, self.engine)
        return [metric for metric in m.values() if metric.values]
