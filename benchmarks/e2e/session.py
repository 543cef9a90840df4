"""One session of one workload: set up, serve, check the outputs, measure.

Only the public serving API is driven, the way a user calls it:
``Graph`` → ``WalkEngine`` → ``attach_observability`` → ``prepare`` →
``engine.scheduler(tenants=...)`` → ``submit`` / ``tick`` until drained,
with ``apply_churn`` and ``attach_faults`` on the churn workload.
"""

from __future__ import annotations

import gc
import resource
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import Graph, WalkEngine
from repro.congest.ledger import LedgerSnapshot
from repro.obs import HeatmapSink, MetricsRegistry, SloMonitor, SloSpec, Tracer
from repro.serve import DONE, REJECTED, TenantRegistry, WalkScheduler
from layers import CSR_BUILD
from workloads import DEADLINE, LENGTH_HINT, POLICY, SLO_RULES, TENANTS, Inputs, Workload, shift_faults

#: Ledger phase families; between them they hold every simulated round.
FAMILIES = ("phase1", "setup", "serve", "pool-refill")
#: Wall-clock and memory metrics; every other metric of a run repeats
#: exactly at a fixed seed.
MEASURED = frozenset({"setup_s", "walks_per_s", "request_wall_p50_ms", "request_wall_p90_ms",
                      "peak_rss_mb", "s_per_1k_rounds"})


def rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Session:
    """The live objects of one set-up session."""

    engine: WalkEngine
    sched: WalkScheduler
    sinks: dict
    attach_snapshot: LedgerSnapshot  # taken when the scheduler attached


@dataclass
class Served:
    """What the serve phase did, as the benchmark saw it from outside."""

    start: float
    end: float
    rounds: int
    tickets: list
    wall: dict  # ticket id -> submit-to-completion wall seconds, completed tickets only
    depths: list  # queue depth after each tick


@dataclass
class SessionResult:
    """The checks and measurements of one session."""

    setup_window: tuple[float, float]
    serve_window: tuple[float, float]
    setup_rss_mb: float
    peak_rss_mb: float  # of the process, at the end of the serve phase
    serve_rounds: int = 0
    walks: int = 0
    walls_ms: list = field(default_factory=list)  # per completed request
    exact: dict = field(default_factory=dict)  # name -> (value, unit); repeats exactly
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def setup_s(self) -> float:
        return self.setup_window[1] - self.setup_window[0]

    @property
    def serve_s(self) -> float:
        return self.serve_window[1] - self.serve_window[0]


def set_up(wl: Workload, inputs: Inputs, seed: int, profile=None) -> Session:
    """Everything a serving deployment does before its first real request."""
    with profile.region(CSR_BUILD) if profile is not None else nullcontext():
        graph = Graph(wl.n, inputs.edges, name=wl.name)
    engine = WalkEngine(graph, seed=seed, record_paths=wl.record_paths, auto_maintain=False)
    sinks = {}
    if wl.observed:
        sinks = {
            "tracer": Tracer(),
            "metrics": MetricsRegistry(),
            "heatmap": HeatmapSink(),
            "slo": SloMonitor(specs=[SloSpec.parse(rule) for rule in SLO_RULES]),
        }
        engine.attach_observability(**sinks)
    engine.prepare(length_hint=LENGTH_HINT)
    registry = TenantRegistry()
    for name, weight in TENANTS:
        registry.register(name, weight=weight)
    sched = engine.scheduler(tenants=registry, **POLICY)
    snapshot = engine.network.ledger.capture()
    # One warm-up request pays the shared BFS tree every later cohort reuses.
    tenant, sources, length = inputs.warmup
    sched.submit(sources, length, deadline=DEADLINE, tenant=tenant)
    sched.tick()
    return Session(engine=engine, sched=sched, sinks=sinks, attach_snapshot=snapshot)


def run_session(wl: Workload, inputs: Inputs, seed: int, profile=None) -> SessionResult:
    """Set up from scratch, serve ``inputs`` once, then check and measure.

    With a ``profile``, its wrappers are installed for the set-up and the
    serve phase only; the output checks run without them.
    """
    gc.collect()
    if profile is not None:
        profile.install()
    try:
        start = perf_counter()
        session = set_up(wl, inputs, seed, profile)
        setup_window = (start, perf_counter())
        setup_rss = rss_mb()
        gc.collect()
        served = serve(inputs, session)
    finally:
        if profile is not None:
            profile.uninstall()
    result = SessionResult(setup_window, (served.start, served.end), setup_rss, rss_mb())
    check_and_measure(session, served, result)
    return result


def serve(inputs: Inputs, session: Session) -> Served:
    """The open loop: each tick's arrivals are submitted, then it ticks.

    After the last tick the scheduler is drained tick by tick, as
    ``WalkScheduler.drain`` would, so every completion gets its wall time.
    """
    engine, sched = session.engine, session.sched
    start = perf_counter()
    start_rounds = engine.network.rounds
    if inputs.faults is not None:
        engine.attach_faults(shift_faults(inputs.faults, start_rounds))
    tickets = []
    submitted_at: dict[int, float] = {}
    wall: dict[int, float] = {}
    depths = []

    def tick() -> None:
        report = sched.tick()
        now = perf_counter()
        for ticket_id in report.serviced:
            if ticket_id not in wall and sched.ticket(ticket_id).status == DONE:
                wall[ticket_id] = now - submitted_at[ticket_id]
        depths.append(report.queue_depth)

    for t, arrivals in enumerate(inputs.arrivals):
        delta = inputs.churn.get(t)
        if delta is not None:
            engine.apply_churn(delta)
        for tenant, sources, length in arrivals:
            submitted = perf_counter()
            ticket = sched.submit(sources, length, deadline=DEADLINE, tenant=tenant)
            submitted_at[ticket.ticket_id] = submitted
            tickets.append(ticket)
        tick()
    while sched.queue_depth:
        tick()
    end = perf_counter()
    return Served(start, end, engine.network.rounds - start_rounds, tickets, wall, depths)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def check_and_measure(session: Session, served: Served, result: SessionResult) -> None:
    """Output checks and the counts of one session, into ``result``."""
    engine, sched = session.engine, session.sched
    tickets, wall = served.tickets, served.wall
    ledger = engine.network.ledger
    failures = []
    n = engine.graph.n

    done = [t for t in tickets if t.status == DONE]
    rejected = [t for t in tickets if t.status == REJECTED]
    stuck = [t for t in tickets if t.status not in (DONE, REJECTED)]
    if stuck:
        failures.append(f"{len(stuck)} admitted tickets not DONE after drain")
    for t in done:
        dests = t.result.destinations
        if len(dests) != t.k or not all(0 <= int(d) < n for d in dests):
            failures.append(f"ticket {t.ticket_id}: bad destinations {dests!r}")
            break
    if set(wall) != {t.ticket_id for t in done}:
        failures.append("completion wall time missing for some DONE ticket")

    # Ledger balance since the scheduler attached.
    snap = session.attach_snapshot
    now = ledger.capture()
    delta_rounds = now.rounds - snap.rounds

    def phase_delta(name: str) -> int:
        return now.phase_rounds.get(name, 0) - snap.phase_rounds.get(name, 0)

    stats = sched.stats()
    attributed = sum(t["rounds_attributed"] for t in stats.tenants.values())
    balance = (
        attributed
        + phase_delta("pool-refill/maintain")
        + phase_delta("pool-refill/churn")
        + phase_delta("serve/recovery")
    )
    if balance != delta_rounds:
        failures.append(f"ledger identity: attributed+maintain+churn+recovery {balance} != {delta_rounds}")

    family_rounds = {f: ledger.phase_total(f) for f in FAMILIES}
    if sum(family_rounds.values()) != ledger.rounds:
        failures.append(f"phase families {family_rounds} do not sum to {ledger.rounds} rounds")

    store = engine.pool.store
    live = int(store.live_rows().size)
    expected = store.tokens_created - store.tokens_consumed - store.tokens_evicted
    if live != expected or int(store.source_count_arrays()[1].sum()) != expected:
        failures.append(f"pool: {live} live tokens, created-consumed-evicted = {expected}")

    heatmap = session.sinks.get("heatmap")
    if heatmap is not None:
        for phase, ps in ledger.phases.items():
            if heatmap.attributed_messages(phase) != ps.messages:
                failures.append(f"heatmap conservation broken in phase {phase}")
        if heatmap.residual_messages() != 0:
            failures.append(f"heatmap residual {heatmap.residual_messages()} != 0")

    latencies = [t.latency_rounds for t in done]
    submitted = len(tickets)
    result.failures.extend(failures)
    result.serve_rounds = served.rounds
    result.walks = sum(t.k for t in done)
    result.walls_ms = [1000.0 * wall[t.ticket_id] for t in done if t.ticket_id in wall]
    result.attempted = submitted
    result.failed = len(rejected) + len(stuck)
    result.exact = {
        "latency_rounds_p50": (percentile(latencies, 50), "rounds"),
        "latency_rounds_p90": (percentile(latencies, 90), "rounds"),
        "sim_rounds": (ledger.rounds, "rounds"),
        "sim_messages": (ledger.messages, "msgs"),
        "failed_frac": (result.failed / submitted if submitted else 0.0, "ratio"),
        "deadline_miss_frac": (
            sum(t.deadline_missed for t in done) / len(done) if done else 0.0, "ratio"),
        "walks_completed": (result.walks, "count"),
        "walks.store.tokens_created": (store.tokens_created, "count"),
        "walks.store.tokens_consumed": (store.tokens_consumed, "count"),
        "walks.store.tokens_evicted": (store.tokens_evicted, "count"),
        "walks.store.consumed_frac": (store.tokens_consumed / store.tokens_created, "ratio"),
        "engine.pool.reactive_refills": (engine.stats().refills, "count"),
        "serve.scheduler.cohorts": (stats.cohorts, "count"),
        "serve.scheduler.queue_depth_mean": (float(np.mean(served.depths)), "tickets"),
        "serve.scheduler.admit_frac": (stats.admitted / stats.submitted, "ratio"),
        **{f"congest.rounds.{f}": (r, "rounds") for f, r in family_rounds.items()},
    }
