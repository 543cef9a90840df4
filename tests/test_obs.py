"""The passive-observer contract of :mod:`repro.obs` (PR 9).

Four pillars:

* **passivity** — attaching a tracer + metrics registry changes *nothing*
  simulated: golden one-shot ledgers stay bit-identical, a full
  multi-tenant serve session lands on the identical round count and
  destinations, and scheduled endpoints still follow ``P^ℓ`` exactly;
* **balance** — the trace is the ledger laid out on a timeline: through
  maintenance, churn, and a crash/recover episode,
  Σ phase-span ``self_rounds`` + unattributed == ledger rounds since
  attach (globally AND per phase name), and the per-tenant attribution
  stamped into the trace sums exactly to the scheduler's own split;
* **determinism** — a fixed seed reproduces the trace, the Chrome JSON,
  and the Prometheus text byte-for-byte;
* **export formats** — Chrome trace-event JSON is schema-valid, the
  Prometheus exposition parses (cumulative histograms included), and
  ``python -m repro trace-report`` summarizes either export.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro import WalkEngine, random_regular_graph
from repro.cli import main as cli_main
from repro.congest import Network
from repro.congest.faults import FaultSchedule, FaultStep
from repro.dynamic import sample_churn_delta
from repro.markov import WalkSpectrum
from repro.graphs import complete_graph, torus_graph
from repro.obs import (
    DEFAULT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    LatencyDigest,
    MetricsRegistry,
    Probe,
    Tracer,
    load_spans,
    summarize,
)
from repro.serve import TenantRegistry, TrafficSpec, run_tenant_loop
from repro.util.stats import chi_square_goodness_of_fit
from repro.walks import single_random_walk

from test_ledger_golden import GOLDEN_SINGLE, SINGLE_CASES, _snapshot

N = 600


def observed_golden_run(name: str):
    """One golden single-walk case with a live tracer+metrics observer."""
    factory, source, length, seed, kwargs = SINGLE_CASES[name]
    graph = factory()
    net = Network(graph, seed=0)
    tracer, metrics = Tracer(), MetricsRegistry()
    probe = Probe(tracer=tracer, metrics=metrics)
    net.ledger.observer = probe
    probe.attached(net.ledger)
    result = single_random_walk(graph, source, length, seed=seed, network=net, **kwargs)
    return net, result, tracer, metrics


def run_session(*, tracer=None, metrics=None, heatmap=None, slo=None):
    """Multi-tenant serve through churn + a crash/recover episode.

    Mirrors ``examples/multi_tenant.py`` at test scale; returns
    ``(engine, sched, warmup_snapshot)``.
    """
    graph = random_regular_graph(N, 4, 7)
    engine = WalkEngine(graph, seed=7, record_paths=False, auto_maintain=False)
    if any(sink is not None for sink in (tracer, metrics, heatmap, slo)):
        engine.attach_observability(
            tracer=tracer, metrics=metrics, heatmap=heatmap, slo=slo
        )
    engine.prepare(length_hint=256)
    snap = engine.network.ledger.capture()
    registry = TenantRegistry()
    registry.register("free", weight=1.0)
    registry.register("pro", weight=4.0)
    registry.register("batch", weight=2.0, quota=120)
    sched = engine.scheduler(
        tenants=registry,
        max_batch_walks=48,
        pipelined_report=True,
        maintain_round_budget=128,
        max_queue_depth=4096,
    )
    rng = np.random.default_rng(11)
    specs = [
        TrafficSpec(n=N, lengths=(128, 256), ks=(2, 4), tenant=name)
        for name in registry.order
    ]
    run_tenant_loop(sched, specs, rng, rate=2.0, ticks=6, drain=False)
    engine.apply_churn(sample_churn_delta(engine.graph, rng, deletes=4, inserts=4))
    base = engine.network.rounds
    victim = 0
    engine.attach_faults(
        FaultSchedule(
            steps=(
                FaultStep(at_round=base, crash=(victim,)),
                FaultStep(at_round=base + 2_000, recover=(victim,)),
            )
        )
    )
    for name in registry.order:
        sched.submit([victim] * 2, 128, tenant=name, priority=-1)
    run_tenant_loop(sched, specs, rng, rate=1.0, ticks=4, drain=True)
    return engine, sched, snap


@pytest.fixture(scope="module")
def traced_session():
    tracer, metrics = Tracer(), MetricsRegistry()
    engine, sched, snap = run_session(tracer=tracer, metrics=metrics)
    return engine, sched, snap, tracer, metrics


# ----------------------------------------------------------------------
# Passivity: the observer changes nothing simulated
# ----------------------------------------------------------------------
class TestPassivity:
    @pytest.mark.parametrize("name", sorted(SINGLE_CASES))
    def test_golden_ledgers_bit_identical_with_tracing(self, name):
        net, result, _, _ = observed_golden_run(name)
        want = GOLDEN_SINGLE[name]
        got = {
            "destination": int(result.destination),
            "mode": result.mode,
            "gmw": result.get_more_walks_calls,
            **_snapshot(net),
        }
        assert got == want

    def test_serve_session_bit_identical_with_tracing(self, traced_session):
        engine_t, sched_t, _, _, _ = traced_session
        engine_u, sched_u, _ = run_session()  # same seeds, no observer
        assert engine_t.network.rounds == engine_u.network.rounds
        assert engine_t.network.ledger.messages == engine_u.network.ledger.messages
        st, su = sched_t.stats(), sched_u.stats()
        assert st.walks_served == su.walks_served
        assert st.completed == su.completed == st.submitted
        assert st.tenants == su.tenants

    def test_scheduled_endpoints_keep_exact_law_under_tracing(self):
        g = complete_graph(6)
        length = 40
        dist = WalkSpectrum(g).distribution(0, length)
        engine = WalkEngine(g, seed=4321, record_paths=False)
        engine.attach_observability(tracer=Tracer(), metrics=MetricsRegistry())
        engine.prepare(lam=8)
        sched = engine.scheduler(max_batch_requests=8)
        tickets = [sched.submit([0] * 10, length) for _ in range(30)]
        sched.drain()
        endpoints = [d for t in tickets for d in t.result.destinations]
        assert len(endpoints) == 300
        observed = {v: endpoints.count(v) for v in set(endpoints)}
        expected = {v: float(dist[v]) for v in range(g.n) if dist[v] > 1e-12}
        assert not chi_square_goodness_of_fit(observed, expected).rejects_at(1e-4)

    def test_engine_without_attach_has_no_observer(self, torus_8x8=None):
        engine = WalkEngine(torus_graph(8, 8), seed=1, record_paths=False)
        assert engine.network.ledger.observer is None
        assert not engine.obs.active
        # The off path allocates nothing: one shared nullcontext.
        assert engine.obs.annotate(a=1) is engine.obs.annotate(b=2)

    def test_sinkless_attach_installs_inert_probe(self):
        engine = WalkEngine(torus_graph(8, 8), seed=1, record_paths=False)
        probe = engine.attach_observability()
        assert engine.network.ledger.observer is probe
        assert not probe.active and probe.tracer is None and probe.metrics is None
        res = engine.walk(0, 64, pooled=False, record_paths=False)
        assert res.rounds == engine.network.rounds


# ----------------------------------------------------------------------
# Balance: the trace IS the ledger, on a timeline
# ----------------------------------------------------------------------
class TestSpanBalance:
    def test_global_balance_through_churn_and_faults(self, traced_session):
        engine, _, _, tracer, _ = traced_session
        ledger = engine.network.ledger
        assert tracer.dropped == 0 and tracer.orphan_pops == 0
        assert tracer.open_depth == 0  # every push got its pop
        assert (
            tracer.total_self_rounds() + tracer.unattributed_rounds
            == ledger.rounds - tracer.attached_round
        )
        assert (
            tracer.total_self_messages() + tracer.unattributed_messages
            == ledger.messages - tracer.attached_messages
        )

    def test_per_phase_balance(self, traced_session):
        engine, _, _, tracer, _ = traced_session
        ledger = engine.network.ledger
        per = tracer.self_rounds_by_phase()
        baseline = tracer.attached_snapshot.phase_rounds
        for name, cell in ledger.phases.items():
            assert per.get(name, 0) == cell.rounds - baseline.get(name, 0), name
        assert set(per) <= set(ledger.phases)

    def test_attribution_scopes_sum_to_ledger_session_delta(self, traced_session):
        engine, sched, snap, tracer, _ = traced_session
        stats = sched.stats()
        assert stats.crashes_seen == 1 and stats.recoveries_seen == 1
        assert stats.completed == stats.submitted > 0
        # Scheduler-side extended identity (PR 7) still balances...
        delta = engine.network.ledger.delta_since(snap)
        attributed = sum(t["rounds_attributed"] for t in stats.tenants.values())
        maintain = delta.phase_rounds.get("pool-refill/maintain", 0)
        churn = delta.phase_rounds.get("pool-refill/churn", 0)
        recovery = delta.phase_rounds.get("serve/recovery", 0)
        assert attributed + maintain + churn + recovery == delta.rounds
        # ...and the trace carries the identical per-tenant split: the
        # "attribution" instants are the apportioned cohort shares.
        traced = {}
        for span in tracer.spans:
            if span.cat == "instant" and span.name == "attribution":
                tenant = span.args["tenant"]
                traced[tenant] = traced.get(tenant, 0) + span.args["rounds"]
        assert traced == {
            name: t["rounds_attributed"] for name, t in stats.tenants.items()
        }

    def test_spans_carry_context_and_episode_events(self, traced_session):
        _, _, _, tracer, _ = traced_session
        cats = {s.cat for s in tracer.spans}
        assert cats == {"phase", "scope", "instant"}
        scope_names = {s.name for s in tracer.spans if s.cat == "scope"}
        assert {"cohort", "ticket"} <= scope_names
        ticket_args = next(
            s.args for s in tracer.spans if s.cat == "scope" and s.name == "ticket"
        )
        assert {"ticket", "tenant", "cohort", "tick"} <= set(ticket_args)
        instants = {s.name for s in tracer.spans if s.cat == "instant"}
        assert {"churn", "crash", "recover"} <= instants
        crash = next(s for s in tracer.spans if s.name == "crash")
        assert crash.args["episode"] >= 1 and crash.args["nodes"] >= 1

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer(ring_size=8)
        engine = WalkEngine(torus_graph(8, 8), seed=3, record_paths=False)
        engine.attach_observability(tracer=tracer)
        engine.walk(0, 256, record_paths=False)
        assert tracer.emitted > 8
        assert len(tracer.spans) == 8
        assert tracer.dropped == tracer.emitted - 8
        # Oldest-first eviction: retained spans are the trailing sequence.
        seqs = [s.seq for s in tracer.spans]
        assert seqs == sorted(seqs) and seqs[-1] == tracer.emitted
        with pytest.raises(ValueError):
            Tracer(ring_size=0)


# ----------------------------------------------------------------------
# Determinism: fixed seed → byte-identical exports
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_trace_and_metrics_reproduce_at_fixed_seed(self):
        exports = []
        for _ in range(2):
            factory, source, length, seed, kwargs = SINGLE_CASES["torus8x8-l256-s7"]
            graph = factory()
            net = Network(graph, seed=0)
            tracer, metrics = Tracer(), MetricsRegistry()
            probe = Probe(tracer=tracer, metrics=metrics)
            net.ledger.observer = probe
            probe.attached(net.ledger)
            single_random_walk(graph, source, length, seed=seed, network=net, **kwargs)
            exports.append(
                (
                    tracer.to_jsonl(),
                    json.dumps(tracer.to_chrome_trace(), sort_keys=True),
                    metrics.to_prometheus_text(),
                )
            )
        assert exports[0] == exports[1]


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_schema_valid_and_loadable(self, traced_session, tmp_path):
        _, _, _, tracer, _ = traced_session
        path = tracer.write(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        phs = {ev["ph"] for ev in doc["traceEvents"]}
        assert phs <= {"M", "X", "i"}
        names = {
            ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "M"
        }
        assert {"process_name", "thread_name"} <= names
        for ev in doc["traceEvents"]:
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            if ev["ph"] == "X":
                assert isinstance(ev["ts"], int) and ev["ts"] >= 0
                assert isinstance(ev["dur"], int) and ev["dur"] >= 0
                assert ev["cat"] in ("phase", "scope")
            elif ev["ph"] == "i":
                assert ev["s"] == "p"
        other = doc["otherData"]
        assert other["dropped_spans"] == 0
        assert other["ring_size"] == tracer.ring_size

    def test_jsonl_and_chrome_agree(self, traced_session, tmp_path):
        _, _, _, tracer, _ = traced_session
        jsonl = load_spans(tracer.write(tmp_path / "trace.jsonl"))
        chrome = load_spans(tracer.write(tmp_path / "trace.json"))
        assert len(jsonl) == len(chrome) == len(tracer.spans)
        key = lambda s: sum(x["self_rounds"] for x in s if x["cat"] == "phase")
        assert key(jsonl) == key(chrome) == tracer.total_self_rounds()


# ----------------------------------------------------------------------
# Metrics registry + Prometheus exposition
# ----------------------------------------------------------------------
PROM_LINE = re.compile(
    r"^(?:"
    r"# (?:HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*(?: .*)?"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^{}]*\})? -?(?:[0-9.e+Ee-]+|\+Inf|NaN)"
    r")$"
)


#: Every sample ``traced_session`` exported from the push-side registry,
#: frozen before the families became read-time derivations of the
#: engine/scheduler counters.  Never regenerate it: it is the proof that
#: the derivation reproduces the old exposition sample for sample.
PINNED_SAMPLES = """\
repro_congestion_max 32
repro_events_total{kind="churn"} 1
repro_events_total{kind="crash"} 1
repro_events_total{kind="recover"} 1
repro_fault_nodes_total{kind="crash"} 1
repro_fault_nodes_total{kind="recover"} 1
repro_messages_total{phase="phase1"} 71242
repro_messages_total{phase="pool-refill/churn"} 70046
repro_messages_total{phase="pool-refill/serve"} 179
repro_messages_total{phase="serve/recovery"} 139265
repro_messages_total{phase="serve/report"} 256
repro_messages_total{phase="serve/sample"} 565017
repro_messages_total{phase="serve/setup"} 19779
repro_messages_total{phase="serve/stitch-route"} 7081
repro_messages_total{phase="serve/tail"} 3125
repro_messages_total{phase="setup"} 1801
repro_queue_depth 0
repro_requests_total{outcome="admitted",tenant="batch"} 13
repro_requests_total{outcome="admitted",tenant="free"} 15
repro_requests_total{outcome="admitted",tenant="pro"} 15
repro_rounds_attributed_total{tenant="batch"} 1442
repro_rounds_attributed_total{tenant="free"} 1870
repro_rounds_attributed_total{tenant="pro"} 2027
repro_rounds_total{phase="phase1"} 196
repro_rounds_total{phase="pool-refill/churn"} 192
repro_rounds_total{phase="pool-refill/serve"} 37
repro_rounds_total{phase="serve/recovery"} 523
repro_rounds_total{phase="serve/report"} 203
repro_rounds_total{phase="serve/sample"} 3068
repro_rounds_total{phase="serve/setup"} 94
repro_rounds_total{phase="serve/stitch-route"} 1541
repro_rounds_total{phase="serve/tail"} 396
repro_rounds_total{phase="setup"} 8
repro_tenant_fairness_dev{tenant="batch"} -0.05469188986701623
repro_tenant_fairness_dev{tenant="free"} 1.45176999438097
repro_tenant_fairness_dev{tenant="pro"} -0.33559655366173435
repro_ticket_latency_rounds_bucket{tenant="batch",le="1"} 0
repro_ticket_latency_rounds_bucket{tenant="batch",le="2"} 0
repro_ticket_latency_rounds_bucket{tenant="batch",le="4"} 0
repro_ticket_latency_rounds_bucket{tenant="batch",le="8"} 0
repro_ticket_latency_rounds_bucket{tenant="batch",le="16"} 0
repro_ticket_latency_rounds_bucket{tenant="batch",le="32"} 0
repro_ticket_latency_rounds_bucket{tenant="batch",le="64"} 0
repro_ticket_latency_rounds_bucket{tenant="batch",le="128"} 0
repro_ticket_latency_rounds_bucket{tenant="batch",le="256"} 0
repro_ticket_latency_rounds_bucket{tenant="batch",le="512"} 2
repro_ticket_latency_rounds_bucket{tenant="batch",le="1024"} 10
repro_ticket_latency_rounds_bucket{tenant="batch",le="2048"} 10
repro_ticket_latency_rounds_bucket{tenant="batch",le="4096"} 13
repro_ticket_latency_rounds_bucket{tenant="batch",le="8192"} 13
repro_ticket_latency_rounds_bucket{tenant="batch",le="16384"} 13
repro_ticket_latency_rounds_bucket{tenant="batch",le="32768"} 13
repro_ticket_latency_rounds_bucket{tenant="batch",le="65536"} 13
repro_ticket_latency_rounds_bucket{tenant="batch",le="+Inf"} 13
repro_ticket_latency_rounds_sum{tenant="batch"} 14159
repro_ticket_latency_rounds_count{tenant="batch"} 13
repro_ticket_latency_rounds_bucket{tenant="free",le="1"} 0
repro_ticket_latency_rounds_bucket{tenant="free",le="2"} 0
repro_ticket_latency_rounds_bucket{tenant="free",le="4"} 0
repro_ticket_latency_rounds_bucket{tenant="free",le="8"} 0
repro_ticket_latency_rounds_bucket{tenant="free",le="16"} 0
repro_ticket_latency_rounds_bucket{tenant="free",le="32"} 0
repro_ticket_latency_rounds_bucket{tenant="free",le="64"} 0
repro_ticket_latency_rounds_bucket{tenant="free",le="128"} 0
repro_ticket_latency_rounds_bucket{tenant="free",le="256"} 0
repro_ticket_latency_rounds_bucket{tenant="free",le="512"} 7
repro_ticket_latency_rounds_bucket{tenant="free",le="1024"} 14
repro_ticket_latency_rounds_bucket{tenant="free",le="2048"} 14
repro_ticket_latency_rounds_bucket{tenant="free",le="4096"} 15
repro_ticket_latency_rounds_bucket{tenant="free",le="8192"} 15
repro_ticket_latency_rounds_bucket{tenant="free",le="16384"} 15
repro_ticket_latency_rounds_bucket{tenant="free",le="32768"} 15
repro_ticket_latency_rounds_bucket{tenant="free",le="65536"} 15
repro_ticket_latency_rounds_bucket{tenant="free",le="+Inf"} 15
repro_ticket_latency_rounds_sum{tenant="free"} 11651
repro_ticket_latency_rounds_count{tenant="free"} 15
repro_ticket_latency_rounds_bucket{tenant="pro",le="1"} 0
repro_ticket_latency_rounds_bucket{tenant="pro",le="2"} 0
repro_ticket_latency_rounds_bucket{tenant="pro",le="4"} 0
repro_ticket_latency_rounds_bucket{tenant="pro",le="8"} 0
repro_ticket_latency_rounds_bucket{tenant="pro",le="16"} 0
repro_ticket_latency_rounds_bucket{tenant="pro",le="32"} 0
repro_ticket_latency_rounds_bucket{tenant="pro",le="64"} 0
repro_ticket_latency_rounds_bucket{tenant="pro",le="128"} 0
repro_ticket_latency_rounds_bucket{tenant="pro",le="256"} 0
repro_ticket_latency_rounds_bucket{tenant="pro",le="512"} 8
repro_ticket_latency_rounds_bucket{tenant="pro",le="1024"} 14
repro_ticket_latency_rounds_bucket{tenant="pro",le="2048"} 14
repro_ticket_latency_rounds_bucket{tenant="pro",le="4096"} 15
repro_ticket_latency_rounds_bucket{tenant="pro",le="8192"} 15
repro_ticket_latency_rounds_bucket{tenant="pro",le="16384"} 15
repro_ticket_latency_rounds_bucket{tenant="pro",le="32768"} 15
repro_ticket_latency_rounds_bucket{tenant="pro",le="65536"} 15
repro_ticket_latency_rounds_bucket{tenant="pro",le="+Inf"} 15
repro_ticket_latency_rounds_sum{tenant="pro"} 10691
repro_ticket_latency_rounds_count{tenant="pro"} 15
repro_ticket_service_rounds_bucket{tenant="batch",le="1"} 0
repro_ticket_service_rounds_bucket{tenant="batch",le="2"} 0
repro_ticket_service_rounds_bucket{tenant="batch",le="4"} 0
repro_ticket_service_rounds_bucket{tenant="batch",le="8"} 0
repro_ticket_service_rounds_bucket{tenant="batch",le="16"} 0
repro_ticket_service_rounds_bucket{tenant="batch",le="32"} 0
repro_ticket_service_rounds_bucket{tenant="batch",le="64"} 1
repro_ticket_service_rounds_bucket{tenant="batch",le="128"} 8
repro_ticket_service_rounds_bucket{tenant="batch",le="256"} 13
repro_ticket_service_rounds_bucket{tenant="batch",le="512"} 13
repro_ticket_service_rounds_bucket{tenant="batch",le="1024"} 13
repro_ticket_service_rounds_bucket{tenant="batch",le="2048"} 13
repro_ticket_service_rounds_bucket{tenant="batch",le="4096"} 13
repro_ticket_service_rounds_bucket{tenant="batch",le="8192"} 13
repro_ticket_service_rounds_bucket{tenant="batch",le="16384"} 13
repro_ticket_service_rounds_bucket{tenant="batch",le="32768"} 13
repro_ticket_service_rounds_bucket{tenant="batch",le="65536"} 13
repro_ticket_service_rounds_bucket{tenant="batch",le="+Inf"} 13
repro_ticket_service_rounds_sum{tenant="batch"} 1442
repro_ticket_service_rounds_count{tenant="batch"} 13
repro_ticket_service_rounds_bucket{tenant="free",le="1"} 0
repro_ticket_service_rounds_bucket{tenant="free",le="2"} 0
repro_ticket_service_rounds_bucket{tenant="free",le="4"} 0
repro_ticket_service_rounds_bucket{tenant="free",le="8"} 0
repro_ticket_service_rounds_bucket{tenant="free",le="16"} 0
repro_ticket_service_rounds_bucket{tenant="free",le="32"} 0
repro_ticket_service_rounds_bucket{tenant="free",le="64"} 1
repro_ticket_service_rounds_bucket{tenant="free",le="128"} 11
repro_ticket_service_rounds_bucket{tenant="free",le="256"} 14
repro_ticket_service_rounds_bucket{tenant="free",le="512"} 15
repro_ticket_service_rounds_bucket{tenant="free",le="1024"} 15
repro_ticket_service_rounds_bucket{tenant="free",le="2048"} 15
repro_ticket_service_rounds_bucket{tenant="free",le="4096"} 15
repro_ticket_service_rounds_bucket{tenant="free",le="8192"} 15
repro_ticket_service_rounds_bucket{tenant="free",le="16384"} 15
repro_ticket_service_rounds_bucket{tenant="free",le="32768"} 15
repro_ticket_service_rounds_bucket{tenant="free",le="65536"} 15
repro_ticket_service_rounds_bucket{tenant="free",le="+Inf"} 15
repro_ticket_service_rounds_sum{tenant="free"} 1870
repro_ticket_service_rounds_count{tenant="free"} 15
repro_ticket_service_rounds_bucket{tenant="pro",le="1"} 0
repro_ticket_service_rounds_bucket{tenant="pro",le="2"} 0
repro_ticket_service_rounds_bucket{tenant="pro",le="4"} 0
repro_ticket_service_rounds_bucket{tenant="pro",le="8"} 0
repro_ticket_service_rounds_bucket{tenant="pro",le="16"} 0
repro_ticket_service_rounds_bucket{tenant="pro",le="32"} 0
repro_ticket_service_rounds_bucket{tenant="pro",le="64"} 0
repro_ticket_service_rounds_bucket{tenant="pro",le="128"} 9
repro_ticket_service_rounds_bucket{tenant="pro",le="256"} 14
repro_ticket_service_rounds_bucket{tenant="pro",le="512"} 15
repro_ticket_service_rounds_bucket{tenant="pro",le="1024"} 15
repro_ticket_service_rounds_bucket{tenant="pro",le="2048"} 15
repro_ticket_service_rounds_bucket{tenant="pro",le="4096"} 15
repro_ticket_service_rounds_bucket{tenant="pro",le="8192"} 15
repro_ticket_service_rounds_bucket{tenant="pro",le="16384"} 15
repro_ticket_service_rounds_bucket{tenant="pro",le="32768"} 15
repro_ticket_service_rounds_bucket{tenant="pro",le="65536"} 15
repro_ticket_service_rounds_bucket{tenant="pro",le="+Inf"} 15
repro_ticket_service_rounds_sum{tenant="pro"} 2027
repro_ticket_service_rounds_count{tenant="pro"} 15
repro_tickets_completed_total{tenant="batch"} 13
repro_tickets_completed_total{tenant="free"} 15
repro_tickets_completed_total{tenant="pro"} 15
repro_ticks_total 19
repro_tokens_added_total{kind="churn"} 2400
repro_tokens_added_total{kind="recovery"} 4792
repro_tokens_evicted_total{cause="churn"} 1950
repro_tokens_evicted_total{cause="fault"} 4570
repro_trace_spans_dropped 0
repro_walks_served_total{tenant="batch"} 40
repro_walks_served_total{tenant="free"} 42
repro_walks_served_total{tenant="pro"} 46
"""


def _family(sample: str) -> str:
    """Metric family of one exposition sample line (histogram suffixes off)."""
    name = re.split(r"[{ ]", sample, maxsplit=1)[0]
    return re.sub(r"_(bucket|sum|count)$", "", name)


class TestMetrics:
    def test_exposition_format(self, traced_session, tmp_path):
        *_, metrics = traced_session
        path = metrics.write(tmp_path / "metrics.prom")
        text = path.read_text()
        assert text.endswith("\n")
        for line in text.splitlines():
            assert PROM_LINE.match(line), line
        # Every series has a HELP and TYPE header before its samples.
        assert text.count("# HELP") == text.count("# TYPE") == len(metrics)

    def test_histograms_are_cumulative(self, traced_session):
        *_, metrics = traced_session
        text = metrics.to_prometheus_text()
        hist = metrics.get("repro_ticket_latency_rounds")
        assert hist is not None
        for labels in ('tenant="free"', 'tenant="pro"'):
            buckets = [
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith("repro_ticket_latency_rounds_bucket") and labels in line
            ]
            assert buckets and buckets == sorted(buckets)  # cumulative
            count = next(
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith("repro_ticket_latency_rounds_count") and labels in line
            )
            assert buckets[-1] == count  # +Inf bucket == observation count

    def test_exposition_pinned_sample_for_sample(self, traced_session):
        *_, metrics = traced_session
        pinned = PINNED_SAMPLES.splitlines()
        families = {_family(line) for line in pinned}
        assert len(families) == 17 and len(pinned) == 168
        got = [
            line
            for line in metrics.to_prometheus_text().splitlines()
            if not line.startswith("#") and _family(line) in families
        ]
        assert got == pinned

    def test_pool_families_read_engine_stats(self, traced_session):
        # Not in the pin above: these families read the pool through
        # engine.stats() at export time.
        engine, *_, metrics = traced_session
        st = engine.stats()
        want = {
            "repro_pool_tokens_unused": st.pool_unused,
            "repro_pool_tokens_created": st.tokens_prepared,
            "repro_pool_tokens_consumed": st.tokens_consumed,
            "repro_shards_below_watermark": st.shards_below_watermark,
            "repro_shard_unused_min": st.shard_unused_min,
            "repro_shard_unused_max": st.shard_unused_max,
            "repro_pool_outstanding_deficit": st.outstanding_deficit,
            "repro_maintenance_sweeps_total": st.maintenance_sweeps,
        }
        assert {name: metrics.get(name).value() for name in want} == want

    def test_derived_families_are_rebuilt_on_read(self):
        engine = WalkEngine(torus_graph(8, 8), seed=2, record_paths=False)
        engine.walks([0, 5], 128)  # before attach: not counted
        before = engine.network.rounds
        metrics = MetricsRegistry()
        mine = metrics.counter("app_hits_total", "Application hits.")
        mine.inc(3)
        engine.attach_observability(metrics=metrics)
        engine.walks([7], 128)
        rounds = metrics.get("repro_rounds_total")
        assert rounds.total() == engine.network.rounds - before > 0
        engine.walks([9], 128)
        text = metrics.to_prometheus_text()
        assert metrics.get("repro_rounds_total").total() == engine.network.rounds - before
        # Registered families survive every read alongside the derived ones.
        assert "app_hits_total 3" in text.splitlines()
        assert metrics.get("app_hits_total") is mine and len(metrics) == text.count("# TYPE")
        assert text == metrics.to_prometheus_text()  # reading changes nothing

    def test_registry_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("walks_total", "Walks.")
        c.inc(3, tenant="a")
        c.inc(2, tenant="a")
        c.inc(1, tenant="b")
        assert c.value(tenant="a") == 5 and c.total() == 6
        with pytest.raises(ValueError):
            c.inc(-1)
        with pytest.raises(ValueError):
            reg.gauge("walks_total", "Kind mismatch.")
        g = reg.gauge("depth", "Depth.")
        g.set(4)
        g.set_max(2)
        assert g.value() == 4
        h = reg.histogram("lat", "Latency.")
        h.observe(3)
        h.observe(100)
        snap = reg.snapshot()
        json.dumps(snap)  # snapshot is JSON-able
        assert snap["walks_total"]["type"] == "counter"
        # Same labels, different kwarg order → the same series.
        c2 = reg.counter("pairs", "P.")
        c2.inc(1, a="1", b="2")
        c2.inc(1, b="2", a="1")
        assert c2.value(a="1", b="2") == 2

    def test_histogram_edges_match_latency_digest(self):
        # One edge tuple, one rule: the smallest edge >= value, and past
        # the last edge only the count (the +Inf bucket) moves.
        assert DEFAULT_LATENCY_BUCKETS is DEFAULT_BUCKETS
        hist, digest = MetricsRegistry().histogram("lat", "Latency."), LatencyDigest()
        values = (0, 1, 3, 4, 5, 65_536, 65_537, 10**9)
        for value in values:
            hist.observe(value)
            digest.note(value)
        (cell,) = hist.values.values()
        assert cell["counts"] == digest.counts[:-1]
        assert cell["count"] == len(values) and sum(cell["counts"]) == len(values) - 2


# ----------------------------------------------------------------------
# trace-report + CLI wiring
# ----------------------------------------------------------------------
class TestReportAndCli:
    def test_trace_report_summarizes_both_formats(self, traced_session, tmp_path, capsys):
        _, sched, _, tracer, _ = traced_session
        for suffix in ("json", "jsonl"):
            path = tracer.write(tmp_path / f"trace.{suffix}")
            assert cli_main(["trace-report", str(path), "--top", "5"]) == 0
            out = capsys.readouterr().out
            assert out.startswith("trace-report:")
            assert "top phases (by exclusive rounds):" in out
            assert "per-tenant rollup" in out
            assert "critical-path cohort:" in out
            for tenant in sched.stats().tenants:
                assert tenant in out

    def test_summarize_tenant_rollup_matches_attribution(self, traced_session):
        _, sched, _, tracer, _ = traced_session
        summary = summarize(tracer.span_dicts(), top=3)
        assert summary["total_self_rounds"] == tracer.total_self_rounds()
        assert len(summary["phases"]) == 3
        want = {n: t["rounds_attributed"] for n, t in sched.stats().tenants.items()}
        got = {n: c["attributed"] for n, c in summary["tenants"].items()}
        assert got == want
        assert summary["critical_cohort"] is not None
        assert {"churn", "crash", "recover"} <= set(summary["events"])

    def test_cli_walks_trace_and_metrics_flags(self, tmp_path, capsys):
        trace = tmp_path / "walks.jsonl"
        prom = tmp_path / "walks.prom"
        rc = cli_main(
            [
                "walks",
                "--graph",
                "torus:8x8",
                "--length",
                "128",
                "--k",
                "4",
                "--trace",
                str(trace),
                "--metrics-out",
                str(prom),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        spans = load_spans(trace)
        assert spans and all("cat" in s for s in spans)
        assert "# TYPE repro_rounds_total counter" in prom.read_text()


# ----------------------------------------------------------------------
# Consolidated telemetry: single-homed counters stay consistent
# ----------------------------------------------------------------------
class TestConsolidation:
    def test_scheduler_totals_derive_from_tenant_counters(self, traced_session):
        _, sched, _, _, _ = traced_session
        stats = sched.stats()
        tenants = stats.tenants.values()
        assert stats.submitted == sum(t["submitted"] for t in tenants)
        assert stats.completed == sum(t["completed"] for t in tenants)
        assert stats.walks_served == sum(t["walks_served"] for t in tenants)
        assert stats.rejected == sum(stats.rejects_by_reason.values())

    def test_engine_refills_survive_pool_reinstall(self):
        engine = WalkEngine(torus_graph(8, 8), seed=5, record_paths=False)
        result = engine.walks([0, 9, 21], 256)
        first = engine.stats().refills
        assert first == result.get_more_walks_calls
        engine.prepare(lam=4)  # re-prepare: a fresh pool
        second = engine.walks([3, 7], 128)
        total = engine.stats().refills
        assert total >= first  # retired refills are not forgotten
        assert total == first + second.get_more_walks_calls

    def test_maintenance_sweeps_survive_pool_reinstall(self):
        # A Prometheus counter must never go backwards: re-preparing the
        # pool used to reset the sweep count while the token count kept
        # its session total.
        engine = WalkEngine(torus_graph(8, 8), seed=5, watermark_fraction=1.0)
        metrics = MetricsRegistry()
        engine.attach_observability(metrics=metrics)
        for source in range(5):
            engine.walk(source, 256)
        before = engine.stats()
        assert before.maintenance_sweeps == 5
        engine.prepare(length_hint=256)
        after = engine.stats()
        assert after.maintenance_sweeps == before.maintenance_sweeps
        assert after.background_refill_tokens == before.background_refill_tokens
        assert metrics.get("repro_maintenance_sweeps_total").value() == 5
