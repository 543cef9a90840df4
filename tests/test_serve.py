"""Tests for the round-driven serving subsystem (``repro.serve``).

The load-bearing claims of PR 4:

* **Admission control is free and per-shard** — a rejected request charges
  zero ledger rounds and carries a stable reason; the rejection rule is
  exactly "the source's shard sits below watermark and its estimated
  refill cost exceeds the request's round budget".
* **Deadlines are counted, never dropped** — a request that completes after
  its deadline round still returns its result and increments the miss
  counter.
* **No starvation** — a 10× hot-source stream cannot starve queued
  cold-source requests: (priority, deadline, FIFO) ordering services every
  earlier cold ticket no later than any later hot one.
* **Charged attribution balances** — shared cohort work lands in the
  ``"serve"``/``"pool-refill"`` phase families and never leaks into a
  request's private delta, yet per-cohort attributed rounds sum exactly to
  the ledger: requests + maintenance = session total, to the round.
* **Exactness survives merging** — endpoints of concurrently scheduled
  requests follow the exact ``P^ℓ`` law (chi-square), trajectories are
  genuine walks, fixed seeds replay the full stream.
"""

from __future__ import annotations

import pytest

from repro.engine import WalkEngine
from repro.errors import WalkError
from repro.graphs import complete_graph, random_regular_graph
from repro.markov import WalkSpectrum
from repro.obs import MetricsRegistry
from repro.serve import (
    DEFAULT_TENANT,
    REASON_QUEUE_FULL,
    REASON_SHARD_BUDGET,
    ServePolicy,
    TrafficSpec,
    WalkScheduler,
    run_closed_loop,
    run_open_loop,
    sample_request_args,
)
from repro.util.rng import make_rng
from repro.util.stats import chi_square_goodness_of_fit

from test_ledger_golden import GOLDEN_SINGLE


def _drain_until_depleted(engine, graph, length=256, limit=200):
    """Issue pooled walks (no auto-maintain) until some shard is depleted."""
    manager = engine.pool
    i = 0
    while not manager.depleted_shards():
        engine.walk(i % graph.n, length)
        i += 1
        assert i < limit, "stream never depleted any shard"


class TestSubmitAndAdmission:
    def test_rejected_requests_charge_zero_rounds(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=3, record_paths=False, auto_maintain=False)
        metrics = MetricsRegistry()
        engine.attach_observability(metrics=metrics)
        engine.prepare(length_hint=256)
        sched = engine.scheduler()
        _drain_until_depleted(engine, torus_8x8)
        shard = engine.pool.depleted_shards()[0]
        est = engine.pool.estimate_refill_rounds([shard])
        assert est > 1
        rounds_before = engine.network.rounds
        ticket = sched.submit(shard, 256, deadline=1)  # source in the shard (mod map)
        assert ticket.status == "rejected"
        assert ticket.reject_reason == REASON_SHARD_BUDGET
        assert engine.network.rounds == rounds_before  # admission is free
        assert ticket.rounds == 0 and ticket.rounds_attributed == 0
        assert ticket.result is None
        stats = sched.stats()
        assert stats.rejected == 1
        assert stats.rejects_by_reason == {REASON_SHARD_BUDGET: 1}
        # The same request with budget >= the estimate is admitted.
        ok = sched.submit(shard, 256, deadline=est + 10_000)
        assert ok.status == "queued"
        # Each tenant keeps its own reject reasons; the registry's
        # {tenant, reason} series and the session split derive from them.
        assert sched.submit(shard, 256, deadline=1, tenant="pro").status == "rejected"
        stats = sched.stats()
        assert stats.rejects_by_reason == {REASON_SHARD_BUDGET: 2}
        assert stats.tenants["pro"]["rejects_by_reason"] == {REASON_SHARD_BUDGET: 1}
        rejects = metrics.get("repro_admission_rejects_total").snapshot_series()
        assert rejects == [
            {"labels": {"reason": REASON_SHARD_BUDGET, "tenant": DEFAULT_TENANT}, "value": 1},
            {"labels": {"reason": REASON_SHARD_BUDGET, "tenant": "pro"}, "value": 1},
        ]
        requests = metrics.get("repro_requests_total")
        assert requests.value(tenant=DEFAULT_TENANT, outcome="admitted") == 1
        assert requests.value(tenant="pro", outcome="rejected") == 1

    def test_healthy_shard_admits_under_tight_budget(self, torus_8x8):
        # The rule is about *refillability*, not service cost: with every
        # shard at watermark there is nothing to refill, so even a 1-round
        # budget admits (and then misses its deadline, counted below).
        engine = WalkEngine(torus_8x8, seed=5, record_paths=False)
        engine.prepare(length_hint=256)
        sched = engine.scheduler()
        assert sched.submit(0, 256, deadline=1).status == "queued"

    def test_queue_full_rejects(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=1, record_paths=False)
        sched = engine.scheduler(max_queue_depth=2)
        assert sched.submit(0, 64).status == "queued"
        assert sched.submit(1, 64).status == "queued"
        t3 = sched.submit(2, 64)
        assert t3.status == "rejected" and t3.reject_reason == REASON_QUEUE_FULL
        sched.drain()
        assert sched.submit(3, 64).status == "queued"  # space again

    def test_malformed_requests_raise(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=1, record_paths=False)
        sched = engine.scheduler()
        with pytest.raises(WalkError, match="out of range"):
            sched.submit(torus_8x8.n + 3, 64)
        with pytest.raises(WalkError, match="length"):
            sched.submit(0, 0)
        with pytest.raises(WalkError, match="deadline"):
            sched.submit(0, 64, deadline=0)
        engine.prepare(length_hint=256)  # record_paths=False pool
        with pytest.raises(WalkError, match="record_paths"):
            sched.submit(0, 64, record_paths=True)

    def test_policy_validation(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=1)
        with pytest.raises(WalkError, match="not both"):
            WalkScheduler(engine, policy=ServePolicy(), max_batch_requests=2)
        with pytest.raises(WalkError, match="max_batch_requests"):
            engine.scheduler(max_batch_requests=0)
        with pytest.raises(WalkError, match="max_queue_depth"):
            engine.scheduler(max_queue_depth=0)


class TestDeadlines:
    def test_deadline_miss_counted_not_dropped(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=7, record_paths=False)
        engine.prepare(length_hint=256)
        sched = engine.scheduler()
        # Healthy shards admit under any budget; servicing takes far more
        # than 2 rounds, so the deadline is structurally missed.
        ticket = sched.submit([0, 9], 256, deadline=2)
        sched.drain()
        assert ticket.status == "done"
        assert ticket.result is not None and len(ticket.result.destinations) == 2
        assert ticket.deadline_missed
        assert ticket.completed_round > ticket.deadline_round
        assert sched.stats().deadline_misses == 1

    def test_generous_deadline_is_met(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=7, record_paths=False)
        engine.prepare(length_hint=256)
        sched = engine.scheduler()
        ticket = sched.submit([0, 9], 256, deadline=500_000)
        sched.drain()
        assert ticket.status == "done" and not ticket.deadline_missed
        assert sched.stats().deadline_misses == 0

    def test_deadline_orders_the_queue(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=7, record_paths=False)
        engine.prepare(length_hint=256)
        sched = engine.scheduler(max_batch_requests=1)
        relaxed = sched.submit(0, 256, deadline=900_000)
        urgent = sched.submit(9, 256, deadline=10_000)
        sched.drain()
        assert urgent.serviced_tick < relaxed.serviced_tick

    def test_priority_beats_fifo(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=7, record_paths=False)
        engine.prepare(length_hint=256)
        sched = engine.scheduler(max_batch_requests=1)
        late_low = sched.submit(0, 256, priority=5)
        early_high = sched.submit(9, 256, priority=0)
        sched.drain()
        assert early_high.serviced_tick < late_low.serviced_tick


class TestNoStarvation:
    def test_hot_stream_cannot_starve_cold_requests(self, torus_8x8):
        # 10 hot-source submissions per cold one, tiny cohorts: every cold
        # ticket must complete, and no hot ticket submitted after a cold
        # one may be serviced before it (FIFO within a class).
        engine = WalkEngine(torus_8x8, seed=23, record_paths=False, num_shards=8)
        engine.prepare(length_hint=256)
        sched = engine.scheduler(max_batch_requests=2)
        cold, hot = [], []
        src = 1
        for i in range(44):
            if i % 11 == 0:
                src = (src + 7) % torus_8x8.n
                cold.append(sched.submit(src, 256))
            else:
                hot.append(sched.submit(0, 256))
        sched.drain()
        assert all(t.status == "done" for t in cold)
        for c in cold:
            for h in hot:
                if h.ticket_id > c.ticket_id:
                    assert h.serviced_tick >= c.serviced_tick
        # The shared pool survived the attack at watermark everywhere.
        manager = engine.pool
        unused = manager.shard_unused()
        for shard in manager.shards:
            assert unused[shard.shard_id] >= shard.low_watermark


class TestLedgerBalance:
    def test_private_deltas_contain_only_report(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=11, record_paths=False)
        engine.prepare(length_hint=256)
        sched = engine.scheduler(max_batch_requests=3)
        tickets = [sched.submit([(7 * i) % 64, (11 * i + 5) % 64], 256) for i in range(7)]
        sched.drain()
        for t in tickets:
            assert t.status == "done"
            assert set(t.result.phase_rounds) <= {"report"}, t.result.phase_rounds
            assert t.rounds == t.result.phase_rounds.get("report", 0)

    def test_attributed_rounds_balance_session_ledger(self, torus_8x8):
        # Requests + budgeted maintenance = session total, to the round:
        # shared cohort work is apportioned exactly, background sweeps are
        # the only other charge, and rejected requests contribute nothing.
        engine = WalkEngine(torus_8x8, seed=13, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=256)
        base = engine.network.rounds
        sched = engine.scheduler(max_batch_requests=2, maintain_round_budget=50)
        tickets = []
        for i in range(9):
            tickets.append(sched.submit([(5 * i) % 64], 256, deadline=1_000_000))
        sched.drain()
        for _ in range(3):
            sched.tick()  # idle ticks: maintenance only
        done = [t for t in tickets if t.status == "done"]
        assert len(done) == 9
        ledger = engine.network.ledger
        maintain_rounds = ledger.phase_rounds("pool-refill/maintain")
        attributed = sum(t.rounds_attributed for t in done)
        assert attributed + maintain_rounds == engine.network.rounds - base
        # Shared work really lives in the serve family (plus shared refills).
        assert ledger.phase_total("serve") > 0
        served_shared = sum(t.rounds_attributed - t.rounds for t in done)
        assert served_shared == ledger.phase_total("serve") + ledger.phase_rounds(
            "pool-refill/serve"
        )

    def test_report_opt_out_gives_zero_private_delta(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=11, record_paths=False)
        engine.prepare(length_hint=256)
        sched = engine.scheduler()
        t = sched.submit([0, 9], 256, report_to_source=False)
        sched.drain()
        assert t.status == "done" and t.rounds == 0
        assert t.rounds_attributed > 0  # still owes its cohort share

    def test_golden_one_shot_ledgers_untouched_by_serve_import(self, torus_8x8):
        # Importing/attaching the serving layer must not perturb the
        # one-shot path (the golden suite pins exact totals; this is the
        # cheap in-situ canary).
        from repro.walks import single_random_walk

        engine = WalkEngine(torus_8x8, seed=1, record_paths=False)
        engine.scheduler()
        res = single_random_walk(torus_8x8, 0, 256, seed=7)
        assert res.mode == "stitched" and res.rounds == GOLDEN_SINGLE["torus8x8-l256-s7"]["rounds"]


class TestSchedulingAndResults:
    def test_cohort_merges_requests_and_mixed_lengths(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=17, record_paths=True)
        engine.prepare(lam=12, record_paths=True)
        sched = engine.scheduler(max_batch_requests=4)
        a = sched.submit([0, 9], 64, record_paths=True)
        b = sched.submit([17], 256, record_paths=True)
        c = sched.submit(33, 100, record_paths=True)
        rep = sched.tick()
        assert set(rep.serviced) == {a.ticket_id, b.ticket_id, c.ticket_id}
        for t, length in ((a, 64), (b, 256), (c, 100)):
            assert t.status == "done" and t.result.mode == "scheduled"
            for traj, dest, src in zip(
                t.result.positions, t.result.destinations, t.result.sources
            ):
                assert len(traj) == length + 1
                assert traj[0] == src and traj[-1] == dest
                for u, v in zip(traj[:-1], traj[1:]):
                    assert torus_8x8.has_edge(int(u), int(v))

    def test_cold_trajectory_request_survives_earlier_pathless_cohort(self, torus_8x8):
        # Regression: on a COLD engine the pool is installed by whichever
        # cohort runs first.  A trajectory request queued behind a cohort
        # of endpoint-only requests must still get its positions — the
        # scheduler remembers the wish and prepares the pool path-capable.
        engine = WalkEngine(torus_8x8, seed=41, record_paths=False)
        sched = engine.scheduler(max_batch_requests=2)
        sched.submit([0], 256)
        sched.submit([9], 256)
        traj = sched.submit([17], 256, record_paths=True)  # lands in cohort 2
        sched.drain()
        assert engine.pool is not None and engine.pool.record_paths
        assert traj.status == "done"
        assert traj.result.positions is not None
        (positions,) = traj.result.positions
        assert len(positions) == 257 and positions[-1] == traj.result.destinations[0]

    def test_pool_swap_under_queued_trajectory_request_raises(self, torus_8x8):
        # The engine owner re-prepares a pathless pool while a trajectory
        # ticket waits in the queue: servicing must fail loudly, not
        # silently return positions=None.
        engine = WalkEngine(torus_8x8, seed=43, record_paths=False)
        sched = engine.scheduler()
        ticket = sched.submit([0], 256, record_paths=True)  # cold engine: admitted
        engine.prepare(length_hint=256, record_paths=False)  # sabotage
        with pytest.raises(WalkError, match="re-prepared with record_paths=False"):
            sched.tick()
        assert ticket.status == "queued"  # not silently completed

    def test_rejected_trajectory_wish_does_not_tax_the_pool(self, torus_8x8):
        # A REJECTED cold-engine trajectory request must not force the
        # eventual auto-prepared pool to record paths for the session.
        engine = WalkEngine(torus_8x8, seed=43, record_paths=False)
        sched = engine.scheduler(max_queue_depth=1)
        sched.submit([0], 256)  # fills the queue
        rejected = sched.submit([9], 256, record_paths=True)
        assert rejected.status == "rejected"
        sched.drain()
        assert engine.pool is not None and not engine.pool.record_paths

    def test_naive_regime_without_pool(self, torus_8x8):
        # Short walks on a cold engine: the k-enlarged policy says naive,
        # no pool is installed, and the cohort completes as merged tails.
        engine = WalkEngine(torus_8x8, seed=19, record_paths=False)
        sched = engine.scheduler()
        t1 = sched.submit([0, 9, 21], 3)
        t2 = sched.submit([5], 2)
        sched.drain()
        assert engine.pool is None
        for t in (t1, t2):
            assert t.status == "done" and t.result.lam == 0
        assert len(t1.result.destinations) == 3

    def test_scheduler_auto_prepares_with_k_enlarged_lambda(self):
        g = random_regular_graph(400, 4, 3)
        engine = WalkEngine(g, seed=3, record_paths=False)
        sched = engine.scheduler(max_batch_requests=8)
        for i in range(8):
            sched.submit([(i * 11) % g.n, (i * 17 + 1) % g.n], 512)
        sched.drain()
        pool = engine.pool
        assert pool is not None and engine.stats().full_preparations == 1
        # λ came from the cohort-wide many_walks policy, not the
        # single-walk √(ℓD) one — it must exceed the single-walk choice.
        from repro.walks.params import many_walks_params, single_walk_params

        d_est = max(1, 2 * engine._tree_cache[sched.root].height)
        assert pool.lam == many_walks_params(16, 512, d_est, n=g.n).lam
        assert pool.lam > single_walk_params(512, d_est, n=g.n).lam

    def test_cold_single_walk_cohort_prepares_what_walks_would(self, torus_8x8):
        # One cold-pool rule: a cohort of one walk gets Theorem 2.5's λ,
        # the pool engine.walks([s], l) prepares for the same walk.
        scheduled = WalkEngine(torus_8x8, seed=5, record_paths=False)
        sched = scheduled.scheduler()
        sched.submit([3], 256)
        sched.drain()
        direct = WalkEngine(torus_8x8, seed=5, record_paths=False)
        direct.walks([3], 256)
        assert scheduled.pool.lam == direct.pool.lam == 26

    def test_fixed_seed_replays_identically(self, torus_8x8):
        def stream(seed):
            engine = WalkEngine(torus_8x8, seed=seed, record_paths=False)
            sched = engine.scheduler(max_batch_requests=3)
            tickets = [
                sched.submit([(3 * i) % 64, (5 * i + 2) % 64], 256) for i in range(6)
            ]
            sched.drain()
            return [
                (tuple(t.result.destinations), t.rounds_attributed) for t in tickets
            ], engine.network.rounds

        a, ra = stream(29)
        b, rb = stream(29)
        assert a == b and ra == rb
        c, _ = stream(30)
        assert a != c

    def test_scheduled_endpoints_follow_exact_law(self):
        # 30 concurrently scheduled k=10 requests, pool + merged sweeps +
        # shared refills: endpoints must still follow P^l exactly.
        g = complete_graph(6)
        length = 40
        dist = WalkSpectrum(g).distribution(0, length)
        engine = WalkEngine(g, seed=4321, record_paths=False)
        engine.prepare(lam=8)
        sched = engine.scheduler(max_batch_requests=8)
        tickets = [sched.submit([0] * 10, length) for _ in range(30)]
        sched.drain()
        endpoints = [d for t in tickets for d in t.result.destinations]
        assert len(endpoints) == 300
        observed = {v: endpoints.count(v) for v in set(endpoints)}
        expected = {v: float(dist[v]) for v in range(g.n) if dist[v] > 1e-12}
        assert not chi_square_goodness_of_fit(observed, expected).rejects_at(1e-4)

    def test_engine_stats_surface_serve_telemetry(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=1, record_paths=False)
        assert engine.stats().serve is None
        sched = engine.scheduler()
        sched.submit([0, 9], 256)
        sched.drain()
        serve = engine.stats().serve
        assert serve is not None
        assert serve["submitted"] == 1 and serve["completed"] == 1
        assert serve["walks_served"] == 2
        assert serve["p99_rounds_per_request"] >= serve["p50_rounds_per_request"] > 0

    def test_idle_tick_is_cheap_and_safe(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=1, record_paths=False)
        engine.prepare(length_hint=256)
        sched = engine.scheduler()
        before = engine.network.rounds
        rep = sched.tick()
        assert rep.serviced == () and engine.network.rounds == before


class TestWorkloads:
    def test_spec_validation(self):
        with pytest.raises(WalkError, match="hot_fraction"):
            TrafficSpec(n=10, hot_fraction=2.0)
        with pytest.raises(WalkError, match="at least one"):
            TrafficSpec(n=10, lengths=())
        with pytest.raises(WalkError, match="hot_source"):
            TrafficSpec(n=10, hot_source=99)

    def test_sample_request_args_respects_spec(self):
        spec = TrafficSpec(n=50, lengths=(64, 128), ks=(2, 4), hot_fraction=1.0, hot_source=7)
        rng = make_rng(3)
        for _ in range(20):
            args = sample_request_args(spec, rng)
            assert args["length"] in (64, 128)
            assert len(args["sources"]) in (2, 4)
            assert all(s == 7 for s in args["sources"])

    def test_open_loop_serves_all_arrivals(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=31, record_paths=False)
        sched = engine.scheduler(max_batch_requests=4)
        spec = TrafficSpec(n=torus_8x8.n, lengths=(256,), ks=(1, 2), hot_fraction=0.3)
        tickets = run_open_loop(sched, spec, make_rng(5), rate=2.0, ticks=6)
        assert tickets, "Poisson(2) over 6 ticks produced no arrivals?"
        assert all(t.status in ("done", "rejected") for t in tickets)
        assert sched.queue_depth == 0

    def test_closed_loop_completes_total(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=37, record_paths=False)
        sched = engine.scheduler(max_batch_requests=2)
        spec = TrafficSpec(n=torus_8x8.n, lengths=(256,), ks=(1,))
        tickets = run_closed_loop(sched, spec, make_rng(7), concurrency=3, total=10)
        assert len(tickets) == 10
        assert all(t.status == "done" for t in tickets)
