"""Tests for the multi-tenant serving tier (``repro.serve.tenants`` + scheduler).

The load-bearing claims of PR 7:

* **Weighted fairness** — under saturating load, deficit round robin
  splits served walks (and therefore attributed ledger rounds) across
  tenants in ``weight / Σ weights`` proportion, within 10% at 1:2:4; a
  10× hot tenant cannot starve a light one.
* **Quotas defer, never drop** — a token-bucket round quota throttles a
  tenant whose attributed spend outruns its refill; its queued work is
  skipped, not shed, and completes once refills cover the debt.
* **Packing preserves exactness** — walk-count cohort packing splits
  tickets across cohorts, yet endpoints keep the exact ``P^ℓ`` law,
  trajectories remain genuine walks, and split results reassemble in
  source order.
* **A documented total order** — (tenant registration order, per-tenant
  (priority, deadline, submit-order) heaps, the persistent DRR cursor)
  fully determine the schedule: fixed seeds replay bit-identically.
* **The ledger identity extends per tenant** — Σ over tenants of
  attributed rounds + maintain + churn = session delta, to the round,
  and the golden one-shot ledgers are untouched.
"""

from __future__ import annotations

import pytest

from repro.dynamic import sample_churn_delta
from repro.engine import WalkEngine
from repro.errors import WalkError
from repro.graphs import complete_graph
from repro.markov import WalkSpectrum
from repro.serve import (
    DEFAULT_TENANT,
    Tenant,
    TenantRegistry,
    TrafficSpec,
    run_tenant_loop,
)
from repro.util.rng import make_rng
from repro.util.stats import chi_square_goodness_of_fit

from test_ledger_golden import GOLDEN_SINGLE


class TestTenantRegistry:
    def test_parse_spec_triples(self):
        reg = TenantRegistry.parse("alice:1:0,bob:2.5:100,carol:4:-")
        assert reg.order == ["alice", "bob", "carol"]
        assert reg.get("bob").weight == 2.5 and reg.get("bob").quota == 100
        assert reg.get("alice").quota is None and reg.get("carol").quota is None

    def test_parse_rejects_malformed(self):
        for bad in ("alice", "alice:1", ":1:0", "alice:x:0", "alice:1:y", "a:1:0,a:2:0"):
            with pytest.raises(WalkError):
                TenantRegistry.parse(bad)

    def test_register_validates_and_rejects_duplicates(self):
        reg = TenantRegistry()
        reg.register("a", weight=2.0)
        with pytest.raises(WalkError, match="already registered"):
            reg.register("a")
        with pytest.raises(WalkError, match="weight"):
            reg.register("b", weight=0.0)
        with pytest.raises(WalkError, match="quota"):
            reg.register("c", quota=0)
        with pytest.raises(WalkError, match="burst"):
            reg.register("d", burst=10)  # burst without quota
        with pytest.raises(WalkError, match="unknown tenant"):
            reg.get("nope")

    def test_ensure_auto_registers_at_weight_one(self):
        reg = TenantRegistry()
        t = reg.ensure("walk-in")
        assert t.weight == 1.0 and t.quota is None
        assert reg.ensure("walk-in") is t  # idempotent
        assert len(reg) == 1

    def test_token_bucket_refill_burst_and_throttle(self):
        t = Tenant(name="q", quota=10, burst=25)
        assert t.balance == 10 and not t.throttled
        t.refill()
        t.refill()
        assert t.balance == 25  # capped at the burst ceiling
        t.debit(30)
        assert t.balance == -5 and t.throttled  # overdraw is allowed
        t.refill()
        assert t.balance == 5 and not t.throttled
        free = Tenant(name="free")
        free.debit(1_000_000)
        assert not free.throttled  # unmetered tenants never throttle
        assert Tenant(name="d", quota=10).burst_cap == 40.0  # default 4·quota


def _saturate(sched, names, rng, *, ticks, k=4, length=128, backlog=6):
    """Keep every tenant's queue at least ``backlog`` tickets deep, each tick.

    Offered load therefore always exceeds every tenant's fair share, so the
    DRR split — not arrival luck — decides service.  Returns all tickets
    keyed by tenant.
    """
    n = sched.engine.graph.n
    tickets = {name: [] for name in names}
    for _ in range(ticks):
        for name in names:
            while len(sched._queues.get(name, ())) < backlog:
                sources = [int(s) for s in rng.integers(n, size=k)]
                tickets[name].append(sched.submit(sources, length, tenant=name))
        sched.tick()
    return tickets


class TestWeightedFairness:
    def test_attributed_shares_track_weights_1_2_4(self, torus_8x8):
        # The acceptance shape: saturating load, weights 1:2:4, 200 ticks
        # -> each tenant's share of attributed rounds within 10% relative
        # of weight / Σ weights.
        engine = WalkEngine(torus_8x8, seed=17, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=128)
        reg = TenantRegistry.parse("bronze:1:0,silver:2:0,gold:4:0")
        sched = engine.scheduler(
            tenants=reg,
            max_batch_walks=32,
            pipelined_report=True,
            maintain_round_budget=64,
            max_queue_depth=100_000,
        )
        _saturate(sched, reg.order, make_rng(5), ticks=200)
        stats = sched.stats().tenants
        total = sum(t["rounds_attributed"] for t in stats.values())
        assert total > 0
        for name, weight in (("bronze", 1), ("silver", 2), ("gold", 4)):
            share = stats[name]["rounds_attributed"] / total
            expected = weight / 7
            assert abs(share - expected) / expected < 0.10, (name, share, expected)

    def test_walk_shares_track_weights_too(self, torus_8x8):
        # Same regime, measured in served walks (what DRR actually grants).
        engine = WalkEngine(torus_8x8, seed=23, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=128)
        reg = TenantRegistry.parse("a:1:0,b:3:0")
        sched = engine.scheduler(
            tenants=reg, max_batch_walks=16, max_queue_depth=100_000
        )
        _saturate(sched, reg.order, make_rng(9), ticks=100)
        stats = sched.stats().tenants
        total = sum(t["walks_served"] for t in stats.values())
        assert abs(stats["b"]["walks_served"] / total - 0.75) < 0.05

    def test_hot_tenant_cannot_starve_a_light_one(self, torus_8x8):
        # "hot" offers 10x the load of "mouse" at equal weight.  mouse's
        # demand is below its fair share, so its queue must never build:
        # every mouse ticket is serviced promptly while hot's backlog grows.
        engine = WalkEngine(torus_8x8, seed=31, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=128)
        reg = TenantRegistry.parse("hot:1:0,mouse:1:0")
        sched = engine.scheduler(
            tenants=reg, max_batch_walks=32, max_queue_depth=100_000
        )
        rng = make_rng(3)
        mouse_tickets = []
        worst_mouse_backlog = 0
        for _ in range(60):
            for _ in range(10):
                sources = [int(s) for s in rng.integers(torus_8x8.n, size=4)]
                sched.submit(sources, 128, tenant="hot")
            sources = [int(s) for s in rng.integers(torus_8x8.n, size=4)]
            mouse_tickets.append(sched.submit(sources, 128, tenant="mouse"))
            sched.tick()
            worst_mouse_backlog = max(worst_mouse_backlog, len(sched._queues["mouse"]))
        assert len(sched._queues["hot"]) > 20  # hot really is oversubscribed
        assert worst_mouse_backlog <= 2  # mouse never waits behind hot's flood
        assert sum(t.status == "done" for t in mouse_tickets) >= len(mouse_tickets) - 2

    def test_quota_throttles_deferred_never_dropped(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=41, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=128)
        reg = TenantRegistry()
        reg.register("open", weight=1.0)
        reg.register("metered", weight=1.0, quota=60, burst=60)
        sched = engine.scheduler(
            tenants=reg, max_batch_walks=32, max_queue_depth=100_000
        )
        rng = make_rng(7)
        tickets = {"open": [], "metered": []}
        for _ in range(40):
            for name in reg.order:
                sources = [int(s) for s in rng.integers(torus_8x8.n, size=4)]
                tickets[name].append(sched.submit(sources, 128, tenant=name))
            sched.tick()
        stats = sched.stats()
        assert stats.tenants["metered"]["throttled_ticks"] > 0
        assert stats.tenants["open"]["throttled_ticks"] == 0
        # The quota caps spend harder than fair share would.
        assert (
            stats.tenants["metered"]["rounds_attributed"]
            < stats.tenants["open"]["rounds_attributed"]
        )
        sched.drain()
        for name in reg.order:
            assert all(t.status == "done" for t in tickets[name])  # never dropped
        final = sched.stats().tenants
        for name in reg.order:
            assert final[name]["completed"] == final[name]["admitted"]


class TestCohortPacking:
    def test_split_ticket_reassembles_in_source_order(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=11, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=128)
        sched = engine.scheduler(max_batch_walks=4)
        t = sched.submit(list(range(10)), 128)
        sched.drain()
        assert t.status == "done"
        assert t.walks_served == 10 and t.cohorts == 3  # ceil(10 / 4)
        assert sched.stats().cohort_splits == 2  # split twice, last chunk fits
        assert len(t.result.destinations) == 10
        assert all(0 <= d < torus_8x8.n for d in t.result.destinations)
        assert t.result.mode == "scheduled"
        assert t.rounds_attributed > 0

    def test_split_trajectories_are_genuine_walks(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=13, record_paths=True, auto_maintain=False)
        engine.prepare(length_hint=64, record_paths=True)
        sched = engine.scheduler(max_batch_walks=3)
        t = sched.submit([0, 9, 18, 27, 36, 45, 54], 64, record_paths=True)
        sched.drain()
        assert t.status == "done" and t.cohorts == 3
        assert t.result.positions is not None and len(t.result.positions) == 7
        for source, path in zip(t.request.sources, t.result.positions):
            assert len(path) == 65 and path[0] == source
            for a, b in zip(path[:-1], path[1:]):
                assert torus_8x8.has_edge(int(a), int(b))

    def test_packed_endpoints_follow_exact_law(self):
        # Two tenants, walk-count packing that splits nearly every ticket,
        # pipelined reports: endpoints must still follow P^l exactly.
        g = complete_graph(6)
        length = 40
        dist = WalkSpectrum(g).distribution(0, length)
        engine = WalkEngine(g, seed=4321, record_paths=False)
        engine.prepare(lam=8)
        reg = TenantRegistry.parse("a:1:0,b:2:0")
        sched = engine.scheduler(tenants=reg, max_batch_walks=16, pipelined_report=True)
        tickets = [
            sched.submit([0] * 10, length, tenant=reg.order[i % 2]) for i in range(30)
        ]
        sched.drain()
        assert sched.stats().cohort_splits > 0
        endpoints = [d for t in tickets for d in t.result.destinations]
        assert len(endpoints) == 300
        observed = {v: endpoints.count(v) for v in set(endpoints)}
        expected = {v: float(dist[v]) for v in range(g.n) if dist[v] > 1e-12}
        assert not chi_square_goodness_of_fit(observed, expected).rejects_at(1e-4)

    def test_pipelined_report_bills_shared_phase_only(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=19, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=128)
        sched = engine.scheduler(max_batch_walks=32, pipelined_report=True)
        tickets = [sched.submit([i, i + 1, i + 2], 128) for i in (0, 10, 20)]
        sched.drain()
        ledger = engine.network.ledger
        assert ledger.phase_rounds("serve/report") > 0
        assert ledger.phase_rounds("report") == 0  # no private convergecasts
        for t in tickets:
            assert t.rounds == 0  # the private delta is empty...
            assert t.rounds_attributed > 0  # ...the shared share is not

    def test_fifo_within_tenant_survives_splitting(self, torus_8x8):
        # Equal priority, no deadlines: same-tenant tickets must complete
        # in submission order even when every ticket is chunked.
        engine = WalkEngine(torus_8x8, seed=29, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=64)
        sched = engine.scheduler(max_batch_walks=4)
        tickets = [sched.submit([i, i + 1, i + 2], 64) for i in range(0, 30, 3)]
        sched.drain()
        completed = [t.completed_round for t in tickets]
        assert all(a <= b for a, b in zip(completed[:-1], completed[1:]))

    def test_fixed_seed_replays_bit_identically_across_tenants(self, torus_8x8):
        # The total order claim: (registration order, per-tenant heaps,
        # DRR cursor) leave no unordered choice anywhere.
        def stream(seed):
            engine = WalkEngine(torus_8x8, seed=seed, record_paths=False, auto_maintain=False)
            engine.prepare(length_hint=128)
            reg = TenantRegistry.parse("a:1:0,b:3:0")
            sched = engine.scheduler(tenants=reg, max_batch_walks=8, pipelined_report=True)
            rng = make_rng(101)
            tickets = []
            for i in range(12):
                sources = [int(s) for s in rng.integers(torus_8x8.n, size=5)]
                tickets.append(sched.submit(sources, 128, tenant=reg.order[i % 2]))
            sched.drain()
            trace = [
                (t.tenant, tuple(t.result.destinations), t.rounds_attributed, t.completed_round)
                for t in tickets
            ]
            return trace, engine.network.rounds

        a, ra = stream(29)
        b, rb = stream(29)
        assert a == b and ra == rb
        c, _ = stream(30)
        assert a != c


class TestTenantLedger:
    def test_per_tenant_identity_balances_through_churn(self, torus_8x8):
        # Σ per-tenant attributed + maintain + churn == session delta, to
        # the round, across a mid-stream churn event; and the per-tenant
        # sums agree with the per-ticket ones.
        engine = WalkEngine(torus_8x8, seed=37, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=128)
        snap = engine.network.ledger.capture()
        reg = TenantRegistry.parse("a:1:0,b:2:200,c:4:0")
        sched = engine.scheduler(
            tenants=reg,
            max_batch_walks=16,
            pipelined_report=True,
            maintain_round_budget=50,
            max_queue_depth=100_000,
        )
        rng = make_rng(12)
        tickets = _saturate(sched, reg.order, rng, ticks=20, backlog=3)
        churn = sample_churn_delta(engine.graph, rng, deletes=4, inserts=4)
        engine.apply_churn(churn)
        tickets2 = _saturate(sched, reg.order, rng, ticks=10, backlog=3)
        sched.drain()
        for _ in range(3):
            sched.tick()  # idle ticks: maintenance only
        delta = engine.network.ledger.delta_since(snap)
        stats = sched.stats().tenants
        attributed = sum(t["rounds_attributed"] for t in stats.values())
        maintain = delta.phase_rounds.get("pool-refill/maintain", 0)
        churn_rounds = delta.phase_rounds.get("pool-refill/churn", 0)
        assert churn_rounds > 0
        assert attributed + maintain + churn_rounds == delta.rounds
        for name in reg.order:
            by_ticket = sum(
                t.rounds_attributed for t in tickets[name] + tickets2[name]
            )
            assert stats[name]["rounds_attributed"] == by_ticket

    def test_golden_one_shot_ledger_untouched_by_tenants(self, torus_8x8):
        # The cheap in-situ canary: attaching a multi-tenant scheduler
        # must not perturb the one-shot path's pinned totals.
        from repro.walks import single_random_walk

        engine = WalkEngine(torus_8x8, seed=1, record_paths=False)
        engine.scheduler(
            tenants=TenantRegistry.parse("a:1:0,b:2:50"),
            max_batch_walks=8,
            pipelined_report=True,
        )
        res = single_random_walk(torus_8x8, 0, 256, seed=7)
        assert res.mode == "stitched" and res.rounds == GOLDEN_SINGLE["torus8x8-l256-s7"]["rounds"]


class TestTenantWorkload:
    def test_run_tenant_loop_keys_tickets_by_tenant(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=43, record_paths=False)
        reg = TenantRegistry.parse("x:1:0,y:2:0")
        sched = engine.scheduler(tenants=reg, max_batch_walks=16)
        specs = [
            TrafficSpec(n=torus_8x8.n, lengths=(64,), ks=(2,), tenant="x"),
            TrafficSpec(n=torus_8x8.n, lengths=(64,), ks=(2,), tenant="y"),
            TrafficSpec(n=torus_8x8.n, lengths=(64,), ks=(1,)),  # untagged
        ]
        out = run_tenant_loop(sched, specs, make_rng(3), rate=1.0, ticks=8)
        assert set(out) <= {"x", "y", DEFAULT_TENANT}
        for name, bucket in out.items():
            assert all(t.tenant == name for t in bucket)
            assert all(t.status == "done" for t in bucket)
