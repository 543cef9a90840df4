"""Crash-fault-tolerant serving: engine recovery + scheduler degradation.

The PR-6 robustness surface.  A :class:`~repro.congest.faults.FaultSchedule`
attached to a :class:`~repro.engine.core.WalkEngine` fires crash/recover
node events as the session's round counter passes them; the engine evicts
dead pooled state, recovers in-flight walks from their last live prefix,
and bills every recovery round to the ``"serve/recovery"`` ledger phase.
The scheduler parks tickets whose sources are down (retried, never
dropped), waits out crashes with charged exponential backoff, and steers
maintenance around stalled shards.

Invariants under test:

* **Exactness** — post-recovery endpoints follow ``P^ℓ`` on the live
  graph (chi-square), because every step sampled from a node whose
  neighborhood changed is truncated and resampled at recovery time.
* **Accounting** — Σ per-ticket attributed rounds + maintain + churn +
  recovery phases equals the session's ledger delta exactly.
* **Degradation** — every admitted ticket completes; deadline misses are
  counted, requests are never dropped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest.faults import FaultSchedule, FaultStep
from repro.engine import WalkEngine
from repro.engine.faults import RECOVERY_PHASE
from repro.errors import WalkError
from repro.graphs.graph import Graph
from repro.graphs import cycle_graph, torus_graph
from repro.markov import WalkSpectrum
from repro.util.stats import chi_square_goodness_of_fit

from test_ledger_golden import GOLDEN_SINGLE


def _drain_with_faults(engine, scheduler, sources, length, *, deadline=1_000_000):
    tickets = [scheduler.submit([s], length, deadline=deadline) for s in sources]
    scheduler.drain()
    return tickets


class TestApplyFaults:
    def test_crash_then_recover_restores_topology(self):
        g = torus_graph(6, 6)
        engine = WalkEngine(g, seed=3, record_paths=True, auto_maintain=False)
        engine.prepare(lam=4)
        victim = 7
        saved_neighbors = set(engine.graph.neighbor_set(victim))
        rep = engine.apply_faults(FaultStep(at_round=0, crash=(victim,)))
        assert engine.graph.degree(victim) == 0
        assert rep.crashed == (victim,)
        assert rep.edges_deleted == len(saved_neighbors)
        assert rep.tokens_evicted >= rep.tokens_lost_at_crashed > 0
        rep2 = engine.apply_faults(FaultStep(at_round=0, recover=(victim,)))
        assert rep2.recovered == (victim,)
        assert rep2.edges_restored == len(saved_neighbors)
        assert set(engine.graph.neighbor_set(victim)) == saved_neighbors

    def test_recovery_restores_weights(self):
        # A weighted star: crash the leaf, recover it, weights must come
        # back exactly (not reset to 1.0).
        g = Graph(4, [(0, 1), (0, 2), (0, 3)], weights=[2.5, 1.0, 7.0], name="wstar")
        engine = WalkEngine(g, seed=1, record_paths=True, auto_maintain=False)
        engine.prepare(lam=2)
        before = {
            tuple(sorted(e)): w
            for e, w in zip(engine.graph.edge_array.tolist(), engine.graph.edge_weights())
        }
        engine.apply_faults(FaultStep(at_round=0, crash=(3,)))
        engine.apply_faults(FaultStep(at_round=0, recover=(3,)))
        after = {
            tuple(sorted(e)): w
            for e, w in zip(engine.graph.edge_array.tolist(), engine.graph.edge_weights())
        }
        assert after == before

    def test_overlapping_crashes_owed_edge_transfer(self):
        # Crash u, then its neighbor v, then recover u while v is still
        # down: the u–v edge must stay out (owed to v) and return only at
        # v's recovery — no edge lost, no edge duplicated.
        g = cycle_graph(8)
        engine = WalkEngine(g, seed=2, record_paths=True, auto_maintain=False)
        engine.prepare(lam=2)
        m0 = engine.graph.m
        engine.apply_faults(FaultStep(at_round=0, crash=(2,)))
        engine.apply_faults(FaultStep(at_round=0, crash=(3,)))
        engine.apply_faults(FaultStep(at_round=0, recover=(2,)))
        assert not engine.graph.has_edge(2, 3)  # owed to 3, still down
        assert engine.graph.has_edge(1, 2)
        engine.apply_faults(FaultStep(at_round=0, recover=(3,)))
        assert engine.graph.has_edge(2, 3)
        assert engine.graph.has_edge(3, 4)
        assert engine.graph.m == m0

    def test_simultaneous_crash_and_recover_pair(self):
        # Two adjacent nodes crash in one step and recover in one step;
        # their shared edge must be claimed exactly once and restored
        # exactly once.
        g = cycle_graph(10)
        engine = WalkEngine(g, seed=4, record_paths=True, auto_maintain=False)
        engine.prepare(lam=2)
        m0 = engine.graph.m
        engine.apply_faults(FaultStep(at_round=0, crash=(4, 5)))
        assert engine.graph.degree(4) == 0 and engine.graph.degree(5) == 0
        engine.apply_faults(FaultStep(at_round=0, recover=(4, 5)))
        assert engine.graph.has_edge(4, 5)
        assert engine.graph.m == m0

    def test_recovery_charged_to_recovery_phase(self):
        g = torus_graph(6, 6)
        engine = WalkEngine(g, seed=5, record_paths=True, auto_maintain=False)
        engine.prepare(lam=4)
        before = engine.network.ledger.phase_rounds(RECOVERY_PHASE)
        rep = engine.apply_faults(FaultStep(at_round=0, crash=(11,)))
        after = engine.network.ledger.phase_rounds(RECOVERY_PHASE)
        assert rep.rounds > 0
        assert after - before == rep.rounds
        assert engine.stats().fault_recovery_rounds == after

    def test_recover_of_live_node_is_noop(self):
        # The ad-hoc injection path is idempotent (replays must be safe):
        # recovering a node that never crashed does nothing.
        g = cycle_graph(6)
        engine = WalkEngine(g, seed=6, record_paths=True, auto_maintain=False)
        m0 = engine.graph.m
        rep = engine.apply_faults(FaultStep(at_round=0, recover=(2,)))
        assert rep.recovered == ()
        assert rep.edges_restored == 0
        assert engine.graph.m == m0


class TestFaultServing:
    def _engine_and_scheduler(self, g, *, seed=31, batch=2, budget=40):
        engine = WalkEngine(g, seed=seed, record_paths=True, auto_maintain=False)
        engine.prepare(lam=5)
        scheduler = engine.scheduler(
            max_batch_requests=batch, maintain_round_budget=budget
        )
        return engine, scheduler

    def test_drain_completes_every_ticket_under_crashes(self):
        # The acceptance scenario: a seeded crash/recover schedule over an
        # 8-request drain — zero drops, every ticket DONE with a result.
        g = torus_graph(8, 8)
        engine, scheduler = self._engine_and_scheduler(g)
        base = engine.network.rounds
        schedule = FaultSchedule.sample(
            g,
            crashes=4,
            start_round=base + 100,
            end_round=base + 4_000,
            recover_after=400,
            seed=99,
        )
        engine.attach_faults(schedule)
        tickets = _drain_with_faults(engine, scheduler, [(9 * i) % 64 for i in range(8)], 128)
        stats = scheduler.stats()
        assert stats.crashes_seen > 0
        assert all(t.status == "done" and t.result is not None for t in tickets)
        assert stats.completed == len(tickets)

    def test_extended_ledger_identity_exact(self):
        # Σ attributed + maintain + churn + recovery == session delta,
        # to the round, across a crash/recovery episode.
        g = torus_graph(8, 8)
        engine, scheduler = self._engine_and_scheduler(g)
        base = engine.network.rounds
        engine.attach_faults(
            FaultSchedule.sample(
                g,
                crashes=4,
                start_round=base + 100,
                end_round=base + 4_000,
                recover_after=400,
                seed=99,
            )
        )
        snap = engine.network.ledger.capture()
        tickets = _drain_with_faults(engine, scheduler, [(9 * i) % 64 for i in range(8)], 128)
        delta = engine.network.ledger.delta_since(snap)
        attributed = sum(t.rounds_attributed for t in tickets)
        maintain = delta.phase_rounds.get("pool-refill/maintain", 0)
        churn = delta.phase_rounds.get("pool-refill/churn", 0)
        recovery = delta.phase_rounds.get(RECOVERY_PHASE, 0)
        assert recovery > 0
        assert attributed + maintain + churn + recovery == delta.rounds
        assert scheduler.stats().recovery_rounds == engine.network.ledger.phase_rounds(
            RECOVERY_PHASE
        )

    def test_crashed_source_parked_and_retried(self):
        # A ticket whose source is down when it reaches the head of the
        # queue is parked (retries += 1) and serviced after the scheduled
        # recovery — never dropped.
        g = torus_graph(6, 6)
        engine, scheduler = self._engine_and_scheduler(g, batch=1)
        base = engine.network.rounds
        victim = 14
        engine.attach_faults(
            FaultSchedule(
                steps=(
                    FaultStep(at_round=base, crash=(victim,)),
                    FaultStep(at_round=base + 600, recover=(victim,)),
                )
            )
        )
        t_crashed = scheduler.submit([victim], 64, deadline=1_000_000)
        t_live = scheduler.submit([0], 64, deadline=1_000_000)
        scheduler.drain()
        assert t_crashed.status == "done" and t_crashed.result is not None
        assert t_live.status == "done"
        assert t_crashed.retries >= 1
        stats = scheduler.stats()
        assert stats.ticket_retries >= 1
        assert stats.completed == 2

    def test_permanent_crash_stop_fails_loudly(self):
        # Crash-stop with no scheduled recovery: serving the dead source
        # must raise, not spin forever.
        g = torus_graph(6, 6)
        engine, scheduler = self._engine_and_scheduler(g, batch=1)
        base = engine.network.rounds
        victim = 14
        engine.attach_faults(
            FaultSchedule(steps=(FaultStep(at_round=base, crash=(victim,)),))
        )
        scheduler.submit([victim], 64, deadline=1_000_000)
        with pytest.raises(WalkError, match="no scheduled recovery"):
            scheduler.drain()

    def test_endpoint_law_exact_through_crash_recovery(self):
        # The §5 exactness claim, end to end: a node crashes and recovers
        # mid-cohort, every step sampled from its mutated neighborhood is
        # truncated and resampled, and the served endpoints still follow
        # P^ℓ on the (restored) graph.
        g = cycle_graph(9)
        engine = WalkEngine(g, seed=5, record_paths=True, auto_maintain=False)
        engine.prepare(lam=4)
        base = engine.network.rounds
        engine.attach_faults(
            FaultSchedule(
                steps=(
                    FaultStep(at_round=base + 20, crash=(4,)),
                    FaultStep(at_round=base + 120, recover=(4,)),
                )
            )
        )
        scheduler = engine.scheduler(max_batch_requests=400, max_queue_depth=500)
        total = 360
        length = 16
        tickets = [scheduler.submit([0], length) for _ in range(total)]
        scheduler.drain()
        stats = scheduler.stats()
        # The episode must actually have hit the cohort, else the test
        # tests nothing.
        assert stats.crashes_seen == 1 and stats.recoveries_seen == 1
        assert stats.walks_recovered + stats.walks_restarted > 0
        endpoints = [int(t.result.destinations[0]) for t in tickets]
        dist = WalkSpectrum(g).distribution(0, length)
        observed = {v: endpoints.count(v) for v in set(endpoints)}
        expected = {v: float(dist[v]) for v in range(g.n) if dist[v] > 1e-12}
        assert not chi_square_goodness_of_fit(observed, expected).rejects_at(1e-4)

    def test_run_fault_loop_completes_and_recovers(self):
        from repro.serve import TrafficSpec, run_fault_loop

        g = torus_graph(6, 6)
        engine = WalkEngine(g, seed=8, record_paths=False, auto_maintain=False)
        scheduler = engine.scheduler(max_batch_requests=4, maintain_round_budget=64)
        spec = TrafficSpec(n=g.n, lengths=(64,), ks=(2,))
        tickets = run_fault_loop(
            scheduler,
            spec,
            np.random.default_rng(12),
            crash_rate=0.05,
            recover_after=300,
            ticks=8,
            rate=1.0,
            fault_seed=21,
        )
        stats = scheduler.stats()
        assert stats.crashes_seen > 0
        assert all(t.status == "done" for t in tickets if t.reject_reason is None)
        assert stats.completed == sum(1 for t in tickets if t.reject_reason is None)

    def test_golden_one_shot_ledger_unchanged(self):
        # The fault machinery must be invisible when no schedule is
        # attached: the PR-2 golden one-shot walk cost is bit-identical.
        from repro.walks import single_random_walk

        res = single_random_walk(torus_graph(8, 8), 0, 256, seed=7)
        assert res.mode == "stitched" and res.rounds == GOLDEN_SINGLE["torus8x8-l256-s7"]["rounds"]
