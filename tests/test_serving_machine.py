"""Stateful test of the serving stack: one engine, one scheduler, every serving operation.

A hypothesis state machine drives one :class:`~repro.engine.WalkEngine`
(torus 6×6 or barbell(8, 3), with a tracer and a heatmap attached) and a
two-tenant scheduler through random interleavings of:

* submit: 1–4 walks from live sources, ℓ ∈ {8, 24, 64}, with or without a
  deadline, for either tenant;
* tick;
* background maintenance with a round budget of ``None``, 1 or 16;
* churn through ``apply_churn`` with a connectivity-preserving delta;
* attaching a sampled crash schedule in which every crash recovers.

The pool is prepared before the scheduler attaches, and the scheduler packs
cohorts by walk count, merges its reports and budgets its maintenance, as
the golden scheduled drain does.  Churn runs only before the crash schedule
is attached: the schedule keeps the graph connected at the moment it is
sampled, and a later churn can make a scheduled victim a cut vertex (see
:func:`test_a_crash_that_churn_made_a_cut_vertex_serves`).

After every step it checks the identities that hold for any RNG stream:

* Σ tenant ``rounds_attributed`` + ``pool-refill/maintain`` +
  ``pool-refill/churn`` + ``serve/recovery`` = the ledger delta since the
  scheduler attached;
* span balance, globally and per phase;
* heatmap conservation in every phase (located + retired + residual =
  ledger messages), with residual 0 until a fault step fires: stale
  cohort reports and recovery floods leave a known residual after one;
* live rows = created − consumed − evicted = Σ per-source counts, and
  the pool's per-shard counts bin the per-source counts by ``v mod
  num_shards``;
* every ticket is DONE or REJECTED, or still queued or parked.

Tier-1 runs a small derandomized profile; ``pytest -m slow`` a deep one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.congest.faults import FaultSchedule, FaultStep
from repro.dynamic import GraphDelta, sample_churn_delta
from repro.engine import WalkEngine
from repro.errors import WalkError
from repro.graphs import barbell_graph, torus_graph
from repro.obs import HeatmapSink, Tracer
from repro.serve import TenantRegistry
from repro.serve.model import DONE, QUEUED, REJECTED
from repro.util.rng import make_rng

GRAPHS = {"torus6x6": lambda: torus_graph(6, 6), "barbell8x3": lambda: barbell_graph(8, 3)}
TENANTS = (("bronze", 1.0), ("gold", 2.0))
#: Phases outside every ticket's attribution: background and exogenous work.
UNATTRIBUTED = ("pool-refill/maintain", "pool-refill/churn", "serve/recovery")


def serving_engine(graph, seed: int, *, lam: int, record_paths: bool):
    """An observed engine, prepared, with a two-tenant scheduler attached.

    Returns ``(engine, scheduler, tracer, heatmap)``.
    """
    engine = WalkEngine(graph, seed=seed, record_paths=record_paths, auto_maintain=False)
    tracer, heatmap = Tracer(), HeatmapSink()
    engine.attach_observability(tracer=tracer, heatmap=heatmap)
    engine.prepare(lam=lam)
    tenants = TenantRegistry()
    for name, weight in TENANTS:
        tenants.register(name, weight=weight)
    sched = engine.scheduler(
        tenants=tenants, max_batch_walks=8, pipelined_report=True, maintain_round_budget=40
    )
    return engine, sched, tracer, heatmap


class ServingMachine(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 2**16 - 1),
        graph=st.sampled_from(sorted(GRAPHS)),
        lam=st.integers(3, 5),
        record_paths=st.booleans(),
    )
    def start(self, seed, graph, lam, record_paths):
        self.engine, self.sched, self.tracer, self.heatmap = serving_engine(
            GRAPHS[graph](), seed, lam=lam, record_paths=record_paths
        )
        self.snap = self.engine.network.ledger.capture()
        self.churn_rng = make_rng(seed + 1)
        self.faults = None
        self.tickets = []

    def _live_nodes(self) -> list[int]:
        if self.faults is None:
            return list(range(self.engine.graph.n))
        return np.flatnonzero(self.faults.live).tolist()

    @rule(
        data=st.data(),
        k=st.integers(1, 4),
        length=st.sampled_from([8, 24, 64]),
        deadline=st.sampled_from([None, 5, 2_000]),
        tenant=st.sampled_from([name for name, _ in TENANTS]),
    )
    def submit(self, data, k, length, deadline, tenant):
        live = st.sampled_from(self._live_nodes())
        sources = [data.draw(live) for _ in range(k)]
        self.tickets.append(self.sched.submit(sources, length, deadline=deadline, tenant=tenant))

    @rule()
    def tick(self):
        self.sched.tick()

    @rule(budget=st.sampled_from([None, 1, 16]))
    def maintain(self, budget):
        self.engine.maintain(round_budget=budget)

    @precondition(lambda self: self.faults is None)
    @rule(deletes=st.integers(0, 3), inserts=st.integers(0, 3))
    def churn(self, deletes, inserts):
        self.engine.apply_churn(
            sample_churn_delta(self.engine.graph, self.churn_rng, deletes=deletes, inserts=inserts)
        )

    @precondition(lambda self: self.faults is None)
    @rule(
        crashes=st.integers(1, 3),
        window=st.sampled_from([50, 400]),
        recover_after=st.sampled_from([30, 300]),
        seed=st.integers(0, 2**16 - 1),
    )
    def attach_crashes(self, crashes, window, recover_after, seed):
        now = self.engine.network.rounds
        self.faults = self.engine.attach_faults(
            FaultSchedule.sample(
                self.engine.graph,
                crashes=crashes,
                start_round=now,
                end_round=now + window,
                recover_after=recover_after,
                seed=seed,
            )
        )

    @invariant()
    def ledger_balances(self):
        delta = self.engine.network.ledger.delta_since(self.snap)
        attributed = sum(t["rounds_attributed"] for t in self.sched.stats().tenants.values())
        background = sum(delta.phase_rounds.get(phase, 0) for phase in UNATTRIBUTED)
        assert attributed + background == delta.rounds

    @invariant()
    def spans_balance(self):
        tracer, ledger = self.tracer, self.engine.network.ledger
        assert tracer.open_depth == 0 and tracer.orphan_pops == 0
        assert (
            tracer.total_self_rounds() + tracer.unattributed_rounds
            == ledger.rounds - tracer.attached_round
        )
        assert (
            tracer.total_self_messages() + tracer.unattributed_messages
            == ledger.messages - tracer.attached_messages
        )
        per = tracer.self_rounds_by_phase()
        baseline = tracer.attached_snapshot.phase_rounds
        for name, cell in ledger.phases.items():
            assert per.get(name, 0) == cell.rounds - baseline.get(name, 0), name

    @invariant()
    def heatmap_conserves(self):
        heatmap, ledger = self.heatmap, self.engine.network.ledger
        fired = self.faults is not None and self.faults.cursor > 0
        for phase, cell in ledger.phases.items():
            assert heatmap.attributed_messages(phase) == cell.messages, phase
            if not fired:
                assert heatmap.residual_messages(phase) == 0, phase
        assert heatmap.messages_total == ledger.messages

    @invariant()
    def tokens_balance(self):
        pool = self.engine.pool
        store = pool.store
        sources, counts = store.source_count_arrays()
        live = store.live_rows().size
        assert live == store.tokens_created - store.tokens_consumed - store.tokens_evicted
        assert live == int(counts.sum()) == pool.unused
        binned = np.zeros(pool.num_shards, dtype=np.int64)
        np.add.at(binned, sources % pool.num_shards, counts)
        assert pool.shard_unused().tolist() == binned.tolist()
        assert int(pool.shard_unused().sum()) == pool.unused

    @invariant()
    def every_ticket_is_accounted_for(self):
        waiting = {key[2] for queue in self.sched._queues.values() for key in queue}
        waiting |= set(self.sched._parked)
        for ticket in self.tickets:
            if ticket.status == QUEUED:
                assert ticket.ticket_id in waiting, ticket.ticket_id
            else:
                assert ticket.status in (DONE, REJECTED), ticket.status
                assert ticket.ticket_id not in waiting, ticket.ticket_id


def _run(max_examples: int, steps: int) -> None:
    run_state_machine_as_test(
        ServingMachine,
        settings=settings(
            max_examples=max_examples,
            stateful_step_count=steps,
            derandomize=True,
            database=None,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


def test_serving_machine_small():
    _run(max_examples=40, steps=25)


@pytest.mark.slow
def test_serving_machine_deep():
    _run(max_examples=300, steps=40)


@pytest.mark.parametrize("record_paths", [True, False])
@pytest.mark.parametrize("sources", [[17, 0], [0, 17]])
def test_a_crash_that_churn_made_a_cut_vertex_serves(sources, record_paths):
    engine, sched, _, _ = serving_engine(
        barbell_graph(8, 3), 3, lam=4, record_paths=record_paths
    )
    snap = engine.network.ledger.capture()
    now = engine.network.rounds
    engine.attach_faults(
        FaultSchedule(
            steps=(
                FaultStep(at_round=now + 1, crash=(13,)),
                FaultStep(at_round=now + 500, recover=(13,)),
            )
        )
    )
    # Sampled on the barbell, the crash of 13 kept the graph connected.  This
    # churn leaves nodes 16 and 17 joined to each other and to 13 only, so
    # the crash cuts them off: a walk parked there waits for the recovery.
    engine.apply_churn(
        GraphDelta(delete_edges=[(v, w) for v in (10, 11, 12, 14, 15) for w in (16, 17)])
    )
    ticket = sched.submit(sources, 64)
    sched.drain()
    assert ticket.status == DONE
    assert engine.faults.cursor == 2
    delta = engine.network.ledger.delta_since(snap)
    attributed = sum(t["rounds_attributed"] for t in sched.stats().tenants.values())
    background = sum(delta.phase_rounds.get(phase, 0) for phase in UNATTRIBUTED)
    assert attributed + background == delta.rounds


def test_a_walk_cut_off_with_no_step_pending_raises():
    engine, sched, _, _ = serving_engine(barbell_graph(8, 3), 3, lam=4, record_paths=True)
    engine.attach_faults(
        FaultSchedule(steps=(FaultStep(at_round=engine.network.rounds + 1, crash=(13,)),))
    )
    engine.apply_churn(
        GraphDelta(delete_edges=[(v, w) for v in (10, 11, 12, 14, 15) for w in (16, 17)])
    )
    # The tree is rooted in the walks' first source, 17, so the crash cuts 0
    # off from it, and no recovery is scheduled.
    with pytest.raises(WalkError, match="source 0 is cut off .* no fault step pending"):
        engine.walks([17, 0], 64)
