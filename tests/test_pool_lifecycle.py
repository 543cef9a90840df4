"""Stateful test of the pool lifecycle: one engine, every operation that moves tokens.

A hypothesis state machine drives one :class:`~repro.engine.WalkEngine` on
a 6×6 torus, with a fault controller attached, through random
interleavings of everything that creates, consumes, evicts or replaces
pool tokens:

* pooled walks (single and k-walk) from live sources;
* background maintenance with a round budget of ``None``, 1 or 16;
* churn through ``apply_churn`` with a connectivity-preserving delta;
* crash and recovery of one node through ``apply_faults``;
* re-preparation, endpoint-only or path-recording.

After every step it checks the pool's standing identities:

* live rows = created − consumed − evicted = Σ per-source counts;
* each shard quota = Σ ⌈η·deg(v)⌉ over its sources, on the current degrees;
* no session counter in ``engine.stats()`` goes down.

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

from repro.congest.faults import FaultStep
from repro.dynamic import sample_churn_delta
from repro.engine import WalkEngine
from repro.graphs import torus_graph
from repro.util.rng import make_rng

#: ``EngineStats`` fields that are session totals: none may ever go down.
SESSION_COUNTERS = (
    "queries",
    "full_preparations",
    "refills",
    "maintenance_sweeps",
    "background_refill_tokens",
    "rounds",
    "messages",
    "churn_events",
    "churn_tokens_evicted",
    "churn_tokens_regenerated",
    "fault_events",
    "fault_crashes",
    "fault_recoveries",
    "fault_tokens_evicted",
    "fault_tokens_regenerated",
    "fault_walks_recovered",
    "fault_walks_restarted",
    "fault_recovery_rounds",
)

N = 36
LENGTHS = st.sampled_from([8, 24, 64])


class PoolLifecycle(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 2**16 - 1),
        watermark=st.sampled_from([0.5, 1.0]),
        record_paths=st.booleans(),
    )
    def start(self, seed, watermark, record_paths):
        self.engine = WalkEngine(
            torus_graph(6, 6), seed=seed, record_paths=record_paths, watermark_fraction=watermark
        )
        self.faults = self.engine.attach_faults()
        self.churn_rng = make_rng(seed + 1)
        self.crashed: int | None = None
        self.last = self.engine.stats()

    def _live_source(self, data) -> int:
        return data.draw(st.sampled_from(np.flatnonzero(self.faults.live).tolist()))

    @rule(data=st.data(), length=LENGTHS)
    def walk(self, data, length):
        self.engine.walk(self._live_source(data), length)

    @rule(data=st.data(), k=st.integers(2, 4), length=LENGTHS)
    def walks(self, data, k, length):
        self.engine.walks([self._live_source(data) for _ in range(k)], length)

    @rule(budget=st.sampled_from([None, 1, 16]))
    def maintain(self, budget):
        self.engine.maintain(round_budget=budget)

    # Churn only while every node is up: an insert touching a crashed node
    # would hand it edges its recovery does not own.
    @precondition(lambda self: self.crashed is None)
    @rule(deletes=st.integers(0, 3), inserts=st.integers(0, 3))
    def churn(self, deletes, inserts):
        graph = self.engine.graph
        self.engine.apply_churn(
            sample_churn_delta(graph, self.churn_rng, deletes=deletes, inserts=inserts)
        )

    @precondition(lambda self: self.crashed is None)
    @rule(node=st.integers(0, N - 1))
    def crash(self, node):
        self.engine.apply_faults(FaultStep(self.engine.network.rounds, crash=(node,)))
        self.crashed = node

    @precondition(lambda self: self.crashed is not None)
    @rule()
    def recover(self):
        self.engine.apply_faults(FaultStep(self.engine.network.rounds, recover=(self.crashed,)))
        self.crashed = None

    @rule(data=st.data(), lam=st.integers(2, 4), record_paths=st.booleans())
    def prepare(self, data, lam, record_paths):
        self.engine.prepare(lam=lam, source_hint=self._live_source(data), record_paths=record_paths)

    @invariant()
    def tokens_balance(self):
        pool = self.engine.pool
        if pool is None:
            return
        store = pool.store
        _sources, counts = store.source_count_arrays()
        live = store.live_rows().size
        assert live == store.tokens_created - store.tokens_consumed - store.tokens_evicted
        assert live == int(counts.sum()) == pool.unused

    @invariant()
    def quotas_track_degrees(self):
        pool = self.engine.pool
        if pool is None:
            return
        graph = self.engine.graph
        base = np.ceil(pool.eta * graph.degrees.astype(np.float64))
        want = np.bincount(np.arange(graph.n) % pool.num_shards, weights=base, minlength=pool.num_shards)
        assert [s.quota for s in pool.shards] == want.astype(np.int64).tolist()

    @invariant()
    def counters_never_go_down(self):
        now = self.engine.stats()
        for name in SESSION_COUNTERS:
            assert getattr(now, name) >= getattr(self.last, name), name
        for phase, rounds in self.last.phase_rounds.items():
            assert now.phase_rounds.get(phase, 0) >= rounds, phase
        self.last = now


def _run(max_examples: int, steps: int) -> None:
    run_state_machine_as_test(
        PoolLifecycle,
        settings=settings(
            max_examples=max_examples,
            stateful_step_count=steps,
            derandomize=True,
            database=None,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


def test_pool_lifecycle_small():
    _run(max_examples=25, steps=15)


@pytest.mark.slow
def test_pool_lifecycle_deep():
    _run(max_examples=300, steps=40)
