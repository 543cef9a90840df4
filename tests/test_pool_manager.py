"""Tests for the sharded pool manager and the batch k-walk serving regime.

The load-bearing claims of PR 3:

* **Shard partitioning is exact bookkeeping** — shard quotas sum to the
  Phase-1 allocation, occupancy views sum to the store's unused total, and
  consumed tokens are attributed to the right shard.
* **Background refills restore watermarks** — ``maintain()`` detects every
  shard below its low watermark and tops all of them up in one batched
  GET-MORE-WALKS sweep charged to the ``"pool-refill/maintain"`` sub-phase;
  request deltas never include it, yet the session ledger balances exactly
  (requests + maintenance = total).
* **Adversarial fairness** — a hot source issuing 10× everyone else's
  queries cannot leave any shard below its refill watermark: the
  between-request sweeps rebuild whatever the hot stream drains.
* **Batch stitching is exact and cheaper** — interleaved batch sweeps
  produce endpoints distributed exactly as ``P^ℓ`` (chi-square, the PR-2
  harness) while charging strictly fewer simulated rounds than the serial
  per-source loop of the one-shot §2.3 body.
* **Batched GET-MORE-WALKS degenerates correctly** — with a single source
  it produces the identical tokens and charges the identical rounds as the
  legacy single-source refill at the same RNG state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import Network
from repro.congest.faults import FaultSchedule
from repro.dynamic import sample_churn_delta
from repro.engine import MaintenanceReport, WalkEngine
from repro.engine.pool import PoolManager, default_num_shards
from repro.errors import WalkError
from repro.graphs import complete_graph, torus_graph
from repro.markov import WalkSpectrum
from repro.serve import TenantRegistry
from repro.util.rng import make_rng
from repro.util.stats import chi_square_goodness_of_fit
from repro.walks import get_more_walks, many_random_walks
from repro.walks.get_more_walks import get_more_walks_batch
from repro.walks.store import WalkStore


class TestShardPartitioning:
    def test_quotas_sum_to_phase1_allocation(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=1, record_paths=False)
        engine.prepare(length_hint=256)
        manager = engine.pool
        assert manager is not None
        assert sum(s.quota for s in manager.shards) == engine.pool.store.tokens_created
        assert sum(s.num_sources for s in manager.shards) == torus_8x8.n
        for shard in manager.shards:
            assert 1 <= shard.low_watermark <= shard.quota

    def test_occupancy_views_track_store(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=3, record_paths=False)
        engine.prepare(length_hint=256)
        manager = engine.pool
        assert int(manager.shard_unused().sum()) == engine.pool.unused
        engine.walk(0, 256)
        assert int(manager.shard_unused().sum()) == engine.pool.unused
        consumed = sum(s.tokens_served for s in manager.shards)
        assert consumed == engine.pool.store.tokens_consumed

    def test_shard_of_is_mod_map(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=1, record_paths=False)
        engine.prepare(length_hint=256)
        manager = engine.pool
        for v in range(torus_8x8.n):
            assert manager.shard_of(v) == v % manager.num_shards

    def test_default_shard_count_policy(self):
        assert default_num_shards(1) == 1
        assert default_num_shards(10) == 4  # ceil(sqrt(10)), not floor
        assert default_num_shards(50) == 8
        assert default_num_shards(64) == 8
        assert default_num_shards(10_000) == 64  # capped
        engine = WalkEngine(torus_graph(8, 8), seed=1, num_shards=4, record_paths=False)
        engine.prepare(length_hint=256)
        assert engine.pool.num_shards == 4

    def test_manager_rejects_bad_policy(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=1, num_shards=0, record_paths=False)
        with pytest.raises(WalkError, match="num_shards"):
            engine.prepare(length_hint=256)
        engine = WalkEngine(torus_8x8, seed=1, watermark_fraction=1.5, record_paths=False)
        with pytest.raises(WalkError, match="watermark_fraction"):
            engine.prepare(length_hint=256)


class TestBackgroundRefills:
    def test_maintain_noop_on_full_pool(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=5, record_paths=False)
        engine.prepare(length_hint=256)
        report = engine.maintain()
        assert isinstance(report, MaintenanceReport)
        assert not report.swept and report.rounds == 0 and report.tokens_added == 0
        assert "pool-refill/maintain" not in engine.stats().phase_rounds

    def test_maintain_cold_engine_is_empty_report(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=5)
        report = engine.maintain()
        assert not report.swept and report.shards_refilled == ()

    def test_sweep_restores_depleted_shards(self, torus_8x8):
        engine = WalkEngine(
            torus_8x8, seed=7, record_paths=False, auto_maintain=False
        )
        engine.prepare(length_hint=256)
        manager = engine.pool
        # Drain until at least one shard sits below its watermark.
        i = 0
        while not manager.depleted_shards():
            engine.walk(i % torus_8x8.n, 256)
            i += 1
            assert i < 200, "stream never depleted any shard"
        depleted = manager.depleted_shards()
        report = engine.maintain()
        assert report.swept and set(report.shards_refilled) == set(depleted)
        assert report.tokens_added > 0 and report.rounds > 0
        unused = manager.shard_unused()
        for shard in manager.shards:
            assert unused[shard.shard_id] >= shard.low_watermark
        # Charged to the maintain sub-phase, visible via the family total.
        stats = engine.stats()
        assert stats.phase_rounds.get("pool-refill/maintain", 0) == report.rounds
        assert engine.network.ledger.phase_total("pool-refill") >= report.rounds
        assert stats.maintenance_sweeps == 1
        assert stats.background_refill_tokens == report.tokens_added

    def test_stats_is_a_pure_read(self, torus_8x8):
        # Every metrics read goes through engine.stats(): reading telemetry
        # while a shard sits below its watermark must change nothing the
        # next maintain() decides, draws or charges.
        def drained():
            engine = WalkEngine(torus_8x8, seed=7, record_paths=False, auto_maintain=False)
            engine.prepare(length_hint=256)
            i = 0
            while not engine.pool.depleted_shards():
                engine.walk(i % torus_8x8.n, 256)
                i += 1
                assert i < 200, "stream never depleted any shard"
            return engine

        def after_maintain(engine):
            report = engine.maintain()
            store = engine.pool.store
            return (
                report,
                engine.network.ledger.capture(),
                engine.pool.shard_unused().tolist(),
                (store.tokens_created, store.tokens_consumed, store.tokens_evicted),
            )

        read, unread = drained(), drained()
        stats = read.stats()
        assert stats.shards_below_watermark > 0 and stats.outstanding_deficit > 0
        read_after, unread_after = after_maintain(read), after_maintain(unread)
        assert read_after[0].swept
        assert read_after == unread_after

    def test_request_deltas_plus_maintenance_balance_ledger(self):
        # Background sweeps are charged *between* requests: no request delta
        # contains them, and requests + maintenance = the session total.
        g = torus_graph(6, 6)
        engine = WalkEngine(g, seed=17, record_paths=False)
        total = sum(engine.walk(i % g.n, 300).rounds for i in range(30))
        stats = engine.stats()
        assert stats.maintenance_sweeps > 0  # the drained pool did get swept
        maintain_rounds = stats.phase_rounds["pool-refill/maintain"]
        assert total + maintain_rounds == engine.network.rounds

    def test_auto_maintain_off_means_no_background_phase(self):
        g = torus_graph(6, 6)
        engine = WalkEngine(g, seed=17, record_paths=False, auto_maintain=False)
        total = sum(engine.walk(i % g.n, 300).rounds for i in range(30))
        assert "pool-refill/maintain" not in engine.stats().phase_rounds
        assert total == engine.network.rounds


class TestMaintenanceTelemetryAndBudget:
    """PR-4 satellites: the EngineStats telemetry gap and the budgeted sweep."""

    def _deplete(self, engine, graph, limit=200):
        manager = engine.pool
        i = 0
        while not manager.depleted_shards():
            engine.walk(i % graph.n, 256)
            i += 1
            assert i < limit, "stream never depleted any shard"

    def test_stats_expose_per_shard_refills_and_outstanding_deficit(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=7, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=256)
        manager = engine.pool
        self._deplete(engine, torus_8x8)
        stats = engine.stats()
        assert stats.outstanding_deficit > 0  # a full sweep has work to do
        report = engine.maintain()
        stats = engine.stats()
        # After an unbudgeted maintain the deficit is fully erased and the
        # per-shard counters mirror the manager's books exactly.
        assert stats.outstanding_deficit == 0
        assert stats.shard_refill_counts == [s.refills for s in manager.shards]
        assert stats.shard_refill_tokens == [s.tokens_added for s in manager.shards]
        assert sum(stats.shard_refill_tokens) == report.tokens_added
        assert sum(stats.shard_refill_tokens) == stats.background_refill_tokens
        assert sum(1 for c in stats.shard_refill_counts if c > 0) == len(
            report.shards_refilled
        )

    def test_cold_engine_reports_empty_telemetry(self, torus_8x8):
        stats = WalkEngine(torus_8x8, seed=1).stats()
        assert stats.shard_refill_counts is None
        assert stats.shard_refill_tokens is None
        assert stats.outstanding_deficit == 0

    def _deplete_several(self, engine, g, want=3, limit=300):
        manager = engine.pool
        i = 0
        while len(manager.depleted_shards()) < want:
            engine.walk(i % g.n, 300)
            i += 1
            assert i < limit, "stream never depleted enough shards"

    def test_budgeted_maintain_takes_emptiest_prefix(self):
        g = torus_graph(6, 6)
        # A high watermark makes several shards depleted quickly, forcing
        # the budget to actually choose between them.
        engine = WalkEngine(
            g, seed=17, record_paths=False, auto_maintain=False, watermark_fraction=0.9
        )
        engine.prepare(length_hint=300)
        manager = engine.pool
        self._deplete_several(engine, g)
        # Force a strictly size-increasing price so the budget genuinely
        # selects a prefix (with no observed congestion the model prices
        # every sweep at the flat iteration base — tested below).
        manager._congestion_per_token = 1.0
        depleted = manager.depleted_shards()
        ordered = manager.maintenance_order(depleted)
        budget = manager.estimate_refill_rounds(ordered[:1])  # affords exactly one
        report = engine.maintain(round_budget=budget)
        assert report.swept
        assert report.shards_refilled == (ordered[0],)
        assert set(report.deferred_shards) == set(depleted) - {ordered[0]}
        assert engine.stats().outstanding_deficit > 0  # work deferred, visible
        # Repeated budgeted ticks clear the backlog, most urgent first.
        sweeps = 1
        while engine.stats().outstanding_deficit > 0:
            manager._congestion_per_token = 1.0  # keep the price size-sensitive
            engine.maintain(round_budget=budget)
            sweeps += 1
            assert sweeps <= len(depleted) + 2
        unused = manager.shard_unused()
        for shard in manager.shards:
            assert unused[shard.shard_id] >= shard.low_watermark

    def test_forced_violation_batches_free_by_model_shards(self):
        # With no observed congestion a sweep costs its 2λ−1 iteration base
        # regardless of size, so once the minimum-progress violation is
        # forced the whole depleted set joins ONE batched sweep — splitting
        # it across ticks would pay the base repeatedly for nothing.
        g = torus_graph(6, 6)
        engine = WalkEngine(
            g, seed=17, record_paths=False, auto_maintain=False, watermark_fraction=0.9
        )
        engine.prepare(length_hint=300)
        manager = engine.pool
        self._deplete_several(engine, g)
        assert manager._congestion_per_token == 0.0
        depleted = manager.depleted_shards()
        report = engine.maintain(round_budget=1)
        assert set(report.shards_refilled) == set(depleted)
        assert report.deferred_shards == ()
        assert engine.stats().outstanding_deficit == 0

    def test_budget_covering_estimate_sweeps_everything(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=7, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=256)
        manager = engine.pool
        self._deplete(engine, torus_8x8)
        depleted = manager.depleted_shards()
        budget = manager.estimate_refill_rounds(depleted)
        report = engine.maintain(round_budget=budget)
        assert set(report.shards_refilled) == set(depleted)
        assert report.deferred_shards == ()

    def test_estimate_refill_rounds_is_free_and_sane(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=7, record_paths=False, auto_maintain=False)
        engine.prepare(length_hint=256)
        manager = engine.pool
        assert manager.estimate_refill_rounds(list(range(manager.num_shards))) == 0
        self._deplete(engine, torus_8x8)
        rounds_before = engine.network.rounds
        est = manager.estimate_refill_rounds(manager.depleted_shards())
        assert est >= 2 * engine.pool.lam - 1  # at least one full sweep length
        assert engine.network.rounds == rounds_before  # pure bookkeeping
        # The estimator calibrates: a real sweep folds its observed excess
        # congestion per launched token into the EMA, and later prices
        # grow with the token deficit being priced.
        report = engine.maintain()
        base = 2 * engine.pool.lam - 1
        expected = 0.5 * max(0.0, report.rounds / base - 1.0) / max(1, report.tokens_added)
        assert manager._congestion_per_token == pytest.approx(expected)
        assert manager._price(10) <= manager._price(1000)


class TestAdversarialFairness:
    def test_hot_source_cannot_starve_other_shards(self, torus_8x8):
        # One hot source issues 10x everyone else's queries.  Per-shard
        # watermarks plus between-request sweeps must keep EVERY shard at or
        # above its refill watermark at stream end — the hot stream's drain
        # is rebuilt before it can exhaust the population.
        engine = WalkEngine(torus_8x8, seed=23, num_shards=8, record_paths=False)
        cold = 1
        for i in range(110):
            if i % 11 == 0:
                source = cold = (cold + 7) % torus_8x8.n  # background traffic
            else:
                source = 0  # the hot source
            engine.walk(source, 256)
        stats = engine.stats()
        assert stats.full_preparations == 1  # never re-prepared under attack
        assert stats.maintenance_sweeps > 0
        assert stats.shards_below_watermark == 0
        manager = engine.pool
        unused = manager.shard_unused()
        for shard in manager.shards:
            assert unused[shard.shard_id] >= shard.low_watermark, (
                f"shard {shard.shard_id} starved: {unused[shard.shard_id]} < "
                f"{shard.low_watermark}"
            )
        # Refill batching was fair: sweeps touched many shards, not just the
        # hot source's own.
        refilled = {s.shard_id for s in manager.shards if s.refills > 0}
        assert len(refilled) > 1


class TestBatchStitching:
    def test_batch_endpoint_distribution_chi_square(self):
        # 40 successive k=10 batch queries on ONE engine: batch-stitched
        # endpoints must follow the exact P^l law (every draw is an unused,
        # independently generated short walk — Lemma A.2's uniform law,
        # taken without replacement within a sweep).
        g = complete_graph(6)
        length = 40
        dist = WalkSpectrum(g).distribution(0, length)
        engine = WalkEngine(g, seed=4321, record_paths=False)
        endpoints: list[int] = []
        for _ in range(40):
            res = engine.walks([0] * 10, length)
            assert res.mode == "batch-stitched"
            endpoints.extend(res.destinations)
        assert engine.stats().full_preparations == 1
        observed = {v: endpoints.count(v) for v in set(endpoints)}
        expected = {v: float(dist[v]) for v in range(g.n) if dist[v] > 1e-12}
        assert not chi_square_goodness_of_fit(observed, expected).rejects_at(1e-4)

    def test_batch_beats_serial_rounds(self, torus_8x8):
        # The acceptance shape at test scale: identical request, strictly
        # fewer simulated rounds from interleaved sweeps than from the
        # serial per-source loop of the one-shot §2.3 body at the same λ.
        # Phase 1 is excluded on both sides: it is pool preparation.
        k = 16
        sources = [(i * 5) % torus_8x8.n for i in range(k)]
        batch_engine = WalkEngine(torus_8x8, seed=9, record_paths=False)
        batch = batch_engine.walks(sources, 256)
        serial = many_random_walks(torus_8x8, sources, 256, seed=9, lam=batch.lam)
        assert batch.mode == "batch-stitched" and serial.mode == "stitched"
        batch_rounds = batch.rounds - batch.phase_rounds.get("phase1", 0)
        assert batch_rounds < serial.rounds - serial.phase_rounds["phase1"]

    def test_batch_consumes_without_replacement(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=31, record_paths=False)
        before = 0
        for _ in range(5):
            engine.walks([0, 1, 2, 3], 256)
            store = engine.pool.store
            assert store.tokens_consumed > before  # sweeps actually pop
            before = store.tokens_consumed
            assert store.tokens_created - store.tokens_consumed == store.total_unused()

    def test_batch_replays_identically_at_fixed_seed(self, torus_8x8):
        def stream(seed):
            engine = WalkEngine(torus_8x8, seed=seed, record_paths=False)
            out = []
            for i in range(4):
                res = engine.walks([i, i + 9, i + 20], 256)
                out.append((tuple(res.destinations), res.rounds))
            return out, engine.network.rounds

        a, a_rounds = stream(13)
        b, b_rounds = stream(13)
        assert a == b and a_rounds == b_rounds
        c, _ = stream(14)
        assert a != c


class TestBatchedGetMoreWalks:
    def test_single_source_matches_legacy_refill(self, torus_8x8):
        # One source: the batched entry must degenerate to the legacy
        # single-source protocol — identical tokens AND identical charge.
        net_a = Network(torus_8x8, seed=0)
        net_b = Network(torus_8x8, seed=0)
        store_a, store_b = WalkStore(), WalkStore()
        rounds_a = get_more_walks(net_a, store_a, 5, 6, 8, make_rng(99))
        rounds_b = get_more_walks_batch(
            net_b, store_b, np.array([5]), np.array([6]), 8, make_rng(99)
        )
        assert rounds_a == rounds_b
        assert net_a.rounds == net_b.rounds
        assert net_a.messages_sent == net_b.messages_sent
        toks_a = sorted((t.source, t.length, t.destination) for t in store_a.iter_all())
        toks_b = sorted((t.source, t.length, t.destination) for t in store_b.iter_all())
        assert toks_a == toks_b

    def test_multi_source_single_sweep_beats_serial_refills(self, torus_8x8):
        sources = np.array([0, 9, 33, 48], dtype=np.int64)
        counts = np.array([4, 4, 4, 4], dtype=np.int64)
        net_batch = Network(torus_8x8, seed=0)
        store_batch = WalkStore()
        rounds_batch = get_more_walks_batch(
            net_batch, store_batch, sources, counts, 8, make_rng(7)
        )
        net_serial = Network(torus_8x8, seed=0)
        store_serial = WalkStore()
        rng = make_rng(7)
        rounds_serial = sum(
            get_more_walks(net_serial, store_serial, int(s), int(c), 8, rng)
            for s, c in zip(sources, counts)
        )
        assert store_batch.total_unused() == store_serial.total_unused() == int(counts.sum())
        assert rounds_batch < rounds_serial
        # Token lengths stay uniform on [lam, 2*lam-1] per source.
        for tok in store_batch.iter_all():
            assert 8 <= tok.length <= 15

    def test_batch_validates_inputs(self, torus_8x8):
        net = Network(torus_8x8, seed=0)
        with pytest.raises(WalkError, match="equal length"):
            get_more_walks_batch(net, WalkStore(), np.array([0, 1]), np.array([1]), 4, make_rng(0))
        with pytest.raises(WalkError, match=">= 1"):
            get_more_walks_batch(net, WalkStore(), np.array([0]), np.array([0]), 4, make_rng(0))


class TestUniformTokenDraw:
    def test_draw_law_is_uniform_over_unused(self, torus_8x8):
        # sample_uniform_token must implement Lemma A.2's law: uniform over
        # every unused token of the source, regardless of holder layout.
        net = Network(torus_8x8, seed=0)
        store = WalkStore()
        get_more_walks(net, store, 3, 12, 4, make_rng(5))
        ids = [t.token_id for t in store.iter_all()]
        rng = make_rng(11)
        counts = dict.fromkeys(ids, 0)
        trials = 3000
        for _ in range(trials):
            probe = WalkStore()
            # Rebuild an identical pool cheaply: same records re-added.
            for t in store.iter_all():
                probe.add(t)
            rec = probe.sample_uniform_token(3, rng)
            counts[rec.token_id] += 1
        expected = {tid: 1.0 / len(ids) for tid in ids}
        assert not chi_square_goodness_of_fit(counts, expected).rejects_at(1e-4)

    def test_draw_on_empty_source_returns_none(self):
        store = WalkStore()
        assert store.sample_uniform_token(0, make_rng(0)) is None


class TestShardOccupancy:
    """The store keeps one unused count per shard; refill plans read only their shards."""

    @staticmethod
    def _drained(graph, seed, *, num_shards=None, walks=40):
        engine = WalkEngine(
            graph, seed=seed, record_paths=False, auto_maintain=False, num_shards=num_shards
        )
        engine.prepare(length_hint=256)
        for i in range(walks):
            engine.walk((7 * i) % graph.n, 256)
        return engine

    @staticmethod
    def _full_mask_plan(manager, shard_ids):
        # Reference: every node's deficit, masked by shard membership, over
        # the dense per-source counts padded to n (O(n) per plan).
        n, shards = manager.graph.n, manager.num_shards
        counts = np.zeros(n, dtype=np.int64)
        held = manager.store.source_count_arrays()[1][:n]
        counts[: held.size] = held
        member = np.zeros(shards, dtype=bool)
        member[list(shard_ids)] = True
        shard_of = np.arange(n, dtype=np.int64) % shards
        deficit = np.where(member[shard_of], manager.base_counts - counts, 0)
        needy = np.nonzero(deficit > 0)[0]
        return needy, deficit[needy]

    @pytest.mark.parametrize("num_shards", [None, 7])  # 8 shards of 8 nodes; 7 ragged ones
    def test_refill_plan_matches_full_mask_formula(self, torus_8x8, num_shards):
        manager = self._drained(torus_8x8, 7, num_shards=num_shards).pool
        shards = manager.num_shards
        rng = make_rng(3)
        subsets = [[], list(range(shards))[::-1] * 2]
        subsets += [rng.integers(0, shards, size=int(rng.integers(1, 2 * shards))).tolist()
                    for _ in range(40)]
        assert manager.depleted_shards()
        for ids in subsets:
            got, want = manager.refill_plan(ids), self._full_mask_plan(manager, ids)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.int64
                np.testing.assert_array_equal(g, w)
        assert manager.refill_plan(range(shards))[1].sum() > 0

    def test_shard_ids_outside_range_are_rejected(self, torus_8x8):
        # Indexing would wrap -1 to the last shard, pricing and refilling
        # its sources while crediting no shard: every entry point must
        # name the bad id instead, before anything is charged.
        engine = self._drained(torus_8x8, 7)
        manager = engine.pool
        shards = manager.num_shards
        assert manager.depleted_shards()
        before = engine.network.ledger.capture()
        for bad in (-1, shards):
            match = f"shard id {bad} is not in"
            with pytest.raises(WalkError, match=match):
                manager.refill_plan([0, bad])
            with pytest.raises(WalkError, match=match):
                manager.estimate_refill_rounds([bad])
            with pytest.raises(WalkError, match=match):
                manager.restore_shards(engine.network, make_rng(0), [bad])
            with pytest.raises(WalkError, match=match):
                engine.maintain(exclude_shards=[bad])
        assert engine.network.ledger.capture() == before
        assert [s.refills for s in manager.shards] == [0] * shards

    def test_serving_never_copies_the_per_source_counts(self, monkeypatch):
        # Admission, budgeted maintenance, churn and crash restores and
        # engine.stats() all read occupancy; none may fall back on the
        # O(n) whole-store count copy.
        def refuse(self):
            raise AssertionError("the serving path copied every per-source count")

        priced = []
        estimate = PoolManager.estimate_refill_rounds

        def counting(self, shard_ids):
            priced.append(list(shard_ids))
            return estimate(self, shard_ids)

        monkeypatch.setattr(WalkStore, "source_count_arrays", refuse)
        monkeypatch.setattr(PoolManager, "estimate_refill_rounds", counting)
        graph = torus_graph(8, 8)
        engine = WalkEngine(graph, seed=3, record_paths=True, auto_maintain=False)
        engine.prepare(lam=4)
        tenants = TenantRegistry()
        tenants.register("bronze", weight=1.0)
        tenants.register("gold", weight=2.0)
        sched = engine.scheduler(tenants=tenants, max_batch_walks=8, maintain_round_budget=40)

        def serve(requests):
            for i in range(requests):
                sources = [(11 * i + 5 * j) % graph.n for j in range(4)]
                sched.submit(sources, 64, deadline=2_000, tenant=("bronze", "gold")[i % 2])
            sched.drain()

        i = 0
        while not engine.pool.depleted_shards():  # so admission prices a refill
            engine.walk(i % graph.n, 256)
            i += 1
        serve(24)
        churn = engine.apply_churn(sample_churn_delta(engine.graph, make_rng(1), deletes=3, inserts=3))
        now = engine.network.rounds
        schedule = FaultSchedule.sample(
            engine.graph, crashes=2, start_round=now + 1, end_round=now + 100,
            recover_after=50, seed=4,
        )
        engine.attach_faults(schedule)
        serve(24)
        engine.maintain(round_budget=16)
        assert engine.stats().shard_unused_min is not None
        assert priced, "no admission priced a shard below its watermark"
        assert churn.tokens_evicted > 0
        assert engine.faults.cursor == len(schedule.steps)
        served = sched.stats()
        assert served.completed == served.admitted > 0
