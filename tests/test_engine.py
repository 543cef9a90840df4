"""Tests for the ``WalkEngine`` session API and the persistent Phase-1 pool.

The load-bearing claims:

* **Exactness under reuse** — N successive pooled ``engine.walk()`` calls
  produce endpoints distributed exactly as ``P^ℓ`` (chi-square), because
  every consumed token is an unused, independently generated short walk.
* **No double consumption** — a token id appears in at most one result's
  stitched segments across the whole query stream.
* **Amortization** — a long query stream triggers O(1) full Phase-1
  preparations (``stats().full_preparations``); dry connectors refill via
  GET-MORE-WALKS, charged to the ``"pool-refill"`` ledger phase.
* **Determinism** — a fixed-seed engine replays the entire stream
  (destinations *and* round bills) identically.
* **Wrapper fidelity** — the legacy free functions are thin wrappers over
  a one-shot engine (``tests/test_ledger_golden.py`` pins them to the seed
  implementation bit-for-bit; here we pin wrapper ≡ explicit engine).
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.congest import Network
from repro.engine import ALGORITHMS, EngineStats, ResultBase, WalkEngine, WalkRequest
from repro.errors import GraphError, WalkError
from repro.graphs import complete_graph, torus_graph
from repro.markov import WalkSpectrum
from repro.util.stats import chi_square_goodness_of_fit
from repro.walks import (
    ManyWalksResult,
    WalkResult,
    many_random_walks,
    naive_random_walk,
    podc09_random_walk,
    single_random_walk,
)


class TestPoolReuse:
    def test_endpoint_distribution_chi_square(self):
        # 400 successive pooled queries on ONE engine: endpoints must follow
        # the exact P^l law even though they all drain the same token pool
        # (each consumed token is an unused independent short walk, so the
        # stitched concatenation stays an exact sample).
        g = complete_graph(6)
        length = 40
        dist = WalkSpectrum(g).distribution(0, length)
        engine = WalkEngine(g, seed=1234, record_paths=False)
        endpoints = [engine.walk(0, length).destination for _ in range(400)]
        assert engine.stats().full_preparations == 1
        observed = {v: endpoints.count(v) for v in set(endpoints)}
        expected = {v: float(dist[v]) for v in range(g.n) if dist[v] > 1e-12}
        assert not chi_square_goodness_of_fit(observed, expected).rejects_at(1e-4)

    def test_tokens_never_double_consumed(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=5)
        seen: set[int] = set()
        for i in range(20):
            res = engine.walk(i % torus_8x8.n, 256)
            ids = [seg.token_id for seg in res.segments]
            assert len(ids) == len(set(ids))
            assert not seen.intersection(ids), "token re-stitched across queries"
            seen.update(ids)
        stats = engine.stats()
        assert stats.tokens_consumed == len(seen)
        assert stats.tokens_consumed + stats.pool_unused == stats.tokens_prepared

    def test_hundred_queries_one_preparation(self, torus_8x8):
        # Acceptance criterion: a 100-query stream does O(1) full Phase-1
        # preparations; everything else is incremental refill.
        engine = WalkEngine(torus_8x8, seed=7, record_paths=False)
        for i in range(100):
            res = engine.walk(i % torus_8x8.n, 256)
            assert res.mode == "stitched"
            assert res.rounds > 0
        stats = engine.stats()
        assert stats.queries == 100
        assert stats.full_preparations == 1
        assert stats.tokens_consumed == stats.tokens_prepared - stats.pool_unused

    def test_refills_charged_to_pool_refill_phase(self):
        # A deliberately starved pool (tiny eta) must refill via
        # GET-MORE-WALKS and charge the refill protocol to its own phase.
        g = torus_graph(6, 6)
        engine = WalkEngine(g, seed=17, eta=0.05, record_paths=False)
        total_gmw = 0
        for _ in range(10):
            res = engine.walk(3, 400)
            total_gmw += res.get_more_walks_calls
        assert total_gmw > 0
        stats = engine.stats()
        assert stats.refills == total_gmw
        assert stats.phase_rounds.get("pool-refill", 0) > 0
        assert "get-more-walks" not in stats.phase_rounds

    def test_fixed_seed_engine_replays_identically(self, torus_8x8):
        def stream(seed):
            engine = WalkEngine(torus_8x8, seed=seed, record_paths=False)
            out = []
            for i in range(8):
                res = engine.walk(i % 7, 200)
                out.append((res.destination, res.rounds))
            return out, engine.network.rounds, engine.stats()

        a_out, a_rounds, a_stats = stream(11)
        b_out, b_rounds, b_stats = stream(11)
        assert a_out == b_out
        assert a_rounds == b_rounds
        assert a_stats == b_stats
        c_out, _, _ = stream(12)
        assert a_out != c_out  # different seed actually changes the stream

    def test_per_request_rounds_sum_to_ledger(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=3, record_paths=False)
        total = sum(engine.walk(i, 256).rounds for i in range(12))
        assert total == engine.network.rounds

    def test_short_query_served_naively_pool_untouched(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=2, record_paths=False)
        engine.prepare(length_hint=256)
        unused_before = engine.pool.unused
        res = engine.walk(0, 5)  # shorter than lambda: one segment would overshoot
        assert res.mode == "naive"
        assert engine.pool.unused == unused_before
        long = engine.walk(0, 256)
        assert long.mode == "stitched"


class TestPoolLifecycle:
    def test_cold_short_query_skips_preparation(self, torus_8x8):
        # A query whose derived lambda >= l would never touch the pool, so a
        # cold engine must not pay Theta(eta*m) Phase 1 for it (the
        # use_naive policy the one-shot path honors).
        engine = WalkEngine(torus_8x8, seed=1)
        res = engine.walk(0, 2)
        assert res.mode == "naive"
        stats = engine.stats()
        assert stats.full_preparations == 0 and stats.tokens_prepared == 0
        assert "phase1" not in res.phase_rounds
        # A long query afterwards prepares once, as usual.
        assert engine.walk(0, 256).mode == "stitched"
        assert engine.stats().full_preparations == 1

    @pytest.mark.parametrize("warm", [False, True])
    def test_pinned_lambda_at_least_length_skips_the_pool(self, torus_8x8, warm):
        # A pinned lam >= l is served naively like a derived one: a cold
        # engine prepares nothing, and a live pool is neither replaced nor
        # drawn from.
        engine = WalkEngine(torus_8x8, seed=1)
        if warm:
            engine.prepare(lam=6)
        pool = engine.pool
        created = pool.store.tokens_created if warm else 0
        single = engine.walk(0, 10, lam=50)
        batch = engine.walks([0, 9], 10, lam=50)
        assert (single.mode, batch.mode) == ("naive", "naive-parallel")
        assert single.lam == batch.lam == 50
        assert "phase1" not in single.phase_rounds and "phase1" not in batch.phase_rounds
        stats = engine.stats()
        assert engine.pool is pool
        assert stats.full_preparations == int(warm)
        assert stats.tokens_prepared == created
        if warm:
            assert pool.lam == 6 and pool.unused == created and pool.queries == 0

    def test_endpoint_query_keeps_pool_path_homogeneous(self):
        # An endpoint-only query on a path-recording pool must not build
        # trajectories it drops NOR inject pathless refill tokens that a
        # later trajectory query would choke on.
        g = torus_graph(6, 6)
        engine = WalkEngine(g, seed=17, eta=0.05, record_paths=True)
        refills = 0
        for _ in range(6):
            res = engine.walk(3, 400, record_paths=False)
            assert res.positions is None
            refills += res.get_more_walks_calls
        assert refills > 0  # the starved pool did refill mid-stream
        traj = engine.walk(3, 400, record_paths=True)
        traj.verify_positions(g)

    def test_explicit_prepare_then_queries(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=9)
        pool = engine.prepare(length_hint=256)
        assert pool.lam >= 1 and pool.unused == pool.store.tokens_created
        res = engine.walk(4, 256)
        assert res.lam == pool.lam
        assert engine.stats().full_preparations == 1

    def test_prepare_needs_lam_or_hint(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=0)
        with pytest.raises(WalkError, match="lam= or length_hint="):
            engine.prepare()

    def test_lam_change_reprepares(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=4, record_paths=False)
        engine.walk(0, 256)
        engine.walk(0, 256, lam=12)
        stats = engine.stats()
        assert stats.full_preparations == 2
        assert stats.pool_lam == 12

    def test_trajectories_need_path_recording_pool(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=6, record_paths=False)
        engine.walk(0, 256)
        with pytest.raises(WalkError, match="record_paths=False"):
            engine.walk(0, 256, record_paths=True)
        engine.prepare(lam=engine.pool.lam, record_paths=True)
        res = engine.walk(0, 256, record_paths=True)
        res.verify_positions(torus_8x8)

    def test_pooled_rejects_params_override(self, torus_8x8):
        from repro.walks import single_walk_params

        engine = WalkEngine(torus_8x8, seed=0)
        params = single_walk_params(256, 16, n=64)
        with pytest.raises(WalkError, match="one-shot"):
            engine.walk(0, 256, params=params)
        res = engine.walk(0, 256, params=params, pooled=False)
        assert res.mode == "stitched"


class TestPooledBatch:
    def test_walks_batch_from_shared_pool(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=21, record_paths=False)
        res = engine.walks([0, 9, 33], 256)
        assert isinstance(res, ManyWalksResult)
        assert res.mode == "batch-stitched" and res.k == 3
        assert len(res.destinations) == 3
        assert engine.stats().full_preparations == 1
        # A second batch reuses the same pool.
        engine.walks([5, 6], 256)
        assert engine.stats().full_preparations == 1

    def test_batch_trajectories(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=22, record_paths=True)
        res = engine.walks([0, 1], 200, record_paths=True)
        assert res.positions is not None
        for traj, dest in zip(res.positions, res.destinations):
            assert len(traj) == 201 and traj[-1] == dest
        # Every batch-stitched trajectory is a genuine walk on the graph.
        for traj, src in zip(res.positions, res.sources):
            assert traj[0] == src
            for a, b in zip(traj[:-1], traj[1:]):
                assert torus_8x8.has_edge(int(a), int(b))


class TestAccountingFixes:
    """Regression tests for the PR-3 ledger/telemetry bugfixes."""

    def test_report_formula_identical_across_batch_branches(self, torus_8x8):
        # Both _serve_pooled_many branches (interleaved stitching and
        # naive-parallel) must charge the pipelined
        # O(height + k) report convergecast.  The stitched path used to
        # charge deliver_sequential(depth[dest]) per destination — Σ depths,
        # measured 43 rounds for k=16 where naive-parallel charged
        # height + k = 21 for the very same report traffic.
        k = 16
        sources = [(i * 5) % torus_8x8.n for i in range(k)]

        stitched = WalkEngine(torus_8x8, seed=41, record_paths=False)
        res_stitched = stitched.walks(sources, 256)
        assert res_stitched.mode == "batch-stitched"
        height_s = stitched._tree_cache[sources[0]].height
        assert res_stitched.phase_rounds["report"] == height_s + k

        naive = WalkEngine(torus_8x8, seed=41, record_paths=False)
        res_naive = naive.walks(sources, 2)  # λ ≥ ℓ → naive-parallel branch
        assert res_naive.mode == "naive-parallel"
        height_n = naive._tree_cache[sources[0]].height
        assert res_naive.phase_rounds["report"] == height_n + k
        # Identical formula (the trees are the same root on the same graph).
        assert height_n == height_s

    def test_pool_queries_ignores_bypassing_queries(self, torus_8x8):
        # pool.queries must count only queries actually served from tokens;
        # a λ ≥ ℓ query routed to the naive branch never touched the pool.
        engine = WalkEngine(torus_8x8, seed=2, record_paths=False)
        engine.prepare(length_hint=256)
        assert engine.pool.queries == 0
        res = engine.walk(0, 5)
        assert res.mode == "naive"
        assert engine.pool.queries == 0
        engine.walk(0, 256)
        assert engine.pool.queries == 1
        engine.walks([0, 9], 4)  # naive-parallel: bypasses the pool too
        assert engine.pool.queries == 1
        engine.walks([0, 9], 256)
        assert engine.pool.queries == 2

    def test_regenerate_counts_as_session_query(self, torus_8x8):
        # mixing_time/spanning_tree increment stats().queries; regenerate()
        # silently did not, undercounting session activity.
        engine = WalkEngine(torus_8x8, seed=19)
        res = engine.walk(0, 128, record_paths=True)
        assert engine.stats().queries == 1
        engine.regenerate(res)
        assert engine.stats().queries == 2

    def test_rejected_application_calls_are_not_queries(self):
        # A call whose input is rejected bills nothing and counts nothing,
        # as a rejected walk request does.
        engine = WalkEngine(torus_graph(8, 8), seed=1)
        endpoint_only = engine.walk(0, 32, record_paths=False)
        queries = engine.stats().queries
        phases = copy.deepcopy(engine.network.ledger.phases)
        rounds = engine.network.rounds
        with pytest.raises(GraphError, match="out of range"):
            engine.mixing_time(64)
        with pytest.raises(GraphError, match="out of range"):
            engine.spanning_tree(-1)
        with pytest.raises(WalkError, match="without record_paths"):
            engine.regenerate(endpoint_only)
        assert engine.stats().queries == queries == 1
        assert engine.network.rounds == rounds
        assert engine.network.ledger.phases == phases


class TestRequestModel:
    def test_algorithm_validation(self):
        with pytest.raises(WalkError, match="unknown algorithm"):
            WalkRequest(sources=(0,), length=5, algorithm="quantum")
        with pytest.raises(WalkError, match="at least one source"):
            WalkRequest(sources=(), length=5)
        assert set(ALGORITHMS) == {"paper", "naive", "podc09", "metropolis"}

    def test_request_accessors_and_json(self):
        req = WalkRequest(sources=(3, 4), length=10, many=True)
        assert req.source == 3 and req.k == 2
        assert json.loads(json.dumps(req.to_dict()))["sources"] == [3, 4]

    def test_result_base_unifies_cost_fields(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=1, record_paths=False)
        single = engine.walk(0, 128)
        batch = engine.walks([0, 1], 128)
        for res in (single, batch):
            assert isinstance(res, ResultBase)
            assert res.rounds > 0 and res.lam > 0 and res.phase_rounds
        payload = json.loads(json.dumps(single.to_dict()))
        assert payload["destination"] == single.destination
        assert payload["phase_rounds"] == single.phase_rounds

    def test_stats_json_roundtrip(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=1, record_paths=False)
        engine.walk(0, 64)
        stats = engine.stats()
        assert isinstance(stats, EngineStats)
        assert json.loads(json.dumps(stats.to_dict()))["queries"] == 1


class TestBaselineDispatch:
    @pytest.mark.parametrize("algorithm,mode", [
        ("naive", "naive"),
        ("podc09", "podc09"),
        ("metropolis", "metropolis-naive"),
    ])
    def test_baselines_run_one_shot(self, torus_8x8, algorithm, mode):
        engine = WalkEngine(torus_8x8, seed=13)
        res = engine.walk(0, 200, algorithm=algorithm)
        assert res.mode == mode
        assert engine.pool is None  # baselines never build the pool

    def test_batch_requires_paper_algorithm(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=0)
        with pytest.raises(WalkError, match="single-walk requests only"):
            engine.walks([0, 1], 50, algorithm="naive")

    def test_metropolis_honors_record_paths(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=13)
        res = engine.walk(0, 100, algorithm="metropolis", record_paths=False)
        assert res.positions is None
        res = engine.walk(0, 100, algorithm="metropolis")
        assert res.positions is not None

    def test_unparameterized_algorithms_reject_params(self, torus_8x8):
        from repro.walks import single_walk_params

        engine = WalkEngine(torus_8x8, seed=0)
        params = single_walk_params(100, 16, n=64)
        for algorithm in ("naive", "metropolis"):
            with pytest.raises(WalkError, match="no params"):
                engine.walk(0, 100, algorithm=algorithm, params=params)


class TestWrapperFidelity:
    """Free functions ≡ explicit one-shot engine at identical seeds."""

    def test_single_wrapper_matches_engine(self, torus_8x8):
        a = single_random_walk(torus_8x8, 0, 256, seed=7, record_paths=False)
        b = WalkEngine(torus_8x8, seed=7).walk(0, 256, pooled=False, record_paths=False)
        assert (a.destination, a.rounds, a.phase_rounds) == (b.destination, b.rounds, b.phase_rounds)

    def test_many_wrapper_matches_engine(self, torus_8x8):
        a = many_random_walks(torus_8x8, [0, 5], 256, seed=3, lam=12)
        b = WalkEngine(torus_8x8, seed=3).walks([0, 5], 256, pooled=False, lam=12)
        assert (a.destinations, a.rounds) == (b.destinations, b.rounds)

    def test_baseline_wrappers_match_engine(self, torus_8x8):
        a = podc09_random_walk(torus_8x8, 0, 300, seed=2, record_paths=False)
        b = WalkEngine(torus_8x8, seed=2).walk(0, 300, algorithm="podc09", pooled=False, record_paths=False)
        assert (a.destination, a.rounds) == (b.destination, b.rounds)
        c = naive_random_walk(torus_8x8, 0, 300, seed=2, record_paths=False)
        d = WalkEngine(torus_8x8, seed=2).walk(
            0, 300, algorithm="naive", pooled=False, record_paths=False, report_to_source=False
        )
        assert (c.destination, c.rounds) == (d.destination, d.rounds)

    def test_wrapper_on_shared_network_accumulates(self, torus_8x8):
        net = Network(torus_8x8, seed=0)
        r1 = single_random_walk(torus_8x8, 0, 128, seed=1, network=net, record_paths=False)
        r2 = single_random_walk(torus_8x8, 1, 128, seed=2, network=net, record_paths=False)
        assert net.rounds == r1.rounds + r2.rounds


class TestApplications:
    def test_spanning_tree_on_session(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=31)
        res = engine.spanning_tree(root=0)
        assert res.mode == "rst"
        assert res.rounds > 0 and res.phase_rounds
        assert torus_8x8.subgraph_is_spanning_tree(set(res.edges))

    def test_mixing_time_on_session(self):
        g = complete_graph(8)
        engine = WalkEngine(g, seed=32)
        est = engine.mixing_time(0, samples=150)
        assert est.mode == "mixing"
        assert est.estimate >= 1 and est.rounds > 0 and est.phase_rounds
        # Both app calls and walk queries share one session ledger.
        before = engine.network.rounds
        engine.walk(0, 32, record_paths=False)
        assert engine.network.rounds > before

    def test_isinstance_result_base(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=33)
        assert isinstance(engine.spanning_tree(root=0), ResultBase)
        assert isinstance(engine.walk(0, 64, record_paths=False), WalkResult)


class TestOneDeltaPerRequest:
    """Every result bills its own ledger delta, and bad input bills nothing."""

    QUERIES = [
        ("paper-pooled", lambda e: e.walk(0, 256)),
        ("paper-one-shot", lambda e: e.walk(0, 256, pooled=False)),
        ("podc09", lambda e: e.walk(0, 256, algorithm="podc09")),
        ("naive", lambda e: e.walk(0, 256, algorithm="naive")),
        ("metropolis", lambda e: e.walk(0, 256, algorithm="metropolis")),
        ("walks-pooled", lambda e: e.walks([0, 1, 2], 128)),
        ("walks-one-shot", lambda e: e.walks([0, 1, 2], 128, pooled=False)),
    ]

    @pytest.mark.parametrize("name", [name for name, _ in QUERIES])
    def test_phase_rounds_sum_to_the_request_delta(self, name):
        # Each query runs twice on one engine: the second result must not
        # carry the first one's phases.
        query = dict(self.QUERIES)[name]
        engine = WalkEngine(torus_graph(8, 8), seed=1, auto_maintain=False)
        ledger = engine.network.ledger
        for _ in range(2):
            before = ledger.capture()
            res = query(engine)
            delta = ledger.delta_since(before)
            assert sum(res.phase_rounds.values()) == res.rounds == delta.rounds > 0
            assert res.phase_rounds == delta.phase_rounds

    def test_auto_maintain_stays_out_of_the_pooled_delta(self):
        engine = WalkEngine(torus_graph(8, 8), seed=1)
        ledger = engine.network.ledger
        for query in (lambda: engine.walk(0, 256), lambda: engine.walks([0, 1, 2], 256)):
            before = ledger.capture()
            res = query()
            delta = ledger.delta_since(before)
            maintain = delta.phase_rounds.get("pool-refill/maintain", 0)
            assert "pool-refill/maintain" not in res.phase_rounds
            assert res.rounds == delta.rounds - maintain
            assert sum(res.phase_rounds.values()) == res.rounds

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("pooled", [True, False])
    @pytest.mark.parametrize("source,length", [(16, 10), (-1, 10), (0, 0)])
    def test_bad_query_raises_before_billing(self, algorithm, pooled, source, length):
        engine = WalkEngine(torus_graph(4, 4), seed=0)
        with pytest.raises(WalkError, match="out of range|must be >= 1"):
            engine.walk(source, length, algorithm=algorithm, pooled=pooled)
        if algorithm == "paper":
            with pytest.raises(WalkError, match="out of range|must be >= 1"):
                engine.walks([0, source], length, pooled=pooled)
        assert engine.network.rounds == 0
        assert not engine.network.ledger.phases
        assert engine.stats().queries == 0
