"""Tests for the graph-churn subsystem (``repro.dynamic``).

The load-bearing claims of PR 5:

* **Delta application is exact bookkeeping** — ``Graph.apply_delta``
  rebuilds the CSR arrays identically to constructing a fresh graph from
  the post-delta edge list, surviving slots keep their (source, target,
  weight) identity through the remap, deletions match stored edges by
  occurrence (multigraph semantics), and absent-edge deletions raise.
* **Invalidation is exactly selective** — the vectorized path scan evicts
  precisely the pooled tokens whose recorded walk stepped from a mutated
  node (or crossed a deleted edge); every surviving token's recorded law
  is provably unchanged on the new graph.
* **The cascade leaves the session consistent** — network adjacency, BFS
  caches, shard quotas/watermarks all track the new topology, and the
  charged regeneration lands in ``"pool-refill/churn"``: on the session
  ledger, never in a request delta, and the scheduler's ledger balance
  extends to Σ attributed + maintain + churn = session delta exactly.
* **Exactness survives churn** — post-churn pooled endpoints follow the
  *new* graph's ``P^ℓ`` law (chi-square) with shared refills.
* **Admission pricing sees churn debt** — a round-budgeted churn event
  leaves deferred shards whose deficit admission control prices into
  rejections.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.congest import FaultStep, Network
from repro.congest.protocol import ProtocolAPI
from repro.dynamic import ChurnSpec, GraphDelta, run_churn_loop, sample_churn_delta
from repro.engine import WalkEngine
from repro.errors import GraphError, ProtocolError, WalkError
from repro.graphs import (
    Graph,
    barbell_graph,
    complete_graph,
    is_connected,
    random_regular_graph,
    torus_graph,
)
from repro.markov import WalkSpectrum
from repro.serve import TrafficSpec
from repro.util.rng import make_rng
from repro.util.stats import chi_square_goodness_of_fit
from repro.walks.store import WalkStore


def _apply(graph: Graph, *, insert=(), delete=(), weights=None) -> object:
    return graph.apply_delta(
        GraphDelta(insert_edges=list(insert), delete_edges=list(delete), insert_weights=weights)
    )


class TestGraphDelta:
    def test_validation(self):
        with pytest.raises(GraphError, match="pairs"):
            GraphDelta(insert_edges=[(1, 2, 3)])
        with pytest.raises(GraphError, match="insert_weights"):
            GraphDelta(insert_edges=[(0, 1)], insert_weights=[1.0, 2.0])
        with pytest.raises(GraphError, match="positive"):
            GraphDelta(insert_edges=[(0, 1)], insert_weights=[0.0])
        assert GraphDelta().is_empty
        assert GraphDelta(insert_edges=[(0, 1)]).num_changes == 1

    def test_apply_matches_fresh_construction(self):
        g = torus_graph(6, 6)
        delete = [g.edges()[3], g.edges()[17]]
        insert = [(0, 21), (5, 30)]
        _apply(g, insert=insert, delete=delete)
        kept = [e for i, e in enumerate(torus_graph(6, 6).edges()) if i not in (3, 17)]
        fresh = Graph(36, kept + insert)
        assert g.m == fresh.m and g.n_slots == fresh.n_slots
        assert np.array_equal(g.indptr, fresh.indptr)
        assert np.array_equal(g.csr_target, fresh.csr_target)
        assert np.array_equal(g.slot_sources(), fresh.slot_sources())
        assert np.array_equal(g.csr_edge, fresh.csr_edge)
        assert np.array_equal(g.degrees, fresh.degrees)
        assert np.allclose(g.weighted_degrees, fresh.weighted_degrees)

    def test_slot_remap_preserves_identity(self):
        g = torus_graph(5, 5)
        old_src, old_tgt = g.slot_sources(), g.csr_target.copy()
        old_w = g.edge_weights()[g.csr_edge]
        victim = g.edges()[7]
        remap = _apply(g, insert=[(0, 12)], delete=[victim])
        assert remap.old_n_slots == len(old_src)
        survived = 0
        for j, nj in enumerate(remap.slot_remap.tolist()):
            if nj < 0:
                assert {int(old_src[j]), int(old_tgt[j])} == set(victim)
            else:
                assert g.slot_sources()[nj] == old_src[j]
                assert g.csr_target[nj] == old_tgt[j]
                assert g.edge_weights()[g.csr_edge[nj]] == old_w[j]
                survived += 1
        assert survived == remap.old_n_slots - 2  # both directions of one edge

    def test_mutated_nodes_are_delta_endpoints(self):
        g = torus_graph(5, 5)
        u, v = g.edges()[0]
        remap = _apply(g, insert=[(7, 13)], delete=[(u, v)])
        assert set(remap.mutated_nodes.tolist()) == {u, v, 7, 13}

    def test_crash_shaped_delete_marks_every_endpoint(self):
        # A crash deletes every incident edge of the victim, a parallel
        # pair and a self-loop included.  The scan's contract needs both
        # endpoints of every deleted edge among the mutated nodes.
        g = Graph(6, [(0, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 4), (4, 5), (5, 0), (2, 5)])
        edges = g.edge_array
        incident = edges[(edges[:, 0] == 2) | (edges[:, 1] == 2)]
        remap = _apply(g, delete=incident.tolist())
        assert remap.edges_deleted == len(incident) == 5
        assert set(incident.ravel().tolist()) <= set(remap.mutated_nodes.tolist())
        assert set(remap.mutated_nodes.tolist()) == {1, 2, 3, 5}
        assert g.degrees[2] == 0

    def test_delete_absent_edge_raises(self):
        g = torus_graph(5, 5)
        with pytest.raises(GraphError, match="not .*present"):
            _apply(g, delete=[(0, 12)])

    def test_multigraph_occurrence_matching(self):
        g = Graph(3, [(0, 1), (0, 1), (1, 2)])
        _apply(g, delete=[(1, 0)])  # orientation-free: removes ONE parallel edge
        assert g.m == 2 and g.degree(0) == 1
        _apply(g, delete=[(0, 1)])
        assert g.m == 1
        with pytest.raises(GraphError, match="not .*present"):
            _apply(g, delete=[(0, 1)])

    def test_double_delete_of_parallel_pair_in_one_delta(self):
        g = Graph(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
        _apply(g, delete=[(0, 1), (0, 1)])
        assert g.m == 2 and g.degree(0) == 1

    def test_weighted_insert_changes_walk_law(self):
        g = Graph(3, [(0, 1), (1, 2)])
        _apply(g, insert=[(0, 2)], weights=[3.0])
        assert g.is_weighted
        assert g.weighted_degree(0) == 4.0
        # Lazy caches rebuilt: has_edge and reverse_slot see the new edge.
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        for s in range(g.n_slots):
            r = g.reverse_slot(s)
            sources = g.slot_sources()
            assert sources[r] == g.csr_target[s] and g.csr_target[r] == sources[s]

    def test_network_refresh_topology(self):
        g = torus_graph(4, 4)
        net = Network(g, seed=1)
        u, v = g.edges()[0]
        assert g.has_edge(u, v)
        _apply(g, insert=[(0, 10)], delete=[(u, v)])
        net.refresh_topology()
        assert not g.has_edge(u, v)
        assert g.has_edge(0, 10) and g.has_edge(10, 0)
        api = ProtocolAPI(net, net.rng)
        api.send(0, 10, "hello")
        with pytest.raises(ProtocolError, match="non-neighbor"):
            api.send(u, v, "hello")

    def test_apply_delta_rejects_out_of_range_and_wrong_type(self):
        g = torus_graph(4, 4)
        with pytest.raises(GraphError, match="out of range"):
            _apply(g, insert=[(0, 99)])
        with pytest.raises(GraphError, match="GraphDelta"):
            g.apply_delta([(0, 1)])


class TestStoreInvalidation:
    def _store_with_paths(self, paths: list[list[int]], sources=None) -> WalkStore:
        store = WalkStore(10)  # nodes 0-9, as every test's mask
        lengths = np.array([len(p) - 1 for p in paths], dtype=np.int64)
        width = int(lengths.max()) + 1
        matrix = np.zeros((len(paths), width), dtype=np.int64)
        for i, p in enumerate(paths):
            matrix[i, : len(p)] = p
            matrix[i, len(p):] = p[-1]  # scratch columns mimic the walk loop
        src = np.array(
            [p[0] for p in paths] if sources is None else sources, dtype=np.int64
        )
        dst = np.array([p[-1] for p in paths], dtype=np.int64)
        store.add_batch(src, lengths, dst, paths=matrix)
        return store

    def test_scan_flags_steps_from_mutated_nodes_only(self):
        # Token 0 steps from node 5 (mutated): invalid.  Token 1 merely
        # *ends* at node 5: the final position samples nothing, so valid.
        # Token 2 never touches node 5: valid.
        store = self._store_with_paths([[5, 1, 2], [3, 4, 5], [6, 7, 8]])
        mutated = np.zeros(10, dtype=bool)
        mutated[5] = True
        rows = store.find_invalid_rows(mutated)
        assert rows.tolist() == [0]

    def test_scan_flags_deleted_edge_traversal(self):
        # Deleting {2, 3} marks both endpoints.  Token 0 crosses the edge
        # (a step from 2): invalid.  Token 2 only *ends* at endpoint 3:
        # valid.  Token 1 starts at 3, so it steps from an endpoint.
        store = self._store_with_paths([[1, 2, 3], [3, 4, 6], [5, 4, 3]])
        mutated = np.zeros(10, dtype=bool)
        mutated[[2, 3]] = True  # the endpoints of the deleted edge {2, 3}
        rows = store.find_invalid_rows(mutated)
        assert rows.tolist() == [0, 1]

    def test_scratch_columns_do_not_vote(self):
        # A length-1 token whose scratch columns repeat a mutated endpoint
        # must not be evicted: only column 0 is a step-from position.
        store = self._store_with_paths([[1, 9]])
        mutated = np.zeros(10, dtype=bool)
        mutated[9] = True
        rows = store.find_invalid_rows(mutated)
        assert rows.size == 0

    def test_evict_rows_bookkeeping(self):
        store = self._store_with_paths([[5, 1, 2], [5, 2, 3], [6, 7, 8]])
        sources = store.evict_rows(np.array([0, 1]))
        assert sources.tolist() == [5, 5]
        assert store.tokens_evicted == 2
        assert store.total_unused() == 1 == len(store)
        assert store.count_for_source(5) == 0
        assert store.count_for_source(6) == 1
        assert [t.token_id for t in store.iter_all()] == [2]
        assert store.sample_uniform_token(5, make_rng(1)) is None
        with pytest.raises(WalkError, match="not live"):
            store.evict_rows(np.array([0]))

    def test_scan_survives_uninitialized_refill_scratch(self):
        # Refill batches allocate np.empty path matrices and break out of
        # the reservoir extension once every token retires, leaving
        # trailing columns as raw heap garbage (arbitrary int64s, possibly
        # >= n).  The scan must neutralize those BEFORE fancy-indexing the
        # mutated mask, not merely mask them out of the vote.
        from repro.congest import Network
        from repro.graphs import cycle_graph
        from repro.walks.get_more_walks import get_more_walks

        g = cycle_graph(12)
        store = WalkStore(g.n)
        for seed in range(8):  # several one-token refills: some retire early
            get_more_walks(Network(g, seed=seed), store, 0, 1, 4, make_rng(seed))
        mutated = np.zeros(g.n, dtype=bool)
        mutated[3] = True
        rows = store.find_invalid_rows(mutated)
        for row in rows.tolist():  # flagged tokens really stepped from node 3
            token = next(t for t in store.iter_all() if t.token_id == row)
            assert 3 in token.path[: token.length].tolist()

    def test_evict_frees_path_batches(self):
        store = self._store_with_paths([[0, 1], [1, 2]])
        store.evict_rows(store.live_rows())
        assert store._path_batches == [None]
        assert store.total_unused() == 0


def _safe_delta(graph, seed=5, deletes=3, inserts=3):
    return sample_churn_delta(
        graph, make_rng(seed), deletes=deletes, inserts=inserts, preserve_connectivity=True
    )


class TestChurnCascade:
    def test_cascade_consistency(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=11, auto_maintain=False)
        engine.prepare(lam=5)
        engine.walk(0, 64)
        delta = _safe_delta(torus_8x8, seed=2)
        report = engine.apply_churn(delta)
        assert report.edges_deleted == 3 and report.edges_inserted == 3
        assert report.tokens_evicted > 0 and not report.full_eviction
        assert report.rounds == report.regen_rounds > 0
        assert engine._tree_cache == {}
        # Quotas re-derive from the new degree profile.
        manager = engine.pool
        from repro.walks.short_walks import token_counts

        base = token_counts(engine.graph.degrees, engine.pool.eta, degree_proportional=True)
        shard_ids = np.arange(engine.graph.n) % manager.num_shards
        for shard in manager.shards:
            assert shard.quota == int(base[shard_ids == shard.shard_id].sum())
        # Charged to the churn family on the session ledger.
        stats = engine.stats()
        assert stats.phase_rounds["pool-refill/churn"] == report.regen_rounds
        assert stats.churn_events == 1
        assert stats.churn_tokens_evicted == report.tokens_evicted
        assert stats.churn_tokens_regenerated == report.tokens_regenerated
        # Serving continues on the new topology.
        res = engine.walk(3, 64)
        assert res.mode == "stitched"
        assert "pool-refill/churn" not in res.phase_rounds  # never in a request delta

    def test_survivors_are_exactly_the_valid_tokens(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=13, auto_maintain=False)
        engine.prepare(lam=5)
        store = engine.pool.store
        pre_churn_ids = {t.token_id for t in store.iter_all()}
        delta = _safe_delta(torus_8x8, seed=3)
        # Capture the remap by applying the same delta to a twin graph.
        twin = torus_graph(8, 8)
        remap = twin.apply_delta(
            GraphDelta(insert_edges=delta.insert_edges, delete_edges=delta.delete_edges)
        )
        engine.apply_churn(delta)
        mutated = set(remap.mutated_nodes.tolist())
        for token in store.iter_all():
            if token.token_id not in pre_churn_ids:
                continue  # regenerated on the new graph
            # Survivor: no recorded step was sampled at a mutated node.
            assert not any(int(v) in mutated for v in token.path[: token.length])

    def test_cold_engine_churn_is_topology_only(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=1)
        report = engine.apply_churn(_safe_delta(torus_8x8))
        assert report.tokens_scanned == report.tokens_evicted == 0
        assert report.rounds == 0
        assert engine.pool is None

    def test_pathless_pool_falls_back_to_full_eviction(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=9, record_paths=False, auto_maintain=False)
        engine.prepare(lam=5)
        before = engine.pool.store.total_unused()
        report = engine.apply_churn(_safe_delta(torus_8x8, seed=4))
        assert report.full_eviction
        assert report.tokens_evicted == before
        assert report.tokens_regenerated > 0
        assert engine.walk(0, 64).mode == "stitched"

    @pytest.mark.parametrize("record_paths", [False, True])
    def test_an_empty_delta_evicts_nothing(self, torus_8x8, record_paths):
        # sample_churn_delta returns an empty delta when every sampled
        # deletion would disconnect the graph and it inserts nothing.  No
        # node's law changed, so no token may go, pathless pool or not.
        engine = WalkEngine(torus_8x8, seed=9, record_paths=record_paths, auto_maintain=False)
        engine.prepare(lam=8)
        before, rounds = engine.pool.store.total_unused(), engine.network.rounds
        report = engine.apply_churn(GraphDelta())
        assert report.tokens_evicted == 0 and not report.full_eviction
        assert report.rounds == 0 and engine.network.rounds == rounds
        assert engine.pool.store.total_unused() == before

    def test_budgeted_churn_defers_and_prices_into_admission(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=21, record_paths=False, auto_maintain=False)
        engine.prepare(lam=5)
        # A size-sensitive price model (as after observed congestion) makes
        # the budget bite; a fresh EMA prices every sweep at the flat
        # iteration base, where splitting would buy nothing by design.
        engine.pool._congestion_per_token = 1.0
        report = engine.apply_churn(_safe_delta(torus_8x8, seed=6), round_budget=1)
        assert report.deferred_shards, "budget of 1 round must defer shards"
        manager = engine.pool
        assert manager.outstanding_deficit() > 0
        # The deferred shards' deficit is visible to admission pricing: a
        # request on a deferred below-watermark shard with a tiny budget
        # is rejected for free.
        sched = engine.scheduler(max_batch_requests=2)
        unused = manager.shard_unused()
        needy = [
            s for s in report.deferred_shards
            if unused[s] < manager.shards[s].low_watermark
        ]
        assert needy, "deferred shards should sit below watermark"
        source = next(
            v for v in range(engine.graph.n) if manager.shard_of(v) == needy[0]
        )
        assert manager.estimate_refill_rounds([needy[0]]) > 1
        ticket = sched.submit([source], 64, deadline=1)
        assert ticket.status == "rejected"
        assert ticket.reject_reason == "shard-refill-exceeds-budget"

    def test_ledger_balance_with_churn_family(self, torus_8x8):
        # The PR-4 accounting contract extended: Σ attributed + maintain +
        # churn = session delta exactly, with churn events interleaved
        # between scheduler ticks.
        engine = WalkEngine(torus_8x8, seed=31, record_paths=True, auto_maintain=False)
        engine.prepare(lam=5)
        base = engine.network.rounds
        sched = engine.scheduler(max_batch_requests=2, maintain_round_budget=40)
        tickets = []
        for i in range(8):
            tickets.append(sched.submit([(9 * i) % 64], 128, deadline=1_000_000))
            if i % 3 == 2:
                engine.apply_churn(_safe_delta(engine.graph, seed=100 + i, deletes=2, inserts=2))
            sched.tick()
        sched.drain()
        done = [t for t in tickets if t.status == "done"]
        assert len(done) == 8
        ledger = engine.network.ledger
        attributed = sum(t.rounds_attributed for t in done)
        maintain = ledger.phase_rounds("pool-refill/maintain")
        churn = ledger.phase_rounds("pool-refill/churn")
        assert churn > 0
        assert attributed + maintain + churn == engine.network.rounds - base
        # No request delta ever contains churn work.
        for t in done:
            assert "pool-refill/churn" not in t.result.phase_rounds

    def test_post_churn_endpoints_follow_new_law(self):
        # The satellite exactness claim: after churn, pooled endpoints
        # (with shared refills across 400 queries) follow the NEW graph's
        # exact P^l distribution.
        g = complete_graph(6)
        length = 40
        engine = WalkEngine(g, seed=4321, record_paths=True)
        engine.prepare(lam=4)
        engine.walk(0, length)  # warm serving before the topology moves
        delta = GraphDelta(insert_edges=[(0, 1)], delete_edges=[(2, 3), (4, 5)])
        engine.apply_churn(delta)
        dist = WalkSpectrum(engine.graph).distribution(0, length)
        endpoints = [engine.walk(0, length).destination for _ in range(400)]
        observed = {v: endpoints.count(v) for v in set(endpoints)}
        expected = {v: float(dist[v]) for v in range(g.n) if dist[v] > 1e-12}
        assert not chi_square_goodness_of_fit(observed, expected).rejects_at(1e-4)

    def test_fixed_seed_replays_churned_stream(self):
        def run():
            graph = torus_graph(8, 8)  # churn mutates in place: fresh per run
            engine = WalkEngine(graph, seed=55, auto_maintain=False)
            engine.prepare(lam=5)
            out = [engine.walk(i % 64, 96).destination for i in range(5)]
            engine.apply_churn(_safe_delta(graph, seed=8))
            out += [engine.walk(i % 64, 96).destination for i in range(5)]
            return out, engine.network.rounds

        assert run() == run()


def _edge_multiset(graph: Graph) -> Counter:
    return Counter((min(u, v), max(u, v)) for u, v in graph.edge_array.tolist())


def _reference_invalid(tokens, deleted, endpoints, crashed) -> set[int]:
    """Token ids a brute-force reading of the eviction rule removes."""
    out = set()
    for token in tokens:
        hops = token.path.tolist()
        steps = range(token.length)
        if (
            any(hops[j] in endpoints for j in steps)
            or any((min(hops[j], hops[j + 1]), max(hops[j], hops[j + 1])) in deleted for j in steps)
            or token.destination in crashed
        ):
            out.add(token.token_id)
    return out


class TestEvictionMatchesReference:
    """Real churn and crash/recover steps evict exactly what a per-token check names.

    The reference never reads the :class:`DeltaRemap`: it diffs the edge
    multisets before and after the step and walks every recorded path.
    """

    @pytest.mark.parametrize(
        "graph,crashable",
        [
            (torus_graph(6, 6), list(range(36))),
            # Any barbell node but the bridge's endpoints leaves the rest connected.
            (barbell_graph(6, 1), [v for v in range(12) if v not in (5, 6)]),
        ],
        ids=["torus6x6", "barbell"],
    )
    def test_evicted_tokens_equal_the_reference(self, graph, crashable):
        engine = WalkEngine(graph, seed=17)
        engine.prepare(lam=4, record_paths=True)
        store = engine.pool.store
        rng = make_rng(23)
        crashed: list[int] = []
        steps = ["churn", "crash", "recover", "churn", "crash", "crash", "recover", "churn"]
        checked = 0
        for kind in steps:
            live = [v for v in range(graph.n) if v not in crashed]
            engine.walks(rng.choice(live, size=4).tolist(), 24)
            before = _edge_multiset(graph)
            tokens = list(store.iter_all())
            evicted_before = store.tokens_evicted
            down: set[int] = set()
            if kind == "churn":
                engine.apply_churn(sample_churn_delta(graph, rng, deletes=3, inserts=2))
            elif kind == "crash":
                victim = int(rng.choice([v for v in crashable if v not in crashed]))
                crashed.append(victim)
                down = {victim}
                engine.apply_faults(FaultStep(at_round=engine.network.rounds, crash=(victim,)))
            else:
                engine.apply_faults(
                    FaultStep(at_round=engine.network.rounds, recover=tuple(crashed))
                )
                crashed.clear()
            after = _edge_multiset(graph)
            deleted, inserted = before - after, after - before
            endpoints = {v for edge in deleted + inserted for v in edge}
            want = _reference_invalid(tokens, set(deleted), endpoints, down)
            survivors = {t.token_id for t in store.iter_all()}
            got = {t.token_id for t in tokens} - survivors
            assert got == want, kind
            assert store.tokens_evicted - evicted_before == len(want)
            assert store.live_rows().size == (
                store.tokens_created - store.tokens_consumed - store.tokens_evicted
            )
            checked += len(want)
        assert checked > 0


class TestChurnWorkload:
    def test_sample_delta_preserves_connectivity(self):
        g = torus_graph(6, 6)
        rng = make_rng(3)
        for _ in range(5):
            delta = sample_churn_delta(g, rng, deletes=4, inserts=2)
            g.apply_delta(delta)
            assert is_connected(g)

    def test_sample_delta_can_fall_short_on_trees(self):
        # Every edge of a path is a bridge: nothing is deletable.
        from repro.graphs import path_graph

        g = path_graph(8)
        delta = sample_churn_delta(g, make_rng(1), deletes=3, inserts=0)
        assert len(delta.delete_edges) == 0

    def test_sample_delta_pinned(self):
        # 100 deletions from a 4-regular graph of 400 edges: the
        # connectivity check skips some candidates, so the pin covers it.
        g = random_regular_graph(200, 4, 0)
        delta = sample_churn_delta(g, make_rng(5), deletes=100, inserts=20)
        digest = hashlib.sha256(delta.insert_edges.tobytes() + delta.delete_edges.tobytes())
        assert (len(delta.insert_edges), len(delta.delete_edges)) == (20, 100)
        assert digest.hexdigest()[:16] == "e332138fb240fe60"
        unchecked = sample_churn_delta(
            g, make_rng(5), deletes=100, inserts=20, preserve_connectivity=False
        )
        assert not np.array_equal(unchecked.delete_edges, delta.delete_edges)

    def test_churn_spec_validation(self):
        with pytest.raises(WalkError):
            ChurnSpec(delete_rate=-1)
        with pytest.raises(WalkError):
            ChurnSpec(round_budget=0)

    def test_run_churn_loop_end_to_end(self, torus_8x8):
        engine = WalkEngine(torus_8x8, seed=17, record_paths=True, auto_maintain=False)
        engine.prepare(lam=5)
        sched = engine.scheduler(max_batch_requests=4, maintain_round_budget=60)
        traffic = TrafficSpec(n=64, lengths=(96,), ks=(1, 2))
        churn = ChurnSpec(delete_rate=1.0, insert_rate=1.0)
        tickets, reports = run_churn_loop(
            sched, traffic, churn, make_rng(9), rate=2.0, ticks=6
        )
        assert reports, "six ticks at rate 1+1 should produce churn events"
        assert all(t.status in ("done", "rejected") for t in tickets)
        done = [t for t in tickets if t.status == "done"]
        assert done and all(len(t.result.destinations) == t.k for t in done)
        assert engine.stats().churn_events == len(reports)
        assert is_connected(engine.graph)


class TestSpeculativePrefetch:
    def _depleted_pair(self):
        """An engine with >= 2 equally-urgent depleted shards."""
        g = torus_graph(8, 8)
        engine = WalkEngine(g, seed=23, record_paths=False, auto_maintain=False)
        engine.prepare(lam=5)
        manager = engine.pool
        i = 0
        while len(manager.depleted_shards()) < 2 and i < 300:
            engine.walk(i % 64, 256)
            i += 1
        depleted = manager.depleted_shards()
        assert len(depleted) >= 2
        return engine, manager, depleted

    def test_demand_steers_maintenance_order(self):
        engine, manager, depleted = self._depleted_pair()
        baseline = manager.maintenance_order(depleted)
        target = baseline[-1]  # least urgent without demand
        manager.note_demand([target] * (engine.pool.store.tokens_created))  # overwhelming
        assert manager.maintenance_order(depleted)[0] == target
        # Demand is consumed by the next maintain: the ordering reverts.
        engine.maintain(round_budget=1)
        assert np.all(manager._prefetch_demand == 0)

    def test_queued_tickets_warm_their_shards(self):
        engine, manager, depleted = self._depleted_pair()
        target = manager.maintenance_order(depleted)[-1]  # least urgent w/o demand
        others = [s for s in depleted if s != target]
        source = next(v for v in range(engine.graph.n) if manager.shard_of(v) == target)
        # Size-sensitive price model so budget=1 forces a single-shard
        # prefix; walks shorter than the loop margin (2λ = 10) never touch
        # the pool, so the cohort cannot mask the maintenance decision.
        manager._congestion_per_token = 1.0
        sched = engine.scheduler(max_batch_requests=1, maintain_round_budget=1)
        sched.submit([0], 8)
        for _ in range(12):
            sched.submit([source], 8)
        report = sched.tick()
        # The queued burst was noted and steered the budgeted maintain to
        # the demanded shard; the previously more-urgent shards deferred.
        assert sched.stats().prefetch_shards_noted >= 12
        assert manager.shards[target].refills == 1
        assert all(manager.shards[s].refills == 0 for s in others)
        assert set(others) <= set(report.deferred_shards)
        sched.drain()
