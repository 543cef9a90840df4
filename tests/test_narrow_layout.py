"""The narrow layout keeps every stream and every public dtype.

The walk store holds node ids, lengths and row numbers as int32, the token
loops hand it int32 path matrices, and BFS trees hold int32 ``parent`` and
``depth`` arrays.  None of that may show outside: the generator consumes
the same stream, the stored values are the int64 ones, and records,
trajectories and tree climbs hand out int64 arrays and Python ints.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro import WalkEngine
from repro.congest import Network, build_bfs_tree
from repro.congest.phases import PHASE1
from repro.errors import WalkError
from repro.graphs import barbell_graph, torus_graph
from repro.util.rng import make_rng
from repro.walks import WalkStore, perform_short_walks, single_random_walk, token_counts
from repro.walks.short_walks import walk_tokens

GRAPHS = {"torus6x6": lambda: torus_graph(6, 6), "barbell": lambda: barbell_graph(6, 3)}
COLUMNS = ("_src", "_len", "_dst", "_alive")


def int64_phase1(network, store, lam, rng, counts):
    """Phase 1 as drawn with int64 origins and lengths."""
    origins = np.repeat(np.arange(network.graph.n, dtype=np.int64), counts)
    lengths = lam + rng.integers(0, lam, size=int(counts.sum()))
    positions, paths = walk_tokens(network, origins, lengths, rng, record_paths=True, phase=PHASE1)
    store.add_batch(origins, lengths, positions, paths=paths)


class TestPhase1Stream:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_same_generator_state_and_columns_as_the_int64_draw(self, name):
        graph = GRAPHS[name]()
        counts = token_counts(graph.degrees, 3.0, degree_proportional=True)
        got_store, want_store = WalkStore(graph.n), WalkStore(graph.n)
        got_rng, want_rng = make_rng(5), make_rng(5)
        got_net, want_net = Network(graph), Network(graph)
        perform_short_walks(got_net, got_store, 6, got_rng, counts=counts)
        int64_phase1(want_net, want_store, 6, want_rng, counts)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        size = got_store._size
        assert size == want_store._size == int(counts.sum())
        for column in COLUMNS:
            got = getattr(got_store, column)[:size].astype(np.int64)
            want = getattr(want_store, column)[:size].astype(np.int64)
            assert np.array_equal(got, want), column
        assert got_store._path_batches[0].dtype == np.int32
        assert np.array_equal(got_store._path_batches[0], want_store._path_batches[0])
        # Each record's path is found through its add: compare them all.
        assert list(got_store.iter_all()) == list(want_store.iter_all())
        assert got_net.rounds == want_net.rounds
        assert got_net.messages_sent == want_net.messages_sent


class TestStoreWidth:
    @pytest.mark.parametrize("column", ["sources", "destinations"])
    def test_add_batch_rejects_a_value_past_int32(self, column):
        store = WalkStore(2)
        cols = {"sources": np.array([0, 1]), "lengths": np.array([1, 1]),
                "destinations": np.array([1, 0])}
        cols[column] = np.array([0, 2**31])
        with pytest.raises(WalkError, match="int32"):
            store.add_batch(cols["sources"], cols["lengths"], cols["destinations"])
        assert store.tokens_created == 0 and store.total_unused() == 0

    def test_records_and_evictions_hand_out_int64(self):
        graph = torus_graph(6, 6)
        store = WalkStore(graph.n)
        counts = token_counts(graph.degrees, 1.0, degree_proportional=True)
        perform_short_walks(Network(graph), store, 4, make_rng(1), counts=counts)
        record = next(store.iter_all())
        assert record.path.dtype == np.int64
        assert all(type(v) is int for v in (record.source, record.length, record.destination))
        assert store.evict_rows(store.live_rows()[:3]).dtype == np.int64

    def test_an_endpoint_store_of_a_million_tokens_retains_under_28_bytes_each(self):
        total = 1_000_000
        rng = np.random.default_rng(0)
        sources = np.repeat(np.arange(total // 4, dtype=np.int64), 4)
        lengths = rng.integers(8, 16, size=total)
        destinations = rng.integers(0, total // 4, size=total)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = WalkStore(total // 4)  # its n per-source counts are held too
            store.add_batch(sources, lengths, destinations)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert store.total_unused() == total
        assert retained / total < 28


class TestPublicDtypes:
    def test_single_walk_positions_are_int64(self):
        result = single_random_walk(torus_graph(6, 6), 0, 40, seed=3, record_paths=True)
        assert result.positions.dtype == np.int64
        result.verify_positions(torus_graph(6, 6))

    def test_stitched_trajectories_are_int64(self):
        graph = torus_graph(6, 6)
        engine = WalkEngine(graph, seed=4, record_paths=True)
        engine.prepare(length_hint=64)
        result = engine.walks([0, 7, 20], 64, record_paths=True)
        assert len(result.positions) == 3
        for trajectory in result.positions:
            assert trajectory.dtype == np.int64 and len(trajectory) == 65

    def test_tree_climbs_yield_python_ints(self):
        tree = build_bfs_tree(Network(torus_graph(6, 6)), 0)
        assert tree.parent.dtype == np.int32 and tree.depth.dtype == np.int32
        assert all(type(v) is int for v in tree.closure([14, 21, 35]))
        assert all(type(v) is int for v in tree.path_to_root(35))
        assert tree.path_to_root(35)[-1] == 0
