"""Tests for the short-walk token store."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import WalkError
from repro.walks import TokenRecord, WalkStore
from repro.walks.store import _SCAN_BLOCK


N = 10  #: nodes of the graph every store below is sized for


def record(tid: int, source: int = 0, length: int = 3, destination: int = 2) -> TokenRecord:
    return TokenRecord(token_id=tid, source=source, length=length, destination=destination)


def add_tokens(store: WalkStore, sources, destinations, length: int = 3) -> list[TokenRecord]:
    """One ``add_batch`` of ``(source, destination)`` tokens; their records, in row order."""
    ids = store.add_batch(np.array(sources), np.full(len(sources), length), np.array(destinations))
    return [record(int(i), s, length, d) for i, s, d in zip(ids, sources, destinations)]


def snapshot(store: WalkStore) -> tuple:
    """Every counter and column a rejected call must leave as it was."""
    size = store._size
    return (
        store.tokens_created,
        store.tokens_consumed,
        store.tokens_evicted,
        store.shard_counts().tolist(),
        store.source_count_arrays()[1].tolist(),
        [getattr(store, c)[:size].tolist() for c in ("_src", "_len", "_dst", "_alive")],
        list(store._batch_starts),
        list(store._batch_live),
    )


class TestTokenRecord:
    def test_path_length_validated(self):
        with pytest.raises(WalkError):
            TokenRecord(token_id=0, source=0, length=3, destination=1, path=np.array([0, 1]))

    def test_valid_path_accepted(self):
        rec = TokenRecord(
            token_id=0, source=0, length=2, destination=2, path=np.array([0, 1, 2])
        )
        assert rec.length == 2

    def test_negative_length_rejected(self):
        with pytest.raises(WalkError):
            TokenRecord(token_id=0, source=0, length=-1, destination=1)


class TestWalkStore:
    def test_add_and_count(self):
        store = WalkStore(N)
        add_tokens(store, [1, 1, 1], [5, 5, 6])
        assert store.count_for_source(1) == 3
        assert store.count_for_source(9) == 0
        assert len(store.tokens_at(5, 1)) == 2
        assert store.holders_for_source(1) == {5: 2, 6: 1}

    def test_remove(self):
        store = WalkStore(N)
        (rec,) = add_tokens(store, [2], [3])
        store.remove(rec)
        assert store.count_for_source(2) == 0
        assert store.tokens_at(3, 2) == []
        assert store.tokens_consumed == 1

    def test_remove_missing_raises(self):
        store = WalkStore(N)
        with pytest.raises(WalkError):
            store.remove(record(0))

    def test_remove_twice_raises(self):
        store = WalkStore(N)
        (rec,) = add_tokens(store, [0], [2])
        store.remove(rec)
        with pytest.raises(WalkError):
            store.remove(rec)

    def test_remove_rejects_a_record_its_row_does_not_hold(self):
        store = WalkStore(N)
        consumed, _live = add_tokens(store, [1, 1], [4, 5])
        store.remove(consumed)
        before = snapshot(store)
        for bad in (
            consumed,  # row 0 is no longer live
            record(2, source=1, destination=4),  # past the last row
            record(-1, source=1, destination=5),  # no row is negative
            record(1, source=2, destination=5),  # row 1 holds source 1
            record(1, source=1, destination=4),  # row 1 rests at node 5
        ):
            with pytest.raises(WalkError, match="not stored"):
                store.remove(bad)
            assert snapshot(store) == before

    def test_token_ids_unique(self):
        # A token's id is its row: ids run on across adds and never repeat.
        store = WalkStore(N)
        ids = np.concatenate([store.add_batch(*np.ones((3, k), np.int64)) for k in (1, 64, 35)])
        assert ids.dtype == np.int64 and ids.tolist() == list(range(100))
        assert [rec.token_id for rec in store.iter_all()] == store.live_rows().tolist() == ids.tolist()

    def test_iter_all_and_len(self):
        store = WalkStore(N)
        add_tokens(store, [0, 1, 0, 1], [2, 2, 2, 2])
        assert len(store) == 4
        assert len(list(store.iter_all())) == 4
        assert store.total_unused() == 4

    def test_tokens_at_returns_copy(self):
        store = WalkStore(N)
        add_tokens(store, [1], [5])
        bucket = store.tokens_at(5, 1)
        bucket.clear()
        assert store.count_for_source(1) == 1

    def test_repr(self):
        store = WalkStore(N)
        add_tokens(store, [0], [2])
        assert "unused=1" in repr(store)


class ReferenceStore:
    """The store's one rule, spelled out as the semantic oracle.

    The live tokens sit in one list in row (add) order.  Holders are listed
    in order of their first live token, a holder's tokens in row order, and
    a pick would index the source's tokens in that list.
    """

    def __init__(self):
        self.live = []
        self.created = 0
        self.consumed = 0

    def add(self, rec):
        self.live.append(rec)
        self.created += 1

    def remove(self, rec):
        for i, existing in enumerate(self.live):
            if existing.token_id == rec.token_id and existing.destination == rec.destination:
                del self.live[i]
                self.consumed += 1
                return
        raise WalkError("missing")

    def holders_for_source(self, source):
        holders = {}
        for rec in self.live:
            if rec.source == source:
                holders[rec.destination] = holders.get(rec.destination, 0) + 1
        return holders

    def tokens_at(self, holder, source):
        return [rec for rec in self.live if rec.source == source and rec.destination == holder]


class TestColumnarStore:
    def test_add_batch_assigns_sequential_ids(self):
        store = WalkStore(N)
        ids = store.add_batch(
            np.array([0, 0, 1]), np.array([2, 3, 2]), np.array([4, 5, 4])
        )
        assert ids.dtype == np.int64 and ids.tolist() == [0, 1, 2]
        # The next add numbers on from the row count.
        assert store.add_batch(np.array([2]), np.array([1]), np.array([3])).tolist() == [3]
        assert store.tokens_created == 4

    def test_add_batch_shared_path_matrix(self):
        store = WalkStore(N)
        paths = np.array([[0, 1, 2, 99], [1, 2, 3, 4]])
        store.add_batch(
            np.array([0, 1]), np.array([2, 3]), np.array([2, 4]), paths=paths
        )
        recs = {rec.token_id: rec for rec in store.iter_all()}
        # Materialized paths slice to exactly length + 1 entries.
        assert recs[0].path.tolist() == [0, 1, 2]
        assert recs[1].path.tolist() == [1, 2, 3, 4]

    def test_add_batch_validates(self):
        store = WalkStore(N)
        with pytest.raises(WalkError):
            store.add_batch(np.array([0]), np.array([-1]), np.array([1]))
        with pytest.raises(WalkError):
            store.add_batch(np.array([0, 1]), np.array([1]), np.array([1, 2]))
        with pytest.raises(WalkError):  # path matrix too narrow for max length
            store.add_batch(
                np.array([0]), np.array([3]), np.array([1]), paths=np.zeros((1, 3), dtype=np.int64)
            )

    def test_add_batch_rejects_a_node_outside_the_graph(self):
        store = WalkStore(N)
        paths = np.zeros((2, 3), np.int64)
        store.add_batch(np.array([0, 3]), np.array([1, 2]), np.array([1, 9]), paths=paths)
        before = snapshot(store)
        for src, dst in (([0, N], [1, 2]), ([-1, 0], [1, 2]), ([0, 1], [N, 2])):
            with pytest.raises(WalkError, match=f"nodes in \\[0, {N}\\)"):
                store.add_batch(np.array(src), np.array([1, 1]), np.array(dst))
            assert snapshot(store) == before
        assert len(store._path_batches) == 1

    def test_shard_counts_default_to_one_shard(self):
        with pytest.raises(WalkError, match="num_shards"):
            WalkStore(N, num_shards=0)
        store = WalkStore(N)
        store.add_batch(np.array([0, 5, 5]), np.array([1, 1, 1]), np.array([1, 4, 6]))
        assert store.shard_counts().tolist() == [store.total_unused()] == [3]
        assert store.counts_for_sources(np.array([5, -1, 0, 9, 2, N])).tolist() == [2, 0, 1, 0, 0, 0]
        assert store.count_for_source(N) == store.count_for_source(-1) == 0
        assert store.source_count_arrays()[0].tolist() == list(range(N))

    def test_token_at_matches_tokens_at(self):
        store = WalkStore(N)
        store.add_batch(
            np.array([7, 7, 7]), np.array([1, 1, 1]), np.array([3, 3, 9])
        )
        bucket = store.tokens_at(3, 7)
        for i, rec in enumerate(bucket):
            assert store.token_at(3, 7, i) == rec
        with pytest.raises(WalkError):
            store.token_at(3, 7, 5)
        with pytest.raises(WalkError):
            store.token_at(4, 7, 0)

    def test_counters_consistent_under_interleaved_add_remove(self):
        """Regression: created/consumed/total_unused stay in lockstep."""
        store = WalkStore(N)
        rng = np.random.default_rng(99)
        live = []
        for step in range(400):
            if live and rng.random() < 0.4:
                rec = live.pop(int(rng.integers(0, len(live))))
                store.remove(rec)
            elif rng.random() < 0.3:
                ids = set(store.add_batch(
                    rng.integers(0, 5, size=3),
                    rng.integers(0, 4, size=3),
                    rng.integers(0, 6, size=3),
                ).tolist())
                live.extend(rec for rec in store.iter_all() if rec.token_id in ids)
            else:
                source, length, destination = (int(rng.integers(0, k)) for k in (5, 4, 6))
                live.extend(add_tokens(store, [source], [destination], length))
            assert store.total_unused() == len(live)
            assert store.tokens_created - store.tokens_consumed == len(live)
            assert store.tokens_created == store.tokens_consumed + sum(
                1 for _ in store.iter_all()
            )
            assert len(store) == len(live)

    def test_randomized_equivalence_with_reference_store(self):
        """Columnar store == the one-rule reference on random add/query/remove.

        Checks contents *and* iteration order of holders_for_source /
        tokens_at — holders by first live row, tokens in row order — also
        when a bucket empties and refills.
        """
        rng = np.random.default_rng(1234)
        store, ref = WalkStore(N), ReferenceStore()
        live = []
        n_sources, n_holders = 6, 8
        for step in range(600):
            action = rng.random()
            if action < 0.45 or not live:
                source, length, destination = (
                    int(rng.integers(0, k)) for k in (n_sources, 5, n_holders)
                )
                (rec,) = add_tokens(store, [source], [destination], length)
                ref.add(rec)
                live.append(rec)
            elif action < 0.75:
                rec = live.pop(int(rng.integers(0, len(live))))
                store.remove(rec)
                ref.remove(rec)
            else:
                source = int(rng.integers(0, n_sources))
                got = store.holders_for_source(source)
                want = ref.holders_for_source(source)
                assert got == want
                assert list(got) == list(want)  # holder iteration order
                for holder in want:
                    got_ids = [r.token_id for r in store.tokens_at(holder, source)]
                    want_ids = [r.token_id for r in ref.tokens_at(holder, source)]
                    assert got_ids == want_ids  # bucket order
        assert store.tokens_created == ref.created
        assert store.tokens_consumed == ref.consumed

    def test_bucket_reinsertion_moves_holder_to_end(self):
        store = WalkStore(N)
        a, _b = add_tokens(store, [1, 1], [5, 6])
        assert list(store.holders_for_source(1)) == [5, 6]
        store.remove(a)  # empties holder 5's bucket
        add_tokens(store, [1], [5])
        # Holder 5 re-enters at the end, like the legacy keyed-dict store.
        assert list(store.holders_for_source(1)) == [6, 5]

    def test_grows_past_initial_capacity(self):
        store = WalkStore(N)
        total = 5000
        store.add_batch(
            np.zeros(total, dtype=np.int64),
            np.ones(total, dtype=np.int64),
            np.arange(total, dtype=np.int64) % 7,
        )
        assert store.total_unused() == total
        assert store.count_for_source(0) == total
        assert sum(store.holders_for_source(0).values()) == total


class TestPathMemoryReclamation:
    def test_batch_matrix_freed_when_all_tokens_consumed(self):
        store = WalkStore(N)
        paths = np.array([[0, 1, 9], [2, 3, 9]])
        store.add_batch(np.array([0, 0]), np.array([1, 1]), np.array([1, 3]), paths=paths)
        recs = list(store.iter_all())
        store.remove(recs[0])
        assert store._path_batches[0] is not None  # one token still live
        store.remove(recs[1])
        assert store._path_batches[0] is None  # hop matrix released

    def test_single_add_path_freed_and_not_aliased(self):
        store = WalkStore(N)
        store.add_batch(np.array([0]), np.array([2]), np.array([2]), paths=np.array([[0, 1, 2]]))
        rec = store.tokens_at(2, 0)[0]
        rec.path[0] = 77  # a caller mutates the record it was handed
        assert store.tokens_at(2, 0)[0].path.tolist() == [0, 1, 2]
        store.remove(rec)
        assert store._path_batches[0] is None

    def test_paths_are_found_through_their_add(self):
        # Adds with and without paths interleave, and evictions retire rows
        # in between.  Every live record still reads its own matrix row, and
        # the scan sees only the adds that still hold a matrix.
        store = WalkStore(N)
        empty = store.find_invalid_rows(np.ones(N, dtype=bool))
        assert empty.dtype == np.int64 and empty.size == 0
        add = store.add_batch
        add(np.array([0, 1]), np.array([1, 1]), np.array([1, 2]))
        add(np.array([3, 4, 5]), np.array([1, 2, 1]), np.array([4, 6, 6]),
            paths=np.array([[3, 4, 0], [4, 5, 6], [5, 6, 0]]))
        add(np.array([6]), np.array([0]), np.array([6]))
        add(np.array([7, 8]), np.array([1, 1]), np.array([8, 9]), paths=np.array([[7, 8], [8, 9]]))
        store.evict_rows(np.array([2, 5]))
        got = {rec.token_id: None if rec.path is None else rec.path.tolist() for rec in store.iter_all()}
        assert got == {0: None, 1: None, 3: [4, 5, 6], 4: [5, 6], 6: [7, 8], 7: [8, 9]}
        mutated = np.zeros(N, dtype=bool)
        mutated[[0, 1, 4, 5, 6, 8]] = True
        invalid = store.find_invalid_rows(mutated)
        assert invalid.dtype == np.int64 and invalid.tolist() == [3, 4, 7]
        store.evict_rows(invalid)
        assert [m is None for m in store._path_batches] == [True, True, True, False]
        assert store.token_at(8, 7, 0).path.tolist() == [7, 8]
        store.evict_rows(np.array([6]))
        assert all(m is None for m in store._path_batches)
        empty = store.find_invalid_rows(mutated)
        assert empty.dtype == np.int64 and empty.size == 0


class TestScanMemory:
    def test_scan_temporaries_scale_with_the_block(self):
        # One path matrix 32 scan blocks long.  The churn scan's peak must
        # stay far below the matrix, so no whole-pool copy of it (gathered
        # rows, a cleaned copy, a steps mask) can come back.
        width, n = 64, 1000
        rows = 32 * _SCAN_BLOCK // width
        rng = np.random.default_rng(0)
        lengths = rng.integers(width // 2, width, rows)
        paths = rng.integers(0, n, (rows, width))
        store = WalkStore(n)
        store.add_batch(paths[:, 0].copy(), lengths, paths[np.arange(rows), lengths], paths=paths)
        mutated = np.zeros(n, dtype=bool)
        mutated[::97] = True
        tracemalloc.start()
        try:
            flagged = store.find_invalid_rows(mutated)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < flagged.size < rows
        assert peak < paths.nbytes / 4


class TestTokenRecordEquality:
    def test_fresh_materializations_compare_equal(self):
        store = WalkStore(N)
        paths = np.array([[0, 1, 2]])
        store.add_batch(np.array([0]), np.array([2]), np.array([2]), paths=paths)
        a = store.tokens_at(2, 0)[0]
        b = store.tokens_at(2, 0)[0]
        assert a is not b
        assert a == b
        assert a in store.tokens_at(2, 0)

    def test_differing_paths_not_equal(self):
        a = TokenRecord(token_id=0, source=0, length=1, destination=1, path=np.array([0, 1]))
        b = TokenRecord(token_id=0, source=0, length=1, destination=1, path=np.array([0, 2]))
        c = TokenRecord(token_id=0, source=0, length=1, destination=1)
        assert a != b
        assert a != c
        assert a != "not-a-record"
