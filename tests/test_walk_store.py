"""Tests for the short-walk token store."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import WalkError
from repro.walks import TokenRecord, WalkStore
from repro.walks.store import _SCAN_BLOCK


def record(tid: int, source: int = 0, length: int = 3, destination: int = 2) -> TokenRecord:
    return TokenRecord(token_id=tid, source=source, length=length, destination=destination)


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
        store = WalkStore()
        store.add(record(0, source=1, destination=5))
        store.add(record(1, source=1, destination=5))
        store.add(record(2, source=1, destination=6))
        assert store.count_for_source(1) == 3
        assert store.count_for_source(9) == 0
        assert len(store.tokens_at(5, 1)) == 2
        assert store.holders_for_source(1) == {5: 2, 6: 1}

    def test_remove(self):
        store = WalkStore()
        rec = record(7, source=2, destination=3)
        store.add(rec)
        store.remove(rec)
        assert store.count_for_source(2) == 0
        assert store.tokens_at(3, 2) == []
        assert store.tokens_consumed == 1

    def test_remove_missing_raises(self):
        store = WalkStore()
        with pytest.raises(WalkError):
            store.remove(record(0))

    def test_remove_twice_raises(self):
        store = WalkStore()
        rec = record(1)
        store.add(rec)
        store.remove(rec)
        with pytest.raises(WalkError):
            store.remove(rec)

    def test_token_ids_unique(self):
        store = WalkStore()
        ids = [store.new_token_id() for _ in range(100)]
        assert len(set(ids)) == 100

    def test_iter_all_and_len(self):
        store = WalkStore()
        for i in range(4):
            store.add(record(i, source=i % 2))
        assert len(store) == 4
        assert len(list(store.iter_all())) == 4
        assert store.total_unused() == 4

    def test_tokens_at_returns_copy(self):
        store = WalkStore()
        store.add(record(0, source=1, destination=5))
        bucket = store.tokens_at(5, 1)
        bucket.clear()
        assert store.count_for_source(1) == 1

    def test_repr(self):
        store = WalkStore()
        store.add(record(0))
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
        store = WalkStore()
        ids = store.add_batch(
            np.array([0, 0, 1]), np.array([2, 3, 2]), np.array([4, 5, 4])
        )
        assert ids.tolist() == [0, 1, 2]
        # The id counter advanced past the batch.
        assert store.new_token_id() == 3
        assert store.tokens_created == 3

    def test_add_batch_shared_path_matrix(self):
        store = WalkStore()
        paths = np.array([[0, 1, 2, 99], [1, 2, 3, 4]])
        store.add_batch(
            np.array([0, 1]), np.array([2, 3]), np.array([2, 4]), paths=paths
        )
        recs = {rec.token_id: rec for rec in store.iter_all()}
        # Materialized paths slice to exactly length + 1 entries.
        assert recs[0].path.tolist() == [0, 1, 2]
        assert recs[1].path.tolist() == [1, 2, 3, 4]

    def test_add_batch_validates(self):
        store = WalkStore()
        with pytest.raises(WalkError):
            store.add_batch(np.array([0]), np.array([-1]), np.array([1]))
        with pytest.raises(WalkError):
            store.add_batch(np.array([0, 1]), np.array([1]), np.array([1, 2]))
        with pytest.raises(WalkError):  # path matrix too narrow for max length
            store.add_batch(
                np.array([0]), np.array([3]), np.array([1]), paths=np.zeros((1, 3), dtype=np.int64)
            )

    def test_token_at_matches_tokens_at(self):
        store = WalkStore()
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
        store = WalkStore()
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
                rec = TokenRecord(
                    token_id=store.new_token_id(),
                    source=int(rng.integers(0, 5)),
                    length=int(rng.integers(0, 4)),
                    destination=int(rng.integers(0, 6)),
                )
                store.add(rec)
                live.append(rec)
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
        store, ref = WalkStore(), ReferenceStore()
        live = []
        n_sources, n_holders = 6, 8
        for step in range(600):
            action = rng.random()
            if action < 0.45 or not live:
                rec = TokenRecord(
                    token_id=store.new_token_id(),
                    source=int(rng.integers(0, n_sources)),
                    length=int(rng.integers(0, 5)),
                    destination=int(rng.integers(0, n_holders)),
                )
                store.add(rec)
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
        store = WalkStore()
        a = record(0, source=1, destination=5)
        b = record(1, source=1, destination=6)
        store.add(a)
        store.add(b)
        assert list(store.holders_for_source(1)) == [5, 6]
        store.remove(a)  # empties holder 5's bucket
        store.add(record(2, source=1, destination=5))
        # Holder 5 re-enters at the end, like the legacy keyed-dict store.
        assert list(store.holders_for_source(1)) == [6, 5]

    def test_grows_past_initial_capacity(self):
        store = WalkStore()
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
        store = WalkStore()
        paths = np.array([[0, 1, 9], [2, 3, 9]])
        store.add_batch(np.array([0, 0]), np.array([1, 1]), np.array([1, 3]), paths=paths)
        recs = list(store.iter_all())
        store.remove(recs[0])
        assert store._path_batches[0] is not None  # one token still live
        store.remove(recs[1])
        assert store._path_batches[0] is None  # hop matrix released

    def test_single_add_path_freed_and_not_aliased(self):
        store = WalkStore()
        path = np.array([0, 1, 2])
        rec = TokenRecord(token_id=0, source=0, length=2, destination=2, path=path)
        store.add(rec)
        path[0] = 77  # caller mutates its buffer after handing the record over
        assert store.tokens_at(2, 0)[0].path.tolist() == [0, 1, 2]
        store.remove(rec)
        assert store._path_batches[0] is None


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
        store = WalkStore()
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
        store = WalkStore()
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
