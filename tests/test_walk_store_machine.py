"""Stateful test of one :class:`~repro.walks.store.WalkStore` against a plain model.

A hypothesis state machine drives one store through random interleavings of
every call that adds, consumes, evicts or scans tokens, and mirrors each
call on :class:`ReferenceStore`: a list of every token ever added (position
= store row) with its alive flag.  The reference spells out the store's one
draw rule:

* a source's live tokens are kept in row order;
* a pick is an index into them;
* holders are listed in order of their first live row.

After every step it checks, for every source:

* holder order and bucket order (``holders_for_source`` / ``tokens_at`` /
  ``token_at``);
* the map from a uniform pick to the token ``sample_uniform_token`` pops;
* ``count_for_source``;
* ``total_unused = created − consumed − evicted``;
* the per-shard counts (``N_SHARDS`` shards, source ``v`` in shard
  ``v mod N_SHARDS``) bin the per-source counts.

The pick check drains the source, so the checks read from a deep copy and
leave the store under test as the rules left it.  Tier-1 runs a small
derandomized profile; ``pytest -m slow`` a deep one.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.walks import TokenRecord, WalkStore
from repro.util.rng import make_rng

N_NODES = 8
N_SOURCES = 5
N_SHARDS = 3
MAX_LEN = 4
#: Path columns past a token's length are scratch; the store must never read them.
JUNK = 10**6


class ReferenceStore:
    """List model of the store's contents and its one draw rule."""

    def __init__(self) -> None:
        self.tokens: list[TokenRecord] = []  # every token ever added; index = row
        self.alive: list[bool] = []
        self.created = 0
        self.consumed = 0
        self.evicted = 0

    # -- mutations -------------------------------------------------------
    def add(self, record: TokenRecord) -> None:
        self.tokens.append(record)
        self.alive.append(True)
        self.created += 1

    def remove_row(self, row: int) -> None:
        self.alive[row] = False
        self.consumed += 1

    def sample(self, source: int, rng: np.random.Generator) -> TokenRecord | None:
        total = self.count(source)
        if total == 0:
            return None
        row = self.picks(source)[int(rng.integers(0, total))]
        self.remove_row(row)
        return self.tokens[row]

    def evict(self, rows: list[int]) -> list[int]:
        sources = []
        for row in rows:
            self.alive[row] = False
            sources.append(self.tokens[row].source)
        self.evicted += len(rows)
        return sources

    # -- reads -----------------------------------------------------------
    def live_rows(self) -> list[int]:
        return [row for row, live in enumerate(self.alive) if live]

    def count(self, source: int) -> int:
        return len(self.picks(source))

    def bucket(self, source: int, holder: int) -> list[int]:
        return [row for row in self.picks(source) if self.tokens[row].destination == holder]

    def holders(self, source: int) -> list[int]:
        out: list[int] = []
        for row in self.picks(source):
            if self.tokens[row].destination not in out:
                out.append(self.tokens[row].destination)
        return out

    def picks(self, source: int) -> list[int]:
        """Row of the token each uniform pick ``0 … count−1`` selects: the live rows in order."""
        return [row for row in self.live_rows() if self.tokens[row].source == source]

    def invalid_rows(self, mutated: set[int], deleted: set[tuple[int, int]]) -> list[int]:
        out = []
        for row in self.live_rows():
            path = self.tokens[row].path
            if path is None:
                continue
            hops = path.tolist()
            steps = range(self.tokens[row].length)
            if any(hops[j] in mutated for j in steps) or any(
                (min(hops[j], hops[j + 1]), max(hops[j], hops[j + 1])) in deleted for j in steps
            ):
                out.append(row)
        return out


class _Pick:
    """Stands in for a Generator: ``integers`` returns the scripted pick."""

    def __init__(self) -> None:
        self.pick = 0

    def integers(self, low, high):
        return self.pick


nodes = st.integers(0, N_NODES - 1)
sources = st.integers(0, N_SOURCES - 1)


def _path(draw, source: int, length: int, destination: int, width: int) -> np.ndarray:
    hops = [source] + [draw(nodes) for _ in range(length - 1)] + [destination]
    hops = hops[: length + 1] if length else [source]
    return np.array(hops + [JUNK] * (width - len(hops)), dtype=np.int64)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = WalkStore(N_NODES, num_shards=N_SHARDS)
        self.ref = ReferenceStore()

    @rule(data=st.data(), size=st.integers(0, 6), with_paths=st.booleans())
    def add_batch(self, data, size, with_paths):
        src = [data.draw(sources) for _ in range(size)]
        lng = [data.draw(st.integers(0, MAX_LEN)) for _ in range(size)]
        dst = [s if n == 0 else data.draw(nodes) for s, n in zip(src, lng)]
        paths = None
        if with_paths and size:
            width = max(lng) + 1 + data.draw(st.integers(0, 2))
            paths = np.stack(
                [_path(data.draw, s, n, d, width) for s, n, d in zip(src, lng, dst)]
            )
        ids = self.store.add_batch(
            np.array(src, dtype=np.int64),
            np.array(lng, dtype=np.int64),
            np.array(dst, dtype=np.int64),
            paths=None if paths is None else paths.copy(),
        )
        assert ids.tolist() == list(range(len(self.ref.tokens), len(self.ref.tokens) + size))
        for i in range(size):
            path = None if paths is None else paths[i, : lng[i] + 1].copy()
            self.ref.add(TokenRecord(int(ids[i]), src[i], lng[i], dst[i], path))

    @precondition(lambda self: any(self.ref.alive))
    @rule(data=st.data())
    def remove(self, data):
        row = data.draw(st.sampled_from(self.ref.live_rows()))
        self.store.remove(self.ref.tokens[row])
        self.ref.remove_row(row)

    @rule(source=sources, seed=st.integers(0, 2**16))
    def sample_uniform_token(self, source, seed):
        got = self.store.sample_uniform_token(source, make_rng(seed))
        want = self.ref.sample(source, make_rng(seed))
        assert got == want

    @precondition(lambda self: any(self.ref.alive))
    @rule(data=st.data())
    def evict_rows(self, data):
        live = self.ref.live_rows()
        rows = data.draw(st.lists(st.sampled_from(live), unique=True, max_size=len(live)))
        got = self.store.evict_rows(np.array(rows, dtype=np.int64))
        assert got.tolist() == self.ref.evict(rows)

    @rule(
        mutated=st.sets(nodes, max_size=3),
        deleted=st.sets(st.tuples(nodes, nodes), max_size=3),
    )
    def find_invalid_rows(self, mutated, deleted):
        # The scan's contract: the mask marks both endpoints of every
        # deleted edge, so widen the drawn set by them.
        edges = {(min(u, v), max(u, v)) for u, v in deleted}
        widened = mutated | {node for edge in edges for node in edge}
        mask = np.zeros(N_NODES, dtype=bool)
        mask[list(widened)] = True
        got = self.store.find_invalid_rows(mask).tolist()
        assert got == self.ref.invalid_rows(widened, edges)
        # Every token that crosses a drawn edge is among them.
        assert set(self.ref.invalid_rows(set(), edges)) <= set(got)

    @rule(crashed=st.sets(nodes, max_size=3))
    def rows_held_at(self, crashed):
        mask = np.zeros(N_NODES, dtype=bool)
        mask[list(crashed)] = True
        got = self.store.rows_held_at(mask)
        want = [r for r in self.ref.live_rows() if self.ref.tokens[r].destination in crashed]
        assert got.tolist() == want

    @invariant()
    def token_identity(self):
        store, ref = self.store, self.ref
        assert (store.tokens_created, store.tokens_consumed, store.tokens_evicted) == (
            ref.created,
            ref.consumed,
            ref.evicted,
        )
        live = ref.live_rows()
        assert store.total_unused() == ref.created - ref.consumed - ref.evicted == len(live)
        assert store.live_rows().tolist() == live

    @invariant()
    def shard_counts_bin_source_counts(self):
        store = self.store
        want = [0] * N_SHARDS
        for source in range(N_SOURCES):
            want[source % N_SHARDS] += self.ref.count(source)
        assert store.shard_counts().tolist() == want
        assert sum(want) == store.total_unused()
        probe = np.arange(-1, N_SOURCES + 2)
        assert store.counts_for_sources(probe).tolist() == [
            store.count_for_source(int(v)) for v in probe
        ]

    @invariant()
    def counts_and_order_per_source(self):
        store, ref = self.store, self.ref
        assert store.count_for_source(10**6) == 0  # never seen
        for source in range(N_SOURCES + 1):  # source N_SOURCES is never used
            assert store.count_for_source(source) == ref.count(source)
            # Holder and bucket order, read on a copy that the pick check drains.
            peek = copy.deepcopy(store)
            holders = peek.holders_for_source(source)
            want = ref.holders(source)
            assert list(holders.items()) == [(h, len(ref.bucket(source, h))) for h in want]
            for h in want:
                bucket = [ref.tokens[row].token_id for row in ref.bucket(source, h)]
                assert [rec.token_id for rec in peek.tokens_at(h, source)] == bucket
                assert [peek.token_at(h, source, i).token_id for i in range(len(bucket))] == bucket
            # Pick -> token: drain the copy with scripted picks; each pop
            # must be the token the reference's pick order names.
            order = [ref.tokens[row] for row in ref.picks(source)]
            picker = _Pick()
            for i in range(len(order)):
                picker.pick = (5 * i + 2) % len(order)
                assert peek.sample_uniform_token(source, picker) == order.pop(picker.pick)
            assert peek.sample_uniform_token(source, picker) is None


def _run(max_examples: int, steps: int) -> None:
    run_state_machine_as_test(
        StoreMachine,
        settings=settings(
            max_examples=max_examples,
            stateful_step_count=steps,
            derandomize=True,
            database=None,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


def test_walk_store_machine_small():
    _run(max_examples=40, steps=25)


@pytest.mark.slow
def test_walk_store_machine_deep():
    _run(max_examples=400, steps=60)
