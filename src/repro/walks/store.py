"""Distributed short-walk storage (columnar).

After Phase 1 (and after any GET-MORE-WALKS call), the network holds a pool
of *short walk tokens*: walk ``i`` started at ``source``, took ``length``
steps, and its token now sits at ``destination``, which knows the source ID
and the length (Algorithm 2: "each destination knows the source ID as well
as the length of the corresponding walk").  Crucially the *source does not
know the destinations* — that is what SAMPLE-DESTINATION exists to discover.

:class:`WalkStore` is the global bookkeeping view of that distributed state.
Everything in it corresponds to node-local knowledge:

* ``tokens_at(holder, source)`` — tokens physically stored at ``holder``;
* ``path`` on a record — the hop sequence; node ``path[j]`` locally knows
  its successor ``path[j+1]`` (this is what walk *regeneration* re-announces
  through the network, cf. "Regenerating the entire random walk", §2.2).

Layout
------
The store is **columnar** (struct-of-arrays): token ``source`` / ``length``
/ ``destination`` / ``token_id`` live in parallel arrays that grow by
amortized doubling, and recorded hop sequences live in shared
``(rows, max_len + 1)`` path matrices handed over *wholesale* by
:func:`~repro.walks.short_walks.perform_short_walks` /
:func:`~repro.walks.get_more_walks.get_more_walks` via :meth:`add_batch`
(each token keeps only a ``(batch, row)`` reference).  A run materializes
Θ(η·m) tokens but the stitching phase pops only ``O(ℓ/λ)`` of them, so
:class:`TokenRecord` objects are built lazily at the API edge
(:meth:`tokens_at` / :meth:`token_at` / :meth:`iter_all`) — never during
Phase 1, which is the paper's hot path.

Widths: the pool lives for the whole session, so each column is as wide
as its values need.  Node ids, lengths, row numbers and path-matrix
references are int32 (one CONGEST word each; :meth:`add_batch` rejects
values that do not fit), token ids stay int64, and the token loops hand
over int32 path matrices.  Everything the store hands out is int64:
``TokenRecord.path`` copies, the sources :meth:`evict_rows` returns and
every row array.

Lookups by source read the source's live rows.  Every add keeps its rows
stably sorted by source (a *run*: the add's distinct sources, their
offsets, and the grouped rows), so a source's rows are one binary search
per run plus a slice, ascending, filtered by the alive flags.  Small runs
merge stably with their predecessor (each merge drops retired rows), and a
run whose rows are all retired leaves the search, so the number of runs
stays logarithmic over a long session.  Per-source unused counts are a
dense array indexed by source, and beside them the store keeps one unused
count per shard (source ``v`` is in shard ``v mod num_shards``), updated by
the same adds, draws and evictions, so a pool's occupancy read costs
O(shards) however many sources it has.

The one draw rule: a source's unused tokens are its live rows in ascending
(creation) order, and a draw (:meth:`WalkStore.sample_uniform_token`) is
``pick = rng.integers(0, count)``, taking the pick-th of them.  Every
SAMPLE-DESTINATION draw, one-shot or pooled, goes through it.  A source's
holders (:meth:`WalkStore.holders_for_source`) are listed in order of their
first live row, and a holder's tokens (:meth:`WalkStore.tokens_at`) in row
order.  Nothing about the order is remembered between calls.

The store never touches the round ledger; moving its information around is
the algorithms' job.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WalkError

__all__ = ["TokenRecord", "WalkStore"]

_INITIAL_CAPACITY = 64
#: Node ids, lengths and row numbers are stored as int32.
_INT32 = np.iinfo(np.int32)
#: Path-matrix cells :meth:`WalkStore.find_invalid_rows` gathers per block.
_SCAN_BLOCK = 1 << 16
#: The live rows of a source that holds no token.
_NO_ROWS = np.empty(0, dtype=np.int32)


def _check_fits(*columns, rows: int) -> None:
    """Raise :class:`WalkError` unless every value, and the row count, fits int32."""
    if rows > _INT32.max or any(np.min(c) < _INT32.min or np.max(c) > _INT32.max for c in columns):
        raise WalkError("token sources, lengths, destinations and rows must fit in int32")


class _Run:
    """The rows of one add (or of merged adds), grouped stably by source.

    ``keys`` holds the distinct sources ascending; source ``keys[j]`` owns
    ``rows[ptr[j]:ptr[j + 1]]``, in ascending row order.  ``start`` is the
    first row the run covers and ``live`` how many of its rows are unused.
    ``rows`` is int32 like the store's columns; ``keys`` stays int64, so
    :meth:`rows_of` searches it with a Python int and no cast of the array.
    """

    __slots__ = ("start", "keys", "ptr", "rows", "live", "lo", "hi")

    def __init__(self, start: int, rows: np.ndarray, sources: np.ndarray) -> None:
        # ``rows`` lists each source's rows in ascending order; a stable
        # sort by source keeps them so.  Bulk adds arrive source-sorted.
        if sources.size > 1 and not (sources[1:] >= sources[:-1]).all():
            order = np.argsort(sources, kind="stable")
            rows, sources = rows[order], sources[order]
        first = np.flatnonzero(np.concatenate(([True], sources[1:] != sources[:-1])))
        self.start = start
        self.live = int(rows.size)
        self.rows = rows
        self.keys = sources[first].astype(np.int64)
        self.ptr = np.append(first, sources.size)
        self.lo = int(self.keys[0])
        self.hi = int(self.keys[-1])

    def rows_of(self, source: int) -> np.ndarray | None:
        """``source``'s rows in this run, ascending; ``None`` when it has none."""
        if not self.lo <= source <= self.hi:
            return None
        keys = self.keys
        j = int(keys.searchsorted(source))
        if keys[j] != source:
            return None
        return self.rows[self.ptr[j] : self.ptr[j + 1]]


@dataclass(frozen=True, eq=False)
class TokenRecord:
    """One prepared short walk, materialized from the columnar store.

    ``path`` (when recorded) holds the ``length + 1`` node IDs from source
    to destination inclusive; it may be ``None`` when the caller disabled
    path recording to save memory on large sweeps.  Records are snapshots:
    the store hands out fresh instances on demand and identifies tokens by
    ``token_id``, not object identity.
    """

    token_id: int
    source: int
    length: int
    destination: int
    path: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.length < 0:
            raise WalkError(f"token length must be >= 0, got {self.length}")
        if self.path is not None and len(self.path) != self.length + 1:
            raise WalkError(
                f"path has {len(self.path)} nodes but length={self.length} requires {self.length + 1}"
            )

    def __eq__(self, other: object) -> bool:
        # Records materialize fresh on every query, so equality must compare
        # path *contents* — the dataclass-generated __eq__ would choke on
        # elementwise ndarray comparison.
        if not isinstance(other, TokenRecord):
            return NotImplemented
        if (self.token_id, self.source, self.length, self.destination) != (
            other.token_id,
            other.source,
            other.length,
            other.destination,
        ):
            return False
        if self.path is None or other.path is None:
            return self.path is None and other.path is None
        return bool(np.array_equal(self.path, other.path))


class WalkStore:
    """All unused short-walk tokens, stored columnar, indexed by source.

    The columns are int32 inside and int64 at the API edge (see the
    module's *Widths*).  A held token costs 33 bytes (an int64 id, five
    int32 columns, an alive flag and an int32 run entry) plus the doubling
    slack, and its path-matrix row when paths are recorded.  ``num_shards``
    sets how many per-shard unused counts :meth:`shard_counts` keeps.
    """

    def __init__(self, num_shards: int = 1) -> None:
        if num_shards < 1:
            raise WalkError(f"num_shards must be >= 1, got {num_shards}")
        cap = _INITIAL_CAPACITY
        self._ids = np.empty(cap, dtype=np.int64)
        self._src = np.empty(cap, dtype=np.int32)
        self._len = np.empty(cap, dtype=np.int32)
        self._dst = np.empty(cap, dtype=np.int32)
        self._path_batch = np.empty(cap, dtype=np.int32)  # -1 = no path
        self._path_row = np.empty(cap, dtype=np.int32)
        self._alive = np.empty(cap, dtype=bool)
        self._size = 0
        # Shared path matrices; an entry is dropped (set to None) once every
        # token referencing it has been consumed, so hop memory tracks live
        # tokens rather than growing for the store's lifetime.
        self._path_batches: list[np.ndarray | None] = []
        self._batch_live: list[int] = []
        self._runs: list[_Run] = []
        self._run_starts: list[int] = []  # parallel to _runs, ascending
        # Unused counts per source id in [0, _span).
        self._span = 0
        self._counts = np.zeros(0, dtype=np.int64)
        # Unused counts per shard; source ``v`` counts in ``v % num_shards``.
        self._num_shards = int(num_shards)
        self._shard_counts = np.zeros(self._num_shards, dtype=np.int64)
        self._next_token_id = 0
        self.tokens_created = 0
        self.tokens_consumed = 0
        # Tokens invalidated by graph churn rather than consumed by
        # stitching — separate so serving telemetry stays honest about
        # which tokens did useful work.
        self.tokens_evicted = 0

    # ------------------------------------------------------------------
    # Creation / removal
    # ------------------------------------------------------------------
    def new_token_id(self) -> int:
        tid = self._next_token_id
        self._next_token_id += 1
        return tid

    def _grow_to(self, needed: int) -> None:
        cap = len(self._ids)
        if needed <= cap:
            return
        while cap < needed:
            cap *= 2
        for name in ("_ids", "_src", "_len", "_dst", "_path_batch", "_path_row", "_alive"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)

    def _grow_sources(self, span: int) -> None:
        """Extend the dense per-source counts to cover source ids below ``span``."""
        if span <= self._span:
            return
        if span > self._counts.size:
            counts = np.zeros(max(span, 2 * self._counts.size), dtype=np.int64)
            counts[: self._span] = self._counts[: self._span]
            self._counts = counts
        self._span = span

    def _push_run(self, run: _Run) -> None:
        """Append an add's run; merge small runs stably into their predecessor.

        A run merges while its predecessor is at most twice its size, so
        run sizes fall geometrically and a lookup searches O(log rows) runs.
        Merging keeps only live rows, and the stable sort keeps each
        source's rows ascending (every row of the older run precedes every
        row of the newer one).
        """
        runs, starts = self._runs, self._run_starts
        runs.append(run)
        starts.append(run.start)
        while len(runs) > 1 and runs[-2].rows.size <= 2 * runs[-1].rows.size:
            newer = runs.pop()
            starts.pop()
            older = runs[-1]
            rows = np.concatenate((older.rows, newer.rows))
            rows = rows[self._alive[rows]]
            if rows.size:
                runs[-1] = _Run(older.start, rows, self._src[rows])
            else:
                runs.pop()
                starts.pop()

    def _run_lost(self, j: int, rows: int) -> None:
        """Run ``j`` lost ``rows`` live rows; once it has none it leaves the search."""
        run = self._runs[j]
        run.live -= rows
        if run.live == 0:
            del self._runs[j]
            del self._run_starts[j]

    def add_batch(
        self,
        sources: np.ndarray,
        lengths: np.ndarray,
        destinations: np.ndarray,
        paths: np.ndarray | None = None,
    ) -> np.ndarray:
        """Absorb a whole Phase-1 (or GET-MORE-WALKS) output in one call.

        ``sources`` / ``lengths`` / ``destinations`` are parallel integer
        arrays of any width, one entry per token; they are written straight
        into the int32 columns, so a value that does not fit int32, or a
        store that would pass 2³¹ − 1 rows, raises :class:`WalkError`.
        ``paths``, when given, is the shared ``(total, width)`` hop matrix
        produced by the vectorized walk loop; row ``i`` holds token ``i``'s
        ``lengths[i] + 1`` hops (columns past that are scratch).  Ownership
        of the matrix transfers to the store — no per-row copies are made
        until a record is materialized.

        Token IDs are assigned sequentially (equivalent to one
        :meth:`new_token_id` per token, in order) and returned.
        """
        src, lng, dst = np.asarray(sources), np.asarray(lengths), np.asarray(destinations)
        if src.ndim != 1 or src.shape != lng.shape or src.shape != dst.shape:
            raise WalkError("add_batch columns must be 1-D arrays of equal length")
        total = int(src.size)
        if total == 0:
            return np.empty(0, dtype=np.int64)
        if lng.min() < 0:
            raise WalkError("token lengths must be >= 0")
        if src.min() < 0:
            raise WalkError("token sources must be >= 0")
        _check_fits(src, lng, dst, rows=self._size + total)
        if paths is not None:
            if paths.ndim != 2 or paths.shape[0] != total:
                raise WalkError(f"paths must be (total, width), got {paths.shape}")
            if paths.shape[1] < int(lng.max()) + 1:
                raise WalkError(
                    f"paths width {paths.shape[1]} too small for max length {int(lng.max())}"
                )

        base = self._size
        self._grow_to(base + total)
        rows = slice(base, base + total)
        ids = np.arange(self._next_token_id, self._next_token_id + total, dtype=np.int64)
        self._ids[rows] = ids
        self._src[rows] = src
        self._len[rows] = lng
        self._dst[rows] = dst
        self._alive[rows] = True
        if paths is not None:
            self._path_batch[rows] = len(self._path_batches)
            self._path_row[rows] = np.arange(total, dtype=np.int32)
            self._path_batches.append(paths)
            self._batch_live.append(total)
        else:
            self._path_batch[rows] = -1
            self._path_row[rows] = -1
        self._size = base + total
        self._next_token_id += total
        self.tokens_created += total

        run = _Run(base, np.arange(base, base + total, dtype=np.int32), self._src[rows])
        self._grow_sources(run.hi + 1)
        added = np.diff(run.ptr)
        self._counts[run.keys] += added
        np.add.at(self._shard_counts, run.keys % self._num_shards, added)
        self._push_run(run)
        return ids

    def add(self, record: TokenRecord) -> None:
        """Add one token (API edge; bulk producers use :meth:`add_batch`)."""
        if record.source < 0:
            raise WalkError("token sources must be >= 0")
        _check_fits(record.source, record.length, record.destination, rows=self._size + 1)
        base = self._size
        self._grow_to(base + 1)
        self._ids[base] = record.token_id
        self._src[base] = record.source
        self._len[base] = record.length
        self._dst[base] = record.destination
        self._alive[base] = True
        if record.path is not None:
            self._path_batch[base] = len(self._path_batches)
            self._path_row[base] = 0
            self._path_batches.append(
                np.array(record.path, dtype=np.int64).reshape(1, -1)
            )
            self._batch_live.append(1)
        else:
            self._path_batch[base] = -1
            self._path_row[base] = -1
        self._size = base + 1
        self._grow_sources(record.source + 1)
        self._counts[record.source] += 1
        self._shard_counts[record.source % self._num_shards] += 1
        self._push_run(
            _Run(base, np.array([base], dtype=np.int32), self._src[base : base + 1])
        )
        self.tokens_created += 1

    def remove(self, record: TokenRecord) -> None:
        """Delete a consumed token (Sweep 3 of SAMPLE-DESTINATION)."""
        rows = self._rows_of(record.source)
        rows = rows[(self._ids[rows] == record.token_id) & (self._dst[rows] == record.destination)]
        if not rows.size:
            raise WalkError(f"token {record.token_id} not stored at node {record.destination}")
        self._consume(int(rows[0]))

    def _consume(self, row: int) -> None:
        """Retire live ``row`` as consumed."""
        self._alive[row] = False
        source = int(self._src[row])
        self._counts[source] -= 1
        self._shard_counts[source % self._num_shards] -= 1
        self.tokens_consumed += 1
        batch = int(self._path_batch[row])
        if batch >= 0:
            self._batch_live[batch] -= 1
            if self._batch_live[batch] == 0:
                self._path_batches[batch] = None  # free the matrix
        self._run_lost(bisect_right(self._run_starts, row) - 1, 1)

    # ------------------------------------------------------------------
    # Lookup / materialization
    # ------------------------------------------------------------------
    def _rows_of(self, source: int) -> np.ndarray:
        """``source``'s live rows, ascending: one binary search per run.

        Runs cover ascending row ranges, so their parts concatenate in
        order.
        """
        if not 0 <= source < self._span or not self._counts[source]:
            return _NO_ROWS
        parts = [rows for run in self._runs if (rows := run.rows_of(source)) is not None]
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return rows[self._alive[rows]]

    def _materialize(self, row: int) -> TokenRecord:
        batch = int(self._path_batch[row])
        length = int(self._len[row])
        path = None
        if batch >= 0:
            path = self._path_batches[batch][int(self._path_row[row]), : length + 1].astype(np.int64)
        return TokenRecord(
            token_id=int(self._ids[row]),
            source=int(self._src[row]),
            length=length,
            destination=int(self._dst[row]),
            path=path,
        )

    # ------------------------------------------------------------------
    # Queries (all reflect node-local or aggregate knowledge)
    # ------------------------------------------------------------------
    def tokens_at(self, holder: int, source: int) -> list[TokenRecord]:
        """Unused tokens of ``source`` currently stored at ``holder``, in row order."""
        rows = self._rows_of(source)
        return [self._materialize(row) for row in rows[self._dst[rows] == holder].tolist()]

    def token_at(self, holder: int, source: int, index: int) -> TokenRecord:
        """The ``index``-th unused token of ``source`` held at ``holder``, in row order.

        Single-record materialization — the event-driven SAMPLE-DESTINATION
        protocol's leaf nomination uses this so drawing one nominee never
        materializes the whole bucket.
        """
        rows = self._rows_of(source)
        rows = rows[self._dst[rows] == holder]
        if not 0 <= index < rows.size:
            raise WalkError(f"node {holder} has no token #{index} of source {source}")
        return self._materialize(int(rows[index]))

    def count_for_source(self, source: int) -> int:
        """Total unused tokens of ``source`` anywhere in the network."""
        return int(self._counts[source]) if 0 <= source < self._span else 0

    def counts_for_sources(self, sources: np.ndarray) -> np.ndarray:
        """:meth:`count_for_source` over an int array of sources, as int64."""
        sources = np.asarray(sources, dtype=np.int64)
        out = np.zeros(sources.size, dtype=np.int64)
        known = (sources >= 0) & (sources < self._span)
        out[known] = self._counts[sources[known]]
        return out

    def shard_counts(self) -> np.ndarray:
        """Unused tokens per shard, a fresh int64 copy: O(shards)."""
        return self._shard_counts.copy()

    def source_count_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Parallel ``(sources, unused_counts)`` arrays over every source id.

        ``sources`` is ``0, 1, ...`` up to the largest source ever added, so
        ``unused_counts`` is indexable by source id (drained and never-added
        ids report 0; ids past its end hold no tokens).  Both are fresh
        copies: O(largest source), however few tokens are live.  No library
        code reads it (occupancy comes from :meth:`shard_counts` and
        :meth:`counts_for_sources`); it stays as a whole-store view for
        tests and the benchmark's output check.
        """
        counts = self._counts[: self._span].copy()
        return np.arange(counts.size, dtype=np.int64), counts

    def sample_uniform_token(self, source: int, rng: np.random.Generator) -> TokenRecord | None:
        """Pop one token of ``source``, uniform over all its unused tokens.

        The module's one draw rule: ``pick = rng.integers(0, count)``, then
        materialize and retire the pick-th of the source's live rows in row
        order.  This is the law of SAMPLE-DESTINATION's weighted convergecast
        merge (Lemma A.2: the root's survivor is uniform over all stored
        tokens of the source) computed centrally; callers charge the sweeps
        themselves.  Returns ``None``, drawing nothing, when the source has
        no unused tokens.
        """
        total = self.count_for_source(source)
        if total <= 0:
            return None
        row = int(self._rows_of(source)[int(rng.integers(0, total))])
        record = self._materialize(row)
        self._consume(row)
        return record

    def holders_for_source(self, source: int) -> dict[int, int]:
        """Map holder-node -> number of unused tokens of ``source`` there.

        Holders are listed in order of their first live row, recomputed
        from the live rows on every call.
        """
        return dict(Counter(self._dst[self._rows_of(source)].tolist()))

    def iter_all(self) -> Iterator[TokenRecord]:
        """All unused tokens, in creation order."""
        for row in np.nonzero(self._alive[: self._size])[0].tolist():
            yield self._materialize(row)

    # ------------------------------------------------------------------
    # Churn invalidation (see repro.dynamic)
    # ------------------------------------------------------------------
    def live_rows(self) -> np.ndarray:
        """Row indices of every unused token, ascending (= creation order)."""
        return np.nonzero(self._alive[: self._size])[0]

    def find_invalid_rows(self, mutated: np.ndarray) -> np.ndarray:
        """Rows of live tokens whose recorded walk no longer has the right law.

        ``mutated`` is a boolean mask over the nodes, set where a node's
        one-step transition law changed.  It must mark both endpoints of
        every deleted edge (the ``mutated_nodes`` of
        :meth:`~repro.graphs.graph.Graph.apply_delta` do).  A token is
        invalid when any of its recorded steps was sampled *from* a marked
        node; a hop across a deleted edge {u, v} is a step from u, so it is
        one of those.  Final positions are exempt: a token *resting* at a
        marked node sampled nothing there.

        Each shared path matrix is scanned once, its live rows gathered in
        blocks of about :data:`_SCAN_BLOCK` cells and mapped through the
        mask; a row is invalid when its first marked column lies below its
        length.  Columns past a row's length are scratch (uninitialised
        memory in refill batches that stopped early): clipping keeps every
        index in range, and a scratch column can only move the first mark
        to a column at or past the length, which never flags.  The
        temporaries scale with the block, not the pool.  Tokens stored
        without paths cannot be scanned; callers hold the pool-level policy
        for those (see :meth:`~repro.engine.pool.PoolManager.invalidate`).
        """
        size = self._size
        # Rows of one matrix are contiguous and matrices are numbered in
        # row order, so the live path rows come out grouped by matrix.
        rows = np.flatnonzero(self._alive[:size] & (self._path_batch[:size] >= 0))
        if not rows.size:
            return rows
        batch_of = self._path_batch[rows]
        hits = []
        for part in np.split(rows, np.flatnonzero(batch_of[1:] != batch_of[:-1]) + 1):
            matrix = self._path_batches[int(self._path_batch[part[0]])]
            step = max(1, _SCAN_BLOCK // matrix.shape[1])
            for lo in range(0, part.size, step):
                block = part[lo : lo + step]
                marked = mutated.take(matrix.take(self._path_row[block], axis=0), mode="clip")
                first = marked.argmax(axis=1)
                bad = marked[np.arange(block.size), first] & (first < self._len[block])
                hits.append(block[bad])
        return np.concatenate(hits)

    def rows_held_at(self, node_mask: np.ndarray) -> np.ndarray:
        """Rows of live tokens physically resting at a flagged node.

        The crash-fault complement of :meth:`find_invalid_rows`: that scan
        exempts final positions (a token *resting* at a mutated node
        sampled nothing there, so its law survives churn), but a node
        crash is memory loss — a token stored at a crashed node is gone
        regardless of where its walk stepped.  One vectorized pass over
        the destination column; ``node_mask`` is a length-``n`` boolean
        mask of crashed nodes.
        """
        size = self._size
        if size == 0:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self._alive[:size] & node_mask[self._dst[:size]])[0]

    def evict_rows(self, rows: np.ndarray) -> np.ndarray:
        """Retire the given live rows in bulk; returns their source column.

        The churn counterpart of :meth:`remove`: counts land in
        ``tokens_evicted`` (not ``tokens_consumed`` — these tokens served
        nothing), and shared path matrices are freed once their last
        reference dies.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        if not np.all(self._alive[rows]):
            raise WalkError("evict_rows called on a token that is not live")
        self._alive[rows] = False
        sources = self._src[rows].astype(np.int64)
        touched, counts = np.unique(sources, return_counts=True)
        self._counts[touched] -= counts
        np.subtract.at(self._shard_counts, touched % self._num_shards, counts)
        at = np.searchsorted(np.asarray(self._run_starts), rows, side="right") - 1
        lost = np.bincount(at, minlength=len(self._runs))
        for j in np.flatnonzero(lost)[::-1].tolist():  # descending: deletes keep lower indices
            self._run_lost(j, int(lost[j]))
        batches = self._path_batch[rows]
        batches = batches[batches >= 0]
        for b, c in zip(*np.unique(batches, return_counts=True)):
            self._batch_live[int(b)] -= int(c)
            if self._batch_live[int(b)] == 0:
                self._path_batches[int(b)] = None
        self.tokens_evicted += int(rows.size)
        return sources

    def total_unused(self) -> int:
        return self.tokens_created - self.tokens_consumed - self.tokens_evicted

    def __len__(self) -> int:
        return self.total_unused()

    def __repr__(self) -> str:
        return (
            f"WalkStore(unused={self.total_unused()}, created={self.tokens_created}, "
            f"consumed={self.tokens_consumed}, evicted={self.tokens_evicted})"
        )
