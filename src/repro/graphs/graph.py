"""Core graph data structure.

The whole library runs on :class:`Graph` — an undirected (optionally
weighted, optionally multi-) graph stored in compressed-sparse-row form so
that random-walk stepping, BFS, and congestion accounting are all O(1)/O(deg)
array operations.

Design notes
------------
* Nodes are integers ``0 .. n-1``.  The paper assumes distinct IDs from
  ``{1..n}``; zero-based IDs are an isomorphic relabeling.
* Each undirected edge ``{u, v}`` is stored twice, once per direction.  The
  position of a directed edge in the CSR arrays is its **slot**, used as the
  canonical directed-edge identifier by the CONGEST engine's congestion
  ledger (`slot j` = directed edge ``slot_sources()[j] -> csr_target[j]``;
  only ``indptr``, ``csr_target`` and ``csr_edge`` are stored per slot, and
  :func:`pair_keys` forms every directed pair key).
* Parallel edges and self-loops are allowed (the lower-bound reduction of
  Section 3.2 uses multigraph semantics; lazy walks use self-loops).  A
  self-loop occupies a single slot and contributes 1 to the degree, and is
  traversed like any other incident edge.
* ``weight`` biases the *random walk* (an edge is taken with probability
  proportional to its weight) but never the communication model: messages
  cross an edge in one round regardless of weight, exactly as in the paper
  where "weighted graphs are equivalent to unweighted multigraphs in our
  model" and extra weight only means extra bandwidth (which we expose via
  the engine's ``capacity`` knob instead).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError
from repro.util.arrays import sorted_unique

__all__ = ["Graph", "pair_keys"]


def pair_keys(src, dst, n: int) -> np.ndarray:
    """Directed pair keys ``src·n + dst``, widened to int64: under NumPy 2 an int32 id would wrap."""
    return np.asarray(src, dtype=np.int64) * n + np.asarray(dst, dtype=np.int64)


class Graph:
    """An undirected graph in CSR form with vectorized walk stepping.

    Parameters
    ----------
    n:
        Number of nodes; nodes are ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Order inside a pair is irrelevant.
    weights:
        Optional per-edge positive weights (parallel to ``edges``); defaults
        to 1.0 for every edge.  Weights bias walk transition probabilities.
    name:
        Optional human-readable label used in reports.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Sequence[float] | None = None,
        name: str = "graph",
    ) -> None:
        if n <= 0:
            raise GraphError(f"graph must have at least one node, got n={n}")
        if isinstance(edges, np.ndarray):
            # Copy: the graph must not alias a caller-owned buffer.
            try:
                edge_arr = np.array(edges, dtype=np.int64)
            except (TypeError, ValueError) as exc:
                raise GraphError(f"edges must be (u, v) pairs: {exc}") from exc
            if edge_arr.size == 0:
                edge_arr = edge_arr.reshape(0, 2)
        else:
            edge_seq = list(edges)
            if edge_seq:
                try:
                    edge_arr = np.array(edge_seq, dtype=np.int64)
                except (TypeError, ValueError) as exc:
                    raise GraphError(f"edges must be (u, v) pairs: {exc}") from exc
            else:
                edge_arr = np.empty((0, 2), dtype=np.int64)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise GraphError(f"edges must be (u, v) pairs, got shape {edge_arr.shape}")
        out_of_range = (edge_arr < 0) | (edge_arr >= n)
        if out_of_range.any():
            u, v = edge_arr[np.nonzero(out_of_range.any(axis=1))[0][0]]
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        m = len(edge_arr)
        if weights is None:
            weight_arr = np.ones(m, dtype=np.float64)
        else:
            if isinstance(weights, np.ndarray):
                weight_arr = np.array(weights, dtype=np.float64)  # defensive copy
            else:
                weight_arr = np.asarray(list(weights), dtype=np.float64)
            if weight_arr.shape != (m,):
                raise GraphError("weights must parallel the edge list")
            if np.any(weight_arr <= 0):
                raise GraphError("edge weights must be strictly positive")

        self.n = n
        self.name = name
        self._install_edges(edge_arr, weight_arr)

    def _install_edges(self, edge_arr: np.ndarray, weight_arr: np.ndarray) -> None:
        """(Re)build every derived array from an undirected edge list.

        Shared by :meth:`__init__` and :meth:`apply_delta`: the CSR arrays,
        degree profiles, and every lazily built view are derived state, so
        a topology change is one call to this method with the new edge
        list.  Node count and identity never change here.

        The CSR arrays come from one sorted int64 key per slot, ``source·m +
        edge id``: the key alone yields each slot's source and edge, and the
        edge's endpoints its target.  Only ``indptr``, ``csr_target`` and
        ``csr_edge`` are kept: a slot's source and weight are derived.
        """
        n = self.n
        m = len(edge_arr)
        self.m = m
        self._edge_array = edge_arr
        self._edge_weights = weight_arr

        # Each non-loop edge contributes a slot at both ends; each self-loop
        # contributes one slot.  Within a node, slots are ordered by
        # undirected edge index — the same order the legacy per-edge fill
        # loop produced, which keeps slot IDs (and hence every RNG draw over
        # slots) stable across the rewrite.  Each (source, edge id) pair is
        # unique, so sorting the key gives that order; keys stay below
        # n·m < 2⁶³.
        eu, ev = edge_arr[:, 0], edge_arr[:, 1]
        span = max(m, 1)
        other_end = np.flatnonzero(eu != ev)
        key = np.empty(m + other_end.size, dtype=np.int64)
        np.multiply(eu, span, out=key[:m])
        key[:m] += np.arange(m, dtype=np.int64)
        np.multiply(ev[other_end], span, out=key[m:])
        key[m:] += other_end
        key.sort()
        sources = key // span
        slot_edge = np.remainder(key, span, out=key)  # undirected edge index
        # A slot's target is the edge's other end; a self-loop's is itself.
        targets = eu[slot_edge]
        targets += ev[slot_edge]
        targets -= sources
        degree = np.bincount(sources, minlength=n)
        self._weighted_degree = np.bincount(sources, weights=weight_arr[slot_edge], minlength=n)
        del sources
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        n_slots = int(indptr[-1])

        self.indptr = indptr
        self.csr_target = targets
        self.csr_edge = slot_edge
        self.n_slots = n_slots
        self._degree = degree
        self._min_degree = int(degree.min())
        self._max_degree = int(degree.max())
        # Exact equality: weights that differ at all are sampled as weights.
        self._uniform_weights = bool((weight_arr == weight_arr[0]).all()) if self.m else True
        # Per-node cumulative weights for weighted sampling, lazily built.
        self._cumweights: np.ndarray | None = None
        self._reverse_slot: np.ndarray | None = None
        self._pairs: tuple[np.ndarray, np.ndarray] | None = None
        self._distinct: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def degree(self, v: int) -> int:
        """Number of incident edge endpoints at ``v`` (self-loop counts once)."""
        return int(self._degree[v])

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node as an int64 array (do not mutate)."""
        return self._degree

    def weighted_degree(self, v: int) -> float:
        """Sum of incident edge weights at ``v``."""
        return float(self._weighted_degree[v])

    @property
    def weighted_degrees(self) -> np.ndarray:
        return self._weighted_degree

    def neighbors(self, v: int) -> np.ndarray:
        """Targets of all slots leaving ``v`` (with multiplicity)."""
        return self.csr_target[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_set(self, v: int) -> set[int]:
        """Distinct neighbors of ``v`` as a set of ints."""
        return {int(u) for u in self.neighbors(v)}

    def slots_of(self, v: int) -> range:
        """Directed-edge slot indices leaving ``v``."""
        return range(int(self.indptr[v]), int(self.indptr[v + 1]))

    def edges(self) -> list[tuple[int, int]]:
        """The undirected edge list as given at construction."""
        return [tuple(e) for e in self._edge_array.tolist()]

    @property
    def edge_array(self) -> np.ndarray:
        """Undirected edges as an ``(m, 2)`` int64 array (do not mutate)."""
        return self._edge_array

    def edge_weights(self) -> np.ndarray:
        return self._edge_weights.copy()

    @property
    def is_weighted(self) -> bool:
        """True when edge weights are not all identical."""
        return not self._uniform_weights

    def slot_sources(self) -> np.ndarray:
        """Each slot's source as an int64 array, ``v`` repeated ``deg(v)`` times; derived per call."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self._degree)

    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Every slot's directed pair key (:func:`pair_keys`), sorted, and the slots in that order.

        Built on first use and dropped when the edges change.  A pair's
        parallel slots sit together in slot order (the sort is stable): the
        first is its representative slot, their number its multiplicity.
        """
        index = self._pairs
        if index is None:
            keys = pair_keys(self.slot_sources(), self.csr_target, self.n)
            order = np.argsort(keys, kind="stable")
            index = self._pairs = (keys[order], order)
        return index

    def distinct_pair_slots(self) -> np.ndarray:
        """First slot of each distinct directed non-loop pair in key order: what a BFS flood explores."""
        keys, order = self.pair_index()
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        first &= keys // self.n != keys % self.n
        return order[first]

    def distinct_neighbor_counts(self) -> np.ndarray:
        """Each node's number of distinct neighbours other than itself, int32 (do not mutate).

        What a BFS flood's explore count per node depends on.  Built on
        first use and dropped when the edges change.
        """
        if self._distinct is None:
            sources = self.slot_sources()
            non_loop = sources != self.csr_target
            keys = sorted_unique(pair_keys(sources[non_loop], self.csr_target[non_loop], self.n))
            self._distinct = np.bincount(keys // self.n, minlength=self.n).astype(np.int32)
        return self._distinct

    def pair_slots(self, keys: np.ndarray) -> np.ndarray:
        """First CSR slot of each directed pair key ``src·n + dst``; -1 where none."""
        sorted_keys, order = self.pair_index()
        if sorted_keys.size == 0:
            return np.full(np.shape(keys), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
        return np.where(sorted_keys[pos] == keys, order[pos], -1)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether some slot carries ``u → v``: one binary search of :meth:`pair_index`."""
        keys, _ = self.pair_index()
        key = int(pair_keys(u, v, self.n))
        i = int(keys.searchsorted(key))
        return i < keys.size and int(keys[i]) == key

    def total_weight(self) -> float:
        return float(self._edge_weights.sum())

    def reverse_slot(self, slot: int) -> int:
        """Slot of the same undirected edge in the opposite direction.

        For a self-loop the slot is its own reverse.
        """
        if self._reverse_slot is None:
            # Group slots by undirected edge id: a stable argsort puts each
            # edge's one (self-loop) or two slots adjacent, in slot order.
            rev = np.empty(self.n_slots, dtype=np.int64)
            if self.n_slots:
                order = np.argsort(self.csr_edge, kind="stable")
                counts = np.bincount(self.csr_edge, minlength=self.m)
                starts = np.zeros(self.m, dtype=np.int64)
                np.cumsum(counts[:-1], out=starts[1:])
                paired = starts[counts == 2]
                a, b = order[paired], order[paired + 1]
                rev[a], rev[b] = b, a
                loops = order[starts[counts == 1]]
                rev[loops] = loops
            self._reverse_slot = rev
        return int(self._reverse_slot[slot])

    # ------------------------------------------------------------------
    # Random-walk stepping
    # ------------------------------------------------------------------
    def _cumulative_weights(self) -> np.ndarray:
        if self._cumweights is None:
            self._cumweights = np.cumsum(self._edge_weights[self.csr_edge])
        return self._cumweights

    def random_slot(self, v: int, rng: np.random.Generator) -> int:
        """Sample an outgoing slot at ``v`` with probability ∝ its weight.

        Raises :class:`GraphError` when ``v`` is not a node or is isolated.
        A weighted draw that rounding carries past the node's last
        cumulative weight takes that last slot, never a slot of ``v + 1``.
        """
        if not 0 <= v < self.n:
            raise GraphError(f"node {v} out of range for n={self.n}")
        lo, hi = int(self.indptr[v]), int(self.indptr[v + 1])
        if lo == hi:
            raise GraphError(f"node {v} is isolated; random walk undefined")
        if self._uniform_weights:
            return int(rng.integers(lo, hi))
        weights = self._edge_weights[self.csr_edge[lo:hi]]
        total = weights.sum()
        offset = int(np.searchsorted(np.cumsum(weights), rng.random() * total, side="right"))
        return lo + min(offset, hi - lo - 1)

    def random_neighbor(self, v: int, rng: np.random.Generator) -> int:
        """One step of the (weighted) simple random walk from ``v``."""
        return int(self.csr_target[self.random_slot(v, rng)])

    def step_walk_slots(self, positions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorized single step: sample one outgoing slot per position.

        Returns an array of slot indices parallel to ``positions``.  The
        corresponding next positions are ``self.csr_target[slots]``.  A
        position that is not a node, or is isolated, raises
        :class:`GraphError`.

        The draw depends on the graph.  On a ``d``-regular unweighted graph
        node ``v``'s slots start at ``v·d``, so one scalar-bound draw serves
        every position; it yields the same slots and generator state as the
        per-position bound draw that other unweighted graphs use.  Weighted
        graphs draw inverse-CDF (searchsorted over per-node cumulative
        weights).
        """
        positions = np.asarray(positions, dtype=np.int64)
        # One pass: a negative int64 reads as a uint64 of at least 2⁶³.
        if positions.size and positions.view(np.uint64).max() >= self.n:
            bad = positions[(positions < 0) | (positions >= self.n)].flat[0]
            raise GraphError(f"node {int(bad)} out of range for n={self.n}")
        d = self._max_degree
        if self._uniform_weights and self._min_degree == d > 0:
            return positions * d + rng.integers(0, d, size=positions.shape)
        lo = self.indptr[positions]
        deg = self.indptr[positions + 1] - lo
        if self._min_degree == 0 and np.any(deg == 0):
            bad = positions[deg == 0][0]
            raise GraphError(f"node {int(bad)} is isolated; random walk undefined")
        if self._uniform_weights:
            offsets = rng.integers(0, deg)
            return lo + offsets
        cum = self._cumulative_weights()
        # cum[lo - 1] wraps to cum[-1] when lo == 0; np.where masks it out.
        base = np.where(lo > 0, cum[lo - 1], 0.0)
        node_total = self._weighted_degree[positions]
        u = rng.random(len(positions)) * node_total + base
        slots = np.searchsorted(cum, u, side="right")
        # Numerical safety: clamp into the node's own slot range.
        hi = lo + deg - 1
        return np.clip(slots, lo, hi)

    def step_walks(self, positions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorized single walk step; returns the next positions."""
        return self.csr_target[self.step_walk_slots(positions, rng)]

    def walk(self, start: int, length: int, rng: np.random.Generator) -> list[int]:
        """Perform a ``length``-step walk from ``start``; returns all ℓ+1 positions.

        This is the *centralized* reference walk used by analysis code and
        tests; the distributed algorithms live in :mod:`repro.walks`.
        """
        if length < 0:
            raise GraphError(f"walk length must be non-negative, got {length}")
        if not 0 <= start < self.n:
            raise GraphError(f"node {start} out of range for n={self.n}")
        path = [int(start)]
        current = int(start)
        for _ in range(length):
            current = self.random_neighbor(current, rng)
            path.append(current)
        return path

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def subgraph_is_spanning_tree(self, tree_edges: Iterable[tuple[int, int]]) -> bool:
        """Check that ``tree_edges`` forms a spanning tree of this graph."""
        edges = [(min(u, v), max(u, v)) for u, v in tree_edges]
        if len(edges) != self.n - 1:
            return False
        available = {(min(u, v), max(u, v)) for u, v in self.edges()}
        if any(e not in available for e in edges):
            return False
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    # ------------------------------------------------------------------
    # Dynamic topology
    # ------------------------------------------------------------------
    def apply_delta(self, delta):
        """Apply a batched edge churn event in place; returns a remap report.

        ``delta`` is a :class:`~repro.dynamic.delta.GraphDelta` — edge
        inserts and deletes batched into one topology event.  Deletions
        match stored undirected edges by endpoint pair (orientation
        irrelevant); listing the same pair twice deletes two parallel
        edges, and deleting an absent edge raises :class:`GraphError`.
        The CSR arrays, degree profiles, and every lazily built view are
        rebuilt vectorized; node count and identity are unchanged (node
        churn is out of scope — model an absent node as an isolated one).

        The returned :class:`~repro.dynamic.delta.DeltaRemap` carries the
        old→new directed-slot remap (``-1`` for slots of deleted edges) and
        the set of *mutated* nodes — endpoints of any inserted or deleted
        edge, exactly the nodes whose one-step sampling law changed.  That
        set is what the pool-invalidation scan keys on: a recorded walk
        step taken *from* a non-mutated node has the identical law on the
        old and new graphs, and a hop across a deleted edge is a step from
        one of its (mutated) endpoints.

        Mutating the topology invalidates everything derived from it that
        lives *outside* this object (a network's tree-slot stamp, BFS
        tree caches, pool quotas); driving that cascade is the
        :class:`~repro.dynamic.controller.ChurnController`'s job.
        """
        from repro.dynamic.delta import DeltaRemap, GraphDelta

        if not isinstance(delta, GraphDelta):
            raise GraphError(f"apply_delta expects a GraphDelta, got {type(delta).__name__}")
        n = self.n
        ins = delta.insert_edges
        dels = delta.delete_edges
        for arr, what in ((ins, "insert"), (dels, "delete")):
            if arr.size and (np.any(arr < 0) or np.any(arr >= n)):
                raise GraphError(f"{what} edge endpoint out of range for n={n}")

        old_edges = self._edge_array
        old_m = self.m
        # Match each requested deletion to a distinct stored undirected
        # edge: sort both sides by the orientation-free key min·n+max, then
        # the i-th occurrence of a key among the deletions claims the i-th
        # stored edge with that key.
        delete_ids = np.empty(0, dtype=np.int64)
        if len(dels):
            keys_old = pair_keys(old_edges.min(axis=1), old_edges.max(axis=1), n)
            keys_del = pair_keys(dels.min(axis=1), dels.max(axis=1), n)
            order_old = np.argsort(keys_old, kind="stable")
            sorted_old = keys_old[order_old]
            sorted_del = np.sort(keys_del, kind="stable")
            first = np.r_[True, sorted_del[1:] != sorted_del[:-1]]
            starts = np.nonzero(first)[0]
            occurrence = np.arange(len(sorted_del)) - starts[np.cumsum(first) - 1]
            pos = np.searchsorted(sorted_old, sorted_del) + occurrence
            bad = (pos >= old_m) | (sorted_old[np.minimum(pos, old_m - 1)] != sorted_del)
            if bad.any():
                key = int(sorted_del[np.nonzero(bad)[0][0]])
                raise GraphError(
                    f"cannot delete edge ({key // n}, {key % n}): not (or no longer) present"
                )
            delete_ids = order_old[pos]

        keep = np.ones(old_m, dtype=bool)
        keep[delete_ids] = False
        new_edges = np.concatenate([old_edges[keep], ins]) if len(ins) else old_edges[keep]
        insert_weights = (
            delta.insert_weights
            if delta.insert_weights is not None
            else np.ones(len(ins), dtype=np.float64)
        )
        new_weights = np.concatenate([self._edge_weights[keep], insert_weights])
        edge_id_map = np.full(old_m, -1, dtype=np.int64)
        edge_id_map[keep] = np.arange(int(keep.sum()), dtype=np.int64)

        # Snapshot the old slot identity (edge id + orientation side) before
        # the rebuild clobbers it; a slot is side 1 when its target is not its edge's second end.
        old_n_slots = self.n_slots
        old_csr_edge = self.csr_edge
        old_side = self.csr_target != old_edges[old_csr_edge, 1]

        self._install_edges(new_edges, new_weights)

        # Old slot (edge e, side s) → new slot: surviving edges keep their
        # row orientation, so the pair survives verbatim under the new ids.
        slot_of = np.full((max(1, self.m), 2), -1, dtype=np.int64)
        if self.n_slots:
            new_side = (self.csr_target != new_edges[self.csr_edge, 1]).astype(np.int64)
            slot_of[self.csr_edge, new_side] = np.arange(self.n_slots, dtype=np.int64)
        slot_remap = np.full(old_n_slots, -1, dtype=np.int64)
        if old_n_slots:
            survives = edge_id_map[old_csr_edge] >= 0
            slot_remap[survives] = slot_of[
                edge_id_map[old_csr_edge[survives]], old_side[survives].astype(np.int64)
            ]

        mutated = np.zeros(n, dtype=bool)
        if len(dels):
            mutated[old_edges[~keep].ravel()] = True
        if len(ins):
            mutated[ins.ravel()] = True
        return DeltaRemap(
            slot_remap=slot_remap,
            mutated_nodes=np.nonzero(mutated)[0],
            edges_deleted=int(len(dels)),
            edges_inserted=int(len(ins)),
            old_n_slots=int(old_n_slots),
            new_n_slots=int(self.n_slots),
        )

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __repr__(self) -> str:
        kind = "weighted " if self.is_weighted else ""
        return f"Graph({self.name!r}, n={self.n}, m={self.m}, {kind}CSR)"

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a :class:`networkx.MultiGraph` (for cross-checks in tests)."""
        import networkx as nx

        g = nx.MultiGraph()
        g.add_nodes_from(range(self.n))
        for (u, v), w in zip(self.edges(), self._edge_weights):
            g.add_edge(u, v, weight=float(w))
        return g
