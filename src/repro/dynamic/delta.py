"""The data model of graph churn: batched edge deltas and their remaps.

A :class:`GraphDelta` is one *topology event*: a batch of undirected edge
inserts and deletes applied atomically between rounds.  The journal version
of the paper (arXiv:1302.4544) motivates distributed walk sampling
precisely for dynamic networks — topology maintenance and token management
under churn — and batching is how real systems ingest churn: membership
changes accumulate and are applied at an epoch boundary, not one message
at a time.

:meth:`~repro.graphs.graph.Graph.apply_delta` consumes a delta and returns
a :class:`DeltaRemap` describing what moved:

* ``slot_remap`` — old directed CSR slot → new slot (``-1`` for slots of
  deleted edges).  Slot IDs are the library's canonical directed-edge
  identity (the congestion ledger's unit), so anything holding slots
  across a churn event re-keys through this.
* ``mutated_nodes`` — every endpoint of an inserted or deleted edge.
  These are exactly the nodes whose one-step transition law changed; the
  pool invalidation scan evicts any token whose recorded walk *stepped
  from* one of them (a step from a non-mutated node has the identical law
  on the old and new graphs, so the token stays exact).  Both endpoints of
  every deleted edge are in it, so a hop across a deleted edge is such a
  step and needs no scan of its own.

This module is deliberately import-light (numpy + errors only) so the
graph substrate can consume deltas without a dependency cycle on the
engine-side churn machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError

__all__ = ["DeltaRemap", "GraphDelta"]


def _as_edge_array(edges, what: str) -> np.ndarray:
    if isinstance(edges, np.ndarray):
        arr = np.array(edges, dtype=np.int64)  # defensive copy
        if arr.size == 0:
            arr = arr.reshape(0, 2)
    else:
        seq = list(edges)
        arr = (
            np.array(seq, dtype=np.int64) if seq else np.empty((0, 2), dtype=np.int64)
        )
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"{what} edges must be (u, v) pairs, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class GraphDelta:
    """One batched churn event: edge inserts and deletes applied atomically.

    ``insert_edges`` / ``delete_edges`` are ``(k, 2)`` endpoint-pair arrays
    (orientation irrelevant; list a pair twice to insert/delete two
    parallel edges).  ``insert_weights`` optionally parallels
    ``insert_edges`` (default 1.0 each — the unweighted law).  Deleting an
    edge not present at application time is an error, surfaced by
    :meth:`~repro.graphs.graph.Graph.apply_delta`.
    """

    insert_edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    delete_edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    insert_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "insert_edges", _as_edge_array(self.insert_edges, "insert"))
        object.__setattr__(self, "delete_edges", _as_edge_array(self.delete_edges, "delete"))
        if self.insert_weights is not None:
            w = np.asarray(self.insert_weights, dtype=np.float64)
            if w.shape != (len(self.insert_edges),):
                raise GraphError("insert_weights must parallel insert_edges")
            if np.any(w <= 0):
                raise GraphError("insert_weights must be strictly positive")
            object.__setattr__(self, "insert_weights", w)

    @property
    def num_changes(self) -> int:
        """Total edges touched — the churn magnitude benches sweep over."""
        return len(self.insert_edges) + len(self.delete_edges)

    @property
    def is_empty(self) -> bool:
        return self.num_changes == 0

    def __repr__(self) -> str:
        return (
            f"GraphDelta(insert={len(self.insert_edges)}, delete={len(self.delete_edges)})"
        )


@dataclass(frozen=True)
class DeltaRemap:
    """What one applied :class:`GraphDelta` did to derived graph state.

    ``slot_remap[j]`` is the new directed slot of old slot ``j`` (``-1``
    when the slot's edge was deleted); ``mutated_nodes`` the sorted node
    IDs whose incident edge set (and hence walk-sampling law) changed,
    both endpoints of every deleted edge among them.
    """

    slot_remap: np.ndarray
    mutated_nodes: np.ndarray
    edges_deleted: int
    edges_inserted: int
    old_n_slots: int
    new_n_slots: int

    @property
    def num_mutated(self) -> int:
        return len(self.mutated_nodes)
