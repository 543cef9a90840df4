"""Centralized (analysis-side) graph properties: BFS, diameter, connectivity.

:func:`bfs_distances` is the library's one breadth-first traversal, a
level-synchronous frontier loop over the CSR arrays.  Everything that
searches a graph breadth-first is built on it: :func:`bfs_tree` and the
properties below but :func:`connected_components` (which labels every
component at once over the edge list), the generators' connectivity
checks, the crash and churn samplers' connectivity tests (through a
per-slot mask), and the charged BFS of
:func:`repro.congest.primitives.build_bfs_tree`, which reads
:func:`bfs_tree` and charges the flood's exact rounds and messages on top
of it.  So the flood's tie-break and the meaning of "connected" live here.

These functions themselves are *not* charged rounds — they are the offline
analysis used by tests and benches (and by algorithm setup where the paper
assumes a quantity such as the diameter is known).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.util.arrays import sorted_unique

__all__ = [
    "bfs_distances",
    "bfs_tree",
    "eccentricity",
    "diameter",
    "pseudo_diameter",
    "is_connected",
    "is_bipartite",
    "connected_components",
    "shortest_path",
]

UNREACHED = -1

#: Nodes per block of :func:`bfs_tree`'s parent pass, which bounds its
#: temporaries to a few MiB whatever the graph's size.
_PARENT_BLOCK = 1 << 16


def bfs_distances(graph: Graph, root: int, *, slot_mask: np.ndarray | None = None) -> np.ndarray:
    """Hop distance from ``root`` to every node, int32, −1 where unreachable.

    Each level gathers every CSR slot of the frontier in one shot and keeps
    the targets not reached yet; the loop stops once every node is reached
    or the frontier is empty.  ``slot_mask`` holds one flag per directed
    CSR slot: an unflagged slot is not crossed.  Masking the slots into
    some nodes searches the subgraph induced on the rest (the crash
    sampler); masking the slots of some edges searches the graph without
    them (the churn sampler).
    """
    n = graph.n
    indptr, target = graph.indptr, graph.csr_target
    dist = np.full(n, UNREACHED, dtype=np.int32)
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    reached = level = 1
    while frontier.size and reached < n:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        slots = np.repeat(starts - ends + counts, counts)
        slots += np.arange(slots.size)
        if slot_mask is not None:
            slots = slots[slot_mask[slots]]
        targets = target[slots]
        frontier = sorted_unique(targets[dist[targets] == UNREACHED])
        dist[frontier] = level
        reached += frontier.size
        level += 1
    return dist


def bfs_tree(graph: Graph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS parents and distances from ``root``, both int32.

    Returns ``(parent, dist)`` where ``parent[root] = root`` and
    ``parent[v] = -1`` for unreachable ``v``.  A node's parent is its
    lowest-ID neighbour one level closer to the root: the tie-break of the
    flood protocol (:class:`~repro.congest.primitives.BfsFloodProtocol`),
    whose explores from one level all arrive in the same round.  The
    parents come from one pass over the slots after :func:`bfs_distances`,
    a segmented minimum over each node's neighbours one level closer, run
    in blocks of nodes so its temporaries stay small.
    """
    n = graph.n
    indptr, target = graph.indptr, graph.csr_target
    dist = bfs_distances(graph, root)
    parent = np.full(n, n, dtype=np.int32)
    for lo in range(0, n, _PARENT_BLOCK):
        hi = min(lo + _PARENT_BLOCK, n)
        first = indptr[lo]
        starts = indptr[lo:hi] - first
        degree = np.diff(indptr[lo : hi + 1])
        neighbour = target[first : indptr[hi]].astype(np.int32)
        # A neighbour of a reached node is at most one level away, so one
        # level closer means a smaller distance.
        neighbour[dist[neighbour] >= np.repeat(dist[lo:hi], degree)] = n
        some = degree > 0
        parent[lo:hi][some] = np.minimum.reduceat(neighbour, starts[some])
    parent[dist == UNREACHED] = UNREACHED
    parent[root] = root
    return parent, dist


def eccentricity(graph: Graph, v: int) -> int:
    """Largest hop distance from ``v``; raises on disconnected graphs."""
    dist = bfs_distances(graph, v)
    if np.any(dist == UNREACHED):
        raise GraphError("eccentricity undefined: graph is disconnected")
    return int(dist.max())


def diameter(graph: Graph) -> int:
    """Exact diameter via all-pairs BFS (fine for experiment-scale graphs)."""
    best = 0
    for v in range(graph.n):
        best = max(best, eccentricity(graph, v))
    return best


def pseudo_diameter(graph: Graph) -> int:
    """Double-sweep lower bound on the diameter (exact on trees).

    Two BFS passes: from node 0 to its farthest node ``a``, then from ``a``.
    Used where an exact diameter would cost ``O(n·m)`` needlessly — the
    algorithms only need a Θ(D) estimate to pick ``λ``.
    """
    dist0 = bfs_distances(graph, 0)
    if np.any(dist0 == UNREACHED):
        raise GraphError("pseudo_diameter undefined: graph is disconnected")
    a = int(np.argmax(dist0))
    dist_a = bfs_distances(graph, a)
    return int(dist_a.max())


def is_connected(graph: Graph) -> bool:
    return not np.any(bfs_distances(graph, 0) == UNREACHED)


def connected_components(graph: Graph) -> list[list[int]]:
    """List of components, each a sorted list of node IDs, by smallest member.

    Labels every component at once, with no search per component: each
    round hooks the larger label of every edge under the smaller
    (``np.minimum.at``), then pointer jumping compresses the labels, until
    both ends of every edge agree.  A label only ever moves to a smaller
    node of its own component, so each ends up as its component's smallest
    node.
    """
    label = np.arange(graph.n, dtype=np.int64)
    u, v = graph.edge_array[:, 0], graph.edge_array[:, 1]
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            break
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    order = np.argsort(label, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), graph.n]
    members = order.tolist()
    return [members[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def is_bipartite(graph: Graph) -> bool:
    """Two-colorability check.

    Mixing time is well defined only on non-bipartite graphs (Section 4.2
    assumes this); the mixing-time estimator validates its input with this.
    A self-loop makes a graph non-bipartite.
    """
    color = np.full(graph.n, UNREACHED, dtype=np.int64)
    for start in range(graph.n):
        if color[start] != UNREACHED:
            continue
        color[start] = 0
        queue: deque[int] = deque([start])
        while queue:
            v = queue.popleft()
            for u in graph.neighbors(v):
                u = int(u)
                if u == v:
                    return False  # self-loop: odd cycle of length 1
                if color[u] == UNREACHED:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def shortest_path(graph: Graph, source: int, target: int) -> list[int]:
    """One shortest path (node list, inclusive) from ``source`` to ``target``."""
    parent, dist = bfs_tree(graph, source)
    if dist[target] == UNREACHED:
        raise GraphError(f"no path from {source} to {target}")
    path = [target]
    while path[-1] != source:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return path
