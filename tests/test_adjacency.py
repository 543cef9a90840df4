"""Adjacency queries agree with a brute-force count of the edge list.

Four queries answer "is there a ``u → v`` edge, and which slot carries
it": ``Graph.has_edge``, ``Network.edge_multiplicity``,
``Network.are_adjacent`` and ``Network.edge_slots_for_pairs``.  On random
multigraphs with parallel edges and self-loops, before and after a churn
event (``apply_delta`` plus ``refresh_topology``), each must match a
count taken straight from ``edge_array``, and ``edge_slots_for_pairs``
must name the first CSR slot of each pair, or ``-1`` when there is none.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Network
from repro.dynamic import GraphDelta
from repro.graphs import Graph


def brute_multiplicity(graph: Graph, u: int, v: int) -> int:
    """Parallel ``u → v`` edges: a self-loop counts once, as its one slot."""
    return sum(
        1 for a, b in graph.edge_array.tolist() if (a, b) == (u, v) or (b, a) == (u, v)
    )


def brute_first_slot(graph: Graph, u: int, v: int) -> int:
    for slot in graph.slots_of(u):
        if int(graph.csr_target[slot]) == v:
            return slot
    return -1


def check_adjacency(graph: Graph, net: Network) -> None:
    n = graph.n
    us = np.repeat(np.arange(n, dtype=np.int64), n)
    vs = np.tile(np.arange(n, dtype=np.int64), n)
    slots = net.edge_slots_for_pairs(us, vs)
    for u, v, slot in zip(us.tolist(), vs.tolist(), slots.tolist()):
        count = brute_multiplicity(graph, u, v)
        assert graph.has_edge(u, v) == (count > 0), (u, v)
        assert net.are_adjacent(u, v) == (count > 0), (u, v)
        assert net.edge_multiplicity(u, v) == count, (u, v)
        assert slot == brute_first_slot(graph, u, v), (u, v)
        if slot >= 0:
            assert (int(graph.csr_source[slot]), int(graph.csr_target[slot])) == (u, v)


@st.composite
def churned_multigraphs(draw):
    """A multigraph, plus a delta deleting some of its edges and inserting others."""
    n = draw(st.integers(1, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair, max_size=16))
    doomed = draw(st.lists(st.sampled_from(range(len(edges))), unique=True)) if edges else []
    inserts = draw(st.lists(pair, max_size=8))
    # Deletion matches by endpoint pair, so either orientation deletes it.
    flip = draw(st.booleans())
    deletes = [edges[i][::-1] if flip else edges[i] for i in doomed]
    return n, edges, deletes, inserts


class TestAdjacencyAgreesWithTheEdgeList:
    @given(churned_multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_before_and_after_churn(self, data):
        n, edges, deletes, inserts = data
        graph = Graph(n, edges)
        net = Network(graph)
        check_adjacency(graph, net)
        graph.apply_delta(GraphDelta(insert_edges=inserts, delete_edges=deletes))
        net.refresh_topology()
        check_adjacency(graph, net)


def brute_distinct(graph: Graph, v: int) -> int:
    """Distinct neighbours of ``v`` other than itself, from ``edge_array``."""
    ends = {b for a, b in graph.edge_array.tolist() if a == v}
    ends |= {a for a, b in graph.edge_array.tolist() if b == v}
    return len(ends - {v})


class TestDistinctNeighborCounts:
    """The flood's per-node explore counts, kept once per topology."""

    def check(self, graph: Graph) -> None:
        counts = graph.distinct_neighbor_counts()
        assert counts.dtype == np.int32
        assert counts.tolist() == [brute_distinct(graph, v) for v in range(graph.n)]

    @given(churned_multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_before_and_after_churn(self, data):
        n, edges, deletes, inserts = data
        graph = Graph(n, edges)
        self.check(graph)
        graph.apply_delta(GraphDelta(insert_edges=inserts, delete_edges=deletes))
        self.check(graph)

    def test_a_parallel_edge_and_a_self_loop_add_no_neighbour(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        self.check(graph)
        assert graph.distinct_neighbor_counts() is graph.distinct_neighbor_counts()
        graph.apply_delta(GraphDelta(insert_edges=[(0, 1), (3, 3), (0, 2)]))
        self.check(graph)
        assert graph.distinct_neighbor_counts().tolist() == [2, 2, 3, 1]
