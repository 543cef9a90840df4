"""Adjacency queries agree with a brute-force count of the edge list.

Three queries answer "is there a ``u → v`` edge, and which slot carries
it": ``Graph.has_edge``, ``Graph.pair_slots`` over ``pair_keys`` and
``Graph.distinct_pair_slots``.  On random multigraphs with parallel edges
and self-loops, before and after a churn event (``apply_delta`` plus
``refresh_topology``), each must match a count taken straight from
``edge_array``: ``pair_slots`` names the first CSR slot of each pair, or
``-1`` when there is none, and ``distinct_pair_slots`` lists that slot for
every non-loop pair present, in pair-key order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Network
from repro.congest.faults import FaultSchedule, FaultStep
from repro.dynamic import GraphDelta, sample_churn_delta
from repro.engine import WalkEngine
from repro.graphs import Graph, path_graph, random_regular_graph, torus_graph
from repro.graphs.graph import pair_keys
from repro.util.rng import make_rng


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


def check_adjacency(graph: Graph) -> None:
    n = graph.n
    us = np.repeat(np.arange(n, dtype=np.int64), n)
    vs = np.tile(np.arange(n, dtype=np.int64), n)
    slots = graph.pair_slots(pair_keys(us, vs, n))
    sources = graph.slot_sources()
    explored = []
    for u, v, slot in zip(us.tolist(), vs.tolist(), slots.tolist()):
        count = brute_multiplicity(graph, u, v)
        assert graph.has_edge(u, v) == (count > 0), (u, v)
        assert slot == brute_first_slot(graph, u, v), (u, v)
        if slot >= 0:
            assert (int(sources[slot]), int(graph.csr_target[slot])) == (u, v)
            if u != v:
                explored.append(slot)
    assert graph.distinct_pair_slots().tolist() == explored


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
        check_adjacency(graph)
        graph.apply_delta(GraphDelta(insert_edges=inserts, delete_edges=deletes))
        net.refresh_topology()
        check_adjacency(graph)


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


class TestTheSlotEncoding:
    """Slot sources and pair keys are derived in ``repro.graphs``, at int64."""

    def test_has_edge_widens_int32_ids(self):
        # 49,998 · 50,000 overflows int32: an unwidened key wraps negative.
        graph = path_graph(50_000)
        assert graph.has_edge(np.int32(49_998), np.int32(49_999))
        assert not graph.has_edge(np.int32(49_997), np.int32(49_999))

    def test_pair_keys_of_int32_arrays_equal_the_int64_product(self):
        n = 50_000
        rng = np.random.default_rng(0)
        src = rng.integers(0, n, size=1_000).astype(np.int32)
        dst = rng.integers(0, n, size=1_000).astype(np.int32)
        keys = pair_keys(src, dst, n)
        assert keys.dtype == np.int64
        np.testing.assert_array_equal(keys, src.astype(np.int64) * n + dst.astype(np.int64))

    def test_slot_sources_repeat_each_node_by_its_degree_across_churn(self):
        graph = random_regular_graph(200, 4, 1)
        for _ in range(2):
            sources = graph.slot_sources()
            assert sources.dtype == np.int64
            np.testing.assert_array_equal(
                sources, np.repeat(np.arange(graph.n), graph.degrees)
            )
            graph.apply_delta(sample_churn_delta(graph, make_rng(3), deletes=5, inserts=7))

    def test_an_unobserved_serving_session_never_builds_the_pair_index(self):
        graph = torus_graph(8, 8)
        engine = WalkEngine(graph, seed=0)
        engine.prepare(lam=4)
        sched = engine.scheduler()
        sched.submit([0, 9, 27], 64)
        sched.drain()
        engine.walks([1, 2], 64)
        engine.apply_churn(sample_churn_delta(graph, make_rng(1), deletes=2, inserts=2))
        now = engine.network.rounds
        engine.attach_faults(
            FaultSchedule(
                steps=(
                    FaultStep(at_round=now + 1, crash=(5,)),
                    FaultStep(at_round=now + 60, recover=(5,)),
                )
            )
        )
        sched.submit([3, 40], 128)
        sched.drain()
        assert engine.faults.cursor == 2
        assert graph._pairs is None
