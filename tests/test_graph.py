"""Tests for the Graph CSR substrate, including hypothesis cross-checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import Graph, cycle_graph, path_graph, star_graph, torus_graph
from repro.util.rng import make_rng


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_basic_counts(self):
        g = triangle()
        assert g.n == 3 and g.m == 3 and g.n_slots == 6

    def test_degrees(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert [g.degree(v) for v in range(4)] == [3, 1, 1, 1]

    def test_self_loop_single_slot(self):
        g = Graph(2, [(0, 1), (0, 0)])
        assert g.degree(0) == 2  # one for the loop, one for the edge
        assert g.n_slots == 3

    def test_parallel_edges(self):
        g = Graph(2, [(0, 1), (0, 1)])
        assert g.degree(0) == 2
        assert list(g.neighbors(0)) == [1, 1]

    def test_out_of_range_edge(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 5)])

    def test_nonpositive_n(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    def test_bad_weights_shape(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], weights=[1.0, 2.0])

    def test_nonpositive_weight(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], weights=[0.0])

    def test_repr_mentions_name(self):
        assert "triangle" in repr(Graph(3, [(0, 1)], name="triangle"))


class TestAccessors:
    def test_neighbors_sorted_content(self):
        g = triangle()
        assert g.neighbor_set(0) == {1, 2}

    def test_has_edge(self):
        g = path_graph(4)
        assert g.has_edge(1, 2)
        assert not g.has_edge(0, 3)

    def test_weighted_degree(self):
        g = Graph(3, [(0, 1), (1, 2)], weights=[2.0, 3.0])
        assert g.weighted_degree(1) == pytest.approx(5.0)
        assert g.is_weighted

    def test_uniform_weights_not_weighted(self):
        assert not triangle().is_weighted

    def test_slots_of_covers_all(self):
        g = triangle()
        all_slots = sorted(s for v in range(3) for s in g.slots_of(v))
        assert all_slots == list(range(g.n_slots))

    def test_slot_sources_consistent(self):
        g = triangle()
        sources = g.slot_sources()
        assert sources.dtype == np.int64
        for v in range(3):
            for s in g.slots_of(v):
                assert sources[s] == v

    def test_reverse_slot_involution(self):
        g = triangle()
        for s in range(g.n_slots):
            r = g.reverse_slot(s)
            assert g.reverse_slot(r) == s
            assert g.slot_sources()[s] == g.csr_target[r]
            assert g.csr_target[s] == g.slot_sources()[r]

    def test_reverse_slot_self_loop(self):
        g = Graph(2, [(0, 1), (1, 1)])
        sources = g.slot_sources()
        loop_slot = next(s for s in range(g.n_slots) if sources[s] == g.csr_target[s])
        assert g.reverse_slot(loop_slot) == loop_slot

    def test_total_weight(self):
        g = Graph(2, [(0, 1)], weights=[2.5])
        assert g.total_weight() == pytest.approx(2.5)


class TestWalkStepping:
    def test_random_neighbor_valid(self):
        g = triangle()
        rng = make_rng(0)
        for _ in range(50):
            assert g.random_neighbor(0, rng) in {1, 2}

    def test_isolated_node_raises(self):
        g = Graph(2, [(1, 1)])
        with pytest.raises(GraphError):
            g.random_neighbor(0, make_rng(0))

    def test_step_walks_isolated_raises(self):
        g = Graph(2, [(1, 1)])
        with pytest.raises(GraphError):
            g.step_walks(np.array([0]), make_rng(0))

    def test_step_walks_matches_adjacency(self):
        g = cycle_graph(10)
        rng = make_rng(1)
        pos = np.arange(10)
        nxt = g.step_walks(pos, rng)
        for a, b in zip(pos, nxt):
            assert g.has_edge(int(a), int(b))

    def test_unweighted_step_uniform(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        rng = make_rng(2)
        pos = np.zeros(30_000, dtype=np.int64)
        nxt = g.step_walks(pos, rng)
        freqs = np.bincount(nxt, minlength=4)[1:] / 30_000
        assert np.all(np.abs(freqs - 1 / 3) < 0.02)

    def test_weighted_step_proportional(self):
        g = Graph(3, [(0, 1), (0, 2)], weights=[1.0, 3.0])
        rng = make_rng(3)
        pos = np.zeros(40_000, dtype=np.int64)
        nxt = g.step_walks(pos, rng)
        frac_to_2 = float((nxt == 2).mean())
        assert abs(frac_to_2 - 0.75) < 0.02

    def test_weighted_single_step_proportional(self):
        g = Graph(3, [(0, 1), (0, 2)], weights=[1.0, 3.0])
        rng = make_rng(4)
        hits = sum(g.random_neighbor(0, rng) == 2 for _ in range(20_000))
        assert abs(hits / 20_000 - 0.75) < 0.02

    def test_walk_length_and_validity(self):
        g = cycle_graph(8)
        walk = g.walk(0, 25, make_rng(5))
        assert len(walk) == 26 and walk[0] == 0
        for a, b in zip(walk, walk[1:]):
            assert g.has_edge(a, b)

    def test_walk_negative_length(self):
        with pytest.raises(GraphError):
            triangle().walk(0, -1, make_rng(0))

    def test_walk_zero_length(self):
        assert triangle().walk(1, 0, make_rng(0)) == [1]


class TestSpanningTreeCheck:
    def test_valid_tree(self):
        g = triangle()
        assert g.subgraph_is_spanning_tree([(0, 1), (1, 2)])

    def test_cycle_rejected(self):
        g = triangle()
        assert not g.subgraph_is_spanning_tree([(0, 1), (1, 2), (0, 2)])

    def test_wrong_count_rejected(self):
        assert not triangle().subgraph_is_spanning_tree([(0, 1)])

    def test_non_edges_rejected(self):
        g = path_graph(4)
        assert not g.subgraph_is_spanning_tree([(0, 1), (1, 2), (0, 3)])


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 12))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # Always include a spanning path so the graph is connected.
    base = [(i, i + 1) for i in range(n - 1)]
    extra = draw(st.lists(st.sampled_from(possible), max_size=12))
    return n, base + extra


class TestHypothesisCrossChecks:
    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, data):
        n, edges = data
        g = Graph(n, edges)
        loops = sum(1 for u, v in edges if u == v)
        assert int(g.degrees.sum()) == 2 * (g.m - loops) + loops

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx_degrees(self, data):
        import networkx as nx

        n, edges = data
        g = Graph(n, edges)
        h = nx.MultiGraph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        for v in range(n):
            # networkx counts self-loops twice in MultiGraph degree.
            loops = sum(1 for a, b in edges if a == b and a == v)
            assert g.degree(v) == h.degree(v) - loops

    @given(random_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_steps_stay_on_edges(self, data, seed):
        n, edges = data
        g = Graph(n, edges)
        rng = make_rng(seed)
        pos = np.arange(n, dtype=np.int64)
        for _ in range(3):
            slots = g.step_walk_slots(pos, rng)
            assert np.array_equal(g.slot_sources()[slots], pos)
            pos = g.csr_target[slots]


def _weighted_star() -> Graph:
    # Nine weights whose pairwise sum exceeds their last cumulative sum.
    rng = np.random.default_rng(1)
    for _ in range(5):
        weights = rng.random(9) + 0.01
    assert weights.sum() > np.cumsum(weights)[-1]
    return Graph(10, [(0, i) for i in range(1, 10)], weights=weights)


STEPPER_GRAPHS = {
    "regular": lambda: torus_graph(4, 4),
    "irregular": lambda: star_graph(6),
    "weighted": _weighted_star,
}


class TestPositionsMustBeNodes:
    """Every draw path rejects a position outside ``[0, n)``."""

    @pytest.mark.parametrize("kind", sorted(STEPPER_GRAPHS))
    def test_steppers_reject_non_nodes(self, kind):
        g = STEPPER_GRAPHS[kind]()
        for bad in (g.n, -1, -(g.n + 1)):
            with pytest.raises(GraphError, match="out of range"):
                g.step_walk_slots(np.array([0, bad]), make_rng(0))
            with pytest.raises(GraphError, match="out of range"):
                g.step_walks(np.array([bad]), make_rng(0))
            with pytest.raises(GraphError, match="out of range"):
                g.random_slot(bad, make_rng(0))
            with pytest.raises(GraphError, match="out of range"):
                g.random_neighbor(bad, make_rng(0))
            with pytest.raises(GraphError, match="out of range"):
                g.walk(bad, 3, make_rng(0))

    def test_empty_positions_draw_nothing(self):
        g = torus_graph(4, 4)
        rng = make_rng(0)
        before = rng.bit_generator.state
        assert g.step_walk_slots(np.empty(0, dtype=np.int64), rng).size == 0
        assert rng.bit_generator.state == before


class _TopDraw:
    """A generator stub whose uniform draw is the largest float below 1."""

    def random(self):
        return float(np.nextafter(1.0, 0.0))


class TestWeightedDrawStaysOnItsNode:
    def test_random_slot_clamps_to_the_last_slot(self):
        g = _weighted_star()
        last = int(g.indptr[1]) - 1
        assert g.random_slot(0, _TopDraw()) == last
        assert g.random_neighbor(0, _TopDraw()) == 9


class TestRegularDraw:
    """On a d-regular unweighted graph one scalar-bound draw replays the per-node draw."""

    REGULAR = {
        "cycle": lambda: cycle_graph(9),
        "torus": lambda: torus_graph(5, 6),
        # 3-regular multigraph with self-loops and a parallel pair.
        "multigraph": lambda: Graph(
            4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 3)]
        ),
    }

    @pytest.mark.parametrize("name", sorted(REGULAR))
    def test_matches_the_per_node_bound(self, name):
        g = self.REGULAR[name]()
        d = int(g.degrees[0])
        assert np.all(g.degrees == d) and not g.is_weighted
        positions = np.random.default_rng(7).integers(0, g.n, size=5001)
        rng, ref = make_rng(11), make_rng(11)
        for _ in range(3):
            slots = g.step_walk_slots(positions, rng)
            want = g.indptr[positions] + ref.integers(0, g.degrees[positions])
            assert np.array_equal(slots, want)
            assert rng.bit_generator.state == ref.bit_generator.state
            positions = g.csr_target[slots]

    def test_degree_bounds_follow_the_topology(self):
        from repro.dynamic.delta import GraphDelta

        g = torus_graph(4, 4)
        incident = g.edge_array[(g.edge_array == 5).any(axis=1)]
        g.apply_delta(GraphDelta(delete_edges=incident))  # crash-shaped: isolate node 5
        with pytest.raises(GraphError, match="isolated"):
            g.step_walk_slots(np.array([0, 5]), make_rng(0))
        others = np.array([v for v in range(g.n) if v != 5])
        rng, ref = make_rng(2), make_rng(2)
        slots = g.step_walk_slots(others, rng)
        assert np.array_equal(slots, g.indptr[others] + ref.integers(0, g.degrees[others]))

        g.apply_delta(GraphDelta(insert_edges=incident))  # recover: 4-regular again
        positions = np.arange(g.n)
        rng, ref = make_rng(4), make_rng(4)
        slots = g.step_walk_slots(positions, rng)
        assert np.array_equal(slots, 4 * positions + ref.integers(0, 4, size=g.n))
        assert np.array_equal(g.slot_sources()[slots], positions)
        assert rng.bit_generator.state == ref.bit_generator.state


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 9))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    return n, edges


class TestCsrOrder:
    @given(multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_slots_sort_by_source_then_edge_id(self, data):
        n, edges = data
        g = Graph(n, edges)
        arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
        eu, ev = arr[:, 0], arr[:, 1]
        non_loop = eu != ev
        eids = np.arange(len(arr), dtype=np.int64)
        src = np.concatenate([eu, ev[non_loop]])
        dst = np.concatenate([ev, eu[non_loop]])
        eid = np.concatenate([eids, eids[non_loop]])
        order = np.lexsort((eid, src))
        assert np.array_equal(g.slot_sources(), src[order])
        assert np.array_equal(g.csr_target, dst[order])
        assert np.array_equal(g.csr_edge, eid[order])

    @given(multigraphs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_weights_and_degrees_follow_the_directed_copies(self, data, seed):
        n, edges = data
        weights = np.random.default_rng(seed).random(len(edges)) + 0.5
        g = Graph(n, edges, weights=weights)
        arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
        non_loop = arr[:, 0] != arr[:, 1]
        src = np.concatenate([arr[:, 0], arr[:, 1][non_loop]])
        eid = np.concatenate([np.arange(len(arr)), np.flatnonzero(non_loop)])
        order = np.lexsort((eid, src))
        slot_weight = g.edge_weights()[g.csr_edge]
        assert np.array_equal(slot_weight, np.concatenate([weights, weights[non_loop]])[order])
        assert np.array_equal(g.degrees, np.bincount(src, minlength=n))
        assert np.array_equal(g.indptr, np.concatenate([[0], np.cumsum(g.degrees)]))
        # Summed in slot order, exactly as an unbuffered per-slot add would.
        by_slot = np.zeros(n)
        np.add.at(by_slot, src[order], slot_weight)
        assert np.array_equal(g.weighted_degrees, by_slot)


class _FloatDrawsOnly:
    """A generator stub with no ``integers``: only the weighted draw can use it."""

    def random(self, size=None):
        return 0.5 if size is None else np.full(size, 0.5)


class TestNearEqualWeights:
    """Weights that differ at all are sampled as weights, however close."""

    def test_a_relative_gap_of_nine_millionths_takes_the_weighted_draw(self):
        g = Graph(3, [(0, 1), (0, 2)], weights=[1.0, 1.000009])
        assert g.is_weighted
        # A draw at half the total weight, 1.0000045, lies past the first slot's 1.0.
        assert g.step_walk_slots(np.array([0]), _FloatDrawsOnly()).tolist() == [1]
        assert g.random_slot(0, _FloatDrawsOnly()) == 1
