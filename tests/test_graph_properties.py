"""Tests for centralized graph properties vs. networkx ground truth."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Network, build_bfs_tree
from repro.errors import GraphError
from repro.graphs import (
    Graph,
    bfs_distances,
    bfs_tree,
    connected_components,
    cycle_graph,
    diameter,
    eccentricity,
    grid_graph,
    is_bipartite,
    is_connected,
    path_graph,
    pseudo_diameter,
    random_regular_graph,
    shortest_path,
    star_graph,
)


def _flood_parents(g: Graph, root: int) -> list[int]:
    return build_bfs_tree(Network(g), root, use_protocol=True).parent.tolist()


class TestBfs:
    def test_distances_on_path(self):
        g = path_graph(6)
        assert list(bfs_distances(g, 0)) == [0, 1, 2, 3, 4, 5]

    def test_unreachable_marked(self):
        g = Graph(4, [(0, 1), (2, 3)])
        dist = bfs_distances(g, 0)
        assert dist[2] == -1 and dist[3] == -1

    def test_tree_parents_consistent(self):
        g = grid_graph(4, 4)
        parent, dist = bfs_tree(g, 0)
        assert parent[0] == 0
        for v in range(1, g.n):
            assert dist[v] == dist[parent[v]] + 1
            assert g.has_edge(v, int(parent[v]))

    def test_tree_parents_are_the_floods(self):
        # cycle_graph(6) from 1: node 4's neighbours 3 and 5 are both one
        # level closer, and the flood adopts the lower ID.
        assert bfs_tree(cycle_graph(6), 1)[0].tolist() == [1, 1, 1, 2, 3, 0]
        for seed in range(3):
            g = random_regular_graph(60, 3, seed)
            for root in range(g.n):
                assert bfs_tree(g, root)[0].tolist() == _flood_parents(g, root), (seed, root)

    def test_atlas_tree_parents_are_the_floods(self, atlas):
        for h, g in atlas:
            if nx.is_connected(h):
                assert bfs_tree(g, 0)[0].tolist() == _flood_parents(g, 0), g.name

    @pytest.mark.slow
    def test_atlas_tree_parents_are_the_floods_from_every_root(self, atlas):
        for h, g in atlas:
            if nx.is_connected(h):
                for root in range(g.n):
                    assert bfs_tree(g, root)[0].tolist() == _flood_parents(g, root), (g.name, root)

    def test_tree_deterministic(self):
        g = grid_graph(3, 3)
        p1, _ = bfs_tree(g, 4)
        p2, _ = bfs_tree(g, 4)
        assert np.array_equal(p1, p2)


class TestDiameter:
    def test_cycle(self):
        assert diameter(cycle_graph(9)) == 4

    def test_star(self):
        assert diameter(star_graph(20)) == 2

    def test_eccentricity_center_vs_leaf(self):
        g = path_graph(9)
        assert eccentricity(g, 4) == 4
        assert eccentricity(g, 0) == 8

    def test_eccentricity_disconnected_raises(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            eccentricity(g, 0)

    def test_pseudo_diameter_bounds(self):
        for g in (cycle_graph(11), grid_graph(4, 5), star_graph(8)):
            pd = pseudo_diameter(g)
            d = diameter(g)
            assert d / 2 <= pd <= d

    def test_pseudo_diameter_exact_on_tree(self):
        g = path_graph(13)
        assert pseudo_diameter(g) == 12


class TestConnectivity:
    def test_connected(self):
        assert is_connected(cycle_graph(5))

    def test_disconnected(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert connected_components(g) == [[0, 1], [2, 3], [4]]


class TestBipartite:
    def test_even_cycle(self):
        assert is_bipartite(cycle_graph(8))

    def test_odd_cycle(self):
        assert not is_bipartite(cycle_graph(7))

    def test_self_loop_breaks_bipartiteness(self):
        assert not is_bipartite(Graph(3, [(0, 1), (1, 2), (2, 2)]))

    def test_grid_bipartite(self):
        assert is_bipartite(grid_graph(3, 4))


class TestShortestPath:
    def test_path_found(self):
        g = cycle_graph(10)
        p = shortest_path(g, 0, 4)
        assert p[0] == 0 and p[-1] == 4 and len(p) == 5

    def test_no_path_raises(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            shortest_path(g, 0, 3)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(2, 14))
    base = [(i, i + 1) for i in range(n - 1)]
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(possible), max_size=14))
    return n, base + extra


class TestAgainstNetworkx:
    @given(connected_graphs())
    @settings(max_examples=50, deadline=None)
    def test_bfs_distances_match(self, data):
        n, edges = data
        g = Graph(n, edges)
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        lengths = nx.single_source_shortest_path_length(h, 0)
        mine = bfs_distances(g, 0)
        for v in range(n):
            assert mine[v] == lengths[v]

    def test_atlas_bfs_distances_from_every_root(self, atlas):
        for h, g in atlas:
            for root in range(g.n):
                want = np.full(g.n, -1)
                for v, d in nx.single_source_shortest_path_length(h, root).items():
                    want[v] = d
                np.testing.assert_array_equal(
                    bfs_distances(g, root), want, err_msg=f"{g.name} from {root}"
                )

    def test_atlas_connectivity(self, atlas):
        for h, g in atlas:
            assert is_connected(g) == nx.is_connected(h), g.name
            want = sorted(sorted(c) for c in nx.connected_components(h))
            assert connected_components(g) == want, g.name

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: Graph(20_000, []),
            lambda: Graph(20_000, [(2 * i + 1, 2 * i) for i in range(10_000)]),
        ],
        ids=["edgeless-20k", "disjoint-edges-10k"],
    )
    def test_many_components(self, factory):
        g = factory()
        want = sorted(sorted(c) for c in nx.connected_components(g.to_networkx()))
        assert connected_components(g) == want

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_multigraph_components(self, data):
        n, edges = data
        g = Graph(n, edges)
        want = sorted(sorted(c) for c in nx.connected_components(g.to_networkx()))
        assert connected_components(g) == want

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_diameter_matches(self, data):
        n, edges = data
        g = Graph(n, edges)
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        assert diameter(g) == nx.diameter(h)

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_bipartite_matches(self, data):
        n, edges = data
        if any(u == v for u, v in edges):
            return  # networkx bipartite check differs on self-loops
        g = Graph(n, edges)
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        assert is_bipartite(g) == nx.is_bipartite(h)
