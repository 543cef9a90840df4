"""Tests for BFS/convergecast/broadcast primitives.

The key guarantees: (a) the distributed BFS tree matches centralized BFS
distances and completes in ecc(root) rounds; (b) the charged fast paths
agree with the event-driven protocol versions in both result and cost.
"""

from __future__ import annotations

import gc
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro.congest import (
    BroadcastProtocol,
    ConvergecastProtocol,
    Network,
    build_bfs_tree,
    charged_broadcast,
    charged_convergecast,
)
from repro.errors import ProtocolError
from repro.graphs import (
    Graph,
    cycle_graph,
    eccentricity,
    grid_graph,
    path_graph,
    star_graph,
    torus_graph,
)
from repro.graphs.graph import pair_keys


class TestBfsFlood:
    @pytest.mark.parametrize("factory,root", [
        (lambda: path_graph(9), 0),
        (lambda: path_graph(9), 4),
        (lambda: cycle_graph(10), 3),
        (lambda: grid_graph(4, 5), 7),
        (lambda: star_graph(8), 0),
        (lambda: star_graph(8), 3),
    ])
    def test_depths_match_centralized_bfs(self, factory, root):
        g = factory()
        net = Network(g)
        tree = build_bfs_tree(net, root)
        lengths = nx.single_source_shortest_path_length(g.to_networkx(), root)
        assert tree.depth.tolist() == [lengths[v] for v in range(g.n)]

    def test_rounds_equal_eccentricity(self):
        g = grid_graph(5, 5)
        net = Network(g)
        before = net.rounds
        tree = build_bfs_tree(net, 0)
        ecc = eccentricity(g, 0)
        # The deepest nodes cannot know they are last and still forward one
        # wave of redundant explores, so the flood may take one extra round.
        assert ecc <= net.rounds - before <= ecc + 1
        assert tree.height == ecc

    def test_parent_edges_exist(self):
        g = torus_graph(4, 4)
        net = Network(g)
        tree = build_bfs_tree(net, 5)
        for v in range(g.n):
            if v != 5:
                assert g.has_edge(v, tree.parent[v])
                assert tree.depth[v] == tree.depth[tree.parent[v]] + 1

    def test_children_are_inverse_of_parent(self):
        g = grid_graph(3, 4)
        net = Network(g)
        tree = build_bfs_tree(net, 0)
        for v in range(g.n):
            for c in tree.children[v]:
                assert tree.parent[c] == v

    def test_path_to_root(self):
        g = path_graph(6)
        net = Network(g)
        tree = build_bfs_tree(net, 0)
        assert tree.path_to_root(5) == [5, 4, 3, 2, 1, 0]

    def test_disconnected_raises(self):
        g = Graph(4, [(0, 1), (2, 3)])
        net = Network(g)
        with pytest.raises(ProtocolError):
            build_bfs_tree(net, 0)

    def test_cache_charges_identical_cost(self):
        g = grid_graph(4, 4)
        cache: dict = {}
        net = Network(g)
        build_bfs_tree(net, 0, cache=cache)
        first_rounds = net.rounds
        first_messages = net.messages_sent
        build_bfs_tree(net, 0, cache=cache)
        assert net.rounds == 2 * first_rounds
        assert net.messages_sent == 2 * first_messages

    def test_cache_returns_same_tree(self):
        g = grid_graph(4, 4)
        cache: dict = {}
        net = Network(g)
        t1 = build_bfs_tree(net, 0, cache=cache)
        t2 = build_bfs_tree(net, 0, cache=cache)
        assert t1 is t2

    def test_slots_are_the_pair_lookup_cached_per_topology(self):
        # A parallel edge: each pair's slot is its first CSR slot.
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 2)])
        net = Network(g)
        tree = build_bfs_tree(net, 0)
        slots = tree.slots(net)
        nodes = np.arange(g.n)
        parent = np.asarray(tree.parent)
        np.testing.assert_array_equal(slots.up, g.pair_slots(pair_keys(nodes, parent, g.n)))
        np.testing.assert_array_equal(slots.down, g.pair_slots(pair_keys(parent, nodes, g.n)))
        # The flood: one explore per directed pair but each child → parent.
        sent = sorted(
            int(g.pair_slots(pair_keys(u, v, g.n)))
            for u in range(g.n)
            for v in g.neighbor_set(u)
            if u == tree.root or v != tree.parent[u]
        )
        assert np.flatnonzero(slots.flood).tolist() == sent
        assert int(slots.flood.sum()) == tree.build_messages
        assert tree.slots(net) is slots
        net.refresh_topology()
        assert tree.slots(net) is not slots


class TestConvergecast:
    def _sum_convergecast(self, g, root, values):
        net = Network(g)
        tree = build_bfs_tree(net, root)
        proto = ConvergecastProtocol(tree, list(values), lambda a, b: a + b)
        rounds = net.run(proto)
        return proto.result, rounds, tree

    def test_sum_over_grid(self):
        g = grid_graph(4, 4)
        values = list(range(g.n))
        result, rounds, tree = self._sum_convergecast(g, 0, values)
        assert result == sum(values)
        assert rounds == tree.height

    def test_max_over_star(self):
        g = star_graph(9)
        net = Network(g)
        tree = build_bfs_tree(net, 0)
        proto = ConvergecastProtocol(tree, list(range(9)), max)
        net.run(proto)
        assert proto.result == 8

    def test_charged_matches_protocol_result_and_rounds(self):
        g = grid_graph(4, 5)
        values = [v * v for v in range(g.n)]

        net_proto = Network(g)
        tree_p = build_bfs_tree(net_proto, 3)
        proto = ConvergecastProtocol(tree_p, list(values), lambda a, b: a + b)
        proto_rounds = net_proto.run(proto)

        net_fast = Network(g)
        tree_f = build_bfs_tree(net_fast, 3)
        before = net_fast.rounds
        fast_result = charged_convergecast(net_fast, tree_f, list(values), lambda a, b: a + b)
        fast_rounds = net_fast.rounds - before

        assert fast_result == proto.result
        assert fast_rounds == proto_rounds

    def test_single_node_graph(self):
        g = Graph(1, [])
        net = Network(g)
        tree = build_bfs_tree(net, 0)
        proto = ConvergecastProtocol(tree, [42], lambda a, b: a + b)
        net.run(proto)
        assert proto.result == 42

    def test_word_cap_enforced(self):
        g = path_graph(4)
        net = Network(g, max_words=2)
        tree = build_bfs_tree(net, 0)
        with pytest.raises(ProtocolError):
            charged_convergecast(net, tree, [0] * 4, lambda a, b: a + b, words=3)


class TestBroadcast:
    def test_reaches_everyone_in_height_rounds(self):
        g = grid_graph(4, 4)
        net = Network(g)
        tree = build_bfs_tree(net, 0)
        proto = BroadcastProtocol(tree, "payload")
        rounds = net.run(proto)
        assert proto.received == set(range(g.n))
        assert rounds == tree.height

    def test_charged_matches_protocol_cost(self):
        g = torus_graph(4, 4)

        net_p = Network(g)
        tree_p = build_bfs_tree(net_p, 0)
        rounds_p = net_p.run(BroadcastProtocol(tree_p, "x"))
        messages_p = net_p.messages_sent - tree_p.build_messages

        net_f = Network(g)
        tree_f = build_bfs_tree(net_f, 0)
        before_r, before_m = net_f.rounds, net_f.messages_sent
        charged_broadcast(net_f, tree_f)
        assert net_f.rounds - before_r == rounds_p
        assert net_f.messages_sent - before_m == messages_p

    def test_word_cap(self):
        g = path_graph(3)
        net = Network(g, max_words=1)
        tree = build_bfs_tree(net, 0)
        with pytest.raises(ProtocolError):
            charged_broadcast(net, tree, words=4)


def _assert_tree_and_ledger_identical(g: Graph, root: int) -> None:
    net_p = Network(g)
    tree_p = build_bfs_tree(net_p, root, use_protocol=True)

    net_f = Network(g)
    tree_f = build_bfs_tree(net_f, root)

    # Identical BfsTree: parent ties broken lowest-ID, same depths,
    # same children ordering.
    where = f"{g.name} from {root}"
    assert np.array_equal(tree_f.parent, tree_p.parent), where
    assert np.array_equal(tree_f.depth, tree_p.depth), where
    assert tree_f.children == tree_p.children, where
    assert tree_f.root == tree_p.root

    # Identical ledger charges.
    assert net_f.rounds == net_p.rounds, where
    assert net_f.messages_sent == net_p.messages_sent, where
    assert net_f.ledger.max_congestion == net_p.ledger.max_congestion, where
    assert tree_f.build_rounds == tree_p.build_rounds, where
    assert tree_f.build_messages == tree_p.build_messages, where


class TestBfsFastPathEquivalence:
    """The charged vectorized BFS must be indistinguishable — tree and
    ledger — from a message-by-message :class:`BfsFloodProtocol` run,
    on the hand-built zoo and on every connected graph of networkx's atlas."""

    ZOO = [
        ("path9", lambda: path_graph(9), [0, 4, 8]),
        ("cycle10", lambda: cycle_graph(10), [0, 3]),
        ("grid4x5", lambda: grid_graph(4, 5), [0, 7, 19]),
        ("star8", lambda: star_graph(8), [0, 3]),
        ("torus4x4", lambda: torus_graph(4, 4), [5]),
        (
            "multigraph",
            lambda: Graph(5, [(0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 4), (0, 4), (4, 4), (1, 3)]),
            [0, 2, 4],
        ),
        (
            "loops-and-parallel",
            lambda: Graph(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 0)]),
            [0, 1, 2],
        ),
        ("single-node", lambda: Graph(1, []), [0]),
        ("single-edge", lambda: Graph(2, [(0, 1)]), [0, 1]),
    ]

    @pytest.mark.parametrize(
        "factory,root",
        [(factory, root) for _name, factory, roots in ZOO for root in roots],
        ids=[f"{name}-r{root}" for name, _f, roots in ZOO for root in roots],
    )
    def test_tree_and_ledger_identical(self, factory, root):
        _assert_tree_and_ledger_identical(factory(), root)

    def test_atlas_from_root_zero(self, atlas):
        for h, g in atlas:
            if nx.is_connected(h):
                _assert_tree_and_ledger_identical(g, 0)

    @pytest.mark.slow
    def test_atlas_from_every_root(self, atlas):
        for h, g in atlas:
            if nx.is_connected(h):
                for root in range(g.n):
                    _assert_tree_and_ledger_identical(g, root)

    def test_fast_path_disconnected_raises_like_protocol(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ProtocolError):
            build_bfs_tree(Network(g), 0)
        with pytest.raises(ProtocolError):
            build_bfs_tree(Network(g), 0, use_protocol=True)

    def test_fast_path_populates_cache_with_exact_cost(self):
        g = grid_graph(4, 4)
        cache: dict = {}
        net = Network(g)
        build_bfs_tree(net, 0, cache=cache)
        first_rounds, first_messages = net.rounds, net.messages_sent
        build_bfs_tree(net, 0, cache=cache)
        assert net.rounds == 2 * first_rounds
        assert net.messages_sent == 2 * first_messages

    def test_downstream_sweeps_agree_across_paths(self):
        """A convergecast over the fast-path tree costs the same as over
        the protocol-built tree (the trees are identical objects)."""
        g = torus_graph(4, 4)
        values = [v * 2 for v in range(g.n)]

        net_p = Network(g)
        tree_p = build_bfs_tree(net_p, 3, use_protocol=True)
        res_p = charged_convergecast(net_p, tree_p, list(values), lambda a, b: a + b)

        net_f = Network(g)
        tree_f = build_bfs_tree(net_f, 3)
        res_f = charged_convergecast(net_f, tree_f, list(values), lambda a, b: a + b)

        assert res_f == res_p
        assert net_f.rounds == net_p.rounds
        assert net_f.messages_sent == net_p.messages_sent


class TestChildListsOnDemand:
    """A built tree carries ``parent`` and ``depth``; child lists wait for a reader."""

    def test_built_tree_retains_int32_arrays_only(self):
        # int32 parent and depth arrays: 8 bytes a node, plus small overheads.
        g = torus_graph(100, 100)
        net = Network(g)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tree = build_bfs_tree(net, 0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert "children" not in vars(tree)
        assert tree.parent.dtype == np.int32 and tree.depth.dtype == np.int32
        assert retained / g.n < 24

    def test_deepest_first_order_is_cached_and_sorted(self):
        # Ties at every depth, and node 6 is unreached (depth -1).
        g = Graph(7, [(0, 4), (4, 1), (0, 2), (2, 5), (1, 3), (5, 3), (4, 5)])
        tree = build_bfs_tree(Network(g), 0, allow_unreached=True)
        want = sorted(range(g.n), key=lambda v: -int(tree.depth[v]))
        assert tree.nodes_by_depth_desc().tolist() == want
        assert want[-1] == 6
        assert tree.nodes_by_depth_desc() is tree.nodes_by_depth_desc()

    def test_protocol_tree_builds_no_child_lists(self):
        tree = build_bfs_tree(Network(grid_graph(3, 4)), 5, use_protocol=True)
        assert "children" not in vars(tree)
        assert tree.children[5] == sorted(tree.children[5])

    def test_children_group_reached_nodes_only(self):
        # Node 6 is isolated, so it stays unreached (depth -1, parent = root).
        g = Graph(7, [(0, 4), (4, 1), (0, 2), (2, 5), (1, 3), (5, 3), (4, 5)])
        tree = build_bfs_tree(Network(g), 0, allow_unreached=True)
        assert tree.depth[6] == -1 and tree.parent[6] == 0
        want: list[list[int]] = [[] for _ in range(g.n)]
        for v in range(g.n):
            if v != tree.root and tree.depth[v] >= 0:
                want[tree.parent[v]].append(v)
        assert tree.children == want
        assert all(kids == sorted(kids) for kids in tree.children)
        assert 6 not in {v for kids in tree.children for v in kids}
        assert tree.children is tree.children  # derived once, then cached
