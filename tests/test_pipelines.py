"""Tests for the pipelined upcast primitive (height + k − 1 rounds)."""

from __future__ import annotations

import pytest

from repro.congest import Network, build_bfs_tree, pipelined_upcast
from repro.congest.primitives import charge_tree_funnel
from repro.errors import ProtocolError
from repro.graphs import (
    barbell_graph,
    binary_tree_graph,
    grid_graph,
    path_graph,
    star_graph,
    torus_graph,
)


def _setup(graph, root=0):
    net = Network(graph)
    tree = build_bfs_tree(net, root)
    return net, tree


class TestCorrectness:
    def test_collects_every_item(self):
        g = grid_graph(4, 4)
        net, tree = _setup(g)
        items = [[f"item-{v}-{j}" for j in range(v % 3)] for v in range(g.n)]
        collected, _rounds = pipelined_upcast(net, tree, items)
        expected = sorted(x for sub in items for x in sub)
        assert sorted(collected) == expected

    def test_root_items_included_for_free(self):
        g = star_graph(5)
        net, tree = _setup(g)
        items = [["root-own"], [], [], [], []]
        collected, rounds = pipelined_upcast(net, tree, items)
        assert collected == ["root-own"]
        assert rounds == 0  # nothing to move

    def test_empty_everything(self):
        g = path_graph(4)
        net, tree = _setup(g)
        collected, rounds = pipelined_upcast(net, tree, [[] for _ in range(4)])
        assert collected == [] and rounds == 0

    def test_item_count_validation(self):
        g = path_graph(3)
        net, tree = _setup(g)
        with pytest.raises(ProtocolError):
            pipelined_upcast(net, tree, [[1], [2]])


class TestPipeliningBound:
    def test_height_plus_k_on_path(self):
        # k items at the far end of a path: depth + k - 1 rounds.
        n, k = 10, 6
        g = path_graph(n)
        net, tree = _setup(g, root=0)
        items = [[] for _ in range(n)]
        items[n - 1] = list(range(k))
        _collected, rounds = pipelined_upcast(net, tree, items)
        assert rounds == (n - 1) + k - 1

    def test_height_plus_k_spread_items(self):
        # Items spread across a deep tree: still <= height + k - 1.
        g = binary_tree_graph(4)
        net, tree = _setup(g, root=0)
        items = [[v] if v % 2 == 1 else [] for v in range(g.n)]
        k = sum(len(x) for x in items)
        _collected, rounds = pipelined_upcast(net, tree, items)
        assert rounds <= tree.height + k - 1

    def test_star_is_pure_serialization(self):
        # All leaves at depth 1: the root edge... every leaf has its own
        # edge, so k items on k distinct leaves take just 1 round.
        g = star_graph(9)
        net, tree = _setup(g, root=0)
        items = [[] for _ in range(g.n)]
        for v in range(1, g.n):
            items[v] = [v]
        _collected, rounds = pipelined_upcast(net, tree, items)
        assert rounds == 1

    def test_single_leaf_with_many_items_serializes(self):
        g = star_graph(9)
        net, tree = _setup(g, root=0)
        items = [[] for _ in range(g.n)]
        items[3] = list(range(7))
        _collected, rounds = pipelined_upcast(net, tree, items)
        assert rounds == 7  # one edge, one item per round

    def test_validates_charge_formula_used_elsewhere(self):
        # MANY-RANDOM-WALKS charges height + k for k reports; the protocol
        # must never exceed that.
        g = grid_graph(5, 5)
        net, tree = _setup(g, root=0)
        for k in (1, 4, 9):
            items = [[] for _ in range(g.n)]
            for j in range(k):
                items[g.n - 1 - j] = [j]
            fresh_net = Network(g)
            fresh_tree = build_bfs_tree(fresh_net, 0)
            _collected, rounds = pipelined_upcast(fresh_net, fresh_tree, items)
            assert rounds <= fresh_tree.height + k, (k, rounds)


class TestReportFunnelEquivalence:
    """``charge_tree_funnel`` — what every report convergecast bills — against the protocol."""

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize(
        "graph",
        [torus_graph(8, 8), path_graph(12), barbell_graph(6, 3)],
        ids=["torus-8x8", "path-12", "barbell-6-3"],
    )
    def test_report_funnel_matches_pipelined_upcast(self, graph, k):
        # k reports at one deepest node: the upcast's worst case on a tree.
        net, tree = _setup(graph)
        deepest = max(range(graph.n), key=tree.depth.__getitem__)
        items = [[] for _ in range(graph.n)]
        items[deepest] = list(range(k))
        _collected, rounds = pipelined_upcast(Network(graph), tree, items)
        assert rounds == tree.height + k - 1
        # A cohort's merged wave bills exactly the protocol's rounds; a lone
        # request's report bills one round more (see ROADMAP item 4).
        assert charge_tree_funnel(net, tree, k, merged=True) == rounds
        assert charge_tree_funnel(net, tree, k) == rounds + 1
