"""Tests for walk regeneration (§2.2, 'Regenerating the entire random walk')."""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import Network
from repro.errors import WalkError
from repro.graphs import complete_graph, hypercube_graph
from repro.markov import WalkSpectrum
from repro.util.stats import chi_square_goodness_of_fit
from repro.walks import (
    naive_random_walk,
    podc09_random_walk,
    positions_by_node,
    regenerate_walk,
    single_random_walk,
    trajectory_from_positions,
)


class TestPositionsByNode:
    def test_inversion(self):
        traj = np.array([3, 1, 3, 2])
        mapping = positions_by_node(traj)
        assert mapping == {3: [0, 2], 1: [1], 2: [3]}


class TestRegenerate:
    def test_mapping_matches_trajectory(self, torus_6x6):
        net = Network(torus_6x6, seed=1)
        res = single_random_walk(torus_6x6, 0, 300, seed=1, network=net)
        regen = regenerate_walk(net, res)
        # Every node's claimed positions point back at itself.
        for node, steps in regen.node_positions.items():
            for t in steps:
                assert res.positions[t] == node
        # And every step is claimed by exactly one node.
        total = sum(len(v) for v in regen.node_positions.values())
        assert total == res.length + 1

    def test_charges_rounds_for_stitched(self, torus_6x6):
        net = Network(torus_6x6, seed=2)
        res = single_random_walk(torus_6x6, 0, 300, seed=2, network=net)
        before = net.rounds
        regen = regenerate_walk(net, res)
        assert res.mode == "stitched"
        assert regen.rounds > 0
        assert net.rounds == before + regen.rounds
        assert regen.replayed_segments == len(res.segments)

    def test_cost_bounded_by_phase1(self):
        # "takes time at most the time taken in Phase 1" — with slack for
        # the connector-informing sweep (height + #segments).
        g = hypercube_graph(6)
        net = Network(g, seed=3)
        res = single_random_walk(g, 0, 3000, seed=3, network=net)
        phase1 = res.phase_rounds["phase1"]
        regen = regenerate_walk(net, res)
        slack = g.n + len(res.segments)
        assert regen.rounds <= phase1 + slack

    def test_podc09_walk_replays_its_segments(self, torus_8x8):
        # PODC'09 stitches fixed-length segments; regeneration used to treat
        # every mode but "stitched" as naive and replay none of them.
        net = Network(torus_8x8, seed=3)
        res = podc09_random_walk(torus_8x8, 0, 512, seed=3, network=net)
        assert res.mode == "podc09" and res.segments
        before = net.rounds
        regen = regenerate_walk(net, res)
        assert regen.rounds > 0
        assert net.rounds == before + regen.rounds
        assert regen.replayed_segments == len(res.segments)
        assert regen.informed_connectors == len(res.connectors)
        assert np.array_equal(
            trajectory_from_positions(regen.node_positions, res.length), res.positions
        )

    def test_naive_walk_is_free(self, torus_6x6):
        net = Network(torus_6x6, seed=4)
        res = naive_random_walk(torus_6x6, 0, 100, seed=4, network=net)
        regen = regenerate_walk(net, res)
        assert regen.rounds == 0
        assert sum(len(v) for v in regen.node_positions.values()) == 101

    def test_trajectory_reconstruction_roundtrip(self, torus_6x6):
        net = Network(torus_6x6, seed=6)
        res = single_random_walk(torus_6x6, 0, 250, seed=6, network=net)
        regen = regenerate_walk(net, res)
        rebuilt = trajectory_from_positions(regen.node_positions, res.length)
        assert np.array_equal(rebuilt, res.positions)

    def test_trajectory_reconstruction_rejects_inconsistent_claims(self):
        with pytest.raises(WalkError, match="claimed by nodes"):
            trajectory_from_positions({1: [0], 2: [0, 1]}, 1)
        with pytest.raises(WalkError, match="no node claims"):
            trajectory_from_positions({1: [0]}, 1)
        with pytest.raises(WalkError, match="out-of-range"):
            trajectory_from_positions({1: [5]}, 1)

    def test_regenerated_law_chi_square(self):
        # Exactness of regeneration *on its own*: sample many stitched
        # walks, regenerate each, and rebuild the walk purely from the
        # regenerated node-local knowledge.  The endpoint read off the
        # reconstruction (never the original trajectory) must follow the
        # exact P^l law — a wrong offset bookkeeping, a dropped segment,
        # or a mis-replayed hop would shift the reconstructed endpoint and
        # fail hard.
        g = complete_graph(6)
        length = 40
        dist = WalkSpectrum(g).distribution(0, length)
        endpoints = []
        for seed in range(300):
            net = Network(g, seed=seed)
            res = single_random_walk(g, 0, length, seed=seed, network=net)
            regen = regenerate_walk(net, res)
            rebuilt = trajectory_from_positions(regen.node_positions, length)
            endpoints.append(int(rebuilt[length]))
        observed = {v: endpoints.count(v) for v in set(endpoints)}
        expected = {v: float(dist[v]) for v in range(g.n) if dist[v] > 1e-12}
        assert not chi_square_goodness_of_fit(observed, expected).rejects_at(1e-4)

    def test_requires_recorded_paths(self, torus_6x6):
        net = Network(torus_6x6, seed=5)
        res = single_random_walk(torus_6x6, 0, 200, seed=5, network=net, record_paths=False)
        with pytest.raises(WalkError):
            regenerate_walk(net, res)
