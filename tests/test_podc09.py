"""Tests for the PODC'09 baseline — exactness and parameter behaviour."""

from __future__ import annotations

import pytest

from repro.congest import Network
from repro.errors import WalkError
from repro.graphs import complete_graph, hypercube_graph
from repro.markov import WalkSpectrum
from repro.util.stats import chi_square_goodness_of_fit
from repro.walks import podc09_params, podc09_random_walk, single_random_walk


class TestParams:
    def test_balancing_formulas(self):
        p = podc09_params(1000, 10)
        assert p.lam == round(1000 ** (1 / 3) * 10 ** (2 / 3))
        assert p.eta == pytest.approx((1000 / 10) ** (1 / 3))
        assert not p.degree_proportional
        assert not p.randomized_lengths

    def test_use_naive_when_lambda_large(self):
        p = podc09_params(5, 100)
        assert p.use_naive

    def test_validation(self):
        with pytest.raises(WalkError):
            podc09_params(0, 5)
        with pytest.raises(WalkError):
            podc09_params(10, 0)


class TestWalk:
    def test_valid_trajectory(self, torus_6x6):
        res = podc09_random_walk(torus_6x6, 0, 300, seed=1)
        assert res.mode == "podc09"
        res.verify_positions(torus_6x6)

    def test_fixed_segment_lengths(self, torus_6x6):
        res = podc09_random_walk(torus_6x6, 0, 300, seed=2)
        assert all(seg.length == res.lam for seg in res.segments)

    def test_endpoint_distribution_chi_square(self):
        g = complete_graph(6)
        length = 40
        dist = WalkSpectrum(g).distribution(0, length)
        endpoints = [
            podc09_random_walk(g, 0, length, seed=500 + i, record_paths=False).destination
            for i in range(500)
        ]
        observed = {v: endpoints.count(v) for v in set(endpoints)}
        expected = {v: float(dist[v]) for v in range(g.n) if dist[v] > 1e-12}
        assert not chi_square_goodness_of_fit(observed, expected).rejects_at(1e-4)

    def test_naive_fallback(self, torus_6x6):
        res = podc09_random_walk(torus_6x6, 0, 2, seed=3)
        assert res.mode == "naive"

    @pytest.mark.parametrize("report", [True, False])
    def test_naive_fallback_keeps_the_single_walk_contract(self, torus_6x6, report):
        # λ ≥ ℓ: the fallback runs on the caller's network, and its rounds
        # cover the setup BFS plus, exactly when asked, the report.
        net = Network(torus_6x6, seed=0)
        res = podc09_random_walk(torus_6x6, 0, 2, seed=3, network=net, report_to_source=report)
        assert res.mode == "naive"
        assert res.rounds == net.rounds
        assert ("report" in net.ledger.phases) == report
        ref = single_random_walk(torus_6x6, 0, 2, seed=3, report_to_source=report)
        assert (res.destination, res.rounds) == (ref.destination, ref.rounds)

    def test_deterministic(self, torus_6x6):
        a = podc09_random_walk(torus_6x6, 0, 200, seed=4)
        b = podc09_random_walk(torus_6x6, 0, 200, seed=4)
        assert a.destination == b.destination and a.rounds == b.rounds

    def test_validation(self, torus_6x6):
        with pytest.raises(WalkError):
            podc09_random_walk(torus_6x6, 0, 0, seed=0)
        with pytest.raises(WalkError):
            podc09_random_walk(torus_6x6, 77, 5, seed=0)


class TestComparativeScaling:
    def test_new_algorithm_wins_at_long_lengths(self):
        # Theorem 2.5's point: √(ℓD) beats ℓ^(2/3)D^(1/3) for large ℓ.
        from repro.walks import single_random_walk

        g = hypercube_graph(6)
        length = 8000
        new = single_random_walk(g, 0, length, seed=5, record_paths=False)
        old = podc09_random_walk(g, 0, length, seed=5, record_paths=False)
        assert new.rounds < old.rounds
