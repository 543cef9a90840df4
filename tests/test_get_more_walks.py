"""Tests for GET-MORE-WALKS — reservoir lengths (Lemma 2.4), O(λ) rounds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import Network
from repro.errors import WalkError
from repro.graphs import cycle_graph, star_graph, torus_graph
from repro.markov import WalkSpectrum
from repro.util.rng import make_rng
from repro.util.stats import chi_square_goodness_of_fit
from repro.walks import WalkStore, get_more_walks
from repro.walks.get_more_walks import get_more_walks_batch


class TestReservoirLengths:
    def test_lengths_in_range(self):
        g = torus_graph(4, 4)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        lam = 6
        get_more_walks(net, store, 3, 200, lam, make_rng(1))
        lengths = [rec.length for rec in store.iter_all()]
        assert min(lengths) >= lam and max(lengths) <= 2 * lam - 1

    def test_lengths_uniform_chi_square(self):
        # Lemma 2.4: reservoir stopping gives exactly uniform [λ, 2λ-1].
        g = cycle_graph(8)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        lam = 5
        get_more_walks(net, store, 0, 6000, lam, make_rng(2))
        lengths = [rec.length for rec in store.iter_all()]
        observed = {t: lengths.count(t) for t in range(lam, 2 * lam)}
        result = chi_square_goodness_of_fit(observed, {t: 1 / lam for t in range(lam, 2 * lam)})
        assert not result.rejects_at(1e-4)

    def test_fixed_mode_lengths(self):
        g = cycle_graph(8)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        get_more_walks(net, store, 0, 50, 7, make_rng(3), randomized_lengths=False)
        assert all(rec.length == 7 for rec in store.iter_all())


class TestCost:
    def test_rounds_linear_in_lambda_despite_many_walks(self):
        # Count aggregation: 500 tokens from one node, still O(λ) rounds.
        g = star_graph(6)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        lam = 10
        rounds = get_more_walks(net, store, 0, 500, lam, make_rng(4))
        assert rounds <= 2 * lam  # λ prefix + at most λ-1 extension steps

    def test_congestion_is_one(self):
        g = star_graph(6)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        get_more_walks(net, store, 0, 300, 8, make_rng(5))
        assert net.ledger.max_congestion == 1

    def test_fixed_mode_rounds_exactly_lambda(self):
        g = cycle_graph(10)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        rounds = get_more_walks(net, store, 0, 50, 9, make_rng(6), randomized_lengths=False)
        assert rounds == 9


class TestCorrectness:
    def test_paths_valid_and_end_at_destination(self):
        g = torus_graph(4, 4)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        get_more_walks(net, store, 5, 100, 6, make_rng(7))
        for rec in store.iter_all():
            assert rec.source == 5
            assert rec.path is not None
            assert rec.path[0] == 5
            assert rec.path[-1] == rec.destination
            assert len(rec.path) == rec.length + 1
            for a, b in zip(rec.path[:-1], rec.path[1:]):
                assert g.has_edge(int(a), int(b))

    def test_destination_law_conditional_on_length(self):
        # Among walks of realized length t, endpoints follow P^t exactly.
        g = torus_graph(4, 4)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        lam = 3
        get_more_walks(net, store, 0, 9000, lam, make_rng(8))
        spec = WalkSpectrum(g)
        t = 4  # a mid-range realized length
        landed = [rec.destination for rec in store.iter_all() if rec.length == t]
        assert len(landed) > 1500
        dist = spec.distribution(0, t)
        observed = {v: landed.count(v) for v in set(landed)}
        expected = {v: float(dist[v]) for v in range(g.n) if dist[v] > 1e-12}
        result = chi_square_goodness_of_fit(observed, expected)
        assert not result.rejects_at(1e-4)

    def test_no_paths_mode(self):
        g = cycle_graph(6)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        get_more_walks(net, store, 0, 10, 4, make_rng(9), record_paths=False)
        assert all(rec.path is None for rec in store.iter_all())

    def test_validation(self):
        g = cycle_graph(6)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        with pytest.raises(WalkError):
            get_more_walks(net, store, 0, 0, 4, make_rng(0))
        with pytest.raises(WalkError):
            get_more_walks(net, store, 0, 5, 0, make_rng(0))

    @pytest.mark.parametrize("source", [6, -1])
    def test_non_node_source_rejected_before_billing(self, source):
        net = Network(cycle_graph(6), seed=0)
        store = WalkStore(net.graph.n)
        with pytest.raises(WalkError, match="sources must be nodes"):
            get_more_walks(net, store, source, 3, 4, make_rng(0))
        with pytest.raises(WalkError, match="sources must be nodes"):
            get_more_walks_batch(
                net, store, np.array([0, source]), np.array([2, 3]), 4, make_rng(0)
            )
        assert net.rounds == 0
        assert "get-more-walks" not in net.ledger.phases
        assert store.total_unused() == 0

    def test_lambda_one(self):
        g = cycle_graph(6)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        get_more_walks(net, store, 0, 20, 1, make_rng(10))
        assert all(rec.length == 1 for rec in store.iter_all())


class CountingRng:
    """A generator that counts the uniforms its ``random`` hands out."""

    def __init__(self, seed: int) -> None:
        self._rng = make_rng(seed)
        self.uniforms = 0

    def random(self, size=None):
        self.uniforms += 1 if size is None else int(np.prod(size))
        return self._rng.random(size)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


class TestReservoirDraws:
    def test_extension_draws_only_for_live_tokens(self):
        # On an unweighted graph the steps draw integers, so every uniform
        # is a stop draw.  A token of length lam + j walks extension steps
        # 0 … j, so it draws j + 1 uniforms.
        g = torus_graph(4, 4)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        lam = 6
        rng = CountingRng(8)
        get_more_walks_batch(net, store, np.array([0, 5, 9]), np.array([40, 25, 60]), lam, rng)
        lengths = np.array([rec.length for rec in store.iter_all()])
        assert rng.uniforms == int((lengths - lam + 1).sum())
