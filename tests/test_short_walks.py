"""Tests for Phase 1 (perform_short_walks) — lengths, paths, congestion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import Network
from repro.errors import WalkError
from repro.graphs import cycle_graph, star_graph, torus_graph
from repro.markov import WalkSpectrum
from repro.util.rng import make_rng
from repro.util.stats import chi_square_goodness_of_fit
from repro.walks import WalkStore, perform_short_walks, token_counts


class TestTokenCounts:
    def test_degree_proportional(self):
        degrees = np.array([1, 3, 4])
        counts = token_counts(degrees, 1.0, degree_proportional=True)
        assert list(counts) == [1, 3, 4]

    def test_fractional_eta_rounds_up(self):
        degrees = np.array([4, 4])
        counts = token_counts(degrees, 0.3, degree_proportional=True)
        assert list(counts) == [2, 2]  # ceil(1.2)

    def test_uniform_mode(self):
        degrees = np.array([1, 3, 4])
        counts = token_counts(degrees, 2.0, degree_proportional=False)
        assert list(counts) == [2, 2, 2]

    def test_bad_eta(self):
        with pytest.raises(WalkError):
            token_counts(np.array([1]), 0.0, degree_proportional=True)


class TestPhase1:
    def test_store_receives_all_tokens(self):
        g = torus_graph(4, 4)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        counts = token_counts(g.degrees, 1.0, degree_proportional=True)
        perform_short_walks(net, store, 5, make_rng(1), counts=counts)
        assert store.tokens_created == int(counts.sum()) == 2 * g.m

    def test_lengths_in_range(self):
        g = torus_graph(4, 4)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        lam = 6
        perform_short_walks(
            net, store, lam, make_rng(2), counts=np.ones(g.n, dtype=np.int64) * 4
        )
        lengths = [rec.length for rec in store.iter_all()]
        assert min(lengths) >= lam and max(lengths) <= 2 * lam - 1

    def test_lengths_uniform_chi_square(self):
        g = cycle_graph(8)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        lam = 5
        perform_short_walks(
            net, store, lam, make_rng(3), counts=np.full(g.n, 500, dtype=np.int64)
        )
        lengths = [rec.length for rec in store.iter_all()]
        observed = {t: lengths.count(t) for t in range(lam, 2 * lam)}
        expected = {t: 1.0 / lam for t in range(lam, 2 * lam)}
        result = chi_square_goodness_of_fit(observed, expected)
        assert not result.rejects_at(1e-4)

    def test_fixed_length_mode(self):
        g = cycle_graph(8)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        perform_short_walks(
            net,
            store,
            7,
            make_rng(4),
            counts=np.ones(g.n, dtype=np.int64),
            randomized_lengths=False,
        )
        assert all(rec.length == 7 for rec in store.iter_all())

    def test_paths_are_genuine_walks(self):
        g = torus_graph(4, 4)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        perform_short_walks(
            net, store, 6, make_rng(5), counts=np.ones(g.n, dtype=np.int64) * 2
        )
        for rec in store.iter_all():
            assert rec.path is not None
            assert rec.path[0] == rec.source
            assert rec.path[-1] == rec.destination
            for a, b in zip(rec.path[:-1], rec.path[1:]):
                assert g.has_edge(int(a), int(b))

    def test_no_paths_when_disabled(self):
        g = cycle_graph(6)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        perform_short_walks(
            net,
            store,
            4,
            make_rng(6),
            counts=np.ones(g.n, dtype=np.int64),
            record_paths=False,
        )
        assert all(rec.path is None for rec in store.iter_all())

    def test_rounds_at_least_max_length(self):
        # Each iteration is >= 1 round, and there are max-length iterations.
        g = cycle_graph(12)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        lam = 8
        perform_short_walks(
            net, store, lam, make_rng(7), counts=np.ones(g.n, dtype=np.int64)
        )
        max_len = max(rec.length for rec in store.iter_all())
        assert net.ledger.phase_rounds("phase1") >= max_len

    def test_congestion_increases_rounds(self):
        # Many tokens from a single hub node must serialize on its edges.
        g = star_graph(5)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        counts = np.zeros(g.n, dtype=np.int64)
        counts[0] = 40  # hub launches 40 tokens over 4 edges
        perform_short_walks(net, store, 2, make_rng(8), counts=counts)
        # First iteration alone needs >= 40/4 = 10 rounds.
        assert net.ledger.phase_rounds("phase1") >= 10

    def test_destination_law_matches_markov(self):
        # Fixed-length tokens from one node must land per the exact P^t law.
        g = torus_graph(4, 4)
        t = 4
        spec = WalkSpectrum(g)
        expected_dist = spec.distribution(0, t)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        counts = np.zeros(g.n, dtype=np.int64)
        counts[0] = 4000
        perform_short_walks(
            net, store, t, make_rng(9), counts=counts, randomized_lengths=False
        )
        landed = [rec.destination for rec in store.iter_all()]
        observed = {v: landed.count(v) for v in set(landed)}
        expected = {v: float(expected_dist[v]) for v in range(g.n) if expected_dist[v] > 1e-12}
        result = chi_square_goodness_of_fit(observed, expected)
        assert not result.rejects_at(1e-4)

    def test_zero_counts_is_noop(self):
        g = cycle_graph(6)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        rounds = perform_short_walks(
            net, store, 4, make_rng(10), counts=np.zeros(g.n, dtype=np.int64)
        )
        assert rounds == 0 and store.tokens_created == 0

    def test_input_validation(self):
        g = cycle_graph(6)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        with pytest.raises(WalkError):
            perform_short_walks(net, store, 0, make_rng(0), counts=np.ones(g.n, dtype=np.int64))
        with pytest.raises(WalkError):
            perform_short_walks(net, store, 3, make_rng(0), counts=np.ones(3, dtype=np.int64))
        with pytest.raises(WalkError):
            perform_short_walks(net, store, 3, make_rng(0), counts=-np.ones(g.n, dtype=np.int64))
