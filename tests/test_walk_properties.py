"""Hypothesis property tests over the walk stack.

These generate random connected graphs and random parameters and assert
*structural invariants* that must hold for every input: trajectories are
genuine walks, stitched lengths are exact, stores never go negative,
ledgers are additive.  Statistical laws are covered by the seeded
chi-square tests elsewhere; here we hunt for crashing or contract-breaking
corner cases.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Network
from repro.graphs import Graph
from repro.util.rng import make_rng
from repro.walks import (
    WalkStore,
    get_more_walks,
    perform_short_walks,
    sample_destination,
    single_random_walk,
    token_counts,
)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(3, 16))
    base = [(i, i + 1) for i in range(n - 1)]
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(possible), max_size=10))
    return Graph(n, base + extra)


class TestSingleWalkInvariants:
    @given(connected_graphs(), st.integers(1, 120), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_trajectory_always_valid(self, g, length, seed):
        res = single_random_walk(g, 0, length, seed=seed)
        res.verify_positions(g)
        assert res.rounds > 0
        assert sum(res.phase_rounds.values()) == res.rounds

    @given(connected_graphs(), st.integers(20, 150), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_explicit_lambda_never_breaks_exact_length(self, g, length, lam, seed):
        res = single_random_walk(g, 0, length, seed=seed, lam=lam)
        assert res.positions is not None
        assert len(res.positions) == length + 1
        if res.mode == "stitched":
            for seg in res.segments:
                assert lam <= seg.length <= 2 * lam - 1


class TestSubroutineInvariants:
    @given(connected_graphs(), st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_phase1_token_conservation(self, g, lam, seed):
        net = Network(g, seed=seed)
        store = WalkStore(net.graph.n)
        counts = token_counts(g.degrees, 1.0, degree_proportional=True)
        perform_short_walks(net, store, lam, make_rng(seed), counts=counts)
        assert store.tokens_created == int(counts.sum())
        assert store.total_unused() == store.tokens_created

    @given(connected_graphs(), st.integers(1, 6), st.integers(1, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_get_more_walks_lengths_always_in_range(self, g, lam, count, seed):
        net = Network(g, seed=seed)
        store = WalkStore(net.graph.n)
        get_more_walks(net, store, 0, count, lam, make_rng(seed))
        lengths = [rec.length for rec in store.iter_all()]
        assert len(lengths) == count
        assert all(lam <= t <= 2 * lam - 1 for t in lengths)

    @given(connected_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sample_until_exhaustion_never_repeats(self, g, seed):
        net = Network(g, seed=seed)
        store = WalkStore(net.graph.n)
        get_more_walks(net, store, 0, 5, 2, make_rng(seed))
        rng = make_rng(seed + 1)
        seen = set()
        for _ in range(5):
            rec, _ = sample_destination(net, store, 0, rng)
            assert rec is not None
            assert rec.token_id not in seen
            seen.add(rec.token_id)
        rec, _ = sample_destination(net, store, 0, rng)
        assert rec is None
