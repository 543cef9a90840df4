"""Tests for SAMPLE-DESTINATION — uniformity (Lemma A.2) and O(D) cost."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.congest import Network
from repro.engine import WalkEngine
from repro.graphs import eccentricity, grid_graph, path_graph, torus_graph
from repro.obs import HeatmapSink
from repro.util.rng import make_rng
from repro.util.stats import chi_square_goodness_of_fit
from repro.walks import TokenRecord, WalkStore, sample_destination
from repro.walks.sample_destination import make_sample_combine, sample_destination_protocol
from repro.walks.short_walks import perform_short_walks


def seeded_store(n: int, layout: dict[int, int], source: int = 0) -> WalkStore:
    """Store over ``n`` nodes with ``layout[holder] = count`` tokens of ``source``.

    One add, holders in ``layout`` order: token ``i`` (row ``i``) is the
    ``i``-th of that sequence.
    """
    holders = np.repeat(list(layout), list(layout.values()))
    store = WalkStore(n)
    store.add_batch(np.full(holders.size, source), np.full(holders.size, 3), holders)
    return store


def phase1_store(graph) -> WalkStore:
    """Phase 1 on ``graph``, four tokens per node, billed to a throwaway network."""
    store = WalkStore(graph.n)
    perform_short_walks(Network(graph, seed=0), store, 3, make_rng(5), counts=np.full(graph.n, 4))
    return store


#: name -> (graph, store of source 0).
BILL_CASES = {
    "grid3x3-4:2,7:1": (lambda: grid_graph(3, 3), lambda g: seeded_store(g.n, {4: 2, 7: 1})),
    "grid3x3-8:3,4:1": (lambda: grid_graph(3, 3), lambda g: seeded_store(g.n, {8: 3, 4: 1})),
    "grid3x3-1:1,5:1": (lambda: grid_graph(3, 3), lambda g: seeded_store(g.n, {1: 1, 5: 1})),
    "grid3x3-5:1": (lambda: grid_graph(3, 3), lambda g: seeded_store(g.n, {5: 1})),
    "grid3x3-empty": (lambda: grid_graph(3, 3), lambda g: WalkStore(g.n)),
    "path5-2:2,4:1": (lambda: path_graph(5), lambda g: seeded_store(g.n, {2: 2, 4: 1})),
    "torus4x4-6:1": (lambda: torus_graph(4, 4), lambda g: seeded_store(g.n, {6: 1})),
    "grid4x4-3:5": (lambda: grid_graph(4, 4), lambda g: seeded_store(g.n, {3: 5})),
    "grid4x5-7:2,13:1,19:3": (
        lambda: grid_graph(4, 5),
        lambda g: seeded_store(g.n, {7: 2, 13: 1, 19: 3}),
    ),
    "torus6x6-phase1": (lambda: torus_graph(6, 6), phase1_store),
}

#: One call's bill: rounds, messages, max congestion, and a digest of the
#: per-slot message counts the heatmap staged.  The bill depends on the
#: source's holder set, not on which of its tokens is drawn.
BILLS = {
    "grid3x3-4:2,7:1": (13, 27, 1, "f23800b0b870ca62"),
    "grid3x3-8:3,4:1": (13, 29, 1, "13871c80b580aa23"),
    "grid3x3-1:1,5:1": (13, 27, 1, "8d04b77c2a6934af"),
    "grid3x3-5:1": (13, 27, 1, "8d04b77c2a6934af"),
    "grid3x3-empty": (9, 16, 1, "a740987047f1508a"),
    "path5-2:2,4:1": (12, 12, 1, "cc0b691e2d632efd"),
    "torus4x4-6:1": (13, 67, 1, "b77c0ca6aeec1872"),
    "grid4x4-3:5": (19, 51, 1, "c3f2be4051cb681f"),
    "grid4x5-7:2,13:1,19:3": (22, 72, 1, "f39a55d017880624"),
    "torus6x6-phase1": (19, 151, 1, "2354ea06209f910a"),
}


def observed_bill(name: str) -> tuple[int, int, int, str]:
    """Run one ``sample_destination`` call of :data:`BILL_CASES` with a heatmap attached."""
    factory, fill = BILL_CASES[name]
    graph = factory()
    store = fill(graph)
    engine = WalkEngine(graph, seed=0)
    heatmap = HeatmapSink()
    engine.attach_observability(heatmap=heatmap)
    net = engine.network
    sample_destination(net, store, 0, make_rng(1))
    slots = np.ascontiguousarray(heatmap.slot_totals(), dtype="<i8").tobytes()
    digest = hashlib.sha256(slots).hexdigest()[:16]
    return net.ledger.rounds, net.ledger.messages, net.ledger.max_congestion, digest


class TestSampling:
    def test_returns_existing_token_and_removes_it(self):
        g = grid_graph(3, 3)
        store = seeded_store(g.n, {4: 2, 7: 1})
        net = Network(g, seed=0)
        record, tree = sample_destination(net, store, 0, make_rng(1))
        assert record is not None
        assert record.source == 0
        assert store.count_for_source(0) == 2
        assert tree.root == 0

    def test_none_when_empty(self):
        g = grid_graph(3, 3)
        net = Network(g, seed=0)
        record, _tree = sample_destination(net, WalkStore(g.n), 0, make_rng(1))
        assert record is None

    def test_uniform_over_tokens_chi_square(self):
        # 3 tokens at node 8, 1 at node 4: holder 8 should win 75% of draws.
        g = grid_graph(3, 3)
        rng = make_rng(42)
        draws = []
        for _ in range(2000):
            store = seeded_store(g.n, {8: 3, 4: 1})
            net = Network(g, seed=0)
            record, _ = sample_destination(net, store, 0, rng)
            draws.append(record.destination)
        observed = {8: draws.count(8), 4: draws.count(4)}
        result = chi_square_goodness_of_fit(observed, {8: 0.75, 4: 0.25})
        assert not result.rejects_at(1e-4)

    def test_uniform_over_token_ids(self):
        # Every individual token equally likely, not just every holder.
        g = path_graph(5)
        rng = make_rng(7)
        counts: dict[int, int] = {}
        for _ in range(3000):
            store = seeded_store(g.n, {2: 2, 4: 1})
            net = Network(g, seed=0)
            record, _ = sample_destination(net, store, 0, rng)
            counts[record.token_id] = counts.get(record.token_id, 0) + 1
        result = chi_square_goodness_of_fit(counts, {tid: 1 / 3 for tid in counts})
        assert not result.rejects_at(1e-4)

    def test_successive_samples_exhaust_store(self):
        g = grid_graph(3, 3)
        store = seeded_store(g.n, {1: 1, 5: 1})
        net = Network(g, seed=0)
        rng = make_rng(3)
        first, _ = sample_destination(net, store, 0, rng)
        second, _ = sample_destination(net, store, 0, rng)
        third, _ = sample_destination(net, store, 0, rng)
        assert {first.token_id, second.token_id} == {0, 1}
        assert third is None


class TestRounds:
    def test_cost_is_three_sweeps(self):
        g = torus_graph(4, 4)
        store = seeded_store(g.n, {6: 1})
        net = Network(g, seed=0)
        before = net.rounds
        sample_destination(net, store, 0, make_rng(1))
        ecc = eccentricity(g, 0)
        # Sweep 1 (flood, <= ecc+1) + sweep 2 (ecc) + sweep 3 (ecc).
        assert before + 3 * ecc <= net.rounds <= before + 3 * ecc + 1

    def test_empty_store_skips_delete_sweep(self):
        g = torus_graph(4, 4)
        net = Network(g, seed=0)
        sample_destination(net, WalkStore(g.n), 0, make_rng(1))
        ecc = eccentricity(g, 0)
        assert net.rounds <= 2 * ecc + 1

    def test_tree_cache_reused(self):
        g = grid_graph(4, 4)
        cache: dict = {}
        net = Network(g, seed=0)
        store = seeded_store(g.n, {3: 5})
        r1, _ = sample_destination(net, store, 0, make_rng(1), tree_cache=cache)
        rounds_first = net.rounds
        r2, _ = sample_destination(net, store, 0, make_rng(2), tree_cache=cache)
        assert net.rounds == 2 * rounds_first  # identical charge both times
        assert r1.token_id != r2.token_id


class TestBillPinned:
    @pytest.mark.parametrize("name", sorted(BILL_CASES))
    def test_one_call_bills_the_pinned_cost(self, name):
        assert observed_bill(name) == BILLS[name]


class TestProtocolEquivalence:
    """The event-driven Algorithm 3 vs the charged fast path."""

    def test_rounds_agree(self):
        g = grid_graph(4, 5)
        layout = {7: 2, 13: 1, 19: 3}

        net_fast = Network(g, seed=0)
        store_fast = seeded_store(g.n, layout)
        before = net_fast.rounds
        rec_fast, _ = sample_destination(net_fast, store_fast, 0, make_rng(1))
        fast_rounds = net_fast.rounds - before

        net_proto = Network(g, seed=0)
        store_proto = seeded_store(g.n, layout)
        rec_proto, proto_rounds = sample_destination_protocol(
            net_proto, store_proto, 0, make_rng(1)
        )
        assert rec_fast is not None and rec_proto is not None
        # The flood may spend one extra trailing round (deepest nodes still
        # forward); sweeps 2 and 3 are identical.
        assert abs(proto_rounds - fast_rounds) <= 1

    def test_sampling_law_agrees(self):
        # Both versions must be uniform over tokens: compare their empirical
        # holder frequencies against each other's exact law (3:1).
        g = grid_graph(3, 3)
        rng = make_rng(9)
        wins = {8: 0, 4: 0}
        for _ in range(1500):
            store = seeded_store(g.n, {8: 3, 4: 1})
            net = Network(g, seed=0)
            rec, _rounds = sample_destination_protocol(net, store, 0, rng)
            wins[rec.destination] += 1
        result = chi_square_goodness_of_fit(wins, {8: 0.75, 4: 0.25})
        assert not result.rejects_at(1e-4)

    def test_protocol_removes_token(self):
        g = grid_graph(3, 3)
        store = seeded_store(g.n, {5: 1})
        net = Network(g, seed=0)
        rec, _ = sample_destination_protocol(net, store, 0, make_rng(2))
        assert rec is not None
        assert store.count_for_source(0) == 0

    def test_protocol_none_when_empty(self):
        g = grid_graph(3, 3)
        net = Network(g, seed=0)
        rec, rounds = sample_destination_protocol(net, WalkStore(g.n), 0, make_rng(3))
        assert rec is None
        assert rounds > 0  # sweeps 1–2 still ran


class TestCombine:
    def test_weighted_merge_probabilities(self):
        rng = make_rng(0)
        combine = make_sample_combine(rng)
        rec_a = TokenRecord(token_id=1, source=0, length=3, destination=1)
        rec_b = TokenRecord(token_id=2, source=0, length=3, destination=2)
        wins_a = 0
        trials = 5000
        for _ in range(trials):
            total, rec = combine((3, rec_a), (1, rec_b))
            assert total == 4
            wins_a += rec.token_id == 1
        assert abs(wins_a / trials - 0.75) < 0.03

    def test_zero_counts(self):
        combine = make_sample_combine(make_rng(0))
        rec = TokenRecord(token_id=1, source=0, length=3, destination=1)
        assert combine((0, None), (0, None)) == (0, None)
        assert combine((0, None), (2, rec)) == (2, rec)
        assert combine((2, rec), (0, None)) == (2, rec)
