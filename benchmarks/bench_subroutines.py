"""E5 — Lemmas 2.1–2.3: per-subroutine round costs.

* Phase 1 finishes in ``O(λ·η·log n)`` rounds (Lemma 2.1): measured
  rounds/λ stays within an ``O(log n)`` band across topologies.
* GET-MORE-WALKS finishes in ``O(λ)`` rounds regardless of walk count
  (Lemma 2.2): count aggregation keeps per-edge congestion at 1.
* SAMPLE-DESTINATION finishes in ``O(D)`` rounds (Lemma 2.3): three BFS
  sweeps.
"""

from __future__ import annotations

import math


from repro.congest import Network
from repro.graphs import (
    barbell_graph,
    cycle_graph,
    eccentricity,
    hypercube_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)
from repro.util.rng import derive_rng
from repro.util.tables import render_table
from repro.walks import WalkStore, get_more_walks, perform_short_walks, sample_destination, token_counts

FAMILIES = [
    ("cycle(64)", lambda: cycle_graph(64)),
    ("torus(8x8)", lambda: torus_graph(8, 8)),
    ("hypercube(6)", lambda: hypercube_graph(6)),
    ("random_regular(64,4)", lambda: random_regular_graph(64, 4, 2)),
    ("star(64)", lambda: star_graph(64)),
    ("barbell(16,4)", lambda: barbell_graph(16, 4)),
]


def test_e5_phase1_rounds(benchmark, reporter):
    lam = 32
    rows = []
    for name, factory in FAMILIES:
        g = factory()
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        counts = token_counts(g.degrees, 1.0, degree_proportional=True)
        rounds = perform_short_walks(net, store, lam, derive_rng(3, name), counts=counts)
        per_lambda = rounds / (2 * lam - 1)
        rows.append((name, g.n, rounds, round(per_lambda, 2), round(math.log2(g.n), 1)))
    table = render_table(
        ["graph", "n", "phase1 rounds", "rounds / (2λ−1)", "log2 n"],
        rows,
        title=f"E5 Lemma 2.1: Phase 1 rounds vs O(λ·η·log n), λ={lam}, η=1",
    )
    reporter.emit("E5_subroutines", table)

    for row in rows:
        # rounds per short-walk step must stay within O(log n): generous 3x.
        assert row[3] <= 3 * max(row[4], 1.0), row

    g = torus_graph(8, 8)

    def run():
        net = Network(g, seed=1)
        perform_short_walks(
            net,
            WalkStore(net.graph.n),
            lam,
            derive_rng(5, "bench"),
            counts=token_counts(g.degrees, 1.0, degree_proportional=True),
        )

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_e5_get_more_walks_rounds(benchmark, reporter):
    lam = 24
    rows = []
    for count in [10, 100, 1000, 5000]:
        g = torus_graph(8, 8)
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        rounds = get_more_walks(net, store, 0, count, lam, derive_rng(7, count))
        rows.append((count, rounds, net.ledger.max_congestion))
    table = render_table(
        ["#walks", "rounds", "max per-edge congestion"],
        rows,
        title=f"E5 Lemma 2.2: GET-MORE-WALKS is O(λ) rounds (λ={lam}), any walk count",
    )
    reporter.emit("E5_subroutines", table)

    round_counts = {r[1] for r in rows}
    # Rounds are independent of the number of walks (within the reservoir
    # stopping noise) and bounded by 2λ-1; congestion never exceeds 1.
    assert max(round_counts) <= 2 * lam - 1
    assert all(r[2] == 1 for r in rows)
    assert max(round_counts) - min(round_counts) <= 3

    benchmark.pedantic(
        lambda: get_more_walks(
            Network(torus_graph(8, 8), seed=1), WalkStore(64), 0, 1000, lam, derive_rng(9, "b")
        ),
        rounds=3,
        iterations=1,
    )


def test_e5_sample_destination_rounds(benchmark, reporter):
    rows = []
    for name, factory in FAMILIES:
        g = factory()
        net = Network(g, seed=0)
        store = WalkStore(g.n)
        get_more_walks(net, store, 0, 50, 4, derive_rng(11, name))
        before = net.rounds
        record, _tree = sample_destination(net, store, 0, derive_rng(13, name))
        cost = net.rounds - before
        ecc = eccentricity(g, 0)
        rows.append((name, ecc, cost, round(cost / max(ecc, 1), 2)))
        assert record is not None
    table = render_table(
        ["graph", "ecc(source)", "rounds", "rounds / ecc"],
        rows,
        title="E5 Lemma 2.3: SAMPLE-DESTINATION is O(D) (3 tree sweeps)",
    )
    reporter.emit("E5_subroutines", table)

    for row in rows:
        assert row[2] <= 3 * row[1] + 2, row  # three sweeps + flood slack

    def run():
        g = torus_graph(8, 8)
        net = Network(g, seed=2)
        store = WalkStore(g.n)
        get_more_walks(net, store, 0, 50, 4, derive_rng(15, "b"))
        sample_destination(net, store, 0, derive_rng(17, "b"))

    benchmark.pedantic(run, rounds=3, iterations=1)
