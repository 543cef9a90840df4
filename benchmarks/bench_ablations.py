"""A1–A3 — ablations of the paper's design choices (DESIGN.md §4).

A1  Degree-proportional Phase-1 pools (the §2.1 change over PODC'09):
    on skewed-degree graphs, uniform per-node pools starve high-degree
    connectors — measured as GET-MORE-WALKS invocations — while
    degree-proportional pools of the *same total size* do not.

A2  Count aggregation + reservoir stopping in GET-MORE-WALKS: shipping
    every token individually (what pre-sampling each walk's length would
    force) congests edges; the aggregated protocol stays at congestion 1.

A3  The §1.2 stationary shortcut: once ℓ exceeds the mixing time, the
    ℓ-step law is within TV ≈ 0 of stationary, so an application that only
    needs an *approximate* sample can stop paying per-ℓ costs — but for
    ℓ below τ_mix the shortcut is badly wrong, which is why exact sampling
    (this paper) matters in that regime.
"""

from __future__ import annotations


import numpy as np

from repro.congest import Network
from repro.graphs import star_graph, torus_graph
from repro.markov import WalkSpectrum, exact_mixing_time
from repro.util.rng import derive_rng
from repro.util.tables import render_table
from repro.walks import (
    WalkStore,
    perform_short_walks,
    single_random_walk,
    stitch_walk,
    token_counts,
)


def _run_pool_policy(graph, length, lam, counts, seed):
    """Phase 1 with explicit pool sizes, then stitching; returns metrics."""
    net = Network(graph, seed=seed)
    store = WalkStore(net.graph.n)
    rng = derive_rng(seed, "ablation")
    phase1_rounds = perform_short_walks(net, store, lam, rng, counts=counts)
    hub_pool = store.count_for_source(0)
    _, _, segments, connectors, gmw_calls, _ = stitch_walk(
        net,
        store,
        0,
        length,
        lam,
        rng,
        loop_margin=2 * lam,
        gmw_count=max(1, length // lam),
        randomized_lengths=True,
        record_paths=False,
        tree_cache={},
    )
    hub_hits = sum(1 for c in connectors if c == 0)
    return phase1_rounds, hub_pool, hub_hits, gmw_calls, net.rounds


def test_a1_degree_proportional_pools(benchmark, reporter):
    """§2.1's pool-sizing change, isolated on the star.

    The hub is the connector for ~half the stitches, so its pool must scale
    with its degree.  Degree-proportional allocation achieves that with
    ``Σdeg = 2m`` tokens.  A uniform allocation has two bad options: same
    *total* budget (hub pool collapses to ~2 → GET-MORE-WALKS churn), or
    same *hub guarantee* (every node gets d_max tokens → Phase-1 congestion
    multiplies by ~d_max/avg-degree, the ``η/δ``-style blowup the paper
    removes).
    """
    g = star_graph(48)
    length = 1500
    deg_counts = token_counts(g.degrees, 1.0, degree_proportional=True)
    total = int(deg_counts.sum())
    per_node_same_total = max(1, round(total / g.n))
    hub_degree = g.degree(0)
    policies = [
        ("degree-proportional (paper)", deg_counts),
        ("uniform, same total", np.full(g.n, per_node_same_total, dtype=np.int64)),
        ("uniform, same hub pool", np.full(g.n, hub_degree, dtype=np.int64)),
    ]
    rows = []
    results = {}
    for policy, counts in policies:
        # Use the theorem-scale λ the algorithm itself would pick.
        from repro.walks import single_walk_params

        lam = single_walk_params(length, 4, n=g.n).lam
        metrics = _run_pool_policy(g, length, lam, counts, seed=61)
        results[policy] = metrics
        rows.append((policy, int(counts.sum()), *metrics))
    table = render_table(
        ["Phase-1 pool policy", "tokens", "phase1 rounds", "hub pool", "hub connector hits", "GMW calls", "total rounds"],
        rows,
        title=f"A1 pool policy on star(48), ℓ={length}",
    )
    reporter.emit("A_ablations", table)

    deg = results["degree-proportional (paper)"]
    same_total = results["uniform, same total"]
    same_hub = results["uniform, same hub pool"]
    # Paper policy: the hub's pool covers every one of its connector hits.
    assert deg[1] >= deg[2], rows
    # Uniform same-total: the hub pool cannot cover its hits (starvation —
    # the stitching survives only by paying GET-MORE-WALKS refills).
    assert same_total[1] < same_total[2], rows
    assert same_total[3] > 0, rows
    # Uniform same-hub-guarantee: Phase-1 congestion blows up ~d_max/avg.
    assert same_hub[0] > 5 * deg[0], rows

    benchmark.pedantic(
        lambda: _run_pool_policy(g, length, 30, deg_counts, seed=63),
        rounds=3,
        iterations=1,
    )


def test_a2_count_aggregation(benchmark, reporter):
    """Congestion of GET-MORE-WALKS traffic with and without aggregation."""
    g = star_graph(16)
    count, lam = 600, 10
    rng = derive_rng(67, "a2")

    # Aggregated (the paper's protocol): one (source, count) message/edge.
    net_agg = Network(g, seed=0)
    from repro.walks import get_more_walks

    rounds_agg = get_more_walks(net_agg, WalkStore(g.n), 0, count, lam, rng)

    # Naive shipping: every token is its own message (what per-token
    # remaining-length counters would force).
    net_raw = Network(g, seed=0)
    positions = np.zeros(count, dtype=np.int64)
    with net_raw.phase("raw"):
        for _ in range(lam):
            slots = g.step_walk_slots(positions, derive_rng(69, "raw"))
            net_raw.deliver_step(slots, words=2)  # no aggregation
            positions = g.csr_target[slots]
    rounds_raw = net_raw.rounds

    rows = [
        ("aggregated counts + reservoir (paper)", rounds_agg, net_agg.ledger.max_congestion),
        ("per-token messages (ablation)", rounds_raw, net_raw.ledger.max_congestion),
    ]
    table = render_table(
        ["GET-MORE-WALKS transport", "rounds", "max edge congestion"],
        rows,
        title=f"A2 count aggregation on star(16), {count} walks, λ={lam}",
    )
    reporter.emit("A_ablations", table)

    assert rounds_agg < rounds_raw / 5
    assert net_agg.ledger.max_congestion == 1
    assert net_raw.ledger.max_congestion > 10

    benchmark.pedantic(
        lambda: get_more_walks(Network(g, seed=1), WalkStore(g.n), 0, count, lam, derive_rng(71, "b")),
        rounds=3,
        iterations=1,
    )


def test_a3_stationary_shortcut(benchmark, reporter):
    """TV(ℓ-step law, stationary) vs ℓ: where O(D) sampling would suffice."""
    g = torus_graph(5, 5)
    spec = WalkSpectrum(g)
    tau = exact_mixing_time(g, 0, spectrum=spec)
    rows = []
    for mult in [0.25, 0.5, 1.0, 2.0, 4.0]:
        length = max(1, int(round(mult * tau)))
        tv = spec.tv_from_stationary(0, length)
        res = single_random_walk(g, 0, length, seed=73, record_paths=False)
        rows.append((f"{mult}·τ", length, round(tv, 4), res.rounds))
    table = render_table(
        ["ℓ", "steps", "TV(π_x(ℓ), π)", "exact-sampling rounds"],
        rows,
        title=(
            f"A3 stationary shortcut on torus(5x5), τ_mix={tau}: above ~2τ an "
            "approximate sample is nearly free (O(D)), below τ it is badly wrong"
        ),
    )
    reporter.emit("A_ablations", table)

    tvs = [row[2] for row in rows]
    assert tvs[0] > 0.2      # ℓ = τ/4: stationary sampling is a bad proxy
    assert tvs[-1] < 0.02    # ℓ = 4τ: the shortcut is sound
    assert all(a >= b - 1e-12 for a, b in zip(tvs, tvs[1:]))  # monotone (Lemma 4.4)

    benchmark.pedantic(
        lambda: spec.tv_from_stationary(0, tau),
        rounds=3,
        iterations=1,
    )
