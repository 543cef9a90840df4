"""E2 — Theorem 2.8: k walks in Õ(min(√(kℓD) + k, k + ℓ)) rounds.

Sweeps ``k`` at a fixed walk length and reports measured rounds against
both branches of the theorem's min, confirming (a) sub-linear growth in
``k`` (batching beats k independent runs), (b) the regime switch to the
naive-parallel branch once ``√(kℓD) + k`` exceeds ``k + ℓ``.

The ``batch_k_walks`` sweep extends this toward the k·ℓ regimes of
arXiv:1201.1363: on the n=10k random regular graph it serves one pooled
k-walk request per k ∈ {16, 64, 256} with the interleaved batch regime (one
SAMPLE-DESTINATION round trip serves every walk parked at a connector,
pipelined on a shared tree), runs the same request through the one-shot
serial §2.3 body (``many_random_walks`` at the same λ, Phase 1 excluded),
and records the simulated-round ratio in ``BENCH_HOTPATHS.json``::

    PYTHONPATH=src python benchmarks/bench_many_walks.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_many_walks.py --quick   # tiny config

``tests/test_perf_smoke.py`` keeps a fast live guard (batch strictly beats
serial at k=64) plus a static check on the committed section in tier-1.
"""

from __future__ import annotations

import math
import sys

from repro.engine import WalkEngine
from repro.graphs import diameter, hypercube_graph, random_regular_graph
from repro.util.tables import render_table
from repro.walks import many_random_walks, single_random_walk

from hotpaths import RESULT_PATH, write_sections


LENGTH = 24000
KS = [1, 2, 4, 8]

BATCH_N = 10_000
BATCH_DEGREE = 4
BATCH_LENGTH = 512
BATCH_KS = [16, 64, 256]
BATCH_SEED = 1201
QUICK_BATCH = {"n": 256, "degree": 4, "length": 256, "ks": [4, 16], "seed": 1201}


def bench_batch_k_walks(
    n: int = BATCH_N,
    degree: int = BATCH_DEGREE,
    length: int = BATCH_LENGTH,
    ks: list[int] | None = None,
    seed: int = BATCH_SEED,
) -> dict:
    """Serial-loop vs batch-stitched simulated rounds on one k-walk request.

    The batch side serves the request from a prepared engine pool, so its
    rounds exclude Phase 1.  The serial side is the one-shot §2.3 body
    (stitch for s₁, then s₂, …) at the same λ, minus its Phase-1 rounds.
    The serial loop pays a full SAMPLE-DESTINATION round trip per segment
    per walk; the batch regime pipelines every walk parked at a connector
    through shared-tree sweeps.
    """
    graph = random_regular_graph(n, degree, seed)
    rows = []
    for k in ks if ks is not None else BATCH_KS:
        sources = [(i * 37) % graph.n for i in range(k)]
        batch_engine = WalkEngine(graph, seed=seed, record_paths=False)
        batch_engine.prepare(length_hint=length)
        batch = batch_engine.walks(sources, length)
        serial = many_random_walks(graph, sources, length, seed=seed, lam=batch.lam)
        assert serial.mode == "stitched" and batch.mode == "batch-stitched"
        serial_rounds = serial.rounds - serial.phase_rounds["phase1"]
        rows.append(
            {
                "k": k,
                "length": length,
                "lam": batch.lam,
                "serial_rounds": serial_rounds,
                "batch_rounds": batch.rounds,
                "rounds_speedup": serial_rounds / batch.rounds,
            }
        )
    return {
        "schema": "bench_batch_k_walks/v2",
        "n": graph.n,
        "degree": degree,
        "seed": seed,
        "rows": rows,
    }


def bench_lambda_retune(
    n: int = BATCH_N,
    degree: int = BATCH_DEGREE,
    length: int = BATCH_LENGTH,
    ks: list[int] | None = None,
    seed: int = BATCH_SEED,
) -> dict:
    """Before/after the k-enlarged λ policy on pooled batch requests.

    *Before*: the pool is prepared with the single-walk ``Θ(√(ℓD))`` λ
    (``prepare(length_hint=ℓ)`` — the PR-3 behavior, blind to k), then one
    k-walk batch request is served.  *After*: a cold engine auto-prepares
    on the same batch request, which now picks λ from Theorem 2.8's
    ``Θ(√(kℓD) + k)``.  Longer segments mean fewer SAMPLE-DESTINATION
    sweep generations per walk, so the request's simulated rounds drop as
    k grows; the extra Phase-1 cost of the longer λ is reported alongside
    (it is paid once per session, the request win repeats per batch).
    """
    graph = random_regular_graph(n, degree, seed)
    rows = []
    for k in ks if ks is not None else BATCH_KS:
        sources = [(i * 37) % graph.n for i in range(k)]

        before_engine = WalkEngine(graph, seed=seed, record_paths=False)
        before_engine.prepare(length_hint=length)
        before_prep = before_engine.network.rounds
        before = before_engine.walks(sources, length)

        # Cold engine: auto-preparation (and its Phase 1) lands inside the
        # first request's delta; subtract it so both columns compare pure
        # serving rounds, and report the prep costs side by side.
        after_engine = WalkEngine(graph, seed=seed, record_paths=False)
        after = after_engine.walks(sources, length)
        after_prep = after.phase_rounds.get("phase1", 0)
        after_rounds = after.rounds - after_prep

        rows.append(
            {
                "k": k,
                "length": length,
                "lam_before": before.lam,
                "lam_after": after.lam,
                "mode_after": after.mode,
                "request_rounds_before": before.rounds,
                "request_rounds_after": after_rounds,
                "rounds_speedup": before.rounds / after_rounds,
                "prep_rounds_before": before_prep,
                "prep_rounds_after": after_prep,
            }
        )
    return {
        "schema": "bench_lambda_retune/v1",
        "n": graph.n,
        "degree": degree,
        "seed": seed,
        "rows": rows,
    }


def test_e2_k_scaling(benchmark, reporter):
    graph = hypercube_graph(7)
    d = diameter(graph)
    rows = []
    for k in KS:
        res = many_random_walks(graph, [0] * k, LENGTH, seed=23)
        separate = sum(
            single_random_walk(graph, 0, LENGTH, seed=100 + i, record_paths=False).rounds
            for i in range(k)
        )
        bound_stitched = math.sqrt(k * LENGTH * d) + k
        bound_naive = k + LENGTH
        rows.append(
            (
                k,
                res.rounds,
                separate,
                res.mode,
                round(min(bound_stitched, bound_naive)),
                round(res.rounds / min(bound_stitched, bound_naive), 2),
            )
        )
    table = render_table(
        ["k", "batched rounds", "k separate runs", "mode", "min-bound", "rounds/bound"],
        rows,
        title=f"E2 MANY-RANDOM-WALKS on hypercube(d=7), ℓ={LENGTH}, D={d}",
    )
    reporter.emit("E2_many_walks", table)

    # Batching must beat running k walks separately for every k > 1.
    for row in rows[1:]:
        assert row[1] < row[2], row
    # Growth in k must be sublinear (√k shape): k=8 costs well under 8x k=1.
    assert rows[-1][1] < 5 * rows[0][1]
    # rounds/bound ratio stays within a constant band (no hidden blowup).
    ratios = [row[5] for row in rows]
    assert max(ratios) / min(ratios) < 6

    benchmark.pedantic(
        lambda: many_random_walks(graph, [0] * 4, 4000, seed=29),
        rounds=3,
        iterations=1,
    )


def test_e2_regime_switch(benchmark, reporter):
    """The theorem's min: large k with short walks flips to naive-parallel."""
    graph = hypercube_graph(6)
    rows = []
    for k, length in [(2, 4000), (8, 2000), (32, 500), (64, 120), (128, 60)]:
        res = many_random_walks(graph, [0] * k, length, seed=31)
        rows.append((k, length, res.mode, res.rounds, res.lam))
    table = render_table(
        ["k", "length", "mode", "rounds", "λ"],
        rows,
        title="E2 regime switch (λ > ℓ → naive-parallel branch of the min)",
    )
    reporter.emit("E2_many_walks", table)

    assert rows[0][2] == "stitched"
    assert rows[-1][2] == "naive-parallel"

    benchmark.pedantic(
        lambda: many_random_walks(graph, [0] * 64, 60, seed=37),
        rounds=3,
        iterations=1,
    )


def test_batch_regime_rounds(reporter):
    """Batch stitching beats the serial loop for every k (small config)."""
    section = bench_batch_k_walks(**QUICK_BATCH)
    rows = section["rows"]
    table = render_table(
        ["k", "λ", "serial rounds", "batch rounds", "speedup"],
        [
            (r["k"], r["lam"], r["serial_rounds"], r["batch_rounds"], f"{r['rounds_speedup']:.2f}x")
            for r in rows
        ],
        title=f"batch vs serial stitching, n={section['n']} regular({section['degree']})",
    )
    reporter.emit("E2_many_walks", table)
    for r in rows:
        assert r["batch_rounds"] < r["serial_rounds"], r


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    section = bench_batch_k_walks(**QUICK_BATCH) if quick else bench_batch_k_walks()
    retune = bench_lambda_retune(**QUICK_BATCH) if quick else bench_lambda_retune()
    write_sections({"batch_k_walks": section, "batch_lambda_retune": retune})
    print(f"batch vs serial k-walk serving on n={section['n']} regular({section['degree']}):")
    for r in section["rows"]:
        print(
            f"  k={r['k']:>4}  λ={r['lam']:>4}  serial {r['serial_rounds']:>8} rounds  "
            f"batch {r['batch_rounds']:>8} rounds  ({r['rounds_speedup']:.2f}x)"
        )
    print("\nλ re-tune for pooled batches (single-walk λ → k-enlarged λ):")
    for r in retune["rows"]:
        print(
            f"  k={r['k']:>4}  λ {r['lam_before']:>4} → {r['lam_after']:>4}  request "
            f"{r['request_rounds_before']:>8} → {r['request_rounds_after']:>8} rounds  "
            f"({r['rounds_speedup']:.2f}x)  prep {r['prep_rounds_before']} → {r['prep_rounds_after']}"
        )
    print(f"\nwrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
