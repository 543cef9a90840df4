"""Serving-layer bench: concurrent scheduling vs. serial request-at-a-time.

The PR-4 acceptance shape: on the n=10k random regular graph, an
8-request mixed-length workload per k ∈ {16, 64, 256} is served twice —

* **serial** — the PR-3 engine loop: one ``engine.walks()`` call per
  request, each paying its own setup, sweeps, tails, report, and
  full-quota auto-maintenance before the next request starts;
* **scheduled** — all 8 requests submitted to a
  :class:`~repro.serve.WalkScheduler` and drained: every cohort merges the
  requests' stitching sweeps over one shared BFS tree (one flood per
  sweep for the whole cohort, pipelined sampling across every parked
  walk, one merged tail phase), with deadline-driven maintenance.

Both sides serve from pools prepared with the *same* k-enlarged λ (the
``Θ(√(kℓD) + k)`` policy), so the recorded ratio isolates the scheduling
regime.  Recorded per row: total simulated rounds, throughput (walks per
1k rounds), and p50/p99 rounds-per-request.  ``tests/test_perf_smoke.py``
keeps a live small-n guard plus a static ≥2× check on the committed
section::

    PYTHONPATH=src python benchmarks/bench_serve.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_serve.py --quick   # tiny config
"""

from __future__ import annotations

import sys

import numpy as np

from repro.engine import WalkEngine
from repro.graphs import pseudo_diameter, random_regular_graph
from repro.walks.params import many_walks_params

from hotpaths import RESULT_PATH, write_sections


SERVE_N = 10_000
SERVE_DEGREE = 4
SERVE_SEED = 1201
SERVE_KS = [16, 64, 256]
SERVE_REQUESTS = 8
SERVE_LENGTHS = [512, 256, 1024]  # cycled per request: the "mixed" workload
QUICK_SERVE = {"n": 256, "degree": 4, "ks": [16], "lengths": [256, 128, 512], "seed": 1201}


def _workload(graph, k: int, requests: int, lengths: list[int]) -> list[tuple[list[int], int]]:
    """Deterministic mixed workload: k sources per request, cycled lengths."""
    return [
        (
            [(i * 37 + j * 13) % graph.n for j in range(k)],
            lengths[i % len(lengths)],
        )
        for i in range(requests)
    ]


def bench_serve(
    n: int = SERVE_N,
    degree: int = SERVE_DEGREE,
    ks: list[int] | None = None,
    requests: int = SERVE_REQUESTS,
    lengths: list[int] | None = None,
    seed: int = SERVE_SEED,
) -> dict:
    """One row per k: serial vs. scheduled total rounds on the same workload."""
    graph = random_regular_graph(n, degree, seed)
    lengths = SERVE_LENGTHS if lengths is None else lengths
    d_est = max(1, pseudo_diameter(graph))
    rows = []
    for k in ks if ks is not None else SERVE_KS:
        workload = _workload(graph, k, requests, lengths)
        lam = many_walks_params(k, max(lengths), d_est, n=graph.n).lam

        serial_engine = WalkEngine(graph, seed=seed, record_paths=False)
        serial_engine.prepare(lam=lam)
        serial_base = serial_engine.network.rounds
        serial_results = [serial_engine.walks(srcs, length) for srcs, length in workload]
        serial_rounds = serial_engine.network.rounds - serial_base

        sched_engine = WalkEngine(graph, seed=seed, record_paths=False, auto_maintain=False)
        sched_engine.prepare(lam=lam)
        scheduler = sched_engine.scheduler(max_batch_requests=requests)
        sched_base = sched_engine.network.rounds
        for srcs, length in workload:
            scheduler.submit(srcs, length)
        scheduler.drain()
        sched_rounds = sched_engine.network.rounds - sched_base
        stats = scheduler.stats()

        walks_total = requests * k
        serial_per_request = [r.rounds for r in serial_results]
        rows.append(
            {
                "k": k,
                "requests": requests,
                "lengths": [length for _, length in workload],
                "lam": lam,
                "serial_rounds": serial_rounds,
                "scheduled_rounds": sched_rounds,
                "rounds_speedup": serial_rounds / sched_rounds,
                "serial_throughput_per_1k_rounds": 1000.0 * walks_total / serial_rounds,
                "scheduled_throughput_per_1k_rounds": 1000.0 * walks_total / sched_rounds,
                "serial_p50_rounds": float(np.percentile(serial_per_request, 50)),
                "serial_p99_rounds": float(np.percentile(serial_per_request, 99)),
                "scheduled_p50_rounds": stats.p50_rounds_per_request,
                "scheduled_p99_rounds": stats.p99_rounds_per_request,
                "cohorts": stats.cohorts,
            }
        )
    return {
        "schema": "bench_serve/v1",
        "n": graph.n,
        "degree": degree,
        "seed": seed,
        "rows": rows,
    }


def main(argv: list[str]) -> int:
    section = bench_serve(**QUICK_SERVE) if "--quick" in argv else bench_serve()
    write_sections({"serve_scheduler": section})
    print(
        f"scheduled vs serial serving, {section['rows'][0]['requests']} requests, "
        f"n={section['n']} regular({section['degree']}):"
    )
    for r in section["rows"]:
        print(
            f"  k={r['k']:>4}  λ={r['lam']:>4}  serial {r['serial_rounds']:>8} rounds  "
            f"scheduled {r['scheduled_rounds']:>8} rounds  ({r['rounds_speedup']:.2f}x)  "
            f"p99 {r['serial_p99_rounds']:.0f} → {r['scheduled_p99_rounds']:.0f}"
        )
    print(f"\nwrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
