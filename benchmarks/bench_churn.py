"""Graph-churn bench: incremental invalidate+regenerate vs. full re-prepare.

The PR-5 acceptance shape: on the n=10k random regular graph, a batched
churn event touching ~1% of the edges (half deletions, half insertions,
connectivity-preserving) hits a warm serving session two ways —

* **incremental** — ``engine.apply_churn(delta)``: one vectorized path
  scan evicts exactly the pooled tokens whose recorded law the churn
  broke, shard quotas re-derive from the new degree profile, and the
  affected shards top back up in one batched GET-MORE-WALKS sweep billed
  to ``"pool-refill/churn"``;
* **rebuild** — the naive baseline: discard the pool and re-run Phase 1
  on the post-churn graph (one fresh ``prepare()``, the cost every
  pre-dynamic session paid for *any* topology change).

Both sides use the same λ/η and are measured in *simulated rounds* — the
paper's complexity measure, deterministic at a fixed seed.  The win is
structural: rebuild work scales with the whole Θ(η·m) token population,
incremental work with the evicted fraction only (short tokens keep that
fraction small), and the regeneration sweep's per-edge distinct-source
charging (the GET-MORE-WALKS count-aggregation trick) beats Phase 1's raw
token-load congestion on top.  ``tests/test_perf_smoke.py`` keeps a live
small-n guard plus a static ≥2× check on the committed 1%-churn row::

    PYTHONPATH=src python benchmarks/bench_churn.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_churn.py --quick   # tiny config
"""

from __future__ import annotations

import sys

from repro.dynamic import sample_churn_delta
from repro.engine import WalkEngine
from repro.graphs import random_regular_graph
from repro.util.rng import make_rng

from hotpaths import RESULT_PATH, write_sections


CHURN_N = 10_000
CHURN_DEGREE = 4
CHURN_LAM = 5
CHURN_ETA = 4.0
CHURN_SEED = 1201
CHURN_FRACTIONS = [0.005, 0.01, 0.02]
QUICK_CHURN = {"n": 512, "fractions": [0.01], "seed": 1201}


def _churned_delta(graph, fraction: float, seed: int):
    """The benched churn event: ~fraction·m edges, half deleted half inserted."""
    changes = max(2, int(round(fraction * graph.m)))
    return sample_churn_delta(
        graph, make_rng(seed + 7), deletes=changes // 2, inserts=changes - changes // 2
    )


def bench_churn(
    n: int = CHURN_N,
    degree: int = CHURN_DEGREE,
    lam: int = CHURN_LAM,
    eta: float = CHURN_ETA,
    fractions: list[float] | None = None,
    seed: int = CHURN_SEED,
) -> dict:
    """One row per churn fraction: incremental vs. rebuild simulated rounds."""
    rows = []
    for fraction in fractions if fractions is not None else CHURN_FRACTIONS:
        # Incremental: warm session absorbs the delta in place.
        graph = random_regular_graph(n, degree, seed)
        engine = WalkEngine(graph, seed=seed, record_paths=True, eta=eta, auto_maintain=False)
        engine.prepare(lam=lam)
        tokens_before = engine.pool.store.total_unused()
        delta = _churned_delta(graph, fraction, seed)
        base = engine.network.rounds
        report = engine.apply_churn(delta)
        incremental_rounds = engine.network.rounds - base

        # Rebuild baseline: identical post-churn graph, pool discarded,
        # Phase 1 re-run from scratch (plus its setup BFS — the diameter
        # estimate a fresh preparation always pays).
        graph2 = random_regular_graph(n, degree, seed)
        graph2.apply_delta(_churned_delta(graph2, fraction, seed))
        baseline = WalkEngine(graph2, seed=seed, record_paths=True, eta=eta, auto_maintain=False)
        base2 = baseline.network.rounds
        baseline.prepare(lam=lam)
        rebuild_rounds = baseline.network.rounds - base2

        rows.append(
            {
                "churn_fraction": fraction,
                "edges_changed": delta.num_changes,
                "edges_deleted": int(len(delta.delete_edges)),
                "edges_inserted": int(len(delta.insert_edges)),
                "mutated_nodes": report.mutated_nodes,
                "tokens_before": tokens_before,
                "tokens_evicted": report.tokens_evicted,
                "evicted_fraction": report.tokens_evicted / max(1, tokens_before),
                "tokens_regenerated": report.tokens_regenerated,
                "incremental_rounds": incremental_rounds,
                "rebuild_rounds": rebuild_rounds,
                "rounds_speedup": rebuild_rounds / max(1, incremental_rounds),
            }
        )
    return {
        "schema": "bench_graph_churn/v1",
        "n": n,
        "degree": degree,
        "lam": lam,
        "eta": eta,
        "seed": seed,
        "rows": rows,
    }


def main(argv: list[str]) -> int:
    section = bench_churn(**QUICK_CHURN) if "--quick" in argv else bench_churn()
    write_sections({"graph_churn": section})
    print(
        f"incremental churn vs full re-prepare, n={section['n']} "
        f"regular({section['degree']}), λ={section['lam']}, η={section['eta']:g}:"
    )
    for r in section["rows"]:
        print(
            f"  churn={r['churn_fraction']:.2%} ({r['edges_changed']} edges)  "
            f"evicted {r['tokens_evicted']}/{r['tokens_before']} "
            f"({r['evicted_fraction']:.0%})  incremental {r['incremental_rounds']:>5} rounds  "
            f"rebuild {r['rebuild_rounds']:>5} rounds  ({r['rounds_speedup']:.2f}x)"
        )
    print(f"\nwrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
