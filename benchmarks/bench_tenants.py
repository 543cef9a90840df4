"""Multi-tenant serving bench: packed+pipelined cohorts vs. per-request serving.

The PR-7 acceptance shape: on the n=10k random regular graph, a 9-request
3-tenant workload (weights 1:2:4, 3 requests per tenant, mixed lengths)
per k ∈ {16, 64, 256} is served twice —

* **per-request** — cohorts of one (``max_batch_requests=1``): what a
  fairness-first scheduler would cost if it alternated tenants strictly,
  one request per scheduling round, each paying its own setup sweep and
  its own ``height + k`` report convergecast;
* **packed** — walk-count cohort packing (``max_batch_walks = 2.5k``, a
  deliberate non-multiple of k so ticket *splitting* is exercised) with
  the cross-request pipelined report: deficit round robin fills each
  cohort across tenants up to the Σk budget, splitting the ticket at the
  budget edge, the cohort's stitching sweeps merge over one shared BFS
  tree, and ONE ``height + Σk − 1`` convergecast carries every report.

Both sides serve from pools prepared with the same k-enlarged λ, so the
recorded ratio isolates the packing+pipelining regime — fairness no
longer costs batching.  Each row also records a **fairness deviation**
column measured in a separate saturated phase (every tenant kept
backlogged for a fixed tick count): the worst relative deviation of any
tenant's attributed-rounds share from its ``weight / Σ weights`` target.
``tests/test_perf_smoke.py`` keeps a live small-n guard plus a static
≥1.3× check on the committed section::

    PYTHONPATH=src python benchmarks/bench_tenants.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_tenants.py --quick   # tiny config
"""

from __future__ import annotations

import sys

from repro.engine import WalkEngine
from repro.graphs import pseudo_diameter, random_regular_graph
from repro.serve import TenantRegistry
from repro.walks.params import many_walks_params

from hotpaths import RESULT_PATH, write_sections


TENANT_N = 10_000
TENANT_DEGREE = 4
TENANT_SEED = 1201
TENANT_KS = [16, 64, 256]
TENANT_SPEC = "bronze:1:0,silver:2:0,gold:4:0"
REQUESTS_PER_TENANT = 3
TENANT_LENGTHS = [512, 256, 1024]  # cycled per request: the "mixed" workload
FAIRNESS_TICKS = 12
QUICK_TENANTS = {"n": 256, "degree": 4, "ks": [16], "lengths": [256, 128, 512], "seed": 1201}


def _workload(graph, names, k: int, lengths: list[int]):
    """Deterministic mixed workload: request i -> tenant i mod 3, cycled length."""
    return [
        (
            names[i % len(names)],
            [(i * 37 + j * 13) % graph.n for j in range(k)],
            lengths[i % len(lengths)],
        )
        for i in range(REQUESTS_PER_TENANT * len(names))
    ]


def _fairness_deviation(engine_factory, k: int, length: int, ticks: int) -> dict:
    """Saturated top-up phase: worst relative deviation from weight shares.

    Every tenant's queue is kept at least three tickets deep before each
    tick, so deficit round robin — not arrival luck — decides the split;
    after ``ticks`` cohorts the attributed-rounds shares are compared to
    ``weight / Σ weights``.
    """
    engine = engine_factory()
    reg = TenantRegistry.parse(TENANT_SPEC)
    sched = engine.scheduler(
        tenants=reg,
        max_batch_walks=3 * k,
        pipelined_report=True,
        max_queue_depth=1_000_000,
    )
    n = engine.graph.n
    for t in range(ticks):
        for j, name in enumerate(reg.order):
            while len(sched._queues.get(name, ())) < 3:
                sources = [(t * 101 + j * 59 + i * 17) % n for i in range(k)]
                sched.submit(sources, length, tenant=name)
        sched.tick()
    stats = sched.stats().tenants
    total = sum(s["rounds_attributed"] for s in stats.values()) or 1
    weight_sum = sum(s["weight"] for s in stats.values())
    shares = {name: s["rounds_attributed"] / total for name, s in stats.items()}
    dev = max(
        abs(shares[name] - s["weight"] / weight_sum) / (s["weight"] / weight_sum)
        for name, s in stats.items()
    )
    return {"shares": shares, "max_rel_dev": dev}


def bench_tenants(
    n: int = TENANT_N,
    degree: int = TENANT_DEGREE,
    ks: list[int] | None = None,
    lengths: list[int] | None = None,
    seed: int = TENANT_SEED,
) -> dict:
    """One row per k: per-request vs. packed+pipelined rounds, same workload."""
    graph = random_regular_graph(n, degree, seed)
    lengths = TENANT_LENGTHS if lengths is None else lengths
    d_est = max(1, pseudo_diameter(graph))
    names = TenantRegistry.parse(TENANT_SPEC).order
    rows = []
    for k in ks if ks is not None else TENANT_KS:
        workload = _workload(graph, names, k, lengths)
        lam = many_walks_params(k, max(lengths), d_est, n=graph.n).lam

        def engine_factory():
            engine = WalkEngine(graph, seed=seed, record_paths=False, auto_maintain=False)
            engine.prepare(lam=lam)
            return engine

        def run(**knobs):
            engine = engine_factory()
            sched = engine.scheduler(tenants=TenantRegistry.parse(TENANT_SPEC), **knobs)
            base = engine.network.rounds
            for tenant, srcs, length in workload:
                sched.submit(srcs, length, tenant=tenant)
            sched.drain()
            return engine.network.rounds - base, sched.stats(), engine

        per_request_rounds, _, _ = run(max_batch_requests=1)
        packed_rounds, packed_stats, packed_engine = run(
            max_batch_walks=(5 * k) // 2, pipelined_report=True
        )
        fairness = _fairness_deviation(engine_factory, k, max(lengths), FAIRNESS_TICKS)

        walks_total = len(workload) * k
        rows.append(
            {
                "k": k,
                "requests": len(workload),
                "lengths": [length for _, _, length in workload],
                "lam": lam,
                "per_request_rounds": per_request_rounds,
                "packed_rounds": packed_rounds,
                "rounds_speedup": per_request_rounds / packed_rounds,
                "per_request_throughput_per_1k_rounds": 1000.0 * walks_total / per_request_rounds,
                "packed_throughput_per_1k_rounds": 1000.0 * walks_total / packed_rounds,
                "packed_cohorts": packed_stats.cohorts,
                "cohort_splits": packed_stats.cohort_splits,
                "pipelined_report_rounds": packed_engine.network.ledger.phase_rounds(
                    "serve/report"
                ),
                "fairness_shares": fairness["shares"],
                "fairness_max_rel_dev": fairness["max_rel_dev"],
            }
        )
    return {
        "schema": "bench_multi_tenant/v1",
        "n": graph.n,
        "degree": degree,
        "seed": seed,
        "tenants": TENANT_SPEC,
        "rows": rows,
    }


def main(argv: list[str]) -> int:
    section = bench_tenants(**QUICK_TENANTS) if "--quick" in argv else bench_tenants()
    write_sections({"multi_tenant": section})
    print(
        f"packed+pipelined vs per-request serving, 3 tenants ({section['tenants']}), "
        f"n={section['n']} regular({section['degree']}):"
    )
    for r in section["rows"]:
        print(
            f"  k={r['k']:>4}  λ={r['lam']:>4}  per-request {r['per_request_rounds']:>8} rounds  "
            f"packed {r['packed_rounds']:>8} rounds  ({r['rounds_speedup']:.2f}x)  "
            f"splits {r['cohort_splits']:>3}  fairness dev {r['fairness_max_rel_dev']:.1%}"
        )
    print(f"\nwrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
