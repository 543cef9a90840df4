"""Crash-fault bench: deadline misses and recovery overhead vs. crash rate.

The PR-6 acceptance shape: the n=10k random regular serving session drains
an 8-request mixed workload while a seeded crash/recover schedule
(:meth:`FaultSchedule.sample`, connectivity-preserving) fires underneath
it, at crash rates of 0, 0.1% and 1% of the node population.  Each row
reports

* **graceful degradation** — deadline-miss rate against a budget of
  1.5× the healthy run's p99 latency (misses are counted; requests are
  *never* dropped — ``completed == admitted`` is asserted);
* **recovery overhead** — the ``"serve/recovery"`` ledger bill (pool
  eviction, shard regeneration, tree rebuilds, prefix replays, backoff
  waits) and the total-round inflation over the fault-free run;
* **incremental vs. discard** — the baseline is *measured*, not modeled:
  a second run of the identical schedule with ``record_paths=False``,
  where every fault event falls back to discarding the whole pool
  (``live_rows`` eviction + full regeneration, the churn fallback) and
  every in-flight walk restarts from its source instead of resuming from
  a surviving prefix.  Incremental recovery touches only the dead
  neighborhoods and replays already-sampled prefixes, so the
  recovery-bill ratio at 1% crash rate is the headline number
  ``tests/test_perf_smoke.py`` guards (≥ 2×).

One seed's rows move with any change to the RNG stream, so the full sweep
also runs seeds 1201–1205 (each seed draws its own graph, workload timing
and crash schedule) and records, per crash rate, every seed's deadline
misses and round bills with their median, min and max (``by_seed``).  The
section's ``rows`` are seed 1201's.  ``--quick`` runs one seed.

Deterministic at fixed seeds; measured in simulated rounds::

    PYTHONPATH=src python benchmarks/bench_faults.py           # full sweep, five seeds
    PYTHONPATH=src python benchmarks/bench_faults.py --quick   # tiny config, one seed
"""

from __future__ import annotations

import math
import statistics
import sys

from repro.congest.faults import FaultSchedule
from repro.engine import WalkEngine
from repro.graphs import random_regular_graph

from hotpaths import RESULT_PATH, write_sections


FAULT_N = 10_000
FAULT_DEGREE = 4
FAULT_LAM = 5
FAULT_ETA = 4.0
FAULT_SEED = 1201
#: Seeds of the spread block; the first is the one ``rows`` reports.
FAULT_SEEDS = list(range(FAULT_SEED, FAULT_SEED + 5))
#: Per-seed figures the spread block keeps for every crash rate.
SPREAD_KEYS = ("deadline_misses", "total_rounds", "recovery_rounds", "discard_recovery_rounds")
FAULT_CRASH_RATES = [0.0, 0.001, 0.01]
FAULT_RECOVER_AFTER = 2_000
FAULT_REQUESTS = 8
FAULT_K = 16
FAULT_LENGTHS = [512, 256, 1024]
QUICK_FAULTS = {
    "n": 512,
    "crash_rates": [0.0, 0.01],
    "recover_after": 400,
    "requests": 4,
    "k": 4,
    "lengths": [128, 64],
    "seed": 1201,
}


def _workload(graph, k: int, requests: int, lengths: list[int]):
    """The bench_serve mixed workload: spread sources, cycled lengths."""
    return [
        ([(i * 37 + j * 13) % graph.n for j in range(k)], lengths[i % len(lengths)])
        for i in range(requests)
    ]


def _fresh_session(
    graph, *, lam: int, eta: float, seed: int, deadline: int | None, record_paths: bool = True
):
    engine = WalkEngine(
        graph, seed=seed, record_paths=record_paths, eta=eta, auto_maintain=False
    )
    engine.prepare(lam=lam)
    scheduler = engine.scheduler(
        max_batch_requests=4,
        maintain_round_budget=128,
        default_deadline=deadline,
    )
    return engine, scheduler


def _drain(scheduler, workload):
    for sources, length in workload:
        scheduler.submit(sources, length)
    scheduler.drain()


def bench_faults(
    n: int = FAULT_N,
    degree: int = FAULT_DEGREE,
    lam: int = FAULT_LAM,
    eta: float = FAULT_ETA,
    crash_rates: list[float] | None = None,
    recover_after: int = FAULT_RECOVER_AFTER,
    requests: int = FAULT_REQUESTS,
    k: int = FAULT_K,
    lengths: list[int] | None = None,
    seed: int = FAULT_SEED,
) -> dict:
    """One row per crash rate: miss rate, recovery bill, rebuild speedup."""
    lengths = lengths if lengths is not None else list(FAULT_LENGTHS)
    graph = random_regular_graph(n, degree, seed)
    workload = _workload(graph, k, requests, lengths)

    # Sizing pass: the healthy run's span fixes the fault window and its
    # p99 latency fixes the deadline budget every row is judged against.
    engine, scheduler = _fresh_session(graph, lam=lam, eta=eta, seed=seed, deadline=None)
    base = engine.network.rounds
    _drain(scheduler, workload)
    clean_span = engine.network.rounds - base
    deadline = int(1.5 * scheduler.stats().p99_latency_rounds)

    def _serve_over_faults(rate: float, record_paths: bool):
        engine, scheduler = _fresh_session(
            graph, lam=lam, eta=eta, seed=seed, deadline=deadline, record_paths=record_paths
        )
        start = engine.network.rounds
        if rate > 0:
            schedule = FaultSchedule.sample(
                graph,
                crashes=int(math.ceil(rate * n)),
                start_round=start + 50,
                end_round=start + clean_span,
                recover_after=recover_after,
                seed=seed + 3,
            )
            engine.attach_faults(schedule)
        _drain(scheduler, workload)
        stats = scheduler.stats()
        assert stats.completed == stats.admitted  # degradation, not drops
        return stats, engine.network.rounds - start

    rows = []
    clean_total = None
    for rate in crash_rates if crash_rates is not None else FAULT_CRASH_RATES:
        stats, total_rounds = _serve_over_faults(rate, record_paths=True)
        if rate == 0:
            clean_total = total_rounds
        row = {
            "crash_rate": rate,
            "crashes_fired": stats.crashes_seen,
            "recoveries_fired": stats.recoveries_seen,
            "completed": stats.completed,
            "deadline_misses": stats.deadline_misses,
            "miss_rate": stats.deadline_misses / max(1, stats.completed),
            "ticket_retries": stats.ticket_retries,
            "backoff_waits": stats.backoff_waits,
            "walks_recovered": stats.walks_recovered,
            "walks_restarted": stats.walks_restarted,
            "recovery_rounds": stats.recovery_rounds,
            "total_rounds": total_rounds,
            "round_overhead": total_rounds / max(1, clean_total or total_rounds),
        }
        if rate > 0:
            # Discard baseline: same schedule, no recorded paths — every
            # event dumps the whole pool and restarts in-flight walks.
            base_stats, base_total = _serve_over_faults(rate, record_paths=False)
            row["discard_recovery_rounds"] = base_stats.recovery_rounds
            row["discard_total_rounds"] = base_total
            row["recovery_speedup"] = base_stats.recovery_rounds / max(
                1, stats.recovery_rounds
            )
        rows.append(row)
    return {
        "schema": "bench_fault_recovery/v1",
        "n": n,
        "degree": degree,
        "lam": lam,
        "eta": eta,
        "seed": seed,
        "recover_after": recover_after,
        "requests": requests,
        "k": k,
        "lengths": lengths,
        "deadline": deadline,
        "clean_span": clean_span,
        "rows": rows,
    }


def seed_spread(sections: list[dict]) -> dict:
    """Per crash rate, each section's completions, misses and round bills, and their spread.

    ``sections`` are :func:`bench_faults` results at different seeds, in
    seed order.  Each row lists one value per seed under every key of
    :data:`SPREAD_KEYS` the rate reports (the fault-free rate has no
    discard run), and ``spread`` gives their median, min and max.
    """
    rows = []
    for i, first in enumerate(sections[0]["rows"]):
        row = {
            "crash_rate": first["crash_rate"],
            "completed": [s["rows"][i]["completed"] for s in sections],
        }
        spread = {}
        for key in SPREAD_KEYS:
            if key in first:
                values = [s["rows"][i][key] for s in sections]
                row[key] = values
                spread[key] = {
                    "median": statistics.median(values), "min": min(values), "max": max(values)
                }
        row["spread"] = spread
        rows.append(row)
    return {
        "seeds": [s["seed"] for s in sections],
        "deadlines": [s["deadline"] for s in sections],
        "rows": rows,
    }


def main(argv: list[str]) -> int:
    if "--quick" in argv:
        sections = [bench_faults(**QUICK_FAULTS)]
    else:
        sections = [bench_faults(seed=seed) for seed in FAULT_SEEDS]
    section = dict(sections[0], by_seed=seed_spread(sections))
    write_sections({"fault_recovery": section})
    print(
        f"crash-fault serving, n={section['n']} regular({section['degree']}), "
        f"λ={section['lam']}, η={section['eta']:g}, "
        f"{section['requests']}×k={section['k']} requests, "
        f"deadline={section['deadline']} rounds:"
    )
    for r in section["rows"]:
        vs = (
            f"  vs discard {r['recovery_speedup']:.1f}x"
            if "recovery_speedup" in r
            else ""
        )
        print(
            f"  crash={r['crash_rate']:.2%}  events {r['crashes_fired']}+{r['recoveries_fired']}  "
            f"misses {r['deadline_misses']}/{r['completed']} ({r['miss_rate']:.0%})  "
            f"recovery {r['recovery_rounds']:>6} rounds  total {r['total_rounds']:>7} "
            f"({r['round_overhead']:.2f}x clean){vs}"
        )
    by_seed = section["by_seed"]
    print(f"\nover seeds {by_seed['seeds']} (median [min, max]):")
    for r in by_seed["rows"]:
        cells = "  ".join(
            f"{key} {v['median']:g} [{v['min']}, {v['max']}]" for key, v in r["spread"].items()
        )
        print(f"  crash={r['crash_rate']:.2%}  {cells}")
    print(f"\nwrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
