"""Amortized cost of engine reuse vs. fresh one-shot calls.

The point of the ``WalkEngine`` session API is that the Θ(η·m) Phase-1
token preparation is paid once per *session*, not once per *query*.  This
bench serves ``QUERIES`` walk requests two ways:

* **fresh** — one ``single_random_walk`` call per query (the pre-engine
  shape: every call rebuilds the network, the BFS cache, and a full
  Phase-1 pool);
* **reused** — one ``WalkEngine`` serving all queries from its persistent
  pool, refilling dry connectors via GET-MORE-WALKS.

It runs both ``REPEATS`` times, alternating which side goes first, and
reports each side's median wall-clock seconds (with min and max) and its
*simulated rounds*, which repeat exactly.  One run of either side swings
by up to 2× on a shared machine, so only the medians are compared.  The
row goes to the ``engine_reuse`` section of ``BENCH_HOTPATHS.json`` (the
repo's perf trajectory record, shared with ``bench_perf_hotpaths.py``)::

    PYTHONPATH=src python benchmarks/bench_engine_reuse.py            # full run
    PYTHONPATH=src python benchmarks/bench_engine_reuse.py --quick    # tiny config

Under pytest the module's acceptance checks are ``@pytest.mark.slow``
(wall-clock assertions never gate tier-1 on a loaded machine);
``tests/test_perf_smoke.py`` keeps a schema check on the committed JSON in
the fast gate.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import pytest

from repro.engine import WalkEngine
from repro.graphs import torus_graph
from repro.walks import single_random_walk

from hotpaths import RESULT_PATH, write_sections


QUERIES = 100
ROWS, COLS = 16, 16
LENGTH = 2048
SEED = 42
#: Timed runs per side; the reported seconds are their median.
REPEATS = 5

QUICK = {"queries": 10, "rows": 8, "cols": 8, "length": 256}


def _fresh_calls(graph, sources: list[int], length: int, seed: int) -> tuple[float, int]:
    """Seconds and simulated rounds of one ``single_random_walk`` call per query."""
    t0 = time.perf_counter()
    rounds = 0
    for i, source in enumerate(sources):
        res = single_random_walk(graph, source, length, seed=seed + i, record_paths=False)
        rounds += res.rounds
    return time.perf_counter() - t0, rounds


def _reused_engine(graph, sources: list[int], length: int, seed: int):
    """Seconds and final stats of one ``WalkEngine`` serving every query."""
    t0 = time.perf_counter()
    engine = WalkEngine(graph, seed=seed, record_paths=False)
    for source in sources:
        engine.walk(source, length)
    return time.perf_counter() - t0, engine.stats()


def bench_engine_reuse(
    queries: int = QUERIES,
    rows: int = ROWS,
    cols: int = COLS,
    length: int = LENGTH,
    seed: int = SEED,
) -> dict:
    """Run the fresh-vs-reused comparison ``REPEATS`` times; returns the JSON row."""
    graph = torus_graph(rows, cols)
    sources = [(i * 7) % graph.n for i in range(queries)]

    fresh_times: list[float] = []
    engine_times: list[float] = []
    for rep in range(REPEATS):
        for fresh_side in ((True, False) if rep % 2 == 0 else (False, True)):
            if fresh_side:
                seconds, fresh_rounds = _fresh_calls(graph, sources, length, seed)
                fresh_times.append(seconds)
            else:
                seconds, stats = _reused_engine(graph, sources, length, seed)
                engine_times.append(seconds)
    fresh_seconds = statistics.median(fresh_times)
    engine_seconds = statistics.median(engine_times)

    return {
        "n": graph.n,
        "length": length,
        "queries": queries,
        "repeats": REPEATS,
        "fresh_seconds": fresh_seconds,
        "fresh_seconds_min": min(fresh_times),
        "fresh_seconds_max": max(fresh_times),
        "engine_seconds": engine_seconds,
        "engine_seconds_min": min(engine_times),
        "engine_seconds_max": max(engine_times),
        "wallclock_speedup": fresh_seconds / engine_seconds,
        "fresh_rounds": fresh_rounds,
        "engine_rounds": stats.rounds,
        "rounds_speedup": fresh_rounds / stats.rounds,
        "fresh_seconds_per_query": fresh_seconds / queries,
        "engine_seconds_per_query": engine_seconds / queries,
        "full_preparations": stats.full_preparations,
        "refills": stats.refills,
        "tokens_prepared": stats.tokens_prepared,
        "tokens_consumed": stats.tokens_consumed,
    }


# ----------------------------------------------------------------------
# pytest entry points (slow — excluded from tier-1)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_engine_reuse_beats_fresh_calls():
    row = bench_engine_reuse()
    assert row["full_preparations"] == 1, f"pool was rebuilt mid-stream: {row}"
    # Medians of alternating repeats: a single pair of runs swings either way.
    assert row["engine_seconds"] < row["fresh_seconds"], f"reuse lost on median wall-clock: {row}"
    assert row["engine_rounds"] < row["fresh_rounds"], f"reuse lost on simulated rounds: {row}"


@pytest.mark.slow
def test_quick_config_schema():
    row = bench_engine_reuse(**QUICK)
    assert row["queries"] == QUICK["queries"]
    assert json.loads(json.dumps(row)) == row


def main(argv: list[str]) -> int:
    row = bench_engine_reuse(**QUICK) if "--quick" in argv else bench_engine_reuse()
    write_sections({"engine_reuse": row})
    print(
        f"{row['queries']} queries of length {row['length']} on n={row['n']}, "
        f"median of {row['repeats']} alternating runs:\n"
        f"  fresh calls : {row['fresh_seconds']:8.2f} s   {row['fresh_rounds']:>9} rounds"
        f"   (min {row['fresh_seconds_min']:.2f}, max {row['fresh_seconds_max']:.2f})\n"
        f"  engine reuse: {row['engine_seconds']:8.2f} s   {row['engine_rounds']:>9} rounds"
        f"   (min {row['engine_seconds_min']:.2f}, max {row['engine_seconds_max']:.2f})\n"
        f"  speedup     : {row['wallclock_speedup']:8.1f} x   {row['rounds_speedup']:9.1f} x\n"
        f"  preparations: {row['full_preparations']}  refills: {row['refills']}  "
        f"tokens {row['tokens_consumed']}/{row['tokens_prepared']}"
    )
    print(f"\nwrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
