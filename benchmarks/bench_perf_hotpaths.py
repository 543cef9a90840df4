"""Wall-clock microbenches for the three per-run hot paths.

Unlike the other benches (which measure *simulated rounds*), this one
measures *wall-clock seconds* for the code paths every run pays:

* **Phase-1 token creation** — ``perform_short_walks`` at ``η = 1``,
  ``record_paths=True`` (the columnar handover vs. the legacy per-token
  ``TokenRecord``-object loop, which is timed side-by-side as the
  baseline);
* **CSR construction** — ``Graph.__init__`` from a prebuilt edge array;
* **BFS build** — ``build_bfs_tree`` charged fast path vs. the
  event-driven flood protocol.

Results go to ``BENCH_HOTPATHS.json`` at the repo root in a
machine-readable schema so future PRs have a perf trajectory to compare
against::

    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py            # full run
    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py --quick    # tiny sizes

Under pytest the module runs as ``@pytest.mark.slow`` tests (excluded from
tier-1, which only collects ``tests/``; ``tests/test_perf_smoke.py`` keeps
a fast schema/speedup smoke in the gate).
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pytest

from repro.congest.network import Network
from repro.congest.primitives import build_bfs_tree
from repro.graphs.graph import Graph
from repro.util.rng import make_rng
from repro.walks.short_walks import perform_short_walks, token_counts
from repro.walks.store import TokenRecord, WalkStore

from hotpaths import RESULT_PATH, write_sections


SIZES = (1_000, 10_000, 50_000)
QUICK_SIZES = (256, 1_024)
LAM = 10
REPEATS = 3


def torus_edges(rows: int, cols: int) -> np.ndarray:
    """Edge array of a rows×cols torus (4-regular, n = rows·cols)."""
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.stack([idx, np.roll(idx, -1, axis=1)], axis=-1).reshape(-1, 2)
    down = np.stack([idx, np.roll(idx, -1, axis=0)], axis=-1).reshape(-1, 2)
    return np.concatenate([right, down])


def near_square(n: int) -> tuple[int, int]:
    rows = int(np.sqrt(n))
    while n % rows:
        rows -= 1
    return rows, n // rows


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _seed_style_phase1(network: Network, lam: int, counts: np.ndarray, seed: int) -> dict:
    """The pre-columnar Phase-1 storage loop, re-created as the baseline.

    Runs the identical vectorized stepping, then pays the legacy per-token
    tax: one frozen ``TokenRecord`` plus a path-row copy per token, filed
    into ``(holder, source)``-keyed dict buckets.
    """
    graph = network.graph
    rng = make_rng(seed)
    total = int(counts.sum())
    origins = np.repeat(np.arange(graph.n, dtype=np.int64), counts)
    target_len = lam + rng.integers(0, lam, size=total)
    max_len = int(target_len.max())
    positions = origins.copy()
    paths = np.empty((total, max_len + 1), dtype=np.int64)
    paths[:, 0] = origins
    for step in range(1, max_len + 1):
        active = target_len >= step
        if not np.any(active):
            break
        slots = graph.step_walk_slots(positions[active], rng)
        network.deliver_step(slots, words=2)
        positions[active] = graph.csr_target[slots]
        paths[active, step] = positions[active]
    buckets: dict[tuple[int, int], list[TokenRecord]] = {}
    for i in range(total):
        length = int(target_len[i])
        record = TokenRecord(
            token_id=i,
            source=int(origins[i]),
            length=length,
            destination=int(positions[i]),
            path=paths[i, : length + 1].copy(),
        )
        buckets.setdefault((record.destination, record.source), []).append(record)
    return buckets


def bench_phase1(n: int, *, seed: int = 42) -> dict:
    """Columnar vs. legacy per-object Phase-1 storage at η=1, paths on."""
    graph = Graph(n, torus_edges(*near_square(n)), name=f"torus-{n}")
    network = Network(graph, seed=0)
    counts = token_counts(graph.degrees, 1.0, degree_proportional=True)

    def columnar():
        store = WalkStore(graph.n)
        perform_short_walks(
            network, store, LAM, make_rng(seed), counts=counts, record_paths=True
        )
        return store

    columnar_s, store = _best_of(columnar)
    legacy_s, _ = _best_of(lambda: _seed_style_phase1(network, LAM, counts, seed))
    return {
        "n": n,
        "tokens": int(counts.sum()),
        "lam": LAM,
        "columnar_seconds": columnar_s,
        "legacy_seconds": legacy_s,
        "speedup": legacy_s / columnar_s,
        "store_unused": store.total_unused(),
    }


def bench_csr(n: int) -> dict:
    """Graph.__init__ (vectorized CSR scatter) from a prebuilt edge array."""
    edges = torus_edges(*near_square(n))
    seconds, graph = _best_of(lambda: Graph(n, edges, name=f"torus-{n}"))
    return {"n": n, "m": int(graph.m), "seconds": seconds}


def bench_bfs(n: int) -> dict:
    """Charged fast-path BFS vs. the event-driven flood protocol."""
    graph = Graph(n, torus_edges(*near_square(n)), name=f"torus-{n}")

    def fast():
        return build_bfs_tree(Network(graph), 0)

    fast_s, tree = _best_of(fast)
    # The protocol run is O(rounds × messages) in Python; keep it to the
    # sizes where it finishes promptly and report None beyond.
    if n <= 10_000:
        protocol_s, _ = _best_of(
            lambda: build_bfs_tree(Network(graph), 0, use_protocol=True), repeats=1
        )
    else:
        protocol_s = None
    return {
        "n": n,
        "height": tree.height,
        "fast_seconds": fast_s,
        "protocol_seconds": protocol_s,
        "speedup": (protocol_s / fast_s) if protocol_s is not None else None,
    }


def run_suite(sizes=SIZES) -> dict:
    results = {
        "schema": "bench_perf_hotpaths/v1",
        "lam": LAM,
        "eta": 1.0,
        "sizes": list(sizes),
        "phase1_token_creation": [],
        "csr_construction": [],
        "bfs_build": [],
    }
    for n in sizes:
        results["phase1_token_creation"].append(bench_phase1(n))
        results["csr_construction"].append(bench_csr(n))
        results["bfs_build"].append(bench_bfs(n))
    return results


# ----------------------------------------------------------------------
# pytest entry points (slow — excluded from tier-1)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("n", SIZES)
def test_phase1_columnar_beats_legacy(n):
    row = bench_phase1(n)
    assert row["speedup"] >= 5.0, f"phase-1 speedup regressed: {row}"


@pytest.mark.slow
def test_suite_emits_json(tmp_path):
    results = run_suite(sizes=QUICK_SIZES)
    out = tmp_path / "hotpaths.json"
    out.write_text(json.dumps(results))
    assert json.loads(out.read_text())["schema"] == "bench_perf_hotpaths/v1"


def main(argv: list[str]) -> int:
    sizes = QUICK_SIZES if "--quick" in argv else SIZES
    results = run_suite(sizes=sizes)
    write_sections(results)
    for row in results["phase1_token_creation"]:
        print(
            f"phase1 n={row['n']:>6}: columnar {row['columnar_seconds']*1e3:8.1f} ms  "
            f"legacy {row['legacy_seconds']*1e3:8.1f} ms  speedup {row['speedup']:.1f}x"
        )
    for row in results["csr_construction"]:
        print(f"csr    n={row['n']:>6}: {row['seconds']*1e3:8.1f} ms  (m={row['m']})")
    for row in results["bfs_build"]:
        proto = f"{row['protocol_seconds']*1e3:8.1f} ms" if row["protocol_seconds"] else "   (skipped)"
        print(f"bfs    n={row['n']:>6}: fast {row['fast_seconds']*1e3:8.1f} ms  protocol {proto}")
    print(f"\nwrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
