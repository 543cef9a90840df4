"""Slow guard: a serving sweep costs what it touches, not the network size.

Serves one fixed request mix at n ∈ {10⁴, 4·10⁴, 1.6·10⁵}, back to back in
one process, and times only the serve phase (set-up and a warm-up request
that pays the shared BFS tree stay outside the timer).  The graph is a ring
plus two random perfect matchings: 4-regular, connected, diameter
``O(log n)``, and quick to build.

Stitching one walk touches the connector's tokens, their tree paths and the
slots a tail step crosses — none of which grows with n on this family — so
serve wall time per walk must grow much more slowly than n.  A store index
or per-step count that scans every token or every slot grows linearly and
fails the bound.  A ratio taken inside one process is less exposed to
machine drift than an absolute time, but it is still wall-clock, so the
test lives in the slow tier.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Graph, WalkEngine
from repro.serve import DONE
from repro.util.rng import make_rng

SIZES = (10_000, 40_000, 160_000)
#: The fixed mix: request i asks for KS[i % 3] walks of length LENGTHS[i % 3].
REQUESTS = 36
KS = (4, 8, 16)
LENGTHS = (512, 1024, 2048)
#: n grows 16× from the smallest size to the largest; per-walk time may
#: grow by at most this factor (a store that scans every token grows ~6×).
MAX_GROWTH = 3.0


def ring_plus_matchings(n: int, seed: int) -> Graph:
    rng = make_rng(seed)
    ring = np.arange(n, dtype=np.int64)
    edges = [np.stack([ring, (ring + 1) % n], axis=1)]
    for _ in range(2):
        perm = rng.permutation(n)
        edges.append(perm.reshape(-1, 2))
    return Graph(n, np.concatenate(edges), name=f"ring+matchings:{n}")


def serve_seconds_per_walk(n: int) -> float:
    engine = WalkEngine(ring_plus_matchings(n, seed=0), seed=0, auto_maintain=False)
    engine.prepare(length_hint=1024)
    sched = engine.scheduler(max_batch_walks=64, maintain_round_budget=256)
    sched.submit(0, 1024)  # warm-up: builds the shared tree outside the timer
    sched.drain()
    rng = make_rng(1)
    mix = [
        (rng.integers(0, n, size=KS[i % 3]).tolist(), LENGTHS[i % 3]) for i in range(REQUESTS)
    ]
    start = time.perf_counter()
    tickets = [sched.submit(sources, length) for sources, length in mix]
    sched.drain()
    elapsed = time.perf_counter() - start
    walks = sum(t.k for t in tickets if t.status == DONE)
    assert walks == sum(KS[i % 3] for i in range(REQUESTS))
    return elapsed / walks


@pytest.mark.slow
def test_serve_wall_per_walk_grows_much_slower_than_n():
    per_walk = {n: serve_seconds_per_walk(n) for n in SIZES}
    growth = per_walk[SIZES[-1]] / per_walk[SIZES[0]]
    detail = ", ".join(f"n={n}: {1e3 * s:.2f} ms/walk" for n, s in per_walk.items())
    assert growth <= MAX_GROWTH, f"per-walk serve time grew {growth:.1f}x over 16x n ({detail})"
