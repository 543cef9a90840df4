"""Workloads of the end-to-end serving benchmark and their seeded inputs.

Every workload serves the same three-tenant open-loop traffic shape
(modelled on ``examples/slo_dashboard.py``) on a random 4-regular graph;
they differ in size and in which layers they load.  All inputs — the
graph's edge array, the arrivals, the churn deltas and the crash
schedule — are made here, before and outside every timer, so the timed
code receives only generated inputs.

The graph of each size is pinned: it is always
``random_regular_graph(n, 4, GRAPH_SEED)``, cached as an edge array under
``.inputs/`` and checked against :data:`GRAPH_DIGESTS` on every run, so a
change to the generator shows up as a changed workload, not as a speed-up.
``--seed`` drives everything else (arrivals, engine RNG, churn, crashes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import Graph, random_regular_graph
from repro.congest.faults import FaultSchedule, FaultStep
from repro.dynamic import sample_churn_delta

INPUT_DIR = Path(__file__).resolve().parent / ".inputs"

DEGREE = 4
GRAPH_SEED = 0
DEFAULT_SEED = 0
#: Tenants and their fair-share weights, no quotas.
TENANTS = (("bronze", 1.0), ("silver", 2.0), ("gold", 4.0))
DEADLINE = 8192
LENGTH_HINT = 1024
POLICY = {
    "max_batch_walks": 64,
    "pipelined_report": True,
    "maintain_round_budget": 256,
    "max_queue_depth": 4096,
}
#: Both SLO rules of the observed workload: one latency rule, one reject rule.
SLO_RULES = (
    "name=latency,metric=latency,target=8192,objective=0.1,burn=2,window=16,min_events=4",
    "name=rejects,metric=reject,objective=0.01,window=16",
)
#: Sessions per run.  Each sets up from scratch and serves the same
#: inputs for a third of the run's seconds; set-up time is their median.
SESSIONS = 3
QUICK_N = 2_000
QUICK_TICKS = 10  # per session

#: sha256 of the little-endian int64 edge array of each pinned graph, by n.
GRAPH_DIGESTS = {
    2_000: "f776af508a41a1245569383de40890b579e9a2792ead5728470be4a1dbb85949",
    10_000: "2109873431c5a6f9b3cc348274486a41316c8b7a90d958dbb236d41b7b082c83",
    20_000: "7d0d81efce8e7c1a3cb7bffb4bf250f39d171ade393ec23df1d788445ef6b559",
    100_000: "ac8f1a938dbfed7184918f4723346479cabc8a6dbd9a79106f3a27df205444bd",
    500_000: "8f41d479e073e7a1817493b449f907fe4764ceb10ec75e7e509b70a7e0ceaa9f",
}


@dataclass(frozen=True)
class Workload:
    """One traffic mix; ``ticks_per_s`` sizes each session's serve phase from ``--seconds``."""

    name: str
    why: str
    n: int
    rate: float  # arrivals per tenant per tick
    ticks_per_s: float
    lengths: tuple[int, ...] = (512, 1024, 2048)
    ks: tuple[int, ...] = (4, 8, 16)
    record_paths: bool = False
    observed: bool = False
    churn_every: int = 0  # ticks between churn deltas; 0 = no churn
    churn_frac: float = 0.0  # share of edges deleted (and as many inserted) per delta
    crash_frac: float = 0.0  # share of nodes crashed over the serve window
    crash_bursts: int = 1  # crashes land in this many simultaneous groups
    recover_after: int = 2_000
    rounds_per_tick: int = 0  # span of the crash window per serve tick

    def ticks(self, seconds: float) -> int:
        """Serve ticks of one session, so that a run serves for about ``seconds``."""
        return max(1, round(self.ticks_per_s * seconds / SESSIONS))

    def quick(self) -> Workload:
        """The same mix on a small graph, for the test profile (run for ``QUICK_TICKS``)."""
        return dataclasses.replace(self, n=QUICK_N, rate=1.0, churn_every=min(self.churn_every, 5))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady-100k",
            why=(
                "stitching, store lookups and refill sweeps only: the control that churn, "
                "fault and obs optimisations must not move"
            ),
            n=100_000,
            rate=0.4,
            ticks_per_s=13.0,
        ),
        Workload(
            name="churn-crash-20k",
            why=(
                "the only workload with churn and crash/recover: path scans, evictions, "
                "shard restores and CSR rebuilds"
            ),
            n=20_000,
            rate=0.7,
            ticks_per_s=5.1,
            record_paths=True,
            churn_every=5,
            churn_frac=0.00125,
            crash_frac=0.001,
            crash_bursts=4,
            rounds_per_tick=1_400,
        ),
        Workload(
            name="observed-10k",
            why="tracer, metrics, heatmap and SLO monitor attached: obs sinks and heatmap staging",
            n=10_000,
            rate=0.4,
            ticks_per_s=12.0,
            observed=True,
        ),
        Workload(
            name="scale-500k",
            why="set-up and memory at half a million nodes: Phase 1, index width and O(tokens) work",
            n=500_000,
            rate=1.5,
            ticks_per_s=3.5,
            lengths=(256, 512, 1024),
            ks=(1, 2, 4),
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run feeds the system, made from the seed."""

    edges: np.ndarray
    #: Per serve tick: the (tenant, sources, length) requests submitted before it.
    arrivals: list[list[tuple[str, list[int], int]]]
    warmup: tuple[str, list[int], int]
    #: Serve tick -> churn delta applied before that tick's submissions.
    churn: dict
    #: Crash schedule with rounds relative to the end of setup.
    faults: FaultSchedule | None


def edge_digest(edges: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(edges, dtype="<i8").tobytes()).hexdigest()


def pinned_edges(n: int) -> np.ndarray:
    """The pinned graph's edge array, generated once and cached, digest-checked."""
    path = INPUT_DIR / f"rr{DEGREE}-n{n}-g{GRAPH_SEED}.npy"
    if path.is_file():
        edges = np.load(path)
    else:
        edges = random_regular_graph(n, DEGREE, GRAPH_SEED).edge_array
        INPUT_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npy")
        np.save(tmp, edges)
        os.replace(tmp, path)
    digest = edge_digest(edges)
    if digest != GRAPH_DIGESTS.get(n):
        raise RuntimeError(
            f"graph n={n} has edge digest {digest}, pinned {GRAPH_DIGESTS.get(n)!r}: "
            f"the generator changed or {path} is corrupt"
        )
    return edges


def _arrivals(wl: Workload, rng: np.random.Generator, ticks: int) -> list:
    """Open-loop arrivals on a fixed schedule, ``rate`` per tenant per tick.

    The tenants take turns in one evenly spaced stream that starts at a
    seeded phase.  Each tenant cycles through every (k, ℓ) pair of the
    menu, offset from the others so that requests sharing a tick differ
    in size.  The seed moves the phase and the sources, never the work
    offered or how it bunches up.  With Poisson arrivals, or a seeded
    order of sizes, the few ticks that drew several large requests (or a
    crash) set the wall latency percentiles, which then moved by up to 38%
    (IQR over median) from seed to seed at ~100 requests a run.
    """
    menu = [(k, length) for k in wl.ks for length in wl.lengths]
    count = max(1, round(wl.rate * ticks))
    phase = rng.random()
    total = count * len(TENANTS)
    arrivals: list[list] = [[] for _ in range(ticks)]
    for m in range(total):
        turn, i = m % len(TENANTS), m // len(TENANTS)
        k, length = menu[(i + turn * len(menu) // len(TENANTS)) % len(menu)]
        sources = [int(s) for s in rng.integers(wl.n, size=k)]
        arrivals[int((m + phase) * ticks / total)].append((TENANTS[turn][0], sources, length))
    return arrivals


def make_inputs(wl: Workload, seed: int, ticks: int) -> Inputs:
    edges = pinned_edges(wl.n)
    traffic = np.random.default_rng([seed, 1])
    k, length = wl.ks[0], wl.lengths[0]
    warmup = (TENANTS[-1][0], [int(s) for s in traffic.integers(wl.n, size=k)], length)
    arrivals = _arrivals(wl, traffic, ticks)

    churn = {}
    if wl.churn_every:
        rng = np.random.default_rng([seed, 2])
        scratch = Graph(wl.n, edges, name="churn-inputs")
        per_delta = max(1, round(wl.churn_frac * len(edges)))
        for tick in range(wl.churn_every, ticks, wl.churn_every):
            delta = sample_churn_delta(scratch, rng, deletes=per_delta, inserts=per_delta)
            scratch.apply_delta(delta)
            churn[tick] = delta

    faults = None
    if wl.crash_frac:
        # Churn endpoints never crash: a churn delta must not touch an edge
        # a crash has taken away, nor give a crashed node a new one.
        allowed = np.ones(wl.n, dtype=bool)
        for delta in churn.values():
            allowed[delta.insert_edges.ravel()] = False
            allowed[delta.delete_edges.ravel()] = False
        crashes = math.ceil(wl.crash_frac * wl.n)
        victims = np.random.default_rng([seed, 3]).choice(
            np.flatnonzero(allowed), crashes, replace=False
        )
        # A few bursts, evenly spaced over the serve window, each recovering
        # before the next lands, so about the same few ticks meet a fault on
        # every seed; single crashes spread over every other tick
        # made the wall-latency median flip between faulty and clean ticks.
        bursts = np.array_split(victims, min(wl.crash_bursts, crashes))
        spacing = max(wl.recover_after + 1, ticks * wl.rounds_per_tick // len(bursts))
        steps = []
        for i, nodes in enumerate(bursts):
            at = spacing // 2 + i * spacing
            steps.append(FaultStep(at_round=at, crash=tuple(nodes.tolist())))
            steps.append(FaultStep(at_round=at + wl.recover_after, recover=tuple(nodes.tolist())))
        faults = FaultSchedule(steps=tuple(steps))
    return Inputs(edges=edges, arrivals=arrivals, warmup=warmup, churn=churn, faults=faults)


def shift_faults(schedule: FaultSchedule, base_round: int) -> FaultSchedule:
    """The schedule with every step moved ``base_round`` rounds later."""
    return FaultSchedule(
        steps=tuple(
            FaultStep(at_round=s.at_round + base_round, crash=s.crash, recover=s.recover)
            for s in schedule.steps
        )
    )
