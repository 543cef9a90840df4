"""Observability overhead bench: the zero-cost-when-off contract, measured.

One scheduled serving workload (n=2000 random regular graph, 24 mixed
k=8 requests through walk-count-packed pipelined cohorts) is served
three times from identical seeds:

* **baseline** — observability never attached: ``ledger.observer`` stays
  ``None``, so the hot charge path pays exactly one ``is not None`` test;
* **disabled** — ``attach_observability()`` with no sinks: the inert
  :class:`~repro.obs.probe.Probe` is installed as the ledger observer,
  so every charge/push/pop additionally pays the probe's early-return
  hook — the cost of *having* the instrumentation wired;
* **traced** — a default-ring :class:`~repro.obs.trace.Tracer` plus a
  :class:`~repro.obs.metrics.MetricsRegistry`: full span construction,
  context merging, and counter updates on every charge.

Wall times are best-of-``REPEATS`` via the audited
:func:`repro.obs.clock.perf_counter` wrapper; the simulated round totals
are asserted identical across all three configs in-bench (the passivity
contract, cross-checked here so a perf run can never silently diverge).
``tests/test_perf_smoke.py`` guards the *committed* section — disabled
≤ 3% over baseline, traced ≤ 25% at the default ring size — plus a live
schema smoke at quick scale::

    PYTHONPATH=src python benchmarks/bench_obs.py           # full workload
    PYTHONPATH=src python benchmarks/bench_obs.py --quick   # tiny config
"""

from __future__ import annotations

import sys

from repro.engine import WalkEngine
from repro.graphs import random_regular_graph
from repro.obs import DEFAULT_RING_SIZE, HeatmapSink, MetricsRegistry, SloMonitor, SloSpec, Tracer
from repro.obs.clock import perf_counter

from hotpaths import RESULT_PATH, write_sections


OBS_N = 2_000
OBS_DEGREE = 4
OBS_SEED = 907
OBS_REQUESTS = 48
OBS_K = 8
OBS_LENGTHS = [256, 512, 128]  # cycled per request
REPEATS = 9
#: The committed guards (mirrored in tests/test_perf_smoke.py).
LIMIT_DISABLED = 0.03
LIMIT_TRACED = 0.25
#: PR-10 guards: congestion cartography + streaming SLO windows stay
#: within these wall-clock envelopes while conserving every message.
LIMIT_DETACHED = 0.03
LIMIT_HEATMAP = 0.35
LIMIT_SLO = 0.35

QUICK_OBS = {"n": 256, "requests": 6, "k": 4, "lengths": [128], "repeats": 2}


def _serve_once(graph, *, seed, requests, k, lengths, attach):
    """One full serve session; returns (wall_seconds, rounds, engine)."""
    engine = WalkEngine(graph, seed=seed, record_paths=False, auto_maintain=False)
    sinks = attach(engine)
    start = perf_counter()
    sched = engine.scheduler(max_batch_walks=3 * k, pipelined_report=True)
    n = graph.n
    for i in range(requests):
        sources = [(i * 37 + j * 13) % n for j in range(k)]
        sched.submit(sources, lengths[i % len(lengths)])
    sched.drain()
    elapsed = perf_counter() - start
    del sinks
    return elapsed, engine.network.rounds, engine


def bench_obs_overhead(
    n: int = OBS_N,
    degree: int = OBS_DEGREE,
    seed: int = OBS_SEED,
    requests: int = OBS_REQUESTS,
    k: int = OBS_K,
    lengths: list[int] | None = None,
    repeats: int = REPEATS,
) -> dict:
    """Best-of-``repeats`` wall time per config, interleaved to share cache state."""
    graph = random_regular_graph(n, degree, seed)
    lengths = OBS_LENGTHS if lengths is None else lengths
    configs = {
        "baseline": lambda engine: None,
        "disabled": lambda engine: engine.attach_observability(),
        "traced": lambda engine: engine.attach_observability(
            tracer=Tracer(), metrics=MetricsRegistry()
        ),
    }
    best: dict[str, float] = {name: float("inf") for name in configs}
    rounds: dict[str, int] = {}
    last_engine = None
    kwargs = dict(seed=seed, requests=requests, k=k, lengths=lengths)
    # Interleave configs within each repetition so cache/allocator drift
    # hits all three equally instead of biasing whichever runs last.
    for _ in range(repeats):
        for name, attach in configs.items():
            elapsed, r, engine = _serve_once(graph, attach=attach, **kwargs)
            best[name] = min(best[name], elapsed)
            rounds[name] = r
            if name == "traced":
                last_engine = engine
    assert len(set(rounds.values())) == 1, f"observer perturbed the simulation: {rounds}"
    probe = last_engine.obs
    tracer, metrics = probe.tracer, probe.metrics
    return {
        "schema": "bench_obs_overhead/v1",
        "n": graph.n,
        "degree": degree,
        "seed": seed,
        "requests": requests,
        "k": k,
        "lengths": lengths,
        "repeats": repeats,
        "ring_size": DEFAULT_RING_SIZE,
        "rounds": rounds["baseline"],
        "baseline_s": best["baseline"],
        "disabled_s": best["disabled"],
        "traced_s": best["traced"],
        "overhead_disabled": best["disabled"] / best["baseline"] - 1.0,
        "overhead_traced": best["traced"] / best["baseline"] - 1.0,
        "spans": tracer.emitted,
        "spans_dropped": tracer.dropped,
        "metrics_series": len(metrics),
        "limits": {"disabled": LIMIT_DISABLED, "traced": LIMIT_TRACED},
    }


def bench_congestion_heatmap(
    n: int = OBS_N,
    degree: int = OBS_DEGREE,
    seed: int = OBS_SEED,
    requests: int = OBS_REQUESTS,
    k: int = OBS_K,
    lengths: list[int] | None = None,
    repeats: int = REPEATS,
) -> dict:
    """Per-edge attribution overhead + in-bench conservation audit.

    Three configs from identical seeds: never-attached baseline, an
    inert ``attach_observability()`` (the detached staging guard on the
    charge path), and a live :class:`HeatmapSink`.  Beyond the wall
    clock, the bench asserts the PR-10 conservation identity on the
    heatmapped run: every ledger phase's messages are fully attributed
    (``located + retired + residual == messages``) with zero residual,
    and the per-edge congestion maxima reproduce the ledger scalar.
    """
    graph = random_regular_graph(n, degree, seed)
    lengths = OBS_LENGTHS if lengths is None else lengths
    configs = {
        "baseline": lambda engine: None,
        "detached": lambda engine: engine.attach_observability(),
        "heatmap": lambda engine: engine.attach_observability(heatmap=HeatmapSink()),
    }
    best: dict[str, float] = {name: float("inf") for name in configs}
    rounds: dict[str, int] = {}
    last_engine = None
    kwargs = dict(seed=seed, requests=requests, k=k, lengths=lengths)
    for _ in range(repeats):
        for name, attach in configs.items():
            elapsed, r, engine = _serve_once(graph, attach=attach, **kwargs)
            best[name] = min(best[name], elapsed)
            rounds[name] = r
            if name == "heatmap":
                last_engine = engine
    assert len(set(rounds.values())) == 1, f"observer perturbed the simulation: {rounds}"
    heatmap = last_engine.obs.heatmap
    ledger = last_engine.network.ledger
    for phase, stats in ledger.phases.items():
        assert heatmap.attributed_messages(phase) == stats.messages, phase
        assert heatmap.residual_messages(phase) == 0, phase
    assert heatmap.messages_total == ledger.messages
    assert heatmap.max_edge_congestion() == ledger.max_congestion
    return {
        "schema": "bench_congestion_heatmap/v1",
        "n": graph.n,
        "degree": degree,
        "seed": seed,
        "requests": requests,
        "k": k,
        "lengths": lengths,
        "repeats": repeats,
        "rounds": rounds["baseline"],
        "baseline_s": best["baseline"],
        "detached_s": best["detached"],
        "heatmap_s": best["heatmap"],
        "overhead_detached": best["detached"] / best["baseline"] - 1.0,
        "overhead_heatmap": best["heatmap"] / best["baseline"] - 1.0,
        "messages": heatmap.messages_total,
        "located_messages": heatmap.located_messages(),
        "residual_messages": heatmap.residual_messages(),
        "n_slots": heatmap.n_slots,
        "max_edge_congestion": heatmap.max_edge_congestion(),
        "limits": {"detached": LIMIT_DETACHED, "heatmap": LIMIT_HEATMAP},
    }


def _slo_monitor() -> SloMonitor:
    return SloMonitor(
        specs=[
            SloSpec.parse("name=lat,metric=latency,target=4096,objective=0.25,window=8"),
            SloSpec.parse("name=rej,metric=reject,objective=0.01,window=8"),
        ]
    )


def bench_slo_window(
    n: int = OBS_N,
    degree: int = OBS_DEGREE,
    seed: int = OBS_SEED,
    requests: int = OBS_REQUESTS,
    k: int = OBS_K,
    lengths: list[int] | None = None,
    repeats: int = REPEATS,
) -> dict:
    """Streaming SLO monitor overhead: sliding windows + burn-rate rules.

    Same interleaved best-of harness: never-attached baseline, inert
    attach, and a :class:`SloMonitor` carrying a latency burn-rate rule
    and a reject-rate rule.  Every scheduler tick folds admit/complete
    events into fixed-bucket digests and rolls the per-tenant windows;
    the simulated rounds must stay identical (the monitor only reads).
    """
    graph = random_regular_graph(n, degree, seed)
    lengths = OBS_LENGTHS if lengths is None else lengths
    configs = {
        "baseline": lambda engine: None,
        "detached": lambda engine: engine.attach_observability(),
        "slo": lambda engine: engine.attach_observability(slo=_slo_monitor()),
    }
    best: dict[str, float] = {name: float("inf") for name in configs}
    rounds: dict[str, int] = {}
    last_engine = None
    kwargs = dict(seed=seed, requests=requests, k=k, lengths=lengths)
    for _ in range(repeats):
        for name, attach in configs.items():
            elapsed, r, engine = _serve_once(graph, attach=attach, **kwargs)
            best[name] = min(best[name], elapsed)
            rounds[name] = r
            if name == "slo":
                last_engine = engine
    assert len(set(rounds.values())) == 1, f"observer perturbed the simulation: {rounds}"
    slo = last_engine.obs.slo
    assert slo.ticks_closed > 0 and slo.events > 0
    return {
        "schema": "bench_slo_window/v1",
        "n": graph.n,
        "degree": degree,
        "seed": seed,
        "requests": requests,
        "k": k,
        "lengths": lengths,
        "repeats": repeats,
        "rounds": rounds["baseline"],
        "baseline_s": best["baseline"],
        "detached_s": best["detached"],
        "slo_s": best["slo"],
        "overhead_detached": best["detached"] / best["baseline"] - 1.0,
        "overhead_slo": best["slo"] / best["baseline"] - 1.0,
        "ticks_closed": slo.ticks_closed,
        "events": slo.events,
        "alerts": len(slo.alerts),
        "p95_latency_rounds": slo.percentile("*all*", 0.95),
        "limits": {"detached": LIMIT_DETACHED, "slo": LIMIT_SLO},
    }


def main(argv: list[str]) -> int:
    kwargs = QUICK_OBS if "--quick" in argv else {}
    section = bench_obs_overhead(**kwargs)
    heat = bench_congestion_heatmap(**kwargs)
    slo = bench_slo_window(**kwargs)
    write_sections({"obs_overhead": section, "congestion_heatmap": heat, "slo_window": slo})
    print(
        f"observability overhead, n={section['n']} regular({section['degree']}), "
        f"{section['requests']} requests x k={section['k']} "
        f"(best of {section['repeats']}):"
    )
    print(
        f"  baseline {section['baseline_s'] * 1e3:8.1f} ms   "
        f"disabled {section['disabled_s'] * 1e3:8.1f} ms ({section['overhead_disabled']:+.1%})   "
        f"traced {section['traced_s'] * 1e3:8.1f} ms ({section['overhead_traced']:+.1%})"
    )
    print(
        f"  {section['spans']} spans ({section['spans_dropped']} dropped, "
        f"ring {section['ring_size']}), {section['metrics_series']} metric series, "
        f"{section['rounds']} simulated rounds in every config"
    )
    print("congestion heatmap (per-edge attribution, conservation audited):")
    print(
        f"  baseline {heat['baseline_s'] * 1e3:8.1f} ms   "
        f"detached {heat['detached_s'] * 1e3:8.1f} ms ({heat['overhead_detached']:+.1%})   "
        f"heatmap {heat['heatmap_s'] * 1e3:8.1f} ms ({heat['overhead_heatmap']:+.1%})"
    )
    print(
        f"  {heat['messages']} messages attributed over {heat['n_slots']} edge slots, "
        f"residual {heat['residual_messages']}, max edge congestion "
        f"{heat['max_edge_congestion']}"
    )
    print("slo window (sliding digests + burn-rate rules per tick):")
    print(
        f"  baseline {slo['baseline_s'] * 1e3:8.1f} ms   "
        f"detached {slo['detached_s'] * 1e3:8.1f} ms ({slo['overhead_detached']:+.1%})   "
        f"slo {slo['slo_s'] * 1e3:8.1f} ms ({slo['overhead_slo']:+.1%})"
    )
    print(
        f"  {slo['events']} events over {slo['ticks_closed']} ticks, "
        f"{slo['alerts']} alert transitions, p95 latency "
        f"{slo['p95_latency_rounds']} rounds"
    )
    print(f"\nwrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
