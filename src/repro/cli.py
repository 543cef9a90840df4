"""Command-line interface: run the paper's algorithms from a shell.

Examples
--------
::

    python -m repro walk --graph torus:8x8 --length 4096 --seed 7
    python -m repro walk --graph hypercube:6 --length 8000 --algorithm all
    python -m repro walk --graph torus:8x8 --length 4096 --json
    python -m repro walks --graph regular:10000:4 --k 64 --length 512
    python -m repro serve --graph regular:2000:4 --rate 3 --ticks 12 --json
    python -m repro rst --graph grid:6x6 --seed 3
    python -m repro mixing --graph barbell:8:1 --seed 11
    python -m repro lowerbound --n 512

Every command routes through the :class:`~repro.engine.core.WalkEngine`
session façade; ``--json`` (walk/rst/mixing) emits the result dataclass as
machine-readable JSON for downstream tooling.

Graph specs are ``family:arg1:arg2...``:

========================  =========================================
spec                      graph
========================  =========================================
``path:N``                path on N nodes
``cycle:N``               cycle on N nodes
``complete:N``            K_N
``star:N``                star on N nodes
``grid:RxC``              R×C grid
``torus:RxC``             R×C torus
``hypercube:D``           D-dimensional hypercube
``tree:H``                complete binary tree of height H
``barbell:K:B``           two K-cliques, bridge of B edges
``lollipop:K:T``          K-clique with a T-edge tail
``gnp:N:P[:SEED]``        connected Erdős–Rényi G(N, P)
``regular:N:D[:SEED]``    random D-regular graph
``rgg:N:R[:SEED]``        random geometric graph, radius R
``file:PATH``             edge-list file (``u v [w]`` per line)
========================  =========================================
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from repro.congest.phases import POOL_REFILL_CHURN
from repro.errors import ReproError
from repro.graphs import (
    Graph,
    barbell_graph,
    binary_tree_graph,
    complete_graph,
    cycle_graph,
    edge_list_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    pseudo_diameter,
    random_geometric_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)
from repro.util.tables import render_table

__all__ = ["parse_graph_spec", "main"]


def _dims(arg: str) -> tuple[int, int]:
    parts = arg.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"expected RxC, got {arg!r}")
    return int(parts[0]), int(parts[1])


def parse_graph_spec(spec: str) -> Graph:
    """Build a graph from a ``family:args`` spec string (see module docs)."""
    parts = spec.split(":")
    family, args = parts[0].lower(), parts[1:]
    if family == "file":
        # The path is everything after the first colon (it may itself
        # contain colons), and case matters on real filesystems.
        path = spec.split(":", 1)[1] if ":" in spec else ""
        if not path:
            raise ValueError(f"bad graph spec {spec!r}: file needs a path, e.g. file:graph.txt")
        try:
            return edge_list_graph(path)
        except OSError as exc:
            raise ValueError(f"bad graph spec {spec!r}: {exc}") from exc
    try:
        if family == "path":
            return path_graph(int(args[0]))
        if family == "cycle":
            return cycle_graph(int(args[0]))
        if family == "complete":
            return complete_graph(int(args[0]))
        if family == "star":
            return star_graph(int(args[0]))
        if family == "grid":
            return grid_graph(*_dims(args[0]))
        if family == "torus":
            return torus_graph(*_dims(args[0]))
        if family == "hypercube":
            return hypercube_graph(int(args[0]))
        if family == "tree":
            return binary_tree_graph(int(args[0]))
        if family == "barbell":
            return barbell_graph(int(args[0]), int(args[1]))
        if family == "lollipop":
            return lollipop_graph(int(args[0]), int(args[1]))
        if family == "gnp":
            seed = int(args[2]) if len(args) > 2 else 0
            return erdos_renyi_graph(int(args[0]), float(args[1]), seed)
        if family == "regular":
            seed = int(args[2]) if len(args) > 2 else 0
            return random_regular_graph(int(args[0]), int(args[1]), seed)
        if family == "rgg":
            seed = int(args[2]) if len(args) > 2 else 0
            return random_geometric_graph(int(args[0]), float(args[1]), seed)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad graph spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown graph family {parts[0]!r}")


def _attach_obs(engine, args: argparse.Namespace):
    """Attach the obs sinks requested by ``--trace``/``--metrics-out``/
    ``--heatmap-out``/``--slo``/``--dashboard`` (the last three only exist
    on commands that declare them)."""
    heatmap_out = getattr(args, "heatmap_out", None)
    slo_specs = getattr(args, "slo", None) or []
    want_slo = bool(slo_specs) or getattr(args, "dashboard", False)
    if (
        args.trace is None
        and args.metrics_out is None
        and heatmap_out is None
        and not want_slo
    ):
        return None, None, None, None
    from repro.obs import HeatmapSink, MetricsRegistry, SloMonitor, SloSpec, Tracer

    tracer = Tracer() if args.trace is not None else None
    metrics = MetricsRegistry() if args.metrics_out is not None else None
    heatmap = HeatmapSink() if heatmap_out is not None else None
    slo = (
        SloMonitor(specs=[SloSpec.parse(spec) for spec in slo_specs])
        if want_slo
        else None
    )
    engine.attach_observability(tracer=tracer, metrics=metrics, heatmap=heatmap, slo=slo)
    return tracer, metrics, heatmap, slo


def _write_obs(args: argparse.Namespace, tracer, metrics, heatmap=None) -> None:
    # Sink paths go to stderr so --json stdout stays machine-parseable.
    if tracer is not None:
        # The heatmap's Perfetto counter track rides along in one file.
        path = tracer.write(
            args.trace,
            extra_events=heatmap.counter_events() if heatmap is not None else (),
        )
        print(
            f"trace: {path} ({len(tracer.spans)} spans, {tracer.dropped} dropped)",
            file=sys.stderr,
        )
    if metrics is not None:
        path = metrics.write(args.metrics_out)
        print(f"metrics: {path} ({len(metrics)} series)", file=sys.stderr)
    if heatmap is not None and getattr(args, "heatmap_out", None):
        path = heatmap.write(args.heatmap_out)
        print(
            f"heatmap: {path} ({heatmap.located_messages()} located, "
            f"{heatmap.residual_messages()} residual messages)",
            file=sys.stderr,
        )


def _dashboard_frame(scheduler, slo, alerts, *, color: bool) -> str:
    """Build one per-tick dashboard frame from live scheduler + SLO state."""
    from repro.obs import format_dashboard
    from repro.obs.slo import ALL_TENANTS

    rules = [
        {"tenant": rule.spec.tenant or ALL_TENANTS, "burn": rule.last_burn}
        for rule in slo._rules  # noqa: SLF001 - dashboard reads live rule state
    ]
    rows = []
    for name in scheduler.tenants.order:
        tenant = scheduler.tenants.get(name)
        burn = max(
            (r["burn"] for r in rules if r["tenant"] in (name, ALL_TENANTS)),
            default=0.0,
        )
        rows.append(
            {
                "tenant": name,
                "p50": slo.percentile(name, 0.50),
                "p95": slo.percentile(name, 0.95),
                "attributed": tenant.rounds_attributed,
                "quota_debt": max(0, -int(tenant.balance)),
                "status": slo.status(name),
                "burn": burn,
            }
        )
    return format_dashboard(
        tick=slo.last_tick,
        round_now=slo.last_round,
        queue_depth=slo.last_queue_depth,
        rows=rows,
        alerts=alerts,
        color=color,
    )


def _cmd_walk(args: argparse.Namespace) -> int:
    from repro.engine import WalkEngine

    graph = parse_graph_spec(args.graph)
    # label, engine algorithm name, report_to_source (each legacy
    # free-function default, so round bills match the pre-engine CLI).
    algorithms = {
        "single": ("SINGLE-RANDOM-WALK", "paper", True),
        "podc09": ("PODC'09 baseline", "podc09", True),
        "naive": ("naive token walk", "naive", False),
        "metropolis": ("Metropolis-Hastings walk", "metropolis", False),
    }
    chosen = ["single", "podc09", "naive"] if args.algorithm == "all" else [args.algorithm]
    results = []
    for key in chosen:
        label, algorithm, report = algorithms[key]
        # A fresh one-shot engine per algorithm keeps the comparison
        # apples-to-apples: identical seed, independent ledgers.
        engine = WalkEngine(graph, seed=args.seed)
        res = engine.walk(
            args.source,
            args.length,
            algorithm=algorithm,
            pooled=False,
            record_paths=False,
            report_to_source=report,
        )
        results.append((label, res))
    if args.json:
        print(json.dumps([{"algorithm": label, **res.to_dict()} for label, res in results], indent=2))
        return 0
    print(
        render_table(
            ["algorithm", "mode", "destination", "rounds"],
            [(label, res.mode, res.destination, res.rounds) for label, res in results],
            title=f"{args.length}-step walk from node {args.source} on {graph.name} "
            f"(n={graph.n}, m={graph.m}, D≈{pseudo_diameter(graph)})",
        )
    )
    return 0


def _cmd_walks(args: argparse.Namespace) -> int:
    from repro.engine import WalkEngine

    graph = parse_graph_spec(args.graph)
    sources = [(args.source + i * args.stride) % graph.n for i in range(args.k)]
    engine = WalkEngine(graph, seed=args.seed, record_paths=False)
    tracer, metrics, heatmap, _slo = _attach_obs(engine, args)
    res = engine.walks(sources, args.length)
    stats = engine.stats()
    _write_obs(args, tracer, metrics, heatmap)
    if args.json:
        print(json.dumps({**res.to_dict(), "stats": stats.to_dict()}, indent=2))
        return 0
    print(
        render_table(
            ["quantity", "value"],
            [
                ("mode", res.mode),
                ("k", res.k),
                ("length", res.length),
                ("λ", res.lam),
                ("rounds", res.rounds),
                ("refills (reactive)", res.get_more_walks_calls),
                ("pool unused", stats.pool_unused),
                ("shards", stats.num_shards),
                ("shard unused min/max", f"{stats.shard_unused_min}/{stats.shard_unused_max}"),
                ("shards below watermark", stats.shards_below_watermark),
                ("maintenance sweeps", stats.maintenance_sweeps),
            ],
            title=f"{args.k} pooled {args.length}-step walks on {graph.name} "
            f"(n={graph.n}, m={graph.m})",
        )
    )
    print("\nDestinations:", " ".join(str(d) for d in res.destinations))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine import WalkEngine
    from repro.serve import TrafficSpec, run_closed_loop, run_open_loop
    from repro.util.rng import make_rng

    graph = parse_graph_spec(args.graph)
    engine = WalkEngine(graph, seed=args.seed, record_paths=False, auto_maintain=False)
    tracer, metrics, heatmap, slo = _attach_obs(engine, args)
    registry = None
    if args.tenants:
        from repro.serve import TenantRegistry

        registry = TenantRegistry.parse(args.tenants)
    scheduler = engine.scheduler(
        tenants=registry,
        max_batch_requests=args.batch,
        max_batch_walks=args.batch_walks,
        pipelined_report=args.pipelined_report,
        max_queue_depth=args.queue_depth,
        maintain_round_budget=args.maintain_budget,
        default_deadline=args.deadline,
    )
    if args.dashboard:
        # Live dashboard: wrap scheduler.tick so each tick renders one
        # frame (to stderr — --json stdout stays machine-parseable).
        inner_tick = scheduler.tick
        seen_alerts = {"n": 0}
        use_color = sys.stderr.isatty()

        def _tick_and_render(*tick_args, **tick_kwargs):
            report = inner_tick(*tick_args, **tick_kwargs)
            new_alerts = slo.alerts[seen_alerts["n"] :]
            seen_alerts["n"] = len(slo.alerts)
            print(
                _dashboard_frame(scheduler, slo, new_alerts, color=use_color),
                file=sys.stderr,
            )
            return report

        scheduler.tick = _tick_and_render
    spec = TrafficSpec(
        n=graph.n,
        lengths=tuple(args.length),
        ks=tuple(args.k),
        hot_fraction=args.hot_fraction,
    )
    rng = make_rng(args.seed + 1)
    churn_reports = []
    churning = args.churn_delete_rate > 0 or args.churn_insert_rate > 0
    faulty = args.crash_rate > 0
    if churning and args.loop != "open":
        raise ValueError("--churn-*-rate needs --loop open (churn interleaves with ticks)")
    if faulty and args.loop != "open":
        raise ValueError("--crash-rate needs --loop open (faults interleave with ticks)")
    if faulty and churning:
        raise ValueError("--crash-rate and --churn-*-rate are mutually exclusive")
    if registry is not None and (faulty or churning or args.loop != "open"):
        raise ValueError(
            "--tenants drives one tagged open-loop stream per tenant; combine it "
            "with the plain --loop open (see examples/multi_tenant.py for a "
            "multi-tenant churn+crash episode)"
        )
    if registry is not None:
        from repro.serve import run_tenant_loop

        specs = [dataclasses.replace(spec, tenant=name) for name in registry.order]
        run_tenant_loop(scheduler, specs, rng, rate=args.rate, ticks=args.ticks)
    elif faulty:
        from repro.serve import run_fault_loop

        run_fault_loop(
            scheduler,
            spec,
            rng,
            crash_rate=args.crash_rate,
            recover_after=args.recover_after,
            ticks=args.ticks,
            rate=args.rate,
            fault_seed=args.fault_seed if args.fault_seed is not None else args.seed + 2,
        )
    elif churning:
        from repro.dynamic import ChurnSpec, run_churn_loop

        churn = ChurnSpec(
            delete_rate=args.churn_delete_rate,
            insert_rate=args.churn_insert_rate,
            round_budget=args.churn_budget,
        )
        _tickets, churn_reports = run_churn_loop(
            scheduler, spec, churn, rng, rate=args.rate, ticks=args.ticks
        )
    elif args.loop == "open":
        run_open_loop(scheduler, spec, rng, rate=args.rate, ticks=args.ticks)
    else:
        run_closed_loop(
            scheduler, spec, rng, concurrency=args.concurrency, total=args.requests
        )
    stats = scheduler.stats()
    _write_obs(args, tracer, metrics, heatmap)
    if args.json:
        payload = {"scheduler": stats.to_dict(), "engine": engine.stats().to_dict()}
        if churn_reports:
            payload["churn"] = [r.to_dict() for r in churn_reports]
        if slo is not None:
            payload["slo"] = slo.summary()
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        ("loop", args.loop),
        ("submitted", stats.submitted),
        ("admitted", stats.admitted),
        ("rejected", f"{stats.rejected} {stats.rejects_by_reason or ''}".strip()),
        ("completed", stats.completed),
        ("deadline misses", stats.deadline_misses),
        ("walks served", stats.walks_served),
        ("scheduling rounds (ticks)", stats.ticks),
        ("cohorts", stats.cohorts),
        ("p50/p99 rounds per request", f"{stats.p50_rounds_per_request:.0f}/{stats.p99_rounds_per_request:.0f}"),
        ("p50/p99 latency (rounds)", f"{stats.p50_latency_rounds:.0f}/{stats.p99_latency_rounds:.0f}"),
        ("serve-family rounds", stats.serve_rounds),
        ("maintain rounds", stats.maintain_rounds),
        ("session rounds total", engine.network.rounds),
    ]
    if churn_reports:
        est = engine.stats()
        rows.extend(
            [
                ("churn events", est.churn_events),
                ("tokens evicted (churn)", est.churn_tokens_evicted),
                ("tokens regenerated (churn)", est.churn_tokens_regenerated),
                ("churn refill rounds", est.phase_rounds.get(POOL_REFILL_CHURN, 0)),
            ]
        )
    if faulty:
        rows.extend(
            [
                ("crashes / recoveries", f"{stats.crashes_seen}/{stats.recoveries_seen}"),
                ("walks recovered / restarted", f"{stats.walks_recovered}/{stats.walks_restarted}"),
                ("recovery rounds", stats.recovery_rounds),
                ("ticket retries (never dropped)", stats.ticket_retries),
                ("backoff waits", stats.backoff_waits),
            ]
        )
    if registry is not None:
        rows.append(("cohort splits / throttled ticks", f"{stats.cohort_splits}/{stats.throttled_ticks}"))
        total_attr = sum(t["rounds_attributed"] for t in stats.tenants.values()) or 1
        for name, t in stats.tenants.items():
            share = t["rounds_attributed"] / total_attr
            rows.append(
                (
                    f"tenant {name} (w={t['weight']:g})",
                    f"done {t['completed']}/{t['admitted']} walks {t['walks_served']} "
                    f"attr {t['rounds_attributed']} ({share:.1%}) "
                    f"miss {t['deadline_misses']} throttle {t['throttled_ticks']}",
                )
            )
    print(
        render_table(
            ["quantity", "value"],
            rows,
            title=f"scheduled serving on {graph.name} (n={graph.n}, m={graph.m})",
        )
    )
    return 0


def _cmd_rst(args: argparse.Namespace) -> int:
    from repro.engine import WalkEngine

    graph = parse_graph_spec(args.graph)
    res = WalkEngine(graph, seed=args.seed).spanning_tree(root=args.source)
    if args.json:
        print(json.dumps(res.to_dict(), indent=2))
        return 0
    print(
        render_table(
            ["phase ℓ", "walks", "covered", "rounds"],
            [(p.length, p.walks, p.covered, p.rounds) for p in res.phases],
            title=f"Random spanning tree of {graph.name}: {res.rounds} rounds, "
            f"cover time {res.cover_time}",
        )
    )
    print("\nTree edges:", " ".join(f"{u}-{v}" for u, v in res.edges))
    return 0


def _cmd_mixing(args: argparse.Namespace) -> int:
    from repro.engine import WalkEngine
    from repro.markov import exact_mixing_time

    graph = parse_graph_spec(args.graph)
    est = WalkEngine(graph, seed=args.seed).mixing_time(args.source, samples=args.samples)
    if args.json:
        print(json.dumps(est.to_dict(), indent=2))
        return 0
    exact = exact_mixing_time(graph, args.source) if graph.n <= 512 else None
    rows = [
        ("estimated τ̃", est.estimate),
        ("exact τ_mix", exact if exact is not None else "(graph too large)"),
        ("rounds", est.rounds),
        ("samples per test", est.samples_per_test),
        ("spectral gap interval", str(est.spectral_gap_bounds(graph.n))),
        ("conductance interval", str(est.conductance_bounds(graph.n))),
    ]
    print(render_table(["quantity", "value"], rows, title=f"Mixing time of {graph.name} from node {args.source}"))
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import format_report, load_metrics, load_spans, summarize

    spans = load_spans(args.path)
    metrics = load_metrics(args.metrics) if args.metrics else None
    heatmap = json.loads(Path(args.heatmap).read_text()) if args.heatmap else None
    print(format_report(summarize(spans, top=args.top), metrics=metrics, heatmap=heatmap))
    return 0


def _cmd_lowerbound(args: argparse.Namespace) -> int:
    from repro.graphs import build_lower_bound_graph, round_bound
    from repro.lowerbound import IntervalMergingVerifier, PathVerificationInstance

    inst = build_lower_bound_graph(args.n)
    pv = PathVerificationInstance.from_lower_bound(inst)
    result = IntervalMergingVerifier(pv).run()
    rows = [
        ("path length ℓ", pv.length),
        ("graph size", inst.graph.n),
        ("diameter bound", pseudo_diameter(inst.graph)),
        ("measured rounds", result.rounds),
        ("Ω(√(ℓ/log ℓ))", f"{round_bound(pv.length):.1f}"),
        ("verified", result.verified),
    ]
    print(render_table(["quantity", "value"], rows, title=f"PATH-VERIFICATION on G_n (n={args.n})"))
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a round-time trace here: .jsonl → span lines, anything "
        "else → Chrome trace JSON (Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write metrics here after the run: .json → registry snapshot, "
        "anything else → Prometheus text exposition",
    )
    parser.add_argument(
        "--heatmap-out",
        default=None,
        metavar="PATH",
        help="write the per-edge congestion cartography (JSON summary) here; "
        "with --trace the heatmap's Perfetto counter track is merged into "
        "the Chrome trace",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed random walks (PODC 2010) — run the algorithms from the shell.",
    )
    from repro import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the package version and exit (install sanity check)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    walk = sub.add_parser("walk", help="sample an ℓ-step walk")
    walk.add_argument("--graph", required=True, help="graph spec, e.g. torus:8x8")
    walk.add_argument("--length", type=int, required=True)
    walk.add_argument("--source", type=int, default=0)
    walk.add_argument("--seed", type=int, default=0)
    walk.add_argument(
        "--algorithm",
        choices=["single", "podc09", "naive", "metropolis", "all"],
        default="single",
    )
    walk.add_argument(
        "--json",
        action="store_true",
        help="emit the result dataclass(es) as machine-readable JSON",
    )
    walk.set_defaults(fn=_cmd_walk)

    walks = sub.add_parser(
        "walks", help="serve a pooled k-walk batch from one engine session"
    )
    walks.add_argument("--graph", required=True, help="graph spec, e.g. regular:10000:4")
    walks.add_argument("--length", type=int, required=True)
    walks.add_argument("--k", type=int, default=16, help="number of walks in the batch")
    walks.add_argument("--source", type=int, default=0, help="first source node")
    walks.add_argument(
        "--stride", type=int, default=37, help="source spacing: source + i*stride mod n"
    )
    walks.add_argument("--seed", type=int, default=0)
    walks.add_argument(
        "--json",
        action="store_true",
        help="emit the result plus engine stats (shards, watermarks) as JSON",
    )
    _add_obs_flags(walks)
    walks.set_defaults(fn=_cmd_walks)

    serve = sub.add_parser(
        "serve", help="run a synthetic request stream through the WalkScheduler"
    )
    serve.add_argument("--graph", required=True, help="graph spec, e.g. regular:2000:4")
    serve.add_argument(
        "--loop", choices=["open", "closed"], default="open", help="traffic discipline"
    )
    serve.add_argument(
        "--length",
        type=int,
        nargs="+",
        default=[256],
        help="walk-length menu (uniform draw per request)",
    )
    serve.add_argument(
        "--k", type=int, nargs="+", default=[4], help="batch-width menu per request"
    )
    serve.add_argument("--rate", type=float, default=2.0, help="open loop: arrivals per tick")
    serve.add_argument("--ticks", type=int, default=16, help="open loop: arrival ticks")
    serve.add_argument(
        "--concurrency", type=int, default=8, help="closed loop: outstanding requests"
    )
    serve.add_argument(
        "--requests", type=int, default=32, help="closed loop: total requests"
    )
    serve.add_argument(
        "--hot-fraction",
        type=float,
        default=0.0,
        help="fraction of requests pinned to the hot source (node 0)",
    )
    serve.add_argument(
        "--churn-delete-rate",
        type=float,
        default=0.0,
        help="open loop: Poisson mean edge deletions per tick (repro.dynamic)",
    )
    serve.add_argument(
        "--churn-insert-rate",
        type=float,
        default=0.0,
        help="open loop: Poisson mean edge insertions per tick",
    )
    serve.add_argument(
        "--churn-budget",
        type=int,
        default=None,
        help="round budget per churn regeneration sweep (default: restore fully)",
    )
    serve.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        help="open loop: expected crash events per node over the run "
        "(seeded crash/recover schedule; requests are retried, never dropped)",
    )
    serve.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for the crash/recover fault schedule (default: derived from --seed)",
    )
    serve.add_argument(
        "--recover-after",
        type=int,
        default=256,
        help="rounds a crashed node stays down before its scheduled recovery",
    )
    serve.add_argument("--deadline", type=int, default=None, help="round budget per request")
    serve.add_argument(
        "--maintain-budget",
        type=int,
        default=None,
        help="per-tick round budget for the deadline-driven maintain sweep",
    )
    serve.add_argument("--batch", type=int, default=8, help="max requests per cohort")
    serve.add_argument(
        "--batch-walks",
        type=int,
        default=None,
        help="pack cohorts by total walk count (Σk budget, splitting tickets) "
        "instead of request count",
    )
    serve.add_argument(
        "--pipelined-report",
        action="store_true",
        help="share ONE height+Σk−1 report convergecast per cohort instead of "
        "one height+k wave per request",
    )
    serve.add_argument(
        "--tenants",
        default=None,
        help="comma-separated name:weight:quota triples (quota 0 = unmetered), "
        "e.g. free:1:0,pro:4:0,batch:2:2000; drives one open-loop stream per "
        "tenant and adds per-tenant telemetry rows",
    )
    serve.add_argument("--queue-depth", type=int, default=256, help="admission queue bound")
    serve.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="declarative burn-rate rule (repeatable), e.g. "
        "name=lat-pro,metric=latency,target=2000,objective=0.05,window=8,"
        "burn=2,tenant=pro; metrics: latency, deadline_miss, reject, throttle",
    )
    serve.add_argument(
        "--dashboard",
        action="store_true",
        help="render a live per-tick ANSI dashboard to stderr "
        "(tenants × p50/p95 latency, attributed rounds, quota debt, SLO status)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit scheduler + engine telemetry as machine-readable JSON",
    )
    _add_obs_flags(serve)
    serve.set_defaults(fn=_cmd_serve)

    report = sub.add_parser(
        "trace-report", help="summarize a trace written by --trace"
    )
    report.add_argument("path", help="Chrome-trace JSON or .jsonl span file")
    report.add_argument("--top", type=int, default=10, help="phases to list")
    report.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="metrics snapshot JSON (--metrics-out foo.json) to fold in: "
        "adds the SLO/alert summary section",
    )
    report.add_argument(
        "--heatmap",
        default=None,
        metavar="PATH",
        help="heatmap export (--heatmap-out) to fold in: adds the "
        "congestion-cartography section",
    )
    report.set_defaults(fn=_cmd_trace_report)

    rst = sub.add_parser("rst", help="sample a uniform random spanning tree")
    rst.add_argument("--graph", required=True)
    rst.add_argument("--source", type=int, default=0)
    rst.add_argument("--seed", type=int, default=0)
    rst.add_argument("--json", action="store_true", help="emit the result as JSON")
    rst.set_defaults(fn=_cmd_rst)

    mixing = sub.add_parser("mixing", help="estimate the mixing time decentrally")
    mixing.add_argument("--graph", required=True)
    mixing.add_argument("--source", type=int, default=0)
    mixing.add_argument("--seed", type=int, default=0)
    mixing.add_argument("--samples", type=int, default=None)
    mixing.add_argument("--json", action="store_true", help="emit the result as JSON")
    mixing.set_defaults(fn=_cmd_mixing)

    lb = sub.add_parser("lowerbound", help="run PATH-VERIFICATION on G_n")
    lb.add_argument("--n", type=int, default=256)
    lb.set_defaults(fn=_cmd_lowerbound)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
