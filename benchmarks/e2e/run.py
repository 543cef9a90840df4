"""End-to-end serving benchmark: wall time, memory and simulated cost per workload.

One run measures one workload::

    python3 benchmarks/e2e/run.py --workload steady-100k --seed 0 --seconds 10 --trace 0

A run is three sessions on the same inputs, each set up from scratch and
serving for a third of ``--seconds``.  ``setup_s`` is the median set-up,
``walks_per_s`` the walks of all three serve phases over their summed wall
time, and every exact metric must agree between the sessions.  With
``--trace 1`` a run is one untraced and one traced session.

It prints every metric as ``metric <name> <value> <unit>`` and, as its
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  It exits non-zero if any output check fails.

Without ``--workload`` it runs every workload ``--repeats`` times, each
run in a fresh single-threaded subprocess, one at a time, repeats
interleaved across workloads, and prints each metric's median with its
min and max; ``--trace`` adds one traced run per workload.  ``--quick``
shrinks every workload to a small graph and 10 ticks a session.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"


def _bootstrap() -> None:
    """Import the package from this checkout's ``src``, or fail without a result."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"error: {path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def run_one(args, spec: dict) -> int:
    """One measured run of one workload in this process."""
    from layers import CSR_BUILD, LayerProfile, method_names
    from session import percentile, run_session
    from workloads import QUICK_TICKS, SESSIONS, WORKLOADS, make_inputs

    wl = WORKLOADS[args.workload]
    if args.quick:
        wl = wl.quick()
    ticks = QUICK_TICKS if args.quick else wl.ticks(args.seconds)
    inputs = make_inputs(wl, args.seed, ticks)
    print(f"# {wl.name}: n={wl.n} ticks={ticks} per session seed={args.seed} trace={args.trace}")

    profile = LayerProfile() if args.trace else None
    if profile is None:
        sessions = [run_session(wl, inputs, args.seed) for _ in range(SESSIONS)]
    else:
        # An untraced session, then a traced one that must match it exactly.
        sessions = [run_session(wl, inputs, args.seed), run_session(wl, inputs, args.seed, profile)]
    failures = [f for s in sessions for f in s.failures]
    for i, s in enumerate(sessions[1:], 2):
        if s.exact != sessions[0].exact:
            diff = {k: (v, s.exact.get(k)) for k, v in sessions[0].exact.items() if v != s.exact.get(k)}
            failures.append(f"session {i} changed exact metrics: {diff}")
    for i, s in enumerate(sessions, 1):
        print(f"# session {i}: set-up {s.setup_s:.4f} s, serve {s.serve_s:.4f} s, "
              f"peak RSS {s.peak_rss_mb:.1f} MiB")

    if profile is None:
        walls_ms = [ms for s in sessions for ms in s.walls_ms]
        serve_s = sum(s.serve_s for s in sessions)
        metrics = {
            "setup_s": (statistics.median(s.setup_s for s in sessions), "s"),
            "walks_per_s": (sum(s.walks for s in sessions) / serve_s, "walks/s"),
            "request_wall_p50_ms": (percentile(walls_ms, 50), "ms"),
            "request_wall_p90_ms": (percentile(walls_ms, 90), "ms"),
            "request_wall_samples": (len(walls_ms), "count"),
            "s_per_1k_rounds": (serve_s / (sum(s.serve_rounds for s in sessions) / 1000.0), "s"),
            # Later sessions start with memory the first has not yet
            # handed back, so their peaks vary; the first session's does not.
            "peak_rss_mb": (sessions[0].peak_rss_mb, "MiB"),
            **sessions[0].exact,
        }
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        plain, traced = sessions
        window = traced.setup_s + traced.serve_s
        unattributed = window - profile.top_level_s
        total_self = sum(profile.self_s.values())
        if unattributed < 0:
            failures.append(f"wrapped calls took {profile.top_level_s} s of a {window} s window")
        stray = profile.outside([traced.setup_window, traced.serve_window])
        if stray:
            failures.append(f"{stray} wrapped calls or spans fall outside the timed set-up and serve")
        if abs(total_self + unattributed - window) > 1e-6 * window:
            failures.append(f"self-time identity: {total_self} + {unattributed} != {window}")
        trace_path = OUT_DIR / f"{wl.name}.trace.json"
        profile.write_chrome_trace(trace_path, wl.name)
        print(f"# trace: {trace_path} ({len(profile.spans)} spans)")
        metrics = {}
        for name in method_names():
            if name == CSR_BUILD:
                metrics["graphs.csr_build_s"] = (profile.self_s[name], "s")
                continue
            metrics[f"{name}.calls"] = (profile.calls[name], "count")
            metrics[f"{name}.self_s"] = (profile.self_s[name], "s")
        for layer, seconds in profile.layer_self_s().items():
            metrics[f"{layer}.self_s"] = (seconds, "s")
        metrics.update((name, v) for name, v in traced.exact.items() if "." in name)
        metrics["mem.setup_rss_mb"] = (plain.setup_rss_mb, "MiB")
        metrics["bench.traced_wall_s"] = (window, "s")
        metrics["bench.unattributed_s"] = (unattributed, "s")
        metrics["bench.trace_overhead"] = (traced.serve_s / plain.serve_s - 1.0, "ratio")
        wanted = [m["name"] for m in spec["per_layer"]]

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    for failure in failures:
        print(f"# CHECK FAILED: {failure}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s.attempted for s in sessions),
        "failed": sum(s.failed for s in sessions),
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in wanted if name in metrics
        },
    }))
    return 0 if correct else 1


def run_child(args, workload: str, trace: bool) -> tuple[dict, dict, str]:
    """One run in a fresh subprocess; returns its metrics, its JSON result and its output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(trace))]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    metrics = {}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ", 3)
            metrics[name] = (float(value), unit)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        result["correct"] = False
    return metrics, result, proc.stdout + proc.stderr


def run_all(args, spec: dict) -> int:
    """Every workload, ``--repeats`` times, one subprocess at a time."""
    from session import MEASURED
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    ok = True
    for repeat in range(args.repeats):
        for name in names:
            metrics, result, output = run_child(args, name, trace=False)
            runs[name].append(metrics)
            status = "ok" if result["correct"] else "FAILED"
            print(f"# repeat {repeat + 1}/{args.repeats} {name}: {status}", flush=True)
            if not result["correct"]:
                ok = False
                print(output)

    gated = {m["name"] for m in spec["end_to_end"]}
    summary: dict = {"seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
                     "quick": args.quick, "workloads": {}}
    for name in names:
        print(f"\n== {name} (median [min, max] over {args.repeats} runs) ==")
        rows = {}
        for metric in runs[name][0] if runs[name] else {}:
            values = [r[metric][0] for r in runs[name] if metric in r]
            unit = runs[name][0][metric][1]
            if metric not in MEASURED and len(set(values)) > 1:
                ok = False
                print(f"# CHECK FAILED: {metric} differs between repeats: {values}")
            rows[metric] = {"median": statistics.median(values), "min": min(values),
                            "max": max(values), "unit": unit}
            mark = "*" if metric in gated else " "
            print(f"{mark} {metric:<36} {rows[metric]['median']:>14.6g} "
                  f"[{rows[metric]['min']:.6g}, {rows[metric]['max']:.6g}] {unit}")
        summary["workloads"][name] = rows

    if args.trace:
        for name in names:
            metrics, result, output = run_child(args, name, trace=True)
            if not result["correct"]:
                ok = False
                print(output)
            layers = sorted(((v[0], k) for k, v in metrics.items()
                             if k.endswith(".self_s") and k.count(".") == 3), reverse=True)
            print(f"\n== {name} traced: overhead {metrics.get('bench.trace_overhead', (0,))[0]:+.1%}, "
                  f"unattributed {metrics.get('bench.unattributed_s', (0,))[0]:.3f} s ==")
            for seconds, metric in layers[:10]:
                print(f"  {metric:<52} {seconds:10.4f} s")
            summary["workloads"][name]["trace"] = {k: v[0] for k, v in metrics.items()}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"\n# {'all checks passed' if ok else 'CHECKS FAILED'}; summary in {OUT_DIR / 'summary.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    # One thread per process, set before numpy first loads, so a run never
    # uses more than one core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _bootstrap()
    spec = load_spec()
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="serve-phase length; sets the number of ticks")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer pass (a bare --trace means 1)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="small graphs, 10 ticks a session")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.workload is not None:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
