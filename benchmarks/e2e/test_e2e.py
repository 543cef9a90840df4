"""Checks of the end-to-end benchmark on its ``--quick`` profile.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Every
workload runs twice untraced and once traced, each in its own process as
the benchmark is meant to be run, on a 2,000-node graph for 20 ticks.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    printed = {}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ", 3)
            printed[name] = (float(value), unit)
    return proc, printed


@pytest.fixture(scope="module")
def quick_runs():
    """workload -> (first untraced, second untraced, traced) runs."""
    return {w: (run(w, 0), run(w, 0), run(w, 1)) for w in WORKLOADS}


def result_line(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # Simulated cost and memory repeat (almost) exactly, so they get tight bounds.
    assert all(bounds[m] <= 0.05 for m in ("peak_rss_mb", "sim_rounds", "sim_messages"))
    from workloads import WORKLOADS as TABLE

    assert WORKLOADS == list(TABLE)
    assert all(w["why"] == TABLE[w["name"]].why for w in SPEC["workloads"])


def test_every_metric_is_printed_with_its_unit(quick_runs):
    for workload, (first, _, traced) in quick_runs.items():
        for (proc, printed), section in ((first, "end_to_end"), (traced, "per_layer")):
            assert proc.returncode == 0, proc.stdout + proc.stderr
            result = result_line(proc)
            assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
            for metric in SPEC[section]:
                name = metric["name"]
                assert printed[name][1] == metric["unit"], (workload, name)
                assert result["metrics"][name] == {"value": printed[name][0], "unit": metric["unit"]}
            assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
            assert all(NAME.fullmatch(name) for name in printed)


def test_exact_metrics_repeat_and_tracing_is_passive(quick_runs):
    from session import MEASURED

    for workload, ((_, a), (_, b), (traced, t)) in quick_runs.items():
        exact = {name: v for name, v in a.items() if name not in MEASURED}
        assert "sim_rounds" in exact and "walks.store.tokens_created" in exact
        assert exact == {name: v for name, v in b.items() if name not in MEASURED}, workload
        shared = [name for name in exact if name in t]
        assert shared and all(t[name] == exact[name] for name in shared), workload
        # The traced run compared its own untraced and traced passes too.
        assert "CHECK FAILED" not in traced.stdout, traced.stdout


def test_self_time_identity_and_trace_file(quick_runs):
    for workload, (_, _, (_, t)) in quick_runs.items():
        self_s = sum(v for name, (v, _) in t.items() if name.count(".") == 3 and name.endswith(".self_s"))
        self_s += t["graphs.csr_build_s"][0]
        wall = t["bench.traced_wall_s"][0]
        assert abs(self_s + t["bench.unattributed_s"][0] - wall) <= 1e-6 * wall
        trace = json.loads((HERE / "out" / f"{workload}.trace.json").read_text(encoding="utf-8"))
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans and all(e["dur"] >= 0 and e["ts"] >= 0 for e in spans)
        ids = {e["args"]["id"] for e in spans}
        assert all(e["args"]["parent"] in ids | {None} for e in spans)
        ticks = [e for e in spans if e["name"] == "serve.WalkScheduler.tick"]
        assert any(e["args"].get("tickets") for e in ticks)


def test_per_layer_times_are_measured_on_every_workload(quick_runs):
    # A per-layer time in BENCHMARK.json must come from a method every
    # workload calls; otherwise it would read 0 on every run of some workload.
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name.count(".") == 3 and name.endswith(".self_s"):
            calls = name[: -len("self_s")] + "calls"
            for workload, (_, _, (_, t)) in quick_runs.items():
                assert t[calls][0] > 0, (workload, name)


def test_calls_outside_the_timed_windows_are_counted():
    from layers import CSR_BUILD, LayerProfile

    profile = LayerProfile()
    with profile.region(CSR_BUILD):
        pass
    (start, end), = profile.top_level
    assert profile.outside([(start, end)]) == 0
    # The outermost call and its span both fall outside a later window.
    assert profile.outside([(end, end + 1.0)]) == 2


def test_a_changed_graph_fails_the_run(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "INPUT_DIR", tmp_path)
    path = tmp_path / f"rr{workloads.DEGREE}-n{workloads.QUICK_N}-g{workloads.GRAPH_SEED}.npy"
    np.save(path, np.array([[0, 1], [1, 2]], dtype=np.int64))
    with pytest.raises(RuntimeError, match="edge digest"):
        workloads.pinned_edges(workloads.QUICK_N)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".inputs", "out", "__pycache__"))
    proc, _ = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
