"""Tier-1 perf smoke guard for the columnar hot paths.

The heavyweight wall-clock sweeps live in
``benchmarks/bench_perf_hotpaths.py`` (run directly, or via pytest where
they are ``@pytest.mark.slow``).  This module keeps a *fast* guard inside
the tier-1 gate: the bench harness still imports, emits its
machine-readable schema, and the columnar Phase-1 storage still clearly
beats the legacy per-token loop at a small size.  The full ≥5x acceptance
check at n ∈ {1k, 10k, 50k} is the slow suite's job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_churn  # noqa: E402
import bench_faults  # noqa: E402
import bench_many_walks  # noqa: E402
import bench_obs  # noqa: E402
import bench_perf_hotpaths as bench  # noqa: E402
import bench_serve  # noqa: E402
import bench_tenants  # noqa: E402


class TestBenchHarnessSmoke:
    def test_run_suite_schema(self):
        results = bench.run_suite(sizes=(256,))
        assert results["schema"] == "bench_perf_hotpaths/v1"
        assert [row["n"] for row in results["phase1_token_creation"]] == [256]
        for section in ("phase1_token_creation", "csr_construction", "bfs_build"):
            assert len(results[section]) == 1
        row = results["phase1_token_creation"][0]
        assert row["tokens"] == 4 * 256  # η=1 on a 4-regular torus
        assert row["columnar_seconds"] > 0 and row["legacy_seconds"] > 0
        # JSON round-trips (the emitted file is the perf trajectory record).
        assert json.loads(json.dumps(results)) == results

    @pytest.mark.slow
    def test_columnar_storage_beats_legacy_loop(self):
        # Wall-clock assertion: slow tier only, so a loaded CI machine can
        # never flake the tier-1 gate on a timing race.
        row = bench.bench_phase1(1024)
        assert row["speedup"] >= 2.0, f"columnar Phase-1 no longer clearly wins: {row}"

    def test_committed_results_match_schema(self):
        path = bench.RESULT_PATH
        assert path.exists(), "BENCH_HOTPATHS.json must be committed at the repo root"
        results = json.loads(path.read_text())
        assert results["schema"] == "bench_perf_hotpaths/v1"
        assert set(results["sizes"]) == set(bench.SIZES)
        for row in results["phase1_token_creation"]:
            if row["n"] == 10_000:
                assert row["speedup"] >= 5.0, (
                    "committed Phase-1 speedup at n=10k below the 5x acceptance bar"
                )
                break
        else:  # pragma: no cover - schema violation
            pytest.fail("no n=10k row in committed BENCH_HOTPATHS.json")

    def test_batch_stitching_beats_serial_loop(self):
        # Live tier-1 guard for the PR-3 batch regime: at k=64 the
        # interleaved batch sweeps must use strictly fewer *simulated*
        # rounds than the one-shot serial per-source loop.  Simulated rounds are
        # deterministic, so this can sit in the fast gate without any
        # wall-clock flake risk (a small graph keeps it quick).
        section = bench_many_walks.bench_batch_k_walks(
            n=256, degree=4, length=256, ks=[64], seed=1201
        )
        row = section["rows"][0]
        assert row["k"] == 64
        assert row["batch_rounds"] < row["serial_rounds"], row

    def test_committed_batch_k_walks_section(self):
        # The committed n=10k sweep (benchmarks/bench_many_walks.py) must
        # show the batch regime winning at every recorded k — in
        # particular the k=64 acceptance row.
        results = json.loads(bench.RESULT_PATH.read_text())
        section = results.get("batch_k_walks")
        assert section is not None, "run benchmarks/bench_many_walks.py to regenerate"
        assert section["schema"] == "bench_batch_k_walks/v2"
        assert section["n"] == 10_000
        ks = {row["k"] for row in section["rows"]}
        assert {16, 64, 256} <= ks
        for row in section["rows"]:
            assert row["batch_rounds"] < row["serial_rounds"], row
            if row["k"] == 64:
                assert row["rounds_speedup"] > 2.0, row

    def test_scheduled_serving_beats_serial_live(self):
        # Live tier-1 guard for the PR-4 scheduler: the same 8-request
        # mixed-length workload costs strictly fewer simulated rounds
        # through merged cohorts than through request-at-a-time serving.
        # Simulated rounds are deterministic — no wall-clock flake risk.
        section = bench_serve.bench_serve(**bench_serve.QUICK_SERVE)
        row = section["rows"][0]
        assert row["requests"] == 8
        assert row["scheduled_rounds"] < row["serial_rounds"], row
        assert row["rounds_speedup"] >= 1.5, row
        assert row["scheduled_p99_rounds"] <= row["serial_p99_rounds"], row

    def test_committed_serve_scheduler_section(self):
        # The PR-4 acceptance bar: on the committed n=10k sweep the
        # scheduler serves the 8-request mixed workload with >= 2x fewer
        # total simulated rounds than serial one-at-a-time servicing, at
        # every recorded k in {16, 64, 256}.
        results = json.loads(bench.RESULT_PATH.read_text())
        section = results.get("serve_scheduler")
        assert section is not None, "run benchmarks/bench_serve.py to regenerate"
        assert section["schema"] == "bench_serve/v1"
        assert section["n"] == 10_000
        ks = {row["k"] for row in section["rows"]}
        assert {16, 64, 256} <= ks
        for row in section["rows"]:
            assert row["requests"] == 8
            assert len(set(row["lengths"])) > 1, "workload must mix lengths"
            assert row["rounds_speedup"] >= 2.0, row
            assert row["scheduled_p99_rounds"] <= row["serial_p99_rounds"], row
            assert (
                row["scheduled_throughput_per_1k_rounds"]
                > row["serial_throughput_per_1k_rounds"]
            ), row

    def test_committed_lambda_retune_section(self):
        # PR-3 follow-up satellite: batch requests auto-preparing with the
        # k-enlarged Θ(√(klD) + k) λ must serve in fewer rounds than the
        # single-walk λ pool, for every committed k.
        results = json.loads(bench.RESULT_PATH.read_text())
        section = results.get("batch_lambda_retune")
        assert section is not None, "run benchmarks/bench_many_walks.py to regenerate"
        assert section["schema"] == "bench_lambda_retune/v1"
        assert section["n"] == 10_000
        ks = {row["k"] for row in section["rows"]}
        assert {16, 64, 256} <= ks
        for row in section["rows"]:
            assert row["lam_after"] > row["lam_before"], row
            assert row["request_rounds_after"] < row["request_rounds_before"], row
            if row["k"] == 64:
                assert row["rounds_speedup"] > 2.0, row

    def test_packed_tenant_serving_beats_per_request_live(self):
        # Live tier-1 guard for the PR-7 multi-tenant tier: the same
        # 9-request 3-tenant mixed-length workload costs fewer simulated
        # rounds through Σk-packed cohorts with the shared pipelined
        # report than through per-request serving, and ticket splitting
        # actually exercises.  Simulated rounds are deterministic — no
        # wall-clock flake risk.
        section = bench_tenants.bench_tenants(**bench_tenants.QUICK_TENANTS)
        row = section["rows"][0]
        assert row["requests"] == 9
        assert row["cohort_splits"] > 0, row
        assert row["pipelined_report_rounds"] > 0, row
        assert row["rounds_speedup"] >= 1.3, row
        assert row["fairness_max_rel_dev"] < 0.25, row

    def test_committed_multi_tenant_section(self):
        # The PR-7 acceptance bar: on the committed n=10k sweep the
        # packed+pipelined multi-tenant scheduler beats per-request
        # serving by >= 1.3x total simulated rounds at every recorded
        # k in {16, 64, 256}, with the saturated fairness split staying
        # within 10% relative of the 1:2:4 weight shares.
        results = json.loads(bench.RESULT_PATH.read_text())
        section = results.get("multi_tenant")
        assert section is not None, "run benchmarks/bench_tenants.py to regenerate"
        assert section["schema"] == "bench_multi_tenant/v1"
        assert section["n"] == 10_000
        ks = {row["k"] for row in section["rows"]}
        assert {16, 64, 256} <= ks
        for row in section["rows"]:
            assert row["requests"] == 9
            assert len(set(row["lengths"])) > 1, "workload must mix lengths"
            assert row["rounds_speedup"] >= 1.3, row
            assert row["cohort_splits"] > 0, row
            assert row["fairness_max_rel_dev"] < 0.10, row
            assert (
                row["packed_throughput_per_1k_rounds"]
                > row["per_request_throughput_per_1k_rounds"]
            ), row

    def test_incremental_churn_beats_rebuild_live(self):
        # Live tier-1 guard for the PR-5 churn subsystem: absorbing a 1%
        # edge-churn delta through the incremental invalidate+regenerate
        # path must cost strictly fewer simulated rounds than discarding
        # the pool and re-running Phase 1.  Simulated rounds are
        # deterministic — no wall-clock flake risk.
        section = bench_churn.bench_churn(**bench_churn.QUICK_CHURN)
        row = section["rows"][0]
        assert 0 < row["tokens_evicted"] < row["tokens_before"], row
        assert row["incremental_rounds"] < row["rebuild_rounds"], row
        assert row["rounds_speedup"] >= 1.5, row

    def test_committed_graph_churn_section(self):
        # The PR-5 acceptance bar: on the committed n=10k sweep the
        # incremental path beats the naive discard-and-re-prepare baseline
        # by >= 2x simulated rounds at 1% edge churn (and wins at every
        # recorded churn level).
        results = json.loads(bench.RESULT_PATH.read_text())
        section = results.get("graph_churn")
        assert section is not None, "run benchmarks/bench_churn.py to regenerate"
        assert section["schema"] == "bench_graph_churn/v1"
        assert section["n"] == 10_000
        fractions = {row["churn_fraction"] for row in section["rows"]}
        assert 0.01 in fractions
        for row in section["rows"]:
            assert row["tokens_evicted"] < row["tokens_before"], row
            assert row["incremental_rounds"] < row["rebuild_rounds"], row
            if row["churn_fraction"] == 0.01:
                assert row["rounds_speedup"] >= 2.0, row

    def test_incremental_fault_recovery_beats_discard_live(self):
        # Live tier-1 guard for the PR-6 fault subsystem: serving through
        # a seeded crash/recover schedule with incremental recovery
        # (path-scan eviction, suffix reuse) must bill materially fewer
        # ``serve/recovery`` rounds than the discard baseline (no recorded
        # paths: full-pool eviction + from-source restarts at every
        # event).  Simulated rounds are deterministic — no wall-clock
        # flake risk.
        section = bench_faults.bench_faults(**bench_faults.QUICK_FAULTS)
        faulty = [r for r in section["rows"] if r["crash_rate"] > 0]
        assert faulty, section
        for row in faulty:
            assert row["crashes_fired"] > 0, row
            assert row["completed"] == section["requests"], row  # never dropped
            assert row["recovery_rounds"] > 0, row
            assert row["recovery_speedup"] >= 1.5, row

    def test_committed_fault_recovery_section(self):
        # The PR-6 acceptance bar: on the committed n=10k sweep, under a
        # 1% crash-rate schedule every request still completes, and the
        # incremental recovery path beats discard-and-re-prepare by >= 2x
        # simulated recovery rounds.
        results = json.loads(bench.RESULT_PATH.read_text())
        section = results.get("fault_recovery")
        assert section is not None, "run benchmarks/bench_faults.py to regenerate"
        assert section["schema"] == "bench_fault_recovery/v1"
        assert section["n"] == 10_000
        rates = {row["crash_rate"] for row in section["rows"]}
        assert {0.0, 0.001, 0.01} <= rates
        for row in section["rows"]:
            assert row["completed"] == section["requests"], row  # never dropped
            if row["crash_rate"] == 0.0:
                assert row["recovery_rounds"] == 0, row
            else:
                assert row["crashes_fired"] > 0, row
                assert row["recovery_rounds"] < row["discard_recovery_rounds"], row
            if row["crash_rate"] == 0.01:
                assert row["recovery_speedup"] >= 2.0, row

    def test_obs_overhead_harness_live(self):
        # Live tier-1 guard for the PR-9 observability layer: the quick
        # config runs all three attachment configs and the bench itself
        # asserts identical simulated rounds across them (passivity).
        # Wall-clock *ratios* are asserted only on the committed section
        # below — a loaded CI machine can never flake the tier-1 gate.
        section = bench_obs.bench_obs_overhead(**bench_obs.QUICK_OBS)
        assert section["schema"] == "bench_obs_overhead/v1"
        assert section["rounds"] > 0
        assert section["spans"] > 0 and section["spans_dropped"] == 0
        assert section["metrics_series"] > 0
        assert section["baseline_s"] > 0 and section["traced_s"] > 0
        assert json.loads(json.dumps(section)) == section

    def test_committed_obs_overhead_section(self):
        # The PR-9 acceptance bar: on the committed full-workload run the
        # never-attached/inert-attach gap is <= 3% wall-clock (zero cost
        # when off) and full tracing+metrics stays <= 25% at the default
        # ring size.
        results = json.loads(bench.RESULT_PATH.read_text())
        section = results.get("obs_overhead")
        assert section is not None, "run benchmarks/bench_obs.py to regenerate"
        assert section["schema"] == "bench_obs_overhead/v1"
        assert section["ring_size"] == 65_536
        assert section["spans_dropped"] == 0
        assert section["overhead_disabled"] <= section["limits"]["disabled"] == 0.03
        assert section["overhead_traced"] <= section["limits"]["traced"] == 0.25

    def test_congestion_heatmap_harness_live(self):
        # Live tier-1 guard for the PR-10 congestion cartography: the quick
        # config runs baseline/detached/heatmap and the bench itself asserts
        # both passivity (identical simulated rounds) and the conservation
        # identity (every ledger phase fully attributed, zero residual,
        # per-edge maxima reproducing the ledger scalar).  Wall-clock ratios
        # are asserted only on the committed section below.
        section = bench_obs.bench_congestion_heatmap(**bench_obs.QUICK_OBS)
        assert section["schema"] == "bench_congestion_heatmap/v1"
        assert section["rounds"] > 0
        assert section["messages"] > 0
        assert section["located_messages"] == section["messages"]
        assert section["residual_messages"] == 0
        assert section["max_edge_congestion"] >= 1
        assert json.loads(json.dumps(section)) == section

    def test_committed_congestion_heatmap_section(self):
        # The PR-10 acceptance bar: per-edge attribution costs <= 35%
        # wall-clock on the committed full workload, an inert attach <= 3%,
        # and the attribution is *exact* — zero residual messages.
        results = json.loads(bench.RESULT_PATH.read_text())
        section = results.get("congestion_heatmap")
        assert section is not None, "run benchmarks/bench_obs.py to regenerate"
        assert section["schema"] == "bench_congestion_heatmap/v1"
        assert section["residual_messages"] == 0
        assert section["located_messages"] == section["messages"]
        assert section["overhead_detached"] <= section["limits"]["detached"] == 0.03
        assert section["overhead_heatmap"] <= section["limits"]["heatmap"] == 0.35

    def test_slo_window_harness_live(self):
        # Live tier-1 guard for the streaming SLO monitor: the quick config
        # runs baseline/detached/slo and the bench asserts identical
        # simulated rounds (the monitor only reads) plus a non-empty event
        # stream folded through the sliding windows.
        section = bench_obs.bench_slo_window(**bench_obs.QUICK_OBS)
        assert section["schema"] == "bench_slo_window/v1"
        assert section["rounds"] > 0
        assert section["ticks_closed"] > 0
        assert section["events"] > 0
        assert json.loads(json.dumps(section)) == section

    def test_committed_slo_window_section(self):
        # Windowed digests + burn-rate rules stay <= 35% wall-clock on the
        # committed full workload (<= 3% for the inert attach), with every
        # scheduler tick rolled through the monitor.
        results = json.loads(bench.RESULT_PATH.read_text())
        section = results.get("slo_window")
        assert section is not None, "run benchmarks/bench_obs.py to regenerate"
        assert section["schema"] == "bench_slo_window/v1"
        assert section["ticks_closed"] > 0 and section["events"] > 0
        assert section["overhead_detached"] <= section["limits"]["detached"] == 0.03
        assert section["overhead_slo"] <= section["limits"]["slo"] == 0.35

    def test_committed_engine_reuse_section(self):
        # bench_engine_reuse.py appends this section; the committed numbers
        # must show the session API actually amortizing: one Phase-1
        # preparation for the whole query stream, and a wall-clock *and*
        # simulated-rounds win over per-query fresh calls.  (Static check on
        # the committed record — live wall-clock assertions are slow-tier.)
        results = json.loads(bench.RESULT_PATH.read_text())
        row = results.get("engine_reuse")
        assert row is not None, "run benchmarks/bench_engine_reuse.py to regenerate"
        assert row["queries"] >= 100
        assert row["full_preparations"] == 1
        assert row["wallclock_speedup"] > 1.0
        assert row["rounds_speedup"] > 1.0


@pytest.mark.slow
def test_full_acceptance_sweep():
    """The complete acceptance sweep (≥5x at every size) — slow."""
    for n in bench.SIZES:
        row = bench.bench_phase1(n)
        assert row["speedup"] >= 5.0, f"phase-1 speedup regressed at n={n}: {row}"
