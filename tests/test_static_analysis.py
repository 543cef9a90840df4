"""Tier-1 gate for the AST invariant analyzer (:mod:`repro.analysis`).

Two halves:

* **the repo gate** — all rules over ``src`` produce zero unsuppressed
  findings (the static analogue of the golden-ledger tests: the standing
  invariants hold at the source level, not just on one seed run);
* **fixture units** — for every rule, at least one true-positive snippet
  (the rule demonstrably fires) and one true-negative (the compliant
  idiom stays silent), plus pragma suppression and CLI behavior.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    BareAssertRule,
    BareUniqueRule,
    BulkOnlyRule,
    CaptureBalanceRule,
    DeadImportRule,
    FastPathPairingRule,
    ObsPassivityRule,
    OneTraversalRule,
    PairKeyRule,
    PhaseRegistryRule,
    SeededRngRule,
    analyze_paths,
    default_rules,
)
from repro.congest.phases import ALL_PHASES, PHASE_FAMILIES, is_registered
from repro.util.arrays import sorted_unique
from repro.util.contracts import FAST_PATH_ATTR, charged_fast_path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_rule(rule, tmp_path: Path, source: str, *, root: Path | None = None):
    """Write ``source`` to a fixture file and run one rule over it."""
    fixture = tmp_path / "fixture.py"
    fixture.write_text(source)
    return analyze_paths([fixture], [rule], root=root or REPO_ROOT)


# ----------------------------------------------------------------------
# The repo gate
# ----------------------------------------------------------------------
class TestRepoGate:
    def test_src_has_zero_findings_under_all_rules(self):
        report = analyze_paths([REPO_ROOT / "src"], default_rules(), root=REPO_ROOT)
        assert not report.parse_errors, [f.format(REPO_ROOT) for f in report.parse_errors]
        assert not report.findings, "\n" + "\n".join(
            f.format(REPO_ROOT) for f in report.findings
        )
        assert report.files_checked > 50  # the walker actually walked the tree

    def test_cli_exits_zero_on_repo(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"
        assert "0 finding(s)" in proc.stdout

    def test_cli_exits_nonzero_on_violation(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(bad), "--root", str(REPO_ROOT)],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "seeded-rng" in proc.stdout

    def test_cli_list_rules(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for rule in default_rules():
            assert rule.name in proc.stdout


# ----------------------------------------------------------------------
# Rule 1: phase-registry
# ----------------------------------------------------------------------
class TestPhaseRegistryRule:
    def test_registry_contents(self):
        assert "phase1" in ALL_PHASES
        assert "pool-refill/maintain" in ALL_PHASES
        assert "serve" in PHASE_FAMILIES and "pool-refill" in PHASE_FAMILIES
        assert is_registered("serve/recovery") and not is_registered("serve/recoverey")

    def test_true_positive_unregistered_literal(self, tmp_path):
        report = run_rule(
            PhaseRegistryRule(),
            tmp_path,
            'def f(net):\n    with net.phase("pool-refil/maintain"):\n        pass\n',
        )
        assert len(report.findings) == 1
        assert "not registered" in report.findings[0].message

    def test_true_positive_phase_total_and_keyword(self, tmp_path):
        src = (
            "def f(ledger, engine, tree):\n"
            '    x = ledger.phase_total("srve")\n'
            '    engine._report_convergecast(tree, [1], phase="reprot")\n'
            "    return x\n"
        )
        report = run_rule(PhaseRegistryRule(), tmp_path, src)
        assert len(report.findings) == 2

    def test_true_positive_mapping_lookup_and_default(self, tmp_path):
        src = (
            'def f(delta, sample_phase="batch-sampel"):\n'
            '    return delta.phase_rounds.get("serve/recoverey", 0)\n'
        )
        report = run_rule(PhaseRegistryRule(), tmp_path, src)
        assert len(report.findings) == 2

    def test_true_negative_constant_and_registered(self, tmp_path):
        src = (
            "from repro.congest.phases import PHASE1\n"
            "def f(net, ledger):\n"
            "    with net.phase(PHASE1):\n"
            "        pass\n"
            '    return ledger.phase_total("pool-refill")\n'  # registered family, non-src file
        )
        report = run_rule(PhaseRegistryRule(), tmp_path, src)
        assert not report.findings

    def test_src_files_get_strict_constant_enforcement(self, tmp_path):
        # Outside src/repro a registered literal passes (previous test);
        # inside it the rule demands the constant.
        nested = tmp_path / "src" / "repro" / "x"
        nested.mkdir(parents=True)
        fixture = nested / "mod.py"
        fixture.write_text('def f(net):\n    with net.phase("phase1"):\n        pass\n')
        report = analyze_paths([fixture], [PhaseRegistryRule()], root=REPO_ROOT)
        assert len(report.findings) == 1
        assert "use the repro.congest.phases constant" in report.findings[0].message


# ----------------------------------------------------------------------
# Rule 2: bulk-only
# ----------------------------------------------------------------------
class TestBulkOnlyRule:
    def test_true_positive_add_batch_in_loop(self, tmp_path):
        src = (
            "def refill(store, records):\n"
            "    for r in records:\n"
            "        store.add_batch([r.source], [r.length], [r.destination])\n"
        )
        report = run_rule(BulkOnlyRule(), tmp_path, src)
        assert len(report.findings) == 1
        assert "add_batch" in report.findings[0].message

    def test_true_positive_store_append_in_while(self, tmp_path):
        src = (
            "def drain(self, items):\n"
            "    while items:\n"
            "        self.store.columns.append(items.pop())\n"
        )
        report = run_rule(BulkOnlyRule(), tmp_path, src)
        assert len(report.findings) == 1

    def test_true_negative_add_batch_and_plain_appends(self, tmp_path):
        src = (
            "def refill(store, cols, out):\n"
            "    store.add_batch(*cols)\n"
            "    for c in cols:\n"
            "        out.append(c)\n"  # plain list, not a store column
            "    store.add_batch(*cols)\n"  # after the loop, outside it
        )
        report = run_rule(BulkOnlyRule(), tmp_path, src)
        assert not report.findings

    def test_nested_function_resets_loop_context(self, tmp_path):
        src = (
            "def outer(store, records):\n"
            "    for r in records:\n"
            "        def cb():\n"
            "            store.add_batch(*r)\n"  # defined in loop, not per-record work
            "        cb\n"
        )
        report = run_rule(BulkOnlyRule(), tmp_path, src)
        assert not report.findings

    @staticmethod
    def run_at(tmp_path: Path, rel: str, source: str):
        # The hop-loop check polices the production tree only.
        return TestObsPassivityRule.run_at(BulkOnlyRule(), tmp_path, rel, source)

    def test_true_positive_hop_loop_outside_the_two_loops(self, tmp_path):
        src = (
            "def parallel_tails(graph, positions, rng):\n"
            "    for _ in range(3):\n"
            "        positions = graph.csr_target[graph.step_walk_slots(positions, rng)]\n"
            "    return positions\n"
            "def walk_tokens(graph, positions, rng):\n"
            "    def step():\n"  # a helper nested in an allowed loop is its own function
            "        return graph.step_walk_slots(positions, rng)\n"
            "    return step\n"
        )
        report = self.run_at(tmp_path, "src/repro/walks/x.py", src)
        assert [f.lineno for f in report.findings] == [3, 7]
        assert all("walk_tokens" in f.message for f in report.findings)

    def test_true_negative_the_two_loops_graph_module_and_outside_src(self, tmp_path):
        src = (
            "def walk_tokens(graph, positions, rng):\n"
            "    for _ in range(3):\n"
            "        positions = graph.csr_target[graph.step_walk_slots(positions, rng)]\n"
            "def get_more_walks_batch(graph, positions, rng):\n"
            "    return graph.step_walk_slots(positions, rng)\n"
        )
        assert not self.run_at(tmp_path, "src/repro/walks/y.py", src).findings
        defining = "def step_walks(self, positions, rng):\n    return self.step_walk_slots(positions, rng)\n"
        assert not self.run_at(tmp_path, "src/repro/graphs/graph.py", defining).findings
        assert not run_rule(BulkOnlyRule(), tmp_path, defining).findings  # benches, tests


# ----------------------------------------------------------------------
# Rule 3: seeded-rng
# ----------------------------------------------------------------------
class TestSeededRngRule:
    def test_true_positive_all_four_shapes(self, tmp_path):
        src = (
            "import random\n"
            "import time\n"
            "import numpy as np\n"
            "from numpy.random import default_rng\n"
            "def f():\n"
            "    a = np.random.rand(3)\n"
            "    b = default_rng()\n"
            "    c = time.time()\n"
            "    d = random.random()\n"
            "    return a, b, c, d\n"
        )
        report = run_rule(SeededRngRule(), tmp_path, src)
        assert len(report.findings) == 4
        kinds = "\n".join(f.message for f in report.findings)
        assert "module-global" in kinds and "bare default_rng" in kinds
        assert "wall-clock" in kinds and "stdlib" in kinds

    def test_true_positive_from_random_import(self, tmp_path):
        report = run_rule(SeededRngRule(), tmp_path, "from random import choice\nchoice\n")
        assert len(report.findings) == 1

    def test_true_negative_seeded_plumbing(self, tmp_path):
        src = (
            "import numpy as np\n"
            "from repro.util.rng import derive_rng, make_rng\n"
            "def f(seed):\n"
            "    rng = make_rng(seed)\n"
            "    sub = derive_rng(seed, 'phase', 3)\n"
            "    explicit = np.random.default_rng(seed)\n"
            "    seq = np.random.SeedSequence(seed)\n"
            "    return rng.random(), sub, explicit, seq\n"
        )
        report = run_rule(SeededRngRule(), tmp_path, src)
        assert not report.findings

    def test_util_rng_is_exempt(self):
        rule = SeededRngRule()
        assert not rule.applies_to(REPO_ROOT / "src" / "repro" / "util" / "rng.py")
        assert rule.applies_to(REPO_ROOT / "src" / "repro" / "engine" / "core.py")


# ----------------------------------------------------------------------
# Rule 4: fast-path-pairing
# ----------------------------------------------------------------------
class TestFastPathPairingRule:
    def test_decorator_attaches_metadata_and_validates(self):
        @charged_fast_path(equivalence_test="tests/test_x.py::test_y")
        def fast():
            return 1

        assert getattr(fast, FAST_PATH_ATTR) == "tests/test_x.py::test_y"
        assert fast() == 1
        with pytest.raises(ValueError):
            charged_fast_path(equivalence_test="not-a-node-id")

    def test_true_positive_missing_file_and_missing_test(self, tmp_path):
        src = (
            "from repro.util.contracts import charged_fast_path\n"
            "@charged_fast_path(equivalence_test='tests/test_gone.py::test_x')\n"
            "def a(): pass\n"
            "@charged_fast_path(equivalence_test='tests/real.py::test_missing')\n"
            "def b(): pass\n"
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "real.py").write_text("def test_present(): pass\n")
        report = run_rule(FastPathPairingRule(), tmp_path, src, root=tmp_path)
        assert len(report.findings) == 2
        messages = "\n".join(f.message for f in report.findings)
        assert "does not exist" in messages and "lost its proof" in messages

    def test_true_positive_non_literal_marker(self, tmp_path):
        src = (
            "from repro.util.contracts import charged_fast_path\n"
            "NODE = 'tests/x.py::test_y'\n"
            "@charged_fast_path(equivalence_test=NODE)\n"
            "def a(): pass\n"
        )
        report = run_rule(FastPathPairingRule(), tmp_path, src, root=tmp_path)
        assert len(report.findings) == 1
        assert "literal" in report.findings[0].message

    def test_true_negative_existing_test_including_class_member(self, tmp_path):
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "real.py").write_text(
            "class TestSuite:\n    def test_inside(self): pass\n"
        )
        src = (
            "from repro.util.contracts import charged_fast_path\n"
            "@charged_fast_path(equivalence_test='tests/real.py::TestSuite::test_inside')\n"
            "def a(): pass\n"
            "@charged_fast_path(equivalence_test='tests/real.py::test_inside')\n"
            "def b(): pass\n"
        )
        report = run_rule(FastPathPairingRule(), tmp_path, src, root=tmp_path)
        assert not report.findings

    def test_repo_fast_paths_are_marked(self):
        # The three ROADMAP fast paths (plus Phase 1) carry live markers.
        from repro.congest.primitives import build_bfs_tree
        from repro.engine.core import WalkEngine
        from repro.walks.get_more_walks import get_more_walks_batch
        from repro.walks.short_walks import perform_short_walks

        for fn in (
            build_bfs_tree,
            WalkEngine._report_convergecast,
            get_more_walks_batch,
            perform_short_walks,
        ):
            node_id = getattr(fn, FAST_PATH_ATTR, None)
            assert node_id, f"{fn.__qualname__} lost its @charged_fast_path marker"
            rel, _, name = node_id.partition("::")
            assert (REPO_ROOT / rel).exists()


# ----------------------------------------------------------------------
# Rule 5: capture-balance
# ----------------------------------------------------------------------
class TestCaptureBalanceRule:
    def test_true_positive_capture_without_delta(self, tmp_path):
        src = (
            "def serve(net):\n"
            "    snap = net.ledger.capture()\n"
            "    return snap\n"
        )
        report = run_rule(CaptureBalanceRule(), tmp_path, src)
        assert len(report.findings) == 1
        assert "dead accounting" in report.findings[0].message

    def test_true_positive_delta_without_capture(self, tmp_path):
        src = (
            "def serve(net, snap):\n"
            "    return net.ledger.delta_since(snap)\n"
        )
        report = run_rule(CaptureBalanceRule(), tmp_path, src)
        assert len(report.findings) == 1
        assert "baseline" in report.findings[0].message

    def test_true_negative_paired_and_unrelated_capture(self, tmp_path):
        src = (
            "def serve(net):\n"
            "    snap = net.ledger.capture()\n"
            "    work(net)\n"
            "    return net.ledger.delta_since(snap)\n"
            "def work(camera):\n"
            "    camera.capture()\n"  # not a ledger: out of scope for the rule
        )
        report = run_rule(CaptureBalanceRule(), tmp_path, src)
        assert not report.findings

    def test_scopes_are_independent(self, tmp_path):
        src = (
            "def good(net):\n"
            "    s = net.ledger.capture()\n"
            "    return net.ledger.delta_since(s)\n"
            "def bad(net):\n"
            "    s = net.ledger.capture()\n"
            "    return s\n"
        )
        report = run_rule(CaptureBalanceRule(), tmp_path, src)
        assert len(report.findings) == 1
        assert report.findings[0].lineno == 5


# ----------------------------------------------------------------------
# Rule 6: dead-import (framework home of the old test_lint walk)
# ----------------------------------------------------------------------
class TestDeadImportRule:
    def test_true_positive(self, tmp_path):
        report = run_rule(DeadImportRule(), tmp_path, "import os\nimport sys\nprint(sys)\n")
        assert len(report.findings) == 1
        assert "'os'" in report.findings[0].message

    def test_true_negative_and_init_exemption(self, tmp_path):
        report = run_rule(DeadImportRule(), tmp_path, "import os\nprint(os.sep)\n")
        assert not report.findings
        init = tmp_path / "__init__.py"
        init.write_text("import os\n")
        assert not analyze_paths([init], [DeadImportRule()], root=REPO_ROOT).findings


# ----------------------------------------------------------------------
# Rule 7: obs-passivity
# ----------------------------------------------------------------------
class TestObsPassivityRule:
    """Wall-clock only via obs/clock.py; no mutators/RNG inside obs/."""

    @staticmethod
    def run_at(rule, tmp_path: Path, rel: str, source: str):
        # The rule only polices the production tree, so fixtures must
        # live at a src/repro/... path (run_rule's flat tmp file is
        # outside the rule's jurisdiction by design).
        fixture = tmp_path / rel
        fixture.parent.mkdir(parents=True, exist_ok=True)
        fixture.write_text(source)
        return analyze_paths([fixture], [rule], root=REPO_ROOT)

    def test_true_positive_wall_clock_in_production(self, tmp_path):
        src = (
            "import time\n"
            "from time import monotonic\n"
            "def f():\n"
            "    return time.perf_counter() + monotonic()\n"
        )
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/engine/x.py", src)
        assert len(report.findings) == 2
        assert all("wall clock" in f.message for f in report.findings)

    def test_clock_module_is_exempt_and_repo_clock_uses_perf_counter(self, tmp_path):
        src = "import time\n\ndef now():\n    return time.perf_counter()\n"
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/obs/clock.py", src)
        assert not report.findings
        # The real wrapper would trip the rule anywhere else — the
        # exemption is what makes it the single audited wall-clock home.
        real = REPO_ROOT / "src" / "repro" / "obs" / "clock.py"
        assert "perf_counter" in real.read_text()
        assert not ObsPassivityRule().applies_to(real)

    def test_true_positive_mutator_and_rng_inside_obs(self, tmp_path):
        src = (
            "def hook(ledger, store, rng):\n"
            '    ledger.charge("phase1", rounds=1, messages=0)\n'
            "    store.add_batch([1])\n"
            "    return rng.integers(0, 10)\n"
        )
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/obs/bad.py", src)
        messages = [f.message for f in report.findings]
        assert len(messages) == 3
        assert sum("mutates simulation state" in m for m in messages) == 2
        assert sum("RNG" in m for m in messages) == 1

    def test_true_positive_token_draw_inside_obs(self, tmp_path):
        # A draw retires a token and advances the session's generator.
        src = "def hook(store, rng):\n    return store.sample_uniform_token(0, rng)\n"
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/obs/peek.py", src)
        assert len(report.findings) == 1
        assert "sample_uniform_token() mutates simulation state" in report.findings[0].message

    def test_true_negative_mutators_fine_outside_obs_and_passive_obs(self, tmp_path):
        engine_src = (
            "def serve(ledger, store):\n"
            '    ledger.charge("phase1", rounds=1, messages=0)\n'
            "    store.add_batch([1])\n"
        )
        report = self.run_at(
            ObsPassivityRule(), tmp_path, "src/repro/engine/y.py", engine_src
        )
        assert not report.findings
        obs_src = (
            "def hook(ledger, sink):\n"
            "    sink.append(ledger.rounds)\n"
            "    return ledger.capture()\n"
        )
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/obs/ok.py", obs_src)
        assert not report.findings

    def test_true_positive_stage_edges_inside_obs(self, tmp_path):
        src = (
            "def hook(self, slots):\n"
            "    self.stage_edges(slots)\n"
        )
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/obs/heat.py", src)
        assert len(report.findings) == 1
        assert "stages heatmap attribution" in report.findings[0].message
        # The charge path (outside obs/) is exactly who may stage.
        report = self.run_at(
            ObsPassivityRule(), tmp_path, "src/repro/congest/net2.py", src
        )
        assert not report.findings

    STAGING_SRC = (
        "def sweep(net, tree, heatmap, slots):\n"
        "    net._stage_slots(slots, slots, slots)\n"
        "    stage_tree_funnel(net, tree, messages=2, congestion=1)\n"
        "    stage_tree_hops(net, tree, [1], [])\n"
        "    heatmap.stage_edges(slots)\n"
        "    heatmap.stage_counts(slots)\n"
    )

    def test_true_positive_staging_outside_congest(self, tmp_path):
        # A caller staging beside its own charge decides edge attribution
        # outside the layer that bills it.
        for rel in ("src/repro/engine/sweep.py", "src/repro/walks/sweep.py"):
            report = self.run_at(ObsPassivityRule(), tmp_path, rel, self.STAGING_SRC)
            assert [f.lineno for f in report.findings] == [2, 3, 4, 5, 6]
            assert all("outside repro.congest" in f.message for f in report.findings)

    def test_true_negative_staging_inside_congest_and_lookalikes(self, tmp_path):
        report = self.run_at(
            ObsPassivityRule(), tmp_path, "src/repro/congest/prims.py", self.STAGING_SRC
        )
        assert not report.findings
        # The tree charges that stage, a lookalike method and an attribute
        # read are all fine outside congest/.
        src = (
            "def sweep(net, tree, heatmap):\n"
            "    charge_tree_funnel(net, tree, 2)\n"
            "    heatmap.stage_names()\n"
            "    return heatmap.stage_edges\n"
        )
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/engine/ok.py", src)
        assert not report.findings

    def test_settle_charge_only_from_probe(self, tmp_path):
        src = (
            "def charged(self, phase, rounds, messages, congestion):\n"
            "    self.heatmap.settle_charge(phase, rounds, messages, congestion)\n"
        )
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/obs/other.py", src)
        assert len(report.findings) == 1
        assert "outside the probe" in report.findings[0].message
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/obs/probe.py", src)
        assert not report.findings

    def test_true_positive_registry_family_outside_obs(self, tmp_path):
        src = (
            "def submit(self, metrics, registry, tenant):\n"
            '    self.engine.obs.metrics.counter("x_total").inc(1, tenant=tenant)\n'
            '    metrics.gauge("depth").set(3)\n'
            '    registry.histogram("lat").observe(4)\n'
        )
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/serve/x.py", src)
        messages = [f.message for f in report.findings]
        assert len(messages) == 3
        assert all("counts into the metrics registry" in m for m in messages)

    def test_true_negative_registry_families_inside_obs_and_lookalikes(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def collect(self, metrics, values):\n"
            '    metrics.counter("x_total").inc(1)\n'
            "    return np.histogram(values, bins=4), self.counter(values)\n"
        )
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/obs/collect.py", src)
        assert not report.findings
        # Outside obs/, only the registry call is a finding, not the
        # numpy histogram or a method that happens to be named counter.
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/engine/w.py", src)
        assert [f.lineno for f in report.findings] == [3]

    def test_outside_production_tree_is_ignored(self, tmp_path):
        report = run_rule(
            ObsPassivityRule(),
            tmp_path,
            "import time\n\ndef bench():\n    return time.perf_counter()\n",
        )
        assert not report.findings

    def test_pragma_suppresses(self, tmp_path):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()  # repro: allow-obs-passivity\n"
        )
        report = self.run_at(ObsPassivityRule(), tmp_path, "src/repro/engine/z.py", src)
        assert not report.findings
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# Rule 8: bare-assert
# ----------------------------------------------------------------------
class TestBareAssertRule:
    run_at = staticmethod(TestObsPassivityRule.run_at)

    def test_true_positive_assert_in_production(self, tmp_path):
        src = (
            "def f(x):\n"
            "    assert x is not None\n"
            "    assert x, 'message'\n"
            "    return x\n"
        )
        report = self.run_at(BareAssertRule(), tmp_path, "src/repro/walks/x.py", src)
        assert [f.lineno for f in report.findings] == [2, 3]
        assert all("python -O" in f.message for f in report.findings)

    def test_true_negative_raise_and_outside_production(self, tmp_path):
        src = (
            "from repro.errors import WalkError\n"
            "def f(x):\n"
            "    if x is None:\n"
            "        raise WalkError('x missing')\n"
            "    return x\n"
        )
        report = self.run_at(BareAssertRule(), tmp_path, "src/repro/walks/y.py", src)
        assert not report.findings
        # Tests and benchmarks assert by design.
        report = run_rule(BareAssertRule(), tmp_path, "def test_f():\n    assert 1 + 1 == 2\n")
        assert not report.findings


# ----------------------------------------------------------------------
# Rule 9: bare-unique
# ----------------------------------------------------------------------
class TestBareUniqueRule:
    run_at = staticmethod(TestObsPassivityRule.run_at)

    def test_true_positive_unique_asking_for_nothing(self, tmp_path):
        src = (
            "import numpy\n"
            "import numpy as np\n"
            "from numpy import unique as uq\n"
            "def f(x):\n"
            "    a = np.unique(x)\n"
            "    b = numpy.unique(x, return_counts=False, axis=None)\n"
            "    c = uq(x)\n"
            "    d = np.unique(x, False, False, False)\n"
            "    return a, b, c, d\n"
        )
        report = self.run_at(BareUniqueRule(), tmp_path, "src/repro/walks/x.py", src)
        assert [f.lineno for f in report.findings] == [5, 6, 7, 8]
        assert all("sorted_unique" in f.message for f in report.findings)

    def test_true_negative_flags_helper_and_outside_production(self, tmp_path):
        src = (
            "import numpy as np\n"
            "from repro.util.arrays import sorted_unique\n"
            "def f(x, flags):\n"
            "    a = np.unique(x, return_counts=True)\n"
            "    b = np.unique(x, return_inverse=True)\n"
            "    c = np.unique(x, True)\n"
            "    d = np.unique(x, **flags)\n"
            "    return a, b, c, d, sorted_unique(x)\n"
        )
        report = self.run_at(BareUniqueRule(), tmp_path, "src/repro/walks/y.py", src)
        assert not report.findings
        # Tests and benchmarks may call numpy however they like.
        report = run_rule(BareUniqueRule(), tmp_path, "import numpy as np\nnp.unique([1])\n")
        assert not report.findings

    def test_pragma_suppresses(self, tmp_path):
        src = "import numpy as np\nu = np.unique([2, 1])  # repro: allow-bare-unique\n"
        report = self.run_at(BareUniqueRule(), tmp_path, "src/repro/walks/z.py", src)
        assert not report.findings and len(report.suppressed) == 1

    def test_sorted_unique_matches_numpy(self):
        rng = np.random.default_rng(3)
        for values in (
            rng.integers(-50, 50, size=400),
            rng.integers(0, 3, size=(7, 5)),
            np.array([], dtype=np.int64),
            np.array([True, False, True]),
            [4, 1, 4, 4],
        ):
            got = sorted_unique(values)
            want = np.unique(values)
            assert got.dtype == want.dtype and np.array_equal(got, want)


# ----------------------------------------------------------------------
# Rule 10: one-traversal
# ----------------------------------------------------------------------
class TestOneTraversalRule:
    run_at = staticmethod(TestObsPassivityRule.run_at)

    def test_true_positive_frontier_loop_outside_graphs(self, tmp_path):
        src = (
            "def reach(graph, frontier):\n"
            "    starts = graph.indptr[frontier]\n"
            "    return graph.indptr[frontier + 1] - starts\n"
        )
        report = self.run_at(OneTraversalRule(), tmp_path, "src/repro/congest/x.py", src)
        assert [f.lineno for f in report.findings] == [2, 3]
        assert all("bfs_distances" in f.message for f in report.findings)

    def test_true_negative_graphs_kernel_callers_and_outside_production(self, tmp_path):
        kernel = "def degree(graph, v):\n    return graph.indptr[v + 1] - graph.indptr[v]\n"
        report = self.run_at(OneTraversalRule(), tmp_path, "src/repro/graphs/y.py", kernel)
        assert not report.findings
        caller = (
            "from repro.graphs.properties import bfs_distances\n"
            "def connected(graph, live):\n"
            "    mask = live[graph.csr_target]\n"
            "    return (bfs_distances(graph, 0, slot_mask=mask)[live] >= 0).all()\n"
        )
        report = self.run_at(OneTraversalRule(), tmp_path, "src/repro/congest/z.py", caller)
        assert not report.findings
        # Tests and benchmarks may read the CSR arrays directly.
        report = run_rule(OneTraversalRule(), tmp_path, kernel)
        assert not report.findings


# ----------------------------------------------------------------------
# Rule 11: pair-key
# ----------------------------------------------------------------------
class TestPairKeyRule:
    run_at = staticmethod(TestObsPassivityRule.run_at)

    def test_true_positive_keys_formed_or_decoded_outside_graphs(self, tmp_path):
        src = (
            "def slots(net, u, v, n):\n"
            "    keys, order = net.graph.pair_index()\n"
            "    key = u * net.graph.n + v\n"
            "    other = v + n * u\n"
            "    return keys // n, order, key, other\n"
        )
        report = self.run_at(PairKeyRule(), tmp_path, "src/repro/congest/x.py", src)
        assert [f.lineno for f in report.findings] == [2, 3, 4, 5]
        assert "pair_keys" in report.findings[1].message

    def test_true_negative_graphs_helper_wraps_and_outside_production(self, tmp_path):
        kernel = "def keys(src, dst, n):\n    return src * n + dst, src // n\n"
        report = self.run_at(PairKeyRule(), tmp_path, "src/repro/graphs/y.py", kernel)
        assert not report.findings
        caller = (
            "from repro.graphs.graph import pair_keys\n"
            "def slots(graph, u, v, step):\n"
            "    ring = (u + step) % graph.n\n"
            "    scaled = 2 * graph.n\n"
            "    return graph.pair_slots(pair_keys(u, v, graph.n)), ring, scaled + 1\n"
        )
        report = self.run_at(PairKeyRule(), tmp_path, "src/repro/congest/z.py", caller)
        assert not report.findings
        # Tests and benchmarks may form keys to check the graph's.
        report = run_rule(PairKeyRule(), tmp_path, kernel)
        assert not report.findings


# ----------------------------------------------------------------------
# Pragma suppression + framework behavior
# ----------------------------------------------------------------------
class TestPragmasAndFramework:
    def test_pragma_suppresses_named_rule_only(self, tmp_path):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: allow-seeded-rng (bench timestamp, audited)\n"
        )
        report = run_rule(SeededRngRule(), tmp_path, src)
        assert not report.findings
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "seeded-rng"

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: allow-bulk-only\n"
        )
        report = run_rule(SeededRngRule(), tmp_path, src)
        assert len(report.findings) == 1

    def test_unparseable_file_is_reported_not_fatal(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = analyze_paths([bad], default_rules(), root=REPO_ROOT)
        assert not report.ok
        assert report.parse_errors and report.parse_errors[0].rule == "parse"

    def test_findings_sorted_and_formatted(self, tmp_path):
        src = (
            "import time\n"
            "import os\n"
            "def f():\n"
            "    return time.time()\n"
        )
        fixture = tmp_path / "fixture.py"
        fixture.write_text(src)
        report = analyze_paths([fixture], default_rules(), root=tmp_path)
        linenos = [f.lineno for f in report.findings]
        assert linenos == sorted(linenos)
        assert report.findings[0].format(tmp_path).startswith("fixture.py:")
