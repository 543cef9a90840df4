"""Congestion cartography (PR 10): passivity + exact conservation.

The :class:`~repro.obs.heatmap.HeatmapSink` claims two hard guarantees:

* **passivity** — attaching per-edge attribution changes *nothing*
  simulated: every golden one-shot ledger stays bit-identical, and a
  full serve session through churn + a crash/recover episode lands on
  the identical round/message totals;
* **conservation** — for every ledger phase,
  ``located + retired + residual == ledger messages`` exactly, the
  residual is zero on every covered workload (all staging sites really
  fire), and the per-edge congestion maxima reproduce the ledger's
  ``max_congestion`` scalar.

Conservation alone cannot see a message booked on the wrong slot, so the
per-edge map itself is pinned too: a digest of every phase's per-slot
column, the floored per-slot congestion maxima and the retired/residual
buckets, on every golden case, the churn + crash session, a session whose
crash fires inside a cohort's sweeps (so its report rides a stale tree),
and a tree object held across a churn event.

Plus the churn-survival mechanics (slot remaps preserve history, deleted
slots retire without losing a message) and the export surfaces
(Perfetto counter track, JSON summary schema).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import (
    Graph,
    WalkEngine,
    many_random_walks,
    naive_random_walk,
    podc09_random_walk,
    random_regular_graph,
    torus_graph,
)
from repro.congest import Network
from repro.congest.faults import FaultSchedule, FaultStep
from repro.congest.phases import REPORT
from repro.congest.primitives import (
    build_bfs_tree,
    charged_broadcast,
    charged_convergecast,
    stage_tree_funnel,
    stage_tree_hops,
)
from repro.dynamic import GraphDelta, sample_churn_delta
from repro.graphs.graph import pair_keys
from repro.obs import HeatmapSink, Probe, SloMonitor, Tracer
from repro.walks import single_random_walk

from test_ledger_golden import GOLDEN_SINGLE, SINGLE_CASES, _snapshot
from test_obs import run_session


def golden_run_with_heatmap(name: str):
    """One golden single-walk case with a live heatmap observer."""
    factory, source, length, seed, kwargs = SINGLE_CASES[name]
    graph = factory()
    net = Network(graph, seed=0)
    heatmap = HeatmapSink()
    heatmap.bind_topology(graph.n, graph.slot_sources(), graph.csr_target)
    probe = Probe(heatmap=heatmap)
    net.ledger.observer = probe
    probe.attached(net.ledger)
    net.heatmap = heatmap
    result = single_random_walk(graph, source, length, seed=seed, network=net, **kwargs)
    return net, result, heatmap


#: The baselines' conservation cases: each walks torus 8×8 from node 0 and
#: reports its endpoint(s) back, so every baseline charge site fires.
BASELINE_CASES = {
    "podc09": lambda graph, net: podc09_random_walk(graph, 0, 256, seed=7, network=net),
    "naive": lambda graph, net: naive_random_walk(
        graph, 0, 256, seed=7, network=net, report_to_source=True
    ),
    "naive-parallel": lambda graph, net: many_random_walks(
        graph, [0, 5, 17], 16, seed=7, network=net
    ),
}


def baseline_run_with_heatmap(name: str):
    """One baseline case of :data:`BASELINE_CASES` with a live heatmap observer."""
    graph = torus_graph(8, 8)
    engine = WalkEngine(graph, seed=0)
    heatmap = HeatmapSink()
    engine.attach_observability(heatmap=heatmap)
    result = BASELINE_CASES[name](graph, engine.network)
    return engine.network, result, heatmap


@pytest.fixture(scope="module")
def heatmapped_session():
    heatmap = HeatmapSink()
    engine, sched, snap = run_session(
        tracer=Tracer(), heatmap=heatmap, slo=SloMonitor()
    )
    return engine, sched, snap, heatmap


def crash_in_sweeps_session(crash, *, n=300, at=100):
    """Scheduled serving whose crash fires inside a cohort's sweeps.

    The crash lands ``at`` rounds after warm-up and recovers 3,000 rounds
    later.  Returns ``(engine, heatmap, stale)``, where ``stale[i]`` says
    whether cohort report ``i`` ran on a tree the topology had already
    left behind (the cohort's pre-fault tree).
    """
    graph = random_regular_graph(n, 4, 7)
    engine = WalkEngine(graph, seed=7, record_paths=True, auto_maintain=False)
    heatmap = HeatmapSink()
    engine.attach_observability(heatmap=heatmap)
    engine.prepare(length_hint=256)
    sched = engine.scheduler(max_batch_walks=16, pipelined_report=True)
    stale: list[bool] = []
    report = engine._report_convergecast

    def spy(tree, ks, **kwargs):
        stale.append(engine._tree_cache.get(tree.root) is not tree)
        report(tree, ks, **kwargs)

    engine._report_convergecast = spy
    base = engine.network.rounds
    engine.attach_faults(
        FaultSchedule(
            steps=(
                FaultStep(at_round=base + at, crash=crash),
                FaultStep(at_round=base + at + 3_000, recover=crash),
            )
        )
    )
    rng = np.random.default_rng(3)
    for _ in range(6):
        for _ in range(3):
            sched.submit(rng.integers(0, n, size=4).tolist(), 256)
        sched.tick()
    sched.drain()
    return engine, heatmap, stale


def tree_held_across_churn():
    """Stage one tree's sweeps before and after a churn event it outlives.

    Returns ``(engine, tree, heatmap)``.  The churn deletes two non-tree
    edges and inserts two, so every tree edge survives but CSR slot ids
    shift; the ``REPORT`` phase holds only the post-churn sweeps.
    """
    graph = random_regular_graph(64, 4, 9)
    engine = WalkEngine(graph, seed=1, record_paths=False, auto_maintain=False)
    heatmap = HeatmapSink()
    engine.attach_observability(heatmap=heatmap)
    net = engine.network
    tree = build_bfs_tree(net, 0, cache=engine._tree_cache)
    charged_broadcast(net, tree)
    charged_convergecast(net, tree, [1] * graph.n, lambda a, b: a + b)
    tree_edges = {frozenset((v, p)) for v, p in enumerate(tree.parent) if v != tree.root}
    spare = [tuple(e) for e in graph.edge_array.tolist() if frozenset(e) not in tree_edges]
    engine.apply_churn(GraphDelta(insert_edges=[(1, 40), (2, 50)], delete_edges=spare[:2]))
    with net.phase(REPORT):
        charged_broadcast(net, tree)
        charged_convergecast(net, tree, [1] * graph.n, lambda a, b: a + b)
        stage_tree_funnel(net, tree, messages=6, congestion=3)
        net.ledger.charge(1, messages=6, congestion=3)
    return engine, tree, heatmap


def edge_map(heatmap: HeatmapSink) -> dict:
    """Digest of the per-edge map: per-phase columns, floored maxima, buckets."""

    def sha(arr) -> str:
        data = np.ascontiguousarray(arr, dtype="<i8").tobytes()
        return hashlib.sha256(data).hexdigest()[:16]

    heatmap._cmax_floor()
    return {
        "columns": {p: sha(col) for p, col in sorted(heatmap._phase_messages.items())},
        "cmax": sha(heatmap._slot_cmax),
        "buckets": {
            p: [row["retired"], row["residual"]]
            for p, row in heatmap.phase_table().items()
            if row["retired"] or row["residual"]
        },
    }


#: Per-edge map digests (see :func:`edge_map`).  A staging refactor must
#: leave every one unchanged: a message booked on another slot moves them.
EDGE_MAPS = {
    "session/churn-crash": {
        "buckets": {
            "phase1": [477, 0],
            "pool-refill/churn": [240, 0],
            "serve/sample": [2856, 0],
            "serve/setup": [66, 0],
            "serve/stitch-route": [63, 0],
            "serve/tail": [15, 0],
            "setup": [9, 0]
        },
        "cmax": "31782485b5c0a2a2",
        "columns": {
            "phase1": "c95386db2815e040",
            "pool-refill/churn": "95ee6683fbf9fe6a",
            "pool-refill/serve": "1db237a9c3d44aa5",
            "serve/recovery": "b3c9590e19a19667",
            "serve/report": "953d980c153b83f4",
            "serve/sample": "f86b873a204c65bb",
            "serve/setup": "63f59b0ff2b50e07",
            "serve/stitch-route": "00abf2c6251aad7d",
            "serve/tail": "e1741c9d5914c099",
            "setup": "b177167e8aec79ad"
        }
    },
    "session/crash-in-sweeps": {
        "buckets": {
            "phase1": [222, 0],
            "serve/sample": [104, 0],
            "serve/setup": [4, 0],
            "setup": [4, 0]
        },
        "cmax": "3011bc668a53ef1d",
        "columns": {
            "phase1": "3bfc1fbeff4da92c",
            "pool-refill/serve": "4e118db449f9f14a",
            "serve/recovery": "59bcc6b8521cdf0d",
            "serve/report": "fc0ada39770d4204",
            "serve/sample": "860c8589be957806",
            "serve/setup": "e02387b786fc6ff7",
            "serve/stitch-route": "0fd7755aa29addd6",
            "serve/tail": "166cdb9ffbf01994",
            "setup": "029dc25bd5f02f02"
        }
    },
    "single/barbell6x3-l100-s5": {
        "buckets": {},
        "cmax": "3f180b8a05adf290",
        "columns": {
            "naive-tail": "a2c889d84a313544",
            "phase1": "439d3d47758f543c",
            "report": "d29f78cb01e9393c",
            "sample-destination": "cf380227e5a17781",
            "setup": "09a36767dd4b2b86",
            "stitch-route": "3541666017f500b0"
        }
    },
    "single/grid5x5-l200-s23-lam4": {
        "buckets": {},
        "cmax": "f68dc1ee30695e72",
        "columns": {
            "get-more-walks": "c6ef210c88f21bf2",
            "naive-tail": "652bde1a779efac1",
            "phase1": "2ca5e9d7adc4a0de",
            "report": "2921e1efc8363a11",
            "sample-destination": "2bc757a63c0582dc",
            "setup": "9c54db6158fb21a4",
            "stitch-route": "92cb6b0e4da0bda0"
        }
    },
    "single/grid6x6-l144-s3": {
        "buckets": {},
        "cmax": "f249ba2254060e42",
        "columns": {
            "naive-tail": "71cef35ada63f483",
            "phase1": "cae997a11c97a748",
            "report": "cb94f8262477de5c",
            "sample-destination": "1c32e64d1bbf1a16",
            "setup": "70c75464caa383f4",
            "stitch-route": "9646706dcfacdd95"
        }
    },
    "single/hypercube5-l300-s11": {
        "buckets": {},
        "cmax": "8f3d1cb7c2868b6c",
        "columns": {
            "naive-tail": "ee616a7602d623ee",
            "phase1": "b95c320c67f93f7d",
            "report": "cfdbcc4bd8d3c4d7",
            "sample-destination": "fb8377e55ca4c23b",
            "setup": "4862f391d674a71d",
            "stitch-route": "b270888f4a1393d9"
        }
    },
    "single/regular64-l200-s13": {
        "buckets": {},
        "cmax": "57d59a6c625cb5e2",
        "columns": {
            "naive-tail": "d4feca6bcaef425d",
            "phase1": "e63a1841f66d47bd",
            "report": "0bfc3ce61b6605d6",
            "sample-destination": "4523ad8cff54ef38",
            "setup": "67837f6c0b308bef",
            "stitch-route": "10abace292517ea0"
        }
    },
    "single/torus6x6-l400-s17-eta0.05": {
        "buckets": {},
        "cmax": "104545c6e45b8f2f",
        "columns": {
            "get-more-walks": "728af60068137567",
            "naive-tail": "991ce45e25e9a370",
            "phase1": "eb3890fbdb11e568",
            "report": "253b4907c4582af0",
            "sample-destination": "00df95734357923c",
            "setup": "44f0d088b13317df",
            "stitch-route": "a93af7f7df5fe05a"
        }
    },
    "single/torus8x8-l256-s7": {
        "buckets": {},
        "cmax": "444db59943e66b73",
        "columns": {
            "naive-tail": "6186e249bd69e911",
            "phase1": "7dbc8862b1c1d356",
            "report": "1b37c23db2cfd0aa",
            "sample-destination": "72fdcee5997823cc",
            "setup": "11824a0907a3f5d4",
            "stitch-route": "0e162bfa60766aab"
        }
    },
    "tree-held-across-churn": {
        "buckets": {
            "unattributed": [4, 0]
        },
        "cmax": "75935c449184a0f2",
        "columns": {
            "report": "1068bcd0751cb88b",
            "unattributed": "6482842bd3657950"
        }
    }
}


# ----------------------------------------------------------------------
# Passivity: attribution changes nothing simulated
# ----------------------------------------------------------------------
class TestPassivity:
    @pytest.mark.parametrize("name", sorted(SINGLE_CASES))
    def test_golden_ledgers_bit_identical_with_heatmap(self, name):
        net, result, _ = golden_run_with_heatmap(name)
        want = GOLDEN_SINGLE[name]
        got = {
            "destination": int(result.destination),
            "mode": result.mode,
            "gmw": result.get_more_walks_calls,
            **_snapshot(net),
        }
        assert got == want

    def test_serve_session_bit_identical_with_heatmap(self, heatmapped_session):
        engine_h, sched_h, _, _ = heatmapped_session
        engine_u, sched_u, _ = run_session()  # same seeds, no observer
        assert engine_h.network.rounds == engine_u.network.rounds
        assert engine_h.network.ledger.messages == engine_u.network.ledger.messages
        st, su = sched_h.stats(), sched_u.stats()
        assert st.walks_served == su.walks_served
        assert st.completed == su.completed
        assert st.tenants == su.tenants


# ----------------------------------------------------------------------
# Conservation: the staged attribution is the ledger, edge by edge
# ----------------------------------------------------------------------
class TestConservation:
    @pytest.mark.parametrize("name", sorted(SINGLE_CASES))
    def test_golden_cases_conserve_exactly_with_zero_residual(self, name):
        net, _, heatmap = golden_run_with_heatmap(name)
        for phase, stats in net.ledger.phases.items():
            assert heatmap.attributed_messages(phase) == stats.messages, phase
            assert heatmap.residual_messages(phase) == 0, phase
        assert heatmap.messages_total == net.ledger.messages
        assert heatmap.rounds_total == net.ledger.rounds
        assert heatmap.max_edge_congestion() == net.ledger.max_congestion

    @pytest.mark.parametrize("name", sorted(BASELINE_CASES))
    def test_baselines_conserve_exactly_with_zero_residual(self, name):
        net, result, heatmap = baseline_run_with_heatmap(name)
        assert result.mode == name
        assert net.ledger.phases["report"].messages > 0
        for phase, stats in net.ledger.phases.items():
            assert heatmap.attributed_messages(phase) == stats.messages, phase
            assert heatmap.residual_messages(phase) == 0, phase
        assert heatmap.messages_total == net.ledger.messages
        assert heatmap.max_edge_congestion() == net.ledger.max_congestion

    def test_serve_session_conserves_through_churn_and_crash(self, heatmapped_session):
        engine, _, _, heatmap = heatmapped_session
        ledger = engine.network.ledger
        for phase, stats in ledger.phases.items():
            assert heatmap.attributed_messages(phase) == stats.messages, phase
            assert heatmap.residual_messages(phase) == 0, phase
        assert heatmap.residual_messages() == 0
        # Churn retired some deleted-slot history — still conserved above.
        assert heatmap.remaps >= 1
        assert heatmap.retired_messages() > 0
        assert heatmap.max_edge_congestion() == ledger.max_congestion

    def test_node_totals_are_sender_marginal_of_slot_totals(self, heatmapped_session):
        _, _, _, heatmap = heatmapped_session
        assert int(heatmap.node_totals().sum()) == int(heatmap.slot_totals().sum())
        assert int(heatmap.slot_totals().sum()) == heatmap.located_messages()


# ----------------------------------------------------------------------
# The per-edge map itself: every message on the slot it was pinned to
# ----------------------------------------------------------------------
class TestEdgeMapPinned:
    @pytest.mark.parametrize("name", sorted(SINGLE_CASES))
    def test_golden_case_edge_map(self, name):
        _, _, heatmap = golden_run_with_heatmap(name)
        assert edge_map(heatmap) == EDGE_MAPS[f"single/{name}"]

    def test_churn_crash_session_edge_map(self, heatmapped_session):
        _, _, _, heatmap = heatmapped_session
        assert edge_map(heatmap) == EDGE_MAPS["session/churn-crash"]

    def test_report_on_a_tree_left_stale_by_a_crash_inside_the_sweeps(self):
        engine, heatmap, stale = crash_in_sweeps_session((5,))
        # The case this pins: some cohorts report on their pre-fault tree.
        assert 0 < sum(stale) < len(stale)
        for phase, stats in engine.network.ledger.phases.items():
            assert heatmap.attributed_messages(phase) == stats.messages, phase
        assert heatmap.residual_messages() == 0
        assert edge_map(heatmap) == EDGE_MAPS["session/crash-in-sweeps"]

    def test_tree_held_across_churn_stages_the_new_topology_slots(self):
        engine, tree, heatmap = tree_held_across_churn()
        net = engine.network
        nodes = np.array([v for v in range(tree.n) if v != tree.root], dtype=np.int64)
        parents = np.asarray(tree.parent, dtype=np.int64)[nodes]
        up = net.graph.pair_slots(pair_keys(nodes, parents, net.graph.n))
        down = net.graph.pair_slots(pair_keys(parents, nodes, net.graph.n))
        assert (up >= 0).all() and (down >= 0).all()
        want = np.bincount(np.concatenate([up, down]), minlength=net.graph.n_slots)
        want[up[nodes == tree.children[tree.root][0]]] += 6  # the root funnel
        np.testing.assert_array_equal(heatmap._phase_messages[REPORT], want)
        assert edge_map(heatmap) == EDGE_MAPS["tree-held-across-churn"]

    def test_route_hop_strays_fold_onto_the_lowest_located_pair(self):
        # Edge (1, 2) comes first, so node 1's slot to its child 2 precedes
        # its slot to the root: slot order and (src, dst) order disagree.
        # Node 5 is isolated, so the tree leaves it unreached.
        graph = Graph(6, [(1, 2), (0, 1), (0, 3), (2, 3)])
        net = Network(graph)
        heatmap = HeatmapSink()
        heatmap.bind_topology(graph.n, graph.slot_sources(), graph.csr_target)
        probe = Probe(heatmap=heatmap)
        net.ledger.observer = probe
        probe.attached(net.ledger)
        net.heatmap = heatmap
        tree = build_bfs_tree(net, 0, allow_unreached=True)
        assert tree.parent[1] == 0 and tree.parent[2] == 1 and tree.depth[5] == -1
        to_root, to_child = graph.pair_slots(pair_keys([1, 1], [0, 2], graph.n))
        assert to_child < to_root
        with net.phase(REPORT):
            stage_tree_hops(net, tree, [1, 5], [2])  # 5 → 0 has no slot
            net.ledger.charge(1, messages=3, congestion=1)
        col = heatmap._phase_messages[REPORT]
        assert (col[to_root], col[to_child], int(col.sum())) == (2, 1, 3)

    @pytest.mark.xfail(
        strict=True,
        reason="_flood_cost books each isolated non-root node distinct - 1 = -1 "
        "sends, so with two or more nodes down a recovery flood's drift fold "
        "goes negative and _stage_flood stages nothing (fix: count only "
        "reached nodes in both)",
    )
    def test_recovery_floods_with_three_nodes_down_leave_no_residual(self):
        engine, heatmap, _ = crash_in_sweeps_session((5, 6, 7), n=400)
        assert heatmap.messages_total == engine.network.ledger.messages
        assert heatmap.residual_messages() == 0


# ----------------------------------------------------------------------
# Churn survival: slot remaps never lose a message
# ----------------------------------------------------------------------
class TestRemap:
    def test_remap_preserves_history_and_retires_deleted_slots(self):
        rng = np.random.default_rng(5)
        graph = random_regular_graph(64, 4, 9)
        sink = HeatmapSink()
        sink.bind_topology(graph.n, graph.slot_sources(), graph.csr_target)
        old_slots = sink.n_slots
        sink.stage_edges(np.arange(old_slots), np.ones(old_slots, dtype=np.int64))
        sink.settle_charge("phase1", 1, old_slots, 1)
        before = sink.attributed_messages("phase1")
        assert before == old_slots

        remap = graph.apply_delta(sample_churn_delta(graph, rng, deletes=6, inserts=6))
        sink.apply_remap(
            remap, n=graph.n, edge_src=graph.slot_sources(), edge_dst=graph.csr_target
        )
        # Conserved: every old message is on a surviving slot or retired.
        assert sink.attributed_messages("phase1") == before
        assert sink.retired_messages("phase1") == 2 * remap.edges_deleted
        assert sink.located_messages("phase1") == before - 2 * remap.edges_deleted
        assert sink.n_slots == remap.new_n_slots == len(graph.slot_sources())
        # New slots (inserted edges) start with no history.
        totals = sink.slot_totals()
        assert int((totals > 1).sum()) == 0
        assert sink.max_edge_congestion() == 1

    def test_rebind_with_wrong_slot_count_is_an_error(self):
        graph = random_regular_graph(32, 4, 3)
        sink = HeatmapSink()
        sink.bind_topology(graph.n, graph.slot_sources(), graph.csr_target)
        with pytest.raises(ValueError, match="apply_remap"):
            sink.bind_topology(graph.n, graph.slot_sources()[:-2], graph.csr_target[:-2])

    def test_remap_with_wrong_width_is_an_error(self):
        graph = random_regular_graph(32, 4, 3)
        sink = HeatmapSink()
        sink.bind_topology(graph.n, graph.slot_sources(), graph.csr_target)
        rng = np.random.default_rng(1)
        remap = graph.apply_delta(sample_churn_delta(graph, rng, deletes=0, inserts=4))
        assert remap.new_n_slots != remap.old_n_slots
        sink.apply_remap(
            remap, n=graph.n, edge_src=graph.slot_sources(), edge_dst=graph.csr_target
        )
        # Replaying the same remap is a width mismatch — caught, not folded.
        with pytest.raises(ValueError, match="slots"):
            sink.apply_remap(
                remap, n=graph.n, edge_src=graph.slot_sources(), edge_dst=graph.csr_target
            )


# ----------------------------------------------------------------------
# Reports and exports
# ----------------------------------------------------------------------
class TestExports:
    def test_summary_schema_and_top_lists(self, heatmapped_session):
        _, _, _, heatmap = heatmapped_session
        summary = heatmap.summary(top=5)
        assert summary["schema"] == "congestion_heatmap/v1"
        assert summary["messages"] == heatmap.messages_total
        assert len(summary["top_edges"]) == 5
        assert len(summary["top_nodes"]) == 5
        # Hot lists are sorted by load, and every row names a real slot.
        loads = [row["messages"] for row in summary["top_edges"]]
        assert loads == sorted(loads, reverse=True)
        for row in summary["top_edges"]:
            assert 0 <= row["slot"] < heatmap.n_slots
            assert row["src"] == int(heatmap.edge_src[row["slot"]])
            assert row["dst"] == int(heatmap.edge_dst[row["slot"]])
        # Pipelined cohorts share every charge, so no charge carries a
        # tenant annotation here (see test_tenant_attribution below for
        # the private-report path that does).
        assert summary["tenants"] == {}
        # Phase table carries the conservation split per phase.
        for phase, cell in summary["phases"].items():
            assert (
                cell["located"] + cell["retired"] + cell["residual"]
                == heatmap.attributed_messages(phase)
            )

    def test_tenant_attribution_on_private_report_charges(self):
        from repro.serve import TenantRegistry

        graph = random_regular_graph(200, 4, 3)
        engine = WalkEngine(graph, seed=5, record_paths=False, auto_maintain=False)
        heatmap = HeatmapSink()
        engine.attach_observability(heatmap=heatmap)
        engine.prepare(length_hint=128)
        registry = TenantRegistry()
        registry.register("free", weight=1.0)
        registry.register("pro", weight=4.0)
        sched = engine.scheduler(tenants=registry, pipelined_report=False)
        sched.submit([0, 1], 128, tenant="pro")
        sched.submit([2, 3], 128, tenant="free")
        sched.drain()
        table = heatmap.tenant_table()
        # Non-pipelined per-ticket report convergecasts carry the tenant
        # annotation into settlement.
        assert set(table) == {"free", "pro"}
        assert all(cell["messages"] > 0 for cell in table.values())

    def test_counter_events_form_a_monotonic_perfetto_track(self, heatmapped_session):
        _, _, _, heatmap = heatmapped_session
        events = heatmap.counter_events()
        assert events, "expected counter samples from a full session"
        assert all(ev["ph"] == "C" for ev in events)
        message_ts = [ev["ts"] for ev in events if ev["name"] == "attributed messages"]
        assert message_ts == sorted(message_ts)
        totals = [
            ev["args"]["messages"] for ev in events if ev["name"] == "attributed messages"
        ]
        assert totals == sorted(totals)  # cumulative counter never decreases

    def test_json_roundtrip_and_write(self, heatmapped_session, tmp_path):
        _, _, _, heatmap = heatmapped_session
        doc = json.loads(heatmap.to_json(top=3))
        assert doc["schema"] == "congestion_heatmap/v1"
        path = heatmap.write(tmp_path / "heatmap.json", top=3)
        assert json.loads(path.read_text()) == doc

    def test_chrome_trace_merges_counter_track(self, tmp_path):
        heatmap = HeatmapSink()
        engine, _, _ = run_session(tracer=(tracer := Tracer()), heatmap=heatmap)
        trace = tracer.to_chrome_trace(
            extra_events=heatmap.counter_events(),
            extra_other={"heatmap_messages": heatmap.messages_total},
        )
        counters = [ev for ev in trace["traceEvents"] if ev.get("ph") == "C"]
        assert len(counters) == len(heatmap.counter_events())
        assert trace["otherData"]["heatmap_messages"] == engine.network.ledger.messages
