"""Tests for fault injection and the loss-tolerant walk (§5 extension)."""

from __future__ import annotations

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro.congest import (
    FaultSchedule,
    FaultStep,
    FaultyNetwork,
    LossyNetwork,
    OmissionWindow,
    Protocol,
    ReliableTokenWalkProtocol,
    reliable_walk,
)
from repro.congest.faults import _live_graph_connected
from repro.congest.faults import reliable_walk as reliable_walk_fn
from repro.errors import ProtocolError
from repro.graphs import cycle_graph, path_graph, torus_graph
from repro.markov import WalkSpectrum
from repro.util.stats import chi_square_goodness_of_fit


class TestLossyNetwork:
    def test_zero_loss_is_plain_network(self):
        g = path_graph(6)
        lossy = LossyNetwork(g, drop_probability=0.0, seed=1)
        proto = ReliableTokenWalkProtocol(0, 5)
        rounds = lossy.run(proto)
        assert lossy.messages_dropped == 0
        # 5 hops + 5 acks interleaved: token arrives hop r, ack hop r+1.
        assert proto.destination is not None
        assert proto.retransmissions == 0
        assert rounds >= 5

    def test_drop_rate_roughly_respected(self):
        g = torus_graph(5, 5)
        lossy = LossyNetwork(g, drop_probability=0.4, seed=2, fault_seed=3)
        proto = ReliableTokenWalkProtocol(0, 120)
        lossy.run(proto, max_rounds=100_000)
        total = lossy.messages_sent
        observed_rate = lossy.messages_dropped / total
        assert 0.25 < observed_rate < 0.55

    def test_invalid_probability(self):
        with pytest.raises(ProtocolError):
            LossyNetwork(path_graph(3), drop_probability=1.0)
        with pytest.raises(ProtocolError):
            LossyNetwork(path_graph(3), drop_probability=-0.1)


class TestReliableWalk:
    @pytest.mark.parametrize("p", [0.0, 0.15, 0.4])
    def test_completes_under_loss(self, p):
        g = torus_graph(5, 5)
        proto, net = reliable_walk(g, 0, 80, drop_probability=p, seed=4, fault_seed=5)
        assert proto.destination is not None
        assert len(proto.trajectory) == 81
        for a, b in zip(proto.trajectory, proto.trajectory[1:]):
            assert g.has_edge(a, b)

    def test_loss_costs_rounds_not_correctness(self):
        g = cycle_graph(12)
        clean_proto, clean_net = reliable_walk(g, 0, 60, drop_probability=0.0, seed=6, fault_seed=7)
        lossy_proto, lossy_net = reliable_walk(g, 0, 60, drop_probability=0.4, seed=6, fault_seed=7)
        assert lossy_net.rounds > clean_net.rounds
        assert lossy_proto.retransmissions > 0
        assert clean_proto.retransmissions == 0

    def test_endpoint_law_unbiased_by_loss(self):
        # Retransmitting the SAME sampled hop keeps the walk law exact even
        # at heavy loss; this is the key design invariant.
        g = cycle_graph(6)
        length = 9
        dist = WalkSpectrum(g).distribution(0, length)
        endpoints = []
        for i in range(500):
            proto, _net = reliable_walk(
                g, 0, length, drop_probability=0.3, seed=100 + i, fault_seed=900 + i
            )
            endpoints.append(proto.destination)
        observed = {v: endpoints.count(v) for v in set(endpoints)}
        expected = {v: float(dist[v]) for v in range(g.n) if dist[v] > 1e-12}
        assert not chi_square_goodness_of_fit(observed, expected).rejects_at(1e-4)

    def test_round_inflation_scales_with_loss(self):
        g = torus_graph(5, 5)
        rounds_at = {}
        for p in (0.0, 0.3):
            total = 0
            for i in range(5):
                _proto, net = reliable_walk(
                    g, 0, 100, drop_probability=p, seed=10 + i, fault_seed=20 + i
                )
                total += net.rounds
            rounds_at[p] = total / 5
        # Heavier loss costs materially more rounds, but by a constant
        # factor (≈ 1/(1-p)^2 per hop), not a blowup.
        assert 1.2 < rounds_at[0.3] / rounds_at[0.0] < 6.0

    def test_bad_timeout(self):
        with pytest.raises(ProtocolError):
            ReliableTokenWalkProtocol(0, 5, timeout=0)

    def test_wrapper_validates_completion(self):
        g = path_graph(4)
        proto, _ = reliable_walk_fn(g, 0, 6, drop_probability=0.2, seed=1, fault_seed=2)
        assert proto.destination is not None


class TestReliableWalkDeterminism:
    def test_same_seeds_same_run(self):
        # Full replay determinism: same (seed, fault_seed) reproduces the
        # trajectory, the loss pattern, the retransmission count, and the
        # round total bit-for-bit.
        g = torus_graph(5, 5)
        runs = [
            reliable_walk(g, 3, 90, drop_probability=0.3, seed=41, fault_seed=42)
            for _ in range(2)
        ]
        (proto_a, net_a), (proto_b, net_b) = runs
        assert proto_a.trajectory == proto_b.trajectory
        assert proto_a.retransmissions == proto_b.retransmissions
        assert proto_a.retransmissions > 0
        assert net_a.rounds == net_b.rounds
        assert net_a.messages_dropped == net_b.messages_dropped

    def test_fault_seed_changes_losses_not_law(self):
        # The walk rng and the drop rng are separate streams, and each hop
        # is sampled exactly once — so varying only fault_seed perturbs
        # which frames drop (rounds, retransmissions) while the sampled
        # trajectory stays identical.
        g = torus_graph(5, 5)
        proto_a, net_a = reliable_walk(g, 0, 80, drop_probability=0.35, seed=7, fault_seed=1)
        proto_b, net_b = reliable_walk(g, 0, 80, drop_probability=0.35, seed=7, fault_seed=2)
        assert proto_a.trajectory == proto_b.trajectory
        assert (net_a.messages_dropped, net_a.rounds) != (net_b.messages_dropped, net_b.rounds)


class TestFaultStepAndSchedule:
    def test_step_validation(self):
        with pytest.raises(ProtocolError):
            FaultStep(at_round=-1, crash=(0,))
        with pytest.raises(ProtocolError):
            FaultStep(at_round=0, crash=(1,), recover=(1,))
        with pytest.raises(ProtocolError):
            FaultStep(at_round=0)

    def test_schedule_validation(self):
        with pytest.raises(ProtocolError):  # recovering a node never crashed
            FaultSchedule(steps=(FaultStep(at_round=5, recover=(2,)),))
        with pytest.raises(ProtocolError):  # crashing a crashed node again
            FaultSchedule(
                steps=(
                    FaultStep(at_round=1, crash=(2,)),
                    FaultStep(at_round=3, crash=(2,)),
                )
            )

    def test_steps_sorted_and_counted(self):
        sched = FaultSchedule(
            steps=(
                FaultStep(at_round=9, recover=(4,)),
                FaultStep(at_round=2, crash=(4,)),
            )
        )
        assert [s.at_round for s in sched.steps] == [2, 9]
        assert sched.num_crashes == 1
        assert sched.num_recoveries == 1
        assert not sched.is_empty

    def test_recovery_pending_cursor(self):
        sched = FaultSchedule(
            steps=(
                FaultStep(at_round=1, crash=(3,)),
                FaultStep(at_round=5, recover=(3,)),
            )
        )
        assert sched.recovery_pending(3)
        assert sched.recovery_pending(3, after_index=1)
        assert not sched.recovery_pending(3, after_index=2)
        assert not sched.recovery_pending(0)

    def test_omission_window(self):
        w = OmissionWindow(u=1, v=2, start_round=10, end_round=20)
        sched = FaultSchedule(omissions=(w,))
        assert sched.link_omitted(2, 1, 10)
        assert not sched.link_omitted(1, 2, 20)
        assert not sched.link_omitted(1, 3, 15)
        with pytest.raises(ProtocolError):
            OmissionWindow(u=1, v=1, start_round=0, end_round=5)
        with pytest.raises(ProtocolError):
            OmissionWindow(u=1, v=2, start_round=5, end_round=5)

    def test_sample_deterministic(self):
        g = torus_graph(6, 6)
        kwargs = dict(crashes=5, start_round=10, end_round=2_000, recover_after=300, seed=11)
        a = FaultSchedule.sample(g, **kwargs)
        b = FaultSchedule.sample(g, **kwargs)
        assert a == b
        assert 0 < a.num_crashes <= 5
        assert a.num_recoveries == a.num_crashes

    def test_sample_preserves_connectivity(self):
        # Replay the schedule and check the live induced subgraph is
        # connected after every crash — the sampler's contract.  (A
        # *recovery* may rejoin a node whose neighbors are still down;
        # its owed edges return when those neighbors recover.)
        g = path_graph(8)  # every interior node is a cut vertex
        sched = FaultSchedule.sample(
            g, crashes=6, start_round=0, end_round=1_000, recover_after=200, seed=3
        )
        dead = np.zeros(g.n, dtype=bool)
        for step in sched.steps:
            dead[list(step.recover)] = False
            if step.crash:
                dead[list(step.crash)] = True
                assert _live_graph_connected(g, dead)

    def test_sample_pinned(self):
        # Crash-stop on torus 8x8: with 30 crashes the connectivity check
        # re-draws some victims, so the pin covers it.
        g = torus_graph(8, 8)
        kwargs = dict(crashes=30, start_round=0, end_round=100, recover_after=None, seed=3)
        sched = FaultSchedule.sample(g, **kwargs)
        steps = repr([(s.at_round, s.crash, s.recover) for s in sched.steps]).encode()
        assert sched.num_crashes == 30
        assert hashlib.sha256(steps).hexdigest()[:16] == "6abbbff45896251c"
        assert FaultSchedule.sample(g, preserve_connectivity=False, **kwargs) != sched

    def test_live_graph_connected_matches_networkx_on_the_atlas(self, atlas):
        for h, g in atlas:
            dead = np.zeros(g.n, dtype=bool)
            assert _live_graph_connected(g, dead) == nx.is_connected(h), g.name
            if g.n < 2:
                continue
            for v in range(g.n):
                dead[v] = True
                want = nx.is_connected(h.subgraph([u for u in range(g.n) if u != v]))
                assert _live_graph_connected(g, dead) == want, f"{g.name} without {v}"
                dead[v] = False

    def test_sample_crash_stop(self):
        g = torus_graph(4, 4)
        sched = FaultSchedule.sample(
            g, crashes=3, start_round=0, end_round=100, recover_after=None, seed=9
        )
        assert sched.num_recoveries == 0
        assert sched.num_crashes > 0


class _PingProtocol(Protocol):
    """Send one message 0 → 1 at start; record whether it arrived."""

    name = "ping"

    def __init__(self) -> None:
        self.arrived = False

    def on_start(self, api) -> None:
        api.send(0, 1, "ping")

    def on_receive(self, api, node, messages) -> None:
        if node == 1:
            self.arrived = True


class TestFaultyNetwork:
    def test_liveness_surface(self):
        net = FaultyNetwork(path_graph(4))
        assert net.is_live(2) and net.crashed_nodes == ()
        net.mark_crashed([2, 2])  # idempotent
        assert not net.is_live(2)
        assert net.crashed_nodes == (2,)
        assert net.crashes_seen == 1
        with pytest.raises(ValueError):
            net.live_mask[2] = True  # read-only view
        net.mark_recovered([2])
        net.mark_recovered([2])
        assert net.is_live(2) and net.recoveries_seen == 1

    def test_crashed_receiver_drops_silently(self):
        net = FaultyNetwork(
            path_graph(3),
            schedule=FaultSchedule(steps=(FaultStep(at_round=0, crash=(1,)),)),
        )
        proto = _PingProtocol()
        net.run(proto, max_rounds=50)
        assert not proto.arrived
        assert net.messages_lost_to_crashes == 1

    def test_live_receiver_gets_message(self):
        net = FaultyNetwork(path_graph(3))
        proto = _PingProtocol()
        net.run(proto, max_rounds=50)
        assert proto.arrived
        assert net.messages_lost_to_crashes == 0

    def test_omitting_link_drops_silently(self):
        net = FaultyNetwork(
            path_graph(3),
            schedule=FaultSchedule(
                omissions=(OmissionWindow(u=0, v=1, start_round=0, end_round=100),)
            ),
        )
        proto = _PingProtocol()
        net.run(proto, max_rounds=50)
        assert not proto.arrived
        assert net.messages_omitted == 1
