"""Tests for the CONGEST engine: charging rules, queueing, the ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import Message, Network, Protocol
from repro.congest.network import _counts_touched_slots
from repro.errors import ProtocolError
from repro.graphs import cycle_graph, path_graph, star_graph
from repro.obs import HeatmapSink, Probe


class TestDeliverStep:
    def test_single_message_one_round(self):
        net = Network(path_graph(4))
        assert net.deliver_step([0]) == 1
        assert net.rounds == 1
        assert net.messages_sent == 1

    def test_congestion_charges_max_per_edge(self):
        g = star_graph(5)
        net = Network(g)
        # Three messages down the same directed edge -> 3 rounds.
        slot = int(g.indptr[0])
        rounds = net.deliver_step([slot, slot, slot])
        assert rounds == 3
        assert net.ledger.max_congestion == 3

    def test_parallel_edges_one_round(self):
        g = path_graph(4)
        net = Network(g)
        # One message per distinct slot -> 1 round regardless of count.
        slots = list(range(g.n_slots))
        assert net.deliver_step(slots) == 1
        assert net.messages_sent == g.n_slots

    def test_capacity_divides_congestion(self):
        g = star_graph(5)
        net = Network(g, capacity=2)
        slot = int(g.indptr[0])
        assert net.deliver_step([slot] * 5) == 3  # ceil(5/2)

    def test_empty_is_free(self):
        net = Network(path_graph(3))
        assert net.deliver_step([]) == 0
        assert net.rounds == 0

    def test_bad_slot_rejected(self):
        net = Network(path_graph(3))
        with pytest.raises(ProtocolError):
            net.deliver_step([999])

    def test_oversized_message_rejected(self):
        net = Network(path_graph(3), max_words=2)
        with pytest.raises(ProtocolError):
            net.deliver_step([0], words=3)


class TestDeliverStepCountingPaths:
    """``deliver_step`` counts small batches on large graphs over the touched
    slots and the rest with a dense ``bincount``; both must charge and stage
    exactly what a plain ``bincount`` reference does.  With one group,
    ``deliver_step_grouped`` must charge and stage one message per touched
    slot."""

    GRAPH = cycle_graph(20_000)  # 40,000 slots

    def batches(self) -> list[np.ndarray]:
        rng = np.random.default_rng(0)
        n_slots = self.GRAPH.n_slots
        cut = next(m for m in range(1, n_slots) if not _counts_touched_slots(m, n_slots))
        sizes = [1, 2, cut - 1, cut, cut + 1, 4 * cut, 3 * n_slots]
        sizes += rng.integers(1, 2 * cut, size=6).tolist()
        out = []
        for size in sizes:
            # Draw from a few hot slots now and then, so loads exceed 1.
            pool = n_slots if rng.random() < 0.5 else int(rng.integers(1, 8))
            out.append(rng.integers(0, pool, size=size))
        return out

    @pytest.mark.parametrize("one_group", [False, True])
    @pytest.mark.parametrize("capacity", [1, 2])
    @pytest.mark.parametrize("with_heatmap", [False, True])
    def test_matches_plain_bincount_reference(self, one_group, capacity, with_heatmap):
        graph = self.GRAPH
        n_slots = graph.n_slots
        batches = self.batches()
        assert {_counts_touched_slots(b.size, n_slots) for b in batches} == {True, False}
        net = Network(graph, capacity=capacity)
        heatmap = None
        if with_heatmap:
            heatmap = HeatmapSink()
            heatmap.bind_topology(graph.n, graph.slot_sources(), graph.csr_target)
            probe = Probe(heatmap=heatmap)
            net.ledger.observer = probe
            probe.attached(net.ledger)
            net.heatmap = heatmap
        per_slot = np.zeros(n_slots, dtype=np.int64)
        per_slot_max = np.zeros(n_slots, dtype=np.int64)
        rounds = messages = congestion = 0
        for batch in batches:
            counts = np.bincount(batch, minlength=n_slots)
            if one_group:
                counts = np.minimum(counts, 1)
                want_congestion = 1
                charged = net.deliver_step_grouped(batch, np.zeros_like(batch))
            else:
                want_congestion = int(counts.max())
                charged = net.deliver_step(batch)
            want_rounds = max(1, -(-want_congestion // capacity))
            assert charged == want_rounds
            rounds += want_rounds
            messages += int(counts.sum())
            congestion = max(congestion, want_congestion)
            assert (net.ledger.rounds, net.ledger.messages, net.ledger.max_congestion) == (
                rounds,
                messages,
                congestion,
            )
            per_slot += counts
            np.maximum(per_slot_max, counts, out=per_slot_max)
        if heatmap is not None:
            assert np.array_equal(heatmap.slot_totals(), per_slot)
            assert heatmap.residual_messages() == 0
            assert heatmap.max_edge_congestion() == congestion
            maxima = {e["slot"]: e["max_congestion"] for e in heatmap.top_edges(n_slots)}
            assert maxima == {int(s): int(per_slot_max[s]) for s in np.flatnonzero(per_slot)}


class TestDeliverStepGrouped:
    def test_same_group_aggregates_like_aggregate_true(self):
        g = star_graph(5)
        net = Network(g)
        slot = int(g.indptr[0])
        rounds = net.deliver_step_grouped([slot] * 10, [7] * 10)
        assert rounds == 1
        assert net.messages_sent == 1  # one (source, count) message

    def test_distinct_groups_congest_per_edge(self):
        g = star_graph(5)
        net = Network(g)
        slot = int(g.indptr[0])
        # Three distinct sources on one edge: three (source, count)
        # messages regardless of token multiplicity.
        rounds = net.deliver_step_grouped([slot] * 6, [1, 1, 2, 2, 3, 3])
        assert rounds == 3
        assert net.messages_sent == 3
        assert net.ledger.max_congestion == 3

    def test_groups_on_distinct_edges_one_round(self):
        g = path_graph(4)
        net = Network(g)
        slots = list(range(g.n_slots))
        assert net.deliver_step_grouped(slots, list(range(len(slots)))) == 1

    def test_capacity_divides_group_congestion(self):
        g = star_graph(5)
        net = Network(g, capacity=2)
        slot = int(g.indptr[0])
        assert net.deliver_step_grouped([slot] * 3, [1, 2, 3]) == 2  # ceil(3/2)

    def test_mismatched_shapes_rejected(self):
        net = Network(path_graph(3))
        with pytest.raises(ProtocolError, match="equal length"):
            net.deliver_step_grouped([0, 1], [0])

    def test_empty_is_free(self):
        net = Network(path_graph(3))
        assert net.deliver_step_grouped([], []) == 0
        assert net.rounds == 0

    def test_bad_slot_and_oversize_rejected(self):
        net = Network(path_graph(3), max_words=2)
        with pytest.raises(ProtocolError):
            net.deliver_step_grouped([999], [0])
        with pytest.raises(ProtocolError):
            net.deliver_step_grouped([0], [0], words=3)


class TestDeliverPairs:
    def test_pair_congestion(self):
        net = Network(path_graph(4))
        rounds = net.deliver_pairs([0, 0, 1], [1, 1, 2])
        assert rounds == 2  # (0,1) carries two messages
        assert net.messages_sent == 3

    def test_mismatched_shapes(self):
        net = Network(path_graph(4))
        with pytest.raises(ProtocolError):
            net.deliver_pairs([0, 1], [1])

    def test_empty(self):
        net = Network(path_graph(4))
        assert net.deliver_pairs([], []) == 0


class TestDeliverSequential:
    def test_charges_hops(self):
        net = Network(path_graph(5))
        assert net.deliver_sequential(7) == 7
        assert net.rounds == 7
        assert net.messages_sent == 7

    def test_zero_hops_free(self):
        net = Network(path_graph(5))
        assert net.deliver_sequential(0) == 0
        assert net.rounds == 0

    def test_negative_rejected(self):
        net = Network(path_graph(5))
        with pytest.raises(ProtocolError):
            net.deliver_sequential(-1)


class TestLedgerPhases:
    def test_phase_attribution(self):
        net = Network(path_graph(4))
        with net.phase("alpha"):
            net.deliver_step([0])
        with net.phase("beta"):
            net.deliver_step([0])
            net.deliver_step([0])
        assert net.ledger.phase_rounds("alpha") == 1
        assert net.ledger.phase_rounds("beta") == 2
        assert net.rounds == 3

    def test_nested_phase_goes_to_inner(self):
        net = Network(path_graph(4))
        with net.phase("outer"):
            net.deliver_step([0])
            with net.phase("inner"):
                net.deliver_step([0])
        assert net.ledger.phase_rounds("outer") == 1
        assert net.ledger.phase_rounds("inner") == 1

    def test_snapshot_totals_match(self):
        net = Network(path_graph(4))
        with net.phase("a"):
            net.deliver_step([0, 1])
        snap = net.ledger.snapshot()
        assert snap["rounds"] == net.rounds
        assert snap["rounds[a]"] == net.rounds

    def test_phase_sum_equals_total(self):
        net = Network(path_graph(4))
        with net.phase("a"):
            net.deliver_step([0])
        with net.phase("b"):
            net.deliver_sequential(3)
        total = sum(s.rounds for s in net.ledger.phases.values())
        assert total == net.rounds

    def test_invocation_count(self):
        net = Network(path_graph(4))
        for _ in range(3):
            with net.phase("p"):
                pass
        assert net.ledger.phases["p"].invocations == 3

    def test_negative_charge_rejected(self):
        net = Network(path_graph(4))
        with pytest.raises(ValueError):
            net.ledger.charge(-1)

    def test_phase_total_sums_family(self):
        # "family" and "family/sub" phases sum under phase_total; unrelated
        # names sharing the prefix as a substring do not.
        net = Network(path_graph(4))
        with net.phase("pool-refill"):
            net.deliver_step([0])
        with net.phase("pool-refill/maintain"):
            net.deliver_step([0])
            net.deliver_step([0])
        with net.phase("pool-refillable"):
            net.deliver_step([0])
        assert net.ledger.phase_total("pool-refill") == 3
        assert net.ledger.phase_total("pool-refill/maintain") == 2
        assert net.ledger.phase_total("absent") == 0


class _EchoProtocol(Protocol):
    """Node 0 sends a ping along a path; each node forwards until the end."""

    name = "echo"

    def __init__(self, hops: int) -> None:
        self.hops = hops
        self.done_at: int | None = None

    def on_start(self, api) -> None:
        api.send(0, 1, ("ping", self.hops - 1))

    def on_receive(self, api, node, messages) -> None:
        for msg in messages:
            _tag, remaining = msg.payload
            if remaining == 0:
                self.done_at = node
            else:
                api.send(node, node + 1, ("ping", remaining - 1))

    def is_done(self, api) -> bool:
        return self.done_at is not None


class _FloodAllProtocol(Protocol):
    """Node 0 sends one message to every neighbor at start."""

    name = "flood-all"

    def __init__(self) -> None:
        self.received: list[int] = []

    def on_start(self, api) -> None:
        for u in api.graph.neighbor_set(0):
            api.send(0, u, "hi")

    def on_receive(self, api, node, messages) -> None:
        self.received.extend(m.dst for m in messages)


class _CongestedProtocol(Protocol):
    """Sends `count` messages down one edge at start; measures queueing."""

    name = "congested"

    def __init__(self, count: int) -> None:
        self.count = count
        self.arrival_rounds: list[int] = []

    def on_start(self, api) -> None:
        for i in range(self.count):
            api.send(0, 1, i)

    def on_receive(self, api, node, messages) -> None:
        self.arrival_rounds.extend(api.round for _ in messages)


class TestEventDrivenEngine:
    def test_path_token_rounds(self):
        g = path_graph(6)
        net = Network(g)
        proto = _EchoProtocol(hops=5)
        rounds = net.run(proto)
        assert rounds == 5
        assert proto.done_at == 5

    def test_parallel_sends_one_round(self):
        g = star_graph(6)
        net = Network(g)
        proto = _FloodAllProtocol()
        rounds = net.run(proto)
        assert rounds == 1
        assert sorted(proto.received) == [1, 2, 3, 4, 5]

    def test_fifo_queueing_spreads_rounds(self):
        g = path_graph(3)
        net = Network(g)
        proto = _CongestedProtocol(4)
        rounds = net.run(proto)
        assert rounds == 4  # capacity 1: one message per round
        assert proto.arrival_rounds == [1, 2, 3, 4]

    def test_capacity_speeds_queue(self):
        g = path_graph(3)
        net = Network(g, capacity=2)
        proto = _CongestedProtocol(4)
        assert net.run(proto) == 2

    def test_send_to_non_neighbor_rejected(self):
        g = path_graph(4)
        net = Network(g)

        class Bad(Protocol):
            def on_start(self, api):
                api.send(0, 3, "x")

        with pytest.raises(ProtocolError):
            net.run(Bad())

    def test_oversized_protocol_message_rejected(self):
        g = path_graph(4)
        net = Network(g, max_words=2)

        class Wide(Protocol):
            def on_start(self, api):
                api.send(0, 1, "x", words=5)

        with pytest.raises(ProtocolError):
            net.run(Wide())

    def test_round_budget_enforced(self):
        g = cycle_graph(4)
        net = Network(g)

        class Forever(Protocol):
            def on_start(self, api):
                api.send(0, 1, None)

            def on_receive(self, api, node, messages):
                nxt = (node + 1) % 4
                api.send(node, nxt, None)

            def is_done(self, api):
                return False

        with pytest.raises(ProtocolError):
            net.run(Forever(), max_rounds=50)

    def test_idle_but_not_done_is_deadlock(self):
        g = path_graph(3)
        net = Network(g)

        class Stuck(Protocol):
            def is_done(self, api):
                return False

        with pytest.raises(ProtocolError):
            net.run(Stuck())

    def test_message_metadata(self):
        msg = Message(src=0, dst=1, payload="x", words=2)
        assert msg.words == 2
        with pytest.raises(ValueError):
            Message(src=0, dst=1, payload="x", words=0)

    def test_invalid_network_params(self):
        with pytest.raises(ProtocolError):
            Network(path_graph(3), capacity=0)
        with pytest.raises(ProtocolError):
            Network(path_graph(3), max_words=0)


@pytest.mark.parametrize("bad", [-1, -(2**62), 4, 2**40])
def test_slots_outside_the_csr_range_are_rejected(bad):
    net = Network(path_graph(3))  # slots 0..3
    with pytest.raises(ProtocolError, match="out of range"):
        net.deliver_step([0, bad])
    with pytest.raises(ProtocolError, match="out of range"):
        net.deliver_step_grouped([bad, 1], [0, 1])
    assert net.rounds == 0
