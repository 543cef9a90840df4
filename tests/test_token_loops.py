"""Each walk-token loop bills exactly what its recorded hops say.

The paper bills a walk-token hop by one of two rules, and each rule has one
loop:

* :func:`~repro.walks.short_walks.walk_tokens` (Phase 1 and the parallel
  tails of MANY-RANDOM-WALKS): every token is its own message, so iteration
  ``j`` costs ``max(1, ⌈max_e X_j(e) / capacity⌉)`` rounds, ``X_j(e)`` being
  the number of tokens that cross edge ``e``, and one message per token hop
  (Lemma 2.1);
* :func:`~repro.walks.get_more_walks.get_more_walks_batch` (GET-MORE-WALKS):
  the tokens of one source share an edge as one *(source ID, count)*
  message, so an edge's load is its number of distinct sources, and each
  distinct (edge, source) pair is one message (Lemma 2.2).

These tests recompute every iteration's charge from the token paths alone
and compare it with the charges the ledger recorded, one by one and in
total.  The graphs are simple, so a node pair names one directed edge.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.congest import Network
from repro.congest.phases import GET_MORE_WALKS, PHASE1
from repro.graphs import Graph, barbell_graph, torus_graph
from repro.util.rng import make_rng
from repro.walks import WalkStore
from repro.walks.get_more_walks import get_more_walks_batch
from repro.walks.short_walks import walk_tokens

GRAPHS = {
    "torus6x6": lambda: torus_graph(6, 6),
    "barbell5x2": lambda: barbell_graph(5, 2),
}


class ChargeLog:
    """A passive ledger observer that keeps every charge."""

    def __init__(self) -> None:
        self.charges: list[tuple[str, int, int, int]] = []

    def phase_pushed(self, name, ledger) -> None:
        pass

    def phase_popped(self, name, ledger) -> None:
        pass

    def charged(self, name, rounds, messages, congestion) -> None:
        self.charges.append((name, rounds, messages, congestion))

    def delta_measured(self, ledger, snapshot, delta) -> None:
        pass


def logged_network(name: str, capacity: int) -> tuple[Network, ChargeLog]:
    graph = GRAPHS[name]()
    pairs = set(zip(graph.slot_sources().tolist(), graph.csr_target.tolist()))
    assert len(pairs) == graph.n_slots, "the recount needs a simple graph"
    net = Network(graph, capacity=capacity)
    log = ChargeLog()
    net.ledger.observer = log
    return net, log


def expected_charges(
    hops: list[np.ndarray], groups: np.ndarray | None, capacity: int, phase: str
) -> list[tuple[str, int, int, int]]:
    """Each iteration's (phase, rounds, messages, congestion), from the paths.

    ``hops[i]`` is token ``i``'s node sequence, start included.  With
    ``groups`` (each token's source) the tokens of one group share an edge
    as one message; without, every token is its own message.
    """
    out = []
    for j in range(1, max(len(p) for p in hops)):
        live = [i for i, p in enumerate(hops) if len(p) > j]
        edges = [(int(hops[i][j - 1]), int(hops[i][j])) for i in live]
        if groups is not None:
            edges = list({(edge, int(groups[i])) for edge, i in zip(edges, live)})
            load = Counter(edge for edge, _ in edges)
        else:
            load = Counter(edges)
        worst = max(load.values())
        out.append((phase, max(1, -(-worst // capacity)), len(edges), worst))
    return out


def assert_ledger_sums(net: Network, log: ChargeLog, want: list, phase: str) -> None:
    assert log.charges == want
    ledger = net.ledger
    assert ledger.rounds == ledger.phase_rounds(phase) == sum(c[1] for c in want)
    assert ledger.messages == sum(c[2] for c in want)
    assert ledger.max_congestion == max(c[3] for c in want)


@pytest.mark.parametrize("capacity", [1, 2])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_walk_tokens_bills_its_recorded_hops(graph, capacity):
    net, log = logged_network(graph, capacity)
    n = net.graph.n
    rng = np.random.default_rng(5)
    # Eight tokens per node, so edges carry several tokens at once.
    starts = np.repeat(np.arange(n, dtype=np.int64), 8)
    lengths = rng.integers(0, 12, size=starts.size)
    positions, paths = walk_tokens(
        net, starts, lengths, make_rng(9), record_paths=True, phase=PHASE1
    )
    hops = [paths[i, : int(length) + 1] for i, length in enumerate(lengths)]
    assert np.array_equal(positions, [h[-1] for h in hops])
    want = expected_charges(hops, None, capacity, PHASE1)
    assert max(c[3] for c in want) > capacity  # congestion actually bites
    assert_ledger_sums(net, log, want, PHASE1)

    # Recording paths draws nothing: the same stream gives the same walk.
    net_bare, log_bare = logged_network(graph, capacity)
    bare, none = walk_tokens(
        net_bare, starts, lengths, make_rng(9), record_paths=False, phase=PHASE1
    )
    assert none is None
    assert np.array_equal(bare, positions)
    assert log_bare.charges == log.charges


@pytest.mark.parametrize("randomized_lengths", [True, False])
@pytest.mark.parametrize("capacity", [1, 2])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_get_more_walks_batch_bills_its_recorded_hops(graph, capacity, randomized_lengths):
    net, log = logged_network(graph, capacity)
    sources = np.arange(8, dtype=np.int64)
    counts = np.array([9, 4, 6, 1, 5, 3, 7, 2], dtype=np.int64)
    store = WalkStore(net.graph.n)
    rounds = get_more_walks_batch(
        net, store, sources, counts, 5, make_rng(13), randomized_lengths=randomized_lengths
    )
    records = list(store.iter_all())
    assert Counter(r.source for r in records) == dict(zip(sources.tolist(), counts.tolist()))
    hops = [r.path for r in records]
    groups = np.array([r.source for r in records])
    want = expected_charges(hops, groups, capacity, GET_MORE_WALKS)
    assert max(c[3] for c in want) > capacity  # distinct sources congest
    assert_ledger_sums(net, log, want, GET_MORE_WALKS)
    assert rounds == net.rounds


def masked_walk_tokens(network, starts, lengths, rng, *, record_paths, phase):
    """The one-stage loop :func:`walk_tokens` replaced: a full mask every step.

    Unweighted graphs draw with per-position bounds, the draw that precedes
    the scalar draw of regular graphs, so the reference fixes the stream.
    """
    graph = network.graph

    def draw(positions):
        if graph.is_weighted:
            return graph.step_walk_slots(positions, rng)
        lo = graph.indptr[positions]
        return lo + rng.integers(0, graph.indptr[positions + 1] - lo)

    positions = np.array(starts, dtype=np.int64)
    max_len = int(lengths.max()) if lengths.size else 0
    paths = None
    if record_paths:
        paths = np.empty((positions.size, max_len + 1), dtype=np.int64)
        paths[:, 0] = positions
    with network.phase(phase):
        for step in range(1, max_len + 1):
            active = lengths >= step
            slots = draw(positions[active])
            network.deliver_step(slots, words=2)
            positions[active] = graph.csr_target[slots]
            if paths is not None:
                paths[:, step] = positions
    return positions, paths


def _weighted_torus() -> Graph:
    g = torus_graph(6, 6)
    weights = np.random.default_rng(3).random(g.m) + 0.1
    return Graph(g.n, g.edge_array, weights=weights)


REPLAY_GRAPHS = {**GRAPHS, "weighted-torus6x6": _weighted_torus}
LAM = 6
LENGTH_SETS = {
    "phase1": lambda rng, size: LAM + rng.integers(0, LAM, size=size),
    "some-zeros": lambda rng, size: np.where(
        rng.random(size) < 0.3, 0, rng.integers(1, 2 * LAM, size=size)
    ),
    "all-equal": lambda rng, size: np.full(size, LAM, dtype=np.int64),
}


@pytest.mark.parametrize("record_paths", [True, False])
@pytest.mark.parametrize("lengths", sorted(LENGTH_SETS))
@pytest.mark.parametrize("graph", sorted(REPLAY_GRAPHS))
def test_walk_tokens_replays_the_masked_loop(graph, lengths, record_paths):
    g = REPLAY_GRAPHS[graph]()
    starts = np.repeat(np.arange(g.n, dtype=np.int64), 4)
    token_lengths = LENGTH_SETS[lengths](np.random.default_rng(8), starts.size)
    runs = []
    for loop in (walk_tokens, masked_walk_tokens):
        net = Network(g, capacity=2)
        log = ChargeLog()
        net.ledger.observer = log
        rng = make_rng(21)
        positions, paths = loop(
            net, starts, token_lengths, rng, record_paths=record_paths, phase=PHASE1
        )
        runs.append((positions, paths, log.charges, rng.bit_generator.state))
    (pos, paths, charges, state), (ref_pos, ref_paths, ref_charges, ref_state) = runs
    assert np.array_equal(pos, ref_pos)
    assert charges == ref_charges and charges
    assert state == ref_state
    if record_paths:
        for i, length in enumerate(token_lengths):
            assert np.array_equal(paths[i, : length + 1], ref_paths[i, : length + 1])
    else:
        assert paths is None and ref_paths is None
