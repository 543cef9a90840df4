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
from repro.graphs import barbell_graph, torus_graph
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
    pairs = set(zip(graph.csr_source.tolist(), graph.csr_target.tolist()))
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
    store = WalkStore()
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
