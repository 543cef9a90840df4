"""Golden ledger totals at fixed seeds.

The columnar walk-token engine, the vectorized CSR build, and the charged
BFS fast path are *wall-clock* optimizations: the simulated complexity
measure — rounds, messages, worst congestion, per-phase attribution, and
the sampled walks themselves — must be **bit-identical** at fixed seeds.
These totals were first captured by running the seed (pre-optimization)
code; any drift here means an optimization changed the model, not just the
speed.

The pooled-batch and scheduled-drain pins freeze the session-serving
paths the same way: one pooled ``engine.walks()`` session and one
three-tenant scheduler drain with churn and a crash/recover step.

Every pin was re-pinned once, when the RNG stream moved and no billing
rule changed: SAMPLE-DESTINATION took the store's one draw rule (a uniform
index into the source's live tokens in row order, where the one-shot path
had drawn one uniform per holder plus one per merge and the pooled path
had walked a frozen holder order), and GET-MORE-WALKS's reservoir
extension stopped drawing for tokens that had already stopped.  A draw
then lands on a different token, so destinations, walk lengths and every
cost that follows them moved.  ``tests/test_sample_destination.py`` pins
that one call's bill did not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import Network
from repro.congest.faults import FaultSchedule, FaultStep
from repro.dynamic import sample_churn_delta
from repro.engine import WalkEngine
from repro.graphs import (
    barbell_graph,
    grid_graph,
    hypercube_graph,
    random_regular_graph,
    torus_graph,
)
from repro.serve import TenantRegistry
from repro.walks import many_random_walks, single_random_walk

SINGLE_CASES = {
    "torus8x8-l256-s7": (lambda: torus_graph(8, 8), 0, 256, 7, {}),
    "grid6x6-l144-s3": (lambda: grid_graph(6, 6), 5, 144, 3, {}),
    "hypercube5-l300-s11": (lambda: hypercube_graph(5), 2, 300, 11, {}),
    "regular64-l200-s13": (lambda: random_regular_graph(64, 4, 12345), 1, 200, 13, {}),
    "barbell6x3-l100-s5": (lambda: barbell_graph(6, 3), 0, 100, 5, {}),
    "torus6x6-l400-s17-eta0.05": (lambda: torus_graph(6, 6), 3, 400, 17, {"eta": 0.05}),
    "grid5x5-l200-s23-lam4": (lambda: grid_graph(5, 5), 0, 200, 23, {"lam": 4}),
}

MANY_CASES = {
    "torus8x8-k4-l128-s7": (lambda: torus_graph(8, 8), [0, 5, 17, 33], 128, 7, {}),
    "hypercube5-k3-l200-s2": (lambda: hypercube_graph(5), [0, 0, 9], 200, 2, {}),
    "torus8x8-k3-l256-s5-lam12": (lambda: torus_graph(8, 8), [0, 9, 21], 256, 5, {"lam": 12}),
    "grid6x6-k4-l144-s3-lam8": (lambda: grid_graph(6, 6), [0, 7, 14, 35], 144, 3, {"lam": 8}),
}

GOLDEN_SINGLE = {
    "torus8x8-l256-s7": {
        "destination": 18,
        "mode": "stitched",
        "gmw": 0,
        "rounds": 403,
        "messages": 11616,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 9,
            "phase1": 195,
            "sample-destination": 125,
            "stitch-route": 23,
            "naive-tail": 47,
            "report": 4
        },
        "phase_messages": {
            "setup": 193,
            "phase1": 10004,
            "sample-destination": 1345,
            "stitch-route": 23,
            "naive-tail": 47,
            "report": 4
        }
    },
    "grid6x6-l144-s3": {
        "destination": 27,
        "mode": "stitched",
        "gmw": 0,
        "rounds": 312,
        "messages": 4765,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 11,
            "phase1": 174,
            "sample-destination": 81,
            "stitch-route": 13,
            "naive-tail": 27,
            "report": 6
        },
        "phase_messages": {
            "setup": 85,
            "phase1": 4249,
            "sample-destination": 385,
            "stitch-route": 13,
            "naive-tail": 27,
            "report": 6
        }
    },
    "hypercube5-l300-s11": {
        "destination": 14,
        "mode": "stitched",
        "gmw": 0,
        "rounds": 356,
        "messages": 7066,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 6,
            "phase1": 170,
            "sample-destination": 112,
            "stitch-route": 19,
            "naive-tail": 47,
            "report": 2
        },
        "phase_messages": {
            "setup": 129,
            "phase1": 5682,
            "sample-destination": 1187,
            "stitch-route": 19,
            "naive-tail": 47,
            "report": 2
        }
    },
    "regular64-l200-s13": {
        "destination": 9,
        "mode": "stitched",
        "gmw": 0,
        "rounds": 268,
        "messages": 8792,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 6,
            "phase1": 143,
            "sample-destination": 96,
            "stitch-route": 16,
            "naive-tail": 3,
            "report": 4
        },
        "phase_messages": {
            "setup": 193,
            "phase1": 6977,
            "sample-destination": 1599,
            "stitch-route": 16,
            "naive-tail": 3,
            "report": 4
        }
    },
    "barbell6x3-l100-s5": {
        "destination": 1,
        "mode": "stitched",
        "gmw": 0,
        "rounds": 179,
        "messages": 1816,
        "max_congestion": 5,
        "phase_rounds": {
            "setup": 6,
            "phase1": 98,
            "sample-destination": 48,
            "stitch-route": 3,
            "naive-tail": 23,
            "report": 1
        },
        "phase_messages": {
            "setup": 53,
            "phase1": 1526,
            "sample-destination": 210,
            "stitch-route": 3,
            "naive-tail": 23,
            "report": 1
        }
    },
    "torus6x6-l400-s17-eta0.05": {
        "destination": 30,
        "mode": "stitched",
        "gmw": 1,
        "rounds": 407,
        "messages": 3742,
        "max_congestion": 3,
        "phase_rounds": {
            "setup": 7,
            "phase1": 108,
            "sample-destination": 184,
            "stitch-route": 24,
            "get-more-walks": 58,
            "naive-tail": 22,
            "report": 4
        },
        "phase_messages": {
            "setup": 109,
            "phase1": 1569,
            "sample-destination": 1443,
            "stitch-route": 24,
            "get-more-walks": 571,
            "naive-tail": 22,
            "report": 4
        }
    },
    "grid5x5-l200-s23-lam4": {
        "destination": 4,
        "mode": "stitched",
        "gmw": 1,
        "rounds": 841,
        "messages": 3753,
        "max_congestion": 5,
        "phase_rounds": {
            "setup": 9,
            "phase1": 21,
            "sample-destination": 722,
            "stitch-route": 73,
            "get-more-walks": 7,
            "naive-tail": 5,
            "report": 4
        },
        "phase_messages": {
            "setup": 56,
            "phase1": 422,
            "sample-destination": 3111,
            "stitch-route": 73,
            "get-more-walks": 82,
            "naive-tail": 5,
            "report": 4
        }
    }
}

GOLDEN_MANY = {
    "torus8x8-k4-l128-s7": {
        "destinations": [
            48,
            49,
            39,
            14
        ],
        "mode": "naive-parallel",
        "gmw": 0,
        "rounds": 152,
        "messages": 713,
        "max_congestion": 4,
        "phase_rounds": {
            "setup": 9,
            "naive-parallel": 131,
            "report": 12
        },
        "phase_messages": {
            "setup": 193,
            "naive-parallel": 512,
            "report": 8
        }
    },
    "hypercube5-k3-l200-s2": {
        "destinations": [
            17,
            5,
            12
        ],
        "mode": "naive-parallel",
        "gmw": 0,
        "rounds": 223,
        "messages": 735,
        "max_congestion": 3,
        "phase_rounds": {
            "setup": 6,
            "naive-parallel": 209,
            "report": 8
        },
        "phase_messages": {
            "setup": 129,
            "naive-parallel": 600,
            "report": 6
        }
    },
    "torus8x8-k3-l256-s5-lam12": {
        "destinations": [
            16,
            34,
            49
        ],
        "mode": "stitched",
        "gmw": 0,
        "rounds": 1330,
        "messages": 16079,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 9,
            "phase1": 90,
            "sample-destination": 1050,
            "stitch-route": 162,
            "naive-tail": 8,
            "report": 11
        },
        "phase_messages": {
            "setup": 193,
            "phase1": 4484,
            "sample-destination": 11211,
            "stitch-route": 162,
            "naive-tail": 18,
            "report": 11
        }
    },
    "grid6x6-k4-l144-s3-lam8": {
        "destinations": [
            31,
            35,
            4,
            28
        ],
        "mode": "stitched",
        "gmw": 2,
        "rounds": 1447,
        "messages": 8187,
        "max_congestion": 6,
        "phase_rounds": {
            "setup": 11,
            "phase1": 60,
            "sample-destination": 1171,
            "stitch-route": 134,
            "get-more-walks": 30,
            "naive-tail": 13,
            "report": 28
        },
        "phase_messages": {
            "setup": 85,
            "phase1": 1380,
            "sample-destination": 6237,
            "stitch-route": 134,
            "get-more-walks": 283,
            "naive-tail": 40,
            "report": 28
        }
    }
}

# Pooled and scheduled serving pins: the interleaved stitching path both
# ``engine.walks()`` and every scheduler cohort run.  Per phase:
# [rounds, messages, max_congestion].
GOLDEN_POOLED_BATCH = {
    "modes": ["batch-stitched", "batch-stitched"],
    "gmw": [1, 7],
    "destinations": [[45, 62, 10, 37], [21, 35, 26]],
    "path_sums": [5702, 8014, 6530],
    "phases": {
        "setup": [27, 579, 1],
        "phase1": [43, 2211, 6],
        "batch-sample": [1583, 23934, 1],
        "stitch-route": [702, 1488, 1],
        "pool-refill": [88, 1524, 1],
        "naive-tail": [19, 54, 1],
        "report": [23, 14, 4],
        "pool-refill/maintain": [35, 454, 2],
    },
}

GOLDEN_SCHEDULED_DRAIN = {
    "statuses": ["done"] * 9,
    "destinations": [
        [13], [44, 45], [43, 42, 48], [23, 3, 16, 7], [16],
        [33, 3], [49, 36, 27], [48, 48, 45, 33], [5],
    ],
    "rounds_attributed": [197, 405, 703, 792, 202, 500, 594, 811, 250],
    "faults": [1, 0, 3],
    "phases": {
        "setup": [9, 193, 1],
        "phase1": [33, 1776, 5],
        "serve/setup": [23, 579, 1],
        "serve/sample": [2799, 56615, 1],
        "serve/stitch-route": [1346, 3738, 1],
        "pool-refill/serve": [222, 4141, 2],
        "serve/tail": [26, 126, 1],
        "serve/report": [38, 42, 8],
        "pool-refill/maintain": [38, 507, 2],
        "pool-refill/churn": [24, 1129, 4],
        "serve/recovery": [64, 1280, 3],
    },
}



def _snapshot(net: Network) -> dict:
    return {
        "rounds": net.ledger.rounds,
        "messages": net.ledger.messages,
        "max_congestion": net.ledger.max_congestion,
        "phase_rounds": {k: v.rounds for k, v in net.ledger.phases.items()},
        "phase_messages": {k: v.messages for k, v in net.ledger.phases.items()},
    }


def _phase_ledger(net: Network) -> dict:
    """Per-phase ``[rounds, messages, max_congestion]`` of the session ledger."""
    return {k: [v.rounds, v.messages, v.max_congestion] for k, v in net.ledger.phases.items()}


def _pooled_batch_pin() -> dict:
    """Two pooled k-walk requests on one engine: endpoint-only, then trajectories."""
    engine = WalkEngine(torus_graph(8, 8), seed=7, record_paths=True)
    engine.prepare(lam=6)
    ends = engine.walks([0, 5, 17, 33], 256)
    paths = engine.walks([3, 3, 40], 200, record_paths=True)
    assert all(int(p[-1]) == d for p, d in zip(paths.positions, paths.destinations))
    return {
        "modes": [ends.mode, paths.mode],
        "gmw": [ends.get_more_walks_calls, paths.get_more_walks_calls],
        "destinations": [
            [int(d) for d in ends.destinations],
            [int(d) for d in paths.destinations],
        ],
        # Cheap fingerprint of the assembled trajectories.
        "path_sums": [int(p.sum()) for p in paths.positions],
        "phases": _phase_ledger(engine.network),
    }


def _scheduled_drain_pin() -> dict:
    """A three-tenant scheduler drain on torus 8x8 with churn and one crash/recover."""
    graph = torus_graph(8, 8)
    engine = WalkEngine(graph, seed=11, record_paths=True, auto_maintain=False)
    engine.prepare(lam=5)
    tenants = TenantRegistry()
    for name, weight in (("bronze", 1.0), ("silver", 2.0), ("gold", 4.0)):
        tenants.register(name, weight=weight)
    sched = engine.scheduler(
        tenants=tenants, max_batch_walks=8, pipelined_report=True, maintain_round_budget=40
    )
    tickets = []
    for i in range(9):
        tenant = tenants.order[i % 3]
        sources = [(7 * i + 3 * j) % graph.n for j in range(1 + i % 4)]
        tickets.append(
            sched.submit(sources, 96 + 16 * i, tenant=tenant, record_paths=(i % 3 == 1))
        )
    sched.tick()
    engine.apply_churn(
        sample_churn_delta(engine.graph, np.random.default_rng(5), deletes=3, inserts=3)
    )
    base = engine.network.rounds
    engine.attach_faults(
        FaultSchedule(
            steps=(
                FaultStep(at_round=base + 40, crash=(22,)),
                FaultStep(at_round=base + 440, recover=(22,)),
            )
        )
    )
    sched.drain()
    stats = sched.stats()
    return {
        "statuses": [t.status for t in tickets],
        "destinations": [[int(d) for d in t.result.destinations] for t in tickets],
        "rounds_attributed": [t.rounds_attributed for t in tickets],
        "faults": [stats.crashes_seen, stats.walks_recovered, stats.walks_restarted],
        "phases": _phase_ledger(engine.network),
    }


class TestGoldenLedger:
    @pytest.mark.parametrize("name", sorted(SINGLE_CASES))
    def test_single_random_walk_matches_seed(self, name):
        factory, source, length, seed, kwargs = SINGLE_CASES[name]
        graph = factory()
        net = Network(graph, seed=0)
        result = single_random_walk(graph, source, length, seed=seed, network=net, **kwargs)
        want = GOLDEN_SINGLE[name]
        got = {
            "destination": int(result.destination),
            "mode": result.mode,
            "gmw": result.get_more_walks_calls,
            **_snapshot(net),
        }
        assert got == want

    @pytest.mark.parametrize("name", sorted(MANY_CASES))
    def test_many_random_walks_matches_seed(self, name):
        factory, sources, length, seed, kwargs = MANY_CASES[name]
        graph = factory()
        net = Network(graph, seed=0)
        result = many_random_walks(
            graph, sources, length, seed=seed, record_paths=True, network=net, **kwargs
        )
        want = GOLDEN_MANY[name]
        got = {
            "destinations": [int(d) for d in result.destinations],
            "mode": result.mode,
            "gmw": result.get_more_walks_calls,
            **_snapshot(net),
        }
        assert got == want

    def test_pooled_batch_matches_seed(self):
        assert _pooled_batch_pin() == GOLDEN_POOLED_BATCH

    def test_scheduled_drain_matches_seed(self):
        assert _scheduled_drain_pin() == GOLDEN_SCHEDULED_DRAIN
