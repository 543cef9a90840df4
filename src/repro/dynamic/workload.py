"""Synthetic churn traffic: mixed request load + Poisson edge churn.

The serving workloads of :mod:`repro.serve.workload` drive a static
topology.  This module adds the dynamic-network scenario the journal
version of the paper motivates: an open-loop request stream interleaved
with **Poisson edge churn** — every scheduling tick, a Poisson number of
edge deletions and insertions lands as one batched
:class:`~repro.dynamic.delta.GraphDelta` and the whole session absorbs it
through :meth:`~repro.engine.core.WalkEngine.apply_churn` *between*
scheduler ticks, exactly where background maintenance already runs.

:func:`sample_churn_delta` is the delta generator.  Deletions are sampled
connectivity-preserving by default: the walk machinery (BFS floods,
stitching) requires a connected graph, so a candidate deletion that would
disconnect the post-delta graph is skipped — the generator models churn
in a network that stays operational, which is the regime the serving
stack can meaningfully be measured in.  Insertions draw endpoint pairs
uniformly (parallel edges allowed — multigraph semantics throughout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dynamic.controller import ChurnReport
from repro.dynamic.delta import GraphDelta
from repro.errors import WalkError
from repro.graphs.graph import Graph
from repro.graphs.properties import bfs_distances
from repro.serve.workload import TrafficSpec, sample_request_args

__all__ = ["ChurnSpec", "run_churn_loop", "sample_churn_delta"]


@dataclass(frozen=True)
class ChurnSpec:
    """Churn process of one dynamic workload.

    ``delete_rate`` / ``insert_rate`` are Poisson means per scheduling
    tick; ``round_budget`` bounds each churn event's regeneration sweep
    (``None`` restores affected shards fully, the default);
    ``preserve_connectivity`` keeps the generator from sampling deltas
    that would disconnect the graph.
    """

    delete_rate: float = 1.0
    insert_rate: float = 1.0
    round_budget: int | None = None
    preserve_connectivity: bool = True

    def __post_init__(self) -> None:
        if self.delete_rate < 0 or self.insert_rate < 0:
            raise WalkError("churn rates must be >= 0")
        if self.round_budget is not None and self.round_budget < 1:
            raise WalkError("round_budget must be >= 1 when given")


def sample_churn_delta(
    graph: Graph,
    rng: np.random.Generator,
    *,
    deletes: int,
    inserts: int,
    preserve_connectivity: bool = True,
) -> GraphDelta:
    """Draw one batched churn event for ``graph``'s current edge set.

    Insertions are uniform ``u ≠ v`` endpoint pairs.  Deletions are drawn
    uniformly from the current edges; with ``preserve_connectivity`` a
    candidate whose removal (on top of the already-accepted deletions and
    the insertions) would disconnect the graph is skipped, so the realized
    deletion count can fall short of ``deletes`` on sparse graphs — the
    delta reports what was actually sampled.  Each candidate costs one
    :func:`~repro.graphs.properties.bfs_distances` search of the post-delta
    graph whose slot mask closes the slots of the removed edges.
    """
    if deletes < 0 or inserts < 0:
        raise WalkError("deletes and inserts must be >= 0")
    n = graph.n
    insert_edges = np.empty((inserts, 2), dtype=np.int64)
    if inserts:
        u = rng.integers(0, n, size=inserts)
        v = rng.integers(0, n - 1, size=inserts)
        v = np.where(v >= u, v + 1, v)  # uniform over ordered pairs with u != v
        insert_edges[:, 0], insert_edges[:, 1] = u, v

    old_edges = graph.edge_array
    delete_rows: list[int] = []
    if deletes and graph.m:
        candidates = rng.permutation(graph.m)
        if preserve_connectivity and n > 1:
            # Connectivity is judged on the post-delta graph, so the scratch
            # topology carries the insertions too.
            scratch = Graph(
                n,
                np.concatenate([old_edges, insert_edges]) if inserts else old_edges,
                name="churn-scratch",
            )
            removed = np.zeros(scratch.m, dtype=bool)
            for e in candidates:
                removed[e] = True
                dist = bfs_distances(scratch, 0, slot_mask=~removed[scratch.csr_edge])
                if (dist >= 0).all():
                    delete_rows.append(int(e))
                    if len(delete_rows) >= deletes:
                        break
                else:
                    removed[e] = False
        else:
            delete_rows = candidates[:deletes].tolist()
    delete_edges = old_edges[delete_rows] if delete_rows else np.empty((0, 2), dtype=np.int64)
    return GraphDelta(insert_edges=insert_edges, delete_edges=delete_edges)


def run_churn_loop(
    scheduler,
    traffic: TrafficSpec,
    churn: ChurnSpec,
    rng: np.random.Generator,
    *,
    rate: float,
    ticks: int,
    drain: bool = True,
) -> tuple[list, list[ChurnReport]]:
    """Open-loop Poisson arrivals with Poisson edge churn between ticks.

    Each tick: submit ``Poisson(rate)`` requests drawn from ``traffic``,
    apply one batched churn event of ``Poisson(delete_rate)`` deletions
    and ``Poisson(insert_rate)`` insertions (skipped when both draws are
    zero), then run one scheduling round.  With ``drain`` the backlog is
    serviced to empty after arrivals and churn stop.  Returns every ticket
    plus the :class:`~repro.dynamic.controller.ChurnReport` of every
    applied event.
    """
    if rate < 0:
        raise WalkError("rate must be >= 0")
    if ticks < 1:
        raise WalkError("ticks must be >= 1")
    engine = scheduler.engine
    tickets = []
    reports: list[ChurnReport] = []
    for _ in range(ticks):
        for _ in range(int(rng.poisson(rate))):
            tickets.append(scheduler.submit(**sample_request_args(traffic, rng)))
        deletes = int(rng.poisson(churn.delete_rate))
        inserts = int(rng.poisson(churn.insert_rate))
        if deletes or inserts:
            delta = sample_churn_delta(
                engine.graph,
                rng,
                deletes=deletes,
                inserts=inserts,
                preserve_connectivity=churn.preserve_connectivity,
            )
            if not delta.is_empty:
                reports.append(engine.apply_churn(delta, round_budget=churn.round_budget))
        scheduler.tick()
    if drain:
        scheduler.drain()
    return tickets, reports
