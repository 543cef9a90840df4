"""MANY-RANDOM-WALKS (§2.3): ``k`` walks in ``Õ(min(√(kℓD)+k, k+ℓ))`` rounds.

Theorem 2.8's case split, implemented exactly:

* When the computed ``λ > ℓ`` — short walks would be longer than the
  requested walk — run the **naive parallel** algorithm: every walk is
  one full-length tail, and all ``k`` tokens step simultaneously through
  the same tail stepper that finishes the stitched branch
  (:func:`_parallel_tails`, billed to ``"naive-parallel"`` here and in
  ``engine.walks()``), each iteration charged by its worst per-edge
  congestion (tokens of different sources cannot aggregate) — Phase 1's
  rule, so the tails run Phase 1's loop,
  :func:`~repro.walks.short_walks.walk_tokens`; then each
  destination reports to its source over a BFS tree (the ``Ω(k)`` term:
  the tree root may relay up to ``k`` IDs, pipelined one per round).
* Otherwise run **one** Phase 1 at the enlarged
  ``λ = Θ(√(kℓD) + k)`` and stitch the ``k`` walks one after another
  against the shared pool (the paper: "stitch the short walks together to
  get a walk of length ℓ starting at s₁ then do the same thing for s₂,
  s₃, and so on").

Sources need not be distinct; the mixing-time application (§4.2) calls this
with ``k`` copies of the same source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.congest.network import Network
from repro.congest.phases import NAIVE_PARALLEL, NAIVE_TAIL, REPORT
from repro.congest.primitives import BfsTree, charge_tree_funnel, deliver_tree_path
from repro.engine.model import ResultBase
from repro.errors import WalkError
from repro.graphs.graph import Graph
from repro.walks.params import WalkParams, many_walks_params
from repro.walks.short_walks import perform_short_walks, token_counts, walk_tokens
from repro.walks.single_walk import estimate_diameter, stitch_walk
from repro.walks.store import WalkStore

__all__ = ["ManyWalksResult", "many_random_walks"]


@dataclass
class ManyWalksResult(ResultBase):
    """Outcome of a k-walk computation.

    Shared cost fields (``mode``/``rounds``/``lam``/``phase_rounds``/
    ``get_more_walks_calls``) live on :class:`~repro.engine.model.ResultBase`.
    """

    sources: list[int]
    length: int
    destinations: list[int]
    positions: list[np.ndarray] | None = None

    @property
    def k(self) -> int:
        return len(self.sources)


def _parallel_tails(
    network: Network,
    pre_tails: list[tuple[int, int]],
    rng: np.random.Generator,
    *,
    record_paths: bool,
    phase: str = NAIVE_TAIL,
) -> tuple[list[int], list[np.ndarray | None]]:
    """Walk every ``(node, steps)`` tail simultaneously (see stitch_walk docs).

    ``phase`` defaults to the golden-ledger-pinned ``"naive-tail"``; the
    serving scheduler charges merged cross-request tails to ``"serve/tail"``,
    and Theorem 2.8's naive branch — every walk one full-length tail — to
    ``"naive-parallel"``.
    """
    starts = np.array([node for node, _ in pre_tails], dtype=np.int64)
    remaining = np.array([r for _, r in pre_tails], dtype=np.int64)
    positions, paths = walk_tokens(
        network, starts, remaining, rng, record_paths=record_paths, phase=phase
    )
    destinations = [int(p) for p in positions]
    if paths is None:
        return destinations, [None] * len(pre_tails)
    # Drop the duplicated pre-tail node from each path fragment.
    return destinations, [paths[i, 1 : int(r) + 1].astype(np.int64) for i, r in enumerate(remaining)]


def _run_many_walks(
    graph: Graph,
    sources: list[int],
    length: int,
    rng: np.random.Generator,
    net: Network,
    *,
    params: WalkParams | None = None,
    lam: int | None = None,
    eta: float = 1.0,
    record_paths: bool = False,
    report_to_source: bool = True,
) -> ManyWalksResult:
    """One-shot MANY-RANDOM-WALKS on a resolved (rng, network).

    The legacy free-function body — the golden-ledger suite freezes its
    totals, so the :func:`many_random_walks` wrapper and the engine's
    non-pooled batch path both funnel through it verbatim.
    :meth:`~repro.engine.core.WalkEngine.run` validates the request and
    fills in the result's ``rounds`` and ``phase_rounds``.
    """
    k = len(sources)
    tree_cache: dict[int, BfsTree] = {}

    d_est, base_tree = estimate_diameter(net, sources[0], tree_cache)
    if params is None:
        params = many_walks_params(k, length, d_est, lam=lam, eta=eta, n=graph.n)
        if not params.use_naive and lam is None:
            # Theorem 2.8 takes the min of the two branches; at simulation
            # scale we compare predicted costs directly (the λ > ℓ test
            # alone encodes the asymptotic switch, not the constants).
            log_n = max(1.0, math.log2(graph.n))
            stitched_estimate = (
                2 * params.lam * log_n
                + (k * length / params.lam) * (1.5 * d_est + 2)
                + k
            )
            naive_estimate = length + k + d_est
            if naive_estimate < stitched_estimate:
                params = replace(params, use_naive=True)

    if params.use_naive:
        # All k walks are full-length tails stepping together.
        destinations, tails = _parallel_tails(
            net, [(s, length) for s in sources], rng, record_paths=record_paths, phase=NAIVE_PARALLEL
        )
        trajectories = (
            [np.concatenate(([s], tail)) for s, tail in zip(sources, tails)] if record_paths else None
        )
        if report_to_source:
            # Destinations route their IDs to sources over the BFS tree; up
            # to k messages may funnel through one tree edge, pipelined.
            with net.phase(REPORT):
                charge_tree_funnel(net, base_tree, k)
        return ManyWalksResult(
            sources=list(sources),
            length=length,
            destinations=destinations,
            mode="naive-parallel",
            lam=params.lam,
            positions=trajectories,
        )

    store = WalkStore(graph.n)
    counts = token_counts(graph.degrees, params.eta, degree_proportional=params.degree_proportional)
    perform_short_walks(
        net,
        store,
        params.lam,
        rng,
        counts=counts,
        randomized_lengths=params.randomized_lengths,
        record_paths=record_paths,
    )

    # Stitch each walk up to its pre-tail point ("one at a time", §2.3)...
    pre_tails: list[tuple[int, int]] = []  # (pre-tail node, remaining steps)
    stitched_chunks: list[np.ndarray | None] = []
    total_gmw = 0
    for source in sources:
        current, positions, _segments, _connectors, gmw_calls, remaining = stitch_walk(
            net,
            store,
            source,
            length,
            params.lam,
            rng,
            loop_margin=2 * params.lam,
            gmw_count=max(1, length // params.lam),
            randomized_lengths=params.randomized_lengths,
            record_paths=record_paths,
            tree_cache=tree_cache,
            defer_tail=True,
        )
        total_gmw += gmw_calls
        pre_tails.append((current, remaining))
        stitched_chunks.append(positions)

    # ...then run every tail concurrently: the k tails are independent
    # naive walks of < 2λ steps each, so batching them costs O(λ + k)
    # instead of the O(k·λ) a sequential tail would — this keeps Phase 2 at
    # the Õ(√(kℓD)) the Theorem 2.8 proof charges for it.
    destinations, tail_paths = _parallel_tails(net, pre_tails, rng, record_paths=record_paths)

    trajectories: list[np.ndarray] | None = [] if record_paths else None
    if trajectories is not None:
        for stitched, tail in zip(stitched_chunks, tail_paths):
            if stitched is None or tail is None:
                raise WalkError("record_paths=True left a trajectory fragment unrecorded")
            trajectories.append(np.concatenate([stitched, tail]))
            if len(trajectories[-1]) != length + 1:
                raise WalkError("stitched + tail trajectory has wrong length")

    if report_to_source:
        with net.phase(REPORT):
            for destination in destinations:
                deliver_tree_path(net, base_tree, destination)

    return ManyWalksResult(
        sources=list(sources),
        length=length,
        destinations=destinations,
        mode="stitched",
        lam=params.lam,
        positions=trajectories,
        get_more_walks_calls=total_gmw,
    )


def many_random_walks(
    graph: Graph,
    sources: list[int],
    length: int,
    *,
    seed=None,
    params: WalkParams | None = None,
    lam: int | None = None,
    eta: float = 1.0,
    record_paths: bool = False,
    report_to_source: bool = True,
    network: Network | None = None,
) -> ManyWalksResult:
    """Compute ``k = len(sources)`` independent ℓ-step walks.

    ``record_paths`` defaults off here (applications usually need only the
    ``k`` endpoint samples; full trajectories for ``k`` long walks are
    memory-heavy).

    Thin wrapper over a one-shot :class:`~repro.engine.core.WalkEngine`;
    streams of batch queries on one graph should hold an engine and use
    :meth:`~repro.engine.core.WalkEngine.walks` instead.
    """
    from repro.engine.core import WalkEngine

    engine = WalkEngine(graph, seed=seed, eta=eta, network=network)
    return engine.walks(
        sources,
        length,
        pooled=False,
        params=params,
        lam=lam,
        record_paths=record_paths,
        report_to_source=report_to_source,
    )
