"""The PODC'09 baseline (Das Sarma, Nanongkai, Pandurangan 2009).

The ``Õ(ℓ^{2/3}D^{1/3})``-round predecessor this paper improves on.  Per
the recap in §2.1, it differs from SINGLE-RANDOM-WALK in exactly three
ways, all of which this implementation parameterizes through the shared
stitching core rather than forking the code:

1. short walks have **fixed** length ``λ`` (no ``[λ, 2λ−1]`` randomization,
   so no Lemma 2.7 protection against periodic connector pile-ups);
2. Phase 1 prepares ``η`` walks **per node** (not per unit degree), with
   ``η = Θ((ℓ/D)^{1/3})``;
3. parameters balance the *worst-case* amortization
   ``ηλ + ℓD/λ + ℓ/η`` (GET-MORE-WALKS is expected to be invoked), giving
   ``λ = ℓ^{1/3}D^{2/3}``.

Keeping both algorithms on one code path makes the E1 comparison an
apples-to-apples measurement: identical engine, identical charging rules,
different parameters and length policy.
"""

from __future__ import annotations

from repro.congest.network import Network
from repro.congest.phases import REPORT
from repro.congest.primitives import BfsTree, deliver_tree_path
from repro.errors import WalkError
from repro.graphs.graph import Graph
from repro.walks.params import WalkParams, podc09_params
from repro.walks.short_walks import perform_short_walks, token_counts
from repro.walks.single_walk import WalkResult, estimate_diameter, stitch_walk
from repro.walks.store import WalkStore

__all__ = ["podc09_random_walk"]


def _run_podc09_walk(
    graph: Graph,
    source: int,
    length: int,
    rng,
    net: Network,
    *,
    params: WalkParams | None = None,
    lam: int | None = None,
    eta: float | None = None,
    lambda_constant: float = 1.0,
    record_paths: bool = True,
    report_to_source: bool = True,
) -> WalkResult:
    """One-shot PODC'09 baseline on a resolved (rng, network) — legacy body."""
    if not 0 <= source < graph.n:
        raise WalkError(f"source {source} out of range")
    if length < 1:
        raise WalkError(f"walk length must be >= 1, got {length}")
    rounds_before = net.rounds
    tree_cache: dict[int, BfsTree] = {}

    d_est, source_tree = estimate_diameter(net, source, tree_cache)
    if params is None:
        params = podc09_params(length, d_est, constant=lambda_constant, lam=lam, eta=eta)

    if params.use_naive:
        from repro.walks.naive import naive_random_walk

        return naive_random_walk(
            graph, source, length, seed=rng, record_paths=record_paths, network=net
        )

    store = WalkStore()
    counts = token_counts(graph.degrees, params.eta, degree_proportional=params.degree_proportional)
    perform_short_walks(
        net,
        store,
        params.lam,
        rng,
        counts=counts,
        randomized_lengths=False,
        record_paths=record_paths,
    )
    tokens_prepared = store.tokens_created

    destination, positions, segments, connectors, gmw_calls, _remaining = stitch_walk(
        net,
        store,
        source,
        length,
        params.lam,
        rng,
        loop_margin=params.lam,
        gmw_count=max(1, int(params.eta)),
        randomized_lengths=False,
        record_paths=record_paths,
        tree_cache=tree_cache,
    )

    if report_to_source:
        with net.phase(REPORT):
            deliver_tree_path(net, source_tree, destination)

    return WalkResult(
        source=source,
        length=length,
        destination=destination,
        mode="podc09",
        rounds=net.rounds - rounds_before,
        lam=params.lam,
        positions=positions,
        segments=segments,
        connectors=connectors,
        phase_rounds={k: v.rounds for k, v in net.ledger.phases.items()},
        get_more_walks_calls=gmw_calls,
        tokens_prepared=tokens_prepared,
    )


def podc09_random_walk(
    graph: Graph,
    source: int,
    length: int,
    *,
    seed=None,
    params: WalkParams | None = None,
    lam: int | None = None,
    eta: float | None = None,
    lambda_constant: float = 1.0,
    record_paths: bool = True,
    report_to_source: bool = True,
    network: Network | None = None,
) -> WalkResult:
    """Run the PODC'09 algorithm; same contract as :func:`single_random_walk`.

    Thin wrapper over a one-shot :class:`~repro.engine.core.WalkEngine`
    (``algorithm="podc09"``).
    """
    from repro.engine.core import WalkEngine

    engine = WalkEngine(graph, seed=seed, lambda_constant=lambda_constant, network=network)
    return engine.walk(
        source,
        length,
        algorithm="podc09",
        pooled=False,
        params=params,
        lam=lam,
        eta=eta,
        record_paths=record_paths,
        report_to_source=report_to_source,
    )
