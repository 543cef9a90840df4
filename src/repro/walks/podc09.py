"""The PODC'09 baseline (Das Sarma, Nanongkai, Pandurangan 2009).

The ``Õ(ℓ^{2/3}D^{1/3})``-round predecessor this paper improves on.  Per
the recap in §2.1, it differs from SINGLE-RANDOM-WALK in exactly three
ways, all of them parameters (:func:`~repro.walks.params.podc09_params`),
so it runs through the one single-walk body,
:func:`~repro.walks.single_walk._run_single_walk` with
``algorithm="podc09"``, rather than a fork of it:

1. short walks have **fixed** length ``λ`` (no ``[λ, 2λ−1]`` randomization,
   so no Lemma 2.7 protection against periodic connector pile-ups);
2. Phase 1 prepares ``η`` walks **per node** (not per unit degree), with
   ``η = Θ((ℓ/D)^{1/3})``, and GET-MORE-WALKS refills ``η`` walks;
3. parameters balance the *worst-case* amortization
   ``ηλ + ℓD/λ + ℓ/η`` (GET-MORE-WALKS is expected to be invoked), giving
   ``λ = ℓ^{1/3}D^{2/3}``.

Keeping both algorithms on one code path makes the E1 comparison an
apples-to-apples measurement: identical engine, identical charging rules
(the setup BFS, the naive fallback when ``λ ≥ ℓ`` and the report
included), different parameters and length policy.
"""

from __future__ import annotations

from repro.congest.network import Network
from repro.graphs.graph import Graph
from repro.walks.params import WalkParams
from repro.walks.single_walk import WalkResult

__all__ = ["podc09_random_walk"]


def podc09_random_walk(
    graph: Graph,
    source: int,
    length: int,
    *,
    seed=None,
    params: WalkParams | None = None,
    lam: int | None = None,
    eta: float | None = None,
    record_paths: bool = True,
    report_to_source: bool = True,
    network: Network | None = None,
) -> WalkResult:
    """Run the PODC'09 algorithm; same contract as :func:`single_random_walk`.

    Thin wrapper over a one-shot :class:`~repro.engine.core.WalkEngine`
    (``algorithm="podc09"``).
    """
    from repro.engine.core import WalkEngine

    engine = WalkEngine(graph, seed=seed, network=network)
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
