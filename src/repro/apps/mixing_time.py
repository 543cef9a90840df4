"""Section 4.2: decentralized mixing-time estimation.

Given a source ``x``, estimate ``τ̃`` with ``τ^x_mix ≤ τ̃ ≤ τ^x(ε)``
(Theorem 4.6) using only random-walk samples and tree aggregation:

1. for a candidate length ``ℓ``, draw ``K = Õ(√n)`` endpoint samples of
   ℓ-step walks from ``x`` via MANY-RANDOM-WALKS (the speedup that makes
   this estimator beat the ``Õ(τ)`` power-iteration alternative when
   ``τ = ω(√n)``);
2. test the samples against the stationary law with the Batu-style
   identity tester (each node knows its own π locally — no global data
   movement beyond bucket counts);
3. double ``ℓ`` while the test FAILs, then binary-search the PASS boundary
   (legitimate because ``‖π_x(t) − π‖₁`` is monotone in ``t``, Lemma 4.4).

The module also provides the comparison baseline
(:func:`power_iteration_mixing_time`): propagate the full distribution one
step per round (the Kempe–McSherry-style direct approach the paper quotes
as ``Õ(τ^x_mix)``) and watch the ℓ₁ error decay — used by the E9 bench to
reproduce the "faster when τ = ω(√n)" comparison.  Spectral-gap and
conductance interval estimates follow from the mixing estimate via
:mod:`repro.markov.spectral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.apps.distribution_test import (
    BucketingIdentityTester,
    TesterVerdict,
    recommended_sample_count,
)
from repro.congest.network import Network
from repro.congest.phases import (
    BASELINE_POWER_ITERATION,
    BASELINE_SETUP,
    MIXING_BUCKET_UPCAST,
    MIXING_SETUP,
)
from repro.congest.primitives import BfsTree, build_bfs_tree
from repro.engine.model import ResultBase
from repro.errors import ConvergenceError, GraphError
from repro.graphs.graph import Graph
from repro.graphs.properties import is_bipartite
from repro.markov.chain import stationary_distribution
from repro.markov.spectral import (
    SpectralEstimate,
    conductance_bounds_from_mixing,
    gap_bounds_from_mixing,
)
from repro.util.rng import make_rng
from repro.walks.many_walks import many_random_walks

__all__ = ["MixingProbe", "MixingTimeEstimate", "estimate_mixing_time", "power_iteration_mixing_time"]


@dataclass(frozen=True)
class MixingProbe:
    """One tested walk length."""

    length: int
    verdict: TesterVerdict
    rounds: int


@dataclass
class MixingTimeEstimate(ResultBase):
    """Result of the decentralized estimation.

    ``estimate`` is the first length at which the identity test PASSes
    (the paper's ``τ̃``); the theorem guarantees it sandwiches between
    ``τ^x_mix`` and ``τ^x(ε)`` w.h.p.  ``rounds``/``mode``/``phase_rounds``
    come from :class:`~repro.engine.model.ResultBase` (``mode`` is
    ``"mixing"``; the breakdown covers this request only).
    """

    source: int
    estimate: int
    samples_per_test: int
    probes: list[MixingProbe] = field(default_factory=list)

    def spectral_gap_bounds(self, n: int) -> SpectralEstimate:
        """``1/τ̃ ≤ 1−λ₂ ≤ log n / τ̃`` (Section 4.2's closing remark)."""
        return gap_bounds_from_mixing(self.estimate, n)

    def conductance_bounds(self, n: int) -> SpectralEstimate:
        """Jerrum–Sinclair interval for the conductance."""
        return conductance_bounds_from_mixing(self.estimate, n)


def estimate_mixing_time(
    graph: Graph,
    source: int,
    *,
    seed=None,
    samples: int | None = None,
    threshold: float | None = None,
    max_length: int | None = None,
    network: Network | None = None,
) -> MixingTimeEstimate:
    """Estimate ``τ^x_mix`` from node ``source``; see module docstring.

    ``threshold`` is in TV scale (= ℓ₁/2); the default ``1/(4e)`` is half
    the mixing definition's ``ℓ₁ < 1/2e``, splitting the PASS/FAIL margin
    symmetrically.  ``max_length`` guards against non-mixing inputs
    (default ``16·n³``, beyond any connected graph's mixing time scale).
    """
    if not 0 <= source < graph.n:
        raise GraphError(f"source {source} out of range")
    if is_bipartite(graph):
        raise GraphError("mixing time undefined on bipartite graphs (Section 4.2)")
    rng = make_rng(seed)
    net = network if network is not None else Network(graph, seed=rng)
    rounds_before = net.rounds
    ledger_before = net.ledger.capture()
    k = samples if samples is not None else recommended_sample_count(graph.n)
    if k < 2:
        raise GraphError("need at least 2 samples per test")
    theta = threshold if threshold is not None else 1.0 / (4.0 * math.e)
    limit = max_length if max_length is not None else 16 * graph.n**3

    pi = stationary_distribution(graph)
    tester = BucketingIdentityTester(pi, threshold=theta)
    tree_cache: dict[int, BfsTree] = {}
    with net.phase(MIXING_SETUP):
        tree = build_bfs_tree(net, source, cache=tree_cache)

    probes: list[MixingProbe] = []

    def probe(length: int) -> TesterVerdict:
        start = net.rounds
        result = many_random_walks(
            graph,
            [source] * k,
            length,
            seed=int(rng.integers(0, 2**63 - 1)),
            record_paths=False,
            report_to_source=True,
            network=net,
        )
        verdict = tester.test(np.asarray(result.destinations, dtype=np.int64))
        with net.phase(MIXING_BUCKET_UPCAST):
            net.ledger.charge(
                tester.aggregation_rounds(tree.height, k),
                messages=graph.n,
                congestion=1,
            )
        probes.append(MixingProbe(length=length, verdict=verdict, rounds=net.rounds - start))
        return verdict

    # Doubling until the first PASS.
    length = 1
    verdict = probe(length)
    while not verdict.passed:
        length *= 2
        if length > limit:
            raise ConvergenceError(
                f"no PASS up to length {limit}; graph may be too slowly mixing"
            )
        verdict = probe(length)

    # Binary search for the PASS boundary in (length/2, length].
    lo, hi = length // 2, length
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid).passed:
            hi = mid
        else:
            lo = mid

    return MixingTimeEstimate(
        source=source,
        estimate=hi,
        mode="mixing",
        rounds=net.rounds - rounds_before,
        phase_rounds=dict(net.ledger.delta_since(ledger_before).phase_rounds),
        samples_per_test=k,
        probes=probes,
    )


def power_iteration_mixing_time(
    graph: Graph,
    source: int,
    *,
    epsilon_l1: float = 1.0 / (2.0 * math.e),
    max_steps: int | None = None,
    network: Network | None = None,
) -> tuple[int, int]:
    """Baseline: propagate the distribution one step per round until mixed.

    Every node holds its current probability mass and pushes the per-edge
    share to each neighbor each round (one ``O(log n)``-bit value per edge
    — the same idealization as Kempe–McSherry's ``Õ(τ)`` algorithm).  The
    ℓ₁ distance to π is convergecast at power-of-two checkpoints.

    Returns ``(mixing_estimate, rounds_charged)``.
    """
    if not 0 <= source < graph.n:
        raise GraphError(f"source {source} out of range")
    if is_bipartite(graph):
        raise GraphError("mixing time undefined on bipartite graphs")
    net = network if network is not None else Network(graph)
    rounds_before = net.rounds
    limit = max_steps if max_steps is not None else 16 * graph.n**3

    pi = stationary_distribution(graph)
    mass = np.zeros(graph.n)
    mass[source] = 1.0
    inv_wdeg = 1.0 / graph.weighted_degrees
    sources, slot_weight = graph.slot_sources(), graph.edge_weights()[graph.csr_edge]

    tree_cache: dict[int, BfsTree] = {}
    with net.phase(BASELINE_SETUP):
        tree = build_bfs_tree(net, source, cache=tree_cache)

    next_check = 1
    step = 0
    with net.phase(BASELINE_POWER_ITERATION):
        while step < limit:
            # One distributed averaging step: every edge carries one value.
            contrib = mass[sources] * slot_weight * inv_wdeg[sources]
            new_mass = np.zeros(graph.n)
            np.add.at(new_mass, graph.csr_target, contrib)
            mass = new_mass
            step += 1
            net.ledger.charge(1, messages=graph.n_slots, congestion=1)
            if step == next_check:
                net.ledger.charge(tree.height, messages=graph.n - 1, congestion=1)
                if float(np.abs(mass - pi).sum()) < epsilon_l1:
                    return step, net.rounds - rounds_before
                next_check *= 2
    raise ConvergenceError(f"baseline did not mix within {limit} steps")
