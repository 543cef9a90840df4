"""Markov-chain analysis of random walks on graphs.

Ground truth for everything the distributed algorithms sample: exact
``ℓ``-step distributions (to chi-square-test the samplers), stationary
distributions, and exact mixing times ``τ^x(ε)`` (to sandwich the
decentralized estimator of Theorem 4.6).

For a (weighted) undirected graph the simple walk's transition matrix is
``P(u,v) = w(u,v)/w(u)``; it is reversible with stationary law
``π(v) = w(v)/2W``.  Reversibility lets us symmetrize
``S = D^{1/2} P D^{-1/2}`` (``D = diag(π)``), eigendecompose once, and then
evaluate ``P^t`` act-on-vector for *any* ``t`` in ``O(n²)`` — which is what
makes exact mixing-time binary searches cheap even when ``τ`` is in the
tens of thousands (cycle/barbell territory).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from repro.errors import ConvergenceError, GraphError
from repro.graphs.graph import Graph
from repro.graphs.properties import is_bipartite, is_connected

__all__ = [
    "transition_matrix",
    "stationary_distribution",
    "WalkSpectrum",
    "distribution_at",
    "tv_from_stationary",
    "exact_mixing_time",
    "MIXING_EPSILON",
]

#: The paper's mixing-time threshold: τ^x_mix = τ^x(1/2e) (Definition 4.3).
MIXING_EPSILON = 1.0 / (2.0 * math.e)


def transition_matrix(graph: Graph, *, lazy: bool = False) -> np.ndarray:
    """Dense walk matrix ``P``; ``lazy=True`` gives ``(I + P)/2``.

    The lazy version is what the Lemma 2.6 proof machinery uses (Lyons'
    estimate needs a positive self-loop probability); the algorithms
    themselves run the plain simple walk.
    """
    n = graph.n
    p = np.zeros((n, n), dtype=np.float64)
    sources, weights = graph.slot_sources(), graph.edge_weights()[graph.csr_edge]
    for slot in range(graph.n_slots):
        u = int(sources[slot])
        v = int(graph.csr_target[slot])
        p[u, v] += weights[slot] / graph.weighted_degree(u)
    if lazy:
        p = 0.5 * (np.eye(n) + p)
    return p


def stationary_distribution(graph: Graph) -> np.ndarray:
    """``π(v) = w(v) / 2W`` — degree-proportional for unweighted graphs."""
    w = graph.weighted_degrees
    total = w.sum()
    if total <= 0:
        raise GraphError("graph has no edges; stationary distribution undefined")
    return w / total


class WalkSpectrum:
    """Eigendecomposition of the (reversible) walk, for fast ``P^t`` actions.

    ``distribution(x, t)`` returns the exact law of the walk after ``t``
    steps from ``x`` in ``O(n²)`` regardless of ``t``.  Requires a
    connected graph; for *bipartite* graphs ``P^t`` oscillates and mixing
    quantities are undefined (callers that need mixing must check
    :func:`repro.graphs.properties.is_bipartite` — the constructor only
    warns through ``is_bipartite`` exposure, since plain ``t``-step
    distributions are still perfectly well defined).
    """

    def __init__(self, graph: Graph, *, lazy: bool = False) -> None:
        if not is_connected(graph):
            raise GraphError("walk spectrum requires a connected graph")
        self.graph = graph
        self.lazy = lazy
        self.pi = stationary_distribution(graph)
        p = transition_matrix(graph, lazy=lazy)
        d_half = np.sqrt(self.pi)
        # S = D^{1/2} P D^{-1/2} is symmetric for reversible P.
        s = (d_half[:, None] * p) / d_half[None, :]
        s = 0.5 * (s + s.T)  # scrub asymmetric float noise
        eigvals, eigvecs = np.linalg.eigh(s)
        self.eigvals = eigvals
        self.eigvecs = eigvecs
        self._d_half = d_half

    @cached_property
    def is_bipartite(self) -> bool:
        return is_bipartite(self.graph)

    def distribution(self, start: int, t: int) -> np.ndarray:
        """Exact law of the walk position after ``t`` steps from ``start``."""
        if t < 0:
            raise GraphError("t must be non-negative")
        e_start = np.zeros(self.graph.n)
        e_start[start] = 1.0
        # P^t = D^{-1/2} S^t D^{1/2} with D = diag(√π), so the row
        # (P^t)_{start,·} is D^{1/2} S^t (D^{-1/2} e_start) by symmetry of S.
        y = self.eigvecs.T @ (e_start / self._d_half)
        y = y * np.power(self.eigvals, t)
        dist = (self.eigvecs @ y) * self._d_half
        dist = np.clip(dist, 0.0, None)
        total = dist.sum()
        if not 0.9 < total < 1.1:
            raise ConvergenceError(f"spectral propagation lost mass (sum={total})")
        return dist / total

    def tv_from_stationary(self, start: int, t: int) -> float:
        """``‖π_x(t) − π‖₁ / 2`` — total-variation distance after ``t`` steps.

        Note the paper's Definition 4.3 uses the *ℓ₁ norm* (twice the TV
        distance); :func:`exact_mixing_time` works in the paper's ℓ₁
        convention so that ``ε = 1/2e`` means what it means there.
        """
        return 0.5 * float(np.abs(self.distribution(start, t) - self.pi).sum())

    def l1_from_stationary(self, start: int, t: int) -> float:
        """``‖π_x(t) − π‖₁`` — the paper's Definition 4.2/4.3 convention."""
        return float(np.abs(self.distribution(start, t) - self.pi).sum())


def distribution_at(graph: Graph, start: int, t: int, *, lazy: bool = False) -> np.ndarray:
    """One-shot exact ``t``-step law (builds a spectrum; cache one for sweeps)."""
    return WalkSpectrum(graph, lazy=lazy).distribution(start, t)


def tv_from_stationary(graph: Graph, start: int, t: int) -> float:
    return WalkSpectrum(graph).tv_from_stationary(start, t)


def exact_mixing_time(
    graph: Graph,
    start: int,
    epsilon: float = MIXING_EPSILON,
    *,
    spectrum: WalkSpectrum | None = None,
    max_t: int = 10_000_000,
) -> int:
    """``τ^x(ε) = min{t : ‖π_x(t) − π‖₁ < ε}`` by monotone binary search.

    Well defined only on connected non-bipartite graphs (Section 4.2's
    standing assumption); monotonicity of the ℓ₁ distance in ``t``
    (Lemma 4.4) justifies the binary search.
    """
    if epsilon <= 0:
        raise GraphError("epsilon must be positive")
    spec = spectrum if spectrum is not None else WalkSpectrum(graph)
    if spec.is_bipartite:
        raise GraphError("mixing time undefined on bipartite graphs (Section 4.2)")
    if spec.l1_from_stationary(start, 0) < epsilon:
        return 0

    hi = 1
    while spec.l1_from_stationary(start, hi) >= epsilon:
        hi *= 2
        if hi > max_t:
            raise ConvergenceError(f"walk not mixed to epsilon={epsilon} within {max_t} steps")
    lo = hi // 2  # l1(lo) >= epsilon, l1(hi) < epsilon
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if spec.l1_from_stationary(start, mid) < epsilon:
            hi = mid
        else:
            lo = mid
    return hi
