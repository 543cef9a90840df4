"""Parameter selection for the walk algorithms.

The paper fixes its parameters inside proofs (with w.h.p. constants like
``λ = 24·√(ℓD)·log³n``); a practical implementation keeps the *functional
form* with a leading constant of 1.  The algorithms are Las Vegas —
parameter choice changes round counts, never output correctness — so
benches sweep ``λ`` itself through ``lam=`` while tests pin it.

Functional forms (from Theorem 2.5, Theorem 2.8, and §2.1's recap of
PODC'09):

* single walk:  ``λ = Θ(√(ℓD))``, ``η = 1`` token per unit degree
* k walks:      ``λ = Θ(√(kℓD) + k)``, switch to the naive parallel
  algorithm when ``λ > ℓ`` (then ``O(k + ℓ)`` wins)
* PODC'09:      ``λ = Θ(ℓ^{1/3}D^{2/3})``, ``η = Θ((ℓ/D)^{1/3})`` tokens
  per node, fixed-length short walks
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import WalkError

__all__ = ["WalkParams", "single_walk_params", "many_walks_params", "podc09_params"]


@dataclass(frozen=True)
class WalkParams:
    """Resolved parameters for a stitched-walk execution.

    Attributes
    ----------
    lam:
        Short-walk base length ``λ`` (short walks have length in
        ``[λ, 2λ−1]`` in the randomized scheme, exactly ``λ`` in PODC'09).
    eta:
        Phase-1 walk multiplicity: the randomized scheme prepares
        ``⌈eta · deg(v)⌉`` short walks per node, PODC'09 prepares ``⌈eta⌉``
        per node regardless of degree.
    degree_proportional:
        Whether Phase-1 token counts scale with node degree (the key §2.1
        change over PODC'09).
    randomized_lengths:
        Whether short-walk lengths are drawn from ``[λ, 2λ−1]`` (Lemma 2.7's
        anti-periodicity device) or fixed at ``λ``.
    use_naive:
        True when parameters say the naive token walk is the better (or
        only sensible) algorithm, e.g. ``λ ≥ ℓ``.
    """

    lam: int
    eta: float
    degree_proportional: bool
    randomized_lengths: bool
    use_naive: bool = False


def _validate(length: int, diameter_estimate: int) -> None:
    if length < 1:
        raise WalkError(f"walk length must be >= 1, got {length}")
    if diameter_estimate < 1:
        raise WalkError(f"diameter estimate must be >= 1, got {diameter_estimate}")


def single_walk_params(
    length: int,
    diameter_estimate: int,
    *,
    lam: int | None = None,
    eta: float = 1.0,
    n: int | None = None,
) -> WalkParams:
    """Parameters for SINGLE-RANDOM-WALK: ``λ = √(ℓD)``, ``η = 1``.

    The theorem's ``λ`` carries polylog factors (``24√(ℓD)·log³n``); at
    simulation scale the operative one is Phase-1 congestion, which
    Lemma 2.1 puts at ``Θ(η log n)`` rounds per short-walk step.  When
    ``n`` is provided the default therefore balances
    ``Phase1 ≈ 2λ·log n`` against ``stitching ≈ (ℓ/λ)·Θ(D)`` by using
    ``λ = √(ℓD / log₂ n)`` — same ``Θ̃(√(ℓD))``, better constants.

    ``lam`` overrides the computed value (benches sweep it).  When
    ``λ ≥ ℓ`` the stitched algorithm cannot beat the naive ``ℓ``-round walk
    (there would be a single "short" walk longer than the request), so
    ``use_naive`` is set.
    """
    _validate(length, diameter_estimate)
    if eta <= 0:
        raise WalkError(f"eta must be positive, got {eta}")
    if lam is None:
        congestion = max(1.0, math.log2(n)) if n is not None and n > 1 else 1.0
        lam = max(1, round(math.sqrt(length * diameter_estimate / congestion)))
    if lam < 1:
        raise WalkError(f"lambda must be >= 1, got {lam}")
    return WalkParams(
        lam=int(lam),
        eta=eta,
        degree_proportional=True,
        randomized_lengths=True,
        use_naive=lam >= length,
    )


def many_walks_params(
    k: int,
    length: int,
    diameter_estimate: int,
    *,
    lam: int | None = None,
    eta: float = 1.0,
    n: int | None = None,
) -> WalkParams:
    """Parameters for MANY-RANDOM-WALKS (Theorem 2.8).

    ``λ = √(kℓD) + k`` (with the same log₂n congestion
    correction as :func:`single_walk_params` when ``n`` is given); when
    ``λ > ℓ`` the theorem's own case split says to run the naive algorithm
    for all ``k`` walks concurrently (the ``O(k + ℓ)`` branch of the min).
    """
    _validate(length, diameter_estimate)
    if k < 1:
        raise WalkError(f"k must be >= 1, got {k}")
    if lam is None:
        congestion = max(1.0, math.log2(n)) if n is not None and n > 1 else 1.0
        lam = max(1, round(math.sqrt(k * length * diameter_estimate / congestion) + k))
    return WalkParams(
        lam=int(lam),
        eta=eta,
        degree_proportional=True,
        randomized_lengths=True,
        use_naive=lam > length,
    )


def podc09_params(
    length: int,
    diameter_estimate: int,
    *,
    lam: int | None = None,
    eta: float | None = None,
) -> WalkParams:
    """Parameters for the PODC'09 baseline: ``λ = ℓ^{1/3}D^{2/3}``, ``η = (ℓ/D)^{1/3}``.

    These balance the three cost terms ``ηλ + ℓD/λ + ℓ/η`` of the §2.1
    recap, giving the ``Õ(ℓ^{2/3}D^{1/3})`` total the new algorithm is
    compared against.
    """
    _validate(length, diameter_estimate)
    d = diameter_estimate
    if lam is None:
        lam = max(1, round(length ** (1 / 3) * d ** (2 / 3)))
    if eta is None:
        eta = max(1.0, (length / d) ** (1 / 3))
    return WalkParams(
        lam=int(lam),
        eta=float(eta),
        degree_proportional=False,
        randomized_lengths=False,
        use_naive=lam >= length,
    )
