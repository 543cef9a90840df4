"""Statistical helpers shared by tests and benchmarks.

The library's correctness claims are distributional ("the sampled endpoint
has exactly the ℓ-step walk law", "every spanning tree is equally likely"),
so tests need goodness-of-fit machinery: chi-square tests against a known
discrete law, total-variation distance between empirical and exact
distributions, and empirical-distribution construction from samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ChiSquareResult",
    "chi_square_goodness_of_fit",
    "empirical_distribution",
    "total_variation",
    "total_variation_counts",
]


@dataclass(frozen=True)
class ChiSquareResult:
    """Outcome of a chi-square goodness-of-fit test."""

    statistic: float
    p_value: float
    dof: int

    def rejects_at(self, alpha: float) -> bool:
        """True when the null hypothesis is rejected at level ``alpha``."""
        return self.p_value < alpha


def chi_square_goodness_of_fit(
    observed: Mapping[Hashable, int],
    expected_probs: Mapping[Hashable, float],
    *,
    min_expected: float = 5.0,
) -> ChiSquareResult:
    """Test observed category counts against exact category probabilities.

    Categories whose expected count falls below ``min_expected`` are pooled
    into a single bucket, the standard validity fix for the chi-square
    approximation.  Categories present in ``expected_probs`` but absent from
    ``observed`` count as zero observations.

    Raises :class:`ValueError` when the expected probabilities do not sum to
    approximately one or when there are fewer than two effective categories.
    """
    total_prob = float(sum(expected_probs.values()))
    if not np.isclose(total_prob, 1.0, atol=1e-6):
        raise ValueError(f"expected probabilities sum to {total_prob}, not 1")
    unknown = set(observed) - set(expected_probs)
    if unknown:
        raise ValueError(f"observed categories not in expected support: {sorted(map(str, unknown))[:5]}")
    n = sum(observed.values())
    if n <= 0:
        raise ValueError("no observations")

    obs_main: list[float] = []
    exp_main: list[float] = []
    pooled_obs = 0.0
    pooled_exp = 0.0
    for category, prob in expected_probs.items():
        exp_count = prob * n
        obs_count = float(observed.get(category, 0))
        if exp_count < min_expected:
            pooled_obs += obs_count
            pooled_exp += exp_count
        else:
            obs_main.append(obs_count)
            exp_main.append(exp_count)
    if pooled_exp > 0:
        obs_main.append(pooled_obs)
        exp_main.append(pooled_exp)
    if len(obs_main) < 2:
        raise ValueError("fewer than two effective categories after pooling")

    # Imported here, not at module level: scipy.stats is most of the
    # package's import time and memory, and only this test needs it.
    from scipy import stats

    statistic, p_value = stats.chisquare(obs_main, exp_main)
    return ChiSquareResult(statistic=float(statistic), p_value=float(p_value), dof=len(obs_main) - 1)


def empirical_distribution(samples: Iterable[Hashable]) -> dict[Hashable, float]:
    """Return the empirical probability of each distinct sample value."""
    counts = Counter(samples)
    n = sum(counts.values())
    if n == 0:
        raise ValueError("no samples")
    return {value: count / n for value, count in counts.items()}


def total_variation(p: Mapping[Hashable, float], q: Mapping[Hashable, float]) -> float:
    """Total-variation distance ``0.5 * Σ |p(x) − q(x)|`` over the joint support."""
    support = set(p) | set(q)
    return 0.5 * sum(abs(p.get(x, 0.0) - q.get(x, 0.0)) for x in support)


def total_variation_counts(counts: Mapping[Hashable, int], q: Mapping[Hashable, float]) -> float:
    """Total-variation distance between an empirical count table and a law ``q``."""
    n = sum(counts.values())
    if n == 0:
        raise ValueError("no samples")
    p = {x: c / n for x, c in counts.items()}
    return total_variation(p, q)


def sample_quantiles(values: Sequence[float], quantiles: Sequence[float]) -> list[float]:
    """Convenience wrapper over :func:`numpy.quantile` returning plain floats."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no values")
    return [float(v) for v in np.quantile(arr, quantiles)]
