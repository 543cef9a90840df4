"""Distribution identity testing against the stationary law (Batu et al.).

Theorem 4.5 (their result, restated in the paper): with ``Õ(√n·poly(1/ε))``
samples from an unknown distribution ``X`` one can PASS w.h.p. when
``|X−Y|₁`` is tiny and FAIL w.h.p. when ``|X−Y|₁ ≥ 6ε``, for a *known*
``Y``.  Appendix C.1 sketches the mechanics we implement:

* **bucketing** — nodes are grouped by their stationary probability into
  geometric buckets; the source only ever needs the exact total mass of the
  ``Õ(√n)`` buckets its samples touch (recoverable by broadcast+upcast in
  ``O(D + #buckets)`` rounds since every node knows its own π);
* **bucket-mass comparison** — empirical vs. exact bucket masses (an ℓ₁
  lower bound on the true distance; catches skew mismatches);
* **collision statistics** — an unbiased estimate of ``‖X−Y‖₂²`` from
  within-sample collision counts and cross-terms, which upper-bounds TV via
  ``TV ≤ ½·√(n·‖X−Y‖₂²)`` (catches mismatches the buckets cannot see —
  e.g. on regular graphs where every node falls into one bucket).

The verdict statistic is ``max(bucketed-TV, ½√(n·‖X−Y‖₂²-estimate))``, an
empirical proxy for TV.  Proof constants are impractical at simulation
scale; the defaults below are calibrated so the mixing-time sandwich of
Theorem 4.6 holds empirically on our graph families (see
``tests/test_mixing_time.py``), and both the threshold and sample count are
exposed for callers who want the asymptotic regime.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.util.arrays import sorted_unique

__all__ = ["TesterVerdict", "BucketingIdentityTester", "recommended_sample_count"]


def recommended_sample_count(n: int, *, constant: float = 12.0) -> int:
    """The ``Õ(√n)`` sample budget used per identity test."""
    if n < 2:
        raise GraphError("need n >= 2")
    return max(64, math.ceil(constant * math.sqrt(n) * math.log(n)))


@dataclass(frozen=True)
class TesterVerdict:
    """Outcome of one identity test."""

    passed: bool
    statistic: float
    threshold: float
    n_samples: int
    bucket_tv: float
    l2_upper: float


class BucketingIdentityTester:
    """Test whether samples come from a known reference distribution.

    Parameters
    ----------
    reference:
        The known distribution ``Y`` over ``{0..n-1}`` (for the mixing
        application: the stationary law, which every node knows locally).
    threshold:
        PASS when the TV-proxy statistic falls below this.  The mixing
        estimator sets it from its target ``ε`` (in the paper's ℓ₁ scale:
        ``threshold = ℓ₁-target / 2`` since TV = ℓ₁/2).
    bucket_ratio:
        Geometric bucket width (nodes with π in ``(r^{-(j+1)}, r^{-j}]``
        share bucket ``j``).
    """

    def __init__(
        self,
        reference: Sequence[float] | np.ndarray,
        *,
        threshold: float,
        bucket_ratio: float = 2.0,
    ) -> None:
        ref = np.asarray(reference, dtype=np.float64)
        if ref.ndim != 1 or len(ref) < 2:
            raise GraphError("reference must be a 1-D distribution over >= 2 items")
        if np.any(ref < 0) or not np.isclose(ref.sum(), 1.0, atol=1e-8):
            raise GraphError("reference must be a probability distribution")
        if threshold <= 0:
            raise GraphError("threshold must be positive")
        if bucket_ratio <= 1:
            raise GraphError("bucket_ratio must exceed 1")
        self.reference = ref
        self.threshold = float(threshold)
        self.n = len(ref)
        with np.errstate(divide="ignore"):
            raw = np.floor(-np.log(np.where(ref > 0, ref, 1.0)) / math.log(bucket_ratio))
        self.bucket_of = np.where(ref > 0, raw, -1).astype(np.int64)
        self.bucket_mass: dict[int, float] = {}
        for b in sorted_unique(self.bucket_of):
            self.bucket_mass[int(b)] = float(ref[self.bucket_of == b].sum())
        self.ref_l2_sq = float(np.sum(ref * ref))

    # ------------------------------------------------------------------
    def bucket_statistic(self, samples: np.ndarray) -> float:
        """Bucketed total-variation: ``½ Σ_b |emp(b) − mass(b)|``."""
        counts = Counter(int(self.bucket_of[s]) for s in samples)
        k = len(samples)
        stat = 0.0
        seen = set()
        for b, c in counts.items():
            stat += abs(c / k - self.bucket_mass.get(b, 0.0))
            seen.add(b)
        for b, mass in self.bucket_mass.items():
            if b not in seen:
                stat += mass
        return 0.5 * stat

    def l2_statistic(self, samples: np.ndarray) -> float:
        """Unbiased estimate of ``‖X−Y‖₂²`` from collisions and cross-terms.

        ``‖X‖₂²`` is estimated by the sample collision rate
        ``#{i<j : s_i = s_j} / C(K,2)``; ``⟨X,Y⟩`` by the sample mean of
        ``Y(s_i)``; ``‖Y‖₂²`` is exact.
        """
        k = len(samples)
        if k < 2:
            raise GraphError("l2 statistic needs at least 2 samples")
        counts = np.bincount(samples, minlength=self.n)
        collisions = float(np.sum(counts * (counts - 1)) / 2.0)
        x_l2_sq = collisions / (k * (k - 1) / 2.0)
        cross = float(np.mean(self.reference[samples]))
        return x_l2_sq - 2.0 * cross + self.ref_l2_sq

    def test(self, samples: Sequence[int] | np.ndarray) -> TesterVerdict:
        """Run the combined test; PASS iff the TV proxy is below threshold."""
        arr = np.asarray(samples, dtype=np.int64)
        if arr.ndim != 1 or len(arr) < 2:
            raise GraphError("need at least 2 samples")
        if np.any(arr < 0) or np.any(arr >= self.n):
            raise GraphError("samples out of range")
        bucket_tv = self.bucket_statistic(arr)
        l2_sq = self.l2_statistic(arr)
        l2_upper = 0.5 * math.sqrt(max(l2_sq, 0.0) * self.n)
        statistic = max(bucket_tv, l2_upper)
        return TesterVerdict(
            passed=statistic < self.threshold,
            statistic=statistic,
            threshold=self.threshold,
            n_samples=len(arr),
            bucket_tv=bucket_tv,
            l2_upper=l2_upper,
        )

    # ------------------------------------------------------------------
    def aggregation_rounds(self, tree_height: int, samples: int) -> int:
        """CONGEST cost of recovering the needed bucket masses (App. C.3).

        The source broadcasts the bucket IDs it drew (≤ min(samples,
        #buckets) distinct values) and upcasts each bucket's exact count —
        ``O(D + #buckets)`` pipelined rounds.
        """
        distinct = min(samples, len(self.bucket_mass))
        return 2 * tree_height + distinct
