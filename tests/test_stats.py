"""Tests for repro.util.stats — goodness-of-fit machinery."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.util.stats import (
    chi_square_goodness_of_fit,
    empirical_distribution,
    sample_quantiles,
    total_variation,
    total_variation_counts,
)


class TestChiSquare:
    def test_uniform_samples_pass(self):
        rng = np.random.default_rng(0)
        samples = rng.integers(0, 4, 4000)
        observed = {i: int((samples == i).sum()) for i in range(4)}
        expected = {i: 0.25 for i in range(4)}
        result = chi_square_goodness_of_fit(observed, expected)
        assert not result.rejects_at(0.001)

    def test_biased_samples_fail(self):
        observed = {0: 3000, 1: 400, 2: 300, 3: 300}
        expected = {i: 0.25 for i in range(4)}
        result = chi_square_goodness_of_fit(observed, expected)
        assert result.rejects_at(1e-6)

    def test_pools_small_expected_categories(self):
        observed = {0: 95, 1: 5, 2: 0, 3: 0}
        expected = {0: 0.95, 1: 0.03, 2: 0.01, 3: 0.01}
        result = chi_square_goodness_of_fit(observed, expected, min_expected=5)
        assert result.dof >= 1

    def test_missing_categories_counted_as_zero(self):
        observed = {0: 50, 1: 50}
        expected = {0: 0.4, 1: 0.4, 2: 0.2}
        result = chi_square_goodness_of_fit(observed, expected)
        assert result.rejects_at(0.01)  # category 2 never observed

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            chi_square_goodness_of_fit({0: 1}, {0: 0.5})

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            chi_square_goodness_of_fit({9: 1}, {0: 1.0})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chi_square_goodness_of_fit({}, {0: 0.5, 1: 0.5})


class TestEmpiricalDistribution:
    def test_counts(self):
        dist = empirical_distribution(["a", "a", "b", "c"])
        assert dist == {"a": 0.5, "b": 0.25, "c": 0.25}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_distribution([])


class TestTotalVariation:
    def test_identical(self):
        p = {"a": 0.5, "b": 0.5}
        assert total_variation(p, p) == 0.0

    def test_disjoint(self):
        assert total_variation({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)

    def test_half(self):
        p = {"a": 1.0}
        q = {"a": 0.5, "b": 0.5}
        assert total_variation(p, q) == pytest.approx(0.5)

    def test_counts_variant(self):
        counts = {"a": 50, "b": 50}
        q = {"a": 0.5, "b": 0.5}
        assert total_variation_counts(counts, q) == pytest.approx(0.0)

    def test_counts_empty_raises(self):
        with pytest.raises(ValueError):
            total_variation_counts({}, {"a": 1.0})


class TestQuantiles:
    def test_median(self):
        assert sample_quantiles([1, 2, 3, 4, 5], [0.5]) == [3.0]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            sample_quantiles([], [0.5])


class TestImportCost:
    def test_importing_the_package_loads_no_scipy(self):
        # scipy.stats is most of a cold import's time and memory; only the
        # chi-square test needs it, so it is imported there.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, repro, repro.engine, repro.serve, repro.obs; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
