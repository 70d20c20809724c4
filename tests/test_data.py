"""Tests for repro.data: schema, synthetic generator, dataset registry."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.data import (
    DATASETS,
    dataset_names,
    default_constraints,
    load_dataset,
    synthetic_census,
)
from repro.data import schema
from repro.data.datasets import DatasetSpec
from repro.data.synthetic import attach_attributes, smoothed_normal_scores
from repro.exceptions import DatasetError
from repro.geometry import voronoi_tessellation


class TestSchema:
    def test_attribute_names(self):
        assert schema.ATTRIBUTE_NAMES == (
            "POP16UP",
            "EMPLOYED",
            "TOTALPOP",
            "HOUSEHOLDS",
        )

    def test_dissimilarity_is_households(self):
        assert schema.DISSIMILARITY_ATTRIBUTE == "HOUSEHOLDS"

    def test_default_constraints_match_table2(self):
        minimum, average, total = default_constraints()
        assert minimum.aggregate == "MIN"
        assert minimum.attribute == "POP16UP"
        assert minimum.upper == 3000 and math.isinf(minimum.lower)
        assert average.aggregate == "AVG"
        assert (average.lower, average.upper) == (1500, 3500)
        assert total.aggregate == "SUM"
        assert total.lower == 20000 and math.isinf(total.upper)

    def test_attribute_spec_quantile_monotone_and_capped(self):
        spec = schema.ATTRIBUTE_SPECS[schema.EMPLOYED]
        assert spec.quantile(0) < spec.quantile(1)
        assert spec.quantile(10) == schema.EMPLOYED_CAP


class TestSmoothedScores:
    def _adjacency(self, n=64):
        from repro.geometry import grid_tessellation

        return dict(grid_tessellation(8, 8).adjacency)

    def test_scores_are_standard_normal_ranks(self):
        rng = np.random.default_rng(0)
        scores = smoothed_normal_scores(self._adjacency(), rng)
        assert len(scores) == 64
        assert abs(float(np.mean(scores))) < 0.2
        assert 0.8 < float(np.std(scores)) < 1.2

    def test_smoothing_creates_positive_autocorrelation(self):
        adjacency = self._adjacency()
        rng = np.random.default_rng(1)
        scores = smoothed_normal_scores(adjacency, rng, rounds=3)

        def moran_numerator(values):
            total = 0.0
            for i, neighbors in adjacency.items():
                for j in neighbors:
                    total += values[i] * values[j]
            return total

        centered = scores - scores.mean()
        assert moran_numerator(centered) > 0  # neighbors co-vary

    def test_zero_rounds_still_normalizes(self):
        rng = np.random.default_rng(2)
        scores = smoothed_normal_scores(self._adjacency(), rng, rounds=0)
        assert len(scores) == 64


class TestSyntheticCensus:
    def test_attribute_schema(self, small_census):
        assert small_census.attribute_names == frozenset(schema.ATTRIBUTE_NAMES)
        assert small_census.dissimilarity_attribute == schema.HOUSEHOLDS

    def test_determinism(self):
        a = synthetic_census(50, seed=5)
        b = synthetic_census(50, seed=5)
        assert a.attribute_values("TOTALPOP") == b.attribute_values("TOTALPOP")

    def test_seed_changes_attributes(self):
        a = synthetic_census(50, seed=5)
        b = synthetic_census(50, seed=6)
        assert a.attribute_values("TOTALPOP") != b.attribute_values("TOTALPOP")

    def test_pop16up_quantiles_match_paper_calibration(self):
        """Table III's M row implies the POP16UP CDF at 2000/3500/5000;
        the synthetic marginal must reproduce it within a few points."""
        collection = synthetic_census(2000, seed=7)
        values = np.array(list(collection.attribute_values("POP16UP").values()))
        assert float((values <= 2000).mean()) == pytest.approx(0.115, abs=0.04)
        assert float((values <= 3500).mean()) == pytest.approx(0.617, abs=0.05)
        assert float((values <= 5000).mean()) == pytest.approx(0.927, abs=0.05)

    def test_employed_distribution_matches_fig8(self):
        collection = synthetic_census(2000, seed=7)
        values = np.array(list(collection.attribute_values("EMPLOYED").values()))
        assert values.max() <= schema.EMPLOYED_CAP
        assert float((values < 4000).mean()) > 0.9  # "most below 4k"
        assert 0.45 < float((values < 2000).mean()) < 0.65

    def test_totalpop_consistent_with_pop16up(self, small_census):
        for area in small_census:
            ratio = area.attributes["POP16UP"] / area.attributes["TOTALPOP"]
            assert 0.69 < ratio < 0.88

    def test_households_scale(self, small_census):
        for area in small_census:
            persons = area.attributes["TOTALPOP"] / area.attributes["HOUSEHOLDS"]
            assert 2.2 < persons < 3.3

    def test_polygons_attached(self, small_census):
        assert all(area.polygon is not None for area in small_census)

    def test_multi_patch_components(self):
        collection = synthetic_census(60, seed=2, patches=3)
        assert len(collection.connected_components()) == 3

    def test_too_few_units_raise(self):
        with pytest.raises(DatasetError):
            synthetic_census(2)

    def test_bad_patch_split_raises(self):
        with pytest.raises(DatasetError):
            synthetic_census(5, patches=3)

    def test_invalid_patch_count_raises(self):
        with pytest.raises(DatasetError):
            synthetic_census(30, patches=0)

    def test_invalid_cross_correlation_raises(self):
        tess = voronoi_tessellation(10, seed=1)
        with pytest.raises(DatasetError):
            attach_attributes(tess, cross_correlation=1.5)


class TestDatasetRegistry:
    def test_nine_paper_datasets_plus_scaling_midpoint(self):
        # The paper's nine registry entries plus the synthetic "25k"
        # midpoint used by the scaling benchmark sweep.
        assert len(DATASETS) == 10
        assert dataset_names()[0] == "1k"
        assert dataset_names()[-1] == "50k"
        assert DATASETS["25k"].n_areas == 25000

    def test_paper_sizes(self):
        assert DATASETS["1k"].n_areas == 1012
        assert DATASETS["2k"].n_areas == 2344
        assert DATASETS["50k"].n_areas == 49943

    def test_multi_state_datasets_have_patches(self):
        assert DATASETS["10k"].patches > 1
        assert DATASETS["1k"].patches == 1

    def test_scaled_size(self):
        spec = DatasetSpec("x", 1000, "test")
        assert spec.scaled_size(0.5) == 500
        assert spec.scaled_size(0.001) == 12  # floor

    def test_load_scaled(self):
        collection = load_dataset("1k", scale=0.05)
        assert len(collection) == round(1012 * 0.05)

    def test_load_caches(self):
        a = load_dataset("1k", scale=0.05)
        b = load_dataset("1k", scale=0.05)
        assert a is b

    def test_unknown_name_raises(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            load_dataset("17k")

    def test_non_positive_scale_raises(self):
        with pytest.raises(DatasetError, match="scale"):
            load_dataset("1k", scale=0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_raises(self, scale):
        with pytest.raises(DatasetError, match="finite"):
            load_dataset("2k", scale=scale)

    def test_seed_override(self):
        a = load_dataset("1k", scale=0.05)
        b = load_dataset("1k", scale=0.05, seed=99)
        assert a.attribute_values("TOTALPOP") != b.attribute_values("TOTALPOP")

    def test_multi_state_scaled_keeps_components(self):
        collection = load_dataset("10k", scale=0.02)
        assert len(collection.connected_components()) == DATASETS["10k"].patches


def test_dataset_load_leaves_scipy_stats_unimported():
    """Generating a dataset must not pay for the scipy.stats import."""
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH")) if part
    )
    script = (
        "import sys, repro; repro.load_dataset('2k', scale=0.05); "
        "print('scipy.stats' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
