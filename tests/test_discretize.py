from collections import Counter

import numpy as np
import pytest

from asrcausal.discretize import (
    BinningScheme,
    apply_bins,
    apply_bins_array,
    fit_kde_bins,
    fit_quantile_bins,
    fit_sigma_bins,
    parse_schemes,
    write_schemes,
)
from asrcausal.errors import SchemaError, TooFewValuesError


class TestSigmaBins:
    def test_boundaries_at_mu_plus_minus_sigma(self):
        # mean 0, population std 1
        scheme = fit_sigma_bins([-1.0, 1.0, -1.0, 1.0])
        assert scheme.boundaries == pytest.approx((-1.0, 1.0))
        assert scheme.labels == ("Low", "Average", "High")
        assert scheme.method == "sigma"

    def test_degenerate_single_average_bin(self):
        scheme = fit_sigma_bins([2.0, 2.0, 2.0])
        assert scheme.labels == ("Average",)
        assert apply_bins(scheme, -100.0) == "Average"

    def test_too_few(self):
        with pytest.raises(TooFewValuesError):
            fit_sigma_bins([1.0])

    def test_gaussian_calibration(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal(50_000)
        scheme = fit_sigma_bins(values)
        labels = apply_bins_array(scheme, values)
        mass = labels.count("Average") / len(labels)
        assert mass == pytest.approx(0.6827, abs=0.01)


class TestApplyBins:
    def test_sigma_boundary_is_inclusive(self):
        scheme = BinningScheme("v", "sigma", (-1.0, 1.0),
                               ("Low", "Average", "High"))
        assert apply_bins(scheme, 1.0) == "Average"
        assert apply_bins(scheme, -1.0) == "Average"

    def test_sigma_outside(self):
        scheme = BinningScheme("v", "sigma", (-1.0, 1.0),
                               ("Low", "Average", "High"))
        assert apply_bins(scheme, 1.5) == "High"
        assert apply_bins(scheme, -1.5) == "Low"

    def test_generic_boundary_joins_upper_bin(self):
        scheme = BinningScheme("v", "quantile", (2.0,), ("L1", "L2"))
        assert apply_bins(scheme, 2.0) == "L2"
        assert apply_bins(scheme, 1.999) == "L1"

    def test_total_function(self):
        scheme = BinningScheme("v", "quantile", (0.0, 1.0), ("A", "B", "C"))
        for x in (-1e9, 0.0, 0.5, 1.0, 1e9):
            assert apply_bins(scheme, x) in ("A", "B", "C")


class TestQuantileBins:
    def test_equal_mass_on_distinct_values(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(10_000)
        scheme = fit_quantile_bins(values, 3)
        counts = Counter(apply_bins_array(scheme, values))
        for label in scheme.labels:
            assert abs(counts[label] - len(values) / 3) <= 1

    def test_tied_boundaries_deduplicate(self):
        scheme = fit_quantile_bins([1.0] * 30, 3)
        assert len(scheme.labels) == len(scheme.boundaries) + 1


class TestKdeBins:
    def test_two_gaussian_mixture_valley_near_zero(self):
        rng = np.random.default_rng(21)
        values = np.concatenate([rng.normal(-3, 0.5, 5000),
                                 rng.normal(3, 0.5, 5000)])
        scheme = fit_kde_bins(values, bins=2)
        assert scheme.method == "kde"
        assert len(scheme.boundaries) == 1
        assert abs(scheme.boundaries[0]) <= 0.3

    def test_three_modes_give_two_boundaries(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.normal(-6, 0.5, 4000),
                                 rng.normal(0, 0.5, 4000),
                                 rng.normal(6, 0.5, 4000)])
        scheme = fit_kde_bins(values, bins=3)
        assert scheme.method == "kde"
        assert len(scheme.boundaries) == 2
        assert scheme.labels == ("Low", "Average", "High")
        assert -4 < scheme.boundaries[0] < -2
        assert 2 < scheme.boundaries[1] < 4

    def test_unimodal_falls_back_to_quantiles(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal(10_000)
        scheme = fit_kde_bins(values, bins=3)
        assert scheme.method == "quantile"
        counts = Counter(apply_bins_array(scheme, values))
        for label in scheme.labels:
            assert abs(counts[label] - len(values) / 3) <= 1

    def test_extra_minima_lowest_density_wins(self):
        rng = np.random.default_rng(17)
        # four well-separated modes -> three valleys; bins=2 keeps the
        # single lowest-density one
        values = np.concatenate([rng.normal(-9, 0.4, 3000),
                                 rng.normal(-3, 0.4, 3000),
                                 rng.normal(3, 0.4, 1500),
                                 rng.normal(9, 0.4, 1500)])
        scheme = fit_kde_bins(values, bins=2)
        assert scheme.method == "kde"
        assert len(scheme.boundaries) == 1
        assert 4 < scheme.boundaries[0] < 8

    def test_too_few(self):
        with pytest.raises(TooFewValuesError):
            fit_kde_bins([1.0] * 9)


class TestAffineInvariance:
    @pytest.mark.parametrize("fitter", [
        fit_sigma_bins,
        lambda v, variable="value": fit_quantile_bins(v, 3, variable),
        lambda v, variable="value": fit_kde_bins(v, 3, variable),
    ])
    def test_fit_apply_commutes_with_affine_map(self, fitter):
        rng = np.random.default_rng(12)
        values = np.concatenate([rng.normal(-2, 0.6, 2000),
                                 rng.normal(2, 0.6, 2000)])
        a, b = 2.5, -7.0
        base = fitter(values)
        mapped = fitter(a * values + b)
        left = apply_bins_array(base, values)
        right = apply_bins_array(mapped, a * values + b)
        assert left == right


class TestSchemeValidation:
    def test_boundaries_must_increase(self):
        with pytest.raises(SchemaError):
            BinningScheme("v", "quantile", (1.0, 1.0), ("A", "B", "C"))

    def test_label_count_must_match(self):
        with pytest.raises(SchemaError):
            BinningScheme("v", "quantile", (1.0,), ("A", "B", "C"))

    @pytest.mark.parametrize("edit", [
        {"boundaries": [-2.0, float("nan")]},
        {"boundaries": [float("-inf"), -1.0]},
        {"boundaries": [-2.0, float("inf")]},
        {"method": 5}, {"method": "median"}, {"method": None},
        {"labels": "LAH"}, {"labels": ["Low", 1, "High"]},
        {"labels": {"Low": 0}},
    ], ids=["nan-boundary", "-inf-boundary", "inf-boundary", "int-method",
            "unknown-method", "null-method", "string-labels",
            "int-label", "object-labels"])
    def test_from_dict_rejects_mistyped_fields(self, edit):
        doc = {"variable": "GoP", "method": "sigma",
               "boundaries": [-2.0, -1.0],
               "labels": ["Low", "Average", "High"], **edit}
        with pytest.raises(SchemaError) as err:
            BinningScheme.from_dict(doc)
        assert "GoP" in str(err.value)

    def test_round_trip(self):
        schemes = [
            fit_sigma_bins([0.0, 1.0, 2.0, 3.0], "gop"),
            fit_quantile_bins(list(range(30)), 3, "rate"),
        ]
        parsed = parse_schemes(write_schemes(schemes))
        assert parsed["gop"] == schemes[0]
        assert parsed["rate"] == schemes[1]
