import math
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrcausal.discretize import (
    BinningScheme,
    apply_bins_array,
    fit_kde_bins,
    fit_quantile_bins,
    fit_sigma_bins,
    parse_schemes,
    write_schemes,
)
from asrcausal.errors import SchemaError, TooFewValuesError


def labels_of(scheme, values):
    """Each value's label under ``scheme``."""
    return [scheme.labels[i] for i in apply_bins_array(scheme, values)]


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
        assert labels_of(scheme, [-100.0]) == ["Average"]

    def test_too_few(self):
        with pytest.raises(TooFewValuesError):
            fit_sigma_bins([1.0])

    def test_gaussian_calibration(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal(50_000)
        scheme = fit_sigma_bins(values)
        labels = labels_of(scheme, values)
        mass = labels.count("Average") / len(labels)
        assert mass == pytest.approx(0.6827, abs=0.01)


class TestApplyBins:
    def test_sigma_boundary_is_inclusive(self):
        scheme = BinningScheme("v", "sigma", (-1.0, 1.0),
                               ("Low", "Average", "High"))
        assert labels_of(scheme, [1.0, -1.0]) == ["Average", "Average"]

    def test_sigma_outside(self):
        scheme = BinningScheme("v", "sigma", (-1.0, 1.0),
                               ("Low", "Average", "High"))
        assert labels_of(scheme, [1.5, -1.5]) == ["High", "Low"]

    def test_generic_boundary_joins_upper_bin(self):
        scheme = BinningScheme("v", "quantile", (2.0,), ("L1", "L2"))
        assert labels_of(scheme, [2.0, 1.999]) == ["L2", "L1"]

    def test_total_function(self):
        scheme = BinningScheme("v", "quantile", (0.0, 1.0), ("A", "B", "C"))
        codes = apply_bins_array(scheme, [-1e9, 0.0, 0.5, 1.0, 1e9])
        assert codes.tolist() == [0, 1, 1, 2, 2]


class TestQuantileBins:
    def test_equal_mass_on_distinct_values(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(10_000)
        scheme = fit_quantile_bins(values, 3)
        counts = Counter(labels_of(scheme, values))
        for label in scheme.labels:
            assert abs(counts[label] - len(values) / 3) <= 1

    def test_too_few(self):
        with pytest.raises(TooFewValuesError,
                           match="^value: need >= 3 values, got 2$"):
            fit_quantile_bins([1.0, 2.0], 3)

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
        counts = Counter(labels_of(scheme, values))
        for label in scheme.labels:
            assert abs(counts[label] - len(values) / 3) <= 1

    def test_constant_column_falls_back_to_quantiles(self):
        assert fit_kde_bins([4.0] * 20).method == "quantile"

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
        assert left.tolist() == right.tolist()


class TestSchemeValidation:
    def test_boundaries_must_increase(self):
        with pytest.raises(SchemaError):
            BinningScheme("v", "quantile", (1.0, 1.0), ("A", "B", "C"))

    def test_label_count_must_match(self):
        with pytest.raises(SchemaError):
            BinningScheme("v", "quantile", (1.0,), ("A", "B", "C"))

    @pytest.mark.parametrize("boundaries", [(-1.0,), (-2.0, -1.0, 0.0)])
    def test_sigma_needs_zero_or_two_boundaries(self, boundaries):
        labels = ("L1", "L2", "L3", "L4")[:len(boundaries) + 1]
        with pytest.raises(SchemaError, match="GoP"):
            BinningScheme("GoP", "sigma", boundaries, labels)

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

    @pytest.mark.parametrize("text", ["[1]", "5", '"GoP"', "null"],
                             ids=["list", "int", "string", "null"])
    def test_parse_schemes_refuses_a_non_object(self, text):
        with pytest.raises(SchemaError) as err:
            parse_schemes(text)
        assert str(err.value) == "a schemes document must be a JSON object"

    def test_round_trip(self):
        schemes = [
            fit_sigma_bins([0.0, 1.0, 2.0, 3.0], "gop"),
            fit_quantile_bins(list(range(30)), 3, "rate"),
        ]
        parsed = parse_schemes(write_schemes(schemes))
        assert parsed["gop"] == schemes[0]
        assert parsed["rate"] == schemes[1]


def per_value_bin(scheme, value):
    """The per-value rule ``apply_bins_array`` vectorizes: the first label
    without boundaries; for sigma, Low below the lower boundary, High
    above the upper one and Average between them, both ends included;
    otherwise the boundaries at or below the value."""
    if not scheme.boundaries:
        return 0
    if scheme.method == "sigma":
        lo, hi = scheme.boundaries
        if value < lo:
            return 0
        if value > hi:
            return 2
        return 1
    return bisect_right(scheme.boundaries, value)


def _schemes():
    rng = np.random.default_rng(31)
    normal = rng.normal(0.0, 2.0, 500)
    modes = np.concatenate([rng.normal(-6, 0.5, 400), rng.normal(0, 0.5, 400),
                            rng.normal(6, 0.5, 400)])
    return {
        "sigma": fit_sigma_bins(normal),
        "quantile": fit_quantile_bins(normal, 3),
        "kde": fit_kde_bins(modes, 3),
        "shrunk-quantile": fit_quantile_bins([0.0] * 25 + [1.0] * 5, 3),
        "zero-spread-sigma": fit_sigma_bins([2.0, 2.0, 2.0]),
    }


SCHEMES = _schemes()


class TestBinningRule:
    def test_schemes_are_the_named_kinds(self):
        methods = {name: (s.method, len(s.boundaries))
                   for name, s in SCHEMES.items()}
        assert methods == {"sigma": ("sigma", 2),
                           "quantile": ("quantile", 2),
                           "kde": ("kde", 2),
                           "shrunk-quantile": ("quantile", 1),
                           "zero-spread-sigma": ("sigma", 0)}

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_array_rule_equals_per_value_rule(self, name, data):
        scheme = SCHEMES[name]
        edges = [x for b in scheme.boundaries
                 for x in (math.nextafter(b, -math.inf), b,
                           math.nextafter(b, math.inf))]
        special = st.sampled_from(edges + [-math.inf, math.inf, math.nan])
        values = data.draw(st.lists(st.one_of(special, st.floats()),
                                    max_size=40))
        codes = apply_bins_array(scheme, values)
        assert codes.shape == (len(values),)
        assert codes.tolist() == [per_value_bin(scheme, v) for v in values]
