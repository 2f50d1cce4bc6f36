import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslab.data import Dataset, quantile_type7, quantiles_type7, spearman
from biaslab.errors import DataError, ParameterError, ValidationError
from biaslab.measure import (
    AttenuationVariant,
    RecodeRule,
    TransformRule,
    apply_rules,
    attenuation_report,
    dichotomize,
    ordinalize,
    transform,
)
from biaslab.rng import derive_substream
from biaslab.scm import EquationSpec, ErrorTerm, ScmSpec, SourceSpec, evaluate_scm


def col(vals):
    return np.asarray(vals, dtype=float)


def present(v):
    return v[~np.isnan(v)]


def n_missing(v):
    return int(np.isnan(v).sum())


def entry13_data(seed=1992, n=10_000):
    spec = ScmSpec(
        n=n,
        sources=(SourceSpec("X", "normal", {"mean": 0, "sd": 10}),),
        equations=(EquationSpec("Y", linear=(("X", 1.0),), error=ErrorTerm(1.0, 0, 30)),),
    )
    return evaluate_scm(spec, derive_substream(seed, 0))


class TestDichotomize:
    def test_median_split_exact_counts(self):
        y = entry13_data()["Y"]
        d = dichotomize(y, RecodeRule("dichotomize_median"))
        vals, counts = np.unique(present(d), return_counts=True)
        assert vals.tolist() == [0, 1] and counts.tolist() == [5000, 5000]

    def test_quantile_split_counts(self):
        y = entry13_data()["Y"]
        d = dichotomize(y, RecodeRule("dichotomize_quantile", p=0.25))
        _, counts = np.unique(present(d), return_counts=True)
        assert counts.tolist() == [2500, 7500]

    def test_threshold_90_band(self):
        y = entry13_data()["Y"]
        d = dichotomize(y, RecodeRule("dichotomize_threshold", threshold=90))
        ones = int(present(d).sum())
        assert 5 <= ones <= 60

    def test_missing_passes_through(self):
        c = col([1.0, np.nan, 3.0])
        d = dichotomize(c, RecodeRule("dichotomize_threshold", threshold=2))
        assert np.isnan(d).tolist() == [False, True, False]

    def test_constant_column_warns(self):
        with pytest.warns(UserWarning):
            dichotomize(col([5, 5, 5, 5]), RecodeRule("dichotomize_median"))

    def test_wrong_rule_kind(self):
        with pytest.raises(ParameterError):
            dichotomize(col([1, 2]), RecodeRule("ordinalize_quantiles", probs=(0.5,)))

    @pytest.mark.parametrize("threshold, single", [
        (0.5, True), (3.0, True), (np.nan, True), (1.0, False), (2.5, False)])
    def test_single_class_warning_reads_min_and_max(self, threshold, single):
        # every value above the cut, none above it, or a NaN cut that puts all at 0
        c = col([1.0, np.nan, 3.0, 2.0])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            d = dichotomize(c, RecodeRule("dichotomize_threshold", threshold=threshold))
        assert (np.unique(present(d)).size < 2) == single
        assert [str(w.message) for w in seen] == (
            ["dichotomizing 'values' produced a single class"] if single else [])


class TestOrdinalize:
    def test_quartile_counts_exact(self):
        y = entry13_data()["Y"]
        o = ordinalize(y, RecodeRule("ordinalize_quantiles", probs=(0.25, 0.5, 0.75)))
        _, counts = np.unique(present(o), return_counts=True)
        assert counts.tolist() == [2500, 2500, 2500, 2500]

    def test_skewed_probs_counts(self):
        y = entry13_data()["Y"]
        o = ordinalize(y, RecodeRule("ordinalize_quantiles", probs=(0.5, 0.6, 0.9)))
        _, counts = np.unique(present(o), return_counts=True)
        assert counts.tolist() == [5000, 1000, 3000, 1000]
        o = ordinalize(y, RecodeRule("ordinalize_quantiles", probs=(0.1, 0.2, 0.3)))
        _, counts = np.unique(present(o), return_counts=True)
        assert counts.tolist() == [1000, 1000, 1000, 7000]

    def test_explicit_cutpoints(self):
        o = ordinalize(col([1, 2, 3, 4, 5]), RecodeRule("ordinalize_cutpoints", cutpoints=(2.5, 4.5)))
        assert o.tolist() == [1, 1, 2, 2, 3]

    def test_decreasing_cutpoints_rejected(self):
        with pytest.raises(ValidationError, match=r"^cutpoints: must be strictly increasing"):
            RecodeRule("ordinalize_cutpoints", cutpoints=(3.0, 1.0))

    def test_nonincreasing_probs_rejected(self):
        with pytest.raises(ValidationError):
            RecodeRule("ordinalize_quantiles", probs=(0.5, 0.5))


class TestTransform:
    def test_minmax_basic(self):
        t = transform(col([2, 4, 6]), TransformRule("minmax"))
        assert t.tolist() == [0, 0.5, 1]

    def test_minmax_pads(self):
        t = transform(col([0, 50, 100]), TransformRule("minmax", pad_lo=25, pad_hi=25))
        assert t.tolist() == [
            pytest.approx(25 / 150),
            pytest.approx(75 / 150),
            pytest.approx(125 / 150),
        ]

    def test_scale_zero_rejected(self):
        with pytest.raises(ValidationError, match=r"^c: must be a nonzero number, got 0"):
            TransformRule("scale", c=0)

    def test_zscore(self):
        t = transform(col([1, 2, 3]), TransformRule("zscore"))
        assert t.tolist() == [-1, 0, 1]
        with pytest.raises(DataError):
            transform(col([5, 5, 5]), TransformRule("zscore"))

    def test_log_domain_violations_become_missing(self):
        t = transform(col([-1, 0, 1, np.e]), TransformRule("log_e"))
        assert np.isnan(t).tolist() == [True, True, False, False]
        assert t[3] == pytest.approx(1.0)
        t10 = transform(col([100, -5]), TransformRule("log_10"))
        assert t10[0] == pytest.approx(2.0) and np.isnan(t10[1])

    def test_fractional_power_negative_missing(self):
        y = entry13_data()["Y"]
        t = transform(y, TransformRule("power", exponent=0.2))
        negatives = int((y < 0).sum())
        assert n_missing(t) == negatives
        assert 4700 <= negatives <= 5300  # symmetric distribution, about half

    def test_even_power_keeps_everything(self):
        t = transform(col([-3, -1, 2]), TransformRule("power", exponent=2))
        assert t.tolist() == [9, 1, 4]
        assert n_missing(t) == 0

    def test_round_half_away_from_zero(self):
        t = transform(col([0.5, 1.5, -0.5, -1.5, 2.4]), TransformRule("round_whole"))
        assert t.tolist() == [1, 2, -1, -2, 2]

    def test_window_missingness(self):
        x = entry13_data()["X"]
        t = transform(x, TransformRule("window", lo=-5, hi=5))
        # X ~ N(0,10): P(|X| >= 5) ~ 0.617
        assert abs(n_missing(t) - 6170) < 200

    def test_window_entry13_response_side(self):
        y = entry13_data()["Y"]
        t = transform(y, TransformRule("window", lo=-5, hi=5))
        # Y sd ~ 31.6: about 87.4% outside (-5, 5)
        assert abs(n_missing(t) - 8740) < 250


class TestInvariances:
    @given(st.sampled_from(["exp", "cube", "affine"]))
    @settings(max_examples=10, deadline=None)
    def test_monotone_maps_leave_recodes_unchanged(self, kind):
        y = entry13_data(seed=5, n=500)["Y"]
        if kind == "exp":
            mapped = np.exp(y / 50)
        elif kind == "cube":
            mapped = y**3
        else:
            mapped = 2.5 * y + 7
        for rule in (
            RecodeRule("dichotomize_median"),
            RecodeRule("dichotomize_quantile", p=0.25),
            RecodeRule("ordinalize_quantiles", probs=(0.25, 0.5, 0.75)),
        ):
            if rule.is_dichotomize:
                a, b = dichotomize(y, rule), dichotomize(mapped, rule)
            else:
                a, b = ordinalize(y, rule), ordinalize(mapped, rule)
            assert np.array_equal(a, b)

    def test_monotone_map_leaves_spearman_exact(self):
        d = entry13_data(seed=6, n=1000)
        x, y = d["X"], d["Y"]
        rho = spearman(x, y)
        assert spearman(x, np.exp(y / 50)) == pytest.approx(rho, abs=1e-14)

    def test_recode_determinism_order_independence(self):
        y = entry13_data(seed=8, n=400)["Y"]
        rule = RecodeRule("ordinalize_quantiles", probs=(0.3, 0.7))
        a = ordinalize(y, rule)
        perm = derive_substream(1, 0).permutation(400)
        b = ordinalize(y[perm], rule)
        assert np.array_equal(a[perm], b)


class TestAttenuation:
    def test_affine_invariance_of_statistics(self):
        d = entry13_data()
        rep = attenuation_report(
            d, "Y", "X",
            [
                AttenuationVariant("scale20", "y", TransformRule("scale", c=20)),
                AttenuationVariant("zscore", "y", TransformRule("zscore")),
                AttenuationVariant("shift", "y", TransformRule("shift", c=11)),
            ],
        )
        base = rep.row("baseline")
        for label in ("scale20", "zscore", "shift"):
            row = rep.row(label)
            assert row.stat == pytest.approx(base.stat, abs=1e-10)
            assert row.chisq == pytest.approx(base.chisq, abs=1e-6)
            assert row.spearman == pytest.approx(base.spearman, abs=1e-12)
        assert rep.row("scale20").slope == pytest.approx(20 * base.slope, abs=1e-8)
        assert rep.row("scale20").se == pytest.approx(20 * base.se, abs=1e-8)

    def test_attenuation_ordering_response_side(self):
        d = entry13_data()
        rep = attenuation_report(
            d, "Y", "X",
            [
                AttenuationVariant("quartiles", "y",
                                   RecodeRule("ordinalize_quantiles", probs=(0.25, 0.5, 0.75))),
                AttenuationVariant("median", "y", RecodeRule("dichotomize_median")),
                AttenuationVariant("extreme", "y",
                                   RecodeRule("dichotomize_threshold", threshold=90)),
            ],
        )
        chisqs = [rep.row(k).chisq for k in ("baseline", "quartiles", "median", "extreme")]
        assert chisqs == sorted(chisqs, reverse=True)
        fams = [rep.row(k).family for k in ("baseline", "quartiles", "median", "extreme")]
        assert fams == ["gaussian", "ordered", "binomial", "binomial"]

    def test_recoded_fit_statistical_bands(self):
        # median-split logistic: b ~ 0.057 +- 0.006, z ~ 25.7 +- 3;
        # quartile ordered: b ~ 0.058 +- 0.006, t ~ 30 +- 4
        d = entry13_data()
        rep = attenuation_report(
            d, "Y", "X",
            [
                AttenuationVariant("median", "y", RecodeRule("dichotomize_median")),
                AttenuationVariant("quartiles", "y",
                                   RecodeRule("ordinalize_quantiles", probs=(0.25, 0.5, 0.75))),
            ],
        )
        med = rep.row("median")
        assert med.family == "binomial"
        assert med.slope == pytest.approx(0.057, abs=0.006)
        assert med.stat == pytest.approx(25.7, abs=3)
        ordd = rep.row("quartiles")
        assert ordd.family == "ordered"
        assert ordd.slope == pytest.approx(0.058, abs=0.006)
        assert ordd.stat == pytest.approx(30, abs=4)

    def test_family_autoselection_and_override(self):
        d = entry13_data(seed=9, n=2000)
        rep = attenuation_report(
            d, "Y", "X",
            [AttenuationVariant("median_as_gaussian", "y",
                                RecodeRule("dichotomize_median"), family="gaussian")],
        )
        assert rep.row("median_as_gaussian").family == "gaussian"

    def test_pipeline_variant_log_of_normalized(self):
        d = entry13_data()
        rep = attenuation_report(
            d, "Y", "X",
            [AttenuationVariant("lognorm", "y",
                                (TransformRule("minmax", pad_lo=25, pad_hi=25),
                                 TransformRule("log_e")))],
        )
        row = rep.row("lognorm")
        base = rep.row("baseline")
        assert row.n_used == 10_000  # pads keep everything positive
        assert row.error is None
        assert 0 < row.stat < base.stat  # slightly attenuated, same sign

    def test_power_02_raw_drops_half(self):
        d = entry13_data()
        rep = attenuation_report(
            d, "Y", "X",
            [AttenuationVariant("pow02", "y", TransformRule("power", exponent=0.2))],
        )
        assert abs(rep.row("pow02").n_used - 5000) < 300

    def test_errors_recorded_per_row(self):
        d = entry13_data(seed=10, n=100)
        constant = Dataset({"X": d["X"], "Y": np.ones(100)})
        rep = attenuation_report(
            constant, "Y", "X",
            [AttenuationVariant("z", "y", TransformRule("zscore"))],
        )
        assert rep.row("z").error is not None
        assert rep.row("baseline").error is not None  # zero-variance response

    _RANKED_VARIANTS = (
        ("median", RecodeRule("dichotomize_median")),
        ("quartiles", RecodeRule("ordinalize_quantiles", probs=(0.25, 0.5, 0.75))),
        ("scale", TransformRule("scale", c=-3.0)),
        ("round", TransformRule("round_whole")),  # ties
        ("window", TransformRule("window", lo=-5, hi=5)),  # missing cells
        ("log", TransformRule("log_e")),  # missing cells
        ("unchanged", ()),  # no rule: the base column itself
    )

    @pytest.mark.parametrize("holes", ["none", "x", "y"])
    def test_spearman_matches_a_per_row_loop_bit_for_bit(self, holes):
        # the table ranks each base column once and reuses those ranks where
        # a row's pair has no missing cell; every row must read as spearman's
        d = entry13_data(seed=11, n=400)
        cols = {"X": d["X"].copy(), "Y": d["Y"].copy()}
        if holes != "none":
            cols[holes.upper()][::37] = np.nan
        variants = [AttenuationVariant(f"{target}:{label}", target, rule)
                    for target in ("x", "y") for label, rule in self._RANKED_VARIANTS]
        rep = attenuation_report(Dataset(cols), "Y", "X", variants)
        assert len(rep.rows) == 1 + len(variants)
        for row, v in zip(rep.rows, [None, *variants]):
            xv, yv = cols["X"], cols["Y"]
            if v is not None and v.target == "x":
                xv = apply_rules(xv, v.rules())
            elif v is not None:
                yv = apply_rules(yv, v.rules())
            assert row.error is None, (row.label, row.error)
            assert row.spearman.hex() == spearman(xv, yv).hex(), row.label


class TestQuantileCuts:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3),
                                     st.just(float("nan"))), min_size=1, max_size=60),
           probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    def test_one_sort_gives_each_cut_bit_for_bit(self, values, probs):
        # ties come from the small integers, missing cells from NaN
        x = col(values)
        if np.isnan(x).all():
            with pytest.raises(DataError):
                quantiles_type7(x, probs)
            return
        cuts = quantiles_type7(x, probs)
        assert [c.hex() for c in cuts] == [quantile_type7(x, q).hex() for q in probs]
        probs = sorted(set(probs) - {0.0, 1.0})
        if probs:
            want = 1.0 + sum((x >= quantile_type7(x, q)).astype(float) for q in probs)
            want[np.isnan(x)] = np.nan
            got = ordinalize(x, RecodeRule("ordinalize_quantiles", probs=tuple(probs)))
            assert got.tobytes() == want.tobytes()

