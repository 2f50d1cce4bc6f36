import json
import warnings

import numpy as np
import pytest

from biaslab.data import Dataset
from biaslab.errors import DataError, ParameterError, ValidationError
from biaslab.regress import Formula, fit_ols, main
from biaslab.rng import derive_substream
from biaslab.scm import (
    CorrTarget,
    EquationSpec,
    ErrorTerm,
    GroupError,
    ScmSpec,
    SourceSpec,
    block_randomize,
    clamped_integer_normal,
    evaluate_scm,
    inject_outlier,
    mvn_exact,
    repeat_pattern,
)

from _oracles import CovOracle


def normal(name, mean, sd):
    return SourceSpec(name, "normal", {"mean": mean, "sd": sd})


class TestEvaluate:
    def test_exact_deterministic_when_no_error(self):
        spec = ScmSpec(
            n=50,
            sources=(normal("X", 0, 1),),
            equations=(EquationSpec("Y", linear=(("X", 2.0),)),),
        )
        ds = evaluate_scm(spec, derive_substream(1, 0))
        assert np.allclose(ds["Y"], 2 * ds["X"])

    def test_interactions_squares_intercept(self):
        spec = ScmSpec(
            n=40,
            sources=(normal("A", 0, 1), normal("B", 0, 1)),
            equations=(
                EquationSpec(
                    "Y",
                    intercept=3.0,
                    linear=(("A", 1.5),),
                    interactions=(("A", "B", -2.0),),
                    squares=(("B", 0.5),),
                ),
            ),
        )
        ds = evaluate_scm(spec, derive_substream(4, 0))
        a, b, y = (ds[v] for v in "ABY")
        assert np.allclose(y, 3.0 + 1.5 * a - 2.0 * a * b + 0.5 * b**2)

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValidationError):
            ScmSpec(n=10, sources=(), equations=(EquationSpec("Y", linear=(("X", 1.0),)),))

    def test_forward_reference_rejected(self):
        # declaration order is evaluation order; cycles are impossible
        with pytest.raises(ValidationError):
            ScmSpec(
                n=10,
                sources=(),
                equations=(
                    EquationSpec("A", linear=(("B", 1.0),)),
                    EquationSpec("B", linear=(("A", 1.0),)),
                ),
            )

    def test_entry7_population_slope(self):
        # c ~ N(0,2.5); x = 2c + 2e; y = 2c + 2e'  ->  slope(y~x) = 25/50 = 0.5
        spec = ScmSpec(
            n=100_000,
            sources=(normal("c", 0, 2.5),),
            equations=(
                EquationSpec("x", linear=(("c", 2.0),), error=ErrorTerm(2.0, 0, 2.5)),
                EquationSpec("y", linear=(("c", 2.0),), error=ErrorTerm(2.0, 0, 2.5)),
            ),
        )
        ds = evaluate_scm(spec, derive_substream(99, 0))
        f = fit_ols(ds, Formula("y", (main("x"),)))
        assert f.coef("x") == pytest.approx(0.5, abs=0.02)

    def test_covariance_oracle_predicts_every_coefficient(self):
        # arbitrary linear-Gaussian spec checked against symbolic propagation
        spec = ScmSpec(
            n=100_000,
            sources=(normal("u", 0, 3), normal("v", 1, 2)),
            equations=(
                EquationSpec("w", linear=(("u", 1.2), ("v", -0.7)), error=ErrorTerm(1.0, 0, 2)),
                EquationSpec("y", linear=(("u", 0.5), ("w", 2.0)), error=ErrorTerm(1.5, 0, 1)),
            ),
        )
        oracle = CovOracle()
        oracle.add_source("u", 3)
        oracle.add_source("v", 2)
        oracle.add_equation("w", {"u": 1.2, "v": -0.7}, 1.0, 2)
        oracle.add_equation("y", {"u": 0.5, "w": 2.0}, 1.5, 1)
        expected = oracle.population_slopes("y", ["u", "v", "w"])
        ds = evaluate_scm(spec, derive_substream(5, 0))
        f = fit_ols(ds, Formula("y", (main("u"), main("v"), main("w"))))
        for term, exp in zip(("u", "v", "w"), expected):
            assert f.coef(term) == pytest.approx(exp, abs=4 * f.se_of(term))

    def test_entry9_full_spec_recovers_coefficients(self):
        spec = ScmSpec(
            n=10_000,
            sources=(normal("X", 0, 10), normal("MO", 0, 10)),
            equations=(
                EquationSpec("ME", linear=(("X", 1.0),), interactions=(("X", "MO", 1.0),),
                             error=ErrorTerm(2.0, 0, 10)),
                EquationSpec("Y", linear=(("ME", 1.0), ("X", 1.0)),
                             interactions=(("ME", "MO", 1.0), ("X", "MO", 1.0)),
                             error=ErrorTerm(2.0, 0, 10)),
            ),
        )
        ds = evaluate_scm(spec, derive_substream(1992, 0))
        f = fit_ols(ds, Formula.parse("Y ~ X + ME + MO + X:MO + ME:MO"))
        for term, truth in [("X", 1.0), ("ME", 1.0), ("MO", 0.0), ("X:MO", 1.0), ("ME:MO", 1.0)]:
            assert abs(f.coef(term) - truth) < 4 * f.se_of(term)

    def test_group_error_levels(self):
        levels = {k: ErrorTerm(1.0, 10.0, float(k)) for k in range(1, 6)}
        spec = ScmSpec(
            n=1000,
            sources=(SourceSpec("X", "pattern", {"values": [1, 2, 3, 4, 5], "mode": "each", "k": 200}),),
            equations=(EquationSpec("Y", linear=(("X", 2.0),),
                                    group_error=GroupError("X", levels)),),
        )
        ds = evaluate_scm(spec, derive_substream(15, 0))
        x, y = ds["X"], ds["Y"]
        for k in range(1, 6):
            resid = y[x == k] - 2.0 * k
            assert abs(resid.std(ddof=1) - k) < 0.2 * k + 0.1
            assert abs(resid.mean() - 10) < 1.0 + 0.2 * k

    def test_group_error_unknown_level_rejected(self):
        spec = ScmSpec(
            n=4,
            sources=(SourceSpec("g", "pattern", {"values": [1, 3], "mode": "each", "k": 2}),),
            equations=(EquationSpec("Y", group_error=GroupError("g", {1: ErrorTerm()})),),
        )
        with pytest.raises(ValidationError):
            evaluate_scm(spec, derive_substream(0, 0))

    def test_json_round_trip(self):
        spec = ScmSpec(
            n=100,
            sources=(normal("X", 5, 1), SourceSpec("G", "uniform_int", {"lo": 1, "hi": 5})),
            equations=(
                EquationSpec("Y", intercept=1.0, linear=(("X", 0.25),),
                             squares=(("X", -0.025),), error=ErrorTerm(0.025, 5, 1)),
            ),
        )
        doc = {
            "n": 100,
            "sources": [{"name": "X", "kind": "normal", "params": {"mean": 5, "sd": 1}},
                        {"name": "G", "kind": "uniform_int", "params": {"lo": 1, "hi": 5}}],
            "equations": [{"target": "Y", "intercept": 1.0, "linear": [["X", 0.25]],
                           "squares": [["X", -0.025]], "error": {"coef": 0.025, "mean": 5, "sd": 1}}],
        }
        assert ScmSpec.from_json_dict(json.loads(json.dumps(doc))) == spec

    @pytest.mark.parametrize("n", [100.5, 100.0, True, None])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValidationError, match=r"^scm\.n: must be an integer"):
            ScmSpec.from_json_dict({"n": n, "sources": [{"name": "X", "kind": "normal",
                                                         "params": {"mean": 0, "sd": 1}}]})

    def test_overflowing_arithmetic_is_silent(self):
        # x * 1e10 and x^2 overflow for sd 1e300, and inf - inf is NaN: outcomes, not faults
        spec = ScmSpec(
            n=50,
            sources=(normal("x", 0, 1e300),),
            equations=(EquationSpec("y", linear=(("x", 1e10),), error=ErrorTerm(1e300, 0, 1e10)),
                       EquationSpec("q", interactions=(("x", "x", 1.0),), squares=(("x", 1.0),)),
                       EquationSpec("z", linear=(("q", 1.0), ("q", -1.0)))),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = evaluate_scm(spec, derive_substream(3, 0))
        assert np.isinf(d["y"]).any() and np.isinf(d["q"]).all() and np.isnan(d["z"]).all()


# a spec built from Python with a value no draw can take, and the start of its
# error, which names the field relative to the object built
_LIBRARY_REFUSALS = {
    "source-mean": (lambda: SourceSpec("X", "normal", {"mean": True, "sd": 1}),
                    "params.mean: must be a number or a placeholder name, got True"),
    "source-kind": (lambda: SourceSpec("X", "gamma", {}), "kind: must be one of"),
    "source-missing-param": (lambda: SourceSpec("X", "normal", {"mean": 0}), "params.sd: required"),
    "error-mean": (lambda: ErrorTerm(mean={}), "mean: must be a number or a placeholder name, got {}"),
    "error-sd": (lambda: ErrorTerm(sd=-1), "sd: must be >= 0, got -1"),
    "intercept": (lambda: EquationSpec("Y", intercept=None), "intercept: must be a number or"),
    "coefficient": (lambda: EquationSpec("Y", linear=(("X", [1]),)), "linear[0][1]: must be a number or"),
    "column-name": (lambda: EquationSpec("Y", squares=((0.5, 1),)), "squares[0][0]: must be a string"),
    "term-width": (lambda: EquationSpec("Y", interactions=(("a", 1),)), "interactions[0]: must list 2"),
    "group-by": (lambda: GroupError(None, {1: ErrorTerm()}), "by: must be a string, got None"),
    "group-level": (lambda: GroupError("g", {"one": ErrorTerm()}), "levels.one: level 'one' must be"),
    "group-level-twice": (lambda: GroupError("g", {"1": ErrorTerm(), "01": ErrorTerm()}),
                          "levels.01: level 1 is named twice"),
    "rows-0": (lambda: ScmSpec(n=0, sources=()), "n: must be >= 1, got 0"),
    "duplicate-column": (lambda: ScmSpec(n=5, sources=(SourceSpec("X", "normal", {"mean": 0, "sd": 1}),),
                                         equations=(EquationSpec("X"),)), "equations[0].target: duplicate"),
    "undefined-reference": (lambda: ScmSpec(n=5, sources=(), equations=(EquationSpec("Y", linear=(("Z", 1),)),)),
                            "equations[0].linear[0][0]: 'Z' is not defined"),
    "corr-entry": (lambda: CorrTarget(("a", "b"), [[1, 2], [2, 1]]), "corr[0][1]: must be in [-1, 1], got 2.0"),
    "corr-diagonal": (lambda: CorrTarget(("a", "b"), [[1, 0], [0, 0.5]]), "corr[1][1]: must be 1 on the diagonal"),
}


@pytest.mark.parametrize("case", sorted(_LIBRARY_REFUSALS))
def test_spec_built_from_python_is_refused_naming_its_field(case):
    build, message = _LIBRARY_REFUSALS[case]
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value).startswith(message), str(caught.value)


class TestMvnExact:
    def test_identity_corr_off_diagonals_vanish(self):
        t = CorrTarget(names=("a", "b", "c"), corr=np.eye(3))
        ds = mvn_exact(t, 200, derive_substream(3, 0))
        m = np.corrcoef(np.column_stack([ds[n] for n in ("a", "b", "c")]).T)
        assert np.abs(m - np.eye(3)).max() < 1e-10

    def test_sample_moments_match_request(self):
        corr = np.array([[1, 0.3], [0.3, 1]])
        t = CorrTarget(names=("a", "b"), corr=corr, means=np.array([5.0, -2.0]),
                       sds=np.array([2.0, 7.0]))
        ds = mvn_exact(t, 500, derive_substream(9, 0))
        a, b = ds["a"], ds["b"]
        assert abs(a.mean() - 5) < 1e-10 and abs(b.mean() + 2) < 1e-10
        assert abs(a.std(ddof=1) - 2) < 1e-10 and abs(b.std(ddof=1) - 7) < 1e-10
        assert abs(np.corrcoef(a, b)[0, 1] - 0.3) < 1e-10

    def test_non_psd_rejected(self):
        bad = np.array([[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]])
        with pytest.raises(DataError):
            mvn_exact(CorrTarget(names=("a", "b", "c"), corr=bad), 100, derive_substream(1, 0))

    def test_rank_error_when_n_too_small(self):
        with pytest.raises(DataError):
            mvn_exact(CorrTarget(names=("a", "b", "c"), corr=np.eye(3)), 3, derive_substream(1, 0))

    def test_non_exact_mode_is_statistical(self):
        t = CorrTarget(names=("a", "b"), corr=np.array([[1, 0.5], [0.5, 1]]),
                       empirical_exact=False)
        ds = mvn_exact(t, 50_000, derive_substream(10, 0))
        r = np.corrcoef(ds["a"], ds["b"])[0, 1]
        assert r == pytest.approx(0.5, abs=0.02)
        assert abs(r - 0.5) > 1e-10  # genuinely sampled, not forced


class TestGenerators:
    def test_truncation_toward_zero(self):
        assert float(np.trunc(2.9)) == 2.0 and float(np.trunc(-0.7)) == -0.0

    def test_clamped_integer_normal_shape(self):
        c = clamped_integer_normal(500_000, 12, 2.5, 4, 19, derive_substream(1121, 0))
        v = c
        assert v.min() == 4 and v.max() == 19
        assert np.all(v == np.round(v))
        vals, counts = np.unique(v, return_counts=True)
        mode = vals[counts.argmax()]
        assert mode in (11, 12)

    def test_clamped_zero_sd(self):
        c = clamped_integer_normal(10, 7, 0, 0, 100, derive_substream(2, 0))
        assert np.all(c == 7)

    def test_clamp_range_validated(self):
        with pytest.raises(ParameterError):
            clamped_integer_normal(10, 0, 1, 5, 4, derive_substream(2, 0))

    def test_repeat_pattern(self):
        assert repeat_pattern([1, 2], "each", 2, 4).tolist() == [1, 1, 2, 2]
        assert repeat_pattern([0, 1], "times", 3, 6).tolist() == [0, 1, 0, 1, 0, 1]
        levels = repeat_pattern(list(range(1, 6)), "each", 200, 1000)
        assert all((levels == k).sum() == 200 for k in range(1, 6))
        with pytest.raises(ParameterError):
            repeat_pattern([1, 2], "each", 2, 5)


class TestInjectOutlier:
    def _base(self):
        spec = ScmSpec(
            n=100,
            sources=(normal("X", 10, 1),),
            equations=(EquationSpec("Y", linear=(("X", 0.6),), error=ErrorTerm(0.5, 10, 1)),),
        )
        return evaluate_scm(spec, derive_substream(32, 0))

    def test_appends_one_row_with_missing_elsewhere(self):
        ds = self._base().with_column("Z", np.zeros(100))
        out = inject_outlier(ds, {"X": 16.0, "Y": 14.0})
        assert out.n_rows == 101
        assert np.isnan(out["Z"][-1]) and not np.isnan(out["X"][-1])

    def test_unknown_column_rejected(self):
        with pytest.raises(ValidationError):
            inject_outlier(self._base(), {"Q": 1.0})

    def test_point_at_centroid_changes_nothing(self):
        ds = self._base()
        f0 = fit_ols(ds, Formula("Y", (main("X"),)))
        xbar = float(ds["X"].mean())
        ybar = float(ds["Y"].mean())
        f1 = fit_ols(inject_outlier(ds, {"X": xbar, "Y": ybar}), Formula("Y", (main("X"),)))
        assert abs(f1.coef("X") - f0.coef("X")) < 1e-12

    def test_x_outlier_at_ybar_shrinks_slope(self):
        # leverage algebra: adding (x0, ybar) leaves Sxy fixed, grows Sxx
        ds = self._base()
        f0 = fit_ols(ds, Formula("Y", (main("X"),)))
        ybar = float(ds["Y"].mean())
        f1 = fit_ols(inject_outlier(ds, {"X": 16.0, "Y": ybar}), Formula("Y", (main("X"),)))
        assert abs(f1.coef("X")) < abs(f0.coef("X"))
        # brute-force refit agreement with the algebraic prediction
        x = ds["X"]
        n = len(x)
        xbar = x.mean()
        sxx = ((x - xbar) ** 2).sum()
        sxy = f0.coef("X") * sxx
        predicted = sxy / (sxx + n / (n + 1) * (16.0 - xbar) ** 2)
        assert f1.coef("X") == pytest.approx(predicted, rel=1e-10)

    def test_far_xy_outlier_inflates_slope(self):
        # a point far out on both axes pulls the slope up
        ds = self._base()
        f0 = fit_ols(ds, Formula("Y", (main("X"),)))
        f1 = fit_ols(inject_outlier(ds, {"X": 50.0, "Y": 100.0}), Formula("Y", (main("X"),)))
        assert f1.coef("X") > f0.coef("X")


class TestBlockRandomize:
    def test_even_strata_split_exactly(self):
        strata = np.repeat([1.0, 2.0], 6)
        ds = Dataset({"s": strata, "v": np.arange(12.0)})
        assigned = block_randomize(ds, "s", derive_substream(6, 0))
        for level in (1.0, 2.0):
            assert assigned[strata == level].sum() == 3

    def test_single_even_stratum(self):
        ds = Dataset({"s": np.ones(4), "v": np.arange(4.0)})
        assigned = block_randomize(ds, "s", derive_substream(6, 0))
        assert assigned.sum() == 2

    def test_odd_stratum_floor_or_ceil(self):
        ds = Dataset({"s": np.ones(5)})
        totals = {block_randomize(ds, "s", derive_substream(seed, 0)).sum() for seed in range(30)}
        assert totals == {2.0, 3.0}

    def test_tiny_stratum_rejected(self):
        ds = Dataset({"s": np.array([1.0, 2.0, 2.0])})
        with pytest.raises(DataError):
            block_randomize(ds, "s", derive_substream(1, 0))
