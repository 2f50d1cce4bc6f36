import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslab.causal import (
    Condition,
    RowFilter,
    compare_adjustments,
    conditional_slope,
    iv_wald,
    mediation,
    moderated_fit,
    sobel_se,
    subgroup_effect,
)
from biaslab.data import Dataset
from biaslab.errors import BiaslabError, DataError, ValidationError, WeakInstrumentError
from biaslab.regress import Formula, fit_ols, main
from biaslab.rng import derive_substream
from biaslab.scm import (
    CorrTarget,
    EquationSpec,
    ErrorTerm,
    ScmSpec,
    SourceSpec,
    evaluate_scm,
    mvn_exact,
)

from _oracles import CovOracle, exact_ols, iv_wald_oracle


def normal(name, mean, sd):
    return SourceSpec(name, "normal", {"mean": mean, "sd": sd})


def entry7_data(n=100_000, seed=0):
    spec = ScmSpec(
        n=n,
        sources=(normal("c", 0, 2.5),),
        equations=(
            EquationSpec("x", linear=(("c", 2.0),), error=ErrorTerm(2.0, 0, 2.5)),
            EquationSpec("y", linear=(("c", 2.0),), error=ErrorTerm(2.0, 0, 2.5)),
        ),
    )
    return evaluate_scm(spec, derive_substream(seed, 0))


def entry8_data(n=100_000, seed=0):
    spec = ScmSpec(
        n=n,
        sources=(normal("x", 0, 2.5), normal("y", 0, 2.5)),
        equations=(
            EquationSpec("col", linear=(("x", 2.0), ("y", 2.0)), error=ErrorTerm(1.0, 0, 2.5)),
        ),
    )
    return evaluate_scm(spec, derive_substream(seed, 0))


class TestCompareAdjustments:
    def test_entry7_oracle_values(self):
        oracle = CovOracle()
        oracle.add_source("c", 2.5)
        oracle.add_equation("x", {"c": 2.0}, 2.0, 2.5)
        oracle.add_equation("y", {"c": 2.0}, 2.0, 2.5)
        biv = oracle.population_slopes("y", ["x"])[0]
        adj = oracle.population_slopes("y", ["x", "c"])[0]
        assert biv == pytest.approx(0.5)
        assert adj == pytest.approx(0.0, abs=1e-12)
        rep = compare_adjustments(entry7_data(), "y", "x", [["c"]], truth=0.0)
        assert rep.focal_estimate("bivariate").estimate == pytest.approx(0.5, abs=0.02)
        assert rep.focal_estimate("adjusted:c").estimate == pytest.approx(0.0, abs=0.02)
        assert rep.focal_estimate("bivariate").bias == pytest.approx(0.5, abs=0.02)

    def test_entry8_collider_oracle(self):
        oracle = CovOracle()
        oracle.add_source("x", 2.5)
        oracle.add_source("y", 2.5)
        oracle.add_equation("col", {"x": 2.0, "y": 2.0}, 1.0, 2.5)
        adj = oracle.population_slopes("y", ["x", "col"])[0]
        assert adj == pytest.approx(-0.8)
        rep = compare_adjustments(entry8_data(), "y", "x", [["col"]], truth=0.0)
        assert rep.focal_estimate("bivariate").estimate == pytest.approx(0.0, abs=0.02)
        assert rep.focal_estimate("adjusted:col").estimate == pytest.approx(-0.8, abs=0.02)

    def test_exactly_uncorrelated_covariate_changes_nothing(self):
        # sample correlation forced to zero -> focal slope moves < 1e-8
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = 0.4  # y-x association only
        t = CorrTarget(names=("y", "x", "z"), corr=corr)
        d = mvn_exact(t, 500, derive_substream(44, 0))
        rep = compare_adjustments(d, "y", "x", [["z"]])
        assert abs(
            rep.focal_estimate("adjusted:z").estimate
            - rep.focal_estimate("bivariate").estimate
        ) < 1e-8

    def test_independent_covariate_changes_little(self):
        s = derive_substream(12, 0)
        x = s.normal(0, 10, 10_000)
        y = x + s.normal(0, 10, 10_000)
        z = s.normal(0, 10, 10_000)
        d = Dataset({"x": x, "y": y, "z": z})
        rep = compare_adjustments(d, "y", "x", [["z"]])
        biv = rep.focal_estimate("bivariate")
        adj = rep.focal_estimate("adjusted:z")
        assert abs(adj.estimate - biv.estimate) < 2 * biv.se

    def test_failing_set_recorded_not_fatal(self):
        s = derive_substream(13, 0)
        x = s.normal(0, 1, 200)
        d = Dataset({"x": x, "y": x + s.normal(0, 1, 200), "dup": 2 * x})
        rep = compare_adjustments(d, "y", "x", [["dup"], []])
        assert any(lab == "adjusted:dup" for lab, _ in rep.errors)
        assert rep.focal_estimate("bivariate") is not None


class TestIv:
    def _iv_data(self, n=100_000, seed=3):
        spec = ScmSpec(
            n=n,
            sources=(normal("C", 0, 10), normal("IN", 0, 10)),
            equations=(
                EquationSpec("X", linear=(("C", 1.0), ("IN", 1.0)), error=ErrorTerm(1.0, 0, 10)),
                EquationSpec("Y", linear=(("C", 1.0), ("X", 1.0)), error=ErrorTerm(1.0, 0, 10)),
            ),
        )
        return evaluate_scm(spec, derive_substream(seed, 0))

    @pytest.mark.parametrize("column", ["IN", "X", "Y"])
    def test_infinite_cell_is_refused_and_named(self, column):
        d = self._iv_data(n=200)
        v = d[column].copy()
        v[7] = -np.inf
        with pytest.raises(DataError, match=f"column '{column}' holds an infinite value"):
            iv_wald(d.with_column(column, v), "Y", "X", "IN", allow_weak=True)

    def test_ratio_arithmetic(self):
        # b_yin = 1, b_xin = 2 -> ratio 0.5 (exactly constructed data)
        inst = np.array([0.0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
        d = Dataset({"inst": inst, "x": 2 * inst, "y": inst})
        est = iv_wald(d, "y", "x", "inst")
        assert est.ratio == pytest.approx(0.5)
        assert est.b_yin == pytest.approx(1.0) and est.b_xin == pytest.approx(2.0)

    def test_population_ratio_one(self):
        est = iv_wald(self._iv_data(), "Y", "X", "IN")
        assert est.ratio == pytest.approx(1.0, abs=0.05)

    def test_instrument_rescaling_invariance(self):
        d = self._iv_data(n=5000)
        est1 = iv_wald(d, "Y", "X", "IN")
        d2 = d.with_column("IN", d["IN"] * -3.7)
        est2 = iv_wald(d2, "Y", "X", "IN")
        assert est2.ratio == pytest.approx(est1.ratio, rel=1e-12)

    def test_weak_instrument_error_and_override(self):
        s = derive_substream(6, 0)
        d = Dataset(
            {
                "IN": s.normal(0, 1, 1000),
                "X": s.normal(0, 1, 1000),
                "Y": s.normal(0, 1, 1000),
            }
        )
        with pytest.raises(WeakInstrumentError):
            iv_wald(d, "Y", "X", "IN")
        est = iv_wald(d, "Y", "X", "IN", allow_weak=True)
        assert est.weak

    def test_minimum_rows(self):
        d = Dataset({"a": np.arange(5.0), "b": np.arange(5.0), "c": np.arange(5.0)})
        with pytest.raises(DataError):
            iv_wald(d, "a", "b", "c")


class TestIvMatchesOracle:
    """``iv_wald`` refuses with the error of the two separate fits it replaced,
    and its slopes and SEs are within ``100 * eps * cond(X) * ||y|| / sigma_min(X)``
    (``test_regress.py``'s ``TestLeastSquaresMatchesExactArithmetic`` bound)
    of the truth: of ``exact_ols`` where n <= 40, else of those fits."""

    @staticmethod
    def outcome(*args, **kwargs):
        try:
            return iv_wald(*args, **kwargs), iv_wald_oracle(*args, **kwargs)
        except BiaslabError:
            pass
        with pytest.raises(BiaslabError) as got:
            iv_wald(*args, **kwargs)
        with pytest.raises(BiaslabError) as want:
            iv_wald_oracle(*args, **kwargs)
        return got.value, want.value

    @settings(max_examples=150, deadline=None)
    @given(n=st.one_of(st.integers(5, 40), st.integers(41, 2000)), seed=st.integers(0, 2**32 - 1),
           strength=st.sampled_from([0.0, 0.01, 1.0, -3.0]),
           missing=st.sampled_from(["none", "same rows", "different rows", "instrument"]),
           allow_weak=st.booleans())
    def test_random_data(self, n, seed, strength, missing, allow_weak):
        g = np.random.default_rng(seed)
        inst = g.normal(size=n) * g.uniform(0.1, 10)
        x = strength * inst + g.normal(size=n)
        y = 0.7 * x + g.normal(size=n)
        if missing == "same rows":
            rows = g.random(n) < 0.2
            y[rows] = x[rows] = np.nan
        elif missing == "different rows":
            y[g.random(n) < 0.2] = np.nan
            x[g.random(n) < 0.2] = np.nan
        elif missing == "instrument":
            inst[g.random(n) < 0.2] = np.nan
        d = Dataset({"IN": inst, "X": x, "Y": y})
        got, want = self.outcome(d, "Y", "X", "IN", allow_weak=allow_weak)
        if isinstance(want, BiaslabError):
            assert (type(got), str(got), getattr(got, "term", None)) == (
                type(want), str(want), getattr(want, "term", None))
            return
        assert got.weak == (abs(got.b_xin) <= 10.0 * got.se_xin)
        assert got.ratio == (got.b_yin / got.b_xin if got.b_xin != 0 else math.inf)
        for v, b, se, want_b, want_se in (("Y", got.b_yin, got.se_yin, want.b_yin, want.se_yin),
                                          ("X", got.b_xin, got.se_xin, want.b_xin, want.se_xin)):
            rows = ~(np.isnan(d[v]) | np.isnan(inst))
            design, response = np.column_stack([np.ones(rows.sum()), inst[rows]]), d[v][rows]
            cond = np.linalg.cond(design)
            if cond >= 1e6:
                continue
            if rows.sum() <= 40:
                exact_b, _, exact_se, _ = exact_ols(design.tolist(), response.tolist())
                want_b, want_se = float(exact_b[1]), exact_se[1]
            bound = (100 * np.finfo(float).eps * cond * np.linalg.norm(response)
                     / np.linalg.svd(design, compute_uv=False)[-1])
            assert abs(b - want_b) <= bound and abs(se - want_se) <= bound

    def test_constant_instrument_raises_the_same_error(self):
        g = np.random.default_rng(4)
        d = Dataset({"IN": np.full(40, 2.0), "X": g.normal(size=40), "Y": g.normal(size=40)})
        got, want = self.outcome(d, "Y", "X", "IN", allow_weak=True)
        assert (type(got), str(got), got.term) == (type(want), str(want), want.term)


class TestMediation:
    def _no_direct(self, n=100_000, seed=4):
        spec = ScmSpec(
            n=n,
            sources=(normal("X", 0, 10),),
            equations=(
                EquationSpec("ME", linear=(("X", 1.0),), error=ErrorTerm(2.0, 0, 10)),
                EquationSpec("Y", linear=(("ME", 1.0), ("X", 0.0)), error=ErrorTerm(2.0, 0, 10)),
            ),
        )
        return evaluate_scm(spec, derive_substream(seed, 0))

    def test_sobel_formula_worked_example(self):
        # worked example: a=1.036 (SE .020), b=0.990 (SE .010)
        a, se_a, b, se_b = 1.036, 0.020, 0.990, 0.010
        indirect = a * b
        z = indirect / sobel_se(a, se_a, b, se_b)
        assert indirect == pytest.approx(1.026, abs=0.001)
        assert z == pytest.approx(46.0, abs=0.5)

    def test_total_identity_and_collapsibility(self):
        d = self._no_direct(n=5000)
        res = mediation(d, "Y", "X", "ME")
        assert res.total == pytest.approx(res.direct + res.indirect, abs=1e-12)
        biv = fit_ols(d, Formula("Y", (main("X"),)))
        assert res.total == pytest.approx(biv.coef("X"), abs=1e-8)

    def test_no_direct_population_paths(self):
        res = mediation(self._no_direct(), "Y", "X", "ME")
        assert res.direct == pytest.approx(0.0, abs=0.02)
        assert res.indirect == pytest.approx(1.0, abs=0.03)
        assert res.total == pytest.approx(1.0, abs=0.03)
        assert res.ci_low < res.indirect < res.ci_high

    def test_unrelated_mediator(self):
        s = derive_substream(5, 0)
        x = s.normal(0, 1, 20_000)
        m = s.normal(0, 1, 20_000)
        y = x + s.normal(0, 1, 20_000)
        d = Dataset({"x": x, "m": m, "y": y})
        res = mediation(d, "y", "x", "m")
        assert res.indirect == pytest.approx(0.0, abs=0.01)
        assert res.total == pytest.approx(res.direct, abs=0.01)


class TestModeration:
    def test_pure_interaction_model(self):
        s = derive_substream(7, 0)
        x = s.normal(0, 1, 2000)
        mo = s.normal(0, 1, 2000)
        d = Dataset({"x": x, "mo": mo, "y": x * mo})
        f = moderated_fit(d, "y", "x", "mo")
        assert f.coef("x:mo") == pytest.approx(1.0, abs=1e-10)
        assert f.coef("x") == pytest.approx(0.0, abs=1e-10)
        assert f.r_squared == pytest.approx(1.0)

    def test_entry15_interaction_value(self):
        spec = ScmSpec(
            n=10_000,
            sources=(normal("X", 0, 10), normal("Mod", 0, 10)),
            equations=(
                EquationSpec("Y", linear=(("X", 1.0),), interactions=(("X", "Mod", 4.0),),
                             error=ErrorTerm(1.0, 0, 30)),
            ),
        )
        d = evaluate_scm(spec, derive_substream(1992, 0))
        f = moderated_fit(d, "Y", "X", "Mod")
        assert f.coef("X:Mod") == pytest.approx(4.0, abs=0.02)

    def test_constant_moderator_singular(self):
        s = derive_substream(8, 0)
        x = s.normal(0, 1, 100)
        d = Dataset({"x": x, "mo": np.ones(100), "y": x})
        with pytest.raises(DataError):
            moderated_fit(d, "y", "x", "mo")

    def test_conditional_slope(self):
        s = derive_substream(9, 0)
        x = s.normal(0, 1, 3000)
        mo = s.normal(0, 1, 3000)
        d = Dataset({"x": x, "mo": mo, "y": x * mo})
        f = moderated_fit(d, "y", "x", "mo")
        assert conditional_slope(f, "x", "mo", 0.0) == pytest.approx(f.coef("x"))
        assert conditional_slope(f, "x", "mo", 3.0) == pytest.approx(3.0, abs=0.01)
        plain = fit_ols(d, Formula("y", (main("x"),)))
        with pytest.raises(ValidationError):
            conditional_slope(plain, "x", "mo", 1.0)

    def test_conditional_slope_arithmetic(self):
        # b_x = 1, b_int = 4: slope at mo=0 is 1, at mo=2 is 9
        assert 1 + 4 * 0 == 1
        assert 1 + 4 * 2 == 9


class TestSubgroup:
    def _entry5_population(self):
        spec = ScmSpec(
            n=500_000,
            sources=(
                SourceSpec("EP", "pattern", {"values": [0, 1], "mode": "times", "k": 250_000}),
                SourceSpec("PEA", "clamped_int_normal", {"mean": 12, "sd": 2.5, "lo": 4, "hi": 19}),
            ),
            equations=(
                EquationSpec("SIEM", linear=(("EP", 7.0), ("PEA", 0.0)),
                             interactions=(("PEA", "EP", -0.50),), error=ErrorTerm(1.0, 5, 0.25)),
            ),
        )
        return evaluate_scm(spec, derive_substream(7, 0))

    def test_always_true_predicate_identical(self):
        s = derive_substream(10, 0)
        x = s.normal(0, 1, 500)
        y = x + s.normal(0, 1, 500)
        d = Dataset({"x": x, "y": y})
        full = fit_ols(d, Formula("y", (main("x"),)))
        sub = subgroup_effect(d, "y", "x", RowFilter((Condition("x", ">=", -1e9),)))
        assert sub.coef("x") == pytest.approx(full.coef("x"))

    def test_entry5_subgroup_ordering_and_signs(self):
        pop = self._entry5_population()
        full = fit_ols(pop, Formula("SIEM", (main("EP"),)))
        assert full.coef("EP") == pytest.approx(1.25, abs=0.05)
        low = subgroup_effect(pop, "SIEM", "EP", RowFilter((Condition("PEA", "<=", 8),)))
        high = subgroup_effect(pop, "SIEM", "EP", RowFilter((Condition("PEA", ">=", 15),)))
        assert low.coef("EP") > full.coef("EP")
        assert high.coef("EP") < 0
        assert low.coef("EP") == pytest.approx(3.37, abs=0.15)
        assert high.coef("EP") == pytest.approx(-0.88, abs=0.15)

    def test_empty_subgroup(self):
        d = Dataset({"x": np.arange(10.0), "y": np.arange(10.0)})
        with pytest.raises(DataError):
            subgroup_effect(d, "y", "x", RowFilter((Condition("x", ">", 100),)))

    # cells 2, NaN, 3 against 2: the rows each op keeps; NaN fails them all, != included
    @pytest.mark.parametrize("op, kept", [("<", []), ("<=", [0]), (">", [2]), (">=", [0, 2]),
                                          ("==", [0]), ("!=", [2])])
    def test_nan_cell_fails_every_op(self, op, kept):
        d = Dataset({"a": np.array([2.0, np.nan, 3.0])})
        assert np.flatnonzero(RowFilter((Condition("a", op, 2.0),)).mask(d)).tolist() == kept

    def test_filter_json_round_trip(self):
        rf = RowFilter((Condition("a", ">=", 1.5), Condition("b", "<", 2.0)))
        items = [{"var": "a", "op": ">=", "value": 1.5}, {"var": "b", "op": "<", "value": 2}]
        assert RowFilter.from_json_list(items) == rf
