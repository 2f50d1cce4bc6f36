import math
import pickle
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError, _umath_linalg
from scipy.special import expit, ndtr, stdtr

from biaslab import regress
from biaslab.causal import iv_wald
from biaslab.data import Dataset, pearson
from biaslab.errors import (
    BiaslabError,
    DataError,
    ParameterError,
    SeparationWarning,
    SingularDesignError,
    ValidationError,
)
from biaslab.regress import (
    Formula,
    collinearity_diagnostics,
    fit,
    fit_logistic,
    fit_ols,
    fit_ordered_logit,
    fit_terms,
    main,
    predict,
    residuals,
    wald_chisq,
)
from biaslab.rng import derive_substream
from biaslab.scm import CorrTarget, mvn_exact

from _oracles import (
    OrderedNllOracle,
    _build_design_oracle,
    brute_force_logistic,
    brute_force_ordered,
    exact_ols,
    fit_ols_kernel_oracle,
    fit_ols_oracle,
    least_squares_kernel_oracle,
    normal_equations_ols,
)


def dataset(**arrays):
    return Dataset(arrays)


class TestFormula:
    def test_parse_full_grammar(self):
        f = Formula.parse("Y ~ X + Z + X:Z + X^2")
        assert f.response == "Y"
        assert [t.label for t in f.terms] == ["X", "Z", "X:Z", "X^2"]
        assert f.intercept

    def test_intercept_only(self):
        f = Formula.parse("Y ~ 1")
        assert f.terms == ()

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            Formula.parse("Y ~ X + X")

    def test_bad_grammar(self):
        with pytest.raises(ValidationError):
            Formula.parse("Y + X")
        with pytest.raises(ValidationError):
            Formula.parse("Y ~ X*Z")

    def test_text_round_trip(self):
        for text in ("Y ~ X", "Y ~ X + Z + X:Z", "Y ~ X + X^2"):
            assert Formula.parse(Formula.parse(text).text()) == Formula.parse(text)


class TestOls:
    def test_exact_line(self):
        d = dataset(x=[0, 1, 2], y=[1, 3, 5])
        f = fit_ols(d, Formula.parse("y ~ x"))
        assert f.coef("(Intercept)") == pytest.approx(1.0)
        assert f.coef("x") == pytest.approx(2.0)
        assert f.r_squared == pytest.approx(1.0)
        assert f.residual_se == pytest.approx(0.0, abs=1e-10)

    def test_matches_normal_equations_on_100_random_instances(self):
        g = derive_substream(314, 0)
        for _ in range(100):
            n = int(g.integers(20, 60))
            p = int(g.integers(1, 4))
            x = g.normal(0, 1, (n, p))
            beta = g.normal(0, 2, p + 1)
            y = beta[0] + x @ beta[1:] + g.normal(0, 0.5, n)
            d = Dataset({**{f"x{j}": x[:, j] for j in range(p)}, "y": y})
            f = fit_ols(d, Formula("y", tuple(main(f"x{j}") for j in range(p))))
            xd = np.column_stack([np.ones(n), x])
            b_or, se_or = normal_equations_ols(xd, y)
            assert np.allclose(f.b, b_or, atol=1e-8)
            assert np.allclose(f.se, se_or, atol=1e-8)

    def test_bivariate_beta_equals_pearson(self):
        s = derive_substream(7, 0)
        x = s.normal(3, 2, 500)
        y = 1.5 * x + s.normal(0, 4, 500)
        d = dataset(x=x, y=y)
        f = fit_ols(d, Formula.parse("y ~ x"))
        r = pearson(d["x"], d["y"])
        assert abs(f.beta[f.term_index("x")] - r) < 1e-10
        assert abs(f.r_squared - r * r) < 1e-10

    def test_stat_is_b_over_se(self):
        s = derive_substream(8, 0)
        d = dataset(x=s.normal(0, 1, 60), y=s.normal(0, 1, 60))
        f = fit_ols(d, Formula.parse("y ~ x"))
        assert np.allclose(f.stat, f.b / f.se)

    def test_scale_equivariance(self):
        s = derive_substream(9, 0)
        x = s.normal(0, 1, 200)
        y = 2 * x + s.normal(0, 1, 200)
        d1 = dataset(x=x, y=y)
        d2 = dataset(x=x, y=3.5 * y + 11.0)
        f1 = fit_ols(d1, Formula.parse("y ~ x"))
        f2 = fit_ols(d2, Formula.parse("y ~ x"))
        assert f2.coef("x") == pytest.approx(3.5 * f1.coef("x"), abs=1e-10)
        assert f2.se_of("x") == pytest.approx(3.5 * f1.se_of("x"), abs=1e-10)
        assert f2.stat_of("x") == pytest.approx(f1.stat_of("x"), abs=1e-10)
        assert f2.p[1] == pytest.approx(f1.p[1], abs=1e-12)
        assert f2.r_squared == pytest.approx(f1.r_squared, abs=1e-10)
        assert f2.beta[1] == pytest.approx(f1.beta[1], abs=1e-10)

    def test_singular_design_names_term(self):
        s = derive_substream(10, 0)
        x = s.normal(0, 1, 50)
        d = dataset(x=x, z=2 * x, y=s.normal(0, 1, 50))
        with pytest.raises(SingularDesignError) as exc:
            fit_ols(d, Formula.parse("y ~ x + z"))
        assert exc.value.term in ("x", "z")

    @pytest.mark.parametrize("scale", [1, 1e12, 1e100, 1e-100])
    def test_singular_design_names_a_dependent_term_at_any_scale(self, scale):
        # the pivoted pass once compared each |R_jj| with the largest diagonal
        # entry, so at 1e12 it named the intercept
        x = np.random.default_rng(1).normal(size=30) * scale
        d = dataset(x=x, z=2 * x, y=np.random.default_rng(2).normal(size=30))
        with pytest.raises(SingularDesignError) as exc:
            fit_ols(d, Formula.parse("y ~ x + z"))
        assert exc.value.term in ("x", "z")

    @pytest.mark.parametrize("scale", [1e10, 1e12, 1e100, 1e-100])
    def test_rank_test_ignores_the_scale_of_a_column(self, scale):
        g = np.random.default_rng(1)
        x, z, e = g.normal(size=30), g.normal(size=30), g.normal(size=30)
        d = dataset(x=x, z=z, y=x + z + e)
        want = fit_ols(d, Formula.parse("y ~ x + z"))
        got = fit_ols(d.with_column("x", x * scale), Formula.parse("y ~ x + z"))
        assert got.coef("x") * scale == pytest.approx(want.coef("x"), rel=1e-9)
        assert got.stat_of("x") == pytest.approx(want.stat_of("x"), rel=1e-9)
        assert got.coef("z") == pytest.approx(want.coef("z"), rel=1e-9)
        # a column that is a multiple of another is still refused, at either scale
        for a, b in ((x * scale, 2 * x * scale), (x * scale, 2 * x)):
            with pytest.raises(SingularDesignError):
                fit_ols(dataset(x=a, z=b, y=x + e), Formula.parse("y ~ x + z"))

    def test_design_without_columns_fits(self):
        f = fit_ols(dataset(y=np.arange(5.0)), Formula.parse("y ~ -1"))
        assert f.terms == () and f.b.size == 0

    def test_zero_column_is_singular(self):
        d = dataset(x=np.zeros(10), y=np.arange(10.0))
        for text in ("y ~ x - 1", "y ~ x"):
            with pytest.raises(SingularDesignError) as exc:
                fit_ols(d, Formula.parse(text))
            assert exc.value.term == "x"

    def test_listwise_deletion_counted(self):
        d = Dataset(
            {
                "x": np.array([1.0, 2, 3, np.nan, 5]),
                "y": np.array([1.0, np.nan, 3, 4, 5]),
            }
        )
        f = fit_ols(d, Formula.parse("y ~ x"))
        assert f.n_used == 3 and f.n_dropped == 2

    def test_insufficient_rows(self):
        with pytest.raises(DataError):
            fit_ols(dataset(x=[1, 2], y=[1, 2]), Formula.parse("y ~ x"))


def outcome(fn, *args, **kwargs):
    """The result of ``fn``, or the biaslab error it raised."""
    try:
        return fn(*args, **kwargs)
    except BiaslabError as exc:
        return exc


def assert_same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert getattr(got, "term", None) == getattr(want, "term", None)


def assert_same_fit(got, want):
    if isinstance(want, BiaslabError):
        assert_same_error(got, want)
        return
    for name in ("b", "se", "stat", "p", "beta"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    # repr tells -0.0 from 0.0 and compares NaN with NaN
    for name in ("r_squared", "adj_r_squared", "aic", "deviance", "null_deviance", "residual_se"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert (got.terms, got.n_used, got.n_dropped, got.df_residual) == (
        want.terms, want.n_used, want.n_dropped, want.df_residual)


class TestOlsMatchesOracle:
    """``fit_ols`` refuses a design with the error of the one-QR-per-fit code
    it replaced, and fits within ``TestLeastSquaresMatchesExactArithmetic``'s
    bound of the truth: of ``exact_ols`` where n <= 40, else of that code."""

    _TERMS = {"a": main("a"), "b": main("b"), "c": main("c"),
              "a:b": Formula.parse("y ~ a:b").terms[0], "b^2": Formula.parse("y ~ b^2").terms[0]}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_designs(self, draw):
        labels = draw.draw(st.lists(st.sampled_from(sorted(self._TERMS)), min_size=1, max_size=5,
                                    unique=True))
        intercept = draw.draw(st.booleans())
        p = len(labels) + intercept
        n = draw.draw(st.one_of(st.integers(p + 1, 40), st.integers(41, 2000)))
        missing = draw.draw(st.sampled_from([0.0, 0.02, 0.3]))
        g = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
        cols = {v: g.normal(size=n) * g.uniform(0.1, 10) + g.normal() for v in "abc"}
        cols["y"] = 1.5 * cols["a"] - cols["b"] + g.normal(size=n)
        for v in cols:
            cols[v][g.random(n) < missing] = np.nan
        d = Dataset(cols)
        formula = Formula("y", tuple(self._TERMS[t] for t in labels), intercept=intercept)
        standardized = draw.draw(st.booleans())
        got = outcome(fit_ols, d, formula, standardized=standardized)
        want = outcome(fit_ols_oracle, d, formula, standardized=standardized)
        if isinstance(want, BiaslabError):
            assert_same_error(got, want)
            return
        assert (got.terms, got.n_used, got.n_dropped, got.df_residual) == (
            want.terms, want.n_used, want.n_dropped, want.df_residual)
        y, x, _, _ = _build_design_oracle(d, formula, intercept)
        if np.linalg.cond(x) >= 1e6:
            return
        if len(y) <= 40:
            exact_b, _, exact_se, exact_r2 = exact_ols(x.tolist(), y.tolist(), intercept)
            b, se, r2 = np.array([float(v) for v in exact_b]), exact_se, float(exact_r2)
        else:
            b, se, r2 = want.b, want.se, want.r_squared
        close = TestLeastSquaresMatchesExactArithmetic.assert_close
        scale = np.linalg.norm(y) / np.linalg.svd(x, compute_uv=False)[-1]
        close(got.b, b, x, scale)
        close(got.se, se, x, scale)
        tss = float(np.sum((y - y.mean()) ** 2)) if intercept else float(y @ y)
        if tss > 0:
            close(got.r_squared, r2, x, (y @ y) / tss)
        if standardized:
            # beta_j = b_j * sd(x_j) / sd(y), and 0 for the intercept
            ratio = np.std(x, axis=0, ddof=1) / np.std(y, ddof=1)
            ratio[: int(intercept)] = 0.0
            close(got.beta, b * ratio, x, scale * ratio.max())

    @pytest.mark.parametrize("y, x", [
        ([2.0, 2, 2, 2], None),
        ([4.0, 4, 2, 2], [1.0, 1, -1, -1]),
    ])
    def test_zero_residual_design(self, y, x):
        d = dataset(y=y, x=x if x is not None else np.zeros(len(y)))
        formula = Formula.parse("y ~ x" if x is not None else "y ~ 1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the division by SE 0 stays silent
            got = fit_ols(d, formula)
        undefined = got.se == 0  # SE 0: the statistic and its p are undefined
        assert undefined.any() and np.isnan(got.stat[undefined]).all() and np.isnan(got.p[undefined]).all()
        assert_same_fit(got, fit_ols_oracle(d, formula))

    @pytest.mark.parametrize("text", ["y ~ a + c", "y ~ a + c + b", "y ~ c + a", "y ~ a + c - 1",
                                      "y ~ k + a"])
    def test_collinear_designs_raise_the_same_error(self, text):
        g = np.random.default_rng(2)
        a = g.normal(size=50)
        d = dataset(a=a, b=g.normal(size=50), c=2.0 * a, k=np.full(50, 3.0), y=g.normal(size=50))
        formula = Formula.parse(text)
        got = outcome(fit_ols, d, formula)
        assert isinstance(got, SingularDesignError)
        assert_same_error(got, outcome(fit_ols_oracle, d, formula))

    def test_too_few_complete_rows(self):
        d = dataset(a=[1.0, 2, np.nan, 4], y=[1.0, np.nan, 3, 5])
        for text in ("y ~ a", "y ~ a + a^2"):
            got = outcome(fit_ols, d, Formula.parse(text))
            assert isinstance(got, DataError)
            assert_same_error(got, outcome(fit_ols_oracle, d, Formula.parse(text)))


class TestLeastSquaresKernel:
    """The one least-squares kernel against the code it replaced, kept in
    ``_oracles``: the same bits of b, SE, stat, RSS and r², or the same refusal.

    Columns are drawn to reach every branch: zero and collinear columns (a
    singular design), values of 1e200 (squares that overflow), integral
    values, NaN cells (listwise deletion), as few rows as parameters."""

    @staticmethod
    def _column(draw, label, g, n, before):
        kind = draw.draw(st.sampled_from(["normal", "normal", "zero", "collinear", "huge", "integral"]),
                         label=label)
        if kind == "zero":
            return np.zeros(n)
        if kind == "collinear" and before:
            return 2.0 * before[0] - before[-1]
        if kind == "huge":
            return g.normal(size=n) * 1e200
        if kind == "integral":
            return g.integers(-5, 6, n).astype(float)
        return g.normal(size=n) * g.uniform(0.1, 10) + g.normal()

    def _draw(self, draw, n_responses):
        intercept = draw.draw(st.booleans(), label="intercept")
        k = draw.draw(st.integers(1 - intercept, 6 - intercept), label="terms")
        n = draw.draw(st.one_of(st.integers(2, 12), st.integers(2, 2000)), label="n")
        g = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1), label="seed"))
        cols: list = []
        for j in range(k):
            cols.append(self._column(draw, f"x{j}", g, n, cols))
        ys = []
        for i in range(n_responses):
            kind = draw.draw(st.sampled_from(["noisy", "exact", "huge"]), label=f"y{i}")
            y = sum((c for c in cols if np.abs(c).max() < 1e100), np.zeros(n))
            ys.append(y * 1e200 if kind == "huge" else y + g.normal(size=n) * (kind == "noisy"))
        return intercept, cols, ys, g

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_fit_ols_matches_the_reference(self, draw):
        intercept, cols, (y,), g = self._draw(draw, 1)
        values = {f"x{j}": c for j, c in enumerate(cols)} | {"y": y}
        missing = draw.draw(st.sampled_from([0.0, 0.02, 0.3]), label="missing")
        for v in values.values():
            v[g.random(len(v)) < missing] = np.nan
        formula = Formula("y", tuple(main(name) for name in values if name != "y"), intercept=intercept)
        standardized = draw.draw(st.booleans(), label="standardized")
        got = outcome(fit_ols, Dataset(values), formula, standardized=standardized)
        want = outcome(fit_ols_kernel_oracle, Dataset(values), formula, standardized=standardized)
        event(str(want)[:24] if isinstance(want, BiaslabError) else "fit")
        assert_same_fit(got, want)

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_kernel_matches_the_reference_on_either_layout(self, draw):
        # two responses on one design, as iv_wald passes them
        n_responses = draw.draw(st.integers(1, 2), label="responses")
        intercept, cols, ys, _ = self._draw(draw, n_responses)
        n = len(ys[0])
        columns = [np.ones(n)] * intercept + cols + ys
        a = np.column_stack(columns) if columns else np.empty((n, 0))
        a = draw.draw(st.sampled_from([np.asfortranarray, np.ascontiguousarray]), label="order")(a)
        labels = ("(Intercept)",) * intercept + tuple(f"x{j}" for j in range(len(cols)))
        responses = ("y", "x")[:n_responses]
        got = outcome(regress._least_squares, a, labels, responses)
        want = outcome(least_squares_kernel_oracle, a, labels, responses)
        event(str(want)[:24] if isinstance(want, BiaslabError) else "fit")
        if isinstance(want, BiaslabError):
            assert_same_error(got, want)
        else:
            assert len(got) == len(want)
            for (b, rss, se), (b0, rss0, se0) in zip(got, want):
                assert (b.tobytes(), repr(rss), se.tobytes()) == (b0.tobytes(), repr(rss0), se0.tobytes())
        # the gufuncs the kernel calls give np.linalg's bits and refusals
        q, tau = np.linalg.qr(a, mode="raw")
        h = a.copy(order="K")
        raw = regress._lapack(_umath_linalg.qr_r_raw, h, "QR failed")
        assert (h.tobytes(), raw.tobytes()) == (q.T.tobytes(), tau.tobytes())
        if n <= len(labels):
            return
        r = np.triu(h[: len(labels), : len(labels)])
        try:
            want_inv = np.linalg.inv(r)
        except LinAlgError as exc:
            with pytest.raises(LinAlgError, match=f"^{exc}$"):
                regress._lapack(_umath_linalg.inv, r, str(exc))
        else:
            assert regress._lapack(_umath_linalg.inv, r, "Singular matrix").tobytes() == want_inv.tobytes()


class TestLeastSquaresMatchesExactArithmetic:
    """Every least-squares user against ``exact_ols``, on small integer designs.

    A fitted value must be within ``100 * eps * cond(X) * scale`` of the
    exact one, where cond(X) is the 2-norm condition number of the design
    (intercept included) and ``scale`` is ``||y|| / sigma_min(X)`` for b and
    SE, and ``||y||^2 / TSS`` for R^2 and a tolerance (1 - R^2 of one
    predictor on the others).  That is the forward-error bound of a
    backward-stable solve; the largest error seen was about 2 units of it.
    The match is asserted only where cond(X) < 1e6.
    """

    @staticmethod
    def assert_close(got, want, x, scale):
        bound = 100 * np.finfo(float).eps * np.linalg.cond(x) * scale
        assert np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))) <= bound

    @staticmethod
    def sum_squares(v, centre):
        return float(np.sum((v - centre) ** 2))

    def assert_fit(self, x, y, b, se, first=0):
        """``b`` and ``se`` of a fit of ``y`` on ``x``, from column ``first`` on, match the exact fit."""
        exact_b, _, exact_se, _ = exact_ols(x.tolist(), y.tolist())
        scale = np.linalg.norm(y) / np.linalg.svd(x, compute_uv=False)[-1]
        self.assert_close(b, [float(v) for v in exact_b[first:]], x, scale)
        self.assert_close(se, exact_se[first:], x, scale)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_integer_designs(self, draw):
        n = draw.draw(st.integers(10, 14))
        column = st.lists(st.integers(-8, 8), min_size=n, max_size=n).map(lambda v: np.array(v, float))
        xs = draw.draw(st.lists(column, min_size=1, max_size=4))
        y, w = draw.draw(column), draw.draw(column)
        names = [f"x{j}" for j in range(len(xs))]
        d = Dataset({"y": y, "w": w, **dict(zip(names, xs))})
        formula = Formula("y", tuple(map(main, names)))
        x = np.column_stack([np.ones(n), *xs])

        # y ~ x0 + ... and its auxiliary regressions
        exact = exact_ols(x.tolist(), y.tolist())
        if exact is None:
            with pytest.raises(SingularDesignError):
                fit_ols(d, formula)
            if len(xs) >= 2:
                with pytest.raises(SingularDesignError) as refused:
                    collinearity_diagnostics(d, formula)
                assert refused.value.term in names
        elif np.linalg.cond(x) < 1e6:
            got = fit_ols(d, formula, standardized=False)
            self.assert_fit(x, y, got.b, got.se)
            tss = self.sum_squares(y, y.mean())
            if tss == 0:
                assert got.r_squared == 1.0
            else:
                self.assert_close(got.r_squared, float(exact[3]), x, (y @ y) / tss)
            if len(xs) >= 2:
                report = collinearity_diagnostics(d, formula)
                for j, xj in enumerate(xs):
                    r2_j = exact_ols(np.delete(x, j + 1, axis=1).tolist(), xj.tolist())[3]
                    scale = (xj @ xj) / self.sum_squares(xj, xj.mean())
                    self.assert_close(report.tolerance[j], float(1 - r2_j), x, scale)

        # the instrumental-variable slopes of y and w on x0
        x_iv = x[:, :2]
        if exact_ols(x_iv.tolist(), y.tolist()) is None:
            with pytest.raises(SingularDesignError):
                iv_wald(d, "y", "w", "x0", allow_weak=True)
        elif np.linalg.cond(x_iv) < 1e6:
            iv = iv_wald(d, "y", "w", "x0", allow_weak=True)
            for resp, b, se in ((y, iv.b_yin, iv.se_yin), (w, iv.b_xin, iv.se_xin)):
                self.assert_fit(x_iv, resp, [b], [se], first=1)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_scaled_integer_designs(self, draw):
        """b, SE and RSS of ``fit_ols`` on 1 to 4 integer predictors, each column
        (the response too) scaled by a factor from 1e-3 to 1e3."""
        n = draw.draw(st.integers(10, 40))
        scaled = st.floats(-3, 3).flatmap(lambda e: st.lists(
            st.integers(-50, 50), min_size=n, max_size=n).map(lambda v: np.array(v) * 10.0**e))
        xs = draw.draw(st.lists(scaled, min_size=1, max_size=4))
        y = draw.draw(scaled)
        names = [f"x{j}" for j in range(len(xs))]
        x = np.column_stack([np.ones(n), *xs])
        if np.linalg.cond(x) >= 1e6 or (exact := exact_ols(x.tolist(), y.tolist())) is None:
            return
        got = fit_ols(Dataset({"y": y, **dict(zip(names, xs))}), Formula("y", tuple(map(main, names))),
                      standardized=False)
        scale = np.linalg.norm(y) / np.linalg.svd(x, compute_uv=False)[-1]
        self.assert_close(got.b, [float(v) for v in exact[0]], x, scale)
        self.assert_close(got.se, exact[2], x, scale)
        self.assert_close(got.deviance, float(exact[1]), x, y @ y)

    def test_shifted_copy_is_refused_and_named(self):
        # with x1 = x0 + 1 the auxiliary regressions fit exactly; before, most
        # such designs raised a nameless error and some returned a VIF near 1e31
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(10, 15))
            x0 = rng.integers(-5, 6, n).astype(float)
            d = dataset(y=rng.integers(-5, 6, n), x0=x0, x1=x0 + 1)
            with pytest.raises(SingularDesignError) as refused:
                collinearity_diagnostics(d, Formula.parse("y ~ x0 + x1"))
            assert refused.value.term in ("x0", "x1")


class TestResidualsPredict:
    def test_perfect_fit_residuals_zero(self):
        d = dataset(x=[0, 1, 2, 3], y=[1, 3, 5, 7])
        f = fit_ols(d, Formula.parse("y ~ x"))
        r = residuals(f, d)
        assert np.abs(r).max() < 1e-12

    def test_residuals_orthogonal_to_design(self):
        s = derive_substream(11, 0)
        x = s.normal(0, 2, 300)
        y = x + s.normal(0, 1, 300)
        d = dataset(x=x, y=y)
        f = fit_ols(d, Formula.parse("y ~ x"))
        e = residuals(f, d)
        assert abs(e.sum()) < 1e-8
        assert abs(e @ x) < 1e-8

    def test_predict_missing_rows_stay_missing(self):
        d = Dataset(
            {
                "x": np.array([1.0, np.nan, 3.0, 4.0]),
                "y": np.array([2.0, 4.0, 6.0, 8.5]),
            }
        )
        f = fit_ols(d, Formula.parse("y ~ x"))
        p = predict(f, d)
        assert np.isnan(p).tolist() == [False, True, False, False]


class TestLogistic:
    def test_intercept_only_closed_form(self):
        d = dataset(y=[1] * 5 + [0] * 5)
        f = fit_logistic(d, Formula.parse("y ~ 1"))
        assert f.coef("(Intercept)") == pytest.approx(0.0, abs=1e-9)
        d = dataset(y=[1] * 2500 + [0] * 7500)
        f = fit_logistic(d, Formula.parse("y ~ 1"))
        assert f.coef("(Intercept)") == pytest.approx(math.log(0.25 / 0.75), abs=1e-8)

    def test_matches_brute_force_newton_on_small_data(self):
        g = derive_substream(13, 0)
        for _ in range(10):
            n = 8
            x = g.normal(0, 1, n)
            y = (g.uniform(0, 1, n) < 0.5).astype(float)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            d = dataset(x=x, y=y)
            f = fit_logistic(d, Formula.parse("y ~ x"))
            if not f.converged:
                continue  # separated draw; oracle diverges too
            xd = np.column_stack([np.ones(n), x])
            b_or = brute_force_logistic(xd, y)
            assert np.allclose(f.b, b_or, atol=1e-6)

    def test_non_binary_response_rejected(self):
        with pytest.raises(DataError):
            fit_logistic(dataset(x=[1, 2, 3], y=[0, 1, 2]), Formula.parse("y ~ x"))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            fit_logistic(dataset(x=[1, 2, 3, 4], y=[1, 1, 1, 1]), Formula.parse("y ~ x"))

    def test_separation_flagged(self):
        x = np.array([-3.0, -2, -1, 1, 2, 3] * 4)
        y = (x > 0).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SeparationWarning)
            with pytest.raises(SeparationWarning):
                fit_logistic(dataset(x=x, y=y), Formula.parse("y ~ x"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = fit_logistic(dataset(x=x, y=y), Formula.parse("y ~ x"))
        assert not f.converged

    def test_strong_overlapping_signal_is_not_separation(self):
        # fitted probabilities reach 1e-10 at the finite MLE; before, the fit
        # stopped on the way there with SeparationWarning and b about 0.6 of it
        s = derive_substream(15, 0)
        x = s.normal(0, 5, 2000)
        y = (x + 0.5 * s.logistic(0, 1, 2000) > 0).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SeparationWarning)
            f = fit_logistic(dataset(x=x, y=y), Formula.parse("y ~ x"))
        assert f.converged
        b_or = brute_force_logistic(np.column_stack([np.ones(2000), x]), y)
        assert np.allclose(f.b, b_or, rtol=1e-5, atol=1e-6)

    def test_deviance_and_aic(self):
        s = derive_substream(14, 0)
        x = s.normal(0, 1, 400)
        p = 1 / (1 + np.exp(-x))
        y = (s.uniform(0, 1, 400) < p).astype(float)
        f = fit_logistic(dataset(x=x, y=y), Formula.parse("y ~ x"))
        assert f.aic == pytest.approx(f.deviance + 4)
        assert f.null_deviance > f.deviance


class TestOrderedLogit:
    def _quartile_data(self, n=2000, seed=21):
        s = derive_substream(seed, 0)
        x = s.normal(0, 10, n)
        latent = x + s.normal(0, 30, n)
        cuts = np.quantile(latent, [0.25, 0.5, 0.75])
        y = 1.0 + (latent >= cuts[0]) + (latent >= cuts[1]) + (latent >= cuts[2])
        return dataset(x=x, y=y)

    def test_k2_equals_binary_logistic(self):
        s = derive_substream(20, 0)
        x = s.normal(0, 2, 500)
        z = (x + s.normal(0, 2, 500) > 0).astype(float)
        d = dataset(x=x, yb=z, yo=z + 1)
        fb = fit_logistic(d, Formula.parse("yb ~ x"))
        fo = fit_ordered_logit(d, Formula.parse("yo ~ x"))
        assert fo.coef("x") == pytest.approx(fb.coef("x"), abs=1e-6)
        assert fo.se_of("x") == pytest.approx(fb.se_of("x"), abs=1e-6)
        assert fo.cutpoints[0] == pytest.approx(-fb.coef("(Intercept)"), abs=1e-6)

    def test_intercept_only_quartiles_closed_form(self):
        y = np.repeat([1.0, 2.0, 3.0, 4.0], 2500)
        f = fit_ordered_logit(dataset(y=y), Formula.parse("y ~ 1"))
        expect = [math.log(0.25 / 0.75), 0.0, math.log(0.75 / 0.25)]
        assert np.allclose(f.cutpoints, expect, atol=1e-8)

    def test_matches_brute_force_minimizer(self):
        d = self._quartile_data(n=300, seed=22)
        f = fit_ordered_logit(d, Formula.parse("y ~ x"))
        b_or, z_or = brute_force_ordered(d["x"].reshape(-1, 1), d["y"])
        assert f.coef("x") == pytest.approx(b_or[0], abs=1e-5)
        assert np.allclose(f.cutpoints, z_or, atol=1e-4)

    def test_gradient_matches_finite_differences(self):
        from biaslab.regress import _OrderedNll

        d = self._quartile_data(n=120, seed=23)
        x = d["x"].reshape(-1, 1)
        levels = np.unique(d["y"])
        kcat = np.searchsorted(levels, d["y"])
        nll = _OrderedNll(x, kcat, len(levels))
        beta = np.array([0.03])
        zeta = np.array([-1.0, 0.1, 1.2])
        grad, hess = nll.derivs(beta, zeta)
        eps = 1e-6
        packed = np.concatenate([beta, zeta])

        def value(v):
            return nll.value(v[:1], v[1:])

        for j in range(4):
            up = packed.copy()
            up[j] += eps
            dn = packed.copy()
            dn[j] -= eps
            fd = (value(up) - value(dn)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-6)
            for k in range(4):
                upk = packed.copy()
                upk[k] += eps
                dnk = packed.copy()
                dnk[k] -= eps
                gu, _ = nll.derivs(upk[:1], upk[1:])
                gd, _ = nll.derivs(dnk[:1], dnk[1:])
                fd2 = (gu[j] - gd[j]) / (2 * eps)
                assert hess[j, k] == pytest.approx(fd2, rel=1e-3, abs=1e-4)

    @pytest.mark.parametrize("n_levels", range(2, 10))
    def test_derivs_match_loop_oracle_exactly(self, n_levels):
        from biaslab.regress import _OrderedNll

        rng = np.random.default_rng(100 + n_levels)
        for p in (1, 2, 3):
            # n=7 leaves some cutpoints without rows at larger K
            for n in (7, 60, 400):
                x = rng.normal(size=(n, p))
                kcat = rng.integers(0, n_levels, size=n)
                nll = _OrderedNll(x, kcat, n_levels)
                oracle = OrderedNllOracle(x, kcat, n_levels)
                for _ in range(3):
                    beta = rng.normal(size=p)
                    zeta = np.sort(rng.normal(0, 2, size=n_levels - 1))
                    grad, hess = nll.derivs(beta, zeta)
                    grad_o, hess_o = oracle.derivs(beta, zeta)
                    assert grad.tobytes() == grad_o.tobytes()
                    assert hess.tobytes() == hess_o.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fit_matches_a_recomputing_nll_bit_for_bit(self, draw):
        # _OrderedNll keeps value's CDFs for derivs at the same point; the oracle
        # recomputes everything on every call
        n = draw.draw(st.integers(20, 3000), label="n")
        p = draw.draw(st.integers(1, 3), label="p")
        K = draw.draw(st.integers(2, 6), label="K")
        noise = draw.draw(st.sampled_from([0.0, 0.3, 1.0, 5.0]), label="noise")  # 0: separated
        g = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = g.normal(size=(n, p)) * g.uniform(0.1, 10, p)
        latent = x @ g.normal(size=p) + noise * g.logistic(size=n)
        y = 1.0 + (latent[:, None] >= np.quantile(latent, np.arange(1, K) / K)).sum(axis=1)
        cols = {f"x{j}": x[:, j] for j in range(p)} | {"y": y}
        for i in draw.draw(st.lists(st.integers(0, n - 1), max_size=5), label="nan rows"):
            cols[draw.draw(st.sampled_from(sorted(cols)))][i] = np.nan
        data, formula = dataset(**cols), Formula.parse("y ~ " + " + ".join(f"x{j}" for j in range(p)))

        def outcome():
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always", SeparationWarning)
                try:
                    f = fit_ordered_logit(data, formula)
                except BiaslabError as exc:
                    return repr(exc), []
            return [(k, v.tobytes() if isinstance(v, np.ndarray) else repr(v))
                    for k, v in vars(f).items()], [str(w.message) for w in seen]

        got = outcome()
        with mock.patch.object(regress, "_OrderedNll", OrderedNllOracle):
            want = outcome()
        assert got == want

    @pytest.mark.parametrize("cuts", [(15,), (10, 20)], ids=["K2", "K3"])
    def test_separation_flagged(self, cuts):
        # every level is a run of x: the slope diverges, as under the logit
        x = np.arange(30.0)
        y = 1.0 + sum((x >= c).astype(float) for c in cuts)
        d, f = dataset(x=x, y=y), Formula.parse("y ~ x")
        with warnings.catch_warnings():
            warnings.simplefilter("error", SeparationWarning)
            with pytest.raises(SeparationWarning):
                fit_ordered_logit(d, f)
            with pytest.raises(SeparationWarning):
                fit_logistic(dataset(x=x, y=(y > 1).astype(float)), f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeparationWarning)
            assert not fit_ordered_logit(d, f).converged

    def test_overlapping_levels_are_not_separated(self):
        # one row of each level sits among the other's: the MLE is finite
        x = np.arange(30.0)
        y = np.where(x < 15, 1.0, 2.0)
        y[[3, 26]] = y[[26, 3]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", SeparationWarning)
            f = fit_ordered_logit(dataset(x=x, y=y), Formula.parse("y ~ x"))
        assert f.converged and abs(f.coef("x")) < 5

    @pytest.mark.parametrize("value", [0.0, 0.5, 5.0])
    def test_constant_predictor_is_unidentified(self, value):
        # the cutpoints absorb any constant, as an intercept would
        y = np.tile([1.0, 2.0, 3.0], 100)
        x = derive_substream(24, 0).normal(0, 1, 300)
        d = dataset(y=y, x=x, c=np.full(300, value))
        for text in ("y ~ c", "y ~ x + c"):
            with pytest.raises(SingularDesignError) as info:
                fit_ordered_logit(d, Formula.parse(text))
            assert info.value.term == "c"

    def test_collinear_predictors_are_unidentified(self):
        x = derive_substream(25, 0).normal(0, 1, 300)
        d = dataset(y=np.tile([1.0, 2.0, 3.0], 100), x=x, z=3.0 - 2.0 * x)
        with pytest.raises(SingularDesignError):
            fit_ordered_logit(d, Formula.parse("y ~ x + z"))

    def test_cutpoints_strictly_increasing(self):
        f = fit_ordered_logit(self._quartile_data(), Formula.parse("y ~ x"))
        assert np.all(np.diff(f.cutpoints) > 0)
        assert f.converged

    def test_non_integer_response_rejected(self):
        with pytest.raises(DataError):
            fit_ordered_logit(dataset(y=[1.5, 2, 3]), Formula.parse("y ~ 1"))

    def test_empty_level_rejected(self):
        with pytest.raises(DataError):
            fit_ordered_logit(
                dataset(y=[1.0, 1, 3, 3], x=[1, 2, 3, 4]), Formula.parse("y ~ x")
            )


class TestIterativeFitterProperties:
    """Properties of the logit and ordered-logit MLEs that hold without an oracle.

    A converged fit's score is about 0 relative to its scale: the Newton
    decrement ``s' H^-1 s``, twice the drop in -log L that one more step would
    predict, is below 1e-6.  Mirroring the response mirrors the estimates to
    within a tenth of their SEs.  Most pairs agree to 1e-6 of an SE, but where
    the likelihood has a flat tail (n = 20, five levels, three slopes) the two
    fits stop as much as 3 % of an SE apart on a cutpoint."""

    @classmethod
    def _latent(cls, draw, n_lo=20, n_hi=400):
        n = draw.draw(st.integers(n_lo, n_hi), label="n")
        p = draw.draw(st.integers(1, 3), label="p")
        noise = draw.draw(st.sampled_from([0.0, 0.5, 1.0, 4.0]), label="noise")  # 0: separated
        return cls._sample(n, p, noise, draw.draw(st.integers(0, 2**32 - 1), label="seed"))

    @staticmethod
    def _sample(n, p, noise, seed):
        g = np.random.default_rng(seed)
        x = g.normal(size=(n, p)) * g.uniform(0.1, 10, p)
        cols = {f"x{j}": x[:, j] for j in range(p)}
        return cols, x, x @ g.normal(size=p) + noise * g.logistic(size=n), " + ".join(cols)

    @staticmethod
    def _fit_quietly(fitter, cols, text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeparationWarning)
            return fitter(dataset(**cols), Formula.parse(text))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_logit_score_vanishes_and_flips_with_the_response(self, draw):
        cols, x, latent, rhs = self._latent(draw)
        y = (latent > np.median(latent)).astype(float)
        f = self._fit_quietly(fit_logistic, cols | {"y": y}, f"y ~ {rhs}")
        g = self._fit_quietly(fit_logistic, cols | {"y": 1.0 - y}, f"y ~ {rhs}")
        assert f.converged == g.converged
        event(f"converged: {f.converged}")
        if not f.converged:
            return
        xd = np.column_stack([np.ones(len(y)), x])
        mu = expit(xd @ f.b)
        score, info = xd.T @ (y - mu), xd.T @ (xd * (mu * (1 - mu))[:, None])
        assert score @ np.linalg.solve(info, score) < 1e-6
        assert np.all(np.abs(g.b + f.b) <= 0.1 * f.se)

    def test_a_separated_logit_whose_steps_stall_is_flagged(self):
        # every IRLS weight sits at its 1e-10 clip, so the steps stall at max |b|
        # ~1e9 and the deviance rule stops the fit; every row lies on its own
        # class's side of the fitted predictor, so no finite MLE exists
        cols, _, latent, rhs = self._sample(300, 3, 0.0, 1659)
        y = (latent > np.median(latent)).astype(float)
        for response in (y, 1.0 - y):
            with pytest.warns(SeparationWarning):
                f = fit_logistic(dataset(**cols, y=response), Formula.parse(f"y ~ {rhs}"))
            assert not f.converged

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ordered_score_vanishes_and_reversal_flips_the_fit(self, draw):
        from biaslab.regress import _OrderedNll

        cols, x, latent, rhs = self._latent(draw)
        K = draw.draw(st.integers(2, 5), label="K")
        y = 1.0 + (latent[:, None] >= np.quantile(latent, np.arange(1, K) / K)).sum(axis=1)
        f = self._fit_quietly(fit_ordered_logit, cols | {"y": y}, f"y ~ {rhs}")
        g = self._fit_quietly(fit_ordered_logit, cols | {"y": K + 1.0 - y}, f"y ~ {rhs}")
        assert f.converged == g.converged
        event(f"converged: {f.converged}")
        if not f.converged:
            return
        grad, hess = _OrderedNll(x, (y - 1).astype(int), K).derivs(f.b, f.cutpoints)
        assert grad @ np.linalg.solve(hess, grad) < 1e-6
        assert np.all(np.abs(g.b + f.b) <= 0.1 * f.se)
        assert np.all(np.abs(g.cutpoints + f.cutpoints[::-1]) <= 0.1 * f.cutpoint_se[::-1])


class TestFamilies:
    def test_an_unknown_family_is_refused(self):
        d, f = dataset(x=[0, 1, 2, 4], y=[1.0, 2.9, 5.2, 8.8]), Formula.parse("y ~ x")
        for bad in ("poisson", ["gaussian"], None):
            with pytest.raises(ParameterError, match="unknown family"):
                fit(d, f, family=bad)
            with pytest.raises(ValidationError, match="unknown family"):
                fit_terms(f, bad)

    def test_family_aliases_pick_the_same_fitter(self):
        d = dataset(x=[0, 1, 2, 3, 4, 5, 6, 7], y=[0.0, 1, 0, 1, 0, 1, 1, 1])
        f = Formula.parse("y ~ x")
        for names in (("gaussian", "identity"), ("binomial", "binomial-logit", "logit"),
                      ("ordered", "ordered-logit")):
            fits = [fit(d, f, family=name) for name in names]
            assert all(np.array_equal(g.b, fits[0].b) and g.family == fits[0].family for g in fits)
            assert fits[0].terms == fit_terms(f, names[0])


class TestWald:
    def test_square_of_stat(self):
        d = dataset(x=[0, 1, 2, 4], y=[1.0, 2.9, 5.2, 8.8])
        f = fit_ols(d, Formula.parse("y ~ x"))
        chisq, p = wald_chisq(f, "x")
        assert chisq == f.stat_of("x") ** 2
        assert 0 <= p <= 1

    def test_quoted_magnitudes(self):
        assert 35.143**2 == pytest.approx(1235.03, abs=0.02)
        assert 25.730**2 == pytest.approx(662.03, abs=0.02)

    def test_zero_coefficient(self):
        d = dataset(x=[-1, -1, 1, 1], y=[0.0, 2.0, 0.0, 2.0])
        f = fit_ols(d, Formula.parse("y ~ x"))
        chisq, p = wald_chisq(f, "x")
        assert chisq == pytest.approx(0.0)
        assert p == pytest.approx(1.0)

    def test_unknown_term(self):
        d = dataset(x=[0, 1, 2, 4], y=[1.0, 2.9, 5.2, 8.8])
        f = fit_ols(d, Formula.parse("y ~ x"))
        with pytest.raises(ValidationError):
            wald_chisq(f, "nope")


class TestPValuesOnRead:
    """``FitResult.p`` is computed at its first read, from ``stat`` alone,
    with the expressions the fitters once evaluated for every fit."""

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(["gaussian", "binomial", "ordered"]), n=st.integers(8, 200),
           missing=st.sampled_from([0.0, 0.1, 0.3]), exact=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(family="gaussian", n=30, missing=0.1, exact=True, seed=1)
    def test_p_is_the_old_wald_tail_and_survives_pickling(self, family, n, missing, exact, seed):
        g = np.random.default_rng(seed)
        x, z = g.integers(-3, 4, size=n).astype(float), g.normal(size=n)
        if family == "gaussian" and exact:  # an exact line: SE 0, so stat and p are NaN
            cols, text = {"x": x, "y": 2.0 + 3.0 * x}, "y ~ x"
        else:
            latent = x + z + g.logistic(size=n)
            y = {"gaussian": latent, "binomial": (latent > 0) * 1.0,
                 "ordered": 1.0 + (latent > -1) + (latent > 1)}[family]
            cols, text = {"x": x, "z": z, "y": y}, "y ~ x + z"
        for v in cols.values():
            v[g.random(n) < missing] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeparationWarning)
            f = outcome(fit, dataset(**cols), Formula.parse(text), family=family)
        if isinstance(f, BiaslabError):
            event("refused")
            return
        unread = pickle.loads(pickle.dumps(f))
        tail = -np.abs(f.stat)
        want = 2.0 * (stdtr(f.n_used - len(f.terms), tail) if family == "gaussian" else ndtr(tail))
        event(f"{family}: {'some' if np.isnan(want).any() else 'no'} NaN p")
        for got in (unread.p, f.p, pickle.loads(pickle.dumps(f)).p):
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.isnan(got), np.isnan(f.stat))


class TestCollinearity:
    def _exact(self, rho, seed=56):
        names = tuple(["Y"] + [f"P{j}" for j in range(5)])
        corr = np.full((6, 6), 0.0)
        np.fill_diagonal(corr, 1.0)
        corr[0, 1:] = corr[1:, 0] = 0.3
        corr[1:, 1:] = np.where(np.eye(5) == 1, 1.0, rho)
        t = CorrTarget(names=names, corr=corr)
        return mvn_exact(t, 1000, derive_substream(seed, 0))

    def test_orthogonal_predictors(self):
        ds = self._exact(0.0)
        rep = collinearity_diagnostics(ds, Formula.parse("Y ~ P0 + P1 + P2 + P3 + P4"))
        assert np.allclose(rep.tolerance, 1.0, atol=1e-9)
        assert np.allclose(rep.vif, 1.0, atol=1e-9)

    def test_pairwise_half(self):
        ds = self._exact(0.5)
        rep = collinearity_diagnostics(ds, Formula.parse("Y ~ P0 + P1 + P2 + P3 + P4"))
        assert np.allclose(rep.tolerance, 0.6, atol=1e-9)
        assert np.allclose(rep.vif, 1 / 0.6, atol=1e-9)

    def test_pairwise_three_quarters(self):
        ds = self._exact(0.75)
        rep = collinearity_diagnostics(ds, Formula.parse("Y ~ P0 + P1 + P2 + P3 + P4"))
        assert np.allclose(rep.tolerance, 0.3077, atol=1e-4)
        assert np.allclose(rep.vif, 3.25, atol=1e-9)
        assert np.allclose(np.sort(rep.eigenvalues)[::-1], [4, 1, 0.25, 0.25, 0.25, 0.25], atol=1e-9)
        assert np.allclose(rep.condition_indices, [1, 2, 4, 4, 4, 4], atol=1e-9)


class TestInfiniteCells:
    """A ±inf cell is a value, not a missing cell, and no fitter can use it:
    each refuses the fit and names the column instead of returning NaN estimates."""

    def _data(self, inf_at="x", value=np.inf):
        g = np.random.default_rng(30)
        x, z = g.normal(size=30), g.normal(size=30)
        lin = x + z + g.normal(size=30)
        d = {"x": x, "z": z, "y": lin, "yb": (lin > 0).astype(float), "yo": np.digitize(lin, [-1, 1]) + 1.0}
        d[inf_at] = d[inf_at].copy()
        d[inf_at][4] = value
        return dataset(**d)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("fitter, response", [(fit_ols, "y"), (fit_logistic, "yb"), (fit_ordered_logit, "yo")])
    def test_fitter_names_the_infinite_column(self, fitter, response, value):
        with pytest.raises(DataError, match="column 'x' holds an infinite value"):
            fitter(self._data(value=value), Formula.parse(f"{response} ~ x + z"))

    def test_infinite_response_is_named(self):
        with pytest.raises(DataError, match="column 'y'"):
            fit_ols(self._data(inf_at="y"), Formula.parse("y ~ x + z"))

    @pytest.mark.parametrize("fitter, response", [
        (fit_ols, "y"), (fit_logistic, "yb"), (fit_ordered_logit, "yo"),
        (lambda d, f: collinearity_diagnostics(d, f), "y"),
    ], ids=["ols", "logistic", "ordered", "collinearity"])
    @pytest.mark.parametrize("rhs, term", [("x + x^2", "x^2"), ("z + x:z", "x:z")])
    def test_overflowing_term_is_named(self, fitter, response, rhs, term):
        # finite cells whose square or product overflows to inf
        d = self._data(value=1e200)
        z = d["z"].copy()
        z[4] = -1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # x @ x overflows silently in the listwise screen
            with pytest.raises(DataError, match=f"term '{re.escape(term)}' overflows"):
                fitter(d.with_column("z", z), Formula.parse(f"{response} ~ {rhs}"))

    def test_finite_term_whose_screen_overflows_still_fits(self):
        d = self._data(value=0.5)
        x = d["x"] * 1e77  # x^2 is finite, but its v @ v overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = fit_ols(d.with_column("x", x), Formula.parse("y ~ x^2 - 1"), standardized=False)
        assert np.all(np.isfinite(f.b)) and np.all(np.isfinite(f.se))

    @pytest.mark.parametrize("text, scale", [("y ~ x^2 - 1", 1e77), ("y ~ x - 1", 1e160)])
    def test_standardized_beta_survives_an_overflowing_sd(self, text, scale):
        # the squares of the x column (or of its x^2 term) overflow, so a plain SD does
        d = self._data(value=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = fit_ols(d.with_column("x", d["x"] * scale), Formula.parse(text))
        want = fit_ols(d, Formula.parse(text))
        assert np.all(np.isfinite(f.b)) and np.all(np.isfinite(f.se))
        assert f.beta == pytest.approx(want.beta, rel=1e-9)

    def test_collinearity_on_a_predictor_whose_squares_overflow(self):
        # the predictor is the response of its auxiliary regression
        d = self._data(value=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="response 'x' is too large"):
                collinearity_diagnostics(d.with_column("x", d["x"] * 1e200), Formula.parse("y ~ z + x"))

    @pytest.mark.parametrize("rhs, term", [("x + x^2", "x^2"), ("z + x:z", "x:z")])
    def test_predict_on_an_overflowing_term_is_refused(self, rhs, term):
        # before, the prediction came back ±inf
        d = self._data(value=0.5)
        f = fit_ols(d, Formula.parse(f"y ~ {rhs}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"term '{re.escape(term)}' overflows"):
                predict(f, d.with_column("x", d["x"] * 1e200).with_column("z", d["z"] * 1e200))

    def test_response_whose_squares_overflow_is_named(self):
        d = self._data(value=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="response 'y' is too large"):
                fit_ols(d.with_column("y", (3.0 + d["y"]) * 1e160), Formula.parse("y ~ x"))

    @pytest.mark.parametrize("fitter, response", [(fit_logistic, "yb"), (fit_ordered_logit, "yo")],
                             ids=["logistic", "ordered"])
    def test_overflowing_information_is_refused(self, fitter, response):
        # x is finite and so are its products with the weights, but x'Wx is not;
        # before, the fit returned SE 0 or NaN beside p NaN
        d = self._data(value=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="term 'x' is too large"):
                fitter(d.with_column("x", np.linspace(-1, 1, 30) * 1e200),
                       Formula.parse(f"{response} ~ z + x"))

    def test_infinite_cell_in_a_dropped_row_is_never_used(self):
        d = self._data()
        y = d["y"].copy()
        y[4] = np.nan  # the row of the inf x cell
        f = fit_ols(d.with_column("y", y), Formula.parse("y ~ x + z"))
        assert f.n_dropped == 1 and np.all(np.isfinite(f.b))


class TestFitScreen:
    """``fit_ols`` screens its whole ``[X | y]`` buffer with one dot product, and
    only data that fails it takes listwise deletion and the per-term checks."""

    _FORMULAS = ("y ~ a", "y ~ a + b", "y ~ a + b + a:b", "y ~ a + b^2", "y ~ a:b - 1")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_missing_rows_fit_as_deleted_rows(self, draw):
        n = draw.draw(st.integers(6, 40), label="n")
        g = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1), label="seed"))
        cols = {"a": g.normal(size=n), "b": g.normal(size=n) * 10.0 ** draw.draw(st.integers(-3, 3))}
        cols["y"] = cols["a"] - cols["b"] + g.normal(size=n)
        formula = Formula.parse(draw.draw(st.sampled_from(self._FORMULAS), label="formula"))
        rows = draw.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n), label="rows")
        holed = {k: v.copy() for k, v in cols.items()}
        for i in rows:  # a NaN in one of the formula's variables
            holed[draw.draw(st.sampled_from(formula.variables()))][i] = np.nan
        kept = np.setdiff1d(np.arange(n), rows)
        got = outcome(fit_ols, Dataset(holed), formula)
        want = outcome(fit_ols, Dataset({k: v[kept] for k, v in cols.items()}), formula)
        if isinstance(want, BiaslabError):
            assert_same_error(got, want)
            return
        assert got.b.tobytes() == want.b.tobytes() and got.se.tobytes() == want.se.tobytes()
        assert (got.n_used, got.n_dropped) == (n - len(rows), len(rows))
        # a ±inf cell in a kept row, an overflowing product and an overflowing
        # response still raise the messages of the checks that name them
        i = int(kept[0])
        for column, value, message in (
                ("a", draw.draw(st.sampled_from([np.inf, -np.inf])), "column 'a' holds an infinite value; fits need finite data"),
                ("y", 1e200, "response 'y' is too large: its squares overflow float64")):
            bad = {k: v.copy() for k, v in holed.items()}
            bad[column][i] = value
            assert str(outcome(fit_ols, Dataset(bad), formula)) == message
        if formula.terms[-1].kind != "main":
            bad = {k: v.copy() for k, v in holed.items()}
            bad["a"][i], bad["b"][i] = 1e160, 1e160
            assert str(outcome(fit_ols, Dataset(bad), formula)) == \
                f"term {formula.terms[-1].label!r} overflows to ±inf; fits need finite data"
