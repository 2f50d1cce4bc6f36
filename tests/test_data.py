import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslab.data import (
    Dataset,
    balance_diff,
    listwise_complete,
    pearson,
    quantile_type7,
    ranks_average_ties,
    read_csv,
    spearman,
    summarize,
    write_csv,
)
from biaslab.errors import DataError, ParameterError, ValidationError
from biaslab.rng import derive_substream

from _oracles import moments_oracle, quantile7_oracle, ranks_average_ties_oracle


def col(vals):
    return np.asarray(vals, dtype=float)


class TestSummarize:
    def test_simple(self):
        s = summarize(col([1, 2, 3]))
        assert s.mean == 2 and s.median == 2 and s.sd == 1
        assert s.min == 1 and s.max == 3

    def test_constant_column_flags_shape_stats(self):
        s = summarize(col([1, 1, 1]))
        assert s.sd == 0
        assert math.isnan(s.skew) and math.isnan(s.excess_kurtosis)

    def test_against_direct_formula_oracle(self):
        x = [0, 1, 2, 3, 4, 100]
        s = summarize(col(x))
        mean, sd, skew, kurt = moments_oracle(x)
        assert abs(s.mean - mean) < 1e-12
        assert abs(s.sd - sd) < 1e-12
        assert abs(s.skew - skew) < 1e-12
        assert abs(s.excess_kurtosis - kurt) < 1e-12

    def test_random_vectors_match_oracle(self):
        for seed in range(5):
            x = derive_substream(seed, 0).normal(3.0, 2.0, 100)
            s = summarize(col(x))
            mean, sd, skew, kurt = moments_oracle(x)
            assert abs(s.mean - mean) < 1e-12
            assert abs(s.sd - sd) < 1e-12
            assert abs(s.skew - skew) < 1e-12
            assert abs(s.excess_kurtosis - kurt) < 1e-12
            assert abs(s.q1 - quantile7_oracle(x, 0.25)) < 1e-12
            assert abs(s.q3 - quantile7_oracle(x, 0.75)) < 1e-12

    def test_missing_excluded_and_counted(self):
        s = summarize(col([1, 2, 3, np.nan]))
        assert s.n == 3 and s.n_missing == 1 and s.mean == 2

    def test_all_missing_is_an_error(self):
        with pytest.raises(DataError):
            summarize(col([np.nan, np.nan]))

    def test_variance_is_sd_squared(self):
        s = summarize(col([1, 4, 9, 16]))
        assert abs(s.variance - s.sd**2) < 1e-14


class TestQuantile:
    def test_forced_by_type7_formula(self):
        assert quantile_type7([1, 2, 3, 4, 5], 0.25) == 2
        assert quantile_type7([1, 2, 3, 4, 5], 1.0) == 5
        assert quantile_type7([10, 20], 0.5) == 15

    def test_out_of_range_p(self):
        with pytest.raises(ParameterError):
            quantile_type7([1, 2], 1.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_p_and_endpoints(self, xs, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        assert quantile_type7(xs, lo) <= quantile_type7(xs, hi)
        assert quantile_type7(xs, 0.0) == min(xs)
        assert quantile_type7(xs, 1.0) == max(xs)


class TestRanks:
    def test_ties_get_mean_rank(self):
        assert ranks_average_ties(col([10, 20, 20, 30])).tolist() == [1, 2.5, 2.5, 4]
        assert ranks_average_ties(col([5, 4, 3])).tolist() == [3, 2, 1]
        assert ranks_average_ties(col([1, 1, 1])).tolist() == [2, 2, 2]

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
    def test_ranks_sum(self, xs):
        n = len(xs)
        assert abs(ranks_average_ties(col(xs)).sum() - n * (n + 1) / 2) < 1e-9

    # few distinct values, so most draws are heavily tied
    _TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan])

    @settings(max_examples=300)
    @given(st.lists(st.one_of(_TIED, st.floats(), st.integers(-3, 3).map(float)),
                    min_size=1, max_size=200))
    def test_matches_loop_oracle_bit_for_bit(self, xs):
        x = np.asarray(xs, dtype=float)
        assert ranks_average_ties(x).tobytes() == ranks_average_ties_oracle(x).tobytes()
        present = x[~np.isnan(x)]
        if present.size:
            assert (ranks_average_ties(present).tobytes()
                    == ranks_average_ties_oracle(present).tobytes())


class TestCorrelation:
    def test_self_correlation(self):
        x = col(derive_substream(3, 0).normal(0, 1, 50))
        assert pearson(x, x) == pytest.approx(1.0)
        y = -x
        assert pearson(x, y) == pytest.approx(-1.0)

    def test_population_r_one_over_sqrt10(self):
        # X ~ N(0,10), Y = X + N(0,30): r = 10^2 / (10 * sqrt(10^2+30^2)) = 1/sqrt(10)
        n = 100_000
        s = derive_substream(42, 0)
        x = s.normal(0, 10, n)
        y = x + s.normal(0, 30, n)
        assert pearson(x, y) == pytest.approx(1 / math.sqrt(10), abs=0.01)

    def test_spearman_monotone_invariance_exact(self):
        s = derive_substream(5, 0)
        x = col(s.normal(0, 1, 200))
        y = np.exp(x)
        assert spearman(x, y) == spearman(x, x) == 1.0

    def test_spearman_entry13_value(self):
        n = 10_000
        s = derive_substream(1992, 0)
        x = s.normal(0, 10, n)
        y = x + s.normal(0, 30, n)
        assert spearman(x, y) == pytest.approx(0.31, abs=0.02)

    def test_spearman_null_bound(self):
        s = derive_substream(17, 0)
        x = s.normal(0, 1, 10_000)
        shuffled = x[s.permutation(10_000)]
        assert abs(spearman(x, shuffled)) < 0.03

    def test_zero_variance_degenerate(self):
        with pytest.raises(DataError):
            pearson(col([1, 1, 1]), col([1, 2, 3]))

    def test_pairwise_deletion(self):
        x = col([1, 2, 3, 4, np.nan])
        y = col([2, 4, 6, np.nan, 10])
        assert pearson(x, y) == pytest.approx(1.0)


class TestBalance:
    def _data(self, treat_vals, control_vals):
        g = [1] * len(treat_vals) + [0] * len(control_vals)
        v = list(treat_vals) + list(control_vals)
        return Dataset({"g": g, "v": v})

    def test_identical_groups_all_zero(self):
        d = self._data([1, 2, 3], [1, 2, 3])
        row = balance_diff(d, "g", ["v"]).row("v")
        assert row.delta_mean == 0 and row.delta_sd == 0

    def test_hand_computed_moments(self):
        d = self._data([0, 10], [5, 5])
        row = balance_diff(d, "g", ["v"]).row("v")
        assert row.delta_mean == 0
        assert row.delta_sd == pytest.approx(np.std([0, 10], ddof=1))

    def test_antisymmetric_under_group_swap(self):
        s = derive_substream(8, 0)
        g = (s.normal(0, 1, 40) > 0).astype(float)
        v = s.normal(5, 2, 40)
        d = Dataset({"g": g, "v": v})
        swapped = Dataset({"g": 1 - g, "v": v})
        a = balance_diff(d, "g", ["v"]).row("v")
        b = balance_diff(swapped, "g", ["v"]).row("v")
        for f in ("delta_mean", "delta_sd", "delta_skew", "delta_kurtosis"):
            assert getattr(a, f) == pytest.approx(-getattr(b, f), abs=1e-12)

    def test_single_group_error(self):
        d = Dataset({"g": np.ones(5), "v": np.arange(5.0)})
        with pytest.raises(DataError):
            balance_diff(d, "g", ["v"])

    def test_non_binary_group_rejected(self):
        d = Dataset({"g": [0.0, 1.0, 2.0], "v": np.arange(3.0)})
        with pytest.raises(ValidationError):
            balance_diff(d, "g", ["v"])


class TestListwise:
    def test_no_missing_unchanged(self):
        d = Dataset({"a": np.arange(5.0), "b": np.arange(5.0)})
        out, dropped = listwise_complete(d, ["a", "b"])
        assert dropped == 0 and out.n_rows == 5

    def test_one_missing_row(self):
        d = Dataset({"a": [1, 2, np.nan], "b": [1, 2, 3]})
        out, dropped = listwise_complete(d, ["a", "b"])
        assert dropped == 1 and out.n_rows == 2

    def test_only_listed_vars_count(self):
        d = Dataset({"a": [1, np.nan, 3], "b": [1, 2, 3]})
        out, dropped = listwise_complete(d, ["b"])
        assert dropped == 0 and out.n_rows == 3


@pytest.mark.parametrize("index", [np.array([True, False, True, True]), np.array([3, 0, 3])])
def test_select_rows_gathers_values_and_missing_flags(index):
    d = Dataset({"a": [1, np.nan, 3, np.nan], "b": [5, np.nan, 7, 8]})
    out = d.select_rows(index)
    assert out.names == ["a", "b"] and out.n_rows == len(out["a"])
    for name in d.names:
        want = d[name][index]
        assert repr(out[name]) == repr(want)
        assert np.isnan(out[name]).tolist() == np.isnan(want).tolist()


class TestCsv:
    def test_round_trip_identity(self, tmp_path):
        s = derive_substream(21, 0)
        d = Dataset(
            {
                "x": s.normal(0, 1, 50),
                "y": s.normal(1e6, 123.456, 50),
                "z": np.where(s.normal(0, 1, 50) > 0, np.nan, 1.25),
            }
        )
        p = tmp_path / "d.csv"
        write_csv(d, str(p))
        back = read_csv(str(p))
        for name in d.names:
            assert np.array_equal(np.isnan(back[name]), np.isnan(d[name]))
            assert np.array_equal(back[name][~np.isnan(back[name])], d[name][~np.isnan(d[name])])

    def test_empty_field_is_missing(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,\n,2\n")
        d = read_csv(str(p))
        assert np.isnan(d["a"]).tolist() == [False, True]
        assert np.isnan(d["b"]).tolist() == [True, False]

    @given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30))
    @settings(max_examples=25)
    def test_round_trip_floats_exact(self, tmp_path_factory, xs):
        p = tmp_path_factory.mktemp("csv") / "f.csv"
        d = Dataset({"v": xs})
        write_csv(d, str(p))
        back = read_csv(str(p))
        assert np.array_equal(back["v"], np.array(xs, dtype=float))

    @given(xs=st.lists(st.floats(allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=25)
    def test_round_trip_any_float(self, tmp_path_factory, xs):
        p = tmp_path_factory.mktemp("csv") / "f.csv"
        d = Dataset({"v": xs})
        write_csv(d, str(p))
        back = read_csv(str(p))
        assert np.array_equal(back["v"], np.array(xs, dtype=float))

    def test_infinities_round_trip(self, tmp_path):
        p = tmp_path / "inf.csv"
        d = Dataset({"v": [np.inf, -np.inf, 2.0, 0.5]})
        write_csv(d, str(p))
        assert p.read_text() == "v\ninf\n-inf\n2\n0.5\n"
        assert np.array_equal(read_csv(str(p))["v"], d["v"])

    def test_non_numeric_cell_names_file_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3,x7\n")
        with pytest.raises(ValidationError) as info:
            read_csv(str(p))
        msg = str(info.value)
        assert str(p) in msg and "row 3" in msg and "'b'" in msg and "'x7'" in msg


def test_duplicate_column_names_rejected(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("x,x,y\n1,2,3\n4,5,6\n")
    with pytest.raises(ValidationError, match="'x' twice"):
        read_csv(str(p))


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        Dataset({"x": [1, 2], "y": [1]})
