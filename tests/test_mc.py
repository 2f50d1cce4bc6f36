import json
import math
import multiprocessing
import multiprocessing.queues
import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from biaslab import causal, mc, rng, scm
from biaslab.catalog import catalog_config, collider_template, iv_template
from biaslab.causal import Condition, RowFilter
from biaslab.data import Dataset
from biaslab.errors import DataError, ParameterError, ValidationError
from biaslab.mc import (
    BalanceStep,
    FitStep,
    IvStep,
    McTemplate,
    RangeSpec,
    SamplingPlan,
    filter_replicates,
    histogram,
    repeated_samples,
    run_mc,
    series_correlation,
    step_from_json,
    summarize_series,
    write_mc_csv,
)
from biaslab.regress import Formula, fit_ols, main
from biaslab.rng import derive_substream
from biaslab.scm import (EquationSpec, ErrorTerm, GroupError, ScmSpec, SourceSpec, bind_spec,
                         evaluate_scm)

from _oracles import quantile7_oracle


def same_columns(a: dict, b: dict) -> bool:
    """The same series in the same order, each with the same dtype and bits, NaN cells included."""
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes() for k in a
    )


def row(res, i) -> dict:
    """Replicate row ``i`` of an MC result as Python numbers: i, N, then each series."""
    return {name: col[i].item() for name, col in res.columns.items()}


def small_template(reps=20, seed=11):
    scm = ScmSpec(
        n="n",
        sources=(SourceSpec("c", "normal", {"mean": 0, "sd": "sd_c"}),),
        equations=(
            EquationSpec("x", linear=(("c", "a"),), error=ErrorTerm(1.0, 0, 1.0)),
            EquationSpec("y", linear=(("c", "b"),), error=ErrorTerm(1.0, 0, 1.0)),
        ),
    )
    return McTemplate(
        scm=scm,
        n=RangeSpec(50, 200),
        bindings=(("a", RangeSpec(1, 3)), ("b", RangeSpec(1, 3)), ("sd_c", RangeSpec(1, 2))),
        analysis=(FitStep("y ~ x", (("bxy", "b:x"), ("se_xy", "se:x"))),),
        reps=reps,
        master_seed=seed,
    )


def small_doc(reps=20, seed=11) -> dict:
    """``small_template(reps, seed)`` as the JSON document a config holds."""
    return {
        "scm": {
            "n": "n",
            "sources": [{"name": "c", "kind": "normal", "params": {"mean": 0, "sd": "sd_c"}}],
            "equations": [
                {"target": "x", "linear": [["c", "a"]], "error": {"coef": 1.0, "mean": 0, "sd": 1.0}},
                {"target": "y", "linear": [["c", "b"]], "error": {"coef": 1.0, "mean": 0, "sd": 1.0}},
            ],
        },
        "n": {"lo": 50, "hi": 200},
        "bindings": {"a": {"lo": 1, "hi": 3}, "b": {"lo": 1, "hi": 3}, "sd_c": {"lo": 1, "hi": 2}},
        "analysis": [{"kind": "fit", "formula": "y ~ x", "record": {"bxy": "b:x", "se_xy": "se:x"}}],
        "reps": reps,
        "seed": seed,
    }


def mixed_template(n, reps=5, seed=31):
    """Ranged bindings interleaved with lo == hi ones."""
    scm = ScmSpec(
        n="n",
        sources=(SourceSpec("c", "normal", {"mean": "mu_c", "sd": "sd_c"}),),
        equations=(
            EquationSpec("x", intercept="k", linear=(("c", "a"),), error=ErrorTerm("e", 0, 1.0)),
            EquationSpec("y", linear=(("c", "b"), ("x", "g")), error=ErrorTerm(1.0, "mu_y", "sd_y")),
        ),
    )
    bindings = (("mu_c", RangeSpec(0, 0)), ("a", RangeSpec(1, 3)), ("sd_c", RangeSpec(2, 2)),
                ("k", RangeSpec(-1.5, -1.5)), ("b", RangeSpec(-2, 5)), ("e", RangeSpec(0.5, 1.5)),
                ("g", RangeSpec(0.25, 0.25)), ("mu_y", RangeSpec(-5, 5)), ("sd_y", RangeSpec(1, 1)))
    return McTemplate(
        scm=scm, n=n, bindings=bindings,
        analysis=(FitStep("y ~ x", (("bxy", "b:x"), ("se_xy", "se:x"), ("r2", "r2"))),),
        reps=reps, master_seed=seed,
    )


# a value for each number site of every_number_site, by placeholder name
EVERY_SITE = {"mz": 1.5, "sz": 2.0, "lo": -3.0, "hi": 4.0, "mc": 5.0, "sc": 2.5, "lc": 2.0, "hc": 8.0,
              "k": 20.0, "b0": 0.5, "bz": -1.25, "bzu": 0.75, "bc2": 0.1, "ec": 2.0, "em": 0.3,
              "es": 1.5, "bx": 2.0, "g0c": 3.0, "g0m": -1.0, "g0s": 0.5, "g1s": 2.5}


def every_number_site(num, n="n") -> ScmSpec:
    """A spec that puts ``num(name)`` at every field that may hold a placeholder: the
    params of each source kind, each coefficient kind, an error term and a group error level."""
    return ScmSpec(
        n=n,
        sources=(
            SourceSpec("z", "normal", {"mean": num("mz"), "sd": num("sz")}),
            SourceSpec("u", "uniform_int", {"lo": num("lo"), "hi": num("hi")}),
            SourceSpec("c", "clamped_int_normal",
                       {"mean": num("mc"), "sd": num("sc"), "lo": num("lc"), "hi": num("hc")}),
            SourceSpec("g", "pattern", {"values": [0, 1], "mode": "each", "k": num("k")}),
        ),
        equations=(
            EquationSpec("x", intercept=num("b0"), linear=(("z", num("bz")),),
                         interactions=(("z", "u", num("bzu")),), squares=(("c", num("bc2")),),
                         error=ErrorTerm(num("ec"), num("em"), num("es"))),
            EquationSpec("y", linear=(("x", num("bx")),), group_error=GroupError(
                "g", {0: ErrorTerm(num("g0c"), num("g0m"), num("g0s")), 1: ErrorTerm(1.0, 0.0, num("g1s"))})),
        ),
    )


class TestValidation:
    def test_unbound_placeholder_rejected(self):
        scm = ScmSpec(
            n="n",
            sources=(SourceSpec("c", "normal", {"mean": 0, "sd": "sd_c"}),),
        )
        with pytest.raises(ValidationError):
            McTemplate(scm=scm, n=RangeSpec(10, 20), bindings=(),
                       analysis=(), reps=5, master_seed=1)

    def test_unused_binding_rejected(self):
        scm = ScmSpec(n="n", sources=(SourceSpec("c", "normal", {"mean": 0, "sd": 1}),))
        with pytest.raises(ValidationError):
            McTemplate(scm=scm, n=RangeSpec(10, 20),
                       bindings=(("ghost", RangeSpec(0, 1)),),
                       analysis=(), reps=5, master_seed=1)

    def test_series_name_collision_rejected(self):
        scm = ScmSpec(n="n", sources=(SourceSpec("c", "normal", {"mean": 0, "sd": "s"}),))
        with pytest.raises(ValidationError):
            McTemplate(
                scm=scm, n=RangeSpec(10, 20), bindings=(("s", RangeSpec(1, 2)),),
                analysis=(FitStep("c ~ 1", (("s", "b:(Intercept)"),)),),
                reps=5, master_seed=1,
            )

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValidationError):
            FitStep("y ~ x", (("v", "var:x"),))
        with pytest.raises(ValidationError):
            FitStep("y ~ x", (("r", "r2:x"),))

    def test_bound_template_evaluates_as_the_spec_with_its_numbers_written_in(self):
        template = every_number_site(str)
        bound = bind_spec(template, EVERY_SITE, 40)
        assert bound.placeholders() == set() and bound.is_concrete()
        written = evaluate_scm(every_number_site(EVERY_SITE.__getitem__, n=40), derive_substream(5, 0))
        got = evaluate_scm(bound, derive_substream(5, 0))
        assert same_columns(dict(got.items()), dict(written.items()))
        # binding leaves the template as it was
        assert template.placeholders() == {*EVERY_SITE, "n"} and not template.is_concrete()

    def test_partly_bound_template_reports_its_unbound_placeholders(self):
        unbound = {"bzu", "g1s", "k"}
        bound = bind_spec(every_number_site(str),
                          {k: v for k, v in EVERY_SITE.items() if k not in unbound}, 40)
        assert bound.placeholders() == unbound and not bound.is_concrete()
        with pytest.raises(ValidationError, match="unbound placeholders"):
            evaluate_scm(bound, derive_substream(5, 0))
        again = bind_spec(bound, {k: EVERY_SITE[k] for k in unbound}, 40)
        assert again.is_concrete()
        assert same_columns(dict(evaluate_scm(again, derive_substream(5, 0)).items()),
                            dict(evaluate_scm(bind_spec(every_number_site(str), EVERY_SITE, 40),
                                              derive_substream(5, 0)).items()))

    def test_json_round_trip(self):
        t = McTemplate.from_json_dict(small_doc())
        assert t == small_template()
        assert t.hash() == small_template().hash()

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, math.inf), (-math.inf, 0.0),
                                        (math.nan, 1.0)])
    def test_non_finite_binding_range_rejected(self, lo, hi):
        t = small_template()
        bindings = (("a", RangeSpec(lo, hi)), *t.bindings[1:])
        with pytest.raises(ValidationError, match=r"^bindings\.a: range \["):
            McTemplate(scm=t.scm, n=t.n, bindings=bindings, analysis=t.analysis, reps=2,
                       master_seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_master_seed_out_of_range_rejected_at_construction(self, seed):
        # the readers pass the seed through as it is, so 1.5 and True are not truncated to 1
        with pytest.raises(ValidationError, match="master_seed"):
            McTemplate.from_json_dict({**collider_template(reps=2), "seed": seed})
        with pytest.raises(ValidationError, match="master_seed"):
            SamplingPlan.from_json_dict({"k": 5, "reps": 2, "analysis": [], "seed": seed})
        with pytest.raises(ValidationError, match="master_seed"):
            SamplingPlan(k=5, reps=2, analysis=(), master_seed=seed)

    @pytest.mark.parametrize("field, value, named", [
        ("reps", 2.5, "reps"), ("reps", True, "reps"), ("reps", "3", "reps"), ("n", 150.7, "n"),
        ("n", {"lo": 100.5, "hi": 120.9}, "n.lo"), ("n", {"lo": 100, "hi": 120.9}, "n.hi"),
    ])
    def test_non_integer_reps_or_n_rejected(self, field, value, named):
        with pytest.raises(ValidationError, match=rf"^mc\.{re.escape(named)}: must be an integer"):
            McTemplate.from_json_dict({**collider_template(reps=2), field: value})

    @pytest.mark.parametrize("field, value", [("k", 10.5), ("k", True), ("reps", 2.5), ("reps", "3")])
    def test_non_integer_sample_size_or_reps_rejected(self, field, value):
        doc = {"k": 5, "reps": 2, "analysis": [], "seed": 1, field: value}
        with pytest.raises(ValidationError, match=rf"^sampling\.{field}: must be an integer"):
            SamplingPlan.from_json_dict(doc)

    @pytest.mark.parametrize("step", [
        {"kind": "fit", "formula": "y ~ x + colx", "record": {"b": "b:x"}},
        {"kind": "iv", "y": "y", "x": "x", "instrument": "colx", "record": {"r": "ratio"}},
        {"kind": "balance", "group": "x", "covariates": ["colx"], "record": {"d": "delta_mean:colx"}},
    ])
    def test_step_reading_an_undefined_column_rejected(self, step):
        t = collider_template(reps=2)
        with pytest.raises(ValidationError, match=r"analysis\[1\]: unknown column 'colx'"):
            McTemplate.from_json_dict({**t, "analysis": [*t["analysis"], step]})
        pop = Dataset({"x": np.arange(20.0), "y": np.arange(20.0) % 2})
        plan = SamplingPlan(k=5, reps=2, analysis=(FitStep("y ~ x", (("s", "b:x"),)),),
                            master_seed=1, row_filter=RowFilter((Condition("colx", ">", 0),)))
        for bad in (SamplingPlan(k=5, reps=2, analysis=(step_from_json(step),), master_seed=1), plan):
            with pytest.raises(ValidationError, match="unknown column 'colx'"):
                repeated_samples(pop, bad)

    def test_binding_draws_equal_scalar_uniform_draws(self):
        # ranges of assorted widths, signs and magnitudes, some of them lo == hi
        g = np.random.default_rng(12)
        lo = g.normal(0.0, 1.0, 40) * 10.0 ** g.integers(-300, 300, 40)
        hi = lo + np.abs(g.normal(0.0, 1.0, 40)) * 10.0 ** g.integers(-300, 300, 40)
        hi[::7] = lo[::7]
        names = tuple(f"p{j}" for j in range(40))
        scm_spec = ScmSpec(n="n", sources=tuple(
            SourceSpec(name, "normal", {"mean": name, "sd": 1.0}) for name in names))
        t = McTemplate(scm=scm_spec, n=10,
                       bindings=tuple((name, RangeSpec(float(a), float(b)))
                                      for name, a, b in zip(names, lo, hi)),
                       analysis=(), reps=1, master_seed=1)
        for i in range(50):
            state = derive_substream(8, i)
            scalar = {name: r.draw(state) for name, r in t.bindings}
            assert repr(t.draw_bindings(derive_substream(8, i))) == repr(scalar)


def _plan_doc(**changes) -> dict:
    doc = {"k": 20, "reps": 5, "seed": 6,
           "analysis": [{"kind": "fit", "formula": "y ~ g", "record": {"slope": "b:g"}}],
           "filter": [{"var": "g", "op": ">=", "value": 0.0}]}
    return {**doc, **changes}


class TestTemplateHash:
    """The template hash is the sha256 of a template's or a plan's fields."""

    def test_equal_templates_hash_equal(self):
        assert small_template().hash() == small_template().hash()
        assert SamplingPlan.from_json_dict(_plan_doc()).hash() == SamplingPlan.from_json_dict(_plan_doc()).hash()

    def test_integral_float_and_int_hash_equal(self):
        ints, floats = collider_template(reps=5, seed=3), collider_template(reps=5, seed=3)
        ints["scm"]["equations"][0]["intercept"] = 0
        assert floats["scm"]["equations"][0]["intercept"] == 0.0
        assert McTemplate.from_json_dict(ints) == McTemplate.from_json_dict(floats)
        assert McTemplate.from_json_dict(ints).hash() == McTemplate.from_json_dict(floats).hash()
        ints["scm"]["equations"][0]["intercept"] = 0.5
        assert McTemplate.from_json_dict(ints).hash() != McTemplate.from_json_dict(floats).hash()

    def test_params_key_order_keeps_the_hash(self):
        doc = small_doc()
        params = doc["scm"]["sources"][0]["params"]
        doc["scm"]["sources"][0]["params"] = dict(reversed(params.items()))
        assert list(doc["scm"]["sources"][0]["params"]) != list(params)
        assert McTemplate.from_json_dict(doc).hash() == small_template().hash()

    @pytest.mark.parametrize("change", [
        lambda d: d["bindings"]["a"].update(hi=4),
        lambda d: d["analysis"][0]["record"].update(se_xy="p:x"),
        lambda d: d.update(reps=21),
        lambda d: d.update(seed=12),
    ], ids=["binding", "record", "reps", "seed"])
    def test_a_changed_template_field_changes_the_hash(self, change):
        doc = small_doc()
        change(doc)
        assert McTemplate.from_json_dict(doc).hash() != small_template().hash()

    @pytest.mark.parametrize("changes", [
        {"k": 21}, {"reps": 6}, {"seed": 7},
        {"analysis": [{"kind": "fit", "formula": "y ~ g", "record": {"slope": "se:g"}}]},
        {"filter": [{"var": "g", "op": ">=", "value": 1.0}]},
        {"filter": [{"var": "g", "op": ">", "value": 0.0}]},
    ], ids=["k", "reps", "seed", "record", "filter-value", "filter-op"])
    def test_a_changed_plan_field_changes_the_hash(self, changes):
        plain = SamplingPlan.from_json_dict(_plan_doc())
        assert SamplingPlan.from_json_dict(_plan_doc(**changes)).hash() != plain.hash()

    def test_dropping_the_row_filter_changes_the_hash(self):
        unfiltered = {k: v for k, v in _plan_doc().items() if k != "filter"}
        assert SamplingPlan.from_json_dict(unfiltered).hash() != SamplingPlan.from_json_dict(_plan_doc()).hash()

    def test_hash_is_the_same_in_every_process(self):
        # str hashing is salted per process (PYTHONHASHSEED); the template hash is not
        code = ("from biaslab.catalog import collider_template; from biaslab.mc import McTemplate; "
                "print(McTemplate.from_json_dict(collider_template(reps=5, seed=3)).hash())")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        got = {subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": h},
                              capture_output=True, text=True, check=True).stdout.strip()
               for h in ("1", "2")}
        assert got == {McTemplate.from_json_dict(collider_template(reps=5, seed=3)).hash()}
        assert got == {"214dc48de3c3b289"}


class TestRunMc:
    def test_records_and_draw_series(self):
        res = run_mc(small_template())
        assert len(res) == 20
        assert set(res.series_names) == {"a", "b", "sd_c", "bxy", "se_xy"}
        assert np.all((res.series("a") >= 1) & (res.series("a") <= 3))
        n = res.series("N")
        assert np.all((n >= 50) & (n <= 200))

    def test_rep_equals_hand_run(self):
        # all bindings ranged; lo == hi bindings between ranged ones, which
        # consume no draw; the same with a fixed integer n
        for template in (small_template(reps=4, seed=77), mixed_template(RangeSpec(50, 200)),
                         mixed_template(120)):
            res = run_mc(template)
            for i in range(len(res)):
                rec = row(res, i)
                rng = derive_substream(template.master_seed, i)
                n = template.n.draw_int(rng) if isinstance(template.n, RangeSpec) else template.n
                values = {name: rs.draw(rng) for name, rs in template.bindings}
                spec = bind_spec(template.scm, values, n)
                ds = evaluate_scm(spec, rng)
                f = fit_ols(ds, Formula("y", (main("x"),)))
                assert rec["N"] == n
                assert rec["bxy"] == pytest.approx(f.coef("x"), abs=1e-15)
                assert repr({k: rec[k] for k in values}) == repr(values)
                hand = {"i": i, "N": n, **values}
                for step in template.analysis:
                    hand.update(step.run(ds))
                assert repr(rec) == repr(hand)

    def test_determinism_across_worker_counts(self):
        a = run_mc(small_template(), workers=1)
        b = run_mc(small_template(), workers=2)
        assert same_columns(a.columns, b.columns)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, workers):
        with pytest.raises(ParameterError, match=f"workers must be >= 1, got {workers}"):
            run_mc(small_template(), workers=workers)

    def test_adding_reps_preserves_earlier_replicates(self):
        short = run_mc(small_template(reps=10))
        long = run_mc(small_template(reps=20))
        assert same_columns({k: v[:10] for k, v in long.columns.items()}, short.columns)

    def test_replicate_failures_recorded_not_fatal(self):
        scm = ScmSpec(
            n="n",
            sources=(SourceSpec("x", "normal", {"mean": 0, "sd": "s"}),),
            equations=(
                EquationSpec("z", linear=(("x", 2.0),)),  # exactly collinear with x
                EquationSpec("y", linear=(("x", 1.0),), error=ErrorTerm(1.0, 0, 1)),
            ),
        )
        t = McTemplate(
            scm=scm, n=RangeSpec(30, 30), bindings=(("s", RangeSpec(1, 1)),),
            analysis=(FitStep("y ~ x + z", (("b", "b:z"),)),),
            reps=4, master_seed=3,
        )
        res = run_mc(t)
        assert len(res) == 4
        assert len(res.errors) == 4
        assert all(math.isnan(v) for v in res.series("b"))

    def test_infinite_cells_become_an_error_tag_not_nan_estimates(self):
        # x * 1e10 overflows for x drawn with sd 1e300: nearly every y cell is ±inf
        scm = ScmSpec(
            n="n",
            sources=(SourceSpec("x", "normal", {"mean": 0, "sd": 1e300}),),
            equations=(EquationSpec("y", linear=(("x", 1e10),), error=ErrorTerm(1.0, 0, 1)),),
        )
        t = McTemplate(scm=scm, n=30, bindings=(), analysis=(FitStep("y ~ x", (("b", "b:x"),)),),
                       reps=3, master_seed=5)
        res = run_mc(t)
        assert sorted(res.errors) == [0, 1, 2]
        assert all(m.startswith("DataError: column 'y' holds an infinite value") for m in res.errors.values())
        assert np.isnan(res.series("b")).all()


class TestRepeatedSamples:
    def _population(self):
        spec = ScmSpec(
            n=5000,
            sources=(SourceSpec("g", "pattern", {"values": [0, 1], "mode": "times", "k": 2500}),
                     SourceSpec("e", "normal", {"mean": 0, "sd": 1})),
            equations=(EquationSpec("y", linear=(("g", 2.0), ("e", 1.0))),),
        )
        return evaluate_scm(spec, derive_substream(50, 0))

    def test_sampling_recovers_population_slope(self):
        pop = self._population()
        full = fit_ols(pop, Formula("y", (main("g"),)))
        plan = SamplingPlan(
            k=500, reps=200,
            analysis=(FitStep("y ~ g", (("slope", "b:g"),)),),
            master_seed=1,
        )
        res = repeated_samples(pop, plan)
        slopes = res.series("slope")
        assert slopes.mean() == pytest.approx(full.coef("g"), abs=0.02)

    def test_filtered_sampling(self):
        pop = self._population()
        plan = SamplingPlan(
            k=100, reps=10,
            analysis=(FitStep("y ~ g", (("slope", "b:g"),)),),
            master_seed=2,
            row_filter=RowFilter((Condition("e", ">", 0),)),
        )
        res = repeated_samples(pop, plan)
        assert len(res) == 10
        assert not np.isnan(res.series("slope")).any()

    def test_insufficient_population(self):
        pop = self._population()
        plan = SamplingPlan(k=10_000, reps=2, analysis=(), master_seed=3)
        with pytest.raises(DataError):
            repeated_samples(pop, plan)

    def test_deterministic_per_seed(self):
        pop = self._population()
        plan = SamplingPlan(k=50, reps=3,
                            analysis=(FitStep("y ~ g", (("slope", "b:g"),)),),
                            master_seed=9)
        a = repeated_samples(pop, plan)
        b = repeated_samples(pop, plan, workers=2)
        assert same_columns(a.columns, b.columns)

    @pytest.mark.parametrize("ident, reads", [
        ("entry5-sampling-high-pea", ["EP", "SIEM"]),  # its filter reads PEA, which no step reads
        ("entry6-balance", ["Tr", "Y", "DI1", "DV1", "SCV1", "CV1"]),  # five columns, by two steps
    ])
    def test_samples_gather_only_the_columns_the_plan_reads(self, tmp_path, monkeypatch, ident, reads):
        doc = catalog_config(ident)["population"]
        pop = evaluate_scm(ScmSpec.from_json_dict(doc["scm"]), derive_substream(7, 0))
        plan = SamplingPlan.from_json_dict({**doc["sampling"], "reps": 20, "seed": 8})
        keep = plan.row_filter.mask(pop) if plan.row_filter else np.ones(pop.n_rows, dtype=bool)
        # the reference samples every column of the filtered population
        unprojected = mc._run_replicates(plan, mc._sample_data, (pop.select_rows(keep), plan), 1)
        gathered = []
        select_rows = Dataset.select_rows
        monkeypatch.setattr(Dataset, "select_rows", lambda d, idx: gathered.append(d.names) or select_rows(d, idx))
        written = {}
        for label, result in (("reference", unprojected), ("serial", repeated_samples(pop, plan)),
                              ("pooled", repeated_samples(pop, plan, workers=2))):
            write_mc_csv(result, tmp_path / f"{label}.csv")
            written[label] = (tmp_path / f"{label}.csv").read_bytes()
        assert written["serial"] == written["reference"] == written["pooled"]
        assert gathered and all(sorted(names) == sorted(reads) for names in gathered)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, workers):
        plan = SamplingPlan(k=50, reps=3, analysis=(), master_seed=9)
        with pytest.raises(ParameterError, match=f"workers must be >= 1, got {workers}"):
            repeated_samples(self._population(), plan, workers=workers)


def pickled_bytes(monkeypatch) -> list[int]:
    """Sizes of every buffer the process pool pickles for its workers."""
    sizes: list[int] = []
    base = multiprocessing.queues._ForkingPickler

    class Counting(base):
        @classmethod
        def dumps(cls, obj, protocol=None):
            buf = base.dumps(obj, protocol)
            sizes.append(len(buf))
            return buf

    monkeypatch.setattr(multiprocessing.queues, "_ForkingPickler", Counting)
    return sizes


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports biaslab from this one's path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)


# prepended to a fresh process's code: how many children the process has
# left, running or ended but not joined
CHILDREN_LEFT = """
import os
def children_left():
    left = 0
    try:
        while os.waitpid(-1, os.WNOHANG) != (0, 0):
            left += 1
    except ChildProcessError:
        return left
    return left + 1
"""


def stop_start_method_helpers() -> None:
    """Stop the forkserver and the resource tracker that a forkserver or spawn
    pool starts, so that no test leaves a process running."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def failing_template(reps, seed):
    """n in [2, 6] against a three-parameter fit: replicates with n <= 3 fail."""
    scm = ScmSpec(
        n="n",
        sources=(SourceSpec("c", "normal", {"mean": 0, "sd": 1}),),
        equations=(
            EquationSpec("x", linear=(("c", "a"),), error=ErrorTerm(1.0, 0, 1.0)),
            EquationSpec("y", linear=(("x", 1.0), ("c", 1.0)), error=ErrorTerm(1.0, 0, 1.0)),
        ),
    )
    return McTemplate(
        scm=scm, n=RangeSpec(2, 6), bindings=(("a", RangeSpec(1, 2)),),
        analysis=(FitStep("y ~ x + c", (("bx", "b:x"),)),),
        reps=reps, master_seed=seed,
    )


def rare_group_population():
    """1000 rows with g = 1 in 20 of them: most samples of 20 hold no g = 1."""
    g = np.zeros(1000)
    g[::50] = 1.0
    e = np.random.default_rng(5).normal(size=1000)
    return Dataset({"g": g, "y": 2.0 * g + e})


class TestReplicateRunner:
    def test_population_is_not_shipped_per_chunk(self, monkeypatch):
        rows = 200_000
        rng = np.random.default_rng(1)
        g = rng.normal(size=rows)
        pop = Dataset({"g": g, "y": 2.0 * g + rng.normal(size=rows)})
        nbytes = sum(v.nbytes for _, v in pop.items())
        plan = SamplingPlan(k=100, reps=64, analysis=(FitStep("y ~ g", (("slope", "b:g"),)),),
                            master_seed=4)
        sizes = pickled_bytes(monkeypatch)
        pooled = repeated_samples(pop, plan, workers=2)
        assert sizes, "the pool pickled nothing"
        assert sum(sizes) < nbytes
        assert same_columns(pooled.columns, repeated_samples(pop, plan).columns)

    @pytest.mark.parametrize("reps", [2, 30])  # fewer and more replicates than workers
    @pytest.mark.parametrize("driver", ["run_mc", "repeated_samples"])
    def test_pooled_equals_serial_with_failures(self, driver, reps):
        if driver == "run_mc":
            template = failing_template(reps, seed=8)
            call = lambda workers: run_mc(template, workers=workers)
            job = (template, mc._template_data, (template,))
        else:
            pop = rare_group_population()
            plan = SamplingPlan(k=20, reps=reps, analysis=(FitStep("y ~ g", (("slope", "b:g"),)),),
                                master_seed=6)
            call = lambda workers: repeated_samples(pop, plan, workers=workers)
            job = (plan, mc._sample_data, (pop, plan))
        serial, pooled = call(1), call(3)
        if reps == 30:
            assert 0 < len(serial.errors) < reps
        # the bits of NaN cells too, which == does not compare
        assert same_columns(pooled.columns, serial.columns)
        assert pooled.errors == serial.errors
        assert pooled.template_hash == serial.template_hash
        # the start methods that pickle the job to each process instead of forking it
        for method in ("forkserver", "spawn"):
            try:
                shipped = mc._run_replicates(*job, 2, multiprocessing.get_context(method))
            finally:
                stop_start_method_helpers()
            assert same_columns(shipped.columns, serial.columns), method
            assert shipped.errors == serial.errors, method

    @pytest.mark.skipif(sys.platform != "linux", reason="the patched runner reaches the children by fork")
    def test_a_child_that_dies_ends_the_call_with_an_error(self, tmp_path):
        code = """
import sys
from biaslab import cli, mc
parent, run_chunk = os.getpid(), mc._run_chunk
def dying(ids, job=None):
    return run_chunk(ids, job) if os.getpid() == parent else os._exit(9)
mc._run_chunk = dying
rc = cli.main(['run', '--catalog', 'entry8-collider-pp-mc', '--reps', '40', '--seed', '1',
               '--threads', '2', '--out', sys.argv[1]])
print(rc, children_left())
"""
        proc = run_fresh(CHILDREN_LEFT + code, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["3", "0"]
        assert re.fullmatch(r"error: pool process \S+ exited with code 9 before sending its replicates\n",
                            proc.stderr)

    @pytest.mark.skipif(sys.platform != "linux", reason="the patched step reaches the children by fork")
    def test_an_exception_in_a_child_is_raised_in_the_parent(self):
        code = """
from biaslab.catalog import collider_template
from biaslab.mc import FitStep, McTemplate, run_mc
parent, fit_run = os.getpid(), FitStep.run
def run(step, data):
    if os.getpid() != parent:
        raise TypeError(f"step {step.formula!r} cannot run")
    return fit_run(step, data)
FitStep.run = run
try:
    run_mc(McTemplate.from_json_dict(collider_template(reps=40, seed=1)), workers=2)
except TypeError as exc:
    print(repr(exc), children_left())
"""
        proc = run_fresh(CHILDREN_LEFT + code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "TypeError(\"step 'y ~ x + col' cannot run\") 0\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="finds OpenBLAS in /proc/self/maps")
    def test_pool_processes_hold_blas_at_one_thread(self):
        # without OPENBLAS_NUM_THREADS each pool process ran OpenBLAS's default
        # thread count, so two processes ran four threads on two CPUs and the
        # pooled loop was slower than the serial one
        code = """
import ctypes, os
from biaslab.catalog import collider_template
from biaslab.mc import FitStep, McTemplate, run_mc
with open("/proc/self/maps") as fh:
    paths = {line.split(None, 5)[-1].strip() for line in fh if "libscipy_openblas64_" in line}
if not paths:
    raise SystemExit("no OpenBLAS")
threads = ctypes.CDLL(paths.pop()).scipy_openblas_get_num_threads64_
parent, fit_run, calls = os.getpid(), FitStep.run, {}
def run(step, data):
    # each process's count in its first pooled replicate; the parent runs replicate 0 first
    pid = os.getpid()
    calls[pid] = calls.get(pid, 0) + 1
    if calls[pid] == (2 if pid == parent else 1):
        os.write(1, f"{'parent' if os.getpid() == parent else 'child'} {threads()}\\n".encode())
    return fit_run(step, data)
template = McTemplate.from_json_dict(collider_template(reps=400, seed=1))
serial = run_mc(template)
before = threads()
FitStep.run = run
pooled = run_mc(template, workers=2)
print("after", threads() == before)
print(all(serial.columns[c].tobytes() == pooled.columns[c].tobytes() for c in serial.columns))
"""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode and proc.stderr == "no OpenBLAS\n":
            pytest.skip("numpy loads no libscipy_openblas64_")
        assert proc.returncode == 0, proc.stderr
        assert sorted(proc.stdout.splitlines()) == sorted(["child 1", "parent 1", "after True", "True"])

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity and two allowed CPUs")
    def test_each_process_starts_on_its_own_cpu(self):
        # read from the affinity calls, not from where the scheduler ran each process
        code = """
import json, os
import numpy as np
from biaslab.data import Dataset
from biaslab.mc import FitStep, SamplingPlan, repeated_samples
set_affinity = os.sched_setaffinity
def logged(pid, cpus):  # this process, the set it had, the set it asks for
    os.write(1, (json.dumps([os.getpid(), sorted(os.sched_getaffinity(pid)), sorted(cpus)]) + "\\n").encode())
    set_affinity(pid, cpus)
os.sched_setaffinity = logged
os.write(1, (json.dumps(os.getpid()) + "\\n").encode())
g = np.random.default_rng(5).normal(size=400)
pop = Dataset({'g': g, 'y': 2.0 * g})
plan = SamplingPlan(k=50, reps=20, master_seed=3, analysis=(FitStep('y ~ g', (('slope', 'b:g'),)),))
assert not repeated_samples(pop, plan, workers=2).errors
"""
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr
        parent, *calls = map(json.loads, proc.stdout.splitlines())
        by_pid: dict = {}
        for pid, had, asked in calls:
            by_pid.setdefault(pid, []).append((had, asked))
        assert parent in by_pid and len(by_pid) == 2
        placed = []
        for (had, cpu), (_, restored) in by_pid.values():
            assert len(cpu) == 1 and set(cpu) < set(had) and restored == had
            placed += cpu
        assert placed[0] != placed[1]

    def test_pool_workers_inherit_scipy_special_from_the_parent(self):
        # a loop that reads a p-value or fits a logit needs scipy.special: the
        # parent runs replicate 0 before the workers fork, so it loads the module
        # there and neither worker imports it again; the pooled columns stay the serial ones
        code = """
import sys
import numpy as np
from biaslab.catalog import catalog_config
from biaslab.data import Dataset
from biaslab.mc import FitStep, McTemplate, SamplingPlan, repeated_samples, run_mc
if sys.argv[1] == 'p':
    doc = catalog_config('entry8-collider-pp-mc')['mc']
    analysis = [{**doc['analysis'][0], 'record': {'bxy_adj': 'b:x', 'p_x': 'p:x'}}]
    template = McTemplate.from_json_dict({**doc, 'analysis': analysis, 'reps': 12})
    call = lambda workers: run_mc(template, workers=workers)
else:
    g = np.random.default_rng(5).normal(size=400)
    pop = Dataset({'g': g, 'd': (g + np.random.default_rng(6).logistic(size=400) > 0) * 1.0})
    plan = SamplingPlan(k=100, reps=12, master_seed=3,
                        analysis=(FitStep('d ~ g', (('slope', 'b:g'),), family='binomial'),))
    call = lambda workers: repeated_samples(pop, plan, workers=workers)
before = 'scipy.special' in sys.modules
pooled = call(2)
after = 'scipy.special' in sys.modules
serial = call(1)
same = not serial.errors and list(pooled.columns) == list(serial.columns) and all(
    pooled.columns[k].dtype == v.dtype and pooled.columns[k].tobytes() == v.tobytes()
    for k, v in serial.columns.items())
print(before, after, same)
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for step in ("p", "binomial"):
            proc = subprocess.run([sys.executable, "-c", code, step], env=env, capture_output=True,
                                  text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == ["False", "True", "True"], step

    def test_loops_that_record_no_p_value_never_load_scipy(self, tmp_path):
        # the catalog loops record estimates, SEs and ratios, and a fit computes
        # its p-values only when they are read, so none of these loads scipy
        code = """
import json, sys
from biaslab.catalog import catalog_config
from biaslab.cli import main
from biaslab.mc import McTemplate, run_mc
out = sys.argv[1]
assert main(['run', '--catalog', 'entry8-collider-pp-mc', '--reps', '20', '--seed', '1',
             '--out', out + '/collider']) == 0
doc = catalog_config('entry11-iv-correlated-confounder-mc')['mc']
assert not run_mc(McTemplate.from_json_dict({**doc, 'reps': 20})).errors
# the scenario's population fit is left out: its printed table reads p-values
doc = {k: v for k, v in catalog_config('entry5-sampling-random').items() if k != 'analyses'}
with open(out + '/sampling.json', 'w') as f:
    json.dump(doc, f)
assert main(['run', '--config', out + '/sampling.json', '--reps', '20', '--threads', '2',
             '--out', out + '/sampling']) == 0
print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.skipif(sys.platform != "linux", reason="sets glibc's malloc thresholds")
    def test_a_repeated_loop_reuses_its_freed_heap(self):
        # each replicate at n in [5000, 10000] frees a few MB of arrays; the
        # second run of the loop finds them in the heap instead of faulting
        # them in again (thousands of minor page faults under glibc's defaults)
        code = """
import resource
from biaslab.catalog import iv_template
from biaslab.mc import McTemplate, run_mc
template = McTemplate.from_json_dict(iv_template('valid', reps=20, seed=5, n=(5000, 10000)))
run_mc(template)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_mc(template)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 500

    def test_failed_replicate_keeps_draws_and_nan_fills(self):
        res = run_mc(failing_template(30, seed=8))
        for i, msg in res.errors.items():
            rec = row(res, i)
            assert rec["N"] <= 3 and 1 <= rec["a"] <= 2
            assert math.isnan(rec["bx"])
            assert msg.startswith("DataError: ")


# The boundaries whose calls the benchmark's traced runs time (bench/tracing.py):
# a function is swapped wherever a biaslab module holds it, a method on its
# class.  The per-layer split is only right if every replicate still calls each
# one, and through those names.
_TRACED_FUNCTIONS = {
    "derive_substream": rng.derive_substream,
    "sample_indices": rng.sample_indices,
    "bind_spec": bind_spec,
    "evaluate_scm": scm.evaluate_scm,
    "fit_ols": fit_ols,
    "iv_wald": causal.iv_wald,
}
_TRACED_METHODS = {
    "RangeSpec.draw_int": (RangeSpec, "draw_int"),
    "FitStep.run": (FitStep, "run"),
    "IvStep.run": (IvStep, "run"),
    "Dataset.select_rows": (Dataset, "select_rows"),
}


@pytest.fixture
def boundary_calls(monkeypatch) -> Counter:
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {id(fn): counted(name, fn) for name, fn in _TRACED_FUNCTIONS.items()}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "biaslab" or mod_name.startswith("biaslab."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(value)])
    for name, (cls, attr) in _TRACED_METHODS.items():
        monkeypatch.setattr(cls, attr, counted(name, vars(cls)[attr]))
    return calls


@pytest.mark.parametrize("loop", ["collider", "iv", "sampling"])
def test_each_traced_boundary_is_called_per_replicate(boundary_calls, loop):
    reps = 5
    if loop == "sampling":
        g = np.random.default_rng(3).normal(size=400)
        pop = Dataset({"g": g, "y": 2.0 * g + np.random.default_rng(4).normal(size=400)})
        plan = SamplingPlan(k=50, reps=reps, analysis=(FitStep("y ~ g", (("slope", "b:g"),)),),
                            master_seed=2)
        res = repeated_samples(pop, plan)
        per_rep = ["derive_substream", "sample_indices", "Dataset.select_rows"]
        steps = plan.analysis
    else:
        doc = collider_template if loop == "collider" else lambda **kw: iv_template("valid", **kw)
        template = McTemplate.from_json_dict(doc(reps=reps, seed=3))
        res = run_mc(template)
        per_rep = ["derive_substream", "RangeSpec.draw_int", "bind_spec", "evaluate_scm"]
        steps = template.analysis
    assert res.errors == {}
    fits = sum(isinstance(s, FitStep) for s in steps)
    ivs = sum(isinstance(s, IvStep) for s in steps)
    expected = Counter({name: reps for name in per_rep})
    expected.update({"fit_ols": fits * reps, "FitStep.run": fits * reps,
                     "iv_wald": ivs * reps, "IvStep.run": ivs * reps})
    assert +expected == boundary_calls


class TestAggregation:
    def _result(self):
        return run_mc(small_template(reps=40, seed=21))

    def test_always_true_filter_unchanged(self):
        res = self._result()
        kept = filter_replicates(res, [("bxy", ">=", -1e18)])
        assert same_columns(kept.columns, res.columns)
        assert kept.n_filtered == 0

    def test_filter_drops_and_counts(self):
        res = self._result()
        med = float(np.median(res.series("bxy")))
        kept = filter_replicates(res, [("bxy", ">=", med)])
        assert 0 < len(kept) < len(res)
        assert kept.n_filtered == len(res) - len(kept)

    def test_missing_rows_fail_predicates(self):
        res = self._result()
        res.columns["bxy"][0] = math.nan
        kept = filter_replicates(res, [("bxy", ">=", -1e18)])
        assert len(kept) == len(res) - 1

    # cells 2, NaN, 3 against 2: the replicates each op keeps; NaN fails them all, != included
    @pytest.mark.parametrize("op, kept", [("<", []), ("<=", [0]), (">", [2]), (">=", [0, 2]),
                                          ("==", [0]), ("!=", [2])])
    def test_nan_cell_fails_every_op(self, op, kept):
        assert sorted(causal._OPS) == sorted(["<", "<=", ">", ">=", "==", "!="])
        res = run_mc(small_template(reps=3, seed=4))
        res.columns["bxy"][:] = [2.0, math.nan, 3.0]
        out = filter_replicates(res, [("bxy", op, 2.0)])
        assert out.columns["i"].tolist() == kept
        assert out.n_filtered == 3 - len(kept)

    def test_summary_six_numbers(self):
        res = self._result()
        s = summarize_series(res, "bxy")
        x = res.series("bxy")
        assert s.min == x.min() and s.max == x.max()
        assert s.q1 == pytest.approx(quantile7_oracle(x, 0.25))
        assert s.median == pytest.approx(quantile7_oracle(x, 0.5))
        assert s.q3 == pytest.approx(quantile7_oracle(x, 0.75))
        assert s.mean == pytest.approx(x.mean())

    def test_trivial_summary(self):
        res = run_mc(small_template(reps=5, seed=1))
        for i, v in enumerate([1.0, 2, 3, 4, 5]):
            res.columns["bxy"][i] = v
        s = summarize_series(res, "bxy")
        assert (s.min, s.q1, s.median, s.mean, s.q3, s.max) == (1, 2, 3, 3, 4, 5)

    def test_filter_then_summarize_commutes(self):
        res = self._result()
        kept = filter_replicates(res, [("bxy", ">", 0.3)])
        direct = np.array([v for v in res.series("bxy") if v > 0.3])
        s = summarize_series(kept, "bxy")
        assert s.mean == pytest.approx(direct.mean())
        assert s.median == pytest.approx(quantile7_oracle(direct, 0.5))

    def test_series_correlation(self):
        res = self._result()
        r = series_correlation(res, "bxy", "a")
        assert -1 <= r <= 1

    def test_histogram_counts_sum(self):
        res = self._result()
        bins = histogram(res, "bxy", 7)
        assert sum(c for _, _, c in bins) == len(res)
        assert bins[0][0] == res.series("bxy").min()
        assert bins[-1][1] == res.series("bxy").max()

    def test_histogram_constant_series(self):
        res = run_mc(small_template(reps=5, seed=2))
        res.columns["bxy"][:] = 3.0
        bins = histogram(res, "bxy", 3)
        assert [c for _, _, c in bins] == [5, 0, 0]

    def test_unknown_series_rejected(self):
        with pytest.raises(ValidationError):
            summarize_series(self._result(), "ghost")


def test_csv_export_missing_empty(tmp_path):
    res = run_mc(small_template(reps=3, seed=4))
    res.columns["bxy"][1] = math.nan
    p = tmp_path / "mc.csv"
    write_mc_csv(res, str(p))
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "i,N,a,b,sd_c,bxy,se_xy"
    assert len(lines) == 4
    row1 = lines[2].split(",")
    assert row1[5] == ""  # bxy missing cell
