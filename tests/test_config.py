"""Scenario configs: every analysis kind end to end, parse-time validation, docs."""

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from biaslab import config
from biaslab.catalog import catalog_config
from biaslab.cli import main as cli_main
from biaslab.config import parse_config, run_scenario
from biaslab.errors import ValidationError, shown
from biaslab.regress import Formula
from biaslab.scm import ScmSpec

_ERR = {"coef": 1.0, "mean": 0.0, "sd": 1.0}
_SCM = {
    "n": 200,
    "sources": [
        {"name": "Z", "kind": "normal", "params": {"mean": 0, "sd": 1}},
        {"name": "sex", "kind": "pattern", "params": {"values": [1, 2], "mode": "each", "k": 100}},
        {"name": "G", "kind": "uniform_int", "params": {"lo": 0, "hi": 1}},
    ],
    "equations": [
        {"target": "X", "linear": [["Z", 2.0]], "error": _ERR},
        {"target": "M", "linear": [["X", 0.5]], "error": _ERR},
        {"target": "Y", "linear": [["X", 0.4], ["M", 0.3]], "error": _ERR},
    ],
}

# One analysis of every kind, named after its kind.
_EVERY_KIND = [
    {"kind": "fit", "formula": "Y ~ X + M"},
    {"kind": "collinearity", "formula": "Y ~ X + M + Z"},
    {"kind": "compare_adjustments", "y": "Y", "x": "X", "covariate_sets": [[], ["M"]]},
    {"kind": "iv", "y": "Y", "x": "X", "instrument": "Z"},
    {"kind": "mediation", "y": "Y", "x": "X", "m": "M"},
    {"kind": "moderated_fit", "y": "Y", "x": "X", "mo": "M"},
    {"kind": "subgroup", "y": "Y", "x": "X", "where": [{"var": "Z", "op": ">", "value": 0}]},
    {"kind": "balance", "group": "G", "covariates": ["X", "Z"]},
    {"kind": "block_balance", "strata": "sex", "covariates": ["X"], "as": "T"},
    {"kind": "attenuation", "y": "Y", "x": "X",
     "variants": [{"label": "median_split", "target": "x", "rule": {"kind": "dichotomize_median"}}]},
    {"kind": "summary", "var": "Y"},
    {"kind": "correlation", "x": "X", "y": "Y", "method": "spearman"},
    {"kind": "outlier_fit", "assign": {"X": 5, "Y": "mean:Y"}, "formula": "Y ~ X"},
    {"kind": "recode", "var": "M", "as": "M_hi", "rule": {"kind": "dichotomize_median"}},
]

_FIT_CSV = ["term", "b", "se", "stat", "p", "beta"]
_FIT_JSON = ["family", "terms", "b", "se", "stat", "p", "beta", "cutpoints", "cutpoint_se",
             "cutpoint_names", "r2", "adj_r2", "deviance", "null_deviance", "aic", "n_used",
             "n_dropped", "df_residual", "converged", "iterations"]
_FIELD_VALUE = ["field", "value"]
_BALANCE_CSV = ["covariate", "delta_mean", "delta_sd", "delta_skew", "delta_kurtosis"]

# kind -> (CSV header row, JSON top-level keys)
_EXPECTED = {
    "fit": (_FIT_CSV, _FIT_JSON),
    "collinearity": (["term", "tolerance", "vif", "eigenvalue", "condition_index"],
                     ["terms", "tolerance", "vif", "eigenvalues", "condition_indices"]),
    "compare_adjustments": (_FIELD_VALUE,
                            ["scenario_id", "focal_term", "truth", "fits", "focal", "errors"]),
    "iv": (_FIELD_VALUE, ["b_yin", "se_yin", "b_xin", "se_xin", "ratio", "weak"]),
    "mediation": (_FIELD_VALUE, ["path_xm", "path_xm_se", "path_my", "path_my_se", "direct",
                                 "direct_se", "indirect", "total", "sobel_se", "z_indirect",
                                 "ci_low", "ci_high"]),
    "moderated_fit": (_FIT_CSV, _FIT_JSON),
    "subgroup": (_FIT_CSV, _FIT_JSON),
    "balance": (_BALANCE_CSV, ["X", "Z"]),
    "block_balance": (_BALANCE_CSV, ["X"]),
    "attenuation": (["label", "spearman", "slope", "se", "stat", "chisq", "n_used"], ["rows"]),
    "summary": (_FIELD_VALUE, ["n", "n_missing", "min", "q1", "median", "mean", "q3", "max",
                               "sd", "variance", "skew", "excess_kurtosis"]),
    "correlation": (_FIELD_VALUE, ["method", "x", "y", "r", "n_used"]),
    "outlier_fit": (_FIT_CSV, _FIT_JSON),
    "recode": (_FIELD_VALUE, ["column", "levels", "n_missing"]),
}


def _every_kind_config() -> dict:
    analyses = [{**a, "name": a["kind"]} for a in _EVERY_KIND]
    outputs = [
        {"what": f"analysis:{a['kind']}", "path": f"{a['kind']}.{fmt}", "format": fmt}
        for a in _EVERY_KIND for fmt in ("json", "csv")
    ]
    outputs += [
        {"what": "dataset", "path": "data.csv"},
        {"what": "scatter:X:Y", "path": "scatter.csv"},
        {"what": "fitted_line:fit:X", "path": "line.csv"},
        {"what": "histogram:Y:10", "path": "hist.csv"},
        {"what": "histogram:M_hi:2", "path": "hist_added.csv"},  # a column recode adds
    ]
    return {"id": "every-kind", "seed": 11, "scm": _SCM, "analyses": analyses, "outputs": outputs}


def _scm_config(*analyses) -> dict:
    return {"id": "t", "seed": 1, "scm": _SCM, "analyses": list(analyses), "outputs": []}


class TestEveryAnalysisKind:
    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("every-kind")
        run = run_scenario(parse_config(_every_kind_config()), out_dir=str(out))
        assert run.analysis_errors == {}
        return out

    def test_covers_every_kind(self):
        assert [a["kind"] for a in _EVERY_KIND] == list(_EXPECTED)

    @pytest.mark.parametrize("kind", sorted(_EXPECTED))
    def test_csv_header_and_json_keys(self, out, kind):
        header, keys = _EXPECTED[kind]
        lines = (out / f"{kind}.csv").read_text().splitlines()
        assert lines[0].split(",") == header
        assert len(lines) > 1
        assert list(json.loads((out / f"{kind}.json").read_text())) == keys

    def test_dataset_and_plot_outputs(self, out):
        def lines(name):
            return (out / name).read_text().splitlines()

        # the columns added by block_balance and recode are part of the dataset
        assert lines("data.csv")[0] == "Z,sex,G,X,M,Y,T,M_hi"
        assert len(lines("data.csv")) == 201
        assert lines("scatter.csv")[0] == "X,Y" and len(lines("scatter.csv")) == 201
        assert lines("line.csv")[0] == "X,fitted" and len(lines("line.csv")) == 101
        hist = lines("hist.csv")
        assert hist[0] == "lo,hi,count" and len(hist) == 11
        assert sum(int(row.rsplit(",", 1)[1]) for row in hist[1:]) == 200
        assert sum(int(row.rsplit(",", 1)[1]) for row in lines("hist_added.csv")[1:]) == 200


def _cli_run_config(tmp_path, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return subprocess.run([sys.executable, "-m", "biaslab.cli", "run", "--config", str(p)],
                          capture_output=True, text=True)


_VARIANT = {"label": "m", "target": "x", "rule": {"kind": "dichotomize_median"}}
_MALFORMED = {
    "variant-without-label": _scm_config(
        {"kind": "attenuation", "y": "Y", "x": "X",
         "variants": [{k: v for k, v in _VARIANT.items() if k != "label"}]}),
    "variant-without-rule": _scm_config(
        {"kind": "attenuation", "y": "Y", "x": "X",
         "variants": [{k: v for k, v in _VARIANT.items() if k != "rule"}]}),
    "outlier-assign-list": _scm_config(
        {"kind": "outlier_fit", "assign": [["X", 5]], "formula": "Y ~ X"}),
    "covariate-sets-number": _scm_config(
        {"kind": "compare_adjustments", "y": "Y", "x": "X", "covariate_sets": 5}),
    "where-without-op": _scm_config(
        {"kind": "subgroup", "y": "Y", "x": "X", "where": [{"var": "Z", "value": 0}]}),
    "analyses-number": {**_scm_config(), "analyses": 7},
    "scm-linear-object": {"id": "t", "seed": 1, "scm": {
        "n": 10, "sources": [{"name": "x", "kind": "normal", "params": {"mean": 0, "sd": 1}}],
        "equations": [{"target": "y", "linear": {"x": 1}}]}},
}


@pytest.mark.parametrize("shape", sorted(_MALFORMED))
def test_malformed_config_exits_2_without_traceback(tmp_path, shape):
    proc = _cli_run_config(tmp_path, _MALFORMED[shape])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "validation error:" in proc.stderr


def test_malformed_analysis_error_names_its_path():
    with pytest.raises(ValidationError, match=r"analyses\[1\]"):
        parse_config(_scm_config({"kind": "summary", "var": "Y"},
                                 {"kind": "outlier_fit", "assign": [], "formula": "Y ~ X"}))


@pytest.mark.parametrize("analysis", [
    {"kind": "collinearity", "formula": "Y ~ X + nope"},
    {"kind": "outlier_fit", "assign": {"X": 5}, "formula": "Y ~ nope"},
    {"kind": "outlier_fit", "assign": {"X": 5, "Y": "mean:nope"}, "formula": "Y ~ X"},
    {"kind": "balance", "group": "nope", "covariates": ["X"]},
    {"kind": "block_balance", "strata": "nope", "covariates": ["X"]},
], ids=["collinearity-formula", "outlier-formula", "outlier-mean", "balance-group",
        "block-strata"])
def test_unknown_column_is_rejected_at_parse_time(analysis):
    with pytest.raises(ValidationError, match="unknown column 'nope'"):
        parse_config(_scm_config(analysis))


@pytest.mark.parametrize("ident, whats", [
    ("entry8-collider-pp-mc", ["histogram:N:4", "mc_summary:i", "histogram:b_xc:3", "mc_summary:bxy_adj"]),
    ("entry5-sampling-random", ["histogram:i:2", "mc_summary:N", "histogram:slope:5", "scatter:EP:SIEM"]),
])
def test_outputs_may_name_every_series(ident, whats):
    doc = catalog_config(ident)
    doc["outputs"] = [{"what": w, "path": f"out{k}"} for k, w in enumerate(whats)]
    assert [o["what"] for o in parse_config(doc).outputs] == whats


def test_unknown_column_exits_2(tmp_path):
    proc = _cli_run_config(tmp_path, _scm_config({"kind": "balance", "group": "nope",
                                                  "covariates": ["X"]}))
    assert proc.returncode == 2, proc.stderr


@pytest.mark.parametrize("block", [{}, {"as": "T"}], ids=["default-as", "named-as"])
def test_block_balance_column_is_defined_for_later_analyses(block):
    assigned = block.get("as", "treated")
    cfg = parse_config(_scm_config(
        {"kind": "block_balance", "strata": "sex", "covariates": ["X"], **block},
        {"kind": "fit", "name": "f", "formula": f"Y ~ {assigned} + X"},
    ))
    run = run_scenario(cfg)
    assert run.analysis_errors == {}
    assert assigned in run.artifacts["f"].terms


def test_readme_table_lists_every_analysis_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", readme, flags=re.M)
    table = {kind: tuple(re.findall(r"`(\w+)`", fields)) for kind, fields in rows}
    assert table == {kind: required for kind, (required, _) in config._ANALYSES.items()}
    assert set(table) == set(_EXPECTED)


def _catalog_with(ident: str, kind: str, **fields) -> dict:
    """Catalog scenario ``ident`` with ``fields`` set in its ``kind`` document."""
    doc = catalog_config(ident)
    doc[kind] = {**doc[kind], **fields}
    return doc


# each integer field given a value that is not an integer, and the words that name it
_NOT_INTEGER = {
    "mc.reps-float": (_catalog_with("entry8-collider-pp-mc", "mc", reps=2.5), "mc.reps:"),
    "mc.reps-bool": (_catalog_with("entry8-collider-pp-mc", "mc", reps=True), "mc.reps:"),
    "mc.reps-string": (_catalog_with("entry8-collider-pp-mc", "mc", reps="3"), "mc.reps:"),
    "mc.n": (_catalog_with("entry8-collider-pp-mc", "mc", reps=2, n=150.7), "mc.n:"),
    "mc.n-range": (_catalog_with("entry8-collider-pp-mc", "mc", reps=2, n={"lo": 100.5, "hi": 120.9}),
                   "mc.n.lo:"),
    "population.sampling.k": (_catalog_with("entry5-sampling-random", "population", sampling={
        **catalog_config("entry5-sampling-random")["population"]["sampling"], "k": 10.5, "reps": 2}),
        "population.sampling.k:"),
    "corr.n": (_catalog_with("entry3-collinearity-none", "corr", n=999.9), "corr.n:"),
    "scm.n": (_catalog_with("entry1-linearity", "scm", n=100.5), "scm.n:"),
    "population.scm.n": (_catalog_with("entry5-sampling-random", "population", scm={
        **catalog_config("entry5-sampling-random")["population"]["scm"], "n": 100.5}),
        "population.scm.n:"),
}


@pytest.mark.parametrize("case", sorted(_NOT_INTEGER))
def test_integer_field_that_is_not_an_integer_exits_2(tmp_path, capsys, case):
    doc, named = _NOT_INTEGER[case]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"validation error: {named} must be an integer" in err
    assert not (tmp_path / "out").exists()


# an MC loop whose sample size is below 1, and its error
_MC_SIZE_BELOW_1 = {
    "n-range-0": ({"lo": 0, "hi": 0}, "mc.n.lo: must be >= 1, got 0"),
    "n-range-from-0": ({"lo": 0, "hi": 5}, "mc.n.lo: must be >= 1, got 0"),
    "n-negative": (-3, "mc.n: must be >= 1, got -3"),
}


@pytest.mark.parametrize("case", sorted(_MC_SIZE_BELOW_1))
def test_mc_sample_size_below_1_exits_2_before_anything_runs(tmp_path, capsys, case):
    n, message = _MC_SIZE_BELOW_1[case]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_catalog_with("entry8-collider-pp-mc", "mc", reps=3, n=n)))
    assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"validation error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _node(doc: dict, *path):
    """The document at ``path`` inside ``doc``."""
    for key in path:
        doc = doc[key]
    return doc


def _without(ident: str, key: str, *path) -> dict:
    """Catalog scenario ``ident`` without ``key`` in its document at ``path``."""
    doc = catalog_config(ident)
    del _node(doc, *path)[key]
    return doc


# an MC loop's step that lacks a required key, the path its error names, and the key
_STEP_WITHOUT_KEY = {
    "mc-fit-formula": (_without("entry8-collider-pp-mc", "formula", "mc", "analysis", 0),
                       "mc.analysis[0]", "formula"),
    "sampling-fit-formula": (_without("entry5-sampling-random", "formula",
                                      "population", "sampling", "analysis", 0),
                             "population.sampling.analysis[0]", "formula"),
    "mc-iv-x": (_without("entry11-iv-valid-mc", "x", "mc", "analysis", 1), "mc.analysis[1]", "x"),
}


@pytest.mark.parametrize("case", sorted(_STEP_WITHOUT_KEY))
def test_step_without_a_required_key_exits_2_naming_its_path(tmp_path, capsys, case):
    doc, path, key = _STEP_WITHOUT_KEY[case]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(p), "--reps", "2", "--out", str(tmp_path / "out")]) == 2
    assert f"validation error: {path}.{key}: required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _with_family(ident: str, *path) -> dict:
    """Catalog scenario ``ident`` with ``family: poisson`` in its document at ``path``."""
    doc = catalog_config(ident)
    _node(doc, *path)["family"] = "poisson"
    return doc


# every place a config names a family, given one that no fitter serves
_UNKNOWN_FAMILY = {
    "fit": _with_family("entry1-linearity", "analyses", 0),
    "outlier_fit": _with_family("entry4-outliers", "analyses", 1),
    "mc-fit-step": _with_family("entry8-collider-pp-mc", "mc", "analysis", 0),
    "sampling-fit-step": _with_family("entry5-sampling-random", "population", "sampling", "analysis", 0),
    "attenuation": _with_family("entry13-response-measurement", "analyses", 0, "variants", 0),
}


# the path of the family field that each error names
_FAMILY_PATH = {"fit": "analyses[0]", "outlier_fit": "analyses[1]", "mc-fit-step": "mc.analysis[0]",
                "sampling-fit-step": "population.sampling.analysis[0]",
                "attenuation": "analyses[0].variants[0]"}


@pytest.mark.parametrize("case", sorted(_UNKNOWN_FAMILY))
def test_unknown_family_exits_2_before_anything_runs(tmp_path, capsys, case):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_UNKNOWN_FAMILY[case]))
    assert cli_main(["run", "--config", str(p), "--reps", "2", "--out", str(tmp_path / "out")]) == 2
    assert f"{_FAMILY_PATH[case]}.family: unknown family 'poisson'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("selector, family, term", [
    ("b:zz", "gaussian", "zz"), ("b", "gaussian", ""), ("b:(Intercept)", "ordered", "(Intercept)")])
def test_fit_step_selector_of_a_term_the_fit_lacks_exits_2(tmp_path, capsys, selector, family, term):
    # before, every replicate raised "no term" and the loop recorded only NaN (exit 3)
    doc = catalog_config("entry8-collider-pp-mc")
    step = _node(doc, "mc", "analysis", 0)
    step["family"], step["record"]["bz"] = family, selector
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(p), "--reps", "2", "--out", str(tmp_path / "out")]) == 2
    have = ["x", "col"] if family == "ordered" else ["(Intercept)", "x", "col"]
    assert f"mc.analysis[0].record.bz: no term {term!r} in fit; have {have}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _with_sampling(**fields) -> dict:
    """entry5-sampling-random at 2 replicates, with ``fields`` set in its sampling document."""
    sampling = catalog_config("entry5-sampling-random")["population"]["sampling"]
    return _catalog_with("entry5-sampling-random", "population",
                         sampling={**sampling, "reps": 2, **fields})


def _fit_steps(*records) -> list[dict]:
    return [{"kind": "fit", "formula": "SIEM ~ EP", "record": r} for r in records]


# a sampling loop that cannot run, or whose recorded series clash, and its error
_BAD_SAMPLING_LOOP = {
    "reps-0": (_with_sampling(reps=0), "population.sampling.reps: must be >= 1"),
    "k-0": (_with_sampling(k=0), "population.sampling.k: must be >= 1"),
    "k-negative": (_with_sampling(k=-5), "population.sampling.k: must be >= 1"),
    "record-N": (_with_sampling(analysis=_fit_steps({"slope": "b:EP", "N": "se:EP"})),
                 "population.sampling.analysis[0].record.N: recorded series name 'N' collides"),
    "record-i": (_with_sampling(analysis=_fit_steps({"slope": "b:EP", "i": "se:EP"})),
                 "population.sampling.analysis[0].record.i: recorded series name 'i' collides"),
    "record-twice": (_with_sampling(analysis=_fit_steps({"slope": "b:EP"}, {"slope": "se:EP"})),
                     "population.sampling.analysis[1].record.slope: recorded series name 'slope' collides"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SAMPLING_LOOP))
def test_sampling_loop_that_cannot_run_or_clashes_exits_2(tmp_path, capsys, case):
    doc, message = _BAD_SAMPLING_LOOP[case]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"validation error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _edited(ident: str, edit) -> dict:
    """Catalog scenario ``ident`` after ``edit(doc)``."""
    doc = catalog_config(ident)
    edit(doc)
    return doc


def _refusal(tmp_path, capsys, doc) -> str:
    """The stderr of ``biaslab run`` on ``doc``, which exits 2 before it writes anything."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(p), "--reps", "2", "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    return capsys.readouterr().err


_LEAKED = re.compile(r"malformed|KeyError|TypeError|ValueError|AttributeError")
_POP = "entry5-sampling-high-pea"


def _filter(doc: dict) -> dict:
    return doc["population"]["sampling"]["filter"][0]


# a field whose error named no path, or only Python's own error, and the path it now names
_COLLIDER = "entry8-collider-pp-mc"
_UNNAMED = {
    "binding-without-hi": (_edited(_COLLIDER, lambda d: d["mc"]["bindings"].update(b_xc={"lo": 1})),
                           "mc.bindings.b_xc.hi: required"),
    "n-range-string": (_edited(_COLLIDER, lambda d: d["mc"].update(n={"lo": 5, "hi": "x"})),
                       "mc.n.hi: must be a number, got 'x'"),
    "bindings-list": (_edited(_COLLIDER, lambda d: d["mc"].update(bindings=[])), "mc.bindings: "),
    "source-param-list": (_edited(_COLLIDER, lambda d: d["mc"]["scm"]["sources"][0]["params"].update(sd=[])),
                          "mc.scm.sources[0].params.sd: must be a number or a placeholder name, got []"),
    "filter-without-op": (_edited(_POP, lambda d: _filter(d).pop("op")),
                          "population.sampling.filter[0].op: required"),
    "mc-not-an-object": (_edited(_COLLIDER, lambda d: d.update(mc=True)), "mc: must be an object, got True"),
}


@pytest.mark.parametrize("case", sorted(_UNNAMED))
def test_malformed_field_exits_2_naming_its_path(tmp_path, capsys, case):
    doc, path = _UNNAMED[case]
    err = _refusal(tmp_path, capsys, doc)
    assert f"validation error: {path}" in err
    assert not _LEAKED.search(err), err


def _params(scm: dict, i: int) -> dict:
    """The params of source ``i`` of ``scm``."""
    return scm["sources"][i]["params"]


def _pattern_with_placeholder_k(doc: dict) -> None:
    doc["mc"]["scm"]["sources"].append(
        {"name": "P", "kind": "pattern", "params": {"values": [1, 2], "mode": "bogus", "k": "kk"}})
    doc["mc"]["bindings"]["kk"] = {"lo": 1, "hi": 1}


# a concrete source or error parameter that no draw can take, which used to
# pass parsing (to fail at run time, with no path or exit 3, or to be
# truncated), and the error that now names its path
_UNDRAWABLE = {
    "pattern-mode": (_edited("entry2-homoscedastic", lambda d: _params(d["scm"], 0).update(mode="bogus")),
                     "scm.sources[0].params.mode: must be 'each' or 'times', got 'bogus'"),
    "pattern-mode-placeholder-k": (_edited(_COLLIDER, _pattern_with_placeholder_k),
                                   "mc.scm.sources[2].params.mode: must be 'each' or 'times'"),
    "pattern-k-fraction": (_edited("entry2-homoscedastic", lambda d: (
        _params(d["scm"], 0).update(k=2.5), d["scm"].update(n=10))),
        "scm.sources[0].params: k must be a whole number, got 2.5"),
    "pattern-length": (_edited("entry2-homoscedastic", lambda d: _params(d["scm"], 0).update(k=100)),
                       "scm.sources[0].params.k: pattern length 5 x 100 != n = 1000"),
    "clamped-lo-above-hi": (_edited(_POP, lambda d: _params(d["population"]["scm"], 1).update(lo=20)),
                            "population.scm.sources[1].params: lo > hi, got lo=20, hi=19"),
    "clamped-negative-sd": (_edited(_POP, lambda d: _params(d["population"]["scm"], 1).update(sd=-2.5)),
                            "population.scm.sources[1].params: sd must be >= 0, got -2.5"),
    "normal-negative-sd": (_edited("entry1-linearity", lambda d: _params(d["scm"], 0).update(sd=-1)),
                           "scm.sources[0].params: sd must be >= 0, got -1"),
    "uniform-int-lo-above-hi": ({**_scm_config(), "scm": {**_SCM, "sources": [
        *_SCM["sources"][:2], {"name": "G", "kind": "uniform_int", "params": {"lo": 2, "hi": 1}}]}},
        "scm.sources[2].params: lo > hi, got lo=2, hi=1"),
    "error-negative-sd": (
        _edited("entry1-linearity", lambda d: d["scm"]["equations"][0]["error"].update(sd=-1)),
        "scm.equations[0].error.sd: must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(_UNDRAWABLE))
def test_undrawable_parameter_exits_2_naming_its_path(tmp_path, capsys, case):
    doc, message = _UNDRAWABLE[case]
    err = _refusal(tmp_path, capsys, doc)
    assert f"validation error: {message}" in err
    assert not _LEAKED.search(err), err


def test_placeholder_bound_to_an_undrawable_value_is_a_replicate_error():
    doc = _catalog_with(_COLLIDER, "mc", reps=2)
    doc["mc"]["scm"]["sources"].append(
        {"name": "C", "kind": "clamped_int_normal", "params": {"mean": 0, "sd": 1, "lo": "c_lo", "hi": 0}})
    doc["mc"]["bindings"]["c_lo"] = {"lo": 1, "hi": 2}
    result = run_scenario(parse_config(doc)).mc_result
    assert sorted(result.errors) == [0, 1]
    for tag in result.errors.values():
        assert tag.startswith("ValidationError: source 'C': lo > hi, got lo="), tag


def test_fractional_uniform_int_bound_exits_2_naming_its_path(tmp_path, capsys):
    # lo 0.9 used to be truncated to 0, so 2000 rows drew 0 as well as 1
    doc = {**_scm_config(), "scm": {**_SCM, "sources": [
        *_SCM["sources"][:2], {"name": "G", "kind": "uniform_int", "params": {"lo": 0.9, "hi": 1.9}}]}}
    err = _refusal(tmp_path, capsys, doc)
    assert "validation error: scm.sources[2].params: lo must be a whole number, got 0.9" in err
    assert not _LEAKED.search(err), err


def test_placeholder_bound_to_a_fractional_uniform_int_bound_is_a_replicate_error():
    doc = _catalog_with(_COLLIDER, "mc", reps=2)
    doc["mc"]["scm"]["sources"].append(
        {"name": "G", "kind": "uniform_int", "params": {"lo": 0, "hi": "g_hi"}})
    doc["mc"]["bindings"]["g_hi"] = {"lo": 1.25, "hi": 1.75}
    result = run_scenario(parse_config(doc)).mc_result
    assert sorted(result.errors) == [0, 1]
    for tag in result.errors.values():
        assert tag.startswith("ValidationError: source 'G': hi must be a whole number, got 1."), tag


# a value that used to be coerced and run, and the error that now refuses it
_COERCED = {
    "corr-empirical-exact-string": (
        _edited("entry3-collinearity-none", lambda d: d["corr"].update(empirical_exact="false")),
        "corr.empirical_exact: must be true or false, got 'false'"),
    "where-value-bool": (
        _edited("entry9-moderated", lambda d: d["analyses"][2]["where"][0].update(value=True)),
        "analyses[2].where[0].value: must be a number, got True"),
    "where-value-string": (
        _edited("entry9-moderated", lambda d: d["analyses"][2]["where"][0].update(value="0.5")),
        "analyses[2].where[0].value: must be a number, got '0.5'"),
    "filter-value-bool": (_edited(_POP, lambda d: _filter(d).update(value=True)),
                          "population.sampling.filter[0].value: must be a number, got True"),
    "iv-allow-weak-string": (
        _edited("entry11-iv-valid", lambda d: d["analyses"][0].update(allow_weak="no")),
        "analyses[0].allow_weak: must be true or false, got 'no'"),
    "iv-step-allow-weak-number": (
        _edited("entry11-iv-valid-mc", lambda d: d["mc"]["analysis"][1].update(allow_weak=1)),
        "mc.analysis[1].allow_weak: must be true or false, got 1"),
}


@pytest.mark.parametrize("case", sorted(_COERCED))
def test_value_of_the_wrong_type_is_refused_not_coerced(tmp_path, capsys, case):
    doc, message = _COERCED[case]
    assert f"validation error: {message}" in _refusal(tmp_path, capsys, doc)


# an output that takes no format (each always writes one), given a format
_FIXED_FORMAT = {
    "mc_summary-csv": ("entry8-collider-pp-mc", {"what": "mc_summary:bxy_adj", "format": "csv"}, "json"),
    "mc-json": ("entry8-collider-pp-mc", {"what": "mc", "format": "json"}, "csv"),
    "dataset-json": ("entry1-linearity", {"what": "dataset", "format": "json"}, "csv"),
    "histogram-json": ("entry1-linearity", {"what": "histogram:Y:5", "format": "json"}, "csv"),
    "scatter-csv": ("entry1-linearity", {"what": "scatter:X:Y", "format": "csv"}, "csv"),
    "fitted_line-json": ("entry1-linearity", {"what": "fitted_line:linear:X", "format": "json"}, "csv"),
}


@pytest.mark.parametrize("case", sorted(_FIXED_FORMAT))
def test_format_on_an_output_that_takes_none_exits_2(tmp_path, capsys, case):
    ident, output, always = _FIXED_FORMAT[case]
    doc = catalog_config(ident)
    doc["outputs"].append({**output, "path": "extra"})
    k = len(doc["outputs"]) - 1
    head = output["what"].partition(":")[0]
    err = _refusal(tmp_path, capsys, doc)
    assert (f"validation error: outputs[{k}].format: only analysis outputs take a format; "
            f"{head!r} is always {always}") in err


# an integer at or beyond 2^63, which numpy refuses as a size or as an int64
# bound, and the error that names its field (each escaped as a ValueError)
_HUGE = 10**20
_BEYOND_INT64 = {
    "uniform_int-lo": ({**_scm_config(), "scm": {**_SCM, "sources": [
        *_SCM["sources"][:2], {"name": "G", "kind": "uniform_int", "params": {"lo": 2**63, "hi": 1}}]}},
        "scm.sources[2].params: lo must be in [-2^63, 2^63), got 9223372036854775808"),
    "uniform_int-hi": ({**_scm_config(), "scm": {**_SCM, "sources": [
        *_SCM["sources"][:2], {"name": "G", "kind": "uniform_int", "params": {"lo": 0, "hi": 1e20}}]}},
        "scm.sources[2].params: hi must be in [-2^63, 2^63), got 1e+20"),
    "mc.n-range": (_catalog_with(_COLLIDER, "mc", n={"lo": 100, "hi": _HUGE}),
                   f"mc.n.hi: must be < 2^63, got {_HUGE}"),
    "mc.n": (_catalog_with(_COLLIDER, "mc", n=_HUGE), f"mc.n: must be < 2^63, got {_HUGE}"),
    "scm.n": (_catalog_with("entry1-linearity", "scm", n=_HUGE), f"scm.n: must be < 2^63, got {_HUGE}"),
    "corr.n": (_catalog_with("entry3-collinearity-none", "corr", n=_HUGE),
               f"corr.n: must be < 2^63, got {_HUGE}"),
    "sampling.k": (_with_sampling(k=2**63),
                   "population.sampling.k: must be < 2^63, got 9223372036854775808"),
    "histogram-bins": (_edited("entry1-linearity", lambda d: d["outputs"].append(
        {"what": f"histogram:Y:{_HUGE}", "path": "h.csv"})),
        f"outputs[4].what: histogram bins must be in [1, 2^63), got {_HUGE}"),
}


@pytest.mark.parametrize("case", sorted(_BEYOND_INT64))
def test_integer_beyond_int64_exits_2_naming_its_field(tmp_path, capsys, case):
    doc, message = _BEYOND_INT64[case]
    err = _refusal(tmp_path, capsys, doc)
    assert f"validation error: {message}" in err
    assert not _LEAKED.search(err), err


def test_uniform_int_bound_beyond_int64_at_run_time_is_a_replicate_error():
    doc = _catalog_with(_COLLIDER, "mc", reps=2)
    doc["mc"]["scm"]["sources"].append({"name": "U", "kind": "uniform_int", "params": {"lo": 0, "hi": "u"}})
    doc["mc"]["bindings"]["u"] = {"lo": 2**63, "hi": 2**64}
    result = run_scenario(parse_config(doc)).mc_result
    assert sorted(result.errors) == [0, 1]
    for tag in result.errors.values():
        assert tag.startswith("ValidationError: source 'U': hi must be in [-2^63, 2^63), got "), tag


# an integer too large for a float, which float() refused with an OverflowError
# (a traceback, exit 1), and the error that names its field
_BEYOND_FLOAT = 10**400


def _beyond_float(ident: str, *path) -> dict:
    """Catalog scenario ``ident`` with the number at ``path`` set to 10^400."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = _BEYOND_FLOAT
    return _edited(ident, edit)


_SHOWN = "1000…000 (401 digits)"  # 10^400 as an error message shows it
_NOT_A_NUMBER = f"must be a number or a placeholder name, got {_SHOWN}"
_FLOAT_RANGE = {
    "source-mean": (_beyond_float("entry1-curvilinear", "scm", "sources", 0, "params", "mean"),
                    f"scm.sources[0].params.mean: {_NOT_A_NUMBER}"),
    "linear-coefficient": (_beyond_float("entry1-curvilinear", "scm", "equations", 0, "linear", 0, 1),
                           f"scm.equations[0].linear[0][1]: {_NOT_A_NUMBER}"),
    "outlier-assign": (_beyond_float("entry4-outliers", "analyses", 1, "assign", "X"),
                       f"analyses[1].assign.X: must be a number, got {_SHOWN}"),
    "binding-hi": (_beyond_float(_COLLIDER, "mc", "bindings", "b_xc", "hi"),
                   f"mc.bindings.b_xc.hi: must be a number, got {_SHOWN}"),
    "subgroup-where": (_beyond_float("entry9-moderated", "analyses", 2, "where", 0, "value"),
                       f"analyses[2].where[0].value: must be a number, got {_SHOWN}"),
    "corr-means": (_beyond_float("entry3-collinearity-high", "corr", "means", 0),
                   f"corr.means[0]: must be a number, got {_SHOWN}"),
    "scale-c": (_beyond_float("entry13-response-measurement", "analyses", 0, "variants", 6, "rule", "c"),
                f"analyses[0].variants[6].rule.c: must be a number, got {_SHOWN}"),
}


@pytest.mark.parametrize("case", sorted(_FLOAT_RANGE))
def test_integer_beyond_float_range_exits_2_naming_its_field(tmp_path, capsys, case):
    doc, message = _FLOAT_RANGE[case]
    err = _refusal(tmp_path, capsys, doc)
    assert f"validation error: {message}" in err
    assert "OverflowError" not in err and not _LEAKED.search(err), err


def test_largest_integer_a_float_holds_is_a_number():
    # 2^1024 - 2^970 rounds to 2^1024, beyond the float range; one less rounds to the largest float
    largest = 2**1024 - 2**970 - 1
    assert float(largest) == 1.7976931348623157e308
    for v, ok in ((largest, True), (-largest, True), (largest + 1, False), (-largest - 1, False)):
        doc = _edited("entry1-linearity", lambda d: d["scm"]["sources"][0]["params"].update(mean=v))
        if ok:
            assert parse_config(doc).generator["sources"][0]["params"]["mean"] == v
        else:
            with pytest.raises(ValidationError, match=r"^scm\.sources\[0\]\.params\.mean: must be a number or"):
                parse_config(doc)


def test_oversized_value_is_shown_shortened():
    assert shown(10**400) == "1000…000 (401 digits)"
    assert shown(-(10**30)) == "-1000…000 (31 digits)"
    assert shown(2**63) == "9223372036854775808" and shown(10**20) == str(10**20)
    assert shown("ab") == "'ab'" and shown(0.5) == "0.5"
    long = shown(list(range(100)))
    assert len(long) == 80 and long.startswith("[0, 1, 2") and long.endswith("…")


def test_integer_past_the_digit_limit_is_described_by_its_bit_length():
    # repr refuses an int of more than 4300 digits; the refusal still names its field
    assert shown(10**5000) == "an integer of 16610 bits"
    assert shown(-(2**20000)) == "a negative integer of 20001 bits"
    assert shown([1, 10**5000]) == "a list too long to show"
    with pytest.raises(ValidationError, match=r"^n: must be < 2\^63, got an integer of 16610 bits$"):
        ScmSpec(n=10**5000, sources=())


# a row count below 1, which used to pass parsing and fail at run time with no path
_NO_ROWS = {
    "scm.n-0": (_catalog_with("entry1-linearity", "scm", n=0), "scm.n: must be >= 1, got 0"),
    "scm.n-negative": (_catalog_with("entry1-linearity", "scm", n=-3), "scm.n: must be >= 1, got -3"),
    "population.scm.n-0": (_edited(_POP, lambda d: d["population"]["scm"].update(n=0)),
                           "population.scm.n: must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(_NO_ROWS))
def test_row_count_below_1_exits_2_naming_its_path(tmp_path, capsys, case):
    doc, message = _NO_ROWS[case]
    assert f"validation error: {message}" in _refusal(tmp_path, capsys, doc)


def _variant_rule(k: int, **rule) -> dict:
    """entry13-response-measurement with ``rule`` as the rule of variant ``k``."""
    return _edited("entry13-response-measurement", lambda d: d["analyses"][0]["variants"][k].update(rule=rule))


# a measurement rule that no recode can use, and the error that names its field
# (a scale of 0 and decreasing cutpoints raised a ParameterError while parsing: exit 3)
_BAD_RULE = {
    "scale-0": (_variant_rule(6, kind="scale", c=0),
                "analyses[0].variants[6].rule.c: must be a nonzero number, got 0"),
    "cutpoints-decreasing": (_variant_rule(3, kind="ordinalize_cutpoints", cutpoints=[3, 1]),
                             "analyses[0].variants[3].rule.cutpoints: must be strictly increasing, got (3, 1)"),
    "probs-outside-0-1": (_variant_rule(3, kind="ordinalize_quantiles", probs=[0.5, 1.5]),
                          "analyses[0].variants[3].rule.probs: must be strictly increasing in (0, 1)"),
    "quantile-p": (_variant_rule(1, kind="dichotomize_quantile", p=1),
                   "analyses[0].variants[1].rule.p: must be in (0, 1), got 1"),
}


@pytest.mark.parametrize("case", sorted(_BAD_RULE))
def test_unusable_measurement_rule_exits_2_naming_its_field(tmp_path, capsys, case):
    doc, message = _BAD_RULE[case]
    assert f"validation error: {message}" in _refusal(tmp_path, capsys, doc)


def test_placeholder_outside_an_mc_template_exits_2_naming_its_field(tmp_path, capsys):
    doc = _edited("entry1-linearity", lambda d: d["scm"]["equations"][0]["error"].update(mean="mu"))
    err = _refusal(tmp_path, capsys, doc)
    assert "validation error: scm.equations[0].error.mean: placeholder 'mu' is only valid in mc templates" in err


def test_integer_beyond_the_json_digit_limit_exits_2(tmp_path, capsys):
    # Python's JSON parser refuses an integer of more than 4300 digits with a
    # ValueError, which escaped as a traceback (exit 1)
    text = json.dumps(catalog_config("entry1-linearity")).replace('"mean": 5', '"mean": 1' + "0" * 5000, 1)
    p = tmp_path / "cfg.json"
    p.write_text(text)
    assert cli_main(["run", "--config", str(p)]) == 2
    assert "validation error: config is not valid JSON: Exceeds the limit" in capsys.readouterr().err


def test_group_error_level_named_twice_exits_2_naming_the_second_key(tmp_path, capsys):
    # "1" and "01" name one level; the later spec used to replace the earlier one and the run exited 0
    def edit(doc):
        levels = doc["scm"]["equations"][0]["group_error"]["levels"]
        levels["01"] = {**levels["1"], "sd": 9}
    err = _refusal(tmp_path, capsys, _edited("entry2-homoscedastic", edit))
    assert "validation error: scm.equations[0].group_error.levels.01: level 1 is named twice" in err


# an output path that would write outside --out, or that names no file or the
# same file twice (each passed parse time; then some wrote, some ended in exit 4
# and a NUL byte in a traceback)
_BAD_PATH = {
    "absolute": (["fit.json"], "must name a file inside --out"),
    "parent": (["../x.csv"], "must name a file inside --out, with no '..', got '../x.csv'"),
    "inner-parent": (["sub/../x.csv"], "must name a file inside --out, with no '..', got 'sub/../x.csv'"),
    "empty": ([""], "must name a file inside --out, with no '..', got ''"),
    "directory": (["sub/"], "must name a file inside --out, with no '..', got 'sub/'"),
    "dot": (["."], "must name a file inside --out, with no '..', got '.'"),
    "nul": (["a\0.csv"], "must name a file inside --out, with no '..', got 'a\\x00.csv'"),
    "same-file": (["a.csv", "./a.csv"], "output path './a.csv' collides with 'a.csv'"),
    "same-file-nested": (["sub/a.csv", "sub//./a.csv"], "output path 'sub//./a.csv' collides with 'sub/a.csv'"),
    "file-as-directory": (["a", "a/b.csv"], "output path 'a/b.csv' collides with 'a'"),
    "directory-as-file": (["a/b.csv", "a"], "output path 'a' collides with 'a/b.csv'"),
}


@pytest.mark.parametrize("case", sorted(_BAD_PATH))
def test_output_path_outside_out_or_twice_exits_2(tmp_path, capsys, case):
    paths, message = _BAD_PATH[case]
    if case == "absolute":
        paths = [str(tmp_path / "elsewhere" / "fit.json")]
    whats = ["analysis:linear", "dataset"]
    doc = _edited("entry1-linearity", lambda d: d["outputs"].extend(
        {"what": w, "path": p} for w, p in zip(whats, paths)))
    k = 4 + len(paths) - 1
    err = _refusal(tmp_path, capsys, doc)
    assert f"validation error: outputs[{k}].path: {message}" in err
    assert not (tmp_path / "elsewhere").exists() and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("what", ["dataset:foo", "dataset:", "mc:foo"])
def test_output_that_takes_no_argument_refuses_one(tmp_path, capsys, what):
    ident = "entry1-linearity" if what.startswith("dataset") else _COLLIDER
    doc = _edited(ident, lambda d: d["outputs"].append({"what": what, "path": "extra.csv"}))
    k = len(doc["outputs"]) - 1
    head = what.partition(":")[0]
    err = _refusal(tmp_path, capsys, doc)
    assert f"validation error: outputs[{k}].what: output {head!r} takes no argument, got {what!r}" in err


def test_nested_and_dotted_output_paths_are_joined_as_written(tmp_path, capsys):
    doc = _edited("entry1-linearity", lambda d: d["outputs"].extend(
        [{"what": "analysis:linear", "path": "sub/fit.json"}, {"what": "dataset", "path": "./copy.csv"}]))
    p, out = tmp_path / "cfg.json", tmp_path / "out"
    p.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(p), "--out", str(out)]) == 0
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert wrote[-2:] == [f"wrote {out}/sub/fit.json", f"wrote {out}/./copy.csv"]
    assert (out / "sub" / "fit.json").read_text() == (out / "fit_linear.json").read_text()
    assert (out / "copy.csv").read_text() == (out / "dataset.csv").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]


@pytest.mark.parametrize("ident", ["entry1-linearity", "entry4-outliers", "entry8-collider-pp-mc",
                                   "entry11-iv-valid-mc", "entry13-response-measurement"])
def test_parse_then_run_builds_each_scenario_once(monkeypatch, tmp_path, ident):
    calls = Counter()
    for owner, name in ((ScmSpec, "from_json_dict"), (Formula, "parse"), (config, "_output")):
        def counted(*args, _fn=getattr(owner, name), _key=name, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    cfg = parse_config(_edited(ident, lambda d: d.get("mc", {}).update(reps=2)))
    built = Counter(calls)
    assert built["from_json_dict"] == 1
    assert built["_output"] == len(cfg.outputs) > 0
    run = run_scenario(cfg, out_dir=str(tmp_path))
    assert calls == built
    assert len(run.files) == len(cfg.outputs)


# -- property: an output that parses is written, and inside --out -------------------
#
# Hypothesis draws one to three outputs for a small scm scenario (with an
# analysis that fails at run time, whose outputs are skipped) or a small mc
# scenario: a kind, names from the scenario's columns, series and analyses,
# histogram bins, and a plain, nested or ./ path.  About half the examples
# then get one fault: another kind, an unknown name, bad bins, an argument for
# dataset or mc, a format, or an empty, absolute, .., trailing-/ or clashing path.

# base -> (config, {kind: the name pool of each slot of its what})
_OUT_BASES = {
    "scm": (_scm_config({"kind": "fit", "name": "f", "formula": "Y ~ X + M"},
                        {"kind": "summary", "name": "s", "var": "Y"},
                        {"kind": "fit", "name": "bad", "formula": "Y ~ X", "family": "binomial"}),
            {"dataset": (), "analysis": (("f", "s", "bad"),), "histogram": (("X", "Y", "M"), "bins"),
             "scatter": (("X", "Y", "M"),) * 2, "fitted_line": (("f", "bad"), ("X", "M"))}),
    "mc": (_catalog_with(_COLLIDER, "mc", reps=3, n={"lo": 50, "hi": 60}),
           {"mc": (), "mc_summary": (("i", "N", "b_xc", "bxy_adj"),),
            "histogram": (("i", "N", "b_xc", "bxy_adj"), "bins")}),
}
_OUT_NAMES = ("X", "Y", "M", "f", "s", "bad", "i", "N", "b_xc", "bxy_adj", "nope")
_OUT_KINDS = ("dataset", "mc", "analysis", "mc_summary", "histogram", "scatter", "fitted_line", "nope")
_FAULTS = ("kind", "name", "bins", "argument", "format", "path")


@st.composite
def _outputs(draw, base: str):
    kinds = _OUT_BASES[base][1]

    def what(kind: str, pools) -> str:
        args = [draw(st.sampled_from((1, 3, 10) if pool == "bins" else pool)) for pool in pools]
        return ":".join(map(str, [kind, *args]))

    outputs = []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(kinds)))
        form = draw(st.sampled_from(("{}", "sub/{}", "./{}")))
        outputs.append({"what": what(kind, kinds[kind]), "path": form.format(f"o{k}.csv")})
    fault = draw(st.sampled_from((None,) * 6 + _FAULTS))
    o = outputs[draw(st.integers(0, len(outputs) - 1))]
    other = outputs[0]["path"]
    if fault == "kind":
        o["what"] = ":".join([draw(st.sampled_from(_OUT_KINDS)),
                              *draw(st.lists(st.sampled_from(_OUT_NAMES), max_size=2))])
    elif fault == "name":
        o["what"] = o["what"].partition(":")[0] + ":" + draw(st.sampled_from(_OUT_NAMES))
    elif fault == "bins" and o["what"].startswith("histogram:"):
        o["what"] = o["what"].rpartition(":")[0] + ":" + str(draw(st.sampled_from((0, -1, "x", 2**63))))
    elif fault == "argument":
        o["what"] += ":" + draw(st.sampled_from(_OUT_NAMES))
    elif fault == "format":
        o["format"] = draw(st.sampled_from(("csv", "json", "xml")))
    elif fault == "path":
        o["path"] = draw(st.sampled_from(("", "{root}/elsewhere/x.csv", "../x.csv", "sub/", "x.csv/",
                                          "./" + other, other + "/x.csv")))
    return outputs


@settings(max_examples=200, deadline=None)
@given(data=st.data(), base=st.sampled_from(sorted(_OUT_BASES)))
def test_every_output_that_parses_is_written_inside_out(data, base):
    outputs = data.draw(_outputs(base))
    with tempfile.TemporaryDirectory() as root:
        out = os.path.join(root, "out")
        doc = {**_OUT_BASES[base][0],
               "outputs": [{**o, "path": o["path"].replace("{root}", root)} for o in outputs]}
        try:
            cfg = parse_config(doc)
        except ValidationError as exc:
            event("refused")
            assert re.match(r"outputs\[\d+\]\.(what|path|format): ", str(exc)), exc
            return
        event(f"{base}: parsed")
        run = run_scenario(cfg, out_dir=out)
        written = {os.path.join(d, f) for d, _, files in os.walk(root) for f in files}
        assert written == {os.path.normpath(p) for p in run.files}
        assert all(p.startswith(out + os.sep) for p in written)
        assert len(run.files) + len(run.skipped_outputs) == len(outputs)
        assert set(run.skipped_outputs.values()) <= {"bad"}
