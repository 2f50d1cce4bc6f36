"""Scenario configs: every analysis kind end to end, parse-time validation, docs."""

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from biaslab import config
from biaslab.catalog import catalog_config
from biaslab.cli import main as cli_main
from biaslab.config import parse_config, run_scenario
from biaslab.errors import ValidationError
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
    "mc.reps-float": (_catalog_with("entry8-collider-pp-mc", "mc", reps=2.5), "mc: reps"),
    "mc.reps-bool": (_catalog_with("entry8-collider-pp-mc", "mc", reps=True), "mc: reps"),
    "mc.reps-string": (_catalog_with("entry8-collider-pp-mc", "mc", reps="3"), "mc: reps"),
    "mc.n": (_catalog_with("entry8-collider-pp-mc", "mc", reps=2, n=150.7), "mc: n"),
    "mc.n-range": (_catalog_with("entry8-collider-pp-mc", "mc", reps=2, n={"lo": 100.5, "hi": 120.9}),
                   "mc: n.lo"),
    "population.sampling.k": (_catalog_with("entry5-sampling-random", "population", sampling={
        **catalog_config("entry5-sampling-random")["population"]["sampling"], "k": 10.5, "reps": 2}),
        "sampling: k"),
    "corr.n": (_catalog_with("entry3-collinearity-none", "corr", n=999.9), "corr: n"),
    "scm.n": (_catalog_with("entry1-linearity", "scm", n=100.5), "scm: n"),
    "population.scm.n": (_catalog_with("entry5-sampling-random", "population", scm={
        **catalog_config("entry5-sampling-random")["population"]["scm"], "n": 100.5}),
        "population.scm: n"),
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
    "n-range-0": ({"lo": 0, "hi": 0}, "mc: n.lo must be >= 1, got 0"),
    "n-range-from-0": ({"lo": 0, "hi": 5}, "mc: n.lo must be >= 1, got 0"),
    "n-negative": (-3, "mc: n must be >= 1, got -3"),
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


# the path that the error of an MC loop's step names
_STEP_PATH = {"mc-fit-step": "mc.analysis[0]: ",
              "sampling-fit-step": "population.sampling.analysis[0]: "}


@pytest.mark.parametrize("case", sorted(_UNKNOWN_FAMILY))
def test_unknown_family_exits_2_before_anything_runs(tmp_path, capsys, case):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_UNKNOWN_FAMILY[case]))
    assert cli_main(["run", "--config", str(p), "--reps", "2", "--out", str(tmp_path / "out")]) == 2
    assert f"{_STEP_PATH.get(case, '')}unknown family 'poisson'" in capsys.readouterr().err
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
    "reps-0": (_with_sampling(reps=0), "sampling: reps must be >= 1"),
    "k-0": (_with_sampling(k=0), "sampling: k must be >= 1"),
    "k-negative": (_with_sampling(k=-5), "sampling: k must be >= 1"),
    "record-N": (_with_sampling(analysis=_fit_steps({"slope": "b:EP", "N": "se:EP"})),
                 "sampling: recorded series name 'N' collides"),
    "record-i": (_with_sampling(analysis=_fit_steps({"slope": "b:EP", "i": "se:EP"})),
                 "sampling: recorded series name 'i' collides"),
    "record-twice": (_with_sampling(analysis=_fit_steps({"slope": "b:EP"}, {"slope": "se:EP"})),
                     "sampling: recorded series name 'slope' collides"),
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
    "n-range-string": (_edited(_COLLIDER, lambda d: d["mc"].update(n={"lo": 5, "hi": "x"})), "mc.n: "),
    "bindings-list": (_edited(_COLLIDER, lambda d: d["mc"].update(bindings=[])), "mc.bindings: "),
    "source-param-list": (_edited(_COLLIDER, lambda d: d["mc"]["scm"]["sources"][0]["params"].update(sd=[])),
                          "mc.scm: "),
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


@pytest.mark.parametrize("ident", ["entry1-linearity", "entry4-outliers", "entry8-collider-pp-mc",
                                   "entry11-iv-valid-mc", "entry13-response-measurement"])
def test_parse_then_run_builds_each_scenario_once(monkeypatch, ident):
    calls = Counter()
    for cls, name in ((ScmSpec, "from_json_dict"), (Formula, "parse")):
        def counted(*args, _fn=getattr(cls, name), _key=f"{cls.__name__}.{name}", **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    cfg = parse_config(_edited(ident, lambda d: d.get("mc", {}).update(reps=2)))
    built = Counter(calls)
    assert built["ScmSpec.from_json_dict"] == 1
    run_scenario(cfg)
    assert calls == built
