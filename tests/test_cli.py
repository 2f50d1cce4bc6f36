import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from biaslab.catalog import catalog_config, catalog_ids
from biaslab.cli import format_fit_table
from biaslab.cli import main as cli_main
from biaslab.config import load_config, parse_config, run_scenario
from biaslab.regress import FitResult, Formula


def run_cli(*argv, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "biaslab.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc


class TestCatalog:
    def test_at_least_fifteen_entries_spanning_all_topics(self):
        ids = catalog_ids()
        assert len(ids) >= 15
        for k in range(1, 16):
            assert any(i.startswith(f"entry{k}-") for i in ids), f"entry{k} missing"
        for required in ("entry1-linearity", "entry7-confounder-pp", "entry8-collider-mm",
                         "entry11-iv-valid", "entry15-covariate-measurement",
                         "entry3-collinearity-high"):
            assert required in ids

    def test_catalog_subcommand_lists_ids(self):
        proc = run_cli("catalog")
        assert proc.returncode == 0
        listed = proc.stdout.split()
        assert set(catalog_ids()) <= set(listed)

    def test_every_catalog_config_parses(self):
        for ident in catalog_ids():
            cfg = parse_config(catalog_config(ident))
            assert cfg.id == ident

    def test_editing_a_catalog_document_leaves_the_catalog_unchanged(self):
        def clear(node):  # every list and object in the document, innermost first
            if isinstance(node, (dict, list)):
                for child in list(node.values() if isinstance(node, dict) else node):
                    clear(child)
                node.clear()

        for ident in catalog_ids():
            pristine = json.dumps(catalog_config(ident), sort_keys=True)
            clear(catalog_config(ident))
            assert json.dumps(catalog_config(ident), sort_keys=True) == pristine, ident

    def test_catalog_documents_are_pinned(self):
        # key order included, since a template's binding order is its draw
        # order; no BLAS is involved, so the digest is the same on every
        # machine.  An intended catalog edit updates this digest and says so
        # in CHANGES.md.
        text = json.dumps([[ident, catalog_config(ident)] for ident in catalog_ids()])
        assert len(catalog_ids()) == 46
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "dbf7891480efb6e3b9934e241bed03a0cec0508f8868167c846e4fb4999c5831")


class TestRun:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = cli_main(["run", "--catalog", "entry1-linearity", "--seed", "1992",
                           "--out", str(out)])
            assert rc == 0
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_run_config_file(self, tmp_path):
        cfg = catalog_config("entry1-curvilinear")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = cli_main(["run", "--config", str(p), "--out", str(out)])
        assert rc == 0
        fit = json.loads((out / "fit_proper.json").read_text())
        idx = fit["terms"].index("X^2")
        assert fit["b"][idx] < 0
        assert fit["p"][idx] < 1e-6

    def test_entry3_high_writes_vif_csv(self, tmp_path):
        out = tmp_path / "o"
        rc = cli_main(["run", "--catalog", "entry3-collinearity-high", "--out", str(out)])
        assert rc == 0
        lines = (out / "collinearity.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["term", "tolerance", "vif"]
        vifs = [float(row.split(",")[2]) for row in lines[1:] if row.split(",")[2]]
        tols = [float(row.split(",")[1]) for row in lines[1:] if row.split(",")[1]]
        assert all(abs(v - 3.25) < 1e-6 for v in vifs) and len(vifs) == 5
        assert all(abs(t - 0.307692) < 1e-5 for t in tols)

    def test_validation_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"id": "x", "scm": {"n": 5, "sources": []}, "analyses": [{"kind": "nope"}]}')
        proc = run_cli("run", "--config", str(p))
        assert proc.returncode == 2
        assert "analyses[0]" in proc.stderr

    def test_unknown_catalog_id(self):
        proc = run_cli("run", "--catalog", "entry99-wat")
        assert proc.returncode == 2

    def test_all_analyses_failing_exit_code(self, tmp_path):
        cfg = {
            "id": "fail",
            "seed": 1,
            "scm": {"n": 20, "sources": [{"name": "x", "kind": "normal",
                                          "params": {"mean": 0, "sd": 1}}],
                    "equations": [{"target": "z", "linear": [["x", 2.0]]}]},
            # singular: z is exactly 2x
            "analyses": [{"kind": "fit", "name": "f", "formula": "x ~ z + x"}],
            "outputs": [],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        proc = run_cli("run", "--config", str(p))
        assert proc.returncode == 3

    def test_failed_analysis_skips_only_its_outputs(self, tmp_path):
        cfg = {
            "id": "partial",
            "seed": 1,
            "scm": {"n": 50, "sources": [{"name": "x", "kind": "normal",
                                          "params": {"mean": 0, "sd": 1}}],
                    "equations": [{"target": "y", "linear": [["x", 1.0]],
                                   "error": {"coef": 1, "mean": 0, "sd": 1}}]},
            # a binomial fit on a continuous response fails at run time
            "analyses": [
                {"kind": "fit", "name": "bad", "formula": "y ~ x", "family": "binomial"},
                {"kind": "fit", "name": "good", "formula": "y ~ x"},
            ],
            "outputs": [
                {"what": "analysis:bad", "path": "bad.json"},
                {"what": "fitted_line:bad:x", "path": "bad_line.csv"},
                {"what": "analysis:good", "path": "good.json"},
                {"what": "fitted_line:good:x", "path": "good_line.csv"},
            ],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        proc = run_cli("run", "--config", str(p), "--out", str(out))
        assert proc.returncode == 3
        assert sorted(f.name for f in out.iterdir()) == ["good.json", "good_line.csv"]
        assert json.loads((out / "good.json").read_text())["terms"] == ["(Intercept)", "x"]
        assert "bad" in proc.stderr and "DataError" in proc.stderr
        assert "bad.json" in proc.stderr and "bad_line.csv" in proc.stderr
        assert "Traceback" not in proc.stderr

        run = run_scenario(parse_config(cfg), out_dir=str(tmp_path / "lib"))
        assert [os.path.basename(f) for f in run.files] == ["good.json", "good_line.csv"]
        assert sorted(run.skipped_outputs.values()) == ["bad", "bad"]

    def test_one_failed_analysis_among_good_ones_exits_3(self, tmp_path, capsys):
        cfg = {
            "id": "partial",
            "seed": 1,
            "scm": {"n": 20, "sources": [{"name": "x", "kind": "normal",
                                          "params": {"mean": 0, "sd": 1}}],
                    "equations": [{"target": "z", "linear": [["x", 2.0]]},
                                  {"target": "y", "linear": [["x", 1.0]], "error": {"sd": 1}}]},
            # the second fit is singular (z is exactly 2x); neither has an output
            "analyses": [{"kind": "fit", "name": "good", "formula": "y ~ x"},
                         {"kind": "fit", "name": "bad", "formula": "x ~ z + x"}],
            "outputs": [],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli_main(["run", "--config", str(p)]) == 3
        io_ = capsys.readouterr()
        assert "== good:" in io_.out and "== bad: ERROR SingularDesignError" in io_.err

    def test_failed_writer_loses_only_its_output(self, tmp_path, capsys):
        doc = catalog_config("entry8-collider-pp-mc")
        doc["mc"].update(n=2, reps=3)  # two rows fit no y ~ x + col: every replicate fails
        doc["outputs"].reverse()  # so the summary, which has no value to summarize, comes first
        assert [o["path"] for o in doc["outputs"]] == ["summary.json", "loop.csv"]
        p, out = tmp_path / "cfg.json", tmp_path / "out"
        p.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(p), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert sorted(f.name for f in out.iterdir()) == ["loop.csv"]
        assert f"failed {out / 'summary.json'}: DataError: series 'bxy_adj'" in err

        run = run_scenario(parse_config(doc), out_dir=str(tmp_path / "lib"))
        assert [os.path.basename(f) for f in run.files] == ["loop.csv"]
        assert list(map(os.path.basename, run.output_errors)) == ["summary.json"]
        assert run.analysis_errors == {} and run.skipped_outputs == {}

    @pytest.mark.parametrize("generator, what", [
        ("scm", "analysis:godo"),        # names no declared analysis
        ("scm", "fitted_line:corr:x"),   # names an analysis that is not a fit
        ("scm", "fitted_line:nope:x"),   # names no declared analysis
        ("scm", "mc"),
        ("scm", "mc_summary:b"),
        ("mc", "dataset"),
        ("mc", "scatter:x:y"),
        ("scm", "scatter:x:yy"),          # unknown column
        ("scm", "scatter:x:x"),           # one column twice
        ("scm", "fitted_line:good:zz"),   # unknown column
        ("scm", "histogram:zz:10"),       # unknown column
        ("scm", "histogram:x:abc"),       # bins not an integer
        ("scm", "histogram:x"),           # bins missing
        ("scm", "histogram:x:0"),         # bins below 1
        ("mc", "mc_summary:zz"),          # unknown series
        ("mc", "histogram:zz:10"),        # unknown series
        ("mc", "histogram:b:-2"),         # bins below 1
    ])
    def test_bad_output_reference_fails_before_anything_runs(self, tmp_path, generator, what):
        source = {"name": "x", "kind": "normal", "params": {"mean": 0, "sd": 1}}
        scm = {"n": 50, "sources": [source],
               "equations": [{"target": "y", "linear": [["x", 1.0]],
                              "error": {"coef": 1, "mean": 0, "sd": 1}}]}
        cfg = {"id": "typo", "seed": 1}
        if generator == "scm":
            cfg["scm"] = scm
            cfg["analyses"] = [{"kind": "fit", "name": "good", "formula": "y ~ x"},
                               {"kind": "correlation", "name": "corr", "x": "x", "y": "y"}]
            first = {"what": "analysis:good", "path": "good.json"}
        else:
            cfg["mc"] = {"scm": {**scm, "n": "n"}, "n": 20, "reps": 3,
                         "analysis": [{"kind": "fit", "formula": "y ~ x", "record": {"b": "b:x"}}]}
            first = {"what": "mc", "path": "loop.csv"}
        cfg["outputs"] = [first, {"what": what, "path": "bad.out"},
                          {"what": "mc_summary:b" if generator == "mc" else "dataset",
                           "path": "last.out"}]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        proc = run_cli("run", "--config", str(p), "--out", str(out))
        assert proc.returncode == 2
        assert "outputs[1]" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists() or not any(out.iterdir())

    def test_nan_cell_writes_as_missing(self, tmp_path):
        # x^2 overflows to inf for sd 1e300, and inf - inf is NaN
        cfg = {
            "id": "overflow",
            "seed": 1,
            "scm": {"n": 5, "sources": [{"name": "x", "kind": "normal",
                                         "params": {"mean": 0, "sd": 1e300}}],
                    "equations": [{"target": "y", "squares": [["x", 1.0]]},
                                  {"target": "z", "linear": [["y", 1.0], ["y", -1.0]]}]},
            "outputs": [{"what": "dataset", "path": "d.csv"}],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        proc = run_cli("run", "--config", str(p), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        rows = (out / "d.csv").read_text().splitlines()
        assert rows[0] == "x,y,z" and len(rows) == 6
        assert all(row.endswith(",inf,") for row in rows[1:])

    def test_io_error_exit_code(self):
        proc = run_cli("run", "--config", "/nonexistent/no.json")
        assert proc.returncode == 4

    def test_seed_env_fallback(self, tmp_path):
        cfg = catalog_config("entry1-linearity")
        del cfg["seed"]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        proc = run_cli("run", "--config", str(p))
        assert proc.returncode == 2  # no seed anywhere
        env = os.environ.copy()
        env["BIASLAB_SEED"] = "77"
        proc = subprocess.run(
            [sys.executable, "-m", "biaslab.cli", "run", "--config", str(p)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0


def test_cli_starts_without_scipy_or_the_process_pool():
    # neither parsing nor the catalog needs scipy or the process pool, so the
    # command line starts without them; the first p-value read loads scipy.special.
    # Full-rank fits, MC loops and pooled sampling loops never load
    # scipy.linalg, which would add about 6 MB to every process's resident
    # memory; only a singular design's pivoted naming pass loads it
    code = """
import math, sys
from dataclasses import replace
import biaslab.cli
from biaslab import Dataset, Formula, fit
from biaslab.catalog import catalog_config, catalog_ids
from biaslab.config import parse_config
from biaslab.mc import FitStep, McTemplate, SamplingPlan, repeated_samples, run_mc
for ident in catalog_ids():
    parse_config(catalog_config(ident))
print(sorted(m for m in sys.modules
             if m.partition('.')[0] == 'scipy' or m == 'concurrent.futures.process'))
x = [float(i % 7) for i in range(30)]
data = Dataset({'x': x, 'y': [v / 2 + i % 3 for i, v in enumerate(x)]})
p = fit(data, Formula.parse('y ~ x')).p.tolist()
print('scipy.special' in sys.modules, len(p) == 2 and all(map(math.isfinite, p)))
template = McTemplate.from_json_dict(catalog_config('entry8-collider-pp-mc')['mc'])
loop = run_mc(replace(template, reps=20))
plan = SamplingPlan(k=15, reps=20, analysis=(FitStep('y ~ x', (('b', 'b:x'),)),), master_seed=1)
samples = repeated_samples(data, plan, workers=2)
print(len(loop.errors) + len(samples.errors), 'scipy.linalg' in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True", "0 False"]


def test_cli_start_loads_only_what_the_command_uses():
    # the package resolves its exports on first access, the command line
    # imports the catalog only for --catalog and `catalog`, a config imports
    # measure only for an attenuation or recode analysis, and numpy.random
    # loads at the first stream
    code = """
import json, sys
import biaslab.cli
from biaslab.config import parse_config, run_scenario
LAZY = ("biaslab.catalog", "biaslab.measure", "numpy.random", "scipy")
docs = [json.loads(a) for a in sys.argv[1:]]
for doc in docs[:-1]:
    parse_config(doc)
print(sorted(m for m in LAZY if m in sys.modules))
run = run_scenario(parse_config(docs[-1]))
print(sorted(m for m in LAZY if m in sys.modules), list(run.artifacts), run.analysis_errors)
print(biaslab.cli.main(["run", "--catalog", "entry8-collider-pp-mc", "--reps", "3", "--seed", "1"]))
print(sorted(m for m in LAZY if m in sys.modules))
"""
    ids = ("entry1-linearity", "entry8-collider-pp-mc", "entry5-sampling-random",
           "entry13-response-measurement")
    proc = subprocess.run([sys.executable, "-c", code, *(json.dumps(catalog_config(i)) for i in ids)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1] == "['biaslab.measure', 'numpy.random', 'scipy'] ['table'] {}"
    assert lines[-2:] == ["0", "['biaslab.catalog', 'biaslab.measure', 'numpy.random', 'scipy']"]


def test_package_exports_resolve_on_first_access():
    # every name the package exported when it imported each module eagerly
    exports = {
        "causal": "IvEstimate MediationResult RowFilter ScenarioReport compare_adjustments"
                  " conditional_slope iv_wald mediation moderated_fit subgroup_effect",
        "data": "BalanceReport Dataset SummaryStats balance_diff listwise_complete pearson"
                " quantile_type7 ranks_average_ties read_csv spearman summarize write_csv",
        "errors": "BiaslabError DataError ParameterError SeparationWarning SingularDesignError"
                  " ValidationError WeakInstrumentError",
        "mc": "BalanceStep FitStep IvStep McResult McSummary McTemplate RangeSpec SamplingPlan"
              " filter_replicates histogram repeated_samples run_mc series_correlation summarize_series",
        "measure": "AttenuationReport AttenuationVariant RecodeRule TransformRule attenuation_report"
                   " dichotomize ordinalize transform",
        "regress": "CollinearityReport FitResult Formula collinearity_diagnostics fit fit_logistic"
                   " fit_ols fit_ordered_logit interaction main predict residuals square wald_chisq",
        "rng": "derive_substream sample_indices",
        "scm": "CorrTarget EquationSpec ErrorTerm GroupError ScmSpec SourceSpec block_randomize"
               " clamped_integer_normal evaluate_scm inject_outlier mvn_exact repeat_pattern",
    }
    code = """
import importlib, json, sys
import biaslab
exports = json.loads(sys.argv[1])
listed = set(dir(biaslab))
print(sorted(m for m in sys.modules if m.startswith("biaslab.")))
print(sum(getattr(biaslab, name) is getattr(importlib.import_module("biaslab." + module), name)
          and name in listed for module, names in exports.items() for name in names.split()))
star = {}
exec("from biaslab import *", star)
print(sorted(set(star) - {"__builtins__"}) == sorted([*biaslab.__all__]), biaslab.__version__)
try:
    biaslab.no_such_name
except AttributeError as exc:
    print(exc)
"""
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(exports)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "79", "True 0.1.0", "module 'biaslab' has no attribute 'no_such_name'"]


class TestConfigRoundTrip:
    def test_parse_serialize_parse_identity(self):
        for ident in ("entry1-linearity", "entry5-sampling-random",
                      "entry7-confounder-pp-mc", "entry13-response-measurement"):
            cfg = parse_config(catalog_config(ident))
            again = parse_config(cfg.to_json())
            assert again == cfg

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(parse_config(catalog_config("entry10-descendant")).to_json())
        cfg = load_config(str(p))
        assert cfg.id == "entry10-descendant"


class TestFitTable:
    def test_columns_stay_apart_at_maximal_width(self):
        wide = np.array([-1.23456e-100, -1.23456e-05])
        result = FitResult(
            family="ordered",
            formula=Formula.parse("y ~ a_long_predictor_name + x"),
            terms=("a_long_predictor_name", "x"),
            b=wide, se=wide, stat=wide, beta=wide,
            n_used=10, n_dropped=0, df_residual=7, deviance=1.0,
            null_deviance=2.0, aic=3.0,
            cutpoint_names=("1|2", "2|3"), cutpoints=wide, cutpoint_se=wide,
        )
        # no statistic gives a p of -1.23456e-100, _sig6's widest form, so the
        # test sets it where the first read of the computed p looks
        object.__setattr__(result, "p", wide)
        lines = format_fit_table("f", result).splitlines()
        header, rows, cuts = lines[1], lines[2:4], lines[4:]
        assert header.split() == ["term", "b", "SE", "stat", "p", "beta"]
        assert rows[0].split() == ["a_long_predictor_name"] + ["-1.23456e-100"] * 5
        assert rows[1].split() == ["x"] + ["-1.23456e-05"] * 5
        assert cuts[0].split() == ["1|2", "-1.23456e-100", "-1.23456e-100"]
        assert cuts[1].split() == ["2|3", "-1.23456e-05", "-1.23456e-05"]


class TestFitSubcommand:
    def test_exact_line_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("Y,X\n1,0\n3,1\n5,2\n")
        out = tmp_path / "fit.json"
        rc = cli_main(["fit", str(p), "--formula", "Y ~ X", "--json", str(out)])
        assert rc == 0
        fit = json.loads(out.read_text())
        assert fit["b"][1] == pytest.approx(2.0)
        assert fit["r2"] == pytest.approx(1.0)

    def test_fit_json_field_names(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("Y,X\n1,0\n3.1,1\n5,2\n6.8,3\n")
        out = tmp_path / "fit.json"
        cli_main(["fit", str(p), "--formula", "Y ~ X", "--json", str(out)])
        fit = json.loads(out.read_text())
        for field in ("family", "terms", "b", "se", "stat", "p", "beta", "cutpoints",
                      "r2", "adj_r2", "deviance", "aic", "n_used", "n_dropped", "converged"):
            assert field in fit, f"missing JSON field {field!r}"
        assert fit["family"] == "gaussian"
        assert fit["terms"] == ["(Intercept)", "X"]

    def test_zero_column_fails_without_traceback(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("Y,X\n1,0\n3,0\n5,0\n7,0\n")
        proc = run_cli("fit", str(p), "--formula", "Y ~ X - 1")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "singular at term 'X'" in proc.stderr

    def test_binomial_on_bad_response_fails(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("Y,X\n1,0\n3,1\n5,2\n7,3\n")
        proc = run_cli("fit", str(p), "--formula", "Y ~ X", "--family", "binomial")
        assert proc.returncode == 3

    def test_non_numeric_cell_is_a_validation_error(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("Y,X\n1,0\n3,abc\n5,2\n")
        proc = run_cli("fit", str(p), "--formula", "Y ~ X")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "row 3" in proc.stderr and "'X'" in proc.stderr

    def test_column_named_twice_is_a_validation_error(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,x,y\n1,2,3\n2,1,5\n3,4,6\n4,3,9\n")
        proc = run_cli("fit", str(p), "--formula", "y ~ x")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "'x' twice" in proc.stderr

    def test_square_term_formula(self, tmp_path):
        cfgdir = tmp_path / "o"
        cli_main(["run", "--catalog", "entry1-curvilinear", "--out", str(cfgdir)])
        # reuse the curvilinear dataset through the run's scatter output instead:
        p = tmp_path / "d.csv"
        rows = ["Y,X"]
        for x in range(1, 40):
            xv = x / 4
            rows.append(f"{0.25 * xv - 0.025 * xv * xv},{xv}")
        p.write_text("\n".join(rows) + "\n")
        proc = run_cli("fit", str(p), "--formula", "Y ~ X + X^2")
        assert proc.returncode == 0
        assert "X^2" in proc.stdout


class TestMcSubcommand:
    def test_mc_run_with_overrides(self, tmp_path):
        out = tmp_path / "mc"
        rc = cli_main(["mc", "--catalog", "entry7-confounder-pp-mc", "--reps", "10",
                       "--seed", "5", "--out", str(out)])
        assert rc == 0
        csv_path = out / "entry7-confounder-pp-mc.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("i,N,")

    def test_mc_seed_env_fallback(self, tmp_path):
        cfg = catalog_config("entry7-confounder-pp-mc")
        del cfg["seed"], cfg["mc"]["seed"]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        proc = run_cli("mc", "--config", str(p), "--reps", "5")
        assert proc.returncode == 2  # no seed anywhere
        env = {**os.environ, "BIASLAB_SEED": "77"}
        outputs = []
        for extra, run_env in ((["--out", str(tmp_path / "env")], env),
                               (["--out", str(tmp_path / "flag"), "--seed", "77"], None)):
            proc = subprocess.run(
                [sys.executable, "-m", "biaslab.cli", "mc", "--config", str(p), "--reps", "5", *extra],
                capture_output=True, text=True, env=run_env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split("wrote")[0])
        assert outputs[0] == outputs[1]
        name = "entry7-confounder-pp-mc.csv"
        assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()

    def test_mc_seed_flag_beats_env(self, tmp_path):
        env = {**os.environ, "BIASLAB_SEED": "77"}
        outs = []
        for seed in ("5", "6"):
            out = tmp_path / seed
            proc = subprocess.run(
                [sys.executable, "-m", "biaslab.cli", "mc", "--catalog", "entry7-confounder-pp-mc",
                 "--reps", "3", "--seed", seed, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "entry7-confounder-pp-mc.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_mc_rejects_non_mc_scenario(self):
        proc = run_cli("mc", "--catalog", "entry1-linearity")
        assert proc.returncode == 2


class TestPopulationScenario:
    def test_entry5_smoke_with_small_reps(self, tmp_path):
        cfg = parse_config(catalog_config("entry5-sampling-low-pea")).with_reps(5)
        run = run_scenario(cfg, out_dir=str(tmp_path / "o"), seed=7)
        assert run.mc_result is not None and len(run.mc_result) == 5
        slopes = run.mc_result.series("slope")
        assert (slopes > 2.5).all()  # low-PEA subgroup effect is large
        assert (tmp_path / "o" / "samples.csv").exists()
        assert (tmp_path / "o" / "slope_hist.csv").exists()


@pytest.mark.parametrize("scenario, path, value, names", [
    ("entry8-collider-pp-mc", ("mc", "analysis", 0, "formula"), "y ~ x + colx", ("analysis[0]", "'colx'")),
    ("entry11-iv-valid-mc", ("mc", "analysis", 1, "instrument"), "INX", ("analysis[1]", "'INX'")),
    ("entry6-balance", ("population", "sampling", "analysis", 1, "covariates"),
     ["DI1", "DV1", "SCV1", "CV1", "DVX"], ("analysis[1]", "'DVX'")),
    ("entry5-small", ("population", "sampling", "analysis", 0, "formula"), "SIEM ~ EPX",
     ("analysis[0]", "'EPX'")),
    ("entry5-small", ("population", "sampling", "filter", 0, "var"), "PEAX", ("filter", "'PEAX'")),
    ("entry8-collider-pp-mc", ("analyses",), [{"kind": "summary", "var": "x"}], ("analyses[0]",)),
])
def test_unrunnable_loop_fails_before_anything_runs(tmp_path, scenario, path, value, names):
    doc = json.loads(json.dumps(_small_population() if scenario == "entry5-small"
                                else catalog_config(scenario)))
    _set(doc, path, value)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "out"
    proc = run_cli("run", "--config", str(p), "--reps", "2", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert all(name in proc.stderr for name in names), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists() or not any(out.iterdir())


# -- property: a mutated catalog config never escapes as a traceback ----------------
#
# Hypothesis (MacIver et al., JOSS 2019) mutates catalog configs and runs each
# through the command line with --reps 2: a field dropped or of the wrong type,
# an unknown column or kind, a bad seed, or a number beyond int64.  The
# 500k-row entry5 population is replaced by one population scenario shrunk to
# 2000 rows, which covers the same population and sampling fields.  A refusal
# of a dropped, mistyped or huge field names that field or its parent, unless
# it is one of the cross-field refusals in _CROSS_FIELD.


def _small_population() -> dict:
    doc = catalog_config("entry5-sampling-high-pea")
    doc["population"]["scm"]["n"] = 2000
    doc["population"]["scm"]["sources"][0]["params"]["k"] = 1000
    doc["population"]["sampling"]["k"] = 50
    return doc


_BASES = {i: catalog_config(i) for i in catalog_ids() if not i.startswith("entry5-")}
_BASES["entry5-small"] = _small_population()
_SEED_SLOTS = (("seed",), ("mc", "seed"), ("population", "sampling", "seed"))
_WRONG = (None, True, -1, 0.5, "x", [], {})


def _nodes(doc, path=()):
    """Every (path, value) below ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*path, key), value
        yield from _nodes(value, (*path, key))


_DROP = object()


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    if value is _DROP:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


def _path_text(path) -> str:
    """``path`` as a refusal writes it, such as ``scm.sources[0].params``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).removeprefix(".")


def _names_field_or_parent(message: str, path) -> bool:
    field, parent = _path_text(path), _path_text(path[:-1])
    return message.startswith((f"{field}:", f"{field}.", f"{field}[", f"{parent or 'config'}:"))


# refusals that rightly name something other than the mutated field or its
# parent, and the mutations that make them: the field that reads what the
# mutation took away or changed is named, or the command
_DROP_OR_TYPE = ("drop", "wrong_type")
_CROSS_FIELD = (
    (("drop",), r"outputs\[\d+\]\.what: output references unknown analysis '"),  # an analysis name
    (("drop",), r"outputs\[\d+\]\.what: fitted_line needs a declared fit, got '"),  # the same
    (("drop",), r"outputs\[\d+\]\.what: unknown (series|column) '"),  # a series or column definition
    (("drop",), r"([\w.]+\.)?(analysis|analyses|filter)(\[\d+\])?: unknown column '"),  # the same
    (_DROP_OR_TYPE, r"mc\.bindings\.\w+: binds no placeholder"),  # a placeholder dropped or made a number
    (("wrong_type",), r"mc\.bindings: unbound placeholders"),  # a number made a string, a placeholder name
    (("huge", "wrong_type"), r"corr\.corr: must be symmetric"),  # one entry of a symmetric pair
    (("huge", "wrong_type"), r"scm\.equations\[\d+\]\.group_error\.(by|levels): "),  # its column's data
    (("drop",), r"no seed: "),  # the config's seed, with no --seed flag
    (("drop", "wrong_type", "huge"), r"scenario '[^']*' is not an mc template"),  # biaslab mc elsewhere
)


@st.composite
def _mutated(draw):
    """A catalog config with one mutation, how it was mutated and the path of the mutated field."""
    ident = draw(st.sampled_from(sorted(_BASES)))
    doc = json.loads(json.dumps(_BASES[ident]))
    nodes = list(_nodes(doc))
    how = draw(st.sampled_from(("drop", "wrong_type", "unknown_column", "unknown_kind", "seed", "huge")))
    if how == "drop":
        path = draw(st.sampled_from([p for p, _ in nodes if isinstance(p[-1], str)]))
        _set(doc, path, _DROP)
    elif how == "wrong_type":
        path, old = draw(st.sampled_from(nodes))
        _set(doc, path, draw(st.sampled_from([v for v in _WRONG if type(v) is not type(old)])))
    elif how == "unknown_column":
        # the columns that sources and equations define
        names = {v for p, v in nodes if p[-1] in ("name", "target") and isinstance(v, str)}
        uses = [(p, v) for p, v in nodes if isinstance(v, str) and p[-1] not in ("id", "path")
                and any(re.search(rf"\b{re.escape(n)}\b", v) for n in names)]
        path, text = draw(st.sampled_from(uses))
        name = draw(st.sampled_from(sorted(n for n in names if re.search(rf"\b{re.escape(n)}\b", text))))
        _set(doc, path, re.sub(rf"\b{re.escape(name)}\b", "nope", text))
    elif how == "unknown_kind":
        path = draw(st.sampled_from([p for p, _ in nodes if p[-1] in ("kind", "what")]))
        _set(doc, path, "nope")
    elif how == "seed":
        path = draw(st.sampled_from([s for s in _SEED_SLOTS if s[0] in doc]))
        _set(doc, path, draw(st.sampled_from((-1, 2**64, True, 1.5, "7"))))
    else:  # a number beyond int64, which numpy refuses as a size or an integer bound,
        # or beyond the float range, which float() refuses
        path = draw(st.sampled_from([p for p, v in nodes if type(v) in (int, float)]))
        _set(doc, path, draw(st.sampled_from((2**63, 10**20, -(2**63) - 1, 10**400))))
    return doc, how, path


@settings(max_examples=300, deadline=None)
@given(mutation=_mutated(), command=st.sampled_from(("run", "mc")), flag=st.sampled_from(([], ["--seed", "3"])))
def test_mutated_catalog_configs_exit_cleanly(mutation, command, flag):
    doc, how, path = mutation
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        cfg = os.path.join(root, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = cli_main([command, "--config", cfg, "--reps", "2", *flag,
                               "--out", os.path.join(root, "out")])
    event(f"exit {rc}")
    assert rc in (0, 2, 3, 4)
    # a refusal comes from an explicit check, never from a leaked Python error
    leaked = re.search(r"malformed|KeyError|TypeError|ValueError|AttributeError", err.getvalue())
    assert rc != 2 or not leaked, err.getvalue()
    if rc == 2 and how in ("drop", "wrong_type", "huge"):
        message = err.getvalue().partition("validation error: ")[2]
        cross_field = any(how in hows and re.match(p, message) for hows, p in _CROSS_FIELD)
        assert _names_field_or_parent(message, path) or cross_field, (how, _path_text(path), message)


@pytest.mark.parametrize("ident", ["../escaped", "ABSOLUTE/escaped", "a/../../b"])
def test_mc_id_that_writes_outside_out_exits_2(tmp_path, capsys, ident):
    # biaslab mc writes <--out>/<id>.csv; before, ../escaped wrote beside --out
    ident = ident.replace("ABSOLUTE", str(tmp_path))
    doc = catalog_config("entry8-collider-pp-mc")
    doc["id"] = ident
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["mc", "--config", str(cfg), "--reps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"validation error: id: must name a file inside --out, with no '..', got '{ident}.csv'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_mc_id_that_names_a_subdirectory_writes_there(tmp_path):
    # before, the loop ran and then writing out/sub/loop.csv failed with exit 4
    doc = catalog_config("entry8-collider-pp-mc")
    doc["id"] = "sub/loop"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    flags = ["--config", str(cfg), "--reps", "2", "--seed", "3"]
    assert cli_main(["mc", *flags, "--out", str(tmp_path / "mc")]) == 0
    assert cli_main(["run", *flags, "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "mc" / "sub" / "loop.csv").read_bytes() == (tmp_path / "run" / "loop.csv").read_bytes()


def test_collinearity_on_a_predictor_whose_squares_overflow_exits_3(tmp_path, capsys):
    # before, the auxiliary regression on 'a' gave NaN and eigvalsh raised LinAlgError (exit 1)
    doc = {"id": "coll-overflow", "seed": 1, "scm": {"n": 50, "sources": [
        {"name": "a", "kind": "normal", "params": {"mean": 0, "sd": 1e200}},
        {"name": "b", "kind": "normal", "params": {"mean": 0, "sd": 1}},
        {"name": "c", "kind": "normal", "params": {"mean": 0, "sd": 1}}],
        "equations": [{"target": "y", "linear": [["b", 1]], "error": {"sd": 1}}]},
        "analyses": [{"kind": "collinearity", "name": "coll", "formula": "y ~ a + b + c"}]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(cfg)]) == 3
    assert ("== coll: ERROR DataError: response 'a' is too large: its squares overflow float64"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["run", "mc"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_fewer_than_one_thread_exits_2(tmp_path, capsys, command, threads):
    out = tmp_path / "out"
    rc = cli_main([command, "--catalog", "entry8-collider-pp-mc", "--reps", "2", "--threads", threads,
                   "--out", str(out)])
    assert rc == 2
    assert f"validation error: --threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()
