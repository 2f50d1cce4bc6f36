"""Scenario configs: JSON ingestion, validation, execution, output emission.

A scenario couples one data-generation stage (``scm`` | ``corr`` |
``population`` | ``mc``) with an ordered list of analyses and a list of
declared file outputs.  Reproducibility is keyed entirely by seeds, each
decided by :func:`resolve_seed`.  The seed (flag, then ``seed``, then
``BIASLAB_SEED``) keys generation, ``derive_substream(seed, 0)``, and analysis
k, ``derive_substream(seed, k + 1)``.  An ``mc`` template's master seed puts
``mc.seed`` after the flag; a sampling plan's is the flag + 1, then
``sampling.seed``, then the seed + 1.  Parsing checks every seed a config holds.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields, is_dataclass, replace
from numbers import Integral, Real
from typing import Any, Callable, Mapping

import numpy as np

from . import mc as mc_mod
from .causal import (
    RowFilter,
    compare_adjustments,
    iv_wald,
    mediation,
    moderated_fit,
    subgroup_effect,
)
from .data import Dataset, balance_diff, pearson, spearman, summarize, write_csv
from .errors import BiaslabError, ValidationError, expect
from .measure import AttenuationVariant, apply_rules, attenuation_report, rules_from_json
from .regress import FitResult, Formula, check_family, collinearity_diagnostics, fit, predict
from .rng import check_seed, derive_substream
from .scm import CorrTarget, ScmSpec, block_randomize, evaluate_scm, inject_outlier, mvn_exact

_GEN_KINDS = ("scm", "corr", "population", "mc")

@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: id, seed, one generator, analyses, outputs."""

    id: str
    seed: int | None
    generator_kind: str
    generator: dict
    analyses: tuple[dict, ...]
    outputs: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        d: dict = {"id": self.id}
        if self.seed is not None:
            d["seed"] = self.seed
        d[self.generator_kind] = self.generator
        d["analyses"] = list(self.analyses)
        d["outputs"] = list(self.outputs)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def with_reps(self, reps: int) -> "ScenarioConfig":
        gen = json.loads(json.dumps(self.generator))
        if self.generator_kind == "mc":
            gen["reps"] = reps
        elif self.generator_kind == "population":
            gen["sampling"]["reps"] = reps
        return replace(self, generator=gen)


def _fail(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}")


_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def _malformed(path: str, exc: Exception) -> ValidationError:
    return _fail(path, f"malformed ({type(exc).__name__}: {exc})")


def resolve_seed(flag: int | None, *fallbacks: tuple[str, Any]) -> tuple[int, str]:
    """The seed and the name of its source: the ``--seed`` flag, then each
    ``(name, value)`` fallback whose value is not None, then ``BIASLAB_SEED``.

    The winner must be an integer in [0, 2^64); a bool, any other type or an
    out-of-range value is a ``ValidationError`` naming its source, as is no
    seed at all.
    """
    env = os.environ.get("BIASLAB_SEED")
    for source, value in (("--seed", flag), *fallbacks, ("BIASLAB_SEED", env)):
        if value is None:
            continue
        if source == "BIASLAB_SEED" and value.strip().lstrip("+-").isdecimal():
            value = int(value)
        check_seed(source, value)
        return value, source
    raise ValidationError("no seed: pass --seed, set the config's seed or set BIASLAB_SEED")


def _build_generator(
    kind: str, gen: Mapping, flag: int | None, config_seed: int | None
) -> tuple[Callable, list[str], list[str]]:
    """Parse a generator payload once.

    Returns ``generate(workers) -> (dataset, mc_result)``, the columns the
    generator defines (none for ``mc``, whose scenarios analyse series) and
    the series of its MC result, ``i`` and ``N`` included (none for ``scm``
    and ``corr``).  Its seeds come from :func:`resolve_seed`, an embedded
    seed going between ``flag`` and ``config_seed``.
    """
    def seed_of(*embedded):
        return resolve_seed(flag, *embedded, ("seed", config_seed))

    try:
        if kind == "mc":
            master, _ = seed_of(("mc.seed", gen.get("seed")))
            template = mc_mod.McTemplate.from_json_dict({**gen, "seed": master})
            return (lambda workers: (None, mc_mod.run_mc(template, workers=workers)), [],
                    ["i", "N", *template.series_names()])
        seed, _ = seed_of()
        if kind == "corr":
            target, n = CorrTarget.from_json_dict(gen), gen["n"]
            expect(Integral, "corr", n=n)
            return (lambda workers: (mvn_exact(target, n, derive_substream(seed, 0)), None),
                    list(target.names), [])
        try:
            spec = ScmSpec.from_json_dict(gen["scm"] if kind == "population" else gen)
        except ValidationError as exc:
            raise _fail("population.scm" if kind == "population" else "scm", str(exc)) from exc
        if not spec.is_concrete():
            raise _fail(kind, f"placeholders {sorted(spec.placeholders())} are only valid in mc templates")
        columns = spec.column_names()
        if kind == "scm":
            return lambda workers: (evaluate_scm(spec, derive_substream(seed, 0)), None), columns, []
        # the flag and the config's seed key the population itself, so the
        # sampling stream takes them + 1 (an embedded sampling.seed as is)
        master, source = seed_of(("population.sampling.seed", gen["sampling"].get("seed")))
        if source != "population.sampling.seed":
            master = (master + 1) % 2**64
        plan = mc_mod.SamplingPlan.from_json_dict({**gen["sampling"], "seed": master})
        mc_mod.check_reads("population.sampling", plan.analysis, columns, plan.row_filter)
    except _MALFORMED as exc:
        raise _malformed(kind, exc) from exc

    def sample(workers: int):
        pop = evaluate_scm(spec, derive_substream(seed, 0))
        return pop, mc_mod.repeated_samples(pop, plan, workers=workers)

    return sample, columns, ["i", "N", *plan.series_names()]


# -- analysis kinds ------------------------------------------------------------
#
# A builder parses one analysis document and returns the columns the analysis
# reads, the column it adds (or None), and a runner
# ``(data, rng) -> (artifact, data seen by later analyses)``.

_Built = tuple[list[str], "str | None", Callable[[Dataset, np.random.Generator], tuple[Any, Dataset]]]


def _unchanged(fn: Callable[[Dataset], Any]) -> Callable:
    """The runner of an analysis that needs no randomness and adds no column."""
    return lambda data, rng: (fn(data), data)


def _fit(a: Mapping) -> _Built:
    formula, family = Formula.parse(a["formula"]), check_family(a.get("family", "gaussian"))
    return formula.variables(), None, _unchanged(lambda d: fit(d, formula, family=family))


def _collinearity(a: Mapping) -> _Built:
    formula = Formula.parse(a["formula"])
    return formula.variables(), None, _unchanged(lambda d: collinearity_diagnostics(d, formula))


def _compare_adjustments(a: Mapping) -> _Built:
    expect(Real, "compare_adjustments", optional=True, truth=a.get("truth"))
    reads = [a["y"], a["x"], *(v for s in a["covariate_sets"] for v in s)]
    return reads, None, _unchanged(lambda d: compare_adjustments(
        d, a["y"], a["x"], a["covariate_sets"], truth=a.get("truth"), scenario_id=a["name"]))


def _iv(a: Mapping) -> _Built:
    return [a["y"], a["x"], a["instrument"]], None, _unchanged(
        lambda d: iv_wald(d, a["y"], a["x"], a["instrument"], allow_weak=a.get("allow_weak", False)))


def _mediation(a: Mapping) -> _Built:
    return [a["y"], a["x"], a["m"]], None, _unchanged(lambda d: mediation(d, a["y"], a["x"], a["m"]))


def _moderated_fit(a: Mapping) -> _Built:
    return [a["y"], a["x"], a["mo"]], None, _unchanged(
        lambda d: moderated_fit(d, a["y"], a["x"], a["mo"]))


def _subgroup(a: Mapping) -> _Built:
    where = RowFilter.from_json_list(a["where"])
    reads = [a["y"], a["x"], *(c.var for c in where.conditions)]
    return reads, None, _unchanged(lambda d: subgroup_effect(d, a["y"], a["x"], where))


def _balance(a: Mapping) -> _Built:
    return [a["group"], *a["covariates"]], None, _unchanged(
        lambda d: balance_diff(d, a["group"], a["covariates"]))


def _block_balance(a: Mapping) -> _Built:
    name = a.get("as", "treated")

    def run(data: Dataset, rng: np.random.Generator):
        with_assign = data.with_column(name, block_randomize(data, a["strata"], rng))
        return balance_diff(with_assign, name, a["covariates"]), with_assign

    return [a["strata"], *a["covariates"]], name, run


def _attenuation(a: Mapping) -> _Built:
    variants = [AttenuationVariant.from_json_dict(v) for v in a["variants"]]
    return [a["y"], a["x"]], None, _unchanged(
        lambda d: attenuation_report(d, a["y"], a["x"], variants))


def _summary(a: Mapping) -> _Built:
    return [a["var"]], None, _unchanged(lambda d: summarize(d[a["var"]], a["var"]))


def _correlation(a: Mapping) -> _Built:
    method = a.get("method", "pearson")
    corr = {"pearson": pearson, "spearman": spearman}.get(method)
    if corr is None:
        raise ValidationError(f"method must be pearson or spearman, got {method!r}")

    def run(data: Dataset) -> dict:
        x, y = data[a["x"]], data[a["y"]]
        n_used = int((~(np.isnan(x) | np.isnan(y))).sum())
        return {"method": method, "x": a["x"], "y": a["y"], "r": corr(x, y), "n_used": n_used}

    return [a["x"], a["y"]], None, _unchanged(run)


def _outlier_fit(a: Mapping) -> _Built:
    formula, family = Formula.parse(a["formula"]), check_family(a.get("family", "gaussian"))
    means = {col: v[5:] for col, v in a["assign"].items()
             if isinstance(v, str) and v.startswith("mean:")}
    fixed = {col: float(v) for col, v in a["assign"].items() if col not in means}

    def run(data: Dataset) -> FitResult:
        at_means = {col: float(np.nanmean(data[v])) for col, v in means.items()}
        return fit(inject_outlier(data, {**fixed, **at_means}), formula, family=family)

    return [*formula.variables(), *a["assign"], *means.values()], None, _unchanged(run)


def _recode(a: Mapping) -> _Built:
    rules = rules_from_json(a["rule"])

    def run(data: Dataset, rng: np.random.Generator):
        values = apply_rules(data[a["var"]], rules, a["var"])
        missing = np.isnan(values)
        counts = {str(k): int(c) for k, c in zip(*np.unique(values[~missing], return_counts=True))}
        artifact = {"column": a["as"], "levels": counts, "n_missing": int(np.count_nonzero(missing))}
        return artifact, data.with_column(a["as"], values)

    return [a["var"]], a["as"], run


# kind -> (required fields, builder)
_ANALYSES: dict[str, tuple[tuple[str, ...], Callable[[Mapping], _Built]]] = {
    "fit": (("formula",), _fit),
    "collinearity": (("formula",), _collinearity),
    "compare_adjustments": (("y", "x", "covariate_sets"), _compare_adjustments),
    "iv": (("y", "x", "instrument"), _iv),
    "mediation": (("y", "x", "m"), _mediation),
    "moderated_fit": (("y", "x", "mo"), _moderated_fit),
    "subgroup": (("y", "x", "where"), _subgroup),
    "balance": (("group", "covariates"), _balance),
    "block_balance": (("strata", "covariates"), _block_balance),
    "attenuation": (("y", "x", "variants"), _attenuation),
    "summary": (("var",), _summary),
    "correlation": (("x", "y"), _correlation),
    "outlier_fit": (("assign", "formula"), _outlier_fit),
    "recode": (("var", "rule", "as"), _recode),
}


def parse_config(doc: Mapping | str) -> ScenarioConfig:
    """Validate a scenario JSON document; errors carry field paths."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise ValidationError("config must be a JSON object")
    ident = doc.get("id")
    if not isinstance(ident, str) or not ident:
        raise _fail("id", "required non-empty string")
    seed = doc.get("seed")
    if seed is not None:
        resolve_seed(None, ("seed", seed))
    gens = [k for k in _GEN_KINDS if k in doc]
    if len(gens) != 1:
        raise _fail("config", f"exactly one of {_GEN_KINDS} required, found {gens}")
    kind = gens[0]
    gen = doc[kind]
    if not isinstance(gen, Mapping):
        raise _fail(kind, "must be an object")
    # checks every embedded seed; a config without a seed leaves it to the run
    _, columns, series = _build_generator(kind, gen, None, 0 if seed is None else seed)
    defined = set(columns)

    analyses = []
    for idx, a in enumerate(_json_list(doc, "analyses")):
        path = f"analyses[{idx}]"
        if kind == "mc":  # its replicates run the template's own analysis steps
            raise _fail(path, "mc scenarios do not support dataset analyses")
        if not isinstance(a, Mapping):
            raise _fail(path, "must be an object")
        akind = a.get("kind")
        if not isinstance(akind, str) or akind not in _ANALYSES:
            raise _fail(f"{path}.kind", f"unknown kind {akind!r}; valid: {tuple(_ANALYSES)}")
        a = {**a, "name": a.get("name", f"{akind}_{idx}")}
        expect(str, path, name=a["name"])
        if a["name"] in (prev["name"] for prev in analyses):
            raise _fail(f"{path}.name", f"duplicate analysis name {a['name']!r}")
        required, build = _ANALYSES[akind]
        for f in required:
            if f not in a:
                raise _fail(f"{path}.{f}", "required")
        try:
            reads, adds, _ = build(a)
            unknown = [nm for nm in reads if nm not in defined]
            if adds is not None:
                defined.add(adds)
        except ValidationError as exc:
            raise _fail(path, str(exc)) from exc
        except _MALFORMED as exc:
            raise _malformed(path, exc) from exc
        if unknown:
            raise _fail(path, f"unknown column {unknown[0]!r}; generator defines {columns}")
        analyses.append(a)

    outputs = []
    seen_paths: set[str] = set()
    analysis_kinds = {a["name"]: a["kind"] for a in analyses}
    for idx, o in enumerate(_json_list(doc, "outputs")):
        path = f"outputs[{idx}]"
        if not isinstance(o, Mapping) or not all(isinstance(o.get(f), str) for f in ("what", "path")):
            raise _fail(path, "needs string 'what' and 'path'")
        if o["path"] in seen_paths:
            raise _fail(f"{path}.path", f"duplicate output path {o['path']!r}")
        seen_paths.add(o["path"])
        fmt = o.get("format")
        if fmt is not None and fmt not in ("csv", "json"):
            raise _fail(f"{path}.format", f"must be csv or json, got {fmt!r}")
        _check_output(f"{path}.what", o["what"], kind, analysis_kinds, defined, series)
        outputs.append(dict(o))

    return ScenarioConfig(
        id=ident,
        seed=seed,
        generator_kind=kind,
        generator=json.loads(json.dumps(gen)),
        analyses=tuple(analyses),
        outputs=tuple(outputs),
    )


# analysis kinds whose artifact is a FitResult, which a fitted_line plots
_FIT_KINDS = ("fit", "moderated_fit", "subgroup", "outlier_fit")


def _check_output(
    path: str, what: str, gen_kind: str, analyses: Mapping[str, str], columns: set[str], series: list[str]
) -> None:
    """Reject an output that could not be written, before anything runs.

    ``columns`` are the dataset's columns after every analysis has run, and
    ``series`` the names an MC result answers to."""
    head, _, rest = what.partition(":")
    if head not in ("dataset", "analysis", "mc", "mc_summary", "histogram", "scatter", "fitted_line"):
        raise _fail(path, f"unknown output kind {what!r}")
    if head == "analysis" and rest not in analyses:
        raise _fail(path, f"output references unknown analysis {rest!r}")
    fit_name = rest.partition(":")[0]
    if head == "fitted_line" and analyses.get(fit_name) not in _FIT_KINDS:
        raise _fail(path, f"fitted_line needs a declared fit, got {fit_name!r}")
    if head in ("mc", "mc_summary") and gen_kind not in ("mc", "population"):
        raise _fail(path, f"output {head!r} requires an mc or population scenario")
    if head in ("dataset", "scatter", "fitted_line") and gen_kind == "mc":
        raise _fail(path, f"output {head!r} requires a dataset scenario")
    if head == "histogram":
        name, _, bins = rest.partition(":")
        try:
            nbins = int(bins)
        except ValueError:
            raise _fail(path, f"histogram bins must be an integer, got {bins!r}") from None
        if nbins < 1:
            raise _fail(path, f"histogram bins must be >= 1, got {nbins}")
        reads = [name]
    else:
        first, _, second = rest.partition(":")
        reads = {"scatter": [first, second], "fitted_line": [second], "mc_summary": [rest]}.get(head, [])
        if head == "scatter" and first == second:  # a dataset holds one column per name
            raise _fail(path, f"scatter needs two different columns, got {what!r}")
    # a histogram of an mc or population scenario, like a summary, reads a series
    if head == "mc_summary" or (head == "histogram" and gen_kind in ("mc", "population")):
        known, noun = series, "series"
    else:
        known, noun = columns, "column"
    for name in reads:
        if name not in known:
            raise _fail(path, f"unknown {noun} {name!r}; have {sorted(known)}")


def _json_list(doc: Mapping, field: str) -> list:
    items = doc.get(field, [])
    if not isinstance(items, list):
        raise _fail(field, "must be a list")
    return items


def load_config(path: str) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config(fh.read())


# -- execution ---------------------------------------------------------------


@dataclass
class ScenarioRun:
    config: ScenarioConfig
    data: Dataset | None
    mc_result: "mc_mod.McResult | None"
    artifacts: dict[str, Any]
    analysis_errors: dict[str, str]
    files: list[str]
    skipped_outputs: dict[str, str]  # output path -> the failed analysis it shows


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: str | None = None,
    seed: int | None = None,
    workers: int = 1,
    default_format: str = "json",
) -> ScenarioRun:
    """Generate, analyse, and write declared outputs.

    Analysis failures are recorded per analysis and do not stop the run.
    The outputs of a failed analysis are skipped and listed in
    ``skipped_outputs``; every other output is written.  Callers decide the
    exit status from ``analysis_errors`` and ``skipped_outputs``.
    """
    generate, _, _ = _build_generator(cfg.generator_kind, cfg.generator, seed, cfg.seed)
    data, mc_result = generate(workers)
    artifacts: dict[str, Any] = {}
    errors: dict[str, str] = {}
    working = data
    for k, a in enumerate(cfg.analyses):
        try:
            _, _, run = _ANALYSES[a["kind"]][1](a)
            rng = derive_substream(resolve_seed(seed, ("seed", cfg.seed))[0], k + 1)
            artifact, working = run(working, rng)
            artifacts[a["name"]] = artifact
        except BiaslabError as exc:
            errors[a["name"]] = f"{type(exc).__name__}: {exc}"
    files: list[str] = []
    skipped: dict[str, str] = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for o in cfg.outputs:
            path = os.path.join(out_dir, o["path"])
            head, _, rest = o["what"].partition(":")
            source = rest.partition(":")[0] if head == "fitted_line" else rest
            if head in ("analysis", "fitted_line") and source in errors:
                skipped[path] = source
                continue
            _write_output(o, path, working, mc_result, artifacts, o.get("format", None), default_format)
            files.append(path)
    return ScenarioRun(
        config=cfg,
        data=working,
        mc_result=mc_result,
        artifacts=artifacts,
        analysis_errors=errors,
        files=files,
        skipped_outputs=skipped,
    )


# -- output emission -----------------------------------------------------------


def artifact_json(artifact: Any) -> Any:
    """An artifact as JSON data: its own ``to_json_dict``, a dict as is, or a
    dataclass's repr fields, with arrays as lists and tuples of dataclasses
    as lists of dicts."""
    if hasattr(artifact, "to_json_dict"):
        return artifact.to_json_dict()
    if isinstance(artifact, dict):
        return artifact
    if is_dataclass(artifact):
        return {f.name: _json_value(getattr(artifact, f.name)) for f in fields(artifact) if f.repr}
    raise ValidationError(f"cannot serialize artifact of type {type(artifact).__name__}")


def _json_value(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple) and all(map(is_dataclass, value)):
        return [artifact_json(v) for v in value]
    return value


def _artifact_csv_rows(artifact: Any) -> tuple[list[str], list[list]]:
    if hasattr(artifact, "csv_rows"):
        return artifact.csv_rows()
    return ["field", "value"], [[k, json.dumps(v)] for k, v in artifact_json(artifact).items()]


def _write_output(
    o: Mapping,
    path: str,
    data: Dataset | None,
    mc_result: "mc_mod.McResult | None",
    artifacts: dict[str, Any],
    fmt: str | None,
    default_format: str,
) -> None:
    what = o["what"]
    head, _, rest = what.partition(":")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if head == "dataset":
        write_csv(data, path)
        return
    if head == "mc":
        mc_mod.write_mc_csv(mc_result, path)
        return
    if head == "histogram":
        series, _, nbins = rest.partition(":")
        if mc_result is not None:
            bins = mc_mod.histogram(mc_result, series, int(nbins))
        else:
            bins = mc_mod.value_histogram(data[series], series, int(nbins))  # type: ignore[index]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lo", "hi", "count"])
            w.writerows([[repr(lo), repr(hi), c] for lo, hi, c in bins])
        return
    if head == "scatter":
        xname, _, yname = rest.partition(":")
        write_csv(Dataset({xname: data[xname], yname: data[yname]}), path)  # type: ignore[index]
        return
    if head == "fitted_line":
        fit_name, _, xname = rest.partition(":")
        fit_res = artifacts[fit_name]
        x = data[xname]  # type: ignore[index]
        grid = {xname: np.linspace(float(np.nanmin(x)), float(np.nanmax(x)), 100)}
        # other variables in the formula are held at their means
        for v in fit_res.formula.variables()[1:]:
            if v != xname:
                grid[v] = np.full(100, float(np.nanmean(data[v])))  # type: ignore[index]
        yhat = predict(fit_res, Dataset(grid))
        write_csv(Dataset({xname: grid[xname], "fitted": yhat}), path)
        return
    if head == "mc_summary":
        artifact, chosen = mc_mod.summarize_series(mc_result, rest), "json"
    else:
        artifact, chosen = artifacts[rest], fmt or default_format
    if chosen == "csv":
        header, rows = _artifact_csv_rows(artifact)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    else:
        with open(path, "w") as fh:
            json.dump(artifact_json(artifact), fh, indent=2)
            fh.write("\n")
