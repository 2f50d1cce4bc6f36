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

import json
import os
import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from numbers import Real
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
from .data import Dataset, balance_diff, pearson, spearman, summarize, write_csv, write_rows
from .errors import BiaslabError, Doc, ValidationError, expect, expect_count, shown
from .regress import FitResult, Formula, check_family, collinearity_diagnostics, fit, predict
from .rng import check_seed, derive_substream
from .scm import CorrTarget, ScmSpec, block_randomize, evaluate_scm, inject_outlier, mvn_exact

_GEN_KINDS = ("scm", "corr", "population", "mc")

@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: id, seed, one generator, analyses, outputs.

    ``generate``, ``runners`` and ``writers`` are built once by
    :func:`parse_config`: ``generate(flag, workers) -> (dataset, mc result)``
    resolves its seeds at each call, runner ``k`` maps ``(data, rng)`` to
    ``(artifact, data seen by later analyses)``, and writer ``k`` is output
    ``k``'s ``(path, source, write)``, the last two from :func:`_output`.
    """

    id: str
    seed: int | None
    generator_kind: str
    generator: dict
    analyses: tuple[dict, ...]
    outputs: tuple[dict, ...]
    generate: Callable = field(compare=False, repr=False)
    runners: tuple[Callable, ...] = field(compare=False, repr=False)
    writers: tuple[tuple[str, "str | None", Callable], ...] = field(compare=False, repr=False)

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
        """The scenario parsed again with ``reps`` replicates, if it has a loop."""
        doc = json.loads(self.to_json())
        if self.generator_kind == "mc":
            doc["mc"]["reps"] = reps
        elif self.generator_kind == "population":
            doc["population"]["sampling"]["reps"] = reps
        return parse_config(doc)


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
        if source == "BIASLAB_SEED" and re.fullmatch(r"\s*[+-]?\d+\s*", value):
            value = int(value)
        check_seed(source, value)
        return value, source
    raise ValidationError("no seed: pass --seed, set the config's seed or set BIASLAB_SEED")


def _embedded_seed(d: Doc) -> int | None:
    """The ``seed`` of object ``d``, None where the key is absent; a written
    seed, JSON null included, must be an integer in [0, 2^64)."""
    seed = d.get("seed")
    if "seed" in d:
        check_seed(seed.path, seed.value)
    return seed.value


def _build_generator(
    kind: str, gen: Doc, config_seed: int | None
) -> tuple[Callable, list[str], list[str]]:
    """Build a generator document once.

    Returns ``generate(flag, workers) -> (dataset, mc_result)``, the columns
    the generator defines (none for ``mc``, whose scenarios analyse series)
    and the series of its MC result, ``i`` and ``N`` included (none for
    ``scm`` and ``corr``).  ``generate`` resolves its seeds through
    :func:`resolve_seed`, an embedded seed going between the ``flag`` and
    ``config_seed``.  An embedded seed is checked here, with a stand-in for
    a missing ``config_seed``.
    """
    stand_in = 0 if config_seed is None else config_seed

    def data_seed(flag):
        return resolve_seed(flag, ("seed", config_seed))[0]

    if kind == "mc":
        embedded = _embedded_seed(gen)

        def master(flag, seed):
            return resolve_seed(flag, ("mc.seed", embedded), ("seed", seed))[0]

        template = mc_mod.McTemplate.from_json_dict(
            Doc({**gen.want(dict), "seed": master(None, stand_in)}, gen.path))

        def run(flag, workers):
            bound = replace(template, master_seed=master(flag, config_seed))
            return None, mc_mod.run_mc(bound, workers=workers)

        return run, [], ["i", "N", *template.series_names()]
    if kind == "corr":
        target, n = CorrTarget.from_json_dict(gen), gen["n"].value
        gen.build(expect_count, n=n)
        return (lambda flag, workers: (mvn_exact(target, n, derive_substream(data_seed(flag), 0)), None),
                list(target.names), [])
    doc = gen["scm"] if kind == "population" else gen
    spec = ScmSpec.from_json_dict(doc)
    for where, v in [("n", spec.n), *spec.numbers()]:  # only an mc template binds placeholders
        if isinstance(v, str):
            raise doc.at(where).error(f"placeholder {v!r} is only valid in mc templates")
    columns = spec.column_names()
    if kind == "scm":
        return (lambda flag, workers: (doc.build(evaluate_scm, spec, derive_substream(data_seed(flag), 0)),
                                       None), columns, [])
    sampling = gen["sampling"]
    embedded = ("population.sampling.seed", _embedded_seed(sampling))

    def master(flag, seed):
        # the flag and the config's seed key the population itself, so the
        # sampling stream takes them + 1 (an embedded sampling.seed as is)
        value, source = resolve_seed(flag, embedded, ("seed", seed))
        return value if source == embedded[0] else (value + 1) % 2**64

    plan = mc_mod.SamplingPlan.from_json_dict(
        Doc({**sampling.want(dict), "seed": master(None, stand_in)}, sampling.path))
    sampling.build(mc_mod.check_reads, plan.analysis, columns, plan.row_filter)

    def sample(flag, workers):
        pop = doc.build(evaluate_scm, spec, derive_substream(data_seed(flag), 0))
        bound = replace(plan, master_seed=master(flag, config_seed))
        return pop, mc_mod.repeated_samples(pop, bound, workers=workers)

    return sample, columns, ["i", "N", *plan.series_names()]


# -- analysis kinds ------------------------------------------------------------
#
# A builder reads one analysis document and returns the columns the analysis
# reads, the column it adds (or None), and a runner
# ``(data, rng) -> (artifact, data seen by later analyses)``.

_Built = tuple[list[str], "str | None", Callable[[Dataset, "np.random.Generator"], tuple[Any, Dataset]]]


def _unchanged(fn: Callable[[Dataset], Any]) -> Callable:
    """The runner of an analysis that needs no randomness and adds no column."""
    return lambda data, rng: (fn(data), data)


def _fields(a: Doc, *keys: str) -> list[str]:
    return [a[k].want(str) for k in keys]


def _fit(a: Doc) -> _Built:
    formula, family = Formula.parse(a["formula"].value), check_family(a.get("family", "gaussian").value)
    return formula.variables(), None, _unchanged(lambda d: fit(d, formula, family=family))


def _collinearity(a: Doc) -> _Built:
    formula = Formula.parse(a["formula"].value)
    return formula.variables(), None, _unchanged(lambda d: collinearity_diagnostics(d, formula))


def _compare_adjustments(a: Doc) -> _Built:
    y, x, name = _fields(a, "y", "x", "name")
    sets, truth = [[v.want(str) for v in s] for s in a["covariate_sets"]], a.get("truth").value
    expect(Real, optional=True, truth=truth)
    return [y, x, *(v for s in sets for v in s)], None, _unchanged(
        lambda d: compare_adjustments(d, y, x, sets, truth=truth, scenario_id=name))


def _iv(a: Doc) -> _Built:
    y, x, z = reads = _fields(a, "y", "x", "instrument")
    allow_weak = a.get("allow_weak", False).want(bool)
    return reads, None, _unchanged(lambda d: iv_wald(d, y, x, z, allow_weak=allow_weak))


def _mediation(a: Doc) -> _Built:
    y, x, m = reads = _fields(a, "y", "x", "m")
    return reads, None, _unchanged(lambda d: mediation(d, y, x, m))


def _moderated_fit(a: Doc) -> _Built:
    y, x, mo = reads = _fields(a, "y", "x", "mo")
    return reads, None, _unchanged(lambda d: moderated_fit(d, y, x, mo))


def _subgroup(a: Doc) -> _Built:
    (y, x), where = _fields(a, "y", "x"), RowFilter.from_json_list(a["where"])
    return [y, x, *(c.var for c in where.conditions)], None, _unchanged(
        lambda d: subgroup_effect(d, y, x, where))


def _balance(a: Doc) -> _Built:
    group, covariates = a["group"].want(str), [c.want(str) for c in a["covariates"]]
    return [group, *covariates], None, _unchanged(lambda d: balance_diff(d, group, covariates))


def _block_balance(a: Doc) -> _Built:
    strata, covariates = a["strata"].want(str), [c.want(str) for c in a["covariates"]]
    name = a.get("as", "treated").want(str)

    def run(data: Dataset, rng: np.random.Generator):
        with_assign = data.with_column(name, block_randomize(data, strata, rng))
        return balance_diff(with_assign, name, covariates), with_assign

    return [strata, *covariates], name, run


def _attenuation(a: Doc) -> _Built:
    # measure loads only with the kinds that use it; like the writers, their
    # runners look its functions up when they run
    from . import measure
    y, x = _fields(a, "y", "x")
    variants = [measure.AttenuationVariant.from_json_dict(v) for v in a["variants"]]
    return [y, x], None, _unchanged(lambda d: measure.attenuation_report(d, y, x, variants))


def _summary(a: Doc) -> _Built:
    var = a["var"].want(str)
    return [var], None, _unchanged(lambda d: summarize(d[var], var))


def _correlation(a: Doc) -> _Built:
    x, y = _fields(a, "x", "y")
    method = a.get("method", "pearson").want(str)
    corr = {"pearson": pearson, "spearman": spearman}.get(method)
    if corr is None:
        raise ValidationError(f"must be pearson or spearman, got {shown(method)}", "method")

    def run(data: Dataset) -> dict:
        xs, ys = data[x], data[y]
        n_used = int((~(np.isnan(xs) | np.isnan(ys))).sum())
        return {"method": method, "x": x, "y": y, "r": corr(xs, ys), "n_used": n_used}

    return [x, y], None, _unchanged(run)


def _outlier_fit(a: Doc) -> _Built:
    formula, family = Formula.parse(a["formula"].value), check_family(a.get("family", "gaussian").value)
    assign = a["assign"].items()
    means = {col: v.value[5:] for col, v in assign
             if isinstance(v.value, str) and v.value.startswith("mean:")}
    fixed = {col: float(v.want(Real)) for col, v in assign if col not in means}

    def run(data: Dataset) -> FitResult:
        at_means = {col: float(np.nanmean(data[v])) for col, v in means.items()}
        return fit(inject_outlier(data, {**fixed, **at_means}), formula, family=family)

    return [*formula.variables(), *(col for col, _ in assign), *means.values()], None, _unchanged(run)


def _recode(a: Doc) -> _Built:
    from . import measure
    (var, name), rules = _fields(a, "var", "as"), measure.rules_from_json(a["rule"])

    def run(data: Dataset, rng: np.random.Generator):
        values = measure.apply_rules(data[var], rules, var)
        missing = np.isnan(values)
        counts = {str(k): int(c) for k, c in zip(*np.unique(values[~missing], return_counts=True))}
        artifact = {"column": name, "levels": counts, "n_missing": int(np.count_nonzero(missing))}
        return artifact, data.with_column(name, values)

    return [var], name, run


# kind -> (required fields, builder)
_ANALYSES: dict[str, tuple[tuple[str, ...], Callable[[Doc], _Built]]] = {
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


def check_out_path(path: Doc) -> None:
    """Refuse a ``path`` that names no file inside the output directory: an
    absolute one, one with a ``..`` part, an empty or ``.`` last part, or a NUL byte."""
    parts = path.want(str).split("/")
    if os.path.isabs(path.value) or ".." in parts or parts[-1] in ("", ".") or "\0" in path.value:
        raise path.error(f"must name a file inside --out, with no '..', got {shown(path.value)}")


def parse_config(doc: Mapping | str) -> ScenarioConfig:
    """Validate a scenario JSON document and build its generator and
    analyses; each error begins with the JSON path of its field."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except ValueError as exc:  # a JSONDecodeError, or an integer of more than 4300 digits
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    root = Doc(doc)
    ident = root.get("id")
    if not isinstance(ident.value, str) or not ident.value:
        raise ident.error("required non-empty string")
    seed = _embedded_seed(root)
    gens = [k for k in _GEN_KINDS if k in root]
    if len(gens) != 1:
        raise root.error(f"exactly one of {_GEN_KINDS} required, found {gens}")
    kind = gens[0]
    generate, columns, series = _build_generator(kind, root[kind], seed)
    defined = set(columns)

    analyses, runners = [], []
    for idx, a in enumerate(root.get("analyses", [])):
        if kind == "mc":  # its replicates run the template's own analysis steps
            raise a.error("mc scenarios do not support dataset analyses")
        akind = a.get("kind")
        if not isinstance(akind.value, str) or akind.value not in _ANALYSES:
            raise akind.error(f"unknown kind {akind.value!r}; valid: {tuple(_ANALYSES)}")
        a = Doc({**a.value, "name": a.get("name", f"{akind.value}_{idx}").value}, a.path)
        name = a["name"].want(str)
        if name in (prev["name"] for prev in analyses):
            raise a["name"].error(f"duplicate analysis name {name!r}")
        required, build = _ANALYSES[akind.value]
        for f in required:
            a[f]  # a missing field raises "<path>.<field>: required"
        reads, adds, run = a.build(build, a)
        unknown = [nm for nm in reads if nm not in defined]
        if unknown:
            raise a.error(f"unknown column {unknown[0]!r}; generator defines {columns}")
        if adds is not None:
            defined.add(adds)
        analyses.append(a.value)
        runners.append(run)

    outputs, writers, seen = [], [], []
    analysis_kinds = {a["name"]: a["kind"] for a in analyses}
    for o in root.get("outputs", []):
        path = o["path"]
        check_out_path(path)
        seen.append(os.path.normpath(path.value) + "/")
        clash = [p for p in seen[:-1] if p.startswith(seen[-1]) or seen[-1].startswith(p)]
        if clash:  # one file written twice, or one name needed as a file and as a directory
            raise path.error(f"output path {path.value!r} collides with {clash[0][:-1]!r}")
        outputs.append(dict(o.value))
        writers.append((path.value, *_output(o, kind, analysis_kinds, defined, series)))

    return ScenarioConfig(
        id=ident.value,
        seed=seed,
        generator_kind=kind,
        generator=json.loads(json.dumps(root[kind].value)),
        analyses=tuple(analyses),
        outputs=tuple(outputs),
        generate=generate,
        runners=tuple(runners),
        writers=tuple(writers),
    )


# analysis kinds whose artifact is a FitResult, which a fitted_line plots
_FIT_KINDS = ("fit", "moderated_fit", "subgroup", "outlier_fit")


def _output(
    o: Doc, gen_kind: str, analyses: Mapping[str, str], columns: set[str], series: list[str]
) -> tuple["str | None", Callable]:
    """Check an output before anything runs, and bind its writer.

    Returns the analysis whose failure skips the output (None if none can)
    and ``write(path, data, mc_result, artifacts, default_format)``.
    ``columns`` are the dataset's columns after every analysis has run, and
    ``series`` the names an MC result answers to."""
    what, fmt = o["what"], o.get("format")
    head, _, rest = what.want(str).partition(":")
    first, _, second = rest.partition(":")
    if head not in ("dataset", "analysis", "mc", "mc_summary", "histogram", "scatter", "fitted_line"):
        raise what.error(f"unknown output kind {what.value!r}")
    if head == "analysis" and rest not in analyses:
        raise what.error(f"output references unknown analysis {rest!r}")
    if head == "fitted_line" and analyses.get(first) not in _FIT_KINDS:
        raise what.error(f"fitted_line needs a declared fit, got {shown(first)}")
    if head in ("mc", "mc_summary") and gen_kind not in ("mc", "population"):
        raise what.error(f"output {head!r} requires an mc or population scenario")
    if head in ("dataset", "scatter", "fitted_line") and gen_kind == "mc":
        raise what.error(f"output {head!r} requires a dataset scenario")
    if head in ("dataset", "mc") and what.value != head:
        raise what.error(f"output {head!r} takes no argument, got {shown(what.value)}")
    if head == "histogram":
        try:
            nbins = int(second)
        except ValueError:
            raise what.error(f"histogram bins must be an integer, got {shown(second)}") from None
        if not 1 <= nbins < 2**63:
            raise what.error(f"histogram bins must be in [1, 2^63), got {shown(nbins)}")
    if head == "scatter" and first == second:  # a dataset holds one column per name
        raise what.error(f"scatter needs two different columns, got {shown(what.value)}")
    # a histogram of an mc or population scenario, like a summary, reads a series
    in_series = head == "mc_summary" or (head == "histogram" and gen_kind in ("mc", "population"))
    known, noun = (series, "series") if in_series else (columns, "column")
    reads = {"histogram": [first], "scatter": [first, second], "fitted_line": [second], "mc_summary": [rest]}
    for name in reads.get(head, []):
        if name not in known:
            raise what.error(f"unknown {noun} {name!r}; have {sorted(known)}")
    if fmt.value is not None and head != "analysis":
        raise fmt.error(f"only analysis outputs take a format; {head!r} is always "
                        f"{'json' if head == 'mc_summary' else 'csv'}")
    if fmt.value not in (None, "csv", "json"):
        raise fmt.error(f"must be csv or json, got {shown(fmt.value)}")

    # each writer looks up the mc_mod functions it calls when it runs
    if head == "dataset":
        return None, lambda path, data, *_: write_csv(data, path)
    if head == "mc":
        return None, lambda path, data, mc_result, *_: mc_mod.write_mc_csv(mc_result, path)
    if head == "scatter":
        return None, lambda path, data, *_: write_csv(Dataset({n: data[n] for n in (first, second)}), path)
    if head == "mc_summary":
        return None, lambda path, data, mc_result, *_: _write_artifact(
            path, mc_mod.summarize_series(mc_result, rest), "json")
    if head == "analysis":
        return rest, lambda path, data, mc_result, artifacts, default_format: _write_artifact(
            path, artifacts[rest], fmt.value or default_format)

    if head == "histogram":
        def histogram(path, data, mc_result, *_):
            bins = (mc_mod.histogram(mc_result, first, nbins) if mc_result is not None
                    else mc_mod.value_histogram(data[first], first, nbins))
            write_rows(path, ["lo", "hi", "count"], bins)
        return None, histogram

    def fitted_line(path, data, mc_result, artifacts, _):
        fit_res, x = artifacts[first], data[second]
        grid = {second: np.linspace(float(np.nanmin(x)), float(np.nanmax(x)), 100)}
        # other variables in the formula are held at their means
        for v in fit_res.formula.variables()[1:]:
            if v != second:
                grid[v] = np.full(100, float(np.nanmean(data[v])))
        write_csv(Dataset({second: grid[second], "fitted": predict(fit_res, Dataset(grid))}), path)

    return first, fitted_line


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
    output_errors: dict[str, str]  # output path -> "Class: message" of its failed writer


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
    ``skipped_outputs``; every other output is written.  A writer that fails
    with a ``BiaslabError`` is recorded in ``output_errors`` and the next
    output is written; an ``OSError`` stops the run.  Callers decide the exit
    status from ``analysis_errors`` and ``output_errors``.
    """
    data, mc_result = cfg.generate(seed, workers)
    artifacts: dict[str, Any] = {}
    errors: dict[str, str] = {}
    working = data
    for k, (a, run) in enumerate(zip(cfg.analyses, cfg.runners)):
        try:
            rng = derive_substream(resolve_seed(seed, ("seed", cfg.seed))[0], k + 1)
            artifact, working = run(working, rng)
            artifacts[a["name"]] = artifact
        except BiaslabError as exc:
            errors[a["name"]] = f"{type(exc).__name__}: {exc}"
    files: list[str] = []
    skipped: dict[str, str] = {}
    output_errors: dict[str, str] = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for rel, source, write in cfg.writers:
            path = os.path.join(out_dir, rel)
            if source in errors:
                skipped[path] = source
                continue
            try:
                _write_output(write, path, working, mc_result, artifacts, default_format)
            except BiaslabError as exc:
                output_errors[path] = f"{type(exc).__name__}: {exc}"
                continue
            files.append(path)
    return ScenarioRun(
        config=cfg,
        data=working,
        mc_result=mc_result,
        artifacts=artifacts,
        analysis_errors=errors,
        files=files,
        skipped_outputs=skipped,
        output_errors=output_errors,
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


def _write_artifact(path: str, artifact: Any, fmt: str) -> None:
    """An artifact as CSV rows (its own ``csv_rows``, or one row per JSON
    field) or, for any ``fmt`` but csv, as JSON."""
    if fmt != "csv":
        with open(path, "w") as fh:
            json.dump(artifact_json(artifact), fh, indent=2)
            fh.write("\n")
    elif hasattr(artifact, "csv_rows"):
        write_rows(path, *artifact.csv_rows())
    else:
        write_rows(path, ["field", "value"], [[k, json.dumps(v)] for k, v in artifact_json(artifact).items()])


def _write_output(
    write: Callable,
    path: str,
    data: Dataset | None,
    mc_result: "mc_mod.McResult | None",
    artifacts: dict[str, Any],
    default_format: str,
) -> None:
    """Write one declared output with the writer :func:`_output` bound."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write(path, data, mc_result, artifacts, default_format)
