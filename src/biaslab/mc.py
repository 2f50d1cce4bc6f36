"""Reproducible Monte Carlo harness.

Two drivers share one replicate runner:

* :func:`run_mc` — randomized-specification loops: per replicate, draw the
  sample size and every placeholder from its range, evaluate the model
  template, run the analysis plan, and record the requested estimates.
* :func:`repeated_samples` — repeated sampling without replacement from a
  fixed population (optionally pre-filtered), fitting per sample.

Replicate ``i`` always uses ``derive_substream(master_seed, i)``, so results
are independent of execution order and worker count, and adding replicates
never perturbs earlier ones; the loop passes it an ``rng.Substreams``, which
computes the streams' states for a range of ids at once.  Replicate failures
(singular designs from extreme draws) are recorded as missing with an error
tag, never fatal.  With ``workers > 1`` the parent runs replicate 0, then it
and ``workers - 1`` children, each started on its own CPU with BLAS at one
thread, take ranges of replicate indices from one queue; a child gets the
call's fixed inputs once (inherited, not pickled, under ``fork``) and sends
its rows back once.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from .causal import _OPS, _holds, iv_wald, RowFilter
from .data import _BALANCE_DELTAS, Dataset, balance_diff, pearson, quantiles_type7, write_rows
from .errors import BiaslabError, DataError, Doc, ParameterError, ValidationError, expect, expect_count, shown
from .regress import Formula, fit, fit_ols, fit_terms
from .rng import Substreams, check_seed, derive_substream, sample_indices
from .scm import ScmSpec, bind_spec, evaluate_scm


@dataclass(frozen=True)
class RangeSpec:
    """Closed range for a uniform draw (real) or integer draw (for n)."""

    lo: float
    hi: float

    def __post_init__(self):
        expect(Real, lo=self.lo, hi=self.hi)
        if self.lo > self.hi:
            raise ValidationError(f"lo > hi, got lo={shown(self.lo)}, hi={shown(self.hi)}")

    def draw(self, rng: np.random.Generator) -> float:
        if self.lo == self.hi:
            return float(self.lo)
        return float(rng.uniform(self.lo, self.hi))

    def draw_int(self, rng: np.random.Generator) -> int:
        return int(rng.integers(int(self.lo), int(self.hi) + 1))


# -- analysis plan steps -----------------------------------------------------


_FIT_SELECTORS = ("b", "se", "stat", "p", "beta")


def _check_selectors(record: Sequence[tuple[str, str]], known) -> None:
    for name, selector in record:
        if not isinstance(selector, str) or not known(selector):
            raise ValidationError(f"unknown selector {shown(selector)}", f"record.{name}")


@dataclass(frozen=True)
class FitStep:
    """Fit a formula and record selected quantities.

    Selectors: ``b:T`` ``se:T`` ``stat:T`` ``p:T`` ``beta:T`` (term T) and ``r2``.
    """

    formula: str
    record: tuple[tuple[str, str], ...]
    family: str = "gaussian"

    def __post_init__(self):
        parsed = Formula.parse(self.formula)
        terms = fit_terms(parsed, self.family)
        _check_selectors(self.record, lambda s: s == "r2" or s.partition(":")[0] in _FIT_SELECTORS)
        # (name, selector, index of its term in the fit; None for r2)
        picks = []
        for name, selector in self.record:
            what, _, term = selector.partition(":")
            if what != "r2" and term not in terms:
                raise ValidationError(f"no term {term!r} in fit; have {list(terms)}", f"record.{name}")
            picks.append((name, what, None if what == "r2" else terms.index(term)))
        object.__setattr__(self, "_parsed", parsed)
        object.__setattr__(self, "_picks", tuple(picks))
        object.__setattr__(self, "_wants_beta", any(what == "beta" for _, what, _ in picks))

    def run(self, data: Dataset) -> dict[str, float]:
        if self.family == "gaussian":
            f = fit_ols(data, self._parsed, standardized=self._wants_beta)
        else:
            f = fit(data, self._parsed, family=self.family)
        out = {}
        for name, what, idx in self._picks:
            if what == "r2":
                out[name] = f.r_squared if f.r_squared is not None else float("nan")
            else:
                out[name] = float(getattr(f, what)[idx])
        return out

    def reads(self) -> list[str]:
        return self._parsed.variables()


@dataclass(frozen=True)
class IvStep:
    """Wald IV analysis; selectors: ratio, b_yin, se_yin, b_xin, se_xin."""

    y: str
    x: str
    instrument: str
    record: tuple[tuple[str, str], ...]
    allow_weak: bool = True

    def __post_init__(self):
        expect(str, y=self.y, x=self.x, instrument=self.instrument)
        _check_selectors(self.record, lambda s: s in ("ratio", "b_yin", "se_yin", "b_xin", "se_xin"))

    def run(self, data: Dataset) -> dict[str, float]:
        est = iv_wald(data, self.y, self.x, self.instrument, allow_weak=self.allow_weak)
        return {name: float(getattr(est, selector)) for name, selector in self.record}

    def reads(self) -> list[str]:
        return [self.y, self.x, self.instrument]


@dataclass(frozen=True)
class BalanceStep:
    """Group balance moments; selectors: delta_mean:COV, delta_sd:COV, ..."""

    group: str
    covariates: tuple[str, ...]
    record: tuple[tuple[str, str], ...]

    def __post_init__(self):
        expect(str, group=self.group, **{f"covariates[{i}]": c for i, c in enumerate(self.covariates)})
        _check_selectors(self.record, lambda s: s.partition(":")[0] in _BALANCE_DELTAS
                         and s.partition(":")[2] in self.covariates)

    def run(self, data: Dataset) -> dict[str, float]:
        rep = balance_diff(data, self.group, self.covariates)
        out = {}
        for name, selector in self.record:
            what, _, cov = selector.partition(":")
            out[name] = float(getattr(rep.row(cov), what))
        return out

    def reads(self) -> list[str]:
        return [self.group, *self.covariates]


AnalysisStep = FitStep | IvStep | BalanceStep


def check_reads(analysis: Sequence[AnalysisStep], columns: Sequence[str],
                row_filter: RowFilter | None = None) -> None:
    """Refuse, before anything runs, an analysis step or a row filter of a
    loop that reads a column outside ``columns``."""
    readers = [(f"analysis[{k}]", step.reads()) for k, step in enumerate(analysis)]
    if row_filter is not None:
        readers.append(("filter", [c.var for c in row_filter.conditions]))
    for where, reads in readers:
        for name in reads:
            if name not in columns:
                raise ValidationError(f"unknown column {name!r}; have {sorted(columns)}", where)


def step_from_json(d: Doc | Mapping) -> AnalysisStep:
    """A step of an ``analysis`` list; its errors name the step's path."""
    d = Doc.of(d, "step")
    kind = d.get("kind")
    if kind.value not in ("fit", "iv", "balance"):
        raise kind.error(f"unknown analysis step kind {shown(kind.value)}")
    record = tuple(d.get("record", {}).want(dict).items())
    if kind.value == "fit":
        return d.read(FitStep, record=record)
    if kind.value == "iv":
        return d.read(IvStep, record=record, allow_weak=d.get("allow_weak", True).want(bool))
    return d.read(BalanceStep, record=record, covariates=tuple(d["covariates"].want(list)))


def _step_names(analysis: Sequence[AnalysisStep]) -> list[str]:
    return [name for step in analysis for name, _ in step.record]


def _check_loop(analysis: Sequence[AnalysisStep], taken: Sequence[str], **counts) -> None:
    """Refuse a replicate loop that cannot run or whose series would clash: each
    of ``counts`` must be an integer in [1, 2^63), and each recorded series
    name must be new, neither ``i``, ``N`` nor one of ``taken``."""
    expect_count(**counts)
    reserved = {"i", "N", *taken}
    for k, step in enumerate(analysis):
        for name, _ in step.record:
            if name in reserved:
                raise ValidationError(f"recorded series name {name!r} collides", f"analysis[{k}].record.{name}")
            reserved.add(name)


# -- templates and results ---------------------------------------------------


@dataclass(frozen=True)
class McTemplate:
    """A randomized-specification loop.

    ``scm`` may contain placeholder names; each must be bound exactly once in
    ``bindings``.  Per replicate the draw order is: sample size n, then the
    bindings in declaration order.  Drawn values are recorded alongside the
    analysis estimates.
    """

    scm: ScmSpec
    n: RangeSpec | int
    bindings: tuple[tuple[str, RangeSpec], ...]
    analysis: tuple[AnalysisStep, ...]
    reps: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "bindings", tuple(self.bindings))
        object.__setattr__(self, "analysis", tuple(self.analysis))
        sizes = {"n.lo": self.n.lo, "n.hi": self.n.hi} if isinstance(self.n, RangeSpec) else {"n": self.n}
        bound = [name for name, _ in self.bindings]
        _check_loop(self.analysis, bound, reps=self.reps, **sizes)
        check_seed("master_seed", self.master_seed)
        check_reads(self.analysis, self.scm.column_names())
        if len(set(bound)) != len(bound):
            raise ValidationError(f"placeholder bound more than once: {bound}", "bindings")
        needed = self.scm.placeholders() - {"n"}  # the template draws the sample size
        for name in bound:
            if name not in needed:
                raise ValidationError("binds no placeholder of the scm", f"bindings.{name}")
        if missing := needed.difference(bound):
            raise ValidationError(f"unbound placeholders: {sorted(missing)}", "bindings")
        # binding draws, compiled once: a lo == hi binding is its value and
        # consumes no draw; the ranged ones are drawn by one vector uniform
        ranged = [j for j, (_, r) in enumerate(self.bindings) if r.lo != r.hi]
        for j in ranged:
            name, r = self.bindings[j]
            if not math.isfinite(float(r.hi) - float(r.lo)):
                raise ValidationError(f"range [{r.lo}, {r.hi}] is not finite", f"bindings.{name}")
        lo = np.array([self.bindings[j][1].lo for j in ranged], dtype=float)
        hi = np.array([self.bindings[j][1].hi for j in ranged], dtype=float)
        object.__setattr__(self, "_names", tuple(bound))
        object.__setattr__(self, "_fixed_values", [float(r.lo) for _, r in self.bindings])
        object.__setattr__(self, "_ranged", ranged)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_width", hi - lo)

    def draw_bindings(self, rng: np.random.Generator) -> dict[str, float]:
        """One value per binding, in declaration order.

        The same values, from the same stream positions, as
        ``RangeSpec.draw`` called for each binding in turn: ``uniform(lo, hi)``
        is ``lo + (hi - lo) * u`` for one ``random()`` draw ``u``.
        """
        values = list(self._fixed_values)
        if self._ranged:
            u = rng.random(len(self._ranged))
            for j, v in zip(self._ranged, (self._lo + self._width * u).tolist()):
                values[j] = v
        return dict(zip(self._names, values))

    def series_names(self) -> list[str]:
        return [name for name, _ in self.bindings] + _step_names(self.analysis)

    @classmethod
    def from_json_dict(cls, d: Doc | Mapping) -> "McTemplate":
        """The template of a config's ``mc`` document."""
        d = Doc.of(d, "mc")
        n = d["n"]
        return d.read(
            cls,
            scm=ScmSpec.from_json_dict(d["scm"]),
            n=n.read(RangeSpec) if isinstance(n.value, dict) else n.value,
            bindings=tuple((k, v.read(RangeSpec)) for k, v in d.get("bindings", {}).items()),
            analysis=tuple(map(step_from_json, d["analysis"])),
            master_seed=d["seed"].value,
        )

    def hash(self) -> str:
        return _json_hash(self)


def _json_hash(spec: McTemplate | SamplingPlan) -> str:
    """The first 16 hex digits of the sha256 of the spec's fields as sorted-key
    JSON, each integral float written as an int, so that equal specs hash equal."""
    import hashlib  # a loop's result needs it, parsing does not
    fields = json.loads(json.dumps(asdict(spec)),
                        parse_float=lambda t: int(float(t)) if float(t).is_integer() else float(t))
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class McResult:
    """One array per series, with a row per replicate, plus provenance.

    ``columns`` maps ``i`` and ``N`` (each replicate's index and sample size,
    as integers) and then every name in ``series_names`` (float64, NaN where
    a replicate recorded no value) to its array.
    """

    series_names: tuple[str, ...]
    columns: dict[str, np.ndarray]
    errors: dict[int, str]
    template_hash: str
    master_seed: int
    n_filtered: int = 0

    def series(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValidationError(f"unknown series {name!r}; have {list(self.series_names)}")
        return self.columns[name].astype(float, copy=False)

    def __len__(self) -> int:
        return len(self.columns["i"])


def _template_data(template: McTemplate, rng: np.random.Generator, record: dict) -> Dataset:
    """A replicate's data from its stream: draw n, then the bindings, then evaluate the SCM."""
    n = template.n.draw_int(rng) if isinstance(template.n, RangeSpec) else int(template.n)
    values = template.draw_bindings(rng)
    record.update(N=n, **values)
    return evaluate_scm(bind_spec(template.scm, values, n), rng)


def run_mc(template: McTemplate, workers: int = 1) -> McResult:
    """Execute the loop; per-replicate streams make the result order-free."""
    return _run_replicates(template, _template_data, (template,), workers)


@dataclass(frozen=True)
class SamplingPlan:
    """Repeated sampling without replacement from a fixed population."""

    k: int
    reps: int
    analysis: tuple[AnalysisStep, ...]
    master_seed: int
    row_filter: RowFilter | None = None

    def __post_init__(self):
        _check_loop(self.analysis, (), k=self.k, reps=self.reps)
        check_seed("master_seed", self.master_seed)

    @classmethod
    def from_json_dict(cls, d: Doc | Mapping) -> "SamplingPlan":
        """The plan of a config's ``population.sampling`` document."""
        d = Doc.of(d, "sampling")
        return d.read(
            cls,
            analysis=tuple(map(step_from_json, d["analysis"])),
            master_seed=d["seed"].value,
            row_filter=RowFilter.from_json_list(d["filter"]) if "filter" in d else None,
        )

    def series_names(self) -> list[str]:
        return _step_names(self.analysis)

    def hash(self) -> str:
        return _json_hash(self)


def _sample_data(population: Dataset, plan: SamplingPlan, rng: np.random.Generator,
                 record: dict) -> Dataset:
    """A replicate's data from its stream: ``plan.k`` rows drawn without replacement."""
    record["N"] = plan.k
    idx = sample_indices(rng, population.n_rows, plan.k)
    return population.select_rows(np.sort(idx))


def repeated_samples(
    population: Dataset,
    plan: SamplingPlan,
    workers: int = 1,
) -> McResult:
    """Draw ``k`` rows without replacement per replicate and run the plan; a
    sample gathers, from the rows the filter keeps, the columns the plan reads."""
    check_reads(plan.analysis, population.names, plan.row_filter)
    n_rows, keep = population.n_rows, slice(None)
    if plan.row_filter is not None:
        keep = plan.row_filter.mask(population)
        n_rows = int(np.count_nonzero(keep))
    read = {name for step in plan.analysis for name in step.reads()}
    pool_data = Dataset._trusted(n_rows, {name: v[keep] for name, v in population.items() if name in read})
    if pool_data.n_rows < plan.k:
        raise DataError(
            f"population after filtering has {pool_data.n_rows} rows, cannot sample {plan.k}"
        )
    return _run_replicates(plan, _sample_data, (pool_data, plan), workers)


# -- the replicate runner -----------------------------------------------------

def _run_replicate(job: tuple, i: int,
                   streams: Substreams | None = None) -> tuple[int, list[float], str | None]:
    """Replicate ``i``'s sample size, its value of each series and its error
    tag.  A biaslab or linear-algebra error becomes the tag, and the
    estimates the replicate did not reach stay NaN.  ``job`` is (data
    function, fixed arguments, master seed, analysis, series names)."""
    data_fn, fixed, master_seed, analysis, names = job
    record: dict = {}
    error = None
    try:
        data = data_fn(*fixed, derive_substream(master_seed, i, streams), record)
        for step in analysis:
            record.update(step.run(data))
    except (BiaslabError, np.linalg.LinAlgError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return record["N"], [record.get(name, math.nan) for name in names], error


def _run_chunk(ids: range, job: tuple) -> list[tuple[int, list[float], str | None]]:
    """Replicates ``ids`` of ``job``, on one table of substreams."""
    streams = Substreams(job[2], ids)
    return [_run_replicate(job, i, streams) for i in ids]


# OpenBLAS's thread-count functions, {} being get or set: in numpy's wheel
# (64-bit integers) and in scipy's
_BLAS_APIS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads")


@contextmanager
def _one_blas_thread():
    """Hold each OpenBLAS this process has loaded at one thread, then restore
    its count.  The libraries are found among the files ``/proc/self/maps``
    lists on entry; where it does not exist, nothing changes.  One loaded
    later (scipy.linalg's, first imported by a replicate inside the block)
    keeps its own count; replicate 0 runs in the parent before the children
    start, so the loop's usual imports are loaded by then."""
    restore, paths = [], set()
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].rstrip("\n") for line in fh if "openblas" in line}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a file that is not a library, or one deleted since
            continue
        for api in _BLAS_APIS:
            if hasattr(lib, api.format("set")):
                set_threads = getattr(lib, api.format("set"))
                restore.append((set_threads, getattr(lib, api.format("get"))()))
                set_threads(1)
                break
    try:
        yield
    finally:
        for set_threads, n in restore:
            set_threads(n)


def _take(k: int, cpus: list[int], job: tuple, tasks) -> dict[int, list]:
    """Pool process ``k``'s share: the ranges of replicate ids it takes from
    ``tasks`` until a None, run and keyed by first id.  It first moves to
    ``cpus[k]``, then at once restores its CPUs: on a CPU of its own, unpinned.
    It holds BLAS at one thread, so that N processes run N BLAS threads."""
    if cpus:
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        os.sched_setaffinity(0, own)
    with _one_blas_thread():
        return {ids.start: _run_chunk(ids, job) for ids in iter(tasks.get, None)}


def _child(k: int, cpus: list[int], job: tuple, tasks, conn) -> None:
    """Pool process ``k`` >= 1: send its share, or the exception it raised, once."""
    try:
        share = _take(k, cpus, job, tasks)
    except Exception as exc:  # raised again in the parent
        share = exc
    conn.send(share)


def _run_pooled(job: tuple, reps: int, workers: int, context) -> list:
    """Replicates ``1 .. reps - 1`` on ``workers`` processes, this one among
    them, which take ranges of ids from one queue; their rows in id order."""
    import multiprocessing.connection

    context = context or multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    tasks, children = context.Queue(), []
    try:
        for k in range(1, workers):
            conn, end = context.Pipe(duplex=False)
            proc = context.Process(target=_child, args=(k, cpus, job, tasks, end), daemon=True)
            proc.start()
            children.append((proc, conn, end))
        chunk = max(1, reps // (workers * 8))
        for a in range(1, reps, chunk):
            tasks.put(range(a, min(a + chunk, reps)))
        for _ in range(workers):
            tasks.put(None)
        parts = _take(0, cpus, job, tasks)
        for proc, conn, _ in children:
            # a child that has ended has sent all it will
            multiprocessing.connection.wait([conn, proc.sentinel])
            if not conn.poll():
                proc.join()
                raise BiaslabError(f"pool process {proc.name} exited with code {proc.exitcode} "
                                   "before sending its replicates")
            share = conn.recv()
            if isinstance(share, Exception):
                raise share
            parts.update(share)
    except BaseException:
        tasks.cancel_join_thread()  # ranges may be left unread, and nothing will read them
        raise
    finally:
        for proc, conn, end in children:
            proc.kill()
            proc.join()
            conn.close()
            end.close()
        tasks.close()
    tasks.join_thread()
    return [row for a in sorted(parts) for row in parts[a]]


def _run_replicates(plan: McTemplate | SamplingPlan, data_fn, fixed: tuple, workers: int,
                    context=None) -> McResult:
    """Run replicates ``0 .. plan.reps - 1``: ``data_fn(*fixed, rng, record)`` on
    replicate ``i``'s stream ``rng``, then ``plan.analysis``, in this process or
    (after replicate 0 here) on ``workers`` processes, this one among them, from
    the ``multiprocessing`` ``context`` (by default ``fork`` on Linux, else the
    platform's), writing replicate ``i`` into row ``i`` of each series."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {shown(workers)}")
    names = tuple(plan.series_names())
    job = (data_fn, fixed, plan.master_seed, plan.analysis, names)
    reps, workers = plan.reps, min(workers, plan.reps)
    if workers > 1:
        # replicate 0 runs here, so whatever it imports (scipy.special for a
        # p-value or a logit) is loaded once and the forked processes inherit it
        rows = _run_chunk(range(1), job) + _run_pooled(job, reps, workers, context)
    else:
        rows = _run_chunk(range(reps), job)
    sizes = np.empty(reps, dtype=np.int64)
    values = np.full((len(names), reps), np.nan)  # row j is series j
    errors: dict[int, str] = {}
    for i, (n, row, error) in enumerate(rows):
        sizes[i], values[:, i] = n, row
        if error is not None:
            errors[i] = error
    return McResult(
        series_names=names,
        columns={"i": np.arange(reps), "N": sizes, **dict(zip(names, values))},
        errors=errors,
        template_hash=plan.hash(),
        master_seed=plan.master_seed,
    )


# -- filtering and aggregation ------------------------------------------------


def filter_replicates(result: McResult, conditions: Sequence[tuple[str, str, float]]) -> McResult:
    """Keep rows satisfying every (series, op, value) condition; NaN fails."""
    for series, op, _ in conditions:
        if series not in result.columns:
            raise ValidationError(f"unknown series {series!r}")
        if op not in _OPS:
            raise ValidationError(f"unknown comparison op {op!r}")
    keep = np.ones(len(result), dtype=bool)
    for series, op, value in conditions:
        keep &= _holds(result.series(series), op, value)
    kept_ids = set(result.columns["i"][keep].tolist())
    return McResult(
        series_names=result.series_names,
        columns={name: col[keep] for name, col in result.columns.items()},
        errors={i: m for i, m in result.errors.items() if i in kept_ids},
        template_hash=result.template_hash,
        master_seed=result.master_seed,
        n_filtered=result.n_filtered + int(np.count_nonzero(~keep)),
    )


@dataclass(frozen=True)
class McSummary:
    """Six-number layout: Min. 1st Qu. Median Mean 3rd Qu. Max."""

    min: float
    q1: float
    median: float
    mean: float
    q3: float
    max: float


def _clean_series(x: np.ndarray, series: str) -> np.ndarray:
    x = x[~np.isnan(x)]
    if x.size == 0:
        raise DataError(f"series {series!r} has no non-missing values")
    return x


def summarize_series(result: McResult, series: str) -> McSummary:
    x = _clean_series(result.series(series), series)
    q1, median, q3 = quantiles_type7(x, (0.25, 0.5, 0.75))
    return McSummary(
        min=float(x.min()),
        q1=q1,
        median=median,
        mean=float(x.mean()),
        q3=q3,
        max=float(x.max()),
    )


def series_correlation(result: McResult, a: str, b: str) -> float:
    return pearson(result.series(a), result.series(b))


def histogram(result: McResult, series: str, bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins over [min, max] of a series; counts sum to its non-missing n."""
    return value_histogram(result.series(series), series, bins)


def value_histogram(values: np.ndarray, name: str, bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins over [min, max] of ``values``; counts sum to the non-NaN n."""
    if bins < 1:
        raise ParameterError("bins must be >= 1")
    x = _clean_series(values, name)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        out = [(lo, hi, 0)] * bins
        out[0] = (lo, hi, int(x.size))
        return out
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    return [(float(edges[j]), float(edges[j + 1]), int(counts[j])) for j in range(bins)]


def write_mc_csv(result: McResult, path: str) -> None:
    """Columns: i, N, then the recorded series; missing cells are empty."""
    names = ("i", "N", *result.series_names)
    columns = [result.columns[name].tolist() for name in names]
    write_rows(path, names, ([i, n, *("" if math.isnan(v) else v for v in values)]
                             for i, n, *values in zip(*columns)))
