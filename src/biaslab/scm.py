"""Directed-equation structural model engine and special-purpose generators.

A :class:`ScmSpec` lists exogenous sources and directed equations in
declaration order; evaluation follows that order, so any reference to a
not-yet-defined column is a hard validation error (cycles are impossible by
construction).  Numeric fields may also hold placeholder names (strings),
which :func:`bind_spec` binds to values before evaluation.

Also here: the exact-correlation multivariate normal generator, clamped
integer populations, deterministic pattern repetition, outlier injection,
and blocked randomization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import DataError, Doc, ParameterError, ValidationError, _is, expect, expect_count, shown

Value = float | str  # str = placeholder name, bound by bind_spec

# source kind -> (params that hold numbers, and may therefore hold placeholder
# names; its other params)
_SOURCE_KINDS = {
    "normal": (("mean", "sd"), ()),
    "uniform_int": (("lo", "hi"), ()),
    "pattern": (("k",), ("values", "mode")),
    "clamped_int_normal": (("mean", "sd", "lo", "hi"), ()),
}


def _number(v: Value, values: Mapping[str, float]):
    """A numeric field's number: ``v`` itself, or the value bound to the placeholder ``v``."""
    return values[v] if isinstance(v, str) else v


@dataclass(frozen=True)
class ErrorTerm:
    """Additive noise: ``scale_coef * Normal(mean, sd)`` per row; its JSON key is ``coef``."""

    scale_coef: Value = 1.0
    mean: Value = 0.0
    sd: Value = 1.0

    def __post_init__(self):  # a placeholder's value is checked once it is bound
        expect((Real, str), coef=self.scale_coef, mean=self.mean, sd=self.sd)
        if _is(Real, self.sd) and self.sd < 0:
            raise ValidationError(f"must be >= 0, got {shown(self.sd)}", "sd")

    def numbers(self) -> list[tuple[str, Value]]:
        return [("coef", self.scale_coef), ("mean", self.mean), ("sd", self.sd)]

    def draw(self, rng: np.random.Generator, n: int, values: Mapping[str, float]) -> np.ndarray:
        coef, mean, sd = [_number(v, values) for v in (self.scale_coef, self.mean, self.sd)]
        if sd < 0:
            raise ValidationError(f"error term sd must be >= 0, got {shown(sd)}")
        e = rng.normal(mean, sd, n)
        e *= coef
        return e


@dataclass(frozen=True)
class SourceSpec:
    """An exogenous column definition."""

    name: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        expect(str, name=self.name, kind=self.kind)
        expect(dict, params=self.params)
        if self.kind not in _SOURCE_KINDS:
            raise ValidationError(f"must be one of {list(_SOURCE_KINDS)}, got {shown(self.kind)}", "kind")
        missing = [k for keys in _SOURCE_KINDS[self.kind] for k in keys if k not in self.params]
        if missing:
            raise ValidationError("required", f"params.{missing[0]}")
        numbers = _SOURCE_KINDS[self.kind][0]
        expect((Real, str), **{f"params.{k}": self.params[k] for k in numbers})
        if self.kind == "pattern":
            values, mode = self.params["values"], self.params["mode"]
            if not isinstance(values, (list, tuple)):
                raise ValidationError(f"must be a list, got {shown(values)}", "params.values")
            expect(Real, **{f"params.values[{i}]": v for i, v in enumerate(values)})
            if mode not in ("each", "times"):
                raise ValidationError(f"must be 'each' or 'times', got {shown(mode)}", "params.mode")
        # a placeholder's value is checked once it is bound
        self._check({k: self.params[k] for k in numbers if _is(Real, self.params[k])}, "params")
        object.__setattr__(self, "params", dict(self.params))

    def _check(self, p: Mapping[str, float], where: str = "") -> None:
        """Refuse the numeric params ``p`` (a subset, all numbers) that no draw
        can take, naming ``where`` or, by default, the source."""
        if self.kind == "uniform_int":  # numpy takes the bounds as int64
            for key, v in p.items():
                if not -2**63 <= v < 2**63:
                    raise self._refused(where, f"{key} must be in [-2^63, 2^63), got {shown(v)}")
                if not float(v).is_integer():
                    raise self._refused(where, f"{key} must be a whole number, got {shown(v)}")
        if p.get("sd", 0) < 0:
            raise self._refused(where, f"sd must be >= 0, got {shown(p['sd'])}")
        if "lo" in p and "hi" in p and p["lo"] > p["hi"]:
            raise self._refused(where, f"lo > hi, got lo={shown(p['lo'])}, hi={shown(p['hi'])}")
        if "k" in p and not float(p["k"]).is_integer():
            raise self._refused(where, f"k must be a whole number, got {shown(p['k'])}")

    def _refused(self, where: str, message: str) -> ValidationError:
        return ValidationError(message, where) if where else ValidationError(f"source {self.name!r}: {message}")

    def numbers(self) -> list[tuple[str, Value]]:
        return [(f"params.{k}", self.params[k]) for k in _SOURCE_KINDS[self.kind][0]]

    def generate(self, rng: np.random.Generator, n: int, values: Mapping[str, float]) -> np.ndarray:
        numbers = {k: _number(self.params[k], values) for k in _SOURCE_KINDS[self.kind][0]}
        self._check(numbers)
        p = {**self.params, **numbers}
        if self.kind == "normal":
            return rng.normal(p["mean"], p["sd"], n)
        if self.kind == "uniform_int":
            return rng.integers(int(p["lo"]), int(p["hi"]) + 1, size=n).astype(float)
        if self.kind == "pattern":
            return repeat_pattern(p["values"], p["mode"], int(p["k"]), n)
        if self.kind == "clamped_int_normal":
            return clamped_integer_normal(n, p["mean"], p["sd"], p["lo"], p["hi"], rng)
        raise AssertionError(self.kind)


@dataclass(frozen=True)
class GroupError:
    """Error SD indexed by the level of an integer-valued column."""

    by: str
    levels: Mapping[int, ErrorTerm]

    def __post_init__(self):
        expect(str, by=self.by)
        levels: dict[int, ErrorTerm] = {}
        for k, term in self.levels.items():
            if not str(k).removeprefix("-").isdecimal():
                raise ValidationError(f"level {shown(k)} must be an integer", f"levels.{k}")
            if int(k) in levels:  # "1" and "01"
                raise ValidationError(f"level {int(k)} is named twice", f"levels.{k}")
            levels[int(k)] = term
        object.__setattr__(self, "levels", levels)

    def numbers(self) -> list[tuple[str, Value]]:
        return [(f"levels.{k}.{f}", v) for k, t in self.levels.items() for f, v in t.numbers()]


# the term lists of an equation, and the length of each term: column names, then a coefficient
_TERMS = {"linear": 2, "interactions": 3, "squares": 2}


@dataclass(frozen=True)
class EquationSpec:
    """One directed equation: intercept + linear + interaction + square + error."""

    target: str
    intercept: Value = 0.0
    linear: tuple[tuple[str, Value], ...] = ()
    interactions: tuple[tuple[str, str, Value], ...] = ()
    squares: tuple[tuple[str, Value], ...] = ()
    error: ErrorTerm | None = None
    group_error: GroupError | None = None

    def __post_init__(self):
        expect(str, target=self.target)
        expect((Real, str), intercept=self.intercept)
        for key, width in _TERMS.items():
            terms = getattr(self, key)
            if not isinstance(terms, (list, tuple)):
                raise ValidationError(f"must be a list, got {shown(terms)}", key)
            for i, t in enumerate(terms):
                if not isinstance(t, (list, tuple)) or len(t) != width:
                    raise ValidationError(f"must list {width - 1} column name(s) and a coefficient, "
                                          f"got {shown(t)}", f"{key}[{i}]")
                expect(str, **{f"{key}[{i}][{j}]": name for j, name in enumerate(t[:-1])})
                expect((Real, str), **{f"{key}[{i}][{width - 1}]": t[-1]})
            object.__setattr__(self, key, tuple(map(tuple, terms)))
        if self.error is not None and self.group_error is not None:
            raise ValidationError("error and group_error are exclusive")

    def references(self) -> list[tuple[str, str]]:
        """(field, column name) for each column that the equation reads."""
        refs = [(f"{key}[{i}][{j}]", name) for key in _TERMS
                for i, t in enumerate(getattr(self, key)) for j, name in enumerate(t[:-1])]
        if self.group_error is not None:
            refs.append(("group_error.by", self.group_error.by))
        return refs

    def numbers(self) -> list[tuple[str, Value]]:
        coefs = [(f"{key}[{i}][{len(t) - 1}]", t[-1])
                 for key in _TERMS for i, t in enumerate(getattr(self, key))]
        noise = [(f"{key}.{f}", v) for key in ("error", "group_error") if getattr(self, key) is not None
                 for f, v in getattr(self, key).numbers()]
        return [("intercept", self.intercept), *coefs, *noise]


@dataclass(frozen=True)
class ScmSpec:
    """A full simulation recipe: n rows, sources, then equations in order."""

    n: int | str
    sources: tuple[SourceSpec, ...]
    equations: tuple[EquationSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "equations", tuple(self.equations))
        if not isinstance(self.n, str):  # a string is the placeholder of an mc template's size
            expect_count(n=self.n)
        defined: set[str] = set()
        for i, src in enumerate(self.sources):
            if src.name in defined:
                raise ValidationError(f"duplicate column {src.name!r}", f"sources[{i}].name")
            defined.add(src.name)
            if src.kind == "pattern" and _is(Real, k := src.params["k"]) and _is(Integral, self.n):
                if len(src.params["values"]) * k != self.n:
                    raise ValidationError(f"pattern length {len(src.params['values'])} x {shown(k)} "
                                          f"!= n = {self.n}", f"sources[{i}].params.k")
        for j, eq in enumerate(self.equations):
            if eq.target in defined:
                raise ValidationError(f"duplicate column {eq.target!r}", f"equations[{j}].target")
            for where, ref in eq.references():
                if ref not in defined:
                    raise ValidationError(f"{ref!r} is not defined before equation {eq.target!r} "
                                          "(cyclic or unknown name)", f"equations[{j}].{where}")
            defined.add(eq.target)
        # placeholder names in the sources and equations (``n`` aside), found once
        found = frozenset(v for _, v in self.numbers() if isinstance(v, str))
        object.__setattr__(self, "_placeholders", found)
        object.__setattr__(self, "_values", {})  # placeholder name -> bound value, see bind_spec

    def numbers(self) -> list[tuple[str, Value]]:
        """(field, value) of each number field but ``n``: a number or a placeholder name."""
        return [(f"{key}[{i}].{f}", v) for key in ("sources", "equations")
                for i, part in enumerate(getattr(self, key)) for f, v in part.numbers()]

    def column_names(self) -> list[str]:
        return [s.name for s in self.sources] + [e.target for e in self.equations]

    def placeholders(self) -> set[str]:
        return {*self._placeholders, self.n} if isinstance(self.n, str) else set(self._placeholders)

    def is_concrete(self) -> bool:
        return not (self._placeholders or isinstance(self.n, str))

    @classmethod
    def from_json_dict(cls, d: Doc | Mapping) -> "ScmSpec":
        """The spec of a config's ``scm`` document; each error names its path."""
        d = Doc.of(d, "scm")

        def err(e: Doc) -> ErrorTerm:
            return e.read(ErrorTerm, scale_coef=e.get("coef", 1.0).value)

        def group_error(g: Doc) -> GroupError:
            return g.read(GroupError, levels={k: err(v) for k, v in g["levels"].items()})

        sources = [s.read(SourceSpec) for s in d["sources"]]
        equations = [e.read(EquationSpec, error=err(e["error"]) if "error" in e else None,
                            group_error=group_error(e["group_error"]) if "group_error" in e else None)
                     for e in d.get("equations", [])]
        return d.read(cls, sources=sources, equations=equations)


def bind_spec(spec: ScmSpec, values: Mapping[str, float], n: int) -> ScmSpec:
    """``spec`` with ``n`` rows and its placeholders bound to ``values``.

    A shallow copy that shares the sources and equations of ``spec`` and
    carries the values beside them, for :func:`evaluate_scm` to read.  A
    placeholder missing from ``values`` stays unbound.  Only fields are
    compared, so two bindings of one spec with the same ``n`` compare equal.
    """
    bound = object.__new__(type(spec))
    bound.__dict__.update(spec.__dict__, n=n, _values={**spec._values, **values},
                          _placeholders=spec._placeholders.difference(values))
    return bound


def evaluate_scm(spec: ScmSpec, rng: np.random.Generator) -> Dataset:
    """Materialize a concrete spec into a dataset, consuming ``rng`` in order.

    A placeholder field of a spec from :func:`bind_spec` reads its bound value.
    A ``group_error`` that the drawn data cannot use is refused naming its
    field, relative to the spec.
    """
    if not spec.is_concrete():
        raise ValidationError(f"spec has unbound placeholders: {sorted(spec.placeholders())}")
    n = int(spec.n)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {shown(spec.n)}")
    values = spec._values
    cols: dict[str, np.ndarray] = {}
    for src in spec.sources:
        cols[src.name] = src.generate(rng, n, values)
    # arithmetic that overflows leaves ±inf or NaN (missing) cells, which is an
    # outcome of the spec, not a fault, so numpy is not asked to warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        for eq in spec.equations:
            y = np.empty(n)
            y.fill(float(_number(eq.intercept, values)))
            for s, c in eq.linear:
                y += _number(c, values) * cols[s]
            for a, b, c in eq.interactions:
                y += _number(c, values) * cols[a] * cols[b]
            for s, c in eq.squares:
                y += _number(c, values) * cols[s] ** 2
            if eq.error is not None:
                y += eq.error.draw(rng, n, values)
            elif eq.group_error is not None:
                g = cols[eq.group_error.by]
                if not np.all(g == np.round(g)):
                    raise ValidationError(f"column {eq.group_error.by!r} must be integer-valued",
                                          f"equations[{spec.equations.index(eq)}].group_error.by")
                levels = eq.group_error.levels
                observed = np.unique(g.astype(int))
                unknown = [int(v) for v in observed if int(v) not in levels]
                if unknown:
                    raise ValidationError(f"no error spec for levels {unknown}",
                                          f"equations[{spec.equations.index(eq)}].group_error.levels")
                for level in sorted(levels):
                    idx = np.flatnonzero(g == level)
                    if idx.size:
                        y[idx] += levels[level].draw(rng, idx.size, values)
            cols[eq.target] = y
    return Dataset._trusted(n, cols)


@dataclass(frozen=True)
class CorrTarget:
    """Target moments for the matrix-based generator."""

    names: tuple[str, ...]
    corr: np.ndarray
    means: np.ndarray = None  # type: ignore[assignment]
    sds: np.ndarray = None  # type: ignore[assignment]
    empirical_exact: bool = True

    def __post_init__(self):
        expect(str, **{f"names[{i}]": v for i, v in enumerate(self.names)})
        corr = np.asarray(self.corr, dtype=float)
        d = len(self.names)
        if corr.shape != (d, d):
            raise ValidationError(f"must be {d}x{d}, one row and column per name, got {corr.shape}", "corr")
        # a correlation lies in [-1, 1], and a variable's with itself is 1
        bad = ~(np.abs(corr) <= 1)
        np.fill_diagonal(bad, ~np.isclose(np.diag(corr), 1.0, atol=1e-12))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(f"must be {'1 on the diagonal' if i == j else 'in [-1, 1]'}, "
                                  f"got {float(corr[i, j])!r}", f"corr[{i}][{j}]")
        if not np.allclose(corr, corr.T, atol=1e-12):
            raise ValidationError("must be symmetric", "corr")
        means = np.zeros(d) if self.means is None else np.asarray(self.means, dtype=float)
        sds = np.ones(d) if self.sds is None else np.asarray(self.sds, dtype=float)
        if means.shape != (d,) or sds.shape != (d,):
            raise ValidationError("means/sds dimensions do not match corr")
        if np.any(sds <= 0):
            raise ValidationError("must be positive", "sds")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)

    @classmethod
    def from_json_dict(cls, d: Doc | Mapping) -> "CorrTarget":
        """The target of a config's ``corr`` document; each error names its path."""
        d = Doc.of(d, "corr")
        names = d["names"].want(list)

        def numbers(v: Doc) -> list:
            if len(v.want(list)) != len(names):
                raise v.error(f"must hold {len(names)} numbers, one per name, got {shown(v.value)}")
            return [x.want(Real) for x in v]

        means, sds = d.get("means"), d.get("sds")
        return d.build(cls, names=names, corr=[numbers(r) for r in d["corr"]],
                       means=None if means.value is None else numbers(means),
                       sds=None if sds.value is None else numbers(sds),
                       empirical_exact=d.get("empirical_exact", True).want(bool))


def mvn_exact(target: CorrTarget, n: int, rng: np.random.Generator) -> Dataset:
    """Gaussian draws whose *sample* moments hit the target when requested.

    With ``empirical_exact`` the draws are re-centered, whitened by the
    eigendecomposition of their own sample covariance, and re-colored by the
    target factor, so the sample correlation matrix equals ``corr`` to
    ~1e-10 and sample means/sds equal the requested values.
    """
    d = len(target.names)
    lam, U = np.linalg.eigh(target.corr)
    if np.any(lam < -1e-10):
        raise DataError(f"correlation matrix is not positive semi-definite (min eig {lam.min():.3g})")
    if n < 1:
        raise ParameterError("n must be >= 1")
    z = rng.normal(0.0, 1.0, (n, d))
    color = U @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ U.T
    if target.empirical_exact:
        if n <= d:
            raise DataError(f"empirical_exact needs n > dimension ({n} <= {d})")
        z = z - z.mean(axis=0)
        s = z.T @ z / (n - 1)
        w, v = np.linalg.eigh(s)
        if np.any(w <= 1e-12):
            raise DataError("sample covariance is rank deficient; cannot whiten")
        whiten = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
        x = z @ whiten @ color
        x -= x.mean(axis=0)
    else:
        x = z @ color
    x = x * target.sds + target.means
    return Dataset._trusted(n, {name: x[:, j] for j, name in enumerate(target.names)})


def clamped_integer_normal(
    n: int,
    mean: float,
    sd: float,
    lo: float,
    hi: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Normal draws truncated toward zero to integers, then clamped to [lo, hi]."""
    if lo > hi:
        raise ParameterError(f"clamp range reversed: lo={lo} > hi={hi}")
    if sd < 0:
        raise ParameterError("sd must be >= 0")
    x = np.trunc(rng.normal(mean, sd, n))
    x[x <= lo] = lo
    x[x >= hi] = hi
    return x


def repeat_pattern(values: Sequence[float], mode: str, k: int, n: int) -> np.ndarray:
    """Deterministic repetition: each value k times, or the pattern k times."""
    vals = np.asarray(list(values), dtype=float)
    if mode not in ("each", "times"):
        raise ParameterError(f"mode must be 'each' or 'times', got {shown(mode)}")
    if len(vals) * k != n:
        raise ParameterError(f"pattern length {len(vals)} x {k} != n = {n}")
    return np.repeat(vals, k) if mode == "each" else np.tile(vals, k)


def inject_outlier(data: Dataset, assignments: Mapping[str, float]) -> Dataset:
    """Append one row holding the given values; unassigned columns are missing."""
    for name in assignments:
        if name not in data:
            raise ValidationError(f"outlier assigns unknown column {name!r}")
    return Dataset({name: np.append(v, float(assignments.get(name, np.nan)))
                    for name, v in data.items()})


def block_randomize(data: Dataset, strata: str, rng: np.random.Generator) -> np.ndarray:
    """A 0/1 treatment column that assigns half of each stratum (uniformly at random).

    Odd strata get floor or ceil treated counts, decided by one extra coin
    flip per odd stratum.
    """
    s = data[strata]
    if np.isnan(s).any():
        raise DataError("strata column has missing values")
    out = np.zeros(data.n_rows)
    for level in np.unique(s):
        idx = np.flatnonzero(s == level)
        m = idx.size
        if m < 2:
            raise DataError(f"stratum {level!r} has fewer than 2 members")
        t = m // 2
        if m % 2 == 1 and rng.integers(0, 2) == 1:
            t += 1
        chosen = rng.choice(m, size=t, replace=False)
        out[idx[chosen]] = 1.0
    return out
