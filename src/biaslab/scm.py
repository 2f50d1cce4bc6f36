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

import copy
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import DataError, Doc, ParameterError, ValidationError, expect

Value = float | str  # str = placeholder name, bound by bind_spec

_SOURCE_KINDS = {
    "normal": ("mean", "sd"),
    "uniform_int": ("lo", "hi"),
    "pattern": ("values", "mode", "k"),
    "clamped_int_normal": ("mean", "sd", "lo", "hi"),
}

# source params that hold numbers (and may therefore hold placeholder names)
_NUMERIC_PARAMS = {
    "normal": ("mean", "sd"),
    "uniform_int": ("lo", "hi"),
    "pattern": ("k",),
    "clamped_int_normal": ("mean", "sd", "lo", "hi"),
}


def _number(v: Value, values: Mapping[str, float]):
    """A numeric field's number: ``v`` itself, or the value bound to the placeholder ``v``."""
    return values[v] if isinstance(v, str) else v


@dataclass(frozen=True)
class ErrorTerm:
    """Additive noise: ``scale_coef * Normal(mean, sd)`` per row."""

    scale_coef: Value = 1.0
    mean: Value = 0.0
    sd: Value = 1.0

    def numbers(self) -> list[Value]:
        return [self.scale_coef, self.mean, self.sd]

    def draw(self, rng: np.random.Generator, n: int, values: Mapping[str, float]) -> np.ndarray:
        coef, mean, sd = [_number(v, values) for v in self.numbers()]
        if sd < 0:
            raise ValidationError(f"error term sd must be >= 0, got {sd}")
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
        expect(str, "source", name=self.name, kind=self.kind)
        expect(dict, f"source {self.name!r}", params=self.params)
        if self.kind not in _SOURCE_KINDS:
            raise ValidationError(f"unknown source kind {self.kind!r}")
        missing = [k for k in _SOURCE_KINDS[self.kind] if k not in self.params]
        if missing:
            raise ValidationError(f"source {self.name!r} ({self.kind}) missing params {missing}")
        if self.kind == "pattern":
            values = self.params["values"]
            if not isinstance(values, (list, tuple)):
                raise ValidationError(f"source {self.name!r}: values must be a list, got {values!r}")
            expect(Real, f"source {self.name!r}", **{f"values[{i}]": v for i, v in enumerate(values)})
        object.__setattr__(self, "params", dict(self.params))

    def numbers(self) -> list[Value]:
        return [self.params[k] for k in _NUMERIC_PARAMS[self.kind]]

    def generate(self, rng: np.random.Generator, n: int, values: Mapping[str, float]) -> np.ndarray:
        p = {**self.params, **{k: _number(self.params[k], values) for k in _NUMERIC_PARAMS[self.kind]}}
        if self.kind == "normal":
            if p["sd"] < 0:
                raise ValidationError(f"source {self.name!r}: sd must be >= 0")
            return rng.normal(p["mean"], p["sd"], n)
        if self.kind == "uniform_int":
            lo, hi = int(p["lo"]), int(p["hi"])
            if lo > hi:
                raise ValidationError(f"source {self.name!r}: lo > hi")
            return rng.integers(lo, hi + 1, size=n).astype(float)
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
        object.__setattr__(self, "levels", {int(k): v for k, v in self.levels.items()})

    def numbers(self) -> list[Value]:
        return [v for t in self.levels.values() for v in t.numbers()]


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
        expect(str, "equation", target=self.target)
        object.__setattr__(self, "linear", tuple((s, c) for s, c in self.linear))
        object.__setattr__(self, "interactions", tuple((a, b, c) for a, b, c in self.interactions))
        object.__setattr__(self, "squares", tuple((s, c) for s, c in self.squares))
        if self.error is not None and self.group_error is not None:
            raise ValidationError(f"equation {self.target!r}: error and group_error are exclusive")

    def references(self) -> list[str]:
        names = [s for s, _ in self.linear]
        names += [a for a, _, _ in self.interactions] + [b for _, b, _ in self.interactions]
        names += [s for s, _ in self.squares]
        if self.group_error is not None:
            names.append(self.group_error.by)
        return names

    def numbers(self) -> list[Value]:
        out = [self.intercept, *(c for _, c in self.linear), *(c for _, _, c in self.interactions),
               *(c for _, c in self.squares)]
        for term in (self.error, self.group_error):
            if term is not None:
                out += term.numbers()
        return out


@dataclass(frozen=True)
class ScmSpec:
    """A full simulation recipe: n rows, sources, then equations in order."""

    n: int | str
    sources: tuple[SourceSpec, ...]
    equations: tuple[EquationSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "equations", tuple(self.equations))
        if isinstance(self.n, bool) or not isinstance(self.n, (Integral, str)):
            raise ValidationError(f"n must be an integer or a placeholder name, got {self.n!r}")
        self.validate()
        # placeholder names in the sources and equations (``n`` aside), found once
        found: set[str] = set()
        for part in (*self.sources, *self.equations):
            for v in part.numbers():
                if isinstance(v, str):
                    found.add(v)
                elif isinstance(v, bool) or not isinstance(v, Real):
                    owner = part.name if isinstance(part, SourceSpec) else part.target
                    raise ValidationError(f"{owner!r}: {v!r} is neither a number nor a placeholder name")
        object.__setattr__(self, "_placeholders", frozenset(found))
        object.__setattr__(self, "_values", {})  # placeholder name -> bound value, see bind_spec

    def validate(self) -> None:
        defined: set[str] = set()
        for src in self.sources:
            if src.name in defined:
                raise ValidationError(f"duplicate column {src.name!r}")
            defined.add(src.name)
        for eq in self.equations:
            if eq.target in defined:
                raise ValidationError(f"duplicate column {eq.target!r}")
            for ref in eq.references():
                if not isinstance(ref, str) or ref not in defined:
                    raise ValidationError(
                        f"equation {eq.target!r} references {ref!r} before it is defined "
                        "(cyclic or unknown name)"
                    )
            defined.add(eq.target)

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

        def terms(e: Doc, key: str, width: int) -> tuple:
            """The lists in ``e[key]``, each of ``width`` items: column names, then a coefficient."""
            items = e.get(key, [])
            for t in items:
                if len(t.want(list)) != width:
                    raise t.error(f"must list {width - 1} column name(s) and a coefficient, "
                                  f"got {t.value!r}")
            return tuple(map(tuple, items.value))

        def group_error(g: Doc) -> GroupError:
            for k, v in g["levels"].items():
                if not str(k).removeprefix("-").isdecimal():
                    raise v.error(f"level {k!r} must be an integer")
            return g.read(GroupError, levels={int(k): err(v) for k, v in g["levels"].items()})

        sources = [s.read(SourceSpec) for s in d["sources"]]
        equations = [
            e.read(EquationSpec, linear=terms(e, "linear", 2), interactions=terms(e, "interactions", 3),
                   squares=terms(e, "squares", 2), error=err(e["error"]) if "error" in e else None,
                   group_error=group_error(e["group_error"]) if "group_error" in e else None)
            for e in d.get("equations", [])
        ]
        return d.read(cls, sources=sources, equations=equations)


def bind_spec(spec: ScmSpec, values: Mapping[str, float], n: int) -> ScmSpec:
    """``spec`` with ``n`` rows and its placeholders bound to ``values``.

    A shallow copy that shares the sources and equations of ``spec`` and
    carries the values beside them, for :func:`evaluate_scm` to read.  A
    placeholder missing from ``values`` stays unbound.  Only fields are
    compared, so two bindings of one spec with the same ``n`` compare equal.
    """
    bound = copy.copy(spec)
    object.__setattr__(bound, "n", n)
    object.__setattr__(bound, "_values", {**spec._values, **values})
    object.__setattr__(bound, "_placeholders", spec._placeholders.difference(values))
    return bound


def evaluate_scm(spec: ScmSpec, rng: np.random.Generator) -> Dataset:
    """Materialize a concrete spec into a dataset, consuming ``rng`` in order.

    A placeholder field of a spec from :func:`bind_spec` reads its bound value.
    """
    if not spec.is_concrete():
        raise ValidationError(f"spec has unbound placeholders: {sorted(spec.placeholders())}")
    n = int(spec.n)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {spec.n}")
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
                    raise ValidationError(
                        f"group_error column {eq.group_error.by!r} must be integer-valued"
                    )
                levels = eq.group_error.levels
                observed = np.unique(g.astype(int))
                unknown = [int(v) for v in observed if int(v) not in levels]
                if unknown:
                    raise ValidationError(
                        f"group_error for {eq.target!r}: no error spec for levels {unknown}"
                    )
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
        expect(str, "corr", **{f"names[{i}]": v for i, v in enumerate(self.names)})
        corr = np.asarray(self.corr, dtype=float)
        d = len(self.names)
        if corr.shape != (d, d):
            raise ValidationError(f"corr must be {d}x{d}, got {corr.shape}")
        if not np.allclose(corr, corr.T, atol=1e-12):
            raise ValidationError("corr must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise ValidationError("corr must have a unit diagonal")
        means = np.zeros(d) if self.means is None else np.asarray(self.means, dtype=float)
        sds = np.ones(d) if self.sds is None else np.asarray(self.sds, dtype=float)
        if means.shape != (d,) or sds.shape != (d,):
            raise ValidationError("means/sds dimensions do not match corr")
        if np.any(sds <= 0):
            raise ValidationError("sds must be positive")
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
                raise v.error(f"must hold {len(names)} numbers, one per name, got {v.value!r}")
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
    if target.empirical_exact:
        if n <= d:
            raise DataError(f"empirical_exact needs n > dimension ({n} <= {d})")
        z = z - z.mean(axis=0)
        s = z.T @ z / (n - 1)
        w, v = np.linalg.eigh(s)
        if np.any(w <= 1e-12):
            raise DataError("sample covariance is rank deficient; cannot whiten")
        whiten = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
        color = U @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ U.T
        x = z @ whiten @ color
        x -= x.mean(axis=0)
    else:
        color = U @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ U.T
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
        raise ParameterError(f"mode must be 'each' or 'times', got {mode!r}")
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
