"""Level-of-measurement recodes and continuous transformations.

Recodes (dichotomize/ordinalize) use type-7 quantile cutpoints so bin
counts on tie-free data are exact (e.g. a median split of 10000 values is
5000/5000).  Transform domain violations (log of a non-positive value,
fractional power of a negative) yield missing cells rather than errors,
mirroring NA propagation; listwise deletion then handles them downstream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset, quantile_type7, spearman
from .errors import BiaslabError, DataError, Doc, ParameterError, ValidationError, expect
from .regress import FitResult, Formula, check_family, fit, main

_DICHOTOMIZE_KINDS = {"dichotomize_median", "dichotomize_quantile", "dichotomize_threshold"}
_ORDINALIZE_KINDS = {"ordinalize_quantiles", "ordinalize_cutpoints"}


@dataclass(frozen=True)
class RecodeRule:
    """A level-of-measurement recode (dichotomize or ordinalize)."""

    kind: str
    p: float | None = None  # dichotomize_quantile
    threshold: float | None = None  # dichotomize_threshold
    probs: tuple[float, ...] = ()  # ordinalize_quantiles
    cutpoints: tuple[float, ...] = ()  # ordinalize_cutpoints

    def __post_init__(self):
        if self.kind not in _DICHOTOMIZE_KINDS | _ORDINALIZE_KINDS:
            raise ValidationError(f"unknown recode kind {self.kind!r}")
        expect(Real, self.kind, optional=True, p=self.p, threshold=self.threshold)
        expect(Real, self.kind, **{f"probs[{i}]": q for i, q in enumerate(self.probs)},
               **{f"cutpoints[{i}]": c for i, c in enumerate(self.cutpoints)})
        if self.kind == "dichotomize_quantile":
            if self.p is None or not (0.0 < self.p < 1.0):
                raise ValidationError(f"dichotomize_quantile needs p in (0,1), got {self.p}")
        if self.kind == "dichotomize_threshold" and self.threshold is None:
            raise ValidationError("dichotomize_threshold needs a threshold value")
        if self.kind == "ordinalize_quantiles":
            probs = tuple(float(q) for q in self.probs)
            if not probs or any(not (0.0 < q < 1.0) for q in probs) or any(
                probs[i] >= probs[i + 1] for i in range(len(probs) - 1)
            ):
                raise ValidationError(
                    f"ordinalize_quantiles needs strictly increasing probs in (0,1), got {self.probs}"
                )
            object.__setattr__(self, "probs", probs)
        if self.kind == "ordinalize_cutpoints":
            cuts = tuple(float(c) for c in self.cutpoints)
            if not cuts or any(cuts[i] >= cuts[i + 1] for i in range(len(cuts) - 1)):
                raise ParameterError(
                    f"ordinalize_cutpoints needs strictly increasing values, got {self.cutpoints}"
                )
            object.__setattr__(self, "cutpoints", cuts)

    @property
    def is_dichotomize(self) -> bool:
        return self.kind in _DICHOTOMIZE_KINDS


_TRANSFORM_KINDS = {
    "scale",
    "shift",
    "zscore",
    "minmax",
    "log_e",
    "log_10",
    "power",
    "round_whole",
    "window",
}


@dataclass(frozen=True)
class TransformRule:
    """A continuous transformation preserving the column's length."""

    kind: str
    c: float | None = None  # scale/shift constant
    exponent: float | None = None  # power
    pad_lo: float = 0.0  # minmax
    pad_hi: float = 0.0
    lo: float | None = None  # window
    hi: float | None = None

    def __post_init__(self):
        if self.kind not in _TRANSFORM_KINDS:
            raise ValidationError(f"unknown transform kind {self.kind!r}")
        expect(Real, self.kind, pad_lo=self.pad_lo, pad_hi=self.pad_hi)
        expect(Real, self.kind, optional=True, c=self.c, exponent=self.exponent, lo=self.lo, hi=self.hi)
        if self.kind == "scale" and (self.c is None or self.c == 0):
            raise ParameterError("scale constant must be nonzero")
        if self.kind == "shift" and self.c is None:
            raise ValidationError("shift needs a constant")
        if self.kind == "power" and self.exponent is None:
            raise ValidationError("power needs an exponent")
        if self.kind == "window":
            if self.lo is None or self.hi is None or not (self.lo < self.hi):
                raise ValidationError(f"window needs lo < hi, got ({self.lo}, {self.hi})")


def rule_from_json(d: Doc | Mapping) -> "RecodeRule | TransformRule":
    """A transformation or recode rule document."""
    d = Doc.of(d, "rule")
    if d["kind"].want(str) in _TRANSFORM_KINDS:
        return d.read(TransformRule)
    return d.read(RecodeRule, probs=tuple(d.get("probs", []).want(list)),
                  cutpoints=tuple(d.get("cutpoints", []).want(list)))


def rules_from_json(spec: "Doc | Mapping | Sequence[Mapping]") -> tuple:
    """One rule document, or a list of them applied left to right."""
    spec = Doc.of(spec, "rule")
    return tuple(map(rule_from_json, spec if isinstance(spec.value, list) else [spec]))


def dichotomize(values: np.ndarray, rule: RecodeRule, name: str = "values") -> np.ndarray:
    """Recode to 0/1: value <= cut -> 0, value > cut -> 1; missing passes through.

    ``name`` names the column in errors and warnings, here and in the other rules.
    """
    if not rule.is_dichotomize:
        raise ParameterError(f"{rule.kind} is not a dichotomize rule")
    x = np.asarray(values, dtype=float)
    present = x[~np.isnan(x)]
    if present.size == 0:
        raise DataError(f"column {name!r} has no non-missing values")
    if rule.kind == "dichotomize_median":
        cut = quantile_type7(present, 0.5)
    elif rule.kind == "dichotomize_quantile":
        cut = quantile_type7(present, float(rule.p))  # type: ignore[arg-type]
    else:
        cut = float(rule.threshold)  # type: ignore[arg-type]
    out = np.where(x > cut, 1.0, 0.0)
    out[np.isnan(x)] = np.nan
    if np.unique(out[~np.isnan(x)]).size < 2:
        warnings.warn(f"dichotomizing {name!r} produced a single class", stacklevel=2)
    return out


def ordinalize(values: np.ndarray, rule: RecodeRule, name: str = "values") -> np.ndarray:
    """Recode to ordered labels 1..K.

    Interior bins are left-closed/right-open; the final bin is closed at the
    maximum, matching >=/< chains that end with <=.
    """
    if rule.kind not in _ORDINALIZE_KINDS:
        raise ParameterError(f"{rule.kind} is not an ordinalize rule")
    x = np.asarray(values, dtype=float)
    present = x[~np.isnan(x)]
    if present.size == 0:
        raise DataError(f"column {name!r} has no non-missing values")
    if rule.kind == "ordinalize_quantiles":
        cuts = [quantile_type7(present, q) for q in rule.probs]
    else:
        cuts = list(rule.cutpoints)
    out = np.ones(len(x), dtype=float)
    for c in cuts:
        out += (x >= c).astype(float)
    out[np.isnan(x)] = np.nan
    return out


def transform(values: np.ndarray, rule: TransformRule, name: str = "values") -> np.ndarray:
    """Apply a continuous transformation; domain violations become missing."""
    x = np.asarray(values, dtype=float)
    if rule.kind == "scale":
        return x * rule.c
    if rule.kind == "shift":
        return x + rule.c
    if rule.kind == "zscore":
        present = x[~np.isnan(x)]
        if present.size < 2 or np.std(present, ddof=1) == 0:
            raise DataError(f"zscore of constant/degenerate column {name!r}")
        return (x - present.mean()) / np.std(present, ddof=1)
    if rule.kind == "minmax":
        present = x[~np.isnan(x)]
        if present.size == 0:
            raise DataError(f"minmax of all-missing column {name!r}")
        lo = present.min() - rule.pad_lo
        hi = present.max() + rule.pad_hi
        if hi == lo:
            raise DataError(f"minmax of constant column {name!r} with zero pads")
        return (x - lo) / (hi - lo)
    # a NaN cell compares false and stays NaN through the arithmetic
    if rule.kind in ("log_e", "log_10"):
        vals = np.where(x <= 0, np.nan, x)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log(vals) if rule.kind == "log_e" else np.log10(vals)
    if rule.kind == "power":
        e = float(rule.exponent)  # type: ignore[arg-type]
        if e == round(e):
            with np.errstate(divide="ignore"):
                vals = x ** e
            # except under a zero exponent: NaN ** 0 is 1
            return np.where(np.isfinite(vals) & ~np.isnan(x), vals, np.nan)
        bad = (x < 0) | ((x == 0) & (e < 0))
        with np.errstate(invalid="ignore"):
            return np.where(bad, np.nan, x) ** e
    if rule.kind == "round_whole":
        return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))
    if rule.kind == "window":
        return np.where((x <= rule.lo) | (x >= rule.hi), np.nan, x)
    raise AssertionError(rule.kind)


def apply_rules(
    values: np.ndarray, rules: Sequence["RecodeRule | TransformRule"], name: str = "values"
) -> np.ndarray:
    """Apply a pipeline of rules left to right (e.g. minmax-with-pads then log)."""
    out = values
    for rule in rules:
        if isinstance(rule, TransformRule):
            out = transform(out, rule, name)
        elif rule.is_dichotomize:
            out = dichotomize(out, rule, name)
        else:
            out = ordinalize(out, rule, name)
    return out


@dataclass(frozen=True)
class AttenuationVariant:
    """One measurement decision to compare against the untransformed baseline."""

    label: str
    target: str  # "x" | "y"
    rule: "RecodeRule | TransformRule | tuple"
    family: str | None = None  # override the automatic family choice

    def __post_init__(self):
        if self.target not in ("x", "y"):
            raise ValidationError(f"variant target must be 'x' or 'y', got {self.target!r}")
        if self.family is not None:
            check_family(self.family)
        if isinstance(self.rule, (list, tuple)):
            object.__setattr__(self, "rule", tuple(self.rule))

    def rules(self) -> tuple:
        return self.rule if isinstance(self.rule, tuple) else (self.rule,)

    @classmethod
    def from_json_dict(cls, d: Doc | Mapping) -> "AttenuationVariant":
        d = Doc.of(d, "variant")
        return d.read(cls, rule=rules_from_json(d["rule"]))


@dataclass(frozen=True)
class AttenuationRow:
    label: str
    spearman: float
    slope: float
    se: float
    stat: float
    chisq: float
    n_used: int
    family: str
    error: str | None = None


@dataclass(frozen=True)
class AttenuationReport:
    rows: tuple[AttenuationRow, ...]

    def row(self, label: str) -> AttenuationRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise ValidationError(f"no attenuation row labelled {label!r}")

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["label", "spearman", "slope", "se", "stat", "chisq", "n_used"]
        return header, [[getattr(r, h) for h in header] for r in self.rows]


def choose_family(response: np.ndarray) -> str:
    """2 observed {0,1} levels -> binomial; 3..9 integer levels -> ordered; else gaussian."""
    vals = np.unique(response[~np.isnan(response)])
    if vals.size == 2 and set(vals) <= {0.0, 1.0}:
        return "binomial"
    if 3 <= vals.size <= 9 and np.all(vals == np.round(vals)):
        return "ordered"
    return "gaussian"


def attenuation_report(
    data: Dataset,
    y: str,
    x: str,
    variants: Sequence[AttenuationVariant],
) -> AttenuationReport:
    """Per-variant Spearman/slope/stat/chi-square against the baseline fit.

    Each row recodes or transforms one side, picks the family from the
    response's observed levels, fits ``y ~ x``, and reports the focal-term
    test statistic and its square.  A failing variant is recorded and the
    remaining rows still compute.
    """
    rows: list[AttenuationRow] = []

    def run(label: str, xv: np.ndarray, yv: np.ndarray, family: str | None):
        try:
            fam = family or choose_family(yv)
            ds = Dataset({"x": xv, "y": yv})
            rho = spearman(xv, yv)
            f: FitResult = fit(ds, Formula("y", (main("x"),)), family=fam)
            stat = f.stat_of("x")
            rows.append(
                AttenuationRow(
                    label=label,
                    spearman=rho,
                    slope=f.coef("x"),
                    se=f.se_of("x"),
                    stat=stat,
                    chisq=stat * stat,
                    n_used=f.n_used,
                    family=fam,
                )
            )
        except BiaslabError as exc:
            rows.append(
                AttenuationRow(label, float("nan"), float("nan"), float("nan"), float("nan"),
                               float("nan"), 0, family or "?", error=str(exc))
            )

    xbase, ybase = data[x], data[y]
    run("baseline", xbase, ybase, None)
    for v in variants:
        try:
            if v.target == "x":
                run(v.label, apply_rules(xbase, v.rules(), x), ybase, v.family)
            else:
                run(v.label, xbase, apply_rules(ybase, v.rules(), y), v.family)
        except BiaslabError as exc:
            rows.append(
                AttenuationRow(v.label, float("nan"), float("nan"), float("nan"), float("nan"),
                               float("nan"), 0, v.family or "?", error=str(exc))
            )
    return AttenuationReport(tuple(rows))
