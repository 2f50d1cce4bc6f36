"""Scenario-level causal analyses.

Adjustment-set comparisons, the instrumental-variable Wald ratio, mediation
decomposition with delta-method (Sobel) inference, moderated fits with
simple-slope readouts, and subgroup regressions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset, listwise_complete
from .errors import BiaslabError, DataError, Doc, ValidationError, WeakInstrumentError, expect
from .regress import FitResult, Formula, _least_squares, fit_ols, interaction, main

_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _holds(values: np.ndarray, op: str, value: float) -> np.ndarray:
    """Where ``values op value`` holds; a NaN cell fails every op, ``!=`` included."""
    with np.errstate(invalid="ignore"):
        return ~np.isnan(values) & _OPS[op](values, value)


@dataclass(frozen=True)
class Condition:
    var: str
    op: str
    value: float

    def __post_init__(self):
        expect(str, "condition", var=self.var)
        if not isinstance(self.op, str) or self.op not in _OPS:
            raise ValidationError(f"unknown comparison op {self.op!r}")


@dataclass(frozen=True)
class RowFilter:
    """Conjunction of single-column threshold comparisons."""

    conditions: tuple[Condition, ...]

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))

    def mask(self, data: Dataset) -> np.ndarray:
        keep = np.ones(data.n_rows, dtype=bool)
        for c in self.conditions:
            keep &= _holds(data[c.var], c.op, c.value)
        return keep

    @classmethod
    def from_json_list(cls, items: Doc | Sequence[Mapping]) -> "RowFilter":
        """The filter of a list of ``{var, op, value}`` conditions."""
        items = Doc.of(items, "filter")
        return cls(tuple(c.read(Condition, value=float(c["value"].want(Real))) for c in items))


@dataclass(frozen=True)
class FocalEstimate:
    label: str
    estimate: float
    se: float
    stat: float
    bias: float | None  # estimate - truth, when truth known


@dataclass(frozen=True)
class ScenarioReport:
    """Side-by-side fits of one focal association under different adjustments."""

    scenario_id: str
    focal_term: str
    truth: float | None
    fits: tuple[tuple[str, FitResult], ...]
    focal: tuple[FocalEstimate, ...]
    errors: tuple[tuple[str, str], ...] = ()

    def fit(self, label: str) -> FitResult:
        for lab, f in self.fits:
            if lab == label:
                return f
        raise ValidationError(f"no fit labelled {label!r}")

    def focal_estimate(self, label: str) -> FocalEstimate:
        for e in self.focal:
            if e.label == label:
                return e
        raise ValidationError(f"no focal estimate labelled {label!r}")

    def to_json_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "focal_term": self.focal_term,
            "truth": self.truth,
            "fits": {lab: f.to_json_dict() for lab, f in self.fits},
            "focal": [asdict(e) for e in self.focal],
            "errors": {lab: msg for lab, msg in self.errors},
        }


def compare_adjustments(
    data: Dataset,
    y: str,
    x: str,
    covariate_sets: Sequence[Sequence[str]],
    truth: float | None = None,
    scenario_id: str = "adjustments",
) -> ScenarioReport:
    """Fit ``y ~ x`` and ``y ~ x + Z`` per covariate set; report focal slopes.

    A failing fit is recorded as an error without blocking the others.
    """
    fits: list[tuple[str, FitResult]] = []
    focal: list[FocalEstimate] = []
    errors: list[tuple[str, str]] = []

    def add(label: str, covs: Sequence[str]):
        try:
            f = fit_ols(data, Formula(y, tuple(main(v) for v in (x, *covs))))
        except BiaslabError as exc:
            errors.append((label, str(exc)))
            return
        fits.append((label, f))
        est = f.coef(x)
        focal.append(
            FocalEstimate(
                label=label,
                estimate=est,
                se=f.se_of(x),
                stat=f.stat_of(x),
                bias=None if truth is None else est - truth,
            )
        )

    add("bivariate", ())
    for covs in covariate_sets:
        add("adjusted:" + "+".join(covs), covs)
    if not fits:
        raise DataError(f"all fits failed in scenario {scenario_id!r}: {errors}")
    return ScenarioReport(
        scenario_id=scenario_id,
        focal_term=x,
        truth=truth,
        fits=tuple(fits),
        focal=tuple(focal),
        errors=tuple(errors),
    )


@dataclass(frozen=True)
class IvEstimate:
    """Wald instrumental-variable estimate: b_yx = b_yin / b_xin."""

    b_yin: float
    se_yin: float
    b_xin: float
    se_xin: float
    ratio: float
    weak: bool = False


def iv_wald(
    data: Dataset, y: str, x: str, instrument: str, allow_weak: bool = False
) -> IvEstimate:
    """Two bivariate least-squares slopes (y~in, x~in) and their ratio.

    Both regressions share the design ``[1 | instrument]``, which is factored
    once per distinct set of complete rows: once unless y and x are missing
    on different rows.  The ratio is withheld (error) when
    |b_xin| <= 10 * SE(b_xin) unless ``allow_weak`` preserves the
    divide-then-filter workflow.
    """
    complete, n_dropped = listwise_complete(data, [y, x, instrument])
    if complete.n_rows < 10:
        raise DataError(f"instrumental-variable analysis needs n >= 10, have {complete.n_rows}")
    groups = [(complete, (y, x))]
    if n_dropped:
        # each response keeps the rows complete in it and the instrument; they
        # are the joint rows unless y and x are missing on different rows
        own = [(listwise_complete(data, [v, instrument]).data, (v,)) for v in (y, x)]
        if any(rows.n_rows != complete.n_rows for rows, _ in own):
            groups = own
    slopes = []
    for rows, responses in groups:
        _, fits = _least_squares(rows, responses, (main(instrument),), ("(Intercept)", instrument))
        slopes += [(float(b[1]), float(se[1])) for _, b, _, se in fits]
    (b_yin, se_yin), (b_xin, se_xin) = slopes
    weak = abs(b_xin) <= 10.0 * se_xin
    if weak and not allow_weak:
        raise WeakInstrumentError(
            f"first-stage slope {b_xin:.4g} within 10 SE ({se_xin:.4g}) of zero; ratio withheld"
        )
    ratio = b_yin / b_xin if b_xin != 0 else math.inf
    return IvEstimate(b_yin, se_yin, b_xin, se_xin, ratio, weak=weak)


def sobel_se(a: float, se_a: float, b: float, se_b: float) -> float:
    """First-order delta-method SE of the product of two estimated paths."""
    return math.sqrt(b * b * se_a * se_a + a * a * se_b * se_b)


@dataclass(frozen=True)
class MediationResult:
    """Stacked-OLS mediation decomposition with Sobel inference.

    ``total == direct + indirect`` holds by construction.
    """

    path_xm: float
    path_xm_se: float
    path_my: float
    path_my_se: float
    direct: float
    direct_se: float
    indirect: float
    total: float
    sobel_se: float
    z_indirect: float
    ci_low: float
    ci_high: float
    fit_m: FitResult = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    fit_y: FitResult = field(repr=False, compare=False, default=None)  # type: ignore[assignment]


def mediation(data: Dataset, y: str, x: str, m: str) -> MediationResult:
    """Two OLS fits (m~x; y~x+m); indirect = a*b with delta-method inference.

    Point estimates equal ML path analysis for recursive linear models with
    observed variables.
    """
    fm = fit_ols(data, Formula(m, (main(x),)))
    fy = fit_ols(data, Formula(y, (main(x), main(m))))
    a, se_a = fm.coef(x), fm.se_of(x)
    b, se_b = fy.coef(m), fy.se_of(m)
    direct, direct_se = fy.coef(x), fy.se_of(x)
    indirect = a * b
    se_ind = sobel_se(a, se_a, b, se_b)
    z = indirect / se_ind if se_ind > 0 else math.inf
    return MediationResult(
        path_xm=a,
        path_xm_se=se_a,
        path_my=b,
        path_my_se=se_b,
        direct=direct,
        direct_se=direct_se,
        indirect=indirect,
        total=direct + indirect,
        sobel_se=se_ind,
        z_indirect=z,
        ci_low=indirect - 1.96 * se_ind,
        ci_high=indirect + 1.96 * se_ind,
        fit_m=fm,
        fit_y=fy,
    )


def moderated_fit(data: Dataset, y: str, x: str, mo: str) -> FitResult:
    """Fit ``y ~ x + mo + x:mo``."""
    return fit_ols(data, Formula(y, (main(x), main(mo), interaction(x, mo))))


def conditional_slope(fit_result: FitResult, x: str, mo: str, mo_value: float) -> float:
    """Simple slope of x at a fixed moderator value: b_x + b_{x:mo} * mo_value."""
    b_x = fit_result.coef(x)
    label = f"{x}:{mo}"
    if label not in fit_result.terms:
        alt = f"{mo}:{x}"
        if alt in fit_result.terms:
            label = alt
        else:
            raise ValidationError(f"fit has no interaction term {label!r}")
    return b_x + fit_result.coef(label) * mo_value


def subgroup_effect(data: Dataset, y: str, x: str, predicate: RowFilter) -> FitResult:
    """OLS of ``y ~ x`` restricted to rows passing the predicate."""
    keep = predicate.mask(data)
    n_kept = int(keep.sum())
    if n_kept < 3:
        raise DataError(f"subgroup too small ({n_kept} rows) for a bivariate fit")
    return fit_ols(data.select_rows(keep), Formula(y, (main(x),)))
