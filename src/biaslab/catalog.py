"""Built-in scenario catalog.

One config per demonstrated bias mechanism, expressed in the same JSON
shapes accepted by ``biaslab run --config``.  Helper builders are exposed
for the randomized-specification templates so tests and scripts can vary
sign quadrants and sample sizes without copying dictionaries.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Callable

from .errors import ValidationError

# -- small spec-building helpers ----------------------------------------------


def normal_source(name: str, mean, sd) -> dict:
    return {"name": name, "kind": "normal", "params": {"mean": mean, "sd": sd}}


def equation(target: str, linear=(), interactions=(), squares=(), intercept=0.0,
             error=None, group_error=None) -> dict:
    d: dict = {
        "target": target,
        "intercept": intercept,
        "linear": [list(t) for t in linear],
        "interactions": [list(t) for t in interactions],
        "squares": [list(t) for t in squares],
    }
    if error is not None:
        d["error"] = error
    if group_error is not None:
        d["group_error"] = group_error
    return d


def err(coef, mean, sd) -> dict:
    return {"coef": coef, "mean": mean, "sd": sd}


def _fit(formula: str, name: str, family: str = "gaussian") -> dict:
    return {"kind": "fit", "name": name, "formula": formula, "family": family}


def _out(what: str, path: str, fmt: str | None = None) -> dict:
    d = {"what": what, "path": path}
    if fmt:
        d["format"] = fmt
    return d


def _quadrant(sign_x: int, sign_y: int) -> str:
    """The id suffix of a sign quadrant: ``pp``, ``pm``, ``mp`` or ``mm``."""
    return ("p" if sign_x > 0 else "m") + ("p" if sign_y > 0 else "m")


def _effect_range(sign: int, effect_lo: float) -> dict:
    """The binding range of an effect of ``sign``, from ``effect_lo`` to 100 in size."""
    return {"lo": -100.0, "hi": -effect_lo} if sign < 0 else {"lo": effect_lo, "hi": 100.0}


def _compare(ident: str, seed: int, scm: dict, y: str, x: str, covariate_sets: list,
             truth: float) -> dict:
    """A scenario whose one analysis compares the x -> y slope under each covariate set."""
    return {
        "id": ident,
        "seed": seed,
        "scm": scm,
        "analyses": [{"kind": "compare_adjustments", "name": "compare", "y": y, "x": x,
                      "covariate_sets": covariate_sets, "truth": truth}],
        "outputs": [_out("analysis:compare", "compare.json")],
    }


def _template(sources: list, equations: list, n: int | tuple[int, int], bindings: dict,
              analysis: list, reps: int, seed: int) -> dict:
    """A randomized template of ``n`` rows, fixed or drawn from a ``(lo, hi)`` range."""
    return {
        "scm": {"n": "n", "sources": sources, "equations": equations},
        "n": {"lo": n[0], "hi": n[1]} if isinstance(n, tuple) else n,
        "bindings": bindings,
        "analysis": analysis,
        "reps": reps,
        "seed": seed,
    }


def _mc(ident: str, template: dict, *outputs: dict) -> dict:
    """An MC scenario: the loop of ``template``, written to loop.csv, then ``outputs``."""
    return {"id": ident, "seed": 1992, "mc": template, "analyses": [],
            "outputs": [_out("mc", "loop.csv"), *outputs]}


# -- entry 1: linearity --------------------------------------------------------


def entry1_linearity() -> dict:
    scm = {
        "n": 100,
        "sources": [normal_source("X", 5, 1)],
        "equations": [equation("Y", linear=[["X", 0.25]], error=err(0.025, 5, 1))],
    }
    return {
        "id": "entry1-linearity",
        "seed": 1001,
        "scm": scm,
        "analyses": [_fit("Y ~ X", "linear")],
        "outputs": [_out("dataset", "dataset.csv"), _out("analysis:linear", "fit_linear.json"),
                    _out("scatter:X:Y", "scatter.csv"), _out("fitted_line:linear:X", "fitted.csv")],
    }


def entry1_curvilinear() -> dict:
    scm = {
        "n": 100,
        "sources": [normal_source("X", 5, 1)],
        "equations": [
            equation("Y", linear=[["X", 0.25]], squares=[["X", -0.025]], error=err(0.025, 5, 1))
        ],
    }
    return {
        "id": "entry1-curvilinear",
        "seed": 1001,
        "scm": scm,
        "analyses": [_fit("Y ~ X", "misspecified"), _fit("Y ~ X + X^2", "proper")],
        "outputs": [_out("analysis:misspecified", "fit_misspecified.json"),
                    _out("analysis:proper", "fit_proper.json")],
    }


# -- entry 2: homoscedasticity --------------------------------------------------


# error sd of each X level, by scenario
_ENTRY2_SDS = {
    "homoscedastic": [1, 1, 1, 1, 1],
    "heteroscedastic-expanding": [1, 1.7, 2.4, 3.1, 3.8],
    "heteroscedastic-inconsistent": [0.2, 3, 1.4, 4, 0.4],
}


def _entry2(kind: str) -> dict:
    levels = {str(k + 1): err(1.0, 10, sd) for k, sd in enumerate(_ENTRY2_SDS[kind])}
    scm = {
        "n": 1000,
        "sources": [{"name": "X", "kind": "pattern",
                     "params": {"values": [1, 2, 3, 4, 5], "mode": "each", "k": 200}}],
        "equations": [equation("Y", linear=[["X", 2.0]],
                               group_error={"by": "X", "levels": levels})],
    }
    return {
        "id": f"entry2-{kind}",
        "seed": 12,
        "scm": scm,
        "analyses": [_fit("Y ~ X", "ols")],
        "outputs": [_out("analysis:ols", "fit.json")],
    }


def entry2_homoscedastic() -> dict:
    return _entry2("homoscedastic")


def entry2_heteroscedastic_expanding() -> dict:
    return _entry2("heteroscedastic-expanding")


# -- entry 3: collinearity -------------------------------------------------------


def entry3_corr_matrix(rho: float) -> list[list[float]]:
    """Y/X/Z1..Z4 target: r(X,Y)=.50, r(Zi,Y)=.10, predictors pairwise rho."""
    m = [[0.0] * 6 for _ in range(6)]
    for i in range(6):
        m[i][i] = 1.0
    m[0][1] = m[1][0] = 0.50
    for j in range(2, 6):
        m[0][j] = m[j][0] = 0.10
        m[1][j] = m[j][1] = rho
        for k in range(2, 6):
            if j != k:
                m[j][k] = rho
    return m


# pairwise predictor correlation, by scenario
_ENTRY3_RHO = {"none": 0.0, "small": 0.10, "modsmall": 0.25, "moderate": 0.50, "high": 0.75}


def _entry3(level: str) -> dict:
    return {
        "id": f"entry3-collinearity-{level}",
        "seed": 56,
        "corr": {
            "names": ["Y", "X", "Z1", "Z2", "Z3", "Z4"],
            "corr": entry3_corr_matrix(_ENTRY3_RHO[level]),
            "means": [0, 0, 0, 0, 0, 0],
            "sds": [1, 1, 1, 1, 1, 1],
            "empirical_exact": True,
            "n": 1000,
        },
        "analyses": [
            _fit("Y ~ X + Z1 + Z2 + Z3 + Z4", "ols"),
            {"kind": "collinearity", "name": "diag", "formula": "Y ~ X + Z1 + Z2 + Z3 + Z4"},
        ],
        "outputs": [_out("analysis:ols", "fit.json"),
                    _out("analysis:diag", "collinearity.csv", "csv")],
    }


# -- entry 4: outliers -----------------------------------------------------------


def entry4_outliers() -> dict:
    scm = {
        "n": 100,
        "sources": [normal_source("X", 10, 1)],
        "equations": [equation("Y", linear=[["X", 0.60]], error=err(0.50, 10, 1))],
    }
    analyses = [_fit("Y ~ X", "baseline")]
    for label, x0, y0 in [
        ("x16_online", 16, 13.6), ("x50_online", 50, 34.0),
        ("x_mean_y17", 10, 17.0), ("x16_at_ybar", 16, "mean:Y"),
        ("x50_at_ybar", 50, "mean:Y"), ("x50_y100", 50, 100.0),
    ]:
        analyses.append({"kind": "outlier_fit", "name": label,
                         "assign": {"X": x0, "Y": y0}, "formula": "Y ~ X"})
    return {
        "id": "entry4-outliers",
        "seed": 32,
        "scm": scm,
        "analyses": analyses,
        "outputs": [_out("analysis:baseline", "fit_baseline.json"),
                    _out("analysis:x50_y100", "fit_x50_y100.json")],
    }


# -- entry 5: unknown interactions (population + repeated sampling) ---------------


def entry5_population_scm() -> dict:
    return {
        "n": 500000,
        "sources": [
            {"name": "EP", "kind": "pattern",
             "params": {"values": [0, 1], "mode": "times", "k": 250000}},
            {"name": "PEA", "kind": "clamped_int_normal",
             "params": {"mean": 12, "sd": 2.5, "lo": 4, "hi": 19}},
        ],
        "equations": [
            equation("SIEM", linear=[["EP", 7.0], ["PEA", 0.0]],
                     interactions=[["PEA", "EP", -0.50]], error=err(1.0, 5, 0.25))
        ],
    }


# the sampling filter on PEA (comparison op, value), by scenario; None samples every row
_ENTRY5_FILTERS = {"random": None, "high-pea": (">=", 15), "low-pea": ("<=", 8)}


def _entry5(kind: str) -> dict:
    sampling: dict = {
        "k": 1000,
        "reps": 10000,
        "analysis": [{"kind": "fit", "formula": "SIEM ~ EP",
                      "record": {"slope": "b:EP", "se": "se:EP"}}],
    }
    if _ENTRY5_FILTERS[kind]:
        op, value = _ENTRY5_FILTERS[kind]
        sampling["filter"] = [{"var": "PEA", "op": op, "value": value}]
    return {
        "id": f"entry5-sampling-{kind}",
        "seed": 7,
        "population": {"scm": entry5_population_scm(), "sampling": sampling},
        "analyses": [_fit("SIEM ~ EP", "population_fit")],
        "outputs": [_out("mc", "samples.csv"), _out("mc_summary:slope", "slope_summary.json"),
                    _out("histogram:slope:40", "slope_hist.csv")],
    }


# -- entry 6: covariate balance ---------------------------------------------------


def entry6_balance() -> dict:
    scm = {
        "n": 100000,
        "sources": [
            {"name": "Tr", "kind": "pattern",
             "params": {"values": [1, 0], "mode": "each", "k": 50000}},
            {"name": "DI1", "kind": "pattern",
             "params": {"values": [0, 1], "mode": "times", "k": 50000}},
            {"name": "DV1", "kind": "clamped_int_normal",
             "params": {"mean": 2.5, "sd": 0.75, "lo": 0, "hi": 5}},
            {"name": "SCV1", "kind": "clamped_int_normal",
             "params": {"mean": 35, "sd": 5, "lo": 18, "hi": 55}},
            {"name": "CV1", "kind": "clamped_int_normal",
             "params": {"mean": 35000, "sd": 5000, "lo": 10000, "hi": 60000}},
        ],
        "equations": [
            equation("Y", linear=[["Tr", 10.0], ["DI1", 1.25], ["DV1", 0.25],
                                  ["SCV1", 0.0075], ["CV1", 0.0075]])
        ],
    }
    sampling = {
        "k": 100,
        "reps": 1000,
        "analysis": [
            {"kind": "fit", "formula": "Y ~ Tr", "record": {"slope": "b:Tr"}},
            {"kind": "balance", "group": "Tr", "covariates": ["DI1", "DV1", "SCV1", "CV1"],
             "record": {"d_DI1": "delta_mean:DI1", "d_DV1": "delta_mean:DV1",
                        "d_SCV1": "delta_mean:SCV1", "d_CV1": "delta_mean:CV1"}},
        ],
    }
    return {
        "id": "entry6-balance",
        "seed": 1992,
        "population": {"scm": scm, "sampling": sampling},
        "analyses": [{"kind": "balance", "name": "population_balance", "group": "Tr",
                      "covariates": ["DI1", "DV1", "SCV1", "CV1"]}],
        "outputs": [_out("mc", "trials.csv"), _out("mc_summary:slope", "slope_summary.json"),
                    _out("analysis:population_balance", "population_balance.csv", "csv")],
    }


def entry6_blocked() -> dict:
    scm = {
        "n": 12,
        "sources": [
            {"name": "sex", "kind": "pattern", "params": {"values": [1, 2], "mode": "each", "k": 6}},
            normal_source("age", 35, 5),
        ],
        "equations": [],
    }
    return {
        "id": "entry6-blocked",
        "seed": 1992,
        "scm": scm,
        "analyses": [{"kind": "block_balance", "name": "blocked", "strata": "sex",
                      "covariates": ["age"]}],
        "outputs": [_out("analysis:blocked", "blocked_balance.csv", "csv")],
    }


# -- entries 7/8: confounders and colliders ----------------------------------------


def entry7_single(sign_x: int = 1, sign_y: int = 1) -> dict:
    scm = {
        "n": 500,
        "sources": [normal_source("c", 0, 2.5)],
        "equations": [
            equation("x", linear=[["c", 2.0 * sign_x]], error=err(2.0, 0, 2.5)),
            equation("y", linear=[["c", 2.0 * sign_y]], error=err(2.0, 0, 2.5)),
        ],
    }
    return _compare(f"entry7-confounder-{_quadrant(sign_x, sign_y)}", 1001, scm, "y", "x",
                    [["c"]], 0.0)


def _noise_ranges(scaled: str, noises: str) -> dict:
    """The binding ranges of the scale ``k_v`` of each ``v`` in ``scaled``, then of the
    mean ``mu_v`` and the sd ``sd_v`` of each noise ``v`` in ``noises``."""
    return {**{f"k_{v}": {"lo": 1, "hi": 100} for v in scaled},
            **{f"mu_{v}": {"lo": -5, "hi": 5} for v in noises},
            **{f"sd_{v}": {"lo": 1, "hi": 5} for v in noises}}


def confounder_template(
    sign_x: int = 1,
    sign_y: int = 1,
    n: int | tuple[int, int] = 10000,
    reps: int = 10000,
    seed: int = 1992,
    effect_lo: float = 1.0,
) -> dict:
    """Randomized confounder loop; effect coefficients in [effect_lo, 100].

    Defaults to a fixed 10000 rows per replicate so the sign of the
    spurious slope is resolved decisively across the whole coefficient
    range; pass a (lo, hi) tuple to draw the sample size instead.
    """
    return _template(
        [normal_source("c", "mu_c", "sd_c")],
        [equation("x", linear=[["c", "b_cx"]], error=err("k_x", "mu_x", "sd_x")),
         equation("y", linear=[["c", "b_cy"]], error=err("k_y", "mu_y", "sd_y"))],
        n,
        {"b_cx": _effect_range(sign_x, effect_lo), "b_cy": _effect_range(sign_y, effect_lo),
         **_noise_ranges("xy", "cxy")},
        [{"kind": "fit", "formula": "y ~ x", "record": {"bxy": "b:x"}}],
        reps, seed,
    )


def entry7_mc(sign_x: int = 1, sign_y: int = 1) -> dict:
    return _mc(f"entry7-confounder-{_quadrant(sign_x, sign_y)}-mc",
               confounder_template(sign_x, sign_y),
               _out("mc_summary:bxy", "bxy_summary.json"), _out("histogram:bxy:50", "bxy_hist.csv"))


def entry8_single(sign_x: int = -1, sign_y: int = -1) -> dict:
    scm = {
        "n": 500,
        "sources": [normal_source("x", 0, 2.5), normal_source("y", 0, 2.5)],
        "equations": [
            equation("col", linear=[["x", 2.0 * sign_x], ["y", 2.0 * sign_y]],
                     error=err(1.0, 0, 2.5))
        ],
    }
    return _compare(f"entry8-collider-{_quadrant(sign_x, sign_y)}", 42125, scm, "y", "x",
                    [["col"]], 0.0)


def collider_template(
    sign_x: int = 1,
    sign_y: int = 1,
    n: int | tuple[int, int] = (100, 1000),
    reps: int = 10000,
    seed: int = 1992,
    effect_lo: float = 1.0,
) -> dict:
    """Randomized collider loop; the sample size is drawn from 100..1000 by default."""
    return _template(
        [normal_source("ex", "mu_x", "sd_x"), normal_source("ey", "mu_y", "sd_y")],
        [equation("x", linear=[["ex", "k_x"]]),
         equation("y", linear=[["ey", "k_y"]]),
         equation("col", linear=[["x", "b_xc"], ["y", "b_yc"]], error=err("k_c", "mu_c", "sd_c"))],
        n,
        {"b_xc": _effect_range(sign_x, effect_lo), "b_yc": _effect_range(sign_y, effect_lo),
         **_noise_ranges("xyc", "xyc")},
        [{"kind": "fit", "formula": "y ~ x + col", "record": {"bxy_adj": "b:x"}}],
        reps, seed,
    )


def entry8_mc(sign_x: int = 1, sign_y: int = 1) -> dict:
    return _mc(f"entry8-collider-{_quadrant(sign_x, sign_y)}-mc", collider_template(sign_x, sign_y),
               _out("mc_summary:bxy_adj", "summary.json"))


# -- entry 9: mediation and moderation ----------------------------------------------


def entry9_mediation() -> dict:
    scm = {
        "n": 10000,
        "sources": [normal_source("X", 0, 10)],
        "equations": [
            equation("ME", linear=[["X", 1.0]], error=err(2.0, 0, 10)),
            equation("Y", linear=[["ME", 1.0], ["X", 0.0]], error=err(2.0, 0, 10)),
        ],
    }
    return {
        "id": "entry9-mediation",
        "seed": 1992,
        "scm": scm,
        "analyses": [{"kind": "mediation", "name": "paths", "y": "Y", "x": "X", "m": "ME"},
                     _fit("Y ~ X", "total")],
        "outputs": [_out("analysis:paths", "mediation.json")],
    }


def entry9_moderated() -> dict:
    scm = {
        "n": 10000,
        "sources": [normal_source("X", 0, 10), normal_source("MO", 0, 10)],
        "equations": [
            equation("ME", linear=[["X", 1.0]], interactions=[["X", "MO", 1.0]],
                     error=err(2.0, 0, 10)),
            equation("Y", linear=[["ME", 1.0], ["X", 1.0]],
                     interactions=[["ME", "MO", 1.0], ["X", "MO", 1.0]],
                     error=err(2.0, 0, 10)),
        ],
    }
    return {
        "id": "entry9-moderated",
        "seed": 1992,
        "scm": scm,
        "analyses": [
            _fit("Y ~ X", "total"),
            _fit("Y ~ X + ME + MO + X:MO + ME:MO", "full"),
            {"kind": "subgroup", "name": "high_mo", "y": "Y", "x": "X",
             "where": [{"var": "MO", "op": ">", "value": 10}]},
        ],
        "outputs": [_out("analysis:full", "fit_full.json")],
    }


# -- entry 10: descendants ------------------------------------------------------------


def entry10_descendant() -> dict:
    scm = {
        "n": 1000,
        "sources": [normal_source("Con", 0, 10)],
        "equations": [
            equation("X", linear=[["Con", 2.0]], error=err(0.50, 0, 10)),
            equation("Y", linear=[["Con", 2.0], ["X", 0.0]], error=err(0.50, 0, 10)),
            equation("Des", linear=[["Con", 20.0]], error=err(1.0, 0, 10)),
        ],
    }
    return _compare("entry10-descendant", 1992, scm, "Y", "X", [["Con"], ["Des"]], 0.0)


# -- entry 11: instrumental variables ---------------------------------------------------


def entry11_single() -> dict:
    scm = {
        "n": 1000,
        "sources": [normal_source("C", 0, 10), normal_source("IN", 0, 10)],
        "equations": [
            equation("X", linear=[["C", 1.0], ["IN", 1.0]], error=err(1.0, 0, 10)),
            equation("Y", linear=[["C", 1.0], ["X", 1.0]], error=err(1.0, 0, 10)),
        ],
    }
    return {
        "id": "entry11-iv-valid",
        "seed": 1992,
        "scm": scm,
        "analyses": [
            {"kind": "iv", "name": "wald", "y": "Y", "x": "X", "instrument": "IN"},
            {"kind": "compare_adjustments", "name": "compare", "y": "Y", "x": "X",
             "covariate_sets": [["C"]], "truth": 1.0},
            # instrument/confounder correlation diagnostic (no threshold enforced)
            {"kind": "correlation", "name": "in_c_corr", "x": "IN", "y": "C"},
        ],
        "outputs": [_out("analysis:wald", "iv.json"), _out("analysis:compare", "compare.json"),
                    _out("analysis:in_c_corr", "in_c_corr.json")],
    }


_IV_RECORD = [
    {"kind": "fit", "formula": "Y ~ X + Con", "record": {"M1_byx": "b:X"}},
    {"kind": "iv", "y": "Y", "x": "X", "instrument": "IN", "allow_weak": True,
     "record": {"M2_byin": "b_yin", "M3_bxin": "b_xin", "IN_byx": "ratio"}},
]

_IV_BINDINGS_COMMON = {
    "mu_con": {"lo": -5, "hi": 5}, "sd_con": {"lo": 1, "hi": 30},
    "mu_in": {"lo": -5, "hi": 5}, "sd_in": {"lo": 1, "hi": 30},
    "a_con": {"lo": 0.1, "hi": 10}, "a_in": {"lo": 0.1, "hi": 10},
    "a_e": {"lo": 0.1, "hi": 10}, "mu_ex": {"lo": -5, "hi": 5}, "sd_ex": {"lo": 1, "hi": 30},
    "b_con": {"lo": 0.1, "hi": 10}, "b_x": {"lo": 0.1, "hi": 10},
    "b_e": {"lo": 0.1, "hi": 10}, "mu_ey": {"lo": -5, "hi": 5}, "sd_ey": {"lo": 1, "hi": 30},
}


_IV_VARIANTS = ("valid", "causes-confounder", "correlated-confounder", "direct", "indirect")


def iv_template(variant: str, reps: int = 10000, seed: int = 1992,
                n: tuple[int, int] = (150, 10000)) -> dict:
    """The instrumental-variable loop of ``variant``, one of ``_IV_VARIANTS``."""
    bindings = copy.deepcopy(_IV_BINDINGS_COMMON)
    x_eq = equation("X", linear=[["Con", "a_con"], ["IN", "a_in"]],
                    error=err("a_e", "mu_ex", "sd_ex"))
    y_lin = [["Con", "b_con"], ["X", "b_x"]]
    sources = [normal_source("IN", "mu_in", "sd_in")]
    equations: list[dict]
    if variant == "valid":
        sources.insert(0, normal_source("Con", "mu_con", "sd_con"))
        equations = [x_eq, equation("Y", linear=y_lin, error=err("b_e", "mu_ey", "sd_ey"))]
    elif variant == "causes-confounder":
        bindings["c_in"] = {"lo": 0.1, "hi": 10}
        bindings["c_e"] = {"lo": 0.1, "hi": 10}
        bindings["mu_ec"] = {"lo": -5, "hi": 5}
        bindings["sd_ec"] = {"lo": 1, "hi": 30}
        del bindings["mu_con"], bindings["sd_con"]
        equations = [
            equation("Con", linear=[["IN", "c_in"]], error=err("c_e", "mu_ec", "sd_ec")),
            x_eq,
            equation("Y", linear=y_lin, error=err("b_e", "mu_ey", "sd_ey")),
        ]
    elif variant == "correlated-confounder":
        bindings["in_cor"] = {"lo": 0.1, "hi": 10}
        bindings["in_e"] = {"lo": 0.1, "hi": 10}
        bindings["con_cor"] = {"lo": 0.1, "hi": 10}
        bindings["con_e"] = {"lo": 0.1, "hi": 10}
        bindings["mu_cor"] = {"lo": -5, "hi": 5}
        bindings["sd_cor"] = {"lo": 1, "hi": 30}
        bindings["mu_ec"] = {"lo": -5, "hi": 5}
        bindings["sd_ec"] = {"lo": 1, "hi": 30}
        del bindings["mu_con"], bindings["sd_con"]
        sources = [normal_source("COR", "mu_cor", "sd_cor"),
                   normal_source("E_IN", "mu_in", "sd_in"),
                   normal_source("E_CON", "mu_ec", "sd_ec")]
        equations = [
            equation("IN", linear=[["E_IN", "in_e"], ["COR", "in_cor"]]),
            equation("Con", linear=[["E_CON", "con_e"], ["COR", "con_cor"]]),
            x_eq,
            equation("Y", linear=y_lin, error=err("b_e", "mu_ey", "sd_ey")),
        ]
    elif variant == "direct":
        bindings["b_in"] = {"lo": 0.1, "hi": 10}
        sources.insert(0, normal_source("Con", "mu_con", "sd_con"))
        equations = [
            x_eq,
            equation("Y", linear=y_lin + [["IN", "b_in"]], error=err("b_e", "mu_ey", "sd_ey")),
        ]
    elif variant == "indirect":
        bindings["m_in"] = {"lo": 0.1, "hi": 10}
        bindings["m_e"] = {"lo": 0.1, "hi": 10}
        bindings["mu_em"] = {"lo": -5, "hi": 5}
        bindings["sd_em"] = {"lo": 1, "hi": 30}
        bindings["b_m"] = {"lo": 0.1, "hi": 10}
        sources.insert(0, normal_source("Con", "mu_con", "sd_con"))
        equations = [
            equation("M", linear=[["IN", "m_in"]], error=err("m_e", "mu_em", "sd_em")),
            x_eq,
            equation("Y", linear=y_lin + [["M", "b_m"]], error=err("b_e", "mu_ey", "sd_ey")),
        ]
    else:
        raise ValidationError(f"unknown iv template variant {variant!r}")
    return _template(sources, equations, n, bindings, copy.deepcopy(_IV_RECORD), reps, seed)


def _entry11_mc(variant: str) -> dict:
    return _mc(f"entry11-iv-{variant}-mc", iv_template(variant),
               _out("mc_summary:IN_byx", "ratio_summary.json"))


# -- entry 12: non-causal covariates / reversed fits ---------------------------------------


def entry12_noncausal() -> dict:
    scm = {
        "n": 1000,
        "sources": [normal_source("Z", 0, 10), normal_source("E", 0, 10)],
        "equations": [
            equation("X", linear=[["E", 1.0]]),
            equation("Y", linear=[["X", 1.0]], error=err(1.0, 0, 10)),
        ],
    }
    return _compare("entry12-noncausal", 1992, scm, "Y", "X", [["Z"]], 1.0)


def entry12_reversed() -> dict:
    scm = {
        "n": 1000,
        "sources": [normal_source("X", 0, 10)],
        "equations": [equation("Y", linear=[["X", 1.0]], error=err(1.0, 0, 10))],
    }
    return {
        "id": "entry12-reversed",
        "seed": 1992,
        "scm": scm,
        "analyses": [_fit("Y ~ X", "forward"), _fit("X ~ Y", "reversed")],
        "outputs": [_out("analysis:forward", "fit_forward.json"),
                    _out("analysis:reversed", "fit_reversed.json")],
    }


# -- entries 13-15: measurement ---------------------------------------------------------


def entry13_scm() -> dict:
    return {
        "n": 10000,
        "sources": [normal_source("X", 0, 10)],
        "equations": [equation("Y", linear=[["X", 1.0]], error=err(1.0, 0, 30))],
    }


def _attenuation(ident: str, target: str, rules: dict) -> dict:
    """The Y ~ X slope's attenuation table, one row per rule applied to ``target``."""
    variants = [{"label": label, "target": target, "rule": rule} for label, rule in rules.items()]
    return {
        "id": ident,
        "seed": 1992,
        "scm": entry13_scm(),
        "analyses": [{"kind": "attenuation", "name": "table", "y": "Y", "x": "X",
                      "variants": variants}],
        "outputs": [_out("analysis:table", "attenuation.csv", "csv")],
    }


def entry13_response_measurement() -> dict:
    return _attenuation("entry13-response-measurement", "y", {
        "median_split": {"kind": "dichotomize_median"},
        "q25_split": {"kind": "dichotomize_quantile", "p": 0.25},
        "extreme_split": {"kind": "dichotomize_threshold", "threshold": 90},
        "quartiles": {"kind": "ordinalize_quantiles", "probs": [0.25, 0.5, 0.75]},
        "ord_50_60_90": {"kind": "ordinalize_quantiles", "probs": [0.5, 0.6, 0.9]},
        "ord_10_20_30": {"kind": "ordinalize_quantiles", "probs": [0.1, 0.2, 0.3]},
        "scale_0.2": {"kind": "scale", "c": 0.2},
        "scale_20": {"kind": "scale", "c": 20},
        "zscore": {"kind": "zscore"},
        "normalize": {"kind": "minmax"},
        "log_normalized": [{"kind": "minmax", "pad_lo": 25, "pad_hi": 25}, {"kind": "log_e"}],
        "square_raw": {"kind": "power", "exponent": 2},
        "power_0.2_raw": {"kind": "power", "exponent": 0.2},
        "round": {"kind": "round_whole"},
        "window_pm5": {"kind": "window", "lo": -5, "hi": 5},
    })


def entry14_predictor_measurement() -> dict:
    return _attenuation("entry14-predictor-measurement", "x", {
        "median_split": {"kind": "dichotomize_median"},
        "q25_split": {"kind": "dichotomize_quantile", "p": 0.25},
        "extreme_split": {"kind": "dichotomize_threshold", "threshold": 30},
        "quartiles": {"kind": "ordinalize_quantiles", "probs": [0.25, 0.5, 0.75]},
        "scale_20": {"kind": "scale", "c": 20},
        "zscore": {"kind": "zscore"},
        "window_pm5": {"kind": "window", "lo": -5, "hi": 5},
    })


def entry15_covariate_measurement() -> dict:
    scm = {
        "n": 10000,
        "sources": [normal_source("X", 0, 10), normal_source("Mod", 0, 10)],
        "equations": [
            equation("Y", linear=[["X", 1.0]], interactions=[["X", "Mod", 4.0]],
                     error=err(1.0, 0, 30))
        ],
    }
    return {
        "id": "entry15-covariate-measurement",
        "seed": 1992,
        "scm": scm,
        "analyses": [
            {"kind": "moderated_fit", "name": "continuous_mod", "y": "Y", "x": "X", "mo": "Mod"},
            {"kind": "recode", "name": "mod_or1", "var": "Mod", "as": "Mod_OR1",
             "rule": {"kind": "ordinalize_quantiles", "probs": [0.25, 0.5, 0.75]}},
            {"kind": "recode", "name": "mod_di1", "var": "Mod", "as": "Mod_DI1",
             "rule": {"kind": "dichotomize_median"}},
            {"kind": "moderated_fit", "name": "ordinal_mod", "y": "Y", "x": "X", "mo": "Mod_OR1"},
            {"kind": "moderated_fit", "name": "dichotomous_mod", "y": "Y", "x": "X", "mo": "Mod_DI1"},
        ],
        "outputs": [_out("analysis:continuous_mod", "fit_continuous.json"),
                    _out("analysis:ordinal_mod", "fit_ordinal.json"),
                    _out("analysis:dichotomous_mod", "fit_dichotomous.json")],
    }


# -- registry -----------------------------------------------------------------------------


_BUILDERS: dict[str, Callable[[], dict]] = {}


def _register(fn: Callable[[], dict]) -> None:
    cfg = fn()
    _BUILDERS[cfg["id"]] = fn


for _fn in (
    entry1_linearity, entry1_curvilinear, entry4_outliers, entry6_balance, entry6_blocked,
    entry9_mediation, entry9_moderated, entry10_descendant, entry11_single,
    entry12_noncausal, entry12_reversed,
    entry13_response_measurement, entry14_predictor_measurement, entry15_covariate_measurement,
):
    _register(_fn)

# each family from its parameters; a builder makes fresh lists and dicts on every call
for _family, _keys in ((_entry2, _ENTRY2_SDS), (_entry3, _ENTRY3_RHO), (_entry5, _ENTRY5_FILTERS),
                       (_entry11_mc, _IV_VARIANTS)):
    for _key in _keys:
        _register(partial(_family, _key))

for _signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
    for _family in (entry7_single, entry7_mc, entry8_single, entry8_mc):
        _register(partial(_family, *_signs))


def catalog_ids() -> list[str]:
    return sorted(_BUILDERS)


def catalog_config(ident: str) -> dict:
    if ident not in _BUILDERS:
        raise ValidationError(f"unknown catalog id {ident!r}; see `biaslab catalog`")
    return _BUILDERS[ident]()
