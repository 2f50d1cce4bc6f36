"""Regression fitters and inference.

Three families share one result type: gaussian OLS (orthogonal
decomposition), binary logistic (iteratively reweighted least squares), and
the proportional-odds ordered logit (Newton with monotone cutpoints).  All
fitters apply listwise deletion over the formula's variables first and
report how many rows were dropped.

Sign convention for the ordered model: ``P(Y <= k | x) = logistic(z_k - x*b)``,
so ``b`` matches the binary-logit slope of "higher category".
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import Dataset, listwise_complete
from .errors import (
    DataError,
    ParameterError,
    SeparationWarning,
    SingularDesignError,
    ValidationError,
    shown,
)

_RANK_TOL = 1e-10  # relative to the largest |R| entry of the same column


def _special():
    # imported at the first logit or the first read of a FitResult.p: it is
    # half of the CLI's cold start and about 25 MB of resident memory
    import scipy.special

    return scipy.special


@dataclass(frozen=True)
class Term:
    kind: str  # "main" | "interaction" | "square"
    a: str
    b: str | None = None

    def __post_init__(self):
        if self.kind not in ("main", "interaction", "square"):
            raise ValidationError(f"unknown term kind {self.kind!r}")
        if (self.kind == "interaction") != (self.b is not None):
            raise ValidationError("interaction terms need exactly two names")

    @property
    def label(self) -> str:
        if self.kind == "main":
            return self.a
        if self.kind == "interaction":
            return f"{self.a}:{self.b}"
        return f"{self.a}^2"

    def variables(self) -> list[str]:
        return [self.a] if self.b is None else [self.a, self.b]

    def build(self, data: Dataset) -> np.ndarray:
        if self.kind == "main":
            return data[self.a]
        if self.kind == "interaction":
            return data[self.a] * data[self.b]
        return data[self.a] ** 2


def main(name: str) -> Term:
    return Term("main", name)


def interaction(a: str, b: str) -> Term:
    return Term("interaction", a, b)


def square(name: str) -> Term:
    return Term("square", name)


@dataclass(frozen=True)
class Formula:
    """``response ~ term + term + ...`` with an implicit intercept."""

    response: str
    terms: tuple[Term, ...]
    intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        labels = [t.label for t in self.terms]
        dupes = {x for x in labels if labels.count(x) > 1}
        if dupes:
            raise ValidationError(f"duplicate terms in formula: {sorted(dupes)}")
        seen: list[str] = [self.response]
        for t in self.terms:
            for v in t.variables():
                if v not in seen:
                    seen.append(v)
        # found once: the variables listwise deletion reads and the labels of
        # the design ``[1 |] terms``
        object.__setattr__(self, "_variables", tuple(seen))
        object.__setattr__(self, "_labels", _term_labels(self.terms, self.intercept))

    def variables(self) -> list[str]:
        return list(self._variables)

    def text(self) -> str:
        rhs = " + ".join(t.label for t in self.terms) if self.terms else "1"
        if not self.intercept:
            rhs += " - 1"
        return f"{self.response} ~ {rhs}"

    @classmethod
    def parse(cls, text: str) -> "Formula":
        """Parse ``Y ~ X + Z + X:Z + X^2``; ``Y ~ 1`` is intercept-only."""
        if not isinstance(text, str) or "~" not in text:
            raise ValidationError(f"formula must be a string with '~', got {shown(text)}")
        lhs, rhs = text.split("~", 1)
        response = lhs.strip()
        if not response.isidentifier():
            raise ValidationError(f"bad response name {response!r} in formula {text!r}")
        terms: list[Term] = []
        intercept = True
        for raw in rhs.split("+"):
            piece = raw.strip()
            if piece in ("", "1"):
                continue
            if piece.endswith("- 1") or piece.endswith("-1"):
                intercept = False
                piece = piece[: piece.rfind("-")].strip()
                if piece in ("", "1"):
                    continue
            if ":" in piece:
                a, _, b = piece.partition(":")
                a, b = a.strip(), b.strip()
                if not (a.isidentifier() and b.isidentifier()):
                    raise ValidationError(f"bad interaction term {piece!r}")
                terms.append(interaction(a, b))
            elif piece.endswith("^2"):
                a = piece[:-2].strip()
                if not a.isidentifier():
                    raise ValidationError(f"bad square term {piece!r}")
                terms.append(square(a))
            else:
                if not piece.isidentifier():
                    raise ValidationError(f"bad term {piece!r} in formula {text!r}")
                terms.append(main(piece))
        return cls(response=response, terms=tuple(terms), intercept=intercept)


@dataclass(frozen=True)
class FitResult:
    """Coefficients and inference for one fitted model.

    ``terms`` lists slope-term labels (plus ``(Intercept)`` first for
    gaussian/binomial fits); ``stat`` is b/SE for every term.  ``p``, its
    two-sided p-value from t(``df_residual``) for gaussian fits and from the
    normal otherwise, is computed on first read and kept on the instance.
    """

    family: str  # "gaussian" | "binomial" | "ordered"
    formula: Formula
    terms: tuple[str, ...]
    b: np.ndarray
    se: np.ndarray
    stat: np.ndarray
    beta: np.ndarray  # standardized slope coefficients (0 for intercept)
    n_used: int
    n_dropped: int
    df_residual: int
    deviance: float
    null_deviance: float
    aic: float
    r_squared: float | None = None
    adj_r_squared: float | None = None
    cutpoint_names: tuple[str, ...] = ()
    cutpoints: np.ndarray = field(default_factory=lambda: np.empty(0))
    cutpoint_se: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = True
    iterations: int = 1
    residual_se: float | None = None

    @cached_property
    def p(self) -> np.ndarray:
        special, z = _special(), -np.abs(self.stat)
        tail = special.stdtr(self.df_residual, z) if self.family == "gaussian" else special.ndtr(z)
        return 2.0 * tail

    def term_index(self, term: str) -> int:
        try:
            return self.terms.index(term)
        except ValueError:
            raise ValidationError(f"no term {term!r} in fit; have {list(self.terms)}") from None

    def coef(self, term: str) -> float:
        return float(self.b[self.term_index(term)])

    def se_of(self, term: str) -> float:
        return float(self.se[self.term_index(term)])

    def stat_of(self, term: str) -> float:
        return float(self.stat[self.term_index(term)])

    def csv_rows(self) -> tuple[list[str], list[list]]:
        return ["term", "b", "se", "stat", "p", "beta"], [
            [t, float(self.b[i]), float(self.se[i]), float(self.stat[i]),
             float(self.p[i]), float(self.beta[i])]
            for i, t in enumerate(self.terms)
        ]

    def to_json_dict(self) -> dict:
        def arr(a):
            return [None if (x is None or not np.isfinite(x)) else float(x) for x in a]

        return {
            "family": "binomial-logit" if self.family == "binomial"
            else ("ordered-logit" if self.family == "ordered" else self.family),
            "terms": list(self.terms),
            "b": arr(self.b),
            "se": arr(self.se),
            "stat": arr(self.stat),
            "p": arr(self.p),
            "beta": arr(self.beta),
            "cutpoints": arr(self.cutpoints),
            "cutpoint_se": arr(self.cutpoint_se),
            "cutpoint_names": list(self.cutpoint_names),
            "r2": self.r_squared,
            "adj_r2": self.adj_r_squared,
            "deviance": self.deviance,
            "null_deviance": self.null_deviance,
            "aic": self.aic,
            "n_used": self.n_used,
            "n_dropped": self.n_dropped,
            "df_residual": self.df_residual,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _term_labels(terms: Sequence[Term], with_intercept: bool) -> tuple[str, ...]:
    return ("(Intercept)",) * with_intercept + tuple(t.label for t in terms)


def _design(complete: Dataset, terms: Sequence[Term], labels: Sequence[str],
            responses: Sequence[str] = (), checked: bool = True) -> np.ndarray:
    """The column-major ``[X | y1 ... yk]``: the design ``[1 |] terms`` (columns ``labels``), then ``responses``.

    ``labels`` has ``(Intercept)`` first when the design has an intercept column.
    Where ``checked``, a built interaction or square that overflows to ±inf raises
    ``DataError``; as in ``listwise_complete``, ``v @ v`` screens it before the exact pass."""
    a = np.empty((complete.n_rows, len(labels) + len(responses)), order="F")
    first = len(labels) - len(terms)  # 1 with an intercept column, else 0
    if first:
        a[:, 0] = 1.0
    for j, term in enumerate((*terms, *map(main, responses)), start=first):
        if term.kind == "main" or not checked:
            a[:, j] = term.build(complete)
            continue
        with np.errstate(over="ignore"):
            a[:, j] = v = term.build(complete)
            if not math.isfinite(v @ v) and np.isinf(v).any():
                raise DataError(f"term {term.label!r} overflows to ±inf; fits need finite data")
    return a


def _build_design(
    data: Dataset, formula: Formula, with_intercept: bool
) -> tuple[np.ndarray, tuple[str, ...], int]:
    """Listwise-delete over formula variables, then build ([X | y], labels, n_dropped).

    One dot product screens ``[X | y]`` built from every row: a finite sum of
    squares has no NaN, ±inf or overflowing column to drop or refuse, so only
    data that fails it is listwise-deleted, checked per term and rebuilt."""
    labels = (formula._labels if with_intercept == formula.intercept
              else _term_labels(formula.terms, with_intercept))
    if data.n_rows:
        with np.errstate(over="ignore", invalid="ignore"):
            a = _design(data, formula.terms, labels, (formula.response,), checked=False)
            flat = a.reshape(-1, order="F")
            if math.isfinite(flat @ flat):
                return a, labels, 0
    complete, n_dropped = listwise_complete(data, formula._variables)
    if complete.n_rows == 0:
        raise DataError("no complete rows after listwise deletion")
    return _design(complete, formula.terms, labels, (formula.response,)), labels, n_dropped


def _check_rank(a: np.ndarray, labels: Sequence[str]) -> np.ndarray:
    """R of the column-major ``a`` from one QR that forms no Q, or ``SingularDesignError``
    if its first ``len(labels)`` columns (the design) lack full rank.

    Column j is numerically a combination of the columns before it when
    ``|R_jj|`` is at most ``_RANK_TOL`` times the largest ``|R_ij|`` of its own
    column.  Scaling a column scales its column of R, so the test does not
    depend on the scale of any column; a zero column is dependent."""
    # R over the reflectors; zeroing those costs less than mode "r"'s triu
    h, k = np.linalg.qr(a, mode="raw")[0].T, min(a.shape)
    for i in range(1, k):
        h[i, :i] = 0.0
    r, p = np.ascontiguousarray(h[:k]), len(labels)
    # lists, not arrays, as numpy's per-call overhead would dominate; a NaN in a
    # column (NaN data) never flags it, and a NaN on the diagonal never raises
    cols = [list(map(abs, c)) for c in zip(*r[:p, :p].tolist())]
    diag = [c[j] for j, c in enumerate(cols)]
    if (any(d <= _RANK_TOL * max(c) and not any(map(math.isnan, c)) for d, c in zip(diag, cols))
            and not any(map(math.isnan, diag))):
        # pivoted pass to name the first dependent column; scipy.linalg is
        # imported here so that a full-rank fit never loads it
        import scipy.linalg

        _, rp, piv = scipy.linalg.qr(a[:, :p], mode="economic", pivoting=True)
        ap = np.abs(rp)
        bad = np.nonzero(ap.diagonal() <= _RANK_TOL * ap.max(axis=0))[0]
        term = labels[piv[bad[0]]] if bad.size else labels[-1]
        raise SingularDesignError(f"design matrix is singular at term {term!r}", term=term)
    return r


def _check_rank_with_intercept(x: np.ndarray, labels: Sequence[str]) -> None:
    """Raise ``SingularDesignError`` naming a dependent term unless
    ``[1 | x]`` has full rank.  Centring ``x`` spans the same space and keeps
    the pivoted pass from naming the intercept, which is orthogonal to every
    centred column; a constant column centres to a zero column."""
    design = np.ones((len(x), x.shape[1] + 1), order="F")
    np.subtract(x, x.mean(axis=0), out=design[:, 1:])
    _check_rank(design, ["(Intercept)", *labels])


def _least_squares(
    a: np.ndarray, labels: Sequence[str], responses: Sequence[str]
) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """Least squares of each response on the design, from the column-major buffer
    ``a = [X | y1 ... yk]``: X has columns ``labels``, y_i is named ``responses[i]``.

    ``_check_rank`` gives R as the top-left p × p block of its R, and Q'y_i
    beside it.  b = R⁻¹Q'y_i takes one refinement step ``b += R⁻¹R⁻ᵀXᵀ(y_i − Xb)``
    (Björck, *Numerical Methods for Least Squares Problems*, SIAM 1996); RSS is
    the refined residual's, so an exact fit has RSS 0, and SEs are classical.
    Raises ``SingularDesignError`` on rank deficiency, and ``DataError`` when
    there are no more rows than columns or a response's squares overflow."""
    n, p = a.shape[0], len(labels)
    if n <= p:
        raise DataError(f"need more rows ({n}) than parameters ({p})")
    r = _check_rank(a, labels)
    rinv = np.linalg.inv(r[:p, :p])
    unscaled_var = np.add.reduce(rinv**2, axis=1)
    x = a[:, :p]
    fits = []
    for name, y, qty in zip(responses, a[:, p:].T, r[:p, p:].T):
        with np.errstate(over="ignore"):
            if not math.isfinite(y @ y):
                raise DataError(f"response {name!r} is too large: its squares overflow float64")
        b = rinv @ qty
        b += rinv @ (rinv.T @ (x.T @ (y - x @ b)))
        resid = y - x @ b
        rss = float(resid @ resid)
        fits.append((b, rss, np.sqrt(unscaled_var * (rss / (n - p)))))
    return fits


def _standardized(
    b: np.ndarray, x: np.ndarray, y: np.ndarray, labels: Sequence[str]
) -> np.ndarray:
    sy = float(np.std(y, ddof=1))  # no fitter passes a response whose squares overflow
    if sy == 0 or not labels:
        return np.zeros_like(b)
    with np.errstate(over="ignore"):
        sx = np.std(x, axis=0, ddof=1)
    # a design column whose squares overflow: its SD on that column scaled by 1 / max |v|
    for j in np.flatnonzero(~np.isfinite(sx)):
        m = np.max(np.abs(x[:, j]))
        sx[j] = m * np.std(x[:, j] / m, ddof=1)
    # an intercept column's SD is 0, and + 0.0 turns the -0.0 of a negative b into 0.0
    return b * sx / sy + 0.0


def _wald(b: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Wald statistics ``b / se``.  Where an SE is not positive the statistic
    is undefined, so it is NaN (and so is its p-value)."""
    if all(v > 0 for v in se.tolist()):
        return b / se
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(se > 0, b / se, np.nan)


def fit_ols(data: Dataset, formula: Formula, standardized: bool = True) -> FitResult:
    """Gaussian least squares with classical (t-based) inference."""
    a, labels, n_dropped = _build_design(data, formula, formula.intercept)
    [(b, rss, se)] = _least_squares(a, labels, (formula.response,))
    n, p = a.shape[0], len(labels)
    x, y = a[:, :p], a[:, p]
    df = n - p
    sigma2 = rss / df
    stat = _wald(b, se)
    # np.add.reduce is the reduction np.sum and ndarray.mean make, with their bits
    if formula.intercept:
        tss = float(np.add.reduce((y - np.add.reduce(y) / n) ** 2))
    else:
        tss = float(y @ y)
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    adj = 1.0 - (1.0 - r2) * (n - (1 if formula.intercept else 0)) / df if df > 0 else float("nan")
    # ML-convention AIC; comparable only within the gaussian family
    aic = n * (math.log(2 * math.pi) + math.log(max(rss, 1e-300) / n) + 1) + 2 * (p + 1)
    return FitResult(
        family="gaussian",
        formula=formula,
        terms=labels,
        b=b,
        se=se,
        stat=stat,
        beta=_standardized(b, x, y, labels) if standardized else np.zeros(p),
        n_used=n,
        n_dropped=n_dropped,
        df_residual=df,
        deviance=rss,
        null_deviance=tss,
        aic=aic,
        r_squared=r2,
        adj_r_squared=adj,
        residual_se=math.sqrt(sigma2),
    )


def _binomial_deviance(y: np.ndarray, eta: np.ndarray) -> float:
    return float(2.0 * np.sum(np.logaddexp(0.0, eta) - y * eta))


def _separated(fitted: np.ndarray, b: np.ndarray, last: np.ndarray) -> bool:
    """Whether an iterative fit stopped at ``b`` on separation, where no finite
    MLE exists (Albert & Anderson, *Biometrika* 71, 1984), warning if so: a
    fitted probability within 1e-10 of 0 or 1 while the last step, from
    ``last``, still grew max |b| by over 1e-3 of it.  Along a separating
    direction each step adds about as much as the one before; at a finite MLE
    the last step is quadratically small, however extreme the fitted values."""
    top = float(np.max(np.abs(b))) if b.size else 0.0
    grown = top - (float(np.max(np.abs(last))) if last.size else 0.0)
    if grown > 1e-3 * top and (np.any(fitted < 1e-10) or np.any(fitted > 1.0 - 1e-10)):
        warnings.warn("complete separation detected; coefficients are diverging", SeparationWarning)
        return True
    return False


def _check_information(info: np.ndarray, labels: Sequence[str]) -> None:
    """``DataError`` naming the first term whose entry on the diagonal of the
    information matrix ``info`` overflowed, as ``_least_squares`` names a response."""
    if not np.isfinite(info).all():
        bad = [j for j, v in enumerate(np.diag(info).tolist()) if not math.isfinite(v)] + [-1]
        raise DataError(f"term {labels[bad[0]]!r} is too large: its information overflows float64")


def fit_logistic(data: Dataset, formula: Formula) -> FitResult:
    """Binary logit by IRLS; stops on |relative deviance change| < 1e-8."""
    a, labels, n_dropped = _build_design(data, formula, with_intercept=formula.intercept)
    n, p = a.shape[0], len(labels)
    x, y = a[:, :p], a[:, p].copy()  # column p holds the working response from here on
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise DataError(f"binomial response must be 0/1, saw values {classes[:5]}")
    if classes.size < 2:
        raise DataError("response has a single class; logistic fit is degenerate")

    expit = _special().expit
    b = np.zeros(p)
    eta = x @ b
    dev = _binomial_deviance(y, eta)
    converged = False
    mu = expit(eta)
    for it in range(1, 26):
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        a[:, p] = eta + (y - mu) / w
        last = b
        [(b, _, _)] = _least_squares(a * np.sqrt(w)[:, None], labels, (formula.response,))
        eta = x @ b
        new_dev = _binomial_deviance(y, eta)
        mu = expit(eta)
        if abs(new_dev - dev) < 1e-8 * (abs(new_dev) + 0.1):
            dev = new_dev
            converged = True
            break
        dev = new_dev
    if _separated(mu, b, last):
        converged = False

    w = np.clip(mu * (1.0 - mu), 1e-10, None)
    with np.errstate(over="ignore"):
        info = x.T @ (x * w[:, None])
    _check_information(info, labels)
    cov = np.linalg.inv(info)
    se = np.sqrt(np.diag(cov))
    stat = _wald(b, se)
    pbar = float(y.mean())
    null_dev = -2.0 * (y.sum() * math.log(pbar) + (n - y.sum()) * math.log(1.0 - pbar))
    return FitResult(
        family="binomial",
        formula=formula,
        terms=labels,
        b=b,
        se=se,
        stat=stat,
        beta=_standardized(b, x, y, labels),
        n_used=n,
        n_dropped=n_dropped,
        df_residual=n - p,
        deviance=dev,
        null_deviance=null_dev,
        aic=dev + 2 * p,
        converged=converged,
        iterations=it,
    )


class _OrderedNll:
    """Negative log-likelihood machinery for the proportional-odds model.

    Every index set that depends only on the category codes is built once
    here, so each Newton step gathers values by index but builds no masks.

    ``value`` keeps the bounds, both CDFs and the cell probabilities it
    computes, keyed by the bytes of ``beta`` and ``zeta``; ``derivs`` at the
    same point (the line search's accepted step) reuses them.  The key is a
    copy of the values, so a caller that mutates its arrays gets no stale state.
    """

    def __init__(self, x: np.ndarray, kcat: np.ndarray, n_levels: int):
        self.x = x
        self.K = n_levels
        self.n, self.p = x.shape
        # kcat holds each row's 0-based category k; its upper cutpoint is k
        # (none for the top level) and its lower cutpoint k - 1 (none for 0)
        self.has_up = kcat < n_levels - 1
        self.has_lw = kcat > 0
        self.i_up = np.minimum(kcat, n_levels - 2)
        self.i_lw = np.maximum(kcat - 1, 0)
        self.rows_up = np.flatnonzero(self.has_up)
        self.rows_lw = np.flatnonzero(self.has_lw)
        self.rows_both = np.flatnonzero(self.has_up & self.has_lw)
        self.up = kcat[self.rows_up]
        self.lw = kcat[self.rows_lw] - 1
        # flat indices into the (K-1) x (K-1) cutpoint block, whose 1-D ``add.at``
        # adds in the same order as a 2-D one: (up, up), (lw, lw), (lw, up), (up, lw)
        m, up_both = n_levels - 1, kcat[self.rows_both]
        self.zz = (self.up * (m + 1), self.lw * (m + 1),
                   (up_both - 1) * m + up_both, up_both * m + up_both - 1)
        self._key, self._cdfs = None, None
        # per cutpoint j: the rows with upper (lower) cutpoint j and x[rows].T
        self.cut_rows = []
        for j in range(n_levels - 1):
            rows_up = np.flatnonzero(self.has_up & (kcat == j))
            rows_lw = np.flatnonzero(self.has_lw & (kcat - 1 == j))
            self.cut_rows.append((rows_up, x[rows_up].T, rows_lw, x[rows_lw].T))

    def _bounds(self, beta: np.ndarray, zeta: np.ndarray):
        eta = self.x @ beta
        hi = np.where(self.has_up, zeta[self.i_up] - eta, np.inf)
        lo = np.where(self.has_lw, zeta[self.i_lw] - eta, -np.inf)
        return eta, lo, hi

    def _cdfs_at(self, beta: np.ndarray, zeta: np.ndarray):
        """(lo, hi, F(hi), F(lo), prob) at (beta, zeta), kept from the last call there."""
        key = (beta.tobytes(), zeta.tobytes())
        if key != self._key:
            _, lo, hi = self._bounds(beta, zeta)
            expit = _special().expit
            fu_, fv_ = expit(hi), expit(lo)
            self._key, self._cdfs = key, (lo, hi, fu_, fv_, np.clip(fu_ - fv_, 1e-300, None))
        return self._cdfs

    def fitted(self, beta: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        """Each row's fitted probability of its own level, at least 1e-300."""
        return self._cdfs_at(beta, zeta)[4]

    def value(self, beta: np.ndarray, zeta: np.ndarray) -> float:
        return float(-np.sum(np.log(self.fitted(beta, zeta))))

    def derivs(self, beta: np.ndarray, zeta: np.ndarray):
        """Gradient and Hessian w.r.t. the natural parameters (beta, zeta)."""
        lo, hi, fu_, fv_, prob = self._cdfs_at(beta, zeta)
        a = np.where(np.isfinite(hi), fu_ * (1 - fu_), 0.0)  # f(upper)
        bdens = np.where(np.isfinite(lo), fv_ * (1 - fv_), 0.0)  # f(lower)
        ap = a * (1 - 2 * fu_)  # f'(upper)
        bp = bdens * (1 - 2 * fv_)  # f'(lower)

        a_b, prob2 = a - bdens, prob**2
        g_eta = a_b / prob
        grad_b = self.x.T @ g_eta
        grad_z = np.zeros(self.K - 1)
        np.add.at(grad_z, self.up, -a.take(self.rows_up) / prob.take(self.rows_up))
        np.add.at(grad_z, self.lw, bdens.take(self.rows_lw) / prob.take(self.rows_lw))

        h_ee = ((bp - ap) * prob + a_b**2) / prob2
        h_eu = (ap * prob - a_b * a) / prob2
        h_el = (-bp * prob + bdens * a_b) / prob2
        h_uu = (a**2 - ap * prob) / prob2
        h_ll = (bp * prob + bdens**2) / prob2
        h_ul = -a * bdens / prob2

        with np.errstate(over="ignore"):  # the fitter refuses an overflowing x'Wx
            hbb = self.x.T @ (self.x * h_ee[:, None])
        hbz = np.zeros((self.p, self.K - 1))
        for j, (rows_up, xt_up, rows_lw, xt_lw) in enumerate(self.cut_rows):
            if rows_up.size:
                hbz[:, j] += xt_up @ h_eu[rows_up]
            if rows_lw.size:
                hbz[:, j] += xt_lw @ h_el[rows_lw]
        hzz = np.zeros((self.K - 1, self.K - 1))
        h_ul = h_ul.take(self.rows_both)
        for at, h in zip(self.zz, (h_uu.take(self.rows_up), h_ll.take(self.rows_lw), h_ul, h_ul)):
            np.add.at(hzz.reshape(-1), at, h)

        grad = np.concatenate([grad_b, grad_z])
        hess = np.block([[hbb, hbz], [hbz.T, hzz]])
        return grad, hess


def _theta_to_zeta(theta_tail: np.ndarray) -> np.ndarray:
    """(z1, log-gaps) -> strictly increasing cutpoints."""
    zeta = np.empty(theta_tail.size)
    zeta[0] = theta_tail[0]
    if theta_tail.size > 1:
        zeta[1:] = theta_tail[0] + np.cumsum(np.exp(theta_tail[1:]))
    return zeta


def fit_ordered_logit(data: Dataset, formula: Formula) -> FitResult:
    """Proportional-odds logit by Newton's method on (beta, z1, log-gaps)."""
    a, labels, n_dropped = _build_design(data, formula, with_intercept=False)
    n, p = a.shape[0], len(labels)
    x, y = a[:, :p], a[:, p]
    if not np.all(y == np.round(y)):
        raise DataError("ordered response must be integer-coded")
    levels = np.unique(y).astype(int)
    if levels.size < 2:
        raise DataError("ordered response needs at least 2 observed levels")
    expected = np.arange(levels.min(), levels.max() + 1)
    missing_levels = sorted(set(expected) - set(levels))
    if missing_levels:
        raise DataError(f"empty response level(s) {missing_levels}")
    K = levels.size
    kcat = np.searchsorted(levels, y.astype(int))
    if n <= p + K - 1:
        raise DataError(f"need more rows ({n}) than parameters ({p + K - 1})")
    # the cutpoints play the intercept's role
    _check_rank_with_intercept(x, labels)

    nll = _OrderedNll(x, kcat, K)
    counts = np.bincount(kcat, minlength=K)
    cumprop = np.cumsum(counts)[:-1] / n
    zeta0 = np.log(cumprop / (1 - cumprop))
    theta = np.concatenate([np.zeros(p), [zeta0[0]], np.log(np.diff(zeta0))])

    def unpack(th):
        return th[:p], _theta_to_zeta(th[p:])

    beta, zeta = unpack(theta)
    value = nll.value(beta, zeta)
    converged = False
    last = beta
    for it in range(1, 101):
        grad_nat, hess_nat = nll.derivs(beta, zeta)
        _check_information(hess_nat[:p, :p], labels)
        # chain rule into (beta, z1, log-gaps) space: every cutpoint moves with
        # z1, and cutpoint i with the gap j <= i
        jac, gaps = np.eye(p + K - 1), np.exp(theta[p + 1 :])
        jac[p:, p] = 1.0
        for j in range(1, K - 1):
            jac[p + j :, p + j] = gaps[j - 1]
        grad = jac.T @ grad_nat
        hess = jac.T @ hess_nat @ jac
        for j in range(1, K - 1):
            hess[p + j, p + j] += np.exp(theta[p + j]) * grad_nat[p + j :].sum()
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        for k in range(40):  # halve the step until -log L does not rise
            cand = theta - 0.5**k * step
            cb, cz = unpack(cand)
            cval = nll.value(cb, cz)
            if np.isfinite(cval) and cval <= value:
                break
        else:
            break
        theta, delta = cand, value - cval
        last, beta, zeta, value = beta, cb, cz, cval
        if delta < 1e-8:
            converged = True
            break
    if _separated(nll.fitted(beta, zeta), beta, last):  # each row's probability of its own level
        converged = False

    _, hess_nat = nll.derivs(beta, zeta)
    _check_information(hess_nat[:p, :p], labels)
    try:
        cov = np.linalg.inv(hess_nat)
        se_all = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        se_all = np.full(p + K - 1, np.nan)
        converged = False
    se, cut_se = se_all[:p], se_all[p:]
    stat = _wald(beta, se)
    dev = 2.0 * value
    null_dev = -2.0 * float(np.sum(counts * np.log(counts / n)))
    cut_names = tuple(f"{levels[i]}|{levels[i + 1]}" for i in range(K - 1))
    return FitResult(
        family="ordered",
        formula=formula,
        terms=labels,
        b=beta,
        se=se,
        stat=stat,
        beta=_standardized(beta, x, y, labels),
        n_used=n,
        n_dropped=n_dropped,
        df_residual=n - p - (K - 1),
        deviance=dev,
        null_deviance=null_dev,
        aic=dev + 2 * (p + K - 1),
        cutpoint_names=cut_names,
        cutpoints=zeta,
        cutpoint_se=cut_se,
        converged=converged,
        iterations=it,
    )


# family name -> the name of its fitter, which ``fit`` looks up in this module
# per call, so that a wrapper set on the module attribute is the one that runs
_FITTERS = {"gaussian": "fit_ols", "identity": "fit_ols", "binomial": "fit_logistic",
            "binomial-logit": "fit_logistic", "logit": "fit_logistic",
            "ordered": "fit_ordered_logit", "ordered-logit": "fit_ordered_logit"}


def check_family(family: object) -> str:
    """``family``, if ``fit`` knows it; otherwise a ``ValidationError`` naming it."""
    if not isinstance(family, str) or family not in _FITTERS:
        raise ValidationError(f"unknown family {shown(family)}; valid: {tuple(_FITTERS)}", "family")
    return family


def fit(data: Dataset, formula: Formula, family: str = "gaussian") -> FitResult:
    """Dispatch to the family-appropriate fitter."""
    if not isinstance(family, str) or family not in _FITTERS:
        raise ParameterError(f"unknown family {family!r}")
    return globals()[_FITTERS[family]](data, formula)


def fit_terms(formula: Formula, family: str) -> tuple[str, ...]:
    """The ``terms`` of ``fit(data, formula, family)``; ordered fits have no
    intercept term.  An unknown family raises ``ValidationError``."""
    ordered = _FITTERS[check_family(family)] == "fit_ordered_logit"
    return _term_labels(formula.terms, formula.intercept and not ordered)


def wald_chisq(fit_result: FitResult, term: str) -> tuple[float, float]:
    """Single-restriction Wald test of ``b = 0``: ((b/SE)^2, 1-df p-value)."""
    stat = fit_result.stat_of(term)
    chisq = stat * stat
    return chisq, float(_special().chdtrc(1, chisq))


@dataclass(frozen=True)
class CollinearityReport:
    terms: tuple[str, ...]
    tolerance: np.ndarray
    vif: np.ndarray
    eigenvalues: np.ndarray  # descending; includes one unit eigenvalue for the intercept
    condition_indices: np.ndarray

    def csv_rows(self) -> tuple[list[str], list[list]]:
        """One row per eigenvalue; predictor columns are blank past the predictors."""
        npred = len(self.terms)
        return ["term", "tolerance", "vif", "eigenvalue", "condition_index"], [
            [
                self.terms[j] if j < npred else "",
                float(self.tolerance[j]) if j < npred else "",
                float(self.vif[j]) if j < npred else "",
                float(self.eigenvalues[j]),
                float(self.condition_indices[j]),
            ]
            for j in range(len(self.eigenvalues))
        ]


def collinearity_diagnostics(data: Dataset, formula: Formula) -> CollinearityReport:
    """Tolerance/VIF per predictor plus eigenvalues and condition indices.

    Tolerance_j is 1 - R^2 of predictor j regressed on the other predictors.
    Eigenvalues come from the predictor correlation matrix, with one unit
    eigenvalue reported for the (orthogonal, centered) intercept.
    """
    if len(formula.terms) < 2:
        raise ParameterError("collinearity diagnostics need at least 2 predictors")
    a, labels, _ = _build_design(data, formula, with_intercept=True)
    x, labels = a[:, 1:-1], labels[1:]  # the predictors, without the intercept column
    n, p = x.shape
    if n <= p + 1:
        raise DataError("not enough rows for collinearity diagnostics")
    _check_rank_with_intercept(x, labels)
    tol = np.empty(p)
    for j in range(p):
        # predictor j on the intercept and the other predictors: [1 | others | x_j]
        aux = a[:, [0, *range(1, j + 1), *range(j + 2, p + 1), j + 1]]
        [(_, rss, _)] = _least_squares(aux, ("(Intercept)", *labels[:j], *labels[j + 1:]),
                                       (labels[j],))
        tol[j] = rss / float(np.sum((x[:, j] - x[:, j].mean()) ** 2))
    corr = np.corrcoef(x, rowvar=False)
    eig = np.linalg.eigvalsh(corr)
    if eig.min() <= 0:
        raise SingularDesignError("singular predictor correlation matrix")
    eigenvalues = np.sort(np.append(eig, 1.0))[::-1] if formula.intercept else np.sort(eig)[::-1]
    cond = np.sqrt(eigenvalues[0] / eigenvalues)
    return CollinearityReport(
        terms=labels,
        tolerance=tol,
        vif=1.0 / tol,
        eigenvalues=eigenvalues,
        condition_indices=cond,
    )


def predict(fit_result: FitResult, data: Dataset) -> np.ndarray:
    """Predictions: linear predictor for gaussian/ordered, probability for binomial.

    Rows with missing inputs predict as missing; a square or interaction
    that overflows raises ``DataError``, as it does in a fit.
    """
    f = fit_result.formula
    ok = np.ones(data.n_rows, dtype=bool)
    for v in dict.fromkeys(v for term in f.terms for v in term.variables()):
        ok &= ~np.isnan(data[v])
    eta = _design(data, f.terms, fit_result.terms) @ fit_result.b
    return np.where(ok, _special().expit(eta) if fit_result.family == "binomial" else eta, np.nan)


def residuals(fit_result: FitResult, data: Dataset) -> np.ndarray:
    """Response residuals ``y - prediction`` (gaussian/binomial)."""
    if fit_result.family == "ordered":
        raise ParameterError("residuals are not defined for the ordered family")
    return data[fit_result.formula.response] - predict(fit_result, data)
