"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the package's own computational paths:
moments by direct formula, least squares by the normal equations,
population regression slopes by symbolic covariance propagation over a
linear-Gaussian spec, and logistic/ordered likelihoods minimized by a
general-purpose optimizer.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit


def moments_oracle(x):
    """Direct-formula mean/sd(skew n-1)/skew/excess kurtosis (1/n central moments)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    sd = math.sqrt(m2 * n / (n - 1)) if n > 1 else 0.0
    skew = m3 / m2**1.5 if m2 > 0 else float("nan")
    kurt = m4 / m2**2 - 3.0 if m2 > 0 else float("nan")
    return mean, sd, skew, kurt


def quantile7_oracle(x, p):
    xs = sorted(x)
    h = (len(xs) - 1) * p + 1
    lo = math.floor(h)
    frac = h - lo
    if lo >= len(xs):
        return xs[-1]
    return xs[lo - 1] + frac * (xs[lo] - xs[lo - 1])


def normal_equations_ols(x, y):
    """(X'X)^-1 X'y with SEs from sigma^2 (X'X)^-1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xtx = x.T @ x
    b = np.linalg.solve(xtx, x.T @ y)
    resid = y - x @ b
    df = x.shape[0] - x.shape[1]
    sigma2 = float(resid @ resid) / df
    se = np.sqrt(np.diag(np.linalg.inv(xtx)) * sigma2)
    return b, se


class CovOracle:
    """Symbolic covariance propagation for linear-Gaussian directed equations.

    Build with independent sources, then add equations target = intercept +
    sum(coef * parent) + noise_coef * Normal(mean, sd).  Yields exact
    population covariances and population OLS slopes.
    """

    def __init__(self):
        self.names: list[str] = []
        self.cov = np.zeros((0, 0))

    def _grow(self, name: str, variance: float, cross: dict[str, float]):
        k = len(self.names)
        new = np.zeros((k + 1, k + 1))
        new[:k, :k] = self.cov
        for other, c in cross.items():
            j = self.names.index(other)
            new[k, j] = new[j, k] = c
        new[k, k] = variance
        self.names.append(name)
        self.cov = new

    def add_source(self, name: str, sd: float):
        self._grow(name, sd * sd, {})

    def add_equation(self, target: str, terms: dict[str, float], noise_coef: float = 0.0,
                     noise_sd: float = 0.0):
        cross = {}
        for other in self.names:
            cross[other] = sum(
                c * self.cov[self.names.index(p), self.names.index(other)]
                for p, c in terms.items()
            )
        var = 0.0
        for p1, c1 in terms.items():
            for p2, c2 in terms.items():
                var += c1 * c2 * self.cov[self.names.index(p1), self.names.index(p2)]
        var += (noise_coef * noise_sd) ** 2
        self._grow(target, var, cross)

    def population_slopes(self, y: str, xs: list[str]) -> np.ndarray:
        """Population OLS coefficients of y on xs (with intercept)."""
        idx = [self.names.index(v) for v in xs]
        yj = self.names.index(y)
        sxx = self.cov[np.ix_(idx, idx)]
        sxy = self.cov[idx, yj]
        return np.linalg.solve(sxx, sxy)


def logistic_nll(beta, x, y):
    eta = x @ beta
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta))


def brute_force_logistic(x, y):
    """Minimize the exact NLL with a general optimizer (independent path)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    res = minimize(logistic_nll, np.zeros(x.shape[1]), args=(x, y), method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 500})
    return res.x


def ordered_nll(params, x, kcat, n_levels):
    p = x.shape[1]
    beta = params[:p]
    zeta = np.sort(params[p:])
    eta = x @ beta
    hi = np.where(kcat < n_levels - 1, zeta[np.minimum(kcat, n_levels - 2)] - eta, np.inf)
    lo = np.where(kcat > 0, zeta[np.maximum(kcat - 1, 0)] - eta, -np.inf)
    prob = np.clip(expit(hi) - expit(lo), 1e-300, None)
    return float(-np.sum(np.log(prob)))


def brute_force_ordered(x, y):
    """Minimize the exact proportional-odds NLL with Nelder-Mead polish."""
    x = np.asarray(x, dtype=float)
    levels = np.unique(y)
    kcat = np.searchsorted(levels, y)
    K = len(levels)
    counts = np.bincount(kcat, minlength=K)
    cum = np.cumsum(counts)[:-1] / len(y)
    z0 = np.log(cum / (1 - cum))
    start = np.concatenate([np.zeros(x.shape[1]), z0])
    res = minimize(ordered_nll, start, args=(x, kcat, K), method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 2000})
    res = minimize(ordered_nll, res.x, args=(x, kcat, K), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
    p = x.shape[1]
    return res.x[:p], np.sort(res.x[p:])


# -- reference kernels ---------------------------------------------------------
# Loop implementations that the vectorized kernels in the package must match
# bit for bit.  They are kept exactly as they were written before those
# kernels were vectorized.


def ranks_average_ties_oracle(x):
    """1-based ranks over a float array; ties get their mean rank."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size, dtype=float)
    ranks[order] = np.arange(1, x.size + 1, dtype=float)
    # average rank within each tie group
    xs = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and xs[j + 1] == xs[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    return ranks


class OrderedNllOracle:
    """The proportional-odds NLL, its gradient and Hessian, one mask per pass.

    Every call recomputes the bounds and both CDFs from ``beta`` and ``zeta``;
    nothing is kept between calls."""

    def __init__(self, x, kcat, n_levels):
        self.x = x
        self.k = kcat  # 0-based category index per row
        self.K = n_levels
        self.n, self.p = x.shape

    def _bounds(self, beta, zeta):
        eta = self.x @ beta
        hi = np.where(self.k < self.K - 1, zeta[np.minimum(self.k, self.K - 2)] - eta, np.inf)
        lo = np.where(self.k > 0, zeta[np.maximum(self.k - 1, 0)] - eta, -np.inf)
        return eta, lo, hi

    def fitted(self, beta, zeta):
        """Each row's fitted probability of its own level, at least 1e-300."""
        _, lo, hi = self._bounds(beta, zeta)
        return np.clip(expit(hi) - expit(lo), 1e-300, None)

    def value(self, beta, zeta):
        _, lo, hi = self._bounds(beta, zeta)
        prob = np.clip(expit(hi) - expit(lo), 1e-300, None)
        return float(-np.sum(np.log(prob)))

    def derivs(self, beta, zeta):
        """Gradient and Hessian w.r.t. the natural parameters (beta, zeta)."""
        _, lo, hi = self._bounds(beta, zeta)
        fu_ = expit(hi)
        fv_ = expit(lo)
        prob = np.clip(fu_ - fv_, 1e-300, None)
        a = np.where(np.isfinite(hi), fu_ * (1 - fu_), 0.0)  # f(upper)
        bdens = np.where(np.isfinite(lo), fv_ * (1 - fv_), 0.0)  # f(lower)
        ap = a * (1 - 2 * fu_)  # f'(upper)
        bp = bdens * (1 - 2 * fv_)  # f'(lower)

        g_eta = (a - bdens) / prob
        grad_b = self.x.T @ g_eta
        grad_z = np.zeros(self.K - 1)
        up = self.k  # index of upper cutpoint (valid when k < K-1)
        lw = self.k - 1  # index of lower cutpoint (valid when k > 0)
        has_up = self.k < self.K - 1
        has_lw = self.k > 0
        np.add.at(grad_z, up[has_up], (-a / prob)[has_up])
        np.add.at(grad_z, lw[has_lw], (bdens / prob)[has_lw])

        h_ee = ((bp - ap) * prob + (a - bdens) ** 2) / prob**2
        h_eu = (ap * prob - (a - bdens) * a) / prob**2
        h_el = (-bp * prob + bdens * (a - bdens)) / prob**2
        h_uu = (a**2 - ap * prob) / prob**2
        h_ll = (bp * prob + bdens**2) / prob**2
        h_ul = -a * bdens / prob**2

        hbb = self.x.T @ (self.x * h_ee[:, None])
        hbz = np.zeros((self.p, self.K - 1))
        for j in range(self.K - 1):
            m_up = has_up & (up == j)
            m_lw = has_lw & (lw == j)
            if m_up.any():
                hbz[:, j] += self.x[m_up].T @ h_eu[m_up]
            if m_lw.any():
                hbz[:, j] += self.x[m_lw].T @ h_el[m_lw]
        hzz = np.zeros((self.K - 1, self.K - 1))
        np.add.at(hzz, (up[has_up], up[has_up]), h_uu[has_up])
        np.add.at(hzz, (lw[has_lw], lw[has_lw]), h_ll[has_lw])
        both = has_up & has_lw
        np.add.at(hzz, (lw[both], up[both]), h_ul[both])
        np.add.at(hzz, (up[both], lw[both]), h_ul[both])

        grad = np.concatenate([grad_b, grad_z])
        hess = np.block([[hbb, hbz], [hbz.T, hzz]])
        return grad, hess


# Gaussian least squares as it was before the design was factored once per
# call: one QR per fit, and ``iv_wald`` as two separate fits.


def _build_design_oracle(data, formula, with_intercept):
    """Listwise-delete over formula variables, then build (y, X, labels)."""
    from biaslab.data import listwise_complete
    from biaslab.errors import DataError

    complete, n_dropped = listwise_complete(data, formula.variables())
    if complete.n_rows == 0:
        raise DataError("no complete rows after listwise deletion")
    y = complete[formula.response]
    cols = []
    labels = []
    if with_intercept:
        cols.append(np.ones(complete.n_rows))
        labels.append("(Intercept)")
    for term in formula.terms:
        cols.append(term.build(complete))
        labels.append(term.label)
    x = np.column_stack(cols) if cols else np.empty((complete.n_rows, 0))
    return y, x, labels, n_dropped


def _check_rank_oracle(x, labels, r):
    """Raise ``SingularDesignError`` if ``x`` (with QR factor ``r``) lacks full rank."""
    import scipy.linalg

    from biaslab.errors import SingularDesignError

    diag = np.abs(np.diag(r))
    if diag.size and diag.min() < 1e-10 * diag.max():
        # pivoted pass to name the first dependent column
        _, rp, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
        dp = np.abs(np.diag(rp))
        bad = np.nonzero(dp < 1e-10 * dp.max())[0]
        term = labels[piv[bad[0]]] if bad.size else labels[-1]
        raise SingularDesignError(f"design matrix is singular at term {term!r}", term=term)


def _qr_solve_oracle(x, y, labels):
    """Least squares via QR; returns (b, Rinv).  Raises on rank deficiency."""
    q, r = np.linalg.qr(x)
    _check_rank_oracle(x, labels, r)
    rinv = np.linalg.inv(r)
    b = rinv @ (q.T @ y)
    return b, rinv


def _standardized_oracle(b, x, y, labels):
    sy = float(np.std(y, ddof=1))
    beta = np.zeros_like(b)
    if sy == 0 or not labels:
        return beta
    sx = np.std(x, axis=0, ddof=1)
    for j, lab in enumerate(labels):
        if lab != "(Intercept)":
            beta[j] = b[j] * sx[j] / sy
    return beta


def fit_ols_oracle(data, formula, standardized=True):
    """Gaussian least squares with classical (t-based) inference."""
    from scipy.special import stdtr

    from biaslab.errors import DataError
    from biaslab.regress import FitResult

    y, x, labels, n_dropped = _build_design_oracle(data, formula, with_intercept=formula.intercept)
    n, p = x.shape
    if n <= p:
        raise DataError(f"need more rows ({n}) than parameters ({p})")
    b, rinv = _qr_solve_oracle(x, y, labels)
    fitted = x @ b
    resid = y - fitted
    rss = float(resid @ resid)
    df = n - p
    sigma2 = rss / df
    se = np.sqrt(np.sum(rinv**2, axis=1) * sigma2)
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = np.where(se > 0, b / se, np.nan)  # SE 0: the statistic is undefined
    pvals = 2.0 * stdtr(df, -np.abs(stat))
    if formula.intercept:
        tss = float(np.sum((y - y.mean()) ** 2))
    else:
        tss = float(y @ y)
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    adj = 1.0 - (1.0 - r2) * (n - (1 if formula.intercept else 0)) / df if df > 0 else float("nan")
    # ML-convention AIC; comparable only within the gaussian family
    aic = n * (math.log(2 * math.pi) + math.log(max(rss, 1e-300) / n) + 1) + 2 * (p + 1)
    result = FitResult(
        family="gaussian",
        formula=formula,
        terms=tuple(labels),
        b=b,
        se=se,
        stat=stat,
        beta=_standardized_oracle(b, x, y, labels) if standardized else np.zeros_like(b),
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
    # FitResult.p is computed on first read; the oracle's own p goes where
    # that read finds it, so a comparison reads this one, not the fitter's
    object.__setattr__(result, "p", pvals)
    return result


def iv_wald_oracle(data, y, x, instrument, allow_weak=False):
    """Two bivariate fits (y~in, x~in) and their slope ratio.

    The ratio is withheld (error) when |b_xin| <= 10 * SE(b_xin) unless
    ``allow_weak`` preserves the divide-then-filter workflow.
    """
    from biaslab.causal import IvEstimate
    from biaslab.errors import DataError, WeakInstrumentError
    from biaslab.regress import Formula, main

    n_ok = int(np.sum(~(np.isnan(data[y]) | np.isnan(data[x]) | np.isnan(data[instrument]))))
    if n_ok < 10:
        raise DataError(f"instrumental-variable analysis needs n >= 10, have {n_ok}")
    fy = fit_ols_oracle(data, Formula(y, (main(instrument),)), standardized=False)
    fx = fit_ols_oracle(data, Formula(x, (main(instrument),)), standardized=False)
    b_yin, se_yin = fy.coef(instrument), fy.se_of(instrument)
    b_xin, se_xin = fx.coef(instrument), fx.se_of(instrument)
    weak = abs(b_xin) <= 10.0 * se_xin
    if weak and not allow_weak:
        raise WeakInstrumentError(
            f"first-stage slope {b_xin:.4g} within 10 SE ({se_xin:.4g}) of zero; ratio withheld"
        )
    ratio = b_yin / b_xin if b_xin != 0 else math.inf
    return IvEstimate(b_yin, se_yin, b_xin, se_xin, ratio, weak=weak)


def _exact(v):
    """``v`` exactly: an int where it is integral (ints are faster), else a Fraction."""
    return int(v) if v == int(v) else Fraction(v)


def exact_ols(x, y, intercept=True):
    """Least squares in exact rational arithmetic, on the stdlib alone.

    ``x`` is the design as a list of rows and ``y`` the response; every
    entry (an int or a float) is taken exactly.  Solves the normal
    equations by Gauss-Jordan elimination over ``fractions.Fraction``.
    Returns ``(b, rss, se, r2)``: b, RSS and R^2 exact (R^2 is 1 when the
    total sum of squares is 0), and each SE the float square root of its
    exact variance.  Returns None when the design lacks full column rank.
    ``intercept`` says whether the total sum of squares is taken about the
    mean (True) or about 0.
    """
    xs = [[_exact(v) for v in row] for row in x]
    ys = [_exact(v) for v in y]
    n, p = len(xs), len(xs[0])
    # [X'X | I | X'y], eliminated to [I | (X'X)^-1 | b]
    aug = [[sum(r[i] * r[j] for r in xs) for j in range(p)] + [int(i == j) for j in range(p)]
           + [sum(r[i] * v for r, v in zip(xs, ys))] for i in range(p)]
    for c in range(p):
        pivot = next((r for r in range(c, p) if aug[r][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        lead = Fraction(aug[c][c])
        aug[c] = [v / lead for v in aug[c]]
        for r in range(p):
            if r != c and aug[r][c] != 0:
                aug[r] = [a - aug[r][c] * b for a, b in zip(aug[r], aug[c])]
    b = [row[-1] for row in aug]
    rss = sum((v - sum(bj * xj for bj, xj in zip(b, r))) ** 2 for r, v in zip(xs, ys))
    sigma2 = rss / (n - p)
    se = [math.sqrt(sigma2 * aug[j][p + j]) for j in range(p)]
    centre = Fraction(sum(ys), n) if intercept else 0
    tss = sum((v - centre) ** 2 for v in ys)
    return b, rss, se, (1 - rss / tss if tss else Fraction(1))
