#!/usr/bin/env python3
"""Collinearity experiment: exact-correlation designs at five intercorrelation levels.

Regenerates the coefficient and tolerance/VIF tables for predictor
intercorrelations 0, .10, .25, .50, .75 with r(X,Y)=.50 and r(Zi,Y)=.10.
"""

import argparse

import numpy as np

from biaslab.catalog import entry3_corr_matrix
from biaslab.regress import Formula, collinearity_diagnostics, fit_ols
from biaslab.rng import derive_substream
from biaslab.scm import CorrTarget, mvn_exact


def run(rho: float, n: int, seed: int) -> None:
    target = CorrTarget(
        names=("Y", "X", "Z1", "Z2", "Z3", "Z4"),
        corr=np.asarray(entry3_corr_matrix(rho)),
    )
    ds = mvn_exact(target, n, derive_substream(seed, 0))
    formula = Formula.parse("Y ~ X + Z1 + Z2 + Z3 + Z4")
    f = fit_ols(ds, formula)
    diag = collinearity_diagnostics(ds, formula)
    print(f"\n== predictor intercorrelation rho = {rho}")
    print(f"{'term':<12}{'b':>12}{'SE':>12}{'t':>10}{'tolerance':>12}{'VIF':>8}")
    for j, term in enumerate(f.terms):
        tol = vif = ""
        if term != "(Intercept)":
            k = diag.terms.index(term)
            tol, vif = f"{diag.tolerance[k]:.4f}", f"{diag.vif[k]:.3f}"
        print(f"{term:<12}{f.b[j]:>12.4f}{f.se[j]:>12.4f}{f.stat[j]:>10.2f}{tol:>12}{vif:>8}")
    print("eigenvalues:      ", np.round(diag.eigenvalues, 4))
    print("condition indices:", np.round(diag.condition_indices, 4))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=56)
    args = ap.parse_args()
    for rho in (0.0, 0.10, 0.25, 0.50, 0.75):
        run(rho, args.n, args.seed)


if __name__ == "__main__":
    main()
