"""biaslab: a desk-scale simulation lab for regression bias mechanisms.

Generate data from directed-equation structural specifications, fit the
family-appropriate regression model, and quantify how assumption
violations, causal misadjustment, and measurement decisions move the
estimates.
"""

import ctypes
import importlib
import sys

# Each public name and the module that defines it.  A name is imported on
# first access (PEP 562), so a command loads only the modules it uses.
_EXPORTS = {
    "causal": "IvEstimate MediationResult RowFilter ScenarioReport compare_adjustments conditional_slope"
              " iv_wald mediation moderated_fit subgroup_effect",
    "data": "BalanceReport Dataset SummaryStats balance_diff listwise_complete pearson quantile_type7"
            " ranks_average_ties read_csv spearman summarize write_csv",
    "errors": "BiaslabError DataError ParameterError SeparationWarning SingularDesignError ValidationError"
              " WeakInstrumentError",
    "mc": "BalanceStep FitStep IvStep McResult McSummary McTemplate RangeSpec SamplingPlan filter_replicates"
          " histogram repeated_samples run_mc series_correlation summarize_series",
    "measure": "AttenuationReport AttenuationVariant RecodeRule TransformRule attenuation_report dichotomize"
               " ordinalize transform",
    "regress": "CollinearityReport FitResult Formula collinearity_diagnostics fit fit_logistic fit_ols"
               " fit_ordered_logit interaction main predict residuals square wald_chisq",
    "rng": "derive_substream sample_indices",
    "scm": "CorrTarget EquationSpec ErrorTerm GroupError ScmSpec SourceSpec block_randomize"
           " clamped_integer_normal evaluate_scm inject_outlier mvn_exact repeat_pattern",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"


def _keep_freed_arrays_in_the_heap() -> None:
    """Fix glibc's malloc thresholds where glibc sets them after freeing a 4 MB
    block, so that the arrays a fit or a replicate frees stay in the heap for
    the next one.  Under the sliding defaults they were often handed back to
    the OS and faulted in again (7000 page faults per 50 IV replicates)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


_keep_freed_arrays_in_the_heap()
