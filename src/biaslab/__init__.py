"""biaslab: a desk-scale simulation lab for regression bias mechanisms.

Generate data from directed-equation structural specifications, fit the
family-appropriate regression model, and quantify how assumption
violations, causal misadjustment, and measurement decisions move the
estimates.
"""

import ctypes
import sys

from .causal import (
    IvEstimate,
    MediationResult,
    RowFilter,
    ScenarioReport,
    compare_adjustments,
    conditional_slope,
    iv_wald,
    mediation,
    moderated_fit,
    subgroup_effect,
)
from .data import (
    BalanceReport,
    Dataset,
    SummaryStats,
    balance_diff,
    listwise_complete,
    pearson,
    quantile_type7,
    ranks_average_ties,
    read_csv,
    spearman,
    summarize,
    write_csv,
)
from .errors import (
    BiaslabError,
    DataError,
    ParameterError,
    SeparationWarning,
    SingularDesignError,
    ValidationError,
    WeakInstrumentError,
)
from .mc import (
    BalanceStep,
    FitStep,
    IvStep,
    McResult,
    McSummary,
    McTemplate,
    RangeSpec,
    SamplingPlan,
    filter_replicates,
    histogram,
    repeated_samples,
    run_mc,
    series_correlation,
    summarize_series,
)
from .measure import (
    AttenuationReport,
    AttenuationVariant,
    RecodeRule,
    TransformRule,
    attenuation_report,
    dichotomize,
    ordinalize,
    transform,
)
from .regress import (
    CollinearityReport,
    FitResult,
    Formula,
    collinearity_diagnostics,
    fit,
    fit_logistic,
    fit_ols,
    fit_ordered_logit,
    interaction,
    main,
    predict,
    residuals,
    square,
    wald_chisq,
)
from .rng import derive_substream, sample_indices
from .scm import (
    CorrTarget,
    EquationSpec,
    ErrorTerm,
    GroupError,
    ScmSpec,
    SourceSpec,
    block_randomize,
    clamped_integer_normal,
    evaluate_scm,
    inject_outlier,
    mvn_exact,
    repeat_pattern,
)

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
