"""q-calculus numerics.

Exact q-primitives, black-box higher-order q-differentiation, q-special
functions (q-gamma, q-digamma, polylogarithm and gamma-based composites),
finitely supported measures with q-Laplace transforms, and finite-order
certification of q-complete-monotonicity, q-log-complete-monotonicity and
q-Bernstein sign patterns.
"""

__version__ = "0.1.0"

from .qcore import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    ExpKind,
    InputError,
    QParam,
    Regime,
    eq_power,
    log_q,
    q_binomial,
    q_exp,
    q_factorial,
    q_number,
    q_pochhammer,
    qpoch_inf,
)
from .qdiff import (
    MAX_TABLE_ORDER,
    QDiffTable,
    RealFunction,
    q_bell,
    q_derive,
    q_derive_n,
    q_faa_di_bruno,
    q_faa_di_bruno_gap,
)
from .qmeasure import (
    DiscreteMeasure,
    JacksonIntegralResult,
    KernelKind,
    SemigroupReport,
    jackson_integral,
    jackson_integral_info,
    measure_from_text,
    measure_to_text,
    q_convolve,
    q_laplace,
    semigroup_check,
    semigroup_transform,
)
from .qspecial import (
    GammaParams,
    RatioParams,
    f_abq,
    g_ab,
    g_ratio,
    h_aux,
    log_f_abq,
    log_q_gamma,
    polylog,
    q_gamma,
    q_gamma_jackson,
    q_gamma_jackson_info,
    q_psi,
    q_psi_k,
)
from .cert import (
    BernsteinIffReport,
    CertProperty,
    CertReport,
    CertSpec,
    ClosureReport,
    Counterexample,
    Grid,
    Verdict,
    bernstein_iff_check,
    certify,
    closure_checks,
    difference_check,
    report_to_csv,
    report_to_json,
    report_to_tree,
    thm31_harness,
    thm32_harness,
)

__all__ = [
    "__version__",
    # qcore
    "DomainError", "ConvergenceError", "EvaluationError", "InputError",
    "Regime", "QParam", "ExpKind",
    "q_number", "q_pochhammer", "q_factorial", "q_binomial", "q_exp",
    "eq_power", "log_q", "qpoch_inf",
    # qdiff
    "RealFunction", "MAX_TABLE_ORDER", "QDiffTable", "q_derive", "q_derive_n",
    "q_bell", "q_faa_di_bruno", "q_faa_di_bruno_gap",
    # qmeasure
    "DiscreteMeasure", "KernelKind", "JacksonIntegralResult",
    "jackson_integral", "jackson_integral_info", "q_laplace", "q_convolve",
    "semigroup_transform", "semigroup_check", "SemigroupReport",
    "measure_to_text", "measure_from_text",
    # qspecial
    "GammaParams", "RatioParams", "log_q_gamma", "q_gamma",
    "q_gamma_jackson", "q_gamma_jackson_info", "q_psi", "q_psi_k", "polylog",
    "h_aux", "log_f_abq", "f_abq", "g_ab", "g_ratio",
    # cert
    "CertProperty", "Verdict", "Grid", "CertSpec", "Counterexample",
    "CertReport", "certify", "BernsteinIffReport", "bernstein_iff_check",
    "difference_check", "ClosureReport", "closure_checks", "thm31_harness",
    "thm32_harness", "report_to_tree", "report_to_json", "report_to_csv",
]
