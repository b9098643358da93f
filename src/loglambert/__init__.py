"""loglambert: multi-branch inversion of (a*y*ln(b*y) + y + c) * e^y.

The package provides the forward map's branch catalog and seam points, a
guaranteed-bracketed inverse evaluator, the inverse's derivative,
antiderivative, series expansion about x = 0 and large-x approximation,
the classical Lambert W and exponential-integral kernels they rest on,
q-deformed logarithms/exponentials with the three-parameter entropy, and
the maximum-entropy distributions expressed through the inverse map.
"""

from .core import (
    BranchInfo,
    EvalResult,
    Interval,
    Monotone,
    Params,
    antiderivative,
    asymptotic,
    branches,
    derivative,
    evaluate,
    forward,
    forward_slope,
    singular_points,
    singular_residual,
    taylor_coefficients,
    taylor_first_order,
)
from .errors import (
    ConvergenceError,
    DomainError,
    IntegrationError,
    LogLambertError,
    NoSolutionError,
    PrecisionError,
    RangeError,
    SingularityError,
    UnsupportedCaseError,
)
from .expint import EULER_GAMMA, ei
from .lambertw import BRANCH_POINT, WBranch, lambert_w, w0, wm1
from .maxent import (
    DiscreteDistribution,
    EnsembleSpec,
    continuous_pdf,
    continuous_weight,
    distribution,
    level_argument,
    probability,
    pseudo_beta,
    solve_alpha,
    stationarity_residuals,
    suggest_branch,
)
from .qcalculus import EntropyParams, entropy_qqr, exp_q, ln_q, ln_qq, ln_qqr

__version__ = "0.1.0"

__all__ = [
    "Params", "Interval", "Monotone", "BranchInfo", "EvalResult",
    "forward", "forward_slope", "singular_residual", "singular_points",
    "branches", "evaluate", "derivative", "antiderivative",
    "taylor_first_order", "taylor_coefficients", "asymptotic",
    "WBranch", "lambert_w", "w0", "wm1", "BRANCH_POINT",
    "ei", "EULER_GAMMA",
    "EntropyParams", "ln_q", "exp_q", "ln_qq", "ln_qqr", "entropy_qqr",
    "EnsembleSpec", "DiscreteDistribution", "level_argument", "probability",
    "distribution", "suggest_branch", "solve_alpha", "pseudo_beta",
    "stationarity_residuals", "continuous_weight", "continuous_pdf",
    "LogLambertError", "DomainError", "SingularityError", "ConvergenceError",
    "NoSolutionError", "UnsupportedCaseError",
    "PrecisionError", "IntegrationError", "RangeError",
    "__version__",
]
