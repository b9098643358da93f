"""loglambert: multi-branch inversion of (a*y*ln(b*y) + y + c) * e^y.

The package provides the forward map's branch catalog and seam points, a
guaranteed-bracketed inverse evaluator, the inverse's derivative,
antiderivative, series expansion about x = 0 and large-x approximation,
the classical Lambert W and exponential-integral kernels they rest on,
q-deformed logarithms/exponentials with the three-parameter entropy, and
the maximum-entropy distributions expressed through the inverse map.

`import loglambert` runs `core`, `errors`, `expint` and `lambertw`.  `maxent`
and `qcalculus` are in sys.modules at once but run on first use, which binds
their names here (a PEP 562 `__getattr__` takes the first read of one), so
the `eval`, `table` and `branches` commands never load them.
"""

import sys as _sys
from _thread import RLock as _RLock

_LOCK, _RUNNING = _RLock(), set()


class _OnFirstUse(type(_sys)):
    """A submodule run in place on its first attribute read, binding its __all__ here."""

    def __getattribute__(self, attr):
        with _LOCK:  # other threads wait out the run; its own reads take the plain path
            if type(self) is _OnFirstUse and id(self) not in _RUNNING:
                _RUNNING.add(id(self))
                self.__loader__.exec_module(self)
                globals().update((n, getattr(self, n)) for n in self.__all__)
                self.__class__ = type(_sys)
            return type(_sys).__getattribute__(self, attr)


def _on_first_use(name):
    name = f"{__name__}.{name}"
    # What importlib.util.find_spec does, without importing it (about 2 ms).
    spec = next(filter(None, (f.find_spec(name, __path__) for f in _sys.meta_path)))
    module = _sys.modules[name] = _OnFirstUse(name)
    module.__spec__, module.__loader__, module.__file__ = spec, spec.loader, spec.origin
    module.__package__ = __name__
    return module


# Ahead of core in sys.modules, so a tool that walks it in order rebinding functions
# (perfbench/spans.py's Recorder.install) runs these first, before any rebinding.
qcalculus = _on_first_use("qcalculus")
maxent = _on_first_use("maxent")

from .core import (  # noqa: E402
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
from .errors import (  # noqa: E402
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
from .expint import EULER_GAMMA, ei  # noqa: E402
from .lambertw import BRANCH_POINT, WBranch, lambert_w, w0, wm1  # noqa: E402

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


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Reading maxent.__all__ runs maxent, and qcalculus with it, binding all their names.
    return getattr(maxent if name in maxent.__all__ else qcalculus, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
