"""loglambert: multi-branch inversion of (a*y*ln(b*y) + y + c) * e^y.

The package provides the forward map's branch catalog and seam points, a
guaranteed-bracketed inverse evaluator, the inverse's derivative,
antiderivative, series expansion about x = 0 and large-x approximation,
the classical Lambert W and exponential-integral kernels they rest on,
q-deformed logarithms/exponentials with the three-parameter entropy, and
the maximum-entropy distributions expressed through the inverse map.

`import loglambert` runs `core`, `errors`, `expint` and `lambertw` and takes
the names in their `__all__`.  `maxent` and `qcalculus` are in sys.modules at
once but run on first use, which binds their names here (a PEP 562
`__getattr__` takes the first read of one), so the `eval`, `table` and
`branches` commands never load them.  `tests/_import_tree.py` lists the
modules `import loglambert` or a CLI command runs, and the heavy ones it loads.
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

from .core import *  # noqa: E402,F403
from .errors import *  # noqa: E402,F403
from .expint import *  # noqa: E402,F403
from .lambertw import *  # noqa: E402,F403

__version__ = "0.1.0"

# qcalculus.__all__ + maxent.__all__, written out so that listing them runs neither.
_FIRST_USE_NAMES = [
    "EntropyParams", "ln_q", "exp_q", "ln_qq", "ln_qqr", "entropy_qqr",
    "EnsembleSpec", "DiscreteDistribution", "level_argument", "probability",
    "distribution", "suggest_branch", "solve_alpha", "pseudo_beta",
    "stationarity_residuals", "continuous_weight", "continuous_pdf",
]
__all__ = [*core.__all__, *errors.__all__, *expint.__all__,  # noqa: F405
           *lambertw.__all__, *_FIRST_USE_NAMES, "__version__"]  # noqa: F405


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Reading maxent.__all__ runs maxent, and qcalculus with it, binding all their names.
    return getattr(maxent if name in maxent.__all__ else qcalculus, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
