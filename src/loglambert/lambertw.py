"""Real branches of the classical Lambert W function.

Solves w * exp(w) = x for real w.  Two real branches exist: the principal
branch W0 (values >= -1, defined on [-1/e, inf)) and the lower branch W-1
(values <= -1, defined on [-1/e, 0)).  Both share one path.  Within
p = sqrt(2*(e*x + 1)) <= 0.05 of the branch point -1/e, where W' diverges
and Halley stalls, the square-root series in p (-p on W-1) is correctly
rounded (truncation ~p^10) and is the answer.  Elsewhere Halley's method
starts from a seed: that series for x < 1 on W0 and x <= -0.27 on W-1,
log1p(x) for 1 <= x < e^1.2 on W0, else L1 - L2 + L2/L1, L1 = ln|x|, L2 = ln|L1|.
On W-1 at a subnormal x (Halley's e^w is subnormal too and loses bits), and
for an x past the double range given by ln|x|, Newton steps on the log form
w + ln|w| = ln|x|, which has no e^w, take Halley's place (Corless et al. 1996).
"""

from __future__ import annotations

import enum
import math

from .errors import _LOG_DBL_MAX, _LOG_DBL_MIN, ConvergenceError, DomainError, _real

__all__ = ["WBranch", "lambert_w", "w0", "wm1", "BRANCH_POINT"]

#: x-coordinate of the branch point where W0 and W-1 meet (-1/e).
BRANCH_POINT = -math.exp(-1.0)

_MAX_ITER = 50

# e split into two doubles, so e*x + 1 can be formed without losing the
# low bits that carry all the information right at the branch point.
_E_HI = 2.718281828459045
_E_LO = 1.4456468917292502e-16

# Coefficients of W about the branch point in p = sqrt(2*(e*x + 1)).
_BP_COEFFS = (
    -1.0,
    1.0,
    -1.0 / 3.0,
    11.0 / 72.0,
    -43.0 / 540.0,
    769.0 / 17280.0,
    -221.0 / 8505.0,
    680863.0 / 43545600.0,
    -1963.0 / 204120.0,
    226287557.0 / 37623398400.0,
)


class WBranch(enum.Enum):
    """Identifier of a real branch: PRINCIPAL is W0, NEGATIVE is W-1."""

    PRINCIPAL = 0
    NEGATIVE = -1


def _two_prod(a: float, b: float) -> tuple[float, float]:
    # Dekker product: a*b = p + err exactly (53-bit doubles).
    p = a * b
    split = 134217729.0  # 2**27 + 1
    a1 = a * split
    ah = a1 - (a1 - a)
    al = a - ah
    b1 = b * split
    bh = b1 - (b1 - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _ex_plus_one(x: float) -> float:
    # e*x + 1 in double-double; near x = -1/e the naive product wipes out
    # the entire distance to the branch point.
    p, err = _two_prod(_E_HI, x)
    s = p + 1.0  # exact (Sterbenz) when p is near -1
    return s + (err + _E_LO * x)


def _branch_point_series(p2: float, lower: bool) -> float:
    # Expansion in p = sqrt(p2), p2 = 2*(e*x + 1); p -> -p selects the lower branch.
    p = math.sqrt(max(p2, 0.0))
    if lower:
        p = -p
    acc = _BP_COEFFS[-1]
    for c in reversed(_BP_COEFFS[:-1]):
        acc = c + p * acc
    return acc


def _halley(w: float, x: float) -> float:
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        residual = w * ew - x
        wp1 = w + 1.0
        if residual == 0.0 or wp1 == 0.0:
            return w
        denom = ew * wp1 - (w + 2.0) * residual / (2.0 * wp1)
        if denom == 0.0 or math.isinf(denom):
            return w
        dw = residual / denom
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            return w
    return w


def _lambert_w(x: float, lower: bool) -> float:
    # lambert_w past its argument checks.  The knots call this, so that a
    # traced run's lambert_w calls do not depend on the catalog cache.
    if x == 0.0 or x == math.inf:
        return abs(x)  # W0(+-0) = 0 and W0(inf) = inf, the limit

    if (x <= -0.27) if lower else (x < 1.0):
        p2 = 2.0 * _ex_plus_one(x)
        seed = _branch_point_series(p2, lower)
        if p2 < 2.5e-3:  # p < 0.05: the series is the answer
            return seed
    else:
        l1 = math.log(abs(x))
        if not lower and l1 < 1.2:
            seed = math.log1p(x)
        elif lower and l1 < _LOG_DBL_MIN:  # a subnormal x: e^w would be subnormal too
            return _w_exp(l1, True)
        else:
            l2 = math.log(abs(l1))
            seed = l1 - l2 + l2 / l1
    w = _halley(seed, x)
    # No x is known to fail this (none of 6e5 random x on both branches, near -1/e and far).
    if (w > -1.0 + 1e-9) if lower else (w < -1.0 - 1e-9):
        raise ConvergenceError(
            f"{'lower' if lower else 'principal'}-branch iteration left its "
            f"range at x={x!r}"
        )
    return w


def _w_exp(log_x: float, lower: bool = False) -> float:
    # W0(e^L), or W-1(-e^L) when lower (L <= -1): the kernel at +-e^L, unless
    # e^L (W0) or Halley's e^w (W-1) would leave the normal doubles.  There two
    # Newton steps on w + ln|w| = L from the seed L1 - L2 + L2/L1 (within 1e-7
    # past |L| = 708) reach the rounding; w - L, exact here, is taken first.
    if (log_x >= _LOG_DBL_MIN) if lower else (log_x <= _LOG_DBL_MAX):
        return _lambert_w(-math.exp(log_x) if lower else math.exp(log_x), lower)
    l2 = math.log(abs(log_x))
    w = log_x - l2 + l2 / log_x
    for _ in range(2):
        w -= (w - log_x + math.log(abs(w))) / (1.0 + 1.0 / w)
    return w


def lambert_w(x: float, branch: WBranch = WBranch.PRINCIPAL) -> float:
    """Evaluate the requested real branch of W at x.

    Raises DomainError when x is outside the branch domain
    ([-1/e, inf] for PRINCIPAL, with W0(inf) = inf; [-1/e, 0) for
    NEGATIVE).
    """
    if math.isnan(x := _real("x", x)):
        raise DomainError("lambert_w is undefined at NaN")
    if x < BRANCH_POINT:
        raise DomainError(
            f"lambert_w argument {x!r} below the branch point -1/e "
            f"({BRANCH_POINT!r}); no real value exists"
        )
    lower = branch is WBranch.NEGATIVE
    if not lower and branch is not WBranch.PRINCIPAL:
        raise DomainError(f"unknown branch {branch!r}")
    if lower and x >= 0.0:
        raise DomainError(
            f"lower branch of lambert_w requires x < 0, got {x!r}"
        )
    return _lambert_w(x, lower)


def w0(x: float) -> float:
    """Principal branch W0(x)."""
    return lambert_w(x, WBranch.PRINCIPAL)


def wm1(x: float) -> float:
    """Lower branch W-1(x)."""
    return lambert_w(x, WBranch.NEGATIVE)
