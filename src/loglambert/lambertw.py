"""Real branches of the classical Lambert W function.

Solves w * exp(w) = x for real w.  Two real branches exist: the principal
branch W0 (values >= -1, defined on [-1/e, inf)) and the lower branch W-1
(values <= -1, defined on [-1/e, 0)).  Evaluation uses Halley's method
seeded from standard series/asymptotic initial guesses, with a dedicated
square-root series near the branch point -1/e where the derivative of W
diverges and Halley stalls.
"""

from __future__ import annotations

import enum
import math

from .errors import ConvergenceError, DomainError

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


def _branch_point_series(x: float, lower: bool) -> float:
    # Expansion in p = sqrt(2*(e*x + 1)); p -> -p selects the lower branch.
    arg = 2.0 * _ex_plus_one(x)
    p = math.sqrt(max(arg, 0.0))
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


def lambert_w(x: float, branch: WBranch = WBranch.PRINCIPAL) -> float:
    """Evaluate the requested real branch of W at x.

    Raises DomainError when x is outside the branch domain
    ([-1/e, inf] for PRINCIPAL, with W0(inf) = inf; [-1/e, 0) for
    NEGATIVE).
    """
    if math.isnan(x):
        raise DomainError("lambert_w is undefined at NaN")
    if x < BRANCH_POINT:
        raise DomainError(
            f"lambert_w argument {x!r} below the branch point -1/e "
            f"({BRANCH_POINT!r}); no real value exists"
        )

    # Distance measure to the branch point: p^2 = 2*(e*x + 1).  The series
    # alone is correctly rounded for p <= ~0.05 (truncation ~p^10), and
    # Halley's correction is noise-dominated there, so skip it.
    near_branch_point = 2.0 * _ex_plus_one(x)

    if branch is WBranch.PRINCIPAL:
        if x == 0.0:
            return 0.0
        if x == math.inf:
            return math.inf  # the limit of W0
        if near_branch_point < 2.5e-3:
            return _branch_point_series(x, lower=False)
        if x < 1.0:
            seed = _branch_point_series(x, lower=False)
        else:
            log_x = math.log(x)
            if log_x < 1.2:
                seed = math.log1p(x)
            else:
                log_log_x = math.log(log_x)
                seed = log_x - log_log_x + log_log_x / log_x
        w = _halley(seed, x)
        if w < -1.0 - 1e-9:
            raise ConvergenceError(
                f"principal-branch iteration left its range at x={x!r}"
            )
        return w

    if branch is WBranch.NEGATIVE:
        if x >= 0.0:
            raise DomainError(
                f"lower branch of lambert_w requires x < 0, got {x!r}"
            )
        if near_branch_point < 2.5e-3:
            return _branch_point_series(x, lower=True)
        if x <= -0.27:
            seed = _branch_point_series(x, lower=True)
        else:
            log_neg_x = math.log(-x)
            log_log = math.log(-log_neg_x)
            seed = log_neg_x - log_log + log_log / log_neg_x
        w = _halley(seed, x)
        if w > -1.0 + 1e-9:
            raise ConvergenceError(
                f"lower-branch iteration left its range at x={x!r}"
            )
        return w

    raise DomainError(f"unknown branch {branch!r}")


def w0(x: float) -> float:
    """Principal branch W0(x)."""
    return lambert_w(x, WBranch.PRINCIPAL)


def wm1(x: float) -> float:
    """Lower branch W-1(x)."""
    return lambert_w(x, WBranch.NEGATIVE)
