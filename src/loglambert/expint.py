"""Exponential integral Ei(x) (Cauchy principal value), in plain float64.

Five regimes, after Cody & Thacher, "Rational Chebyshev approximations for
the exponential integral Ei(x)" (Math. Comp. 23, 1969) and the Numerical
Recipes ``ei`` routine:

* x <= -2.5: modified-Lentz continued fraction for E1(-x), Ei(x) = -E1(-x);
* -2.5 < x < 0: the power series Ei(x) = gamma + ln|x| + sum x^n/(n*n!),
  whose alternating terms cancel by at most about two digits there;
* |x - x0| < 0.1 about Ei's positive root x0: a Taylor series in
  u = x - x0, since gamma + ln x cancels against the power series there;
* 0 < x <= 40 elsewhere: the same power series, with all terms positive;
* x > 40: the asymptotic series e^x/x * sum k!/x^k, cut at its smallest
  term.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, RangeError

__all__ = ["ei", "EULER_GAMMA"]

#: Euler-Mascheroni constant to 20 digits.
EULER_GAMMA = 0.57721566490153286061

_LOG_DBL_MAX = 709.782712893384
_CF_CUTOFF = -2.5
_SERIES_POS_CUTOFF = 40.0

# Ei's positive root as an unevaluated sum hi + lo; a single double puts
# an absolute error of ~1e-17 into u = x - x0, which is a large relative
# error in Ei(x) ~ Ei'(x0) * u next to the root.
_ROOT_HI = 0.3725074107813666
_ROOT_LO = 1.3140183414386028e-17
_ROOT_WINDOW = 0.1


def _root_taylor_coefficients() -> tuple[float, ...]:
    """Coefficients c_1, c_2, ... of Ei(x0 + u) = sum c_k u^k.

    Ei' = g with g(x) = e^x/x, and x*g' = (x - 1)*g turns into the
    recurrence (k+1)*x0*g_{k+1} = (x0 - 1 - k)*g_k + g_{k-1} for the
    Taylor coefficients g_k of g; then c_k = g_{k-1}/k.  The list stops
    once c_k * window^(k-1) is negligible against c_1.
    """
    x0 = _ROOT_HI
    prev, g = 0.0, math.exp(x0) / x0
    coeffs = [g]
    for k in range(1, 100):
        prev, g = g, ((x0 - k) * g + prev) / (k * x0)
        if abs(g / (k + 1)) * _ROOT_WINDOW**k < 1e-18 * coeffs[0]:
            break
        coeffs.append(g / (k + 1))
    return tuple(coeffs)


_ROOT_COEFFS_DESC = _root_taylor_coefficients()[::-1]


def _root_taylor(x: float) -> float:
    """Ei(x) for |x - x0| < 0.1, by Horner in u = (x - x0_hi) - x0_lo."""
    u = (x - _ROOT_HI) - _ROOT_LO
    total = 0.0
    for c in _ROOT_COEFFS_DESC:
        total = total * u + c
    return total * u


def _series(x: float) -> float:
    """Power series gamma + ln|x| + sum x^n/(n*n!) for -2.5 < x <= 40."""
    total = EULER_GAMMA + math.log(abs(x))
    term = 1.0
    for n in range(1, 200):
        term *= x / n
        contrib = term / n
        total += contrib
        if abs(contrib) <= 1e-17 * abs(total):
            return total
    raise ConvergenceError(f"Ei series did not converge at x={x!r}")  # pragma: no cover


def _continued_fraction(x: float) -> float:
    """Ei(x) = -E1(-x) for x < 0, E1 by modified-Lentz continued fraction."""
    t = -x
    scale = math.exp(-t) if t < 745.0 else 0.0
    if scale == 0.0:
        return -0.0
    tiny = 1e-300
    b = t + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        if c == 0.0:
            c = tiny
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return -h * scale
    raise ConvergenceError(f"Ei continued fraction stalled at x={x!r}")


def _asymptotic(x: float) -> float:
    """Large-x expansion e^x/x * sum k!/x^k, cut at the smallest term."""
    exponent = x - math.log(x)
    if not exponent <= _LOG_DBL_MAX:
        raise RangeError(f"Ei({x!r}) exceeds the double range")
    total = 1.0
    term = 1.0
    for k in range(1, 200):
        nxt = term * k / x
        if nxt >= term:
            break
        term = nxt
        total += term
        if term < 1e-17 * total:
            break
    result = math.exp(exponent) * total
    if math.isinf(result):
        raise RangeError(f"Ei({x!r}) exceeds the double range")
    return result


def ei(x: float) -> float:
    """Principal-value exponential integral Ei(x).

    Raises DomainError at the logarithmic singularity x = 0 and RangeError
    (an OverflowError) once the result exceeds the double range (x > ~716).
    """
    if math.isnan(x):
        raise DomainError("Ei is undefined at NaN")
    if x == 0.0:
        raise DomainError("Ei has a logarithmic singularity at 0")
    if x <= _CF_CUTOFF:
        return _continued_fraction(x)
    if abs(x - _ROOT_HI) < _ROOT_WINDOW:
        return _root_taylor(x)
    if x <= _SERIES_POS_CUTOFF:
        return _series(x)
    return _asymptotic(x)
