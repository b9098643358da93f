"""Deformed logarithms/exponentials and the three-parameter entropy.

The one-parameter deformation ln_q x = (x^(1-q) - 1)/(1-q) recovers ln x as
q -> 1; its inverse exp_q x = [1 + (1-q) x]^(1/(1-q)) recovers exp.  Chaining
the same deformation twice and three times gives the two- and
three-parameter logarithms

    ln_{q,q'}   x = ((exp((1-q') ln_q x)) - 1) / (1-q')
    ln_{q,q',r} x = ((exp((1-r) ln_{q,q'} x)) - 1) / (1-r)

and the entropy S = k * sum_i p_i * ln_{q,q',r}(1/p_i).  Each deformation
level collapses to the identity map on its argument as its parameter tends
to 1, which is how the limit chain q,q',r -> 1 recovers the Shannon form.

Deformation parameters within 1e-12 of 1 switch to the exact limit formulas
to avoid 0/0.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

from .core import Params, _Record
from .errors import DomainError, RangeError

__all__ = [
    "EntropyParams",
    "ln_q",
    "exp_q",
    "ln_qq",
    "ln_qqr",
    "entropy_qqr",
]

_LIMIT_TOL = 1e-12


def _check_finite(name: str, values: Sequence[float]) -> None:
    # DomainError at the first value not finite or (isfinite raising) past the double range.
    try:
        if all(map(math.isfinite, values)):
            return
        got = repr(next(v for v in values if not math.isfinite(v)))
    except OverflowError:
        got = "a value past the double range"
    raise DomainError(f"{name} must be finite, got {got}")


class EntropyParams(_Record):
    """Deformation triple (q, q_prime, r) and entropy scale k > 0.

    Values equal to 1 are allowed (the deformed maps then use their limit
    forms); `induced_params` requires all three to differ from 1.
    """

    __slots__ = ("q", "q_prime", "r", "k")

    def __init__(self, q: float, q_prime: float, r: float, k: float = 1.0):
        if not k > 0.0:
            raise DomainError(f"entropy scale k must be positive, got {k!r}")
        for name, v in (("q", q), ("q_prime", q_prime), ("r", r), ("k", k)):
            _check_finite(name, (v,))
        set_q, set_q_prime, set_r, set_k = self._setters
        set_q(self, q)
        set_q_prime(self, q_prime)
        set_r(self, r)
        set_k(self, k)

    def induced_params(self) -> Params:
        """Coefficients (a, b, c) of the forward map tied to this triple:

        a = (1-q)/(1-q'),  b = (1-q')/(1-r),  c = -1/(1-q').
        """
        return _induced(self.q, self.q_prime, self.r)


@functools.lru_cache(maxsize=16)
def _induced(q: float, q_prime: float, r: float) -> Params:
    # induced_params, memoised by the triple's values as core's catalog is.
    cq, cqp, cr = 1.0 - q, 1.0 - q_prime, 1.0 - r
    if abs(cq) < _LIMIT_TOL or abs(cqp) < _LIMIT_TOL or abs(cr) < _LIMIT_TOL:
        raise DomainError("induced coefficients need q, q_prime and r all away from 1")
    return Params(a=cq / cqp, b=cqp / cr, c=-1.0 / cqp)


def _stretches(*coeffs: float) -> tuple[float, ...]:
    # The coefficients 1-q, 1-q', 1-r to stretch by, less identities (within 1e-12 of 0).
    return tuple([coeff for coeff in coeffs if not -_LIMIT_TOL < coeff < _LIMIT_TOL])


def _deformed_log(x: float, stretches: tuple[float, ...]) -> tuple[float, float]:
    # (s, ds/d(ln x)): ln x stretched to (exp(coeff*s) - 1)/coeff by each of the
    # _stretches in turn, of slope 1 + coeff*(new s).  RangeError naming x unless s
    # is finite: expm1 raises, and the division by a small coeff (or x = inf)
    # gives inf without raising.  ds may overflow to inf.
    if not x > 0.0:
        raise DomainError(f"ln_q needs x > 0, got {x!r}")
    s, slope = math.log(x), 1.0
    try:
        for coeff in stretches:
            s = math.expm1(coeff * s) / coeff
            slope *= 1.0 + coeff * s
    except OverflowError:
        s = math.inf
    if not math.isfinite(s):
        raise RangeError(f"deformed logarithm overflows the double range at x={x!r}")
    return s, slope


def ln_q(q: float, x: float) -> float:
    """One-parameter logarithm (x^(1-q) - 1)/(1-q); ln x at q = 1."""
    return _deformed_log(x, _stretches(1.0 - q))[0]


def exp_q(q: float, x: float) -> float:
    """Inverse of ln_q: [1 + (1-q) x]^(1/(1-q)); exp(x) at q = 1.

    Raises RangeError naming x when the result overflows the double range,
    and DomainError naming q or x when it is not finite.
    """
    _check_finite("q", (q,))
    _check_finite("x", (x,))
    cq = 1.0 - q
    if abs(cq) < _LIMIT_TOL:
        t = x
    else:
        base = 1.0 + cq * x
        if not base > 0.0:
            raise DomainError(f"exp_q needs 1 + (1-q)*x > 0, got {base!r}")
        t = math.log1p(cq * x) / cq
    try:
        value = math.exp(t)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise RangeError(f"exp_q overflows the double range at x={x!r}")
    return value


def ln_qq(q: float, q_prime: float, x: float) -> float:
    """Two-parameter logarithm: ln_q stretched once more by 1 - q'."""
    return _deformed_log(x, _stretches(1.0 - q, 1.0 - q_prime))[0]


def ln_qqr(ep: EntropyParams, x: float) -> float:
    """Three-parameter logarithm: ln_{q,q'} stretched a third time by 1 - r.

    Strictly increasing in x; 0 at x = 1; recovers ln_{q,q'} as r -> 1 and
    plain ln as all three parameters tend to 1.  A value beyond the double
    range raises RangeError (an OverflowError) naming x.
    """
    return _deformed_log(x, _stretches(1.0 - ep.q, 1.0 - ep.q_prime, 1.0 - ep.r))[0]


def entropy_qqr(ep: EntropyParams, p: Sequence[float]) -> float:
    """Entropy k * sum_i p_i * ln_qqr(1/p_i) of a probability vector.

    Zero entries contribute nothing (p*ln(1/p) -> 0); the vector must be
    finite, non-negative and sum to 1 within 1e-12.
    """
    _check_finite("probabilities", p)
    total = 0.0
    for v in p:
        if v < 0.0:
            raise DomainError(f"probabilities must be >= 0, got {v!r}")
        total += v
    if abs(total - 1.0) > 1e-12:
        raise DomainError(f"probabilities sum to {total!r}, not 1")
    stretches, acc = _stretches(1.0 - ep.q, 1.0 - ep.q_prime, 1.0 - ep.r), 0.0
    for v in p:
        if v > 0.0:
            acc += v * _deformed_log(1.0 / v, stretches)[0]
    return ep.k * acc
