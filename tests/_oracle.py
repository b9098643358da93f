"""Brute-force reference implementations used only by the test suite.

Everything here is deliberately slow and simple, and shares no solution
code with the production paths it validates: inversion by plain bisection
(never Newton), Ei by principal-value quadrature (never the production
series/continued fraction), derivatives by central differences,
stationarity residuals by differentiating the whole entropy sum in mpmath,
the inverse's Taylor coefficients by reverting a 50-digit product of the
series of ln and exp, the continuous density's normaliser by mpmath.quad
with mpmath.findroot at each node.  The only shared ingredient is the
forward map, which is the problem statement rather than a solution method
(and `evaluate`'s double root as findroot's start, which the answer does
not depend on).
"""

from __future__ import annotations

import math
from typing import Callable

import mpmath

from loglambert import IntegrationError, LogLambertError, Params, evaluate, forward

__all__ = ["BracketError", "bisect_invert", "quad_ei", "fd_derivative",
           "stationarity_residuals_quadratic", "taylor_reference", "continuous_reference"]


class BracketError(LogLambertError, ValueError):
    """The supplied interval does not straddle the requested value."""


def bisect_invert(p: Params, y_lo: float, y_hi: float, x: float) -> float:
    """Solve forward(p, y) = x by bisection on [y_lo, y_hi].

    The endpoints must straddle x and the forward map must be monotone on
    the interval; raises BracketError otherwise.
    """
    f_lo = forward(p, y_lo)
    f_hi = forward(p, y_hi)
    if (f_lo > x) == (f_hi > x) and f_lo != x and f_hi != x:
        raise BracketError(
            f"[{y_lo!r}, {y_hi!r}] does not straddle x={x!r} "
            f"(f values {f_lo!r}, {f_hi!r})"
        )
    lo, hi = y_lo, y_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = forward(p, mid)
        if f_mid == x:
            return mid
        if (f_mid > x) == (f_lo > x):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _simpson(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    # Private adaptive Simpson; kept separate from any production quadrature.
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)

    def recurse(a, fa, b, fb, m, fm, whole, depth):
        if depth == 0:
            raise IntegrationError("oracle quadrature recursion exhausted")
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, m, fm, lm, flm, left, depth - 1) + recurse(
            m, fm, b, fb, rm, frm, right, depth - 1
        )

    m = 0.5 * (a + b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, fa, b, fb, m, fm, whole, 55)


def quad_ei(x: float) -> float:
    """Ei(x) by principal-value quadrature.

    The singularity at t = 0 is removed by pairing e^t/t with e^(-t)/t
    (their PV sum is the smooth 2*sinh(t)/t); the tail to -infinity is cut
    where e^t is negligible.
    """
    if x == 0.0:
        raise IntegrationError("Ei quadrature undefined at 0")
    tol = 1e-13

    if x < 0.0:
        # Ei(x) = -int_{-x}^{inf} e^{-s}/s ds, truncated at negligible e^{-s}.
        s0 = -x
        s1 = s0 + 60.0 + 5.0 * math.log1p(s0)
        return -_simpson(lambda s: math.exp(-s) / s, s0, s1, tol * math.exp(-s0))

    a = min(x, 1.0) / 2.0

    def sinhc2(t: float) -> float:
        return 2.0 if t == 0.0 else (math.exp(t) - math.exp(-t)) / t

    pv_core = _simpson(sinhc2, 0.0, a, tol)
    left_tail = -_simpson(lambda s: math.exp(-s) / s, a, a + 80.0, tol * math.exp(-a))
    right = 0.0
    if x > a:
        right = _simpson(lambda t: math.exp(t) / t, a, x, tol * math.exp(x) / x)
    return pv_core + left_tail + right


def fd_derivative(p: Params, branch: int, x: float, h: float) -> float:
    """Central difference of the branch inversion, for derivative checks."""
    y_plus = evaluate(p, branch, x + h, tol=1e-13).y
    y_minus = evaluate(p, branch, x - h, tol=1e-13).y
    return (y_plus - y_minus) / (2.0 * h)


def stationarity_residuals_quadratic(spec, probs) -> list[float]:
    """Per-level residuals (1/k) dS/dp_i + alpha + beta*eps_i, O(n^2).

    dS/dp_i by `mpmath.diff` (a central difference at raised precision) at
    50 digits of the whole entropy sum, with p_i bumped and the other n - 1
    terms summed each time: the reference for the production residuals,
    which take one term's derivative in closed form.  ln_qqr is written out
    in mpmath with the package's limit rule: a stretch whose coefficient
    lies within 1e-12 of 0 is the identity.  The held terms are taken once;
    `fsum` rounds each sum once, so their own rounding cancels in the
    difference.
    """
    ep = spec.ep
    with mpmath.workdps(50):
        coeffs = [c for c in (1 - mpmath.mpf(v) for v in (ep.q, ep.q_prime, ep.r))
                  if abs(c) >= 1e-12]

        def term(p):
            if p <= 0:
                return mpmath.mpf(0)
            s = mpmath.log(1 / p)
            for c in coeffs:
                s = mpmath.expm1(c * s) / c
            return p * s

        ps = [mpmath.mpf(v) for v in probs]
        terms = [term(p) for p in ps]
        res = []
        for i, eps in enumerate(spec.levels):
            rest = terms[:i] + terms[i + 1:]
            ds = mpmath.diff(lambda t: ep.k * mpmath.fsum([term(t), *rest]), ps[i])
            res.append(float(ds / ep.k + spec.alpha + mpmath.mpf(spec.beta) * eps))
        return res


def taylor_reference(a: float, b: float, c: float, n: int) -> list:
    """g_1..g_n of the inverse about x = 0 in 50-digit arithmetic (mpf).

    The expansion point a0 = e^(W0(t) - 1/a)/b, t = -b*c*e^(1/a)/a, from
    mpmath's principal W; f's series about a0 as the truncated product of
    the exact series of ln(b*(a0+s)) and e^(a0+s); the inverse by truncated
    products of the reverted series, d_m = -[x^m] sum_k c_k*g^k / c_1; and
    g_k = k!*d_k.  Nothing here is shared with `taylor_coefficients`.
    """
    with mpmath.workdps(50):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        a0 = mpmath.exp(mpmath.lambertw(-b * c * mpmath.exp(1 / a) / a).real - 1 / a) / b

        def mul(u, v):  # truncated at order n
            return [mpmath.fsum(u[i] * v[k - i] for i in range(k + 1)) for k in range(n + 1)]

        log = [mpmath.log(b * a0)] + [(-1) ** (k + 1) / (k * a0**k) for k in range(1, n + 1)]
        exp = [mpmath.exp(a0) / mpmath.factorial(k) for k in range(n + 1)]
        y = [a0, 1] + [0] * (n - 1)
        inner = [a * t for t in mul(y, log)]
        inner[0] += a0 + c
        inner[1] += 1
        fwd = mul(inner, exp)
        d = [0, 1 / fwd[1]]
        for m in range(2, n + 1):
            g = d + [0] * (n + 1 - m)
            power, total = g, 0
            for k in range(2, m + 1):
                power = mul(power, g)
                total += fwd[k] * power[m]
            d.append(-total / fwd[1])
        return [d[k] * mpmath.factorial(k) for k in range(1, n + 1)]


def continuous_reference(ep, alpha: float, beta: float, branch: int, grid, dps: int = 25):
    """(Z, densities on grid) of the quadratic level's density, in `dps` digits (mpf).

    The weight at x is {a*ln(b*y) + 1}^(1/(q-1)) at the root y of f(y) =
    X(x) = (-1/(1-r) + alpha + beta*x**2) * ratio * e^ratio, ratio =
    (1-r)/(1-q'), with the inputs' doubles taken as exact: mpmath.findroot
    (secant) from `evaluate`'s double root on the branch.  Z is twice
    mpmath.quad of the weight over [0, cut], the whole support: cut is the
    |x| where the brace vanishes, at y* = e^(-1/a)/b.  ValueError when no
    positive level reaches y*, so that the support is not compact.  About
    0.1 s for the README's continuous example.
    """
    p = ep.induced_params()
    with mpmath.workdps(dps):
        a, b, c = (mpmath.mpf(v) for v in (p.a, p.b, p.c))
        ratio = (1 - mpmath.mpf(ep.r)) / (1 - mpmath.mpf(ep.q_prime))
        scale = ratio * mpmath.exp(ratio)
        shift, beta_mp = mpmath.mpf(alpha) - 1 / (1 - mpmath.mpf(ep.r)), mpmath.mpf(beta)
        power = 1 / (mpmath.mpf(ep.q) - 1)

        def f(y):
            return (a * y * mpmath.log(b * y) + y + c) * mpmath.exp(y)

        def weight(x):
            target = (shift + beta_mp * x * x) * scale
            y = mpmath.mpf(evaluate(p, branch, float(target), 1e-13).y)
            y = mpmath.findroot(lambda v: f(v) - target, (y, y * (1 + mpmath.mpf(2) ** -30)))
            brace = a * mpmath.log(b * y) + 1
            return brace ** power if brace > 0 else mpmath.mpf(0)

        eps_cut = (f(mpmath.exp(-1 / a) / b) / scale - shift) / beta_mp
        if not eps_cut > 0:
            raise ValueError(f"no positive level reaches the brace's zero (eps = {eps_cut})")
        z = 2 * mpmath.quad(weight, [0, mpmath.sqrt(eps_cut)])
        return z, [weight(mpmath.mpf(x)) / z for x in grid]
