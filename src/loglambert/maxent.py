"""Maximum-entropy distributions of the three-parameter entropy.

Maximising S = k * sum p_i ln_qqr(1/p_i) under normalisation and a mean
value of the level variable epsilon_i (Lagrange multipliers alpha, beta)
leads, after the substitution u = exp(((1-q')/(1-q)) * (p^(q-1)-1)) and
y = ((1-r)/(1-q')) * u, to the forward map of `core` with the induced
coefficients, so each level's stationary probability is read off from a
branch inversion at

    x_i = (-1/(1-r) + alpha + beta*eps_i) * ((1-r)/(1-q')) * e^((1-r)/(1-q'))

(the positive exponent is forced by clearing e^(-(1-r)/(1-q')) from the
stationarity equation, whose residuals vanish only with this sign)

via the unnormalised weight w_i = {a * ln(b * y_i) + 1}^(1/(q-1)) and
p_i = w_i / Z, Z = sum w_j.

The weight exists only where the brace is positive: for |y| > |y*| when
a > 0 and for |y| < |y*| when a < 0, y* = e^(-1/a)/b.  On one branch that
is an open x-interval in closed form, the branch's x-domain cut at
x* = f(y*) when y* lies on the branch.  Every x_i is affine in alpha with
the same slope, so the interval fixes the alphas at which all weights
exist, and for the quadratic level x**2 the support cut in |x|.

alpha and beta are caller inputs.  Because x_i depends on alpha while Z
normalises again, the stationarity conditions hold exactly only when alpha
is tuned so that Z = 1.  `solve_alpha` does that tuning on the admissible
interval of alpha, where Z is monotone, with the safeguarded Newton solver
that also inverts f and polishes its seams, taking Halley steps from the
exact slope and curvature of Z from the uniform start corrected for the
spread of the levels.  It has three outcomes: an alpha with
|Z - 1| <= tol; DomainError when no alpha in the interval normalises the
weights; ConvergenceError when the sign bracket shrinks to a few ulps
first, at the rounding floor of the weight sum.  Which inverse
branch is physical is likewise not determined by the stationarity
conditions alone, so the branch is an explicit argument; `suggest_branch`
picks the branch a uniform distribution would land on.

Each `solve_alpha` iterate and each call to `distribution`, `probability`
and `continuous_pdf` inverts its arguments with one warm-started inverter,
whose one loop in `core` walks a batch of them: each root seeds the next
through the third-order inverse series where that series is trusted, and
any other argument (as the one of `continuous_weight`) is solved as
`evaluate` solves it.  A pass over the levels is one batch in ascending x
(sorted levels need no key sort: each x_i is affine in eps_i with one
slope), so equal levels get equal bits whatever their order.  It forms its
arguments, and its weights from the braces a*ln(b*y_i) + 1 the inverter
hands out, in one comprehension each, takes no ln(b*y_i) outside f's
evaluations, and is memoised by value, so the `distribution` at the alpha
`solve_alpha` returned makes no inversion.  `solve_alpha` takes its set-up
once per solve, and from a pass's f'(y_i) and braces the slope and
curvature of Z with no further log or exp.  `continuous_pdf` keeps its
weights by argument, so x and -x get equal bits.  A weight beyond the
double range raises RangeError naming its level (its argument, for
`continuous_weight`), a weight sum Z that is 0 or beyond it one naming
alpha and beta, an e^ratio beyond it or underflowing to 0 one naming q'
and r, and a level's argument beyond it `level_argument`'s; r or q' within
1e-12 of 1 is a DomainError that names them.  Each call checks its numbers
once, by the rule in `errors`.  `continuous_pdf` normalises by adaptive
7-point Gauss / 15-point Kronrod quadrature over a range that stops at the
support cut, in two pieces: next to x = 0 in x, each panel's nodes one
batch of warm inversions (a batch whose weights are all held calls no
inverter), and beyond a junction in a variable s in which ln|y|, and so
the weight's brace, falls quadratically between the roots at x = 0 and at
the range's end, with f, f' and the weight formed inline from that log at
each node and no inversion.  Both pieces share one panel rule: the first
panel spans the piece, one that misses the tolerance gives way to as many
equal panels as its error asks for under G7's 15th-power law, and a panel
below it that misses to its two halves.  The stationarity residuals take
each level's term of the entropy sum in closed form, in one loop, O(n).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

# `evaluate` is unused here: perfbench's span test reads it as maxent.evaluate.
from .core import (BranchInfo, Monotone, Params, _forward_and_slope, _inverter, _newton_bisect,
                   _Plan, _plan_or_raise, _Record, branches, evaluate)
from .errors import (_DBL_MAX, _LOG_DBL_MAX, ConvergenceError, DomainError, IntegrationError,
                     LogLambertError, RangeError, _exp, _finite, _real)
from .qcalculus import _LIMIT_TOL, EntropyParams, _deformed_log, _stretches

__all__ = [
    "EnsembleSpec",
    "DiscreteDistribution",
    "level_argument",
    "probability",
    "distribution",
    "suggest_branch",
    "solve_alpha",
    "pseudo_beta",
    "stationarity_residuals",
    "continuous_weight",
    "continuous_pdf",
]

_EVAL_TOL = 1e-13


class EnsembleSpec(_Record):
    """Levels eps_i with Lagrange multipliers (alpha, beta) and the triple."""

    __slots__ = ("levels", "alpha", "beta", "ep")

    def __init__(self, levels: tuple[float, ...], alpha: float, beta: float,
                 ep: EntropyParams):
        if not (levels := _finite("levels", levels)):
            raise DomainError("at least one level is required")
        alpha, beta = _finite(("alpha", "beta"), (alpha, beta))
        set_levels, set_alpha, set_beta, set_ep = self._setters
        set_levels(self, levels)
        set_alpha(self, alpha)
        set_beta(self, beta)
        set_ep(self, ep)


class DiscreteDistribution(_Record):
    """Normalised probabilities with the partition value and beta_r."""

    __slots__ = ("probs", "partition", "x_values", "beta_r")

    def __init__(self, probs: tuple[float, ...], partition: float,
                 x_values: tuple[float, ...], beta_r: float):
        set_probs, set_partition, set_x_values, set_beta_r = self._setters
        set_probs(self, probs)
        set_partition(self, partition)
        set_x_values(self, x_values)
        set_beta_r(self, beta_r)


def _scale(ep: EntropyParams) -> tuple[float, float, float]:
    # (1/(1-r), ratio, e^ratio), ratio = (1-r)/(1-q'): the constants of every
    # level's argument.  DomainError where induced_params refuses r or q'
    # (within 1e-12 of 1), RangeError when e^ratio overflows, or underflows
    # to 0 so that every argument is 0.
    cr, cqp = 1.0 - ep.r, 1.0 - ep.q_prime
    if abs(cr) < _LIMIT_TOL or abs(cqp) < _LIMIT_TOL:
        raise DomainError(f"level arguments need q_prime and r away from 1, got "
                          f"q_prime={ep.q_prime!r}, r={ep.r!r}")
    inv_cr, ratio = 1.0 / cr, cr / cqp
    e_ratio = _exp(ratio)
    if not 0.0 < e_ratio < math.inf:
        raise RangeError(f"e^((1-r)/(1-q_prime)) = e^{ratio!r} of the level arguments "
                         f"{'underflows to 0' if e_ratio == 0.0 else 'overflows the double range'}"
                         f" for q_prime={ep.q_prime!r}, r={ep.r!r}")
    return inv_cr, ratio, e_ratio


def _arguments(ep: EntropyParams, alpha: float, beta: float) -> Callable[..., list[float]]:
    # levels -> their x_i (module docstring), -1/(1-r) + alpha, ratio, e^ratio taken once.
    inv_cr, ratio, e_ratio = _scale(ep)
    shift = -inv_cr + alpha
    return lambda levels: [(shift + beta * eps) * ratio * e_ratio for eps in levels]


def _check_level(spec: EnsembleSpec, i: int) -> None:
    if not (hasattr(i, "__index__") and 0 <= i < len(spec.levels)):  # an integer in range
        raise DomainError(f"level index i={i!r} outside 0..{len(spec.levels) - 1}")


def level_argument(spec: EnsembleSpec, i: int) -> float:
    """Inversion argument x_i for level i (see module docstring).

    DomainError with r or q' within 1e-12 of 1; RangeError when
    it, or e^((1-r)/(1-q')), overflows the double range, or when the latter
    underflows to 0, so that alpha and beta would not move the argument.
    """
    _check_level(spec, i)
    x = _arguments(spec.ep, spec.alpha, spec.beta)((spec.levels[i],))[0]
    if not math.isfinite(x):
        raise RangeError(f"argument of level {i} (eps={spec.levels[i]!r}) overflows the "
                         f"double range for alpha={spec.alpha!r}, beta={spec.beta!r}, "
                         f"q_prime={spec.ep.q_prime!r}, r={spec.ep.r!r}")
    return x


def _weights(plan: _Plan, q1: float, invert: Callable, xs: Sequence[float],
             order: Sequence[int], name: Callable[[int], str] = lambda i: "") -> tuple[list, ...]:
    # (ys, ws, slopes, braces) by index of xs from one batch of `invert` in
    # `order`, each weight brace^(1/q1), q1 = q - 1: the one place a brace
    # becomes a weight.  A refusal names its x, name(i) first: for a refused
    # batch, which hands out no braces, the first x in `order` outside the
    # branch's domain (the only refusal an inversion of these arguments
    # meets); for weights that fail, the first brace in `order` that is not
    # positive or whose weight overflows the double range.
    try:
        ys, slopes, braces = invert(xs, order)
    except DomainError as exc:
        for i in order:
            if not plan.x_min <= xs[i] <= plan.x_max:
                raise DomainError(f"{name(i)}{exc}") from exc
        raise  # not reached: a batch refuses only an x outside the domain
    exp, log = math.exp, math.log
    try:
        return ys, [exp(log(brace) / q1) for brace in braces], slopes, braces
    except (ValueError, OverflowError):
        for i in order:
            brace, x = braces[i], xs[i]
            if not brace > 0.0:
                raise DomainError(f"{name(i)}weight undefined: brace {brace!r} non-positive at "
                                  f"x={x!r} (branch {plan.info.index} mismatch?)") from None
            try:
                exp(log(brace) / q1)
            except OverflowError:
                raise RangeError(f"{name(i)}weight brace^(1/(q-1)) = {brace!r}^{1.0 / q1!r} "
                                 f"overflows the double range at x={x!r}") from None
        raise  # not reached: the walk meets the brace that failed in the list


def _weight_domain(params: Params, bi: BranchInfo) -> tuple[float, float]:
    # Open x-interval of branch bi on which the weight is defined: its
    # x_domain, cut at x* = f(y*) with y* = e^(-1/a)/b when y* lies on the
    # branch.  The brace a*ln(b*y) + 1 is positive for |y| > |y*| when
    # a > 0 and for |y| < |y*| when a < 0; capping e^(-1/a) at the largest
    # double keeps y* beyond every y at which f is finite.  Each end is
    # clipped to a finite double and pulled inward by twice the inversion
    # tolerance, so that a root found within that tolerance of an end keeps
    # the brace positive.
    lo, hi = bi.x_domain.lo, bi.x_domain.hi
    y_star = math.exp(min(-1.0 / params.a, _LOG_DBL_MAX)) / params.b
    up = (params.a > 0.0) == (params.b > 0.0)  # brace > 0 for y above y*
    if bi.y_range.contains(y_star):
        x_star = _forward_and_slope(params, y_star)[0]
        lo, hi = (x_star, hi) if up == (bi.monotone is Monotone.INCREASING) else (lo, x_star)
    elif (y_star <= bi.y_range.lo) != up:
        raise DomainError(f"weight undefined on all of branch {bi.index}: "
                          f"a*ln(b*y) + 1 <= 0 there")
    lo, hi = max(lo, -_DBL_MAX), min(hi, _DBL_MAX)
    return (lo + 2.0 * _EVAL_TOL * max(1.0, abs(lo)),
            hi - 2.0 * _EVAL_TOL * max(1.0, abs(hi)))


def _uniform_y(ep: EntropyParams, n_levels: int) -> float:
    # y at which the stationary weight is the uniform 1/n_levels.
    try:
        p_uni = 1.0 / n_levels
        u = math.exp((1.0 - ep.q_prime) / (1.0 - ep.q) * (p_uni ** (ep.q - 1.0) - 1.0))
    except OverflowError:  # the ** as well as the exp
        raise RangeError("n_levels too large: the uniform warm start overflows "
                         "the double range") from None
    return (1.0 - ep.r) / (1.0 - ep.q_prime) * u


def suggest_branch(ep: EntropyParams, n_levels: int) -> int:
    """Branch whose y-range holds a uniform distribution's warm start (n_levels >= 1)."""
    if not (hasattr(n_levels, "__index__") and n_levels >= 1):  # a positive integer
        try:
            got = repr(n_levels)
        except ValueError:  # an integer past the int-to-str digit limit
            got = f"a negative integer of {n_levels.bit_length()} bits"
        raise DomainError(f"n_levels must be an integer of at least 1, got {got}")
    params = ep.induced_params()
    y = _uniform_y(ep, n_levels)
    for bi in branches(params):
        if bi.y_range.contains(y):
            return bi.index
    raise DomainError(
        f"uniform warm start y={y!r} lies on no branch for {params!r}"
    )


@functools.lru_cache(maxsize=4)
def _all_weights(spec: EnsembleSpec, branch: int) -> tuple[tuple[float, ...], ...]:
    # (x_i, y_i, w_i, f'(y_i), brace_i) per level, f'(y_i) as the inversion
    # computed it (0 at a seam).  The levels are one batch of a fresh warm
    # inverter, in ascending x (x_i that already ascend need no key sort),
    # so each root warm-starts the next and the result does not depend on
    # their order.  Memoised by value: a pass repeated at an equal spec
    # (`distribution` at the alpha `solve_alpha` returned) costs no
    # inversion.  A refused pass with an argument beyond the double range
    # raises level_argument's RangeError for it.
    ep = spec.ep
    params = ep.induced_params()
    plan, invert = _plan_or_raise(params, branch), _inverter(params, branch, _EVAL_TOL)
    xs = _arguments(ep, spec.alpha, spec.beta)(spec.levels)
    try:
        ys, ws, slopes, braces = _weights(
            plan, ep.q - 1.0, invert, xs,
            range(len(xs)) if xs == sorted(xs) else sorted(range(len(xs)), key=xs.__getitem__),
            lambda i: f"level {i} (eps={spec.levels[i]!r}): ")
    except LogLambertError:
        for i in range(len(xs)):
            level_argument(spec, i)
        raise
    return tuple(xs), tuple(ys), tuple(ws), tuple(slopes), tuple(braces)


def _partition(spec: EnsembleSpec, branch: int, ws: Sequence[float]) -> float:
    # Z = sum of the pass's weights ws; RangeError unless it is positive and finite.
    try:
        z = math.fsum(ws)
    except OverflowError:
        z = math.inf
    if not 0.0 < z < math.inf:
        raise RangeError(f"partition sum Z = {z!r} of the weights is not a positive double "
                         f"for alpha={spec.alpha!r}, beta={spec.beta!r} on branch {branch}")
    return z


def probability(spec: EnsembleSpec, i: int, branch: int | None = None) -> float:
    """Normalised stationary probability of level i on the given branch."""
    _check_level(spec, i)
    if branch is None:
        branch = suggest_branch(spec.ep, len(spec.levels))
    ws = _all_weights(spec, branch)[2]
    return ws[i] / _partition(spec, branch, ws)


def pseudo_beta(spec: EnsembleSpec) -> float:
    """Effective inverse temperature beta / (1 - alpha*(1-r))."""
    denom = 1.0 - spec.alpha * (1.0 - spec.ep.r)
    if denom == 0.0:
        raise DomainError("pseudo temperature undefined: 1 - alpha*(1-r) = 0")
    return spec.beta / denom


def distribution(spec: EnsembleSpec, branch: int | None = None) -> DiscreteDistribution:
    """Full normalised distribution with partition value and beta_r."""
    if branch is None:
        branch = suggest_branch(spec.ep, len(spec.levels))
    xs, _, ws, _, _ = _all_weights(spec, branch)
    z = _partition(spec, branch, ws)
    return DiscreteDistribution(
        probs=tuple(w / z for w in ws),
        partition=z,
        x_values=xs,
        beta_r=pseudo_beta(spec),
    )


def _z_slopes(params: Params, q1: float, k: float, ys: Sequence[float],
              ws: Sequence[float], slopes: Sequence[float], braces: Sequence[float]
              ) -> tuple[float, float]:
    # (Z', Z'') in alpha, as solve_alpha's docstring gives them, from one pass's
    # roots, weights, slopes f'(y_i) and braces, with q1 = q - 1 and k =
    # dx_i/dalpha: no log or exp.  A root on a seam (f' = 0) or an f' beyond
    # the double range gives NaN.
    a, ac, a_q1 = params.a, params.a + params.c, params.a / q1 - params.a
    total = curvature = 0.0
    try:
        for y, w, slope, brace in zip(ys, ws, slopes, braces):
            if not math.isfinite(slope):
                return math.nan, math.nan
            y_brace = y * brace
            t = w * a / (y_brace * slope)
            total += t
            curvature += t / slope * ((a_q1 - brace) / y_brace - 1.0
                                      - (brace + a + a / y) / ((y + 1.0) * brace + ac))
    except ZeroDivisionError:
        return math.nan, math.nan
    return k / q1 * total, k * k / q1 * curvature


def _spread_step(params: Params, q1: float, k: float, y: float, slope: float, brace: float,
                 deltas: Sequence[float]) -> float:
    # The Newton step in alpha that corrects the uniform start for the spread
    # of the levels' arguments x_u + delta_i about x_u = f(y), sum delta_i = 0:
    # with n*w(x_u) = 1, Z - 1 ~ w''(x_u)/2 * sum delta_i**2 and Z' ~
    # n*k*w'(x_u), k = dx_i/dalpha, w' and w'' from _z_slopes at y (the
    # weight cancels from the step).  0 where a term is unusable: a brace that
    # is not positive, f'(y) that is 0 or not finite, w' = 0, or a step that
    # is not finite (as when the sum of squares overflows).
    if not brace > 0.0:
        return 0.0
    n = len(deltas)
    w1, w2 = _z_slopes(params, q1, 1.0, (y,), (1.0 / n,), (slope,), (brace,))
    if w1 == 0.0:
        return 0.0
    step = 0.5 * w2 / w1 * sum(d * d for d in deltas) / (n * k)
    return step if math.isfinite(step) else 0.0


def solve_alpha(
    levels: Sequence[float],
    beta: float,
    ep: EntropyParams,
    branch: int | None = None,
    tol: float = 1e-14,
) -> float:
    """alpha making the unnormalised weights sum to exactly 1 (Z = 1).

    With this alpha the normalisation is a no-op and the per-level
    stationarity conditions hold at the returned multipliers.  Every x_i
    is affine in alpha with the slope K = ratio*e^ratio, ratio =
    (1-r)/(1-q'), so the alphas at which every weight exists form an open
    interval: the one putting all x_i inside the branch's x-domain, on the
    side of x* = f(e^(-1/a)/b) where the brace a*ln(b*y) + 1 is positive.
    On it excess(alpha) = Z - 1 is monotone, with the exact slope and
    curvature, t_i = w_i*a/(y_i*B_i*f'(y_i)) and B_i = a*ln(b*y_i) + 1,

        Z'  = K/(q-1) * sum_i t_i,
        Z'' = K**2/(q-1) * sum_i t_i/f'(y_i) * [(a/(q-1) - B_i - a)/(y_i*B_i)
                                                - (1 + s'_i/s_i)],

    s_i = (y_i+1)*B_i + a + c = e^-y_i*f'(y_i), s'_i = B_i + a + a/y_i.
    The solver that inverts f solves excess(alpha) = 0 on that interval
    by Halley steps inside the sign bracket and bisection otherwise.  It
    starts from the alpha alpha_u of a uniform distribution, which puts the
    mean level at x_u = f(y_u) with n*w(x_u) = 1, moved by one Newton step
    on the spread of the levels: with delta_i = beta*K*(eps_i - mean),
    excess(alpha_u) ~ w''(x_u)/2 * sum delta_i**2 and Z' ~ n*K*w'(x_u),
    w' and w'' from the closed forms above at y_u.  Where the brace at
    y_u is not positive, f'(y_u) is 0 or not finite, w' is 0 or the step
    is not finite, it starts from alpha_u; either start is clamped to the
    interval.  The solver's Newton step takes the slope
    Z' - (Z-1)*Z''/(2*Z'), or Z' when that is not finite or changes sign.
    Each excess is a full pass of `distribution` over the levels, and a pass
    whose weights overflow counts as Z = +inf.  Returns the first alpha with
    |excess| <= tol; its pass is memoised, so `distribution` at that alpha
    repeats no inversion.
    DomainError, before any pass, when levels is empty, a level or beta
    is not finite or tol is not positive and finite, and when the interval is empty
    (the levels span more than the branch admits) or when the solve ends
    against one of its ends, so that no alpha in it normalises the
    weights; ConvergenceError, naming the final sign bracket and the closest
    alpha (an end of it or an earlier iterate outside it), when that
    bracket shrinks to a few ulps without reaching tol (the rounding floor
    of the weight sum) or 200 passes do not reach it.
    """
    if not (levels := _finite("levels", levels)):
        raise DomainError("levels must hold at least one level")
    if not 0.0 < (tol := _real("tol", tol)) < math.inf:
        raise DomainError(f"tol must be {'finite' if tol > 0.0 else 'positive'}, got {tol!r}")
    (beta,) = _finite("beta", (beta,))
    params, q1, n = ep.induced_params(), ep.q - 1.0, len(levels)
    if branch is None:
        branch = suggest_branch(ep, n)
    bi = _plan_or_raise(params, branch).info
    inv_cr, ratio, e_ratio = _scale(ep)
    k = ratio * e_ratio  # dx_i/dalpha; alpha + beta*eps = x/k + inv_cr at the argument x

    # Every level's argument lies where the weight is defined for alpha in
    # (a_lo, a_hi), the shifts beta*eps extreme at the extreme levels.  The
    # ends stay where alpha, the argument's product and midpoints are finite.
    e_lo, e_hi = sorted(x / k + inv_cr for x in _weight_domain(params, bi))
    lo_shift, hi_shift = sorted([beta * min(levels), beta * max(levels)])
    cap = 0.5 * _DBL_MAX / max(1.0, abs(ratio))
    a_lo = max(e_lo - lo_shift, -cap)
    a_hi = min(e_hi - hi_shift, cap)
    if not a_lo < a_hi:
        raise DomainError(f"no alpha puts all levels on branch {branch} with a defined "
                          f"weight: the levels span more than the branch admits")

    def z_and_slope(alpha: float) -> tuple[float, float]:
        # (Z, Halley's slope) at alpha by `distribution`'s pass; its spec skips __init__.
        spec = object.__new__(EnsembleSpec)
        for set_field, value in zip(EnsembleSpec._setters, (levels, alpha, beta, ep)):
            set_field(spec, value)
        try:
            _, ys, ws, slopes, braces = _all_weights(spec, branch)
            z = math.fsum(ws)
        except OverflowError:  # a weight or Z beyond the double range
            return math.inf, math.nan
        if abs(z - 1.0) <= tol:  # the solve ends here, without a step
            return z, math.nan
        z1, z2 = _z_slopes(params, q1, k, ys, ws, slopes, braces)
        halley = z1 - (z - 1.0) * z2 / (2.0 * z1) if z1 else z1
        agrees = halley > 0.0 if z1 > 0.0 else halley < 0.0
        return z, halley if agrees and math.isfinite(halley) else z1

    # Uniform warm start: alpha reproducing the uniform weight at the mean
    # level, moved by the spread of the levels about it.
    y_u = _uniform_y(ep, n)
    x_u, slope_u, log_by = _forward_and_slope(params, y_u)
    if not math.isfinite(x_u):
        raise RangeError(f"forward map overflows the double range at y={y_u!r}")
    try:
        mean = math.fsum(levels) / n
    except OverflowError:  # a sum of levels beyond the double range, not their mean
        mean = math.fsum([eps / n for eps in levels])
    start, bk = x_u / k + inv_cr - beta * mean, beta * k
    start -= _spread_step(params, q1, k, y_u, slope_u, params.a * log_by + 1.0,
                          [bk * (eps - mean) for eps in levels])
    increasing = ((ep.q > 1.0) == (params.a > 0.0)) == (bi.monotone is Monotone.INCREASING)
    start = min(max(start, a_lo), a_hi)
    alpha, res, _, lo, hi, _ = _newton_bisect(z_and_slope, 1.0, a_lo, a_hi, increasing,
                                              tol, start, z_and_slope(start))
    if res <= tol:
        return alpha
    if lo == a_lo or hi == a_hi:
        # No pass moved this end: Z is monotone, and every excess had the
        # sign it has next to the end.
        end = a_hi if hi == a_hi else a_lo
        excess = -res if (end == a_hi) == increasing else res
        raise DomainError(f"no alpha in ({a_lo!r}, {a_hi!r}) normalises the weights: "
                          f"excess {excess!r} at alpha={alpha!r}, next to the end {end!r}")
    # Each pass moves a bracket end to its alpha: the closest is an end or outside.
    where = "an end of that bracket" if alpha in (lo, hi) else "an earlier iterate outside it"
    raise ConvergenceError(f"normalisation solve for alpha stopped in the sign bracket "
                           f"[{lo!r}, {hi!r}] with no alpha meeting tol {tol!r} "
                           f"(closest |Z - 1| {res!r}, at alpha={alpha!r}, {where})")


def stationarity_residuals(spec: EnsembleSpec, probs: Sequence[float]) -> list[float]:
    """Per-level residuals (1/k) dS/dp_i + alpha + beta*eps_i, in O(n).

    The entropy sum is separable, so dS/dp_i is k times the derivative of
    the level's own term p*ln_qqr(1/p): exactly ln_qqr(1/p) - prod_j (1 +
    c_j*s_j) over ln_qqr's stretches s_j, c_j = 1-q, 1-q', 1-r.  A term whose
    p is not positive counts as 0, so its residual is alpha + beta*eps_i.
    All residuals vanish at a stationary point of the constrained functional;
    a common offset across levels indicates an alpha not tuned to Z = 1.
    DomainError unless there is one finite probability per level; RangeError
    naming x = 1/p when a term's derivative overflows the double range.
    """
    if len(probs := _finite("probs", probs)) != len(spec.levels):
        raise DomainError(f"probs has {len(probs)} entries for {len(spec.levels)} levels")
    ep, alpha, beta, residuals = spec.ep, spec.alpha, spec.beta, []
    stretches = _stretches(1.0 - ep.q, 1.0 - ep.q_prime, 1.0 - ep.r)
    isfinite, append = math.isfinite, residuals.append
    for p, eps in zip(probs, spec.levels):  # ln_qqr(1/p) less its slope in ln(1/p)
        s, ds = _deformed_log(1.0 / p, stretches) if p > 0.0 else (0.0, 0.0)
        d = s - ds
        if not isfinite(d):
            raise RangeError(f"entropy term's derivative overflows the double range "
                             f"at x={1.0 / p!r}")
        append(d + alpha + beta * eps)
    return residuals


def continuous_weight(
    ep: EntropyParams, alpha: float, beta: float, branch: int, x: float
) -> float:
    """Unnormalised density at x for the quadratic level eps(x) = x**2.

    DomainError unless alpha, beta and x are finite; else it refuses as a
    pass does, naming the inversion argument: DomainError outside the branch
    or where the brace is not positive, and RangeError past the double range.
    """
    alpha, beta, x = _finite(("alpha", "beta", "x"), (alpha, beta, x))
    params, arg = ep.induced_params(), _arguments(ep, alpha, beta)((x * x,))[0]
    inverter = _inverter(params, branch, _EVAL_TOL)
    return _weights(_plan_or_raise(params, branch), ep.q - 1.0, inverter, (arg,), (0,))[1][0]


# 15-point Kronrod nodes on [-1, 1] (positive half and 0) and weights; every
# other node, 0 included, is a 7-point Gauss node.  Piessens et al.,
# QUADPACK (1983), qk15.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


# Where continuous_pdf's two pieces meet, as t in y = y0 + (yL - y0)*t**2;
# the share of its peak the density must fall below at the range's end; and
# the splits an adaptive quadrature may make.
_T_C = 0.25
_TAIL_RATIO = 1e-10
_GK_DEPTH = 60


def _gauss_kronrod_panel(f: Callable[[list[float]], list[float]], a: float, b: float
                         ) -> tuple[float, float]:
    # (K15, G7) estimates over [a, b]; f takes the nodes c, then c -+ h*x_j pairs, as one list.
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fx = f([c, *[node for x in _XGK[:7] for node in (c - h * x, c + h * x)]])
    k15, g7 = _WGK[7] * fx[0], _WG[3] * fx[0]
    for j in range(7):
        pair = fx[2 * j + 1] + fx[2 * j + 2]
        k15 += _WGK[j] * pair
        if j % 2:
            g7 += _WG[j // 2] * pair
    return k15 * h, g7 * h


def _adaptive_gauss_kronrod(
    f: Callable[[list[float]], list[float]], a: float, b: float, tol: float, depth: int = _GK_DEPTH
) -> float:
    # K15 of a panel whose err = |K15 - G7| is within tol, else the sum over
    # its halves, each held to tol/2, or for the whole range (depth
    # _GK_DEPTH) over n = ceil((err/tol)**(1/14)) equal panels, each held to
    # tol/n, as G7's error falls as the 15th power of a panel's width; n is
    # at least 2 and at most _GK_DEPTH (also for an err that is not a number,
    # or a tol that underflowed to 0).  IntegrationError past _GK_DEPTH
    # splits (`depth` of them are left below this panel).
    k15, g7 = _gauss_kronrod_panel(f, a, b)
    err = abs(k15 - g7)
    if err <= tol:
        return k15
    if depth <= 0:
        raise IntegrationError("adaptive Gauss-Kronrod recursion exhausted")
    if depth < _GK_DEPTH:
        m = 0.5 * (a + b)
        return (_adaptive_gauss_kronrod(f, a, m, 0.5 * tol, depth - 1)
                + _adaptive_gauss_kronrod(f, m, b, 0.5 * tol, depth - 1))
    n = max(2, math.ceil((err / tol) ** (1.0 / 14.0))) if err < tol * _GK_DEPTH**14 else _GK_DEPTH
    width = (b - a) / n
    return sum(_adaptive_gauss_kronrod(f, a + k * width, b if k == n - 1 else a + (k + 1) * width,
                                       tol / n, depth - 1) for k in range(n))


def continuous_pdf(
    ep: EntropyParams,
    alpha: float,
    beta: float,
    branch: int,
    x_grid: Sequence[float],
) -> list[float]:
    """Normalised density values on x_grid for the quadratic level x**2.

    The normalising integral runs over [-L, L] with L grown from the grid
    edge until the unnormalised density there falls below 1e-10 times its
    peak, but not past the support cut: the largest |x| whose argument
    stays in the open interval where the weight is defined (the branch's
    x-domain, cut where a*ln(b*y) + 1 vanishes), pulled inward by twice the
    inversion tolerance.  Its half [0, L] is two adaptive Gauss-Kronrod
    integrals, each held to 5e-14*peak*max(L, 1), that meet at x_c.  Each
    piece's first panel spans it; when that misses its tolerance, the piece
    is cut into n = ceil((|K15 - G7|/tol)**(1/14)) equal panels, each held
    to tol/n and halved as needed.  On [0, x_c] each node's weight comes
    from a warm inversion of its argument A + B*x**2 (A = the argument at
    x = 0, B = beta*ratio*e^ratio).  Beyond it the variable is s in
    [s_c, 1], ln|y| = ln|y0| + (ln|yL| - ln|y0|)*s**2 between the roots y0
    at x = 0 and yL at x = L, so that the brace a*ln(b*y) + 1 of the weight
    w = brace^(1/(q-1)) is quadratic in s, and the integrand is
    w*f'(y)*y*(ln|yL| - ln|y0|)*s/(B*x), x = sqrt((f(y) - A)/B), with
    f(y) = (brace*y + c)*e^y and f'(y) from the same brace and e^y.  x_c is
    the x of y0 + (yL - y0)/16, s_c its s, or x_c is L (and the second piece
    empty) when that x is not inside (0, L).  IntegrationError if the
    criterion cannot be met within that range (it cannot when the weight
    decays only poly-logarithmically, or does not vanish at the cut),
    DomainError if alpha, beta or a grid point is not finite, or if a grid
    point leaves the branch.
    """
    if not (x_grid := _finite("x_grid points", x_grid)):
        raise DomainError("x_grid must be non-empty")
    alpha, beta = _finite(("alpha", "beta"), (alpha, beta))

    # One warm inverter takes the arguments not yet weighed; x and -x share a
    # weight.  Each argument's root is kept too: those at x = 0 and x = L
    # bound the outer piece.
    params = ep.induced_params()
    plan, invert = _plan_or_raise(params, branch), _inverter(params, branch, _EVAL_TOL)
    argument, q1, weights, roots = _arguments(ep, alpha, beta), ep.q - 1.0, {}, {}

    def g(points: Sequence[float]) -> list[float]:
        args = argument([x * x for x in points])
        new = [arg for arg in dict.fromkeys(args) if arg not in weights]
        if new:  # a batch of memo hits calls no inverter
            ys, ws, _, _ = _weights(plan, q1, invert, new, range(len(new)))
            weights.update(zip(new, ws))
            roots.update(zip(new, ys))
        return [weights[arg] for arg in args]

    values = g(x_grid)

    edge = max(abs(x) for x in x_grid)
    peak = max(g([0.0])[0], max(values))
    if peak <= 0.0:
        raise IntegrationError("density is identically zero on the grid")
    if edge > 0.0 and g([edge])[0] > _TAIL_RATIO * peak:
        raise IntegrationError(
            f"grid too narrow: density at |x|={edge!r} exceeds "
            f"{_TAIL_RATIO!r} of its peak"
        )

    # The support cut: the largest |x| whose level x**2 keeps the argument
    # where the weight is defined (alpha + beta*x**2 = x_arg/(ratio*e^ratio) + 1/(1-r)).
    inv_cr, ratio, e_ratio = _scale(ep)
    ends = _weight_domain(params, plan.info)
    cut = math.sqrt(max(0.0, *((x / (ratio * e_ratio) + inv_cr - alpha) / beta for x in ends))
                    ) if beta else math.inf

    # Grow L beyond the grid until the tail is negligible for quadrature,
    # or up to the support cut (the grid's edge, if it lies past the cut).
    stop = max(cut, edge)
    L = min(edge if edge > 0.0 else 1.0, stop)
    for _ in range(200):
        if L == stop or g([L])[0] <= 1e-2 * _TAIL_RATIO * peak:
            break
        L = min(1.25 * L, stop)
    else:
        raise IntegrationError("tail criterion not met while growing the range")

    if g([L])[0] > _TAIL_RATIO * peak:
        raise IntegrationError(
            f"tail criterion not met: density at |x|={L!r} exceeds "
            f"{_TAIL_RATIO!r} of its peak"
        )

    # The two pieces of [0, L] (see the docstring).  Near y0, f(y) - A is
    # known only to f's rounding, so [0, x_c] stays in x.
    a, c, A, B = params.a, params.c, argument((0.0,))[0], beta * ratio * e_ratio
    y0, yL = roots[A], roots[argument((L * L,))[0]]
    y_c = y0 + (yL - y0) * _T_C * _T_C
    l0, log_b, sign_y = math.log(abs(y0)), math.log(abs(params.b)), math.copysign(1.0, y0)
    dl = math.log(abs(yL)) - l0
    x_c2 = (_forward_and_slope(params, y_c)[0] - A) / B if dl and B else 0.0
    x_c = math.sqrt(x_c2) if 0.0 < x_c2 < L * L else L
    power = 1.0 / q1

    def h(ss: Sequence[float]) -> list[float]:
        # Past the junction x >= x_c; the floor at x_c**2 keeps f's rounding
        # from taking it below.
        out = []
        for s in ss:
            log_y = l0 + dl * s * s
            y = sign_y * math.exp(log_y)
            e_y = math.exp(y) if y <= _LOG_DBL_MAX else math.inf
            brace = a * (log_y + log_b) + 1.0
            x2 = ((brace * y + c) * e_y - A) / B
            out.append(math.pow(brace, power) * ((y + 1.0) * brace + a + c) * e_y * y * dl * s
                       / (B * math.sqrt(x2 if x2 > x_c2 else x_c2)))
        return out

    tol = 0.5e-13 * peak * max(L, 1.0)
    half = _adaptive_gauss_kronrod(g, 0.0, x_c, tol)
    if x_c < L:
        half += _adaptive_gauss_kronrod(h, math.sqrt((math.log(abs(y_c)) - l0) / dl), 1.0, tol)
    total = 2.0 * half
    if not total > 0.0:
        raise IntegrationError(f"normalisation integral {total!r} not positive")
    return [v / total for v in values]
