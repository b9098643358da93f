"""Maximum-entropy distributions of the three-parameter entropy.

Maximising S = k * sum p_i ln_qqr(1/p_i) under normalisation and a mean
value of the level variable epsilon_i (Lagrange multipliers alpha, beta)
leads, after the substitution u = exp(((1-q')/(1-q)) * (p^(q-1)-1)) and
y = ((1-r)/(1-q')) * u, to the forward map of `core` with the induced
coefficients, so each level's stationary probability is read off from a
branch inversion at

    x_i = (-1/(1-r) + alpha + beta*eps_i) * ((1-r)/(1-q')) * e^((1-r)/(1-q'))

(the positive exponent is forced by clearing e^(-(1-r)/(1-q')) from the
stationarity equation; the finite-difference stationarity residual is the
end-to-end validator and vanishes only with this sign)

via the unnormalised weight w_i = {a * ln(b * y_i) + 1}^(1/(q-1)) and
p_i = w_i / Z, Z = sum w_j.

alpha and beta are caller inputs.  Because x_i depends on alpha while Z
normalises again, the stationarity conditions hold exactly only when alpha
is tuned so that Z = 1; `solve_alpha` performs that tuning by Newton's
method on the exact slope of Z in alpha, safeguarded by bisection inside
the sign bracket its iterates build.  Which inverse branch is physical is
likewise not determined by the stationarity conditions alone, so the
branch is an explicit argument; `suggest_branch` picks the branch a
uniform distribution would land on.

Each call to `distribution`, `probability`, `continuous_pdf` and each
`solve_alpha` iterate inverts all its arguments with one warm-started
inverter: every root seeds the next, inside the widest bracket built so
far.  Levels go in ascending x, so the result does not depend on their
order, and an equal argument returns the same bits.  `continuous_pdf`
normalises by adaptive 7-point Gauss / 15-point Kronrod quadrature.  The
stationarity residuals difference one term of the separable entropy sum
each, O(n) in the number of levels.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .core import (Params, _inverter, _Record, _set, branches, evaluate, forward,
                   forward_slope)
from .errors import ConvergenceError, DomainError, IntegrationError, RangeError
from .qcalculus import EntropyParams, ln_qqr

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
        if len(levels) == 0:
            raise DomainError("at least one level is required")
        for v in levels:
            if not math.isfinite(v):
                raise DomainError(f"levels must be finite, got {v!r}")
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise DomainError("alpha and beta must be finite")
        _set(self, "levels", levels)
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "ep", ep)


class DiscreteDistribution(_Record):
    """Normalised probabilities with the partition value and beta_r."""

    __slots__ = ("probs", "partition", "x_values", "beta_r")

    def __init__(self, probs: tuple[float, ...], partition: float,
                 x_values: tuple[float, ...], beta_r: float):
        _set(self, "probs", probs)
        _set(self, "partition", partition)
        _set(self, "x_values", x_values)
        _set(self, "beta_r", beta_r)


def _argument(ep: EntropyParams, alpha: float, beta: float, eps: float) -> float:
    cr = 1.0 - ep.r
    cqp = 1.0 - ep.q_prime
    ratio = cr / cqp
    return (-1.0 / cr + alpha + beta * eps) * ratio * math.exp(ratio)


def level_argument(spec: EnsembleSpec, i: int) -> float:
    """Inversion argument x_i for level i (see module docstring)."""
    return _argument(spec.ep, spec.alpha, spec.beta, spec.levels[i])


def _weight(ep: EntropyParams, params: Params, branch: int, x: float, y: float) -> float:
    # Unnormalised stationary weight {a*ln(b*y) + 1}^(1/(q-1)) at the y
    # solving the forward map for x on the chosen branch.
    inner = params.b * y
    if not inner > 0.0:
        raise DomainError(f"weight undefined: log argument {inner!r}")
    brace = params.a * math.log(inner) + 1.0
    if not brace > 0.0:
        raise DomainError(
            f"weight undefined: brace {brace!r} non-positive at x={x!r} "
            f"(branch {branch} mismatch?)"
        )
    return math.exp(math.log(brace) / (ep.q - 1.0))


def _uniform_y(ep: EntropyParams, n_levels: int) -> float:
    # y at which the stationary weight is the uniform 1/n_levels.
    p_uni = 1.0 / n_levels
    u = math.exp((1.0 - ep.q_prime) / (1.0 - ep.q) * (p_uni ** (ep.q - 1.0) - 1.0))
    return (1.0 - ep.r) / (1.0 - ep.q_prime) * u


def suggest_branch(ep: EntropyParams, n_levels: int) -> int:
    """Branch whose y-range contains a uniform distribution's warm start."""
    params = ep.induced_params()
    y = _uniform_y(ep, n_levels)
    for bi in branches(params):
        if bi.y_range.contains(y):
            return bi.index
    raise DomainError(
        f"uniform warm start y={y!r} lies on no branch for {params!r}"
    )


def _all_weights(spec: EnsembleSpec, branch: int
                 ) -> tuple[list[float], list[float], list[float]]:
    # (x_i, y_i, w_i) per level.  Levels are inverted in ascending x by one
    # warm inverter, so each root warm-starts the next and the result does
    # not depend on the order of the levels.
    ep = spec.ep
    params = ep.induced_params()
    invert = _inverter(params, branch, _EVAL_TOL)
    xs = [_argument(ep, spec.alpha, spec.beta, eps) for eps in spec.levels]
    ys = [0.0] * len(xs)
    ws = [0.0] * len(xs)
    for i in sorted(range(len(xs)), key=xs.__getitem__):
        try:
            ys[i] = invert(xs[i])
            ws[i] = _weight(ep, params, branch, xs[i], ys[i])
        except DomainError as exc:
            raise DomainError(f"level {i} (eps={spec.levels[i]!r}): {exc}") from exc
    return xs, ys, ws


def probability(spec: EnsembleSpec, i: int, branch: int | None = None) -> float:
    """Normalised stationary probability of level i on the given branch."""
    if branch is None:
        branch = suggest_branch(spec.ep, len(spec.levels))
    ws = _all_weights(spec, branch)[2]
    return ws[i] / math.fsum(ws)


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
    xs, _, ws = _all_weights(spec, branch)
    z = math.fsum(ws)
    return DiscreteDistribution(
        probs=tuple(w / z for w in ws),
        partition=z,
        x_values=tuple(xs),
        beta_r=pseudo_beta(spec),
    )


def solve_alpha(
    levels: Sequence[float],
    beta: float,
    ep: EntropyParams,
    branch: int | None = None,
    tol: float = 1e-14,
    max_iter: int = 100,
) -> float:
    """alpha making the unnormalised weights sum to exactly 1 (Z = 1).

    With this alpha the normalisation is a no-op and the per-level
    stationarity conditions hold at the returned multipliers.  Newton's
    method on excess(alpha) = Z - 1, started from the alpha of a uniform
    distribution, with the exact slope

        excess'(alpha) = K * sum_i w_i/(q-1) * (a/y_i)/(a*ln(b*y_i) + 1) / f'(y_i),

    K = ratio*e^ratio, ratio = (1-r)/(1-q').  Each excess is a full pass of
    `distribution` over the levels.  Once iterates of both signs are known,
    a Newton point outside their bracket is replaced by the bracket's
    midpoint; a point outside the admissible region (DomainError) is halved
    back toward the last admissible one.  Returns the first alpha with
    |excess| <= tol; ConvergenceError when the bracket shrinks to two
    adjacent doubles, the slope is unusable before a bracket exists, or
    max_iter further passes do not reach tol.
    """
    levels = tuple(levels)
    params = ep.induced_params()
    if branch is None:
        branch = suggest_branch(ep, len(levels))
    cr = 1.0 - ep.r
    ratio = cr / (1.0 - ep.q_prime)

    # Uniform warm start: alpha reproducing the uniform weight at the mean level.
    x_ws = forward(params, _uniform_y(ep, len(levels)))
    mean_eps = math.fsum(levels) / len(levels)
    k = ratio * math.exp(ratio)  # dx_i/dalpha
    alpha = x_ws / k + 1.0 / cr - beta * mean_eps

    def sweep(al: float) -> tuple[float, list[float], list[float]]:
        # (excess, y_i, w_i) at al, by the pass `distribution` makes.
        spec = EnsembleSpec(levels=levels, alpha=al, beta=beta, ep=ep)
        _, ys, ws = _all_weights(spec, branch)
        return math.fsum(ws) - 1.0, ys, ws

    def slope(ys: list[float], ws: list[float]) -> float:
        # dw/dy = w/(q-1) * (a/y)/brace and dy/dx = 1/f'(y), at each level.
        total = 0.0
        for y, w in zip(ys, ws):
            brace = params.a * math.log(params.b * y) + 1.0
            total += w * params.a / (y * brace * forward_slope(params, y))
        return k / (ep.q - 1.0) * total

    last = None  # the last admissible iterate
    pos = neg = None  # the last iterates with excess > 0 and < 0
    for _ in range(max_iter + 1):
        try:
            excess, ys, ws = sweep(alpha)
        except DomainError:
            if last is None:
                raise
            alpha = 0.5 * (last + alpha)  # step left the admissible region
            continue
        if abs(excess) <= tol:
            return alpha
        last = alpha
        if excess > 0.0:
            pos = alpha
        else:
            neg = alpha
        try:
            cand = alpha - excess / slope(ys, ws)
        except (ZeroDivisionError, RangeError):
            cand = math.nan  # a root on a seam, or f' beyond the double range
        if pos is None or neg is None:
            if not math.isfinite(cand):
                raise ConvergenceError(
                    f"normalisation solve for alpha: no usable slope at "
                    f"alpha={alpha!r} (excess {excess!r})"
                )
        else:
            lo, hi = min(pos, neg), max(pos, neg)
            if math.nextafter(lo, hi) == hi:
                raise ConvergenceError(
                    f"normalisation solve for alpha stalled between adjacent "
                    f"doubles {lo!r} and {hi!r} (last excess {excess!r})"
                )
            if not lo < cand < hi:
                cand = 0.5 * (lo + hi)
        alpha = cand
    raise ConvergenceError(
        f"normalisation solve for alpha stalled (last excess {excess!r})"
    )


def stationarity_residuals(
    spec: EnsembleSpec, probs: Sequence[float], h: float = 1e-6
) -> list[float]:
    """Per-level residuals (1/k) dS/dp_i + alpha + beta*eps_i.

    dS/dp_i by central finite difference of the entropy sum.  The sum is
    separable, so its difference in p_i is exactly that of the level's own
    term p*ln_qqr(1/p) (a term whose p is not positive counts as 0), and
    the residuals cost O(n).  All residuals vanish at a stationary point of
    the constrained functional; a common offset across levels indicates an
    alpha not tuned to Z = 1.  DomainError unless there is one probability
    per level; RangeError when a term overflows the double range.
    """
    if len(probs) != len(spec.levels):
        raise DomainError(
            f"probs has {len(probs)} entries for {len(spec.levels)} levels"
        )

    def term(v: float) -> float:
        return v * ln_qqr(spec.ep, 1.0 / v) if v > 0.0 else 0.0

    return [
        (term(p + h) - term(p - h)) / (2.0 * h) + spec.alpha + spec.beta * eps
        for p, eps in zip(probs, spec.levels)
    ]


def continuous_weight(
    ep: EntropyParams, alpha: float, beta: float, branch: int, x: float
) -> float:
    """Unnormalised density at x for the quadratic level eps(x) = x**2."""
    params = ep.induced_params()
    arg = _argument(ep, alpha, beta, x * x)
    y = evaluate(params, branch, arg, tol=_EVAL_TOL).y
    return _weight(ep, params, branch, arg, y)


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


def _gauss_kronrod_panel(f: Callable[[float], float], a: float, b: float
                         ) -> tuple[float, float]:
    # (K15, G7) estimates of the integral of f over [a, b].
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(c)
    k15, g7 = _WGK[7] * fc, _WG[3] * fc
    for j in range(7):
        pair = f(c - h * _XGK[j]) + f(c + h * _XGK[j])
        k15 += _WGK[j] * pair
        if j % 2:
            g7 += _WG[j // 2] * pair
    return k15 * h, g7 * h


def _adaptive_gauss_kronrod(
    f: Callable[[float], float], a: float, b: float, tol: float, depth: int = 60
) -> float:
    # K15 of a panel whose |K15 - G7| is within tol, else the sum over its
    # halves, each held to tol/2.  IntegrationError below `depth` splits.
    k15, g7 = _gauss_kronrod_panel(f, a, b)
    if abs(k15 - g7) <= tol:
        return k15
    if depth <= 0:
        raise IntegrationError("adaptive Gauss-Kronrod recursion exhausted")
    m = 0.5 * (a + b)
    return (_adaptive_gauss_kronrod(f, a, m, 0.5 * tol, depth - 1)
            + _adaptive_gauss_kronrod(f, m, b, 0.5 * tol, depth - 1))


def continuous_pdf(
    ep: EntropyParams,
    alpha: float,
    beta: float,
    branch: int,
    x_grid: Sequence[float],
    tail_ratio: float = 1e-10,
) -> list[float]:
    """Normalised density values on x_grid for the quadratic level x**2.

    The normalising integral runs over [-L, L] with L grown from the grid
    edge until the unnormalised density there falls below `tail_ratio`
    times its peak; IntegrationError if that criterion cannot be met (it
    cannot when the weight decays only poly-logarithmically), DomainError
    if a grid point leaves the branch.
    """
    if len(x_grid) == 0:
        raise DomainError("x_grid must be non-empty")

    # Every argument is inverted by one warm inverter.
    params = ep.induced_params()
    invert = _inverter(params, branch, _EVAL_TOL)

    def g(x: float) -> float:
        arg = _argument(ep, alpha, beta, x * x)
        return _weight(ep, params, branch, arg, invert(arg))

    values = [g(x) for x in x_grid]

    edge = max(abs(x) for x in x_grid)
    peak = max(g(0.0), max(values))
    if peak <= 0.0:
        raise IntegrationError("density is identically zero on the grid")
    if edge > 0.0 and g(edge) > tail_ratio * peak:
        raise IntegrationError(
            f"grid too narrow: density at |x|={edge!r} exceeds "
            f"{tail_ratio!r} of its peak"
        )

    # Grow L beyond the grid until the tail is negligible for quadrature.
    L = edge if edge > 0.0 else 1.0
    good = L
    for _ in range(200):
        try:
            if g(L) <= 1e-2 * tail_ratio * peak:
                break
            good = L
            L *= 1.25
        except DomainError:
            # Walked past the support cut: shrink back toward the last
            # evaluable point.
            hi = L
            for _ in range(200):
                mid = 0.5 * (good + hi)
                if mid == good or mid == hi:
                    break
                try:
                    g(mid)
                    good = mid
                except DomainError:
                    hi = mid
            L = good
            break
    else:
        raise IntegrationError("tail criterion not met while growing the range")

    if g(L) > tail_ratio * peak:
        raise IntegrationError(
            f"tail criterion not met: density at |x|={L!r} exceeds "
            f"{tail_ratio!r} of its peak"
        )

    half = _adaptive_gauss_kronrod(g, 0.0, L, tol=1e-13 * peak * max(L, 1.0))
    total = 2.0 * half
    if not total > 0.0:
        raise IntegrationError(f"normalisation integral {total!r} not positive")
    return [v / total for v in values]
