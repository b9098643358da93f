"""Multi-branch inversion of f(y) = (a*y*ln(b*y) + y + c) * e^y.

For fixed coefficients (a, b, c) with a != 0 and b != 0 the map f is defined
on the half-line where b*y > 0.  Its derivative

    f'(y) = [a*(y+1)*ln(b*y) + y + a + c + 1] * e^y

vanishes at the seam points delta solving a*(y+1)*ln(b*y) + y + a + c + 1 = 0.
The catalogued cases are one seam for b > 0 and two (delta_2 < delta_1 < 0)
for b < 0, whatever the magnitudes of a and c.  Between consecutive seams f
is strictly monotone, so the inverse splits into branches indexed 0, 1 (and
2 for b < 0), counted starting from the branch whose y-range touches 0.

Every ln(b*y), taken once per point, follows one rule: math.log(b*y) while
b*y is a normal double, else ln|b| + ln|y| when y lies on the side of 0 where
b*y > 0 (a subnormal b*y has lost bits and one rounded to 0 has no logarithm,
while |b| and |y| keep theirs), else DomainError naming what needs b*y > 0.

Seam contract: each seam is the root of the seam equation in doubles, found
on the monotone pieces of the seam equation between its knots (the zeros of
its slope, -1/W of one argument through the classical Lambert W, which
lambertw takes from that argument's logarithm), on
e^-708 <= |y| <= ln(DBL_MAX) = 709.78, where y is a normal double and e^y
does not overflow.  Its accuracy is the rounding floor of that equation:
near y -> 0 with |a| small the equation is about a*ln(b*y) + a + c + 1,
whose rounding is relative to |ln(b*y)|, so a seam there is located only to
about |ln(b*y)| ulps (hundreds of ulps for a seam near 1e-260).
A seam outside that range raises RangeError; three seams for b > 0 (four
branches) raise UnsupportedCaseError; no seam for b < 0 raises
NoSolutionError.

This module provides the branch catalog, the inverse on a chosen branch, the
closed forms for the inverse's derivative and antiderivative, the expansion
of the inverse about x = 0 (leading coefficients in closed form through the
classical Lambert W, higher ones by O(n^3) reversion of f's own series in
closed form), and a large-x approximation.  Every W is lambertw's.  Seams and
inversions share one solver: Newton steps safeguarded by bisection inside a
bracket of a monotone function (Press et al.'s rtsafe rule, bisecting in
ln|y| across orders of magnitude), applied to the seam equation on each
monotone piece and to f on the branch's own y-range, its open ends clipped
to finite doubles.  An inversion's first point comes from the nearest kind
of branch end: the inverse's branch-point series at a seam to third order
(as Corless et al. start W at -1/e) when it stays close to the seam, else
three steps toward the end: fixed-point ones for y -> 0 (f -> c), Newton
ones on the log form for large |y| (ln|f| ~ y).  The inversion evaluates f
at its first point itself; that point is the root when it meets the
tolerance, and only a miss enters the solver, with the point and its
evaluation.  Many inversions on one branch (all levels of a maximum-entropy
fit) each start from the third-order inverse series at the last root, from
f, f' and ln(b*y) there, where that series is trusted; every other x is
solved as a single inversion is.  The inverter evaluates f at the series
start and takes it as the root when it meets the tolerance; else it takes
one Newton step inside the bracket the start shrank, and a point that still
misses goes to the solver with its evaluation; each evaluation of f hands
out ln(b*y) with f and f', so a root comes with its log at no further cost.

All functions are pure; `Params` and the catalog records are immutable
slotted value records (compared, hashed and pickled by value).  The catalog
is memoised by the values (a, b, c) behind a thread-safe cache, so a lookup
hashes three floats and no record.  It builds each branch in one pass from
its two ends (y -> 0 where f -> c, a seam d with f(d), f''(d) and the terms
k2, k3 of the inverse's series there, or |y| -> inf, an open end clipped to
a finite double): its BranchInfo and its solve constants (bracket,
direction of f, seams, the x-domain as two floats with open ends one ulp
inward, and f bound to its Params), held by branch index, so an inversion
starts with no per-branch arithmetic and no record hashing.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import sys
from collections.abc import Callable, Iterable, Sequence

from .errors import (
    ConvergenceError,
    DomainError,
    LogLambertError,
    NoSolutionError,
    RangeError,
    SingularityError,
    UnsupportedCaseError,
    _finite,
    _real,
)
from .expint import ei
from .lambertw import BRANCH_POINT, _lambert_w, _w_exp, lambert_w

__all__ = [
    "Monotone",
    "Params",
    "Interval",
    "BranchInfo",
    "EvalResult",
    "forward",
    "forward_slope",
    "singular_residual",
    "singular_points",
    "branches",
    "evaluate",
    "derivative",
    "antiderivative",
    "taylor_first_order",
    "taylor_coefficients",
    "asymptotic",
]

_EPS = 2.220446049250313e-16
_EPS4 = 4.0 * _EPS  # a few ulps, relative


class Monotone(enum.Enum):
    """Direction of the map along a branch (same for f and its inverse)."""

    INCREASING = "increasing"
    DECREASING = "decreasing"


class _Record:
    """Immutable value record.

    A subclass names its fields in `__slots__` and stores each one in
    `__init__` through its slot descriptor, whose `__set__` methods
    `self._setters` holds in slot order: that bypasses the refusing
    `__setattr__` at less cost than `object.__setattr__`.  This base
    compares and hashes records by value, shows them as
    `Name(field=value, ...)`, pickles and copies them through the
    constructor, and refuses assignment and deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = operator.attrgetter(*cls.__slots__)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class Params(_Record):
    """Coefficients of f(y) = (a*y*ln(b*y) + y + c) * e^y.

    a scales the logarithmic term, b scales the logarithm's argument and
    fixes the sign of admissible y (b*y > 0), c is the additive offset.
    a = 0 is rejected: the map then degenerates to (y + c)*e^y, whose
    inverse is the classical Lambert W composed with a shift.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        a, b, c = _finite(("coefficient a", "coefficient b", "coefficient c"), (a, b, c))
        if b == 0.0:
            raise DomainError("coefficient b must be nonzero")
        if a == 0.0:
            raise DomainError(
                "coefficient a must be nonzero (a = 0 reduces to the "
                "classical Lambert W case, which this package does not cover)"
            )
        set_a, set_b, set_c = self._setters
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)


class Interval(_Record):
    """Real interval with individually open/closed finite endpoints."""

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: float, hi: float, lo_closed: bool, hi_closed: bool):
        set_lo, set_hi, set_lo_closed, set_hi_closed = self._setters
        set_lo(self, lo)
        set_hi(self, hi)
        set_lo_closed(self, lo_closed)
        set_hi_closed(self, hi_closed)

    def contains(self, v: float) -> bool:
        if math.isnan(v):
            return False
        if v < self.lo or (v == self.lo and not self.lo_closed):
            return False
        if v > self.hi or (v == self.hi and not self.hi_closed):
            return False
        return True

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo:.17g}, {self.hi:.17g}{right}"


class BranchInfo(_Record):
    """One monotone branch of the inverse map.

    x_domain is the image of y_range under f (endpoint limits open);
    seams lists the (delta, f(delta)) pairs bounding the branch.
    """

    __slots__ = ("index", "y_range", "x_domain", "monotone", "seams")

    def __init__(self, index: int, y_range: Interval, x_domain: Interval,
                 monotone: Monotone, seams: tuple[tuple[float, float], ...]):
        set_index, set_y_range, set_x_domain, set_monotone, set_seams = self._setters
        set_index(self, index)
        set_y_range(self, y_range)
        set_x_domain(self, x_domain)
        set_monotone(self, monotone)
        set_seams(self, seams)


class EvalResult(_Record):
    """Result of a branch inversion: y with |f(y) - x| = residual."""

    __slots__ = ("y", "residual", "iterations", "at_seam")

    def __init__(self, y: float, residual: float, iterations: int,
                 at_seam: bool = False):
        set_y, set_residual, set_iterations, set_at_seam = self._setters
        set_y(self, y)
        set_residual(self, residual)
        set_iterations(self, iterations)
        set_at_seam(self, at_seam)


def forward(p: Params, y: float) -> float:
    """f(y) = (a*y*ln(b*y) + y + c) * e^y; requires b*y > 0.

    Raises RangeError naming y when f(y) overflows the double range.
    """
    try:
        value = _forward_and_slope(p, y)[0]
    except (TypeError, OverflowError):  # y no float that computes as one: refused or converted
        value = _forward_and_slope(p, y := _real("y", y))[0]
    if not math.isfinite(value):
        raise RangeError(f"forward map overflows the double range at y={float(y)!r}")
    return value


def forward_slope(p: Params, y: float) -> float:
    """f'(y) = [a*(y+1)*ln(b*y) + y + a + c + 1] * e^y.

    Raises RangeError naming y when f'(y) overflows the double range.
    """
    value = _forward_and_slope(p, y := _real("y", y))[1]
    if not math.isfinite(value):
        raise RangeError(f"forward slope overflows the double range at y={y!r}")
    return value


def singular_residual(p: Params, y: float) -> float:
    """Left side of the seam equation a*(y+1)*ln(b*y) + y + a + c + 1 = 0.

    This is also e^{-y} * f'(y), so its zeros are the vertical-tangent
    points of the inverse.
    """
    return _seam_and_slope(p, _real("y", y))[0]


_DBL_MIN, _DBL_MAX = sys.float_info.min, sys.float_info.max


def _log_by(p: Params, y: float, what: str) -> float:
    # ln(b*y) by the module's rule; the DomainError names `what`.  Hot
    # callers inline the first case.
    by = p.b * y
    if by >= _DBL_MIN:
        return math.log(by)
    if not (y > 0.0 if p.b > 0.0 else y < 0.0):
        raise DomainError(f"{what} needs b*y > 0; got b={p.b!r}, y={y!r}")
    return math.log(abs(p.b)) + math.log(abs(y))


def _seam_and_slope(p: Params, y: float) -> tuple[float, float]:
    # (s(y), s'(y)) of the seam equation s = a*(y+1)*ln(b*y) + y + a + c + 1,
    # s'(y) = a*(ln(b*y) + 1 + 1/y) + 1.
    by = p.b * y
    log_by = math.log(by) if by >= _DBL_MIN else _log_by(p, y, "seam equation")
    return (p.a * (y + 1.0) * log_by + y + p.a + p.c + 1.0,
            p.a * (log_by + 1.0 + 1.0 / y) + 1.0)


def _forward_and_slope(p: Params, y: float) -> tuple[float, float, float]:
    # (f(y), f'(y), ln(b*y)) from one log and one exp, overflow mapped to
    # signed infinities.  The log goes out with them, so that whoever holds
    # the point (an inversion's root) never takes it again.
    by = p.b * y
    log_by = math.log(by) if by >= _DBL_MIN else _log_by(p, y, "forward map")
    poly = p.a * y * log_by + y + p.c
    s = p.a * (y + 1.0) * log_by + y + p.a + p.c + 1.0
    try:
        e_y = math.exp(y)
    except OverflowError:
        return math.copysign(math.inf, poly), math.copysign(math.inf, s), log_by
    return poly * e_y, s * e_y, log_by


def _range_error(p: Params, what: str) -> RangeError:
    return RangeError(
        f"{what} leaves the double range for a={p.a!r}, b={p.b!r}, c={p.c!r}"
    )


def _split(lo: float, hi: float) -> float:
    # The bisection point of [lo, hi]: the geometric mean when the bracket
    # lies on one side of 0 and spans more than a factor of 4, else the
    # midpoint.
    if lo > 0.0 and hi > 4.0 * lo:
        return math.sqrt(lo) * math.sqrt(hi)
    if hi < 0.0 and lo < 4.0 * hi:
        return -math.sqrt(-lo) * math.sqrt(-hi)
    return 0.5 * (lo + hi)


def _newton_bisect(fn: Callable[[float], tuple[float, ...]], target: float,
                   lo: float, hi: float, increasing: bool, tol: float,
                   y: float, point: tuple[float, ...]
                   ) -> tuple[float, float, int, float, float, tuple[float, ...] | None]:
    # Safeguarded Newton iteration (Press et al.'s rtsafe) for fn(y)[0] =
    # target on [lo, hi], where fn(y) = (value, slope, ...) is monotone
    # (`increasing` or not) and brackets the target; fields past the slope
    # are carried along unread.  The first point y (any point of [lo, hi])
    # and its evaluation point = fn(y) come from the caller, so the solver
    # calls fn only from its second point on.
    # Each point shrinks the bracket; the Newton step is taken when it lands
    # strictly inside it and is at most half the step before last.  A rejected
    # Newton step of at most a few ulps means the iterates have converged to
    # rounding from one side: the next point is one ulp past the Newton point,
    # inward, to close the bracket.  Any other rejected step is a bisection.
    # Stops when |value - target| <= tol, when the bracket is a few ulps wide,
    # or after 200 points (fn is then called once more, at a point not used).
    # Returns the point with the smallest |value - target| seen, that
    # residual, the number of points (the caller's first included), the final
    # bracket (an end no point has moved is one given), and the tuple fn gave
    # at the point returned if it met tol (else None), for the caller to reuse.
    best_y, best_res = y, math.inf
    step = prev = hi - lo
    for it in range(1, 201):
        value, slope = point[0], point[1]
        r = value - target
        res = abs(r)
        if res <= tol:
            return y, res, it, lo, hi, point
        if res < best_res:
            best_y, best_res = y, res
        if (value > target) == increasing:
            hi = y
        else:
            lo = y
        dy = r / slope if slope else math.nan
        newton, size = y - dy, abs(dy)
        if lo < newton < hi and 2.0 * size <= prev:
            prev, step, y = step, size, newton
        else:
            cand = math.nextafter(newton, hi if y == lo else lo)
            if not (size <= _EPS4 * abs(y) and lo < cand < hi):
                cand = _split(lo, hi)
            prev, step, y = step, abs(cand - y), cand
        if hi - lo <= _EPS4 * (hi if hi > -lo else -lo):  # max(|lo|, |hi|)
            break
        point = fn(y)
    return best_y, best_res, it, lo, hi, None


# Seams are sought on e^-708 <= |y| <= ln(DBL_MAX): below, y is not a normal
# double; above, e^y overflows.
_Y_MIN = math.exp(-708.0)
_Y_MAX = math.log(_DBL_MAX)


def _knots(p: Params) -> list[float]:
    # The zeros k of s'(y) = a*(ln(b*y) + 1 + 1/y) + 1, ascending in |k|:
    # w = -1/k solves w*e^w = -sign(b)*e^L, L = ln|b| + 1 + 1/a (finite however
    # small |a| is): W0(e^L) for b < 0, W-1 and W0 of -e^L for b > 0 when
    # L <= -1, none otherwise.  A knot past the double range is +-inf.
    L = min(max(math.log(abs(p.b)) + 1.0 + 1.0 / p.a, -_DBL_MAX), _DBL_MAX)  # 1/a may overflow
    if p.b > 0.0 and L > -1.0:
        return []
    ws = [_w_exp(L)] if p.b < 0.0 else [_w_exp(L, True), _lambert_w(-math.exp(L), False)]
    return [-1.0 / w if w else math.copysign(math.inf, p.b) for w in ws]


def singular_points(p: Params) -> list[float]:
    """All seam points delta (zeros of f' with b*delta > 0), ascending.

    The seam equation s(y) = a*(y+1)*ln(b*y) + y + a + c + 1 has
    s''(y) = a*(y-1)/y**2, so s is monotone between the zeros k of s' (the
    knots): one for b < 0, none or two for b > 0.  The knots are -1/W of
    -b*e^(1+1/a) (classical Lambert W, taken from the logarithm of that
    argument's magnitude), and s(k) = c - a*(k + 1 + 1/k) there.  The
    limits of s are -sign(a)*inf as y -> 0 and sign(a)*sign(b)*inf as
    |y| -> inf, so these signs count the seams, and one bracketed Newton
    solve on each monotone piece with a sign change finds one.

    Seams are sought on e^-708 <= |y| <= ln(DBL_MAX) = 709.78.  The count
    is the catalog's one refusal rule: it needs one seam for b > 0 and two
    for b < 0, and raises UnsupportedCaseError for three (b > 0) and
    NoSolutionError for none (b < 0).  RangeError when a seam lies outside
    the searched range.
    """
    knots = _knots(p)
    a, b, c = p.a, p.b, p.c
    signs = [a < 0.0, *[c - a * (k + 1.0 + 1.0 / k) > 0.0 for k in knots],
             (a > 0.0) == (b > 0.0)]
    pieces = [i for i in range(len(knots) + 1) if signs[i] != signs[i + 1]]
    expected = 1 if b > 0.0 else 2
    if len(pieces) != expected:
        error = UnsupportedCaseError if len(pieces) > expected else NoSolutionError
        raise error(f"seam equation for a={a!r}, b={b!r}, c={c!r} has {len(pieces)} roots on "
                    f"the admissible half-line; the catalog needs {expected}")

    # |y| at the ends of the monotone pieces, outward from 0, clipped to the search range.
    ends = [_Y_MIN, *[min(max(abs(k), _Y_MIN), _Y_MAX) for k in knots], _Y_MAX]
    # The first point zeroes the terms of s that dominate as y -> 0
    # (a*ln(b*y) + a + c + 1), else as |y| -> inf (y*(a*ln(b*y) + 1)),
    # whichever lies inside (lo, hi) first.
    near = math.exp(min(-(a + c + 1.0) / a, _Y_MAX)) / b
    far = math.exp(min(-1.0 / a, _Y_MAX)) / b
    seam_equation = functools.partial(_seam_and_slope, p)
    roots = []
    for i in pieces:
        lo, hi = (ends[i], ends[i + 1]) if b > 0.0 else (-ends[i + 1], -ends[i])
        s_lo, s_hi = seam_equation(lo)[0], seam_equation(hi)[0]
        if (s_lo > 0.0) == (s_hi > 0.0):
            raise RangeError(
                f"seam equation for a={a!r}, b={b!r}, c={c!r} has a root outside the searched "
                f"range e^-708 <= |y| <= {_Y_MAX:.6g}"
            )
        y = near if lo < near < hi else far if lo < far < hi else _split(lo, hi)
        roots.append(_newton_bisect(seam_equation, 0.0, lo, hi, s_lo < s_hi, 0.0,
                                    y, seam_equation(y))[0])
    return sorted(roots)


# The open ends of a branch, clipped to finite doubles: y -> 0 at 1e-307,
# or at half the nearest seam when that lies below 2e-307 (seams are sought
# down to e^-708 = 3.3e-308), so the end stays strictly inside (0, |d|);
# |y| -> inf at 1e300.
_Y_NEAR = 1e-307
_Y_FAR = 1e300


class _Plan:
    # One branch, built with the catalog from its two ends in ascending y:
    # (d, f(d), (f''(d), k2, k3)) at a seam, k2 and k3 the terms of the
    # inverse's series there (_seam_terms), and (clipped y, limit of f, None)
    # at an open end.  Holds the BranchInfo and the solve constants: the
    # bracket lo < hi, the direction of f, the seams, the x-domain as floats
    # x_min <= x <= x_max (open ends one ulp inward; NaN fails) and f,
    # (f, f') bound to Params.
    __slots__ = ("info", "lo", "hi", "increasing", "seams", "x_min", "x_max", "f")

    def __init__(self, index: int, low: tuple, high: tuple, increasing: bool, f):
        (lo, x_lo, f2_lo), (hi, x_hi, f2_hi) = low, high
        self.lo, self.hi, self.increasing, self.f = lo, hi, increasing, f
        lo_in, hi_in = f2_lo is not None, f2_hi is not None
        self.seams = (low, high) if lo_in and hi_in else (low,) if lo_in else (high,)
        # The record holds an open end unclipped: y -> 0 or |y| -> inf.
        y_lo = lo if lo_in else 0.0 if abs(lo) < 1.0 else lo * math.inf
        y_hi = hi if hi_in else 0.0 if abs(hi) < 1.0 else hi * math.inf
        y_range = Interval(y_lo, y_hi, lo_in, hi_in)
        if not x_lo <= x_hi:  # f falls along the branch
            x_lo, x_hi, lo_in, hi_in = x_hi, x_lo, hi_in, lo_in
        self.x_min = x_lo if lo_in else math.nextafter(x_lo, math.inf)
        self.x_max = x_hi if hi_in else math.nextafter(x_hi, -math.inf)
        self.info = BranchInfo(index, y_range, Interval(x_lo, x_hi, lo_in, hi_in),
                               Monotone.INCREASING if increasing else Monotone.DECREASING,
                               tuple([(d, f_d) for d, f_d, _ in self.seams]))


@functools.lru_cache(maxsize=128)
def _catalog(a: float, b: float, c: float) -> tuple[tuple[BranchInfo, ...], dict[int, _Plan]]:
    # The branches, and the solve plan of each by index, memoised by the
    # values of (a, b, c): a hit hashes three floats, not a Params record.
    p = Params(a, b, c)
    # Branch ends outward from y = 0: the limit f -> c, each seam with
    # f''(d) = s'(d)*e^d (as f'(d) = 0) and its series terms, then
    # |y| -> inf, where f -> sign(a)*inf for b > 0 and f -> 0 for b < 0.
    seams = sorted(singular_points(p), key=abs)
    ends = [(math.copysign(min(_Y_NEAR, 0.5 * abs(seams[0])), p.b), p.c, None)]
    for d in seams:
        try:
            f_d = forward(p, d)
        except RangeError:
            raise _range_error(p, f"f at the seam y={d!r}") from None
        s1 = _seam_and_slope(p, d)[1]
        ends.append((d, f_d, (s1 * math.exp(d), *_seam_terms(p.a, d, s1))))
    ends.append((math.copysign(_Y_FAR, p.b),
                 math.copysign(math.inf, p.a) if p.b > 0.0 else 0.0, None))

    # f' has the sign of the seam equation, which is -sign(a) next to y = 0
    # and changes sign at every seam.  A plan takes its ends in ascending y.
    f = functools.partial(_forward_and_slope, p)
    pairs = zip(ends, ends[1:]) if p.b > 0.0 else zip(ends[1:], ends)
    plans = {i: _Plan(i, low, high, (p.a < 0.0) == (i % 2 == 0), f)
             for i, (low, high) in enumerate(pairs)}
    return tuple([plan.info for plan in plans.values()]), plans


def branches(p: Params) -> tuple[BranchInfo, ...]:
    """Full branch catalog for the given coefficients.

    Two branches for b > 0 (one seam) and three for b < 0 (two seams),
    the seams counted from the knots as singular_points counts them;
    UnsupportedCaseError for three seams with b > 0 and NoSolutionError
    for none with b < 0.  Every seam lies on e^-708 <= |y| <= 709.78 and
    has a finite f; RangeError reports one outside that range or with f
    overflowing.
    """
    return _catalog(p.a, p.b, p.c)[0]


def _plan_or_raise(p: Params, branch: int) -> _Plan:
    plans = _catalog(p.a, p.b, p.c)[1]
    try:
        return plans[branch]
    except (KeyError, TypeError):  # TypeError: an unhashable branch
        raise DomainError(
            f"no branch {branch!r} for these coefficients; valid indices: "
            f"{list(plans)}"
        ) from None


def _seam_terms(a: float, d: float, s1: float) -> tuple[float, float]:
    # k2 = -alpha/2 and k3 = 5*alpha^2/8 - beta/2 of the inverse's series at
    # a seam d (_seam_start), alpha = f'''/(3f'') and beta = f''''/(12f'').
    # As s(d) = 0, f'' = s'*e^d, f''' = (2s' + s'')*e^d and f'''' =
    # (3s' + 3s'' + s''')*e^d, so e^d cancels and the terms come from
    # s'(d) = s1, s'' = a*(y-1)/y^2 and s''' = a*(2-y)/y^3 with no log or
    # exp.  Both 0 where one is not finite (1/d^2 overflows for seams near
    # e^-708) or s1 = 0.
    if s1:
        s2 = a * (d - 1.0) / d / d
        s3 = a * (2.0 - d) / d / d / d
        alpha = (2.0 * s1 + s2) / (3.0 * s1)
        beta = (3.0 * s1 + 3.0 * s2 + s3) / (12.0 * s1)
        k2, k3 = -0.5 * alpha, 0.625 * alpha * alpha - 0.5 * beta
        if math.isfinite(k2) and math.isfinite(k3):
            return k2, k3
    return 0.0, 0.0


def _seam_start(plan: _Plan, x: float) -> float | None:
    # A first point for the solver from the branch-point series of the
    # inverse at a seam d, where f'(d) = 0 (as Corless et al. start W at
    # -1/e): with p = sqrt(2*(x - f(d))/f''(d)) and sigma = +-1 the side of
    # d the branch lies on,
    #     y = d + sigma*p + k2*p^2 + sigma*k3*p^3,
    # k2 and k3 from the catalog (_seam_terms).  Only a seam with
    # p <= min(1, |d|) counts (a far start on the convex side of e^y can
    # leave Newton crawling); with two seams, the one with the smaller p.
    # The p^2 and p^3 terms are added when they are at most half of sigma*p
    # (a truncated series far from d overshoots), else y = d + sigma*p.
    # None unless a seam counts and lo < y < hi.
    step, chosen = math.inf, None
    for d, f_d, series in plan.seams:
        curvature = series[0]
        q = 2.0 * (x - f_d) / curvature if curvature else math.nan
        if q > 0.0:
            r = math.sqrt(q)
            if r <= step and r <= 1.0 and r <= abs(d):
                step, seam, chosen = r, d, series
    if chosen is None:
        return None
    _, k2, k3 = chosen
    h = step if seam == plan.lo else -step  # sigma*p
    corr = h * (k2 + k3 * h)  # sigma*k2*p + k3*p^2
    if abs(corr) <= 0.5:
        h += h * corr
    y = seam + h
    return y if plan.lo < y < plan.hi else None


def _end_start(p: Params, plan: _Plan, x: float) -> float:
    # A first point for the solver from three steps on f(y) = x, rearranged
    # for one kind of branch end:
    #   y -> 0, where f -> c: fixed-point steps y = (x*e^-y - c)/(a*ln(b*y) + 1);
    #   |y| -> inf, where ln|f| ~ y: Newton steps on g(y) = y - ln(x/P(y)),
    #     P = a*y*ln(b*y) + y + c, g' = s/P with s the seam equation (no exp).
    # A branch reaching y = 0 tries the first from its clipped end, then
    # the second from its seam; an unbounded branch the second from
    # y0 = d +- max(1, +-ln|x|) beyond its seam d (the sign of b: |y| grows
    # with |x| for b > 0 and as |x| falls for b < 0); a branch between two
    # seams the second from the seam nearer 0.  From a seam (g' = 0) the first
    # step is y = ln(x/P(y)); a Newton step leaving (lo, hi) goes halfway to
    # the end it crosses.  The first result strictly inside (lo, hi) is
    # taken, else y0 on an unbounded branch, else the bisection point (_split).
    yr, d, lo, hi, y0 = plan.info.y_range, plan.seams[-1][0], plan.lo, plan.hi, None
    if math.isinf(yr.lo) or math.isinf(yr.hi):
        t = math.log(abs(x) or 5e-324)  # x = 0 as the least double
        d = y0 = d + (max(1.0, t) if p.b > 0.0 else -max(1.0, -t))
    near = yr.lo == 0.0 or yr.hi == 0.0
    for y, log_form in ((lo if yr.lo == 0.0 else hi, False), (d, True))[not near:]:
        try:
            for k in range(3):
                by = p.b * y
                if by < 0.0:  # past y = 0: outside (lo, hi), and no ln(b*y)
                    break
                log_by = math.log(by) if by >= _DBL_MIN else _log_by(p, y, "the open-end start")
                brace = p.a * log_by + 1.0
                if not log_form:
                    y = (x * math.exp(-y) - p.c) / brace
                elif k or y0 is not None:  # not at a seam: a Newton step on g
                    poly = brace * y + p.c
                    step = y - (y - math.log(x / poly)) * poly / (poly + brace + p.a)
                    y = step if lo < step < hi else 0.5 * (y + (lo if step <= lo else hi))
                else:
                    y = math.log(x / (brace * y + p.c))
        except (ValueError, ZeroDivisionError, OverflowError):  # DomainError is a ValueError
            continue
        if lo < y < hi:
            return y
    return _split(lo, hi) if y0 is None else y0


def _solve(p: Params, plan: _Plan, x: float, tol: float
           ) -> tuple[float, float, int, bool, tuple[float, float, float]]:
    # evaluate's contract for x on the branch of `plan`, as the fields of
    # EvalResult, then (f, f', ln(b*y)) at the root (f' = 0 at a seam): the
    # root on the branch's bracket (plan.lo, plan.hi), solved from the
    # branch-point expansion at a seam (_seam_start), else from the branch's
    # open end (_end_start), else from the bracket's bisection point.  f is
    # evaluated there, through plan.f, and that point is the root when it
    # meets tol; else it and its evaluation start the solver.  The limit
    # comes first, so an int tol past the doubles overflows at a seam too.
    if not (0.0 < tol < math.inf and plan.x_min <= x <= plan.x_max):
        if not 0.0 < tol < math.inf:
            raise DomainError(f"tol must be {'finite' if tol > 0.0 else 'positive'}, got {tol!r}")
        if math.isnan(x):
            raise DomainError("x must not be NaN")
        raise DomainError(f"x={x!r} outside branch {plan.info.index} domain {plan.info.x_domain}")
    limit = tol * (x if x > 1.0 else -x if x < -1.0 else 1.0)  # tol * max(1, |x|)
    for d, fx, _ in plan.seams:
        if x == fx:  # the catalog holds f(d) = forward(p, d)
            return d, 0.0, 0, True, (fx, 0.0, _log_by(p, d, "the seam"))

    y = _seam_start(plan, x)
    if y is None:
        y = _end_start(p, plan, x)
    point = plan.f(y)
    res = abs(point[0] - x)
    if res <= limit:
        return y, res, 1, False, point
    y, res, it, _, _, point = _newton_bisect(plan.f, x, plan.lo, plan.hi, plan.increasing,
                                             limit, y, point)
    if res <= limit:
        return y, res, it, False, point
    raise _stalled(plan, x, tol, res)


def _stalled(plan: _Plan, x: float, tol: float, res: float) -> ConvergenceError:
    return ConvergenceError(
        f"inversion stalled at residual {res!r} for x={x!r} "
        f"(tol {tol!r}, branch {plan.info.index})"
    )


def _inverter(p: Params, branch: int, tol: float
              ) -> Callable[..., tuple[list[float], list[float], list[float]]]:
    # invert(xs, order=None) -> (ys, f'(y), braces) by index of xs on one
    # branch: each y under evaluate's contract, with f'(y) and the brace
    # B = a*ln(b*y) + 1 from the evaluation of f at y that met it (f' = 0 at a
    # seam), so the inverter takes no log of its own.  One loop walks xs in
    # `order` (indices into xs), else as given, and the walk carries on from
    # call to call; a refusal leaves it at the last root answered.  The first
    # solve is evaluate's, so it returns evaluate's bits.  A later one starts
    # from the third-order inverse series at the last root y0, with
    # dy = (x - f(y0))/f'(y0):
    #     y0 + dy*(1 + dy*(-F2/2 + dy*(3*F2**2 - F3)/6)),
    # F2 = f''/f' = 1 + s'/s and F3 = f'''/f' = 1 + (2*s' + s'')/s, where
    # f' = s*e^y and s = (y+1)*B + a + c, s' = B + a + a/y, s'' = a*(y-1)/y**2
    # come from y0's brace with no further log or exp.
    # The series is trusted when f'(y0) and s are nonzero, x lies in the
    # branch's domain and is no seam's f, the series' higher-order part is
    # at most half its first-order term dy (a truncated series far from y0
    # overshoots), and the start lies strictly inside the bracket.  The
    # inverter evaluates f there and checks it against tol*max(1, |x|): a
    # start that meets it is the root, with no call to the solver.  From one
    # that does not, one Newton step that lands strictly inside the bracket
    # the start shrank is evaluated too, and is the root if it meets tol.
    # Else the last point evaluated and its evaluation start _newton_bisect
    # on that bracket.  So a warm solve costs its f evaluations and little
    # else.  Every other x is
    # solved as evaluate solves it; the walk is seeded with f'(y0) = 0, so
    # its first x is too.  An x equal to the last one returns its answer;
    # nothing is memoised, so an equal x met again later may differ in the
    # last bits.
    plan = _plan_or_raise(p, branch)
    f, a, ac, lo, hi, increasing = plan.f, p.a, p.a + p.c, plan.lo, plan.hi, plan.increasing
    x_min, x_max, seam_xs = plan.x_min, plan.x_max, tuple([fx for _, fx, _ in plan.seams])
    last = (math.nan, 0.0, (math.nan, 0.0, 0.0), 0.0)  # f' = 0: the first solve is cold

    def invert(xs: Sequence[float], order: Iterable[int] | None = None) -> tuple[list, ...]:
        nonlocal last
        x0, y0, point0, brace = last  # the last root's x, y, (f, f', ln(b*y)) and B
        ys, slopes, braces = [0.0] * len(xs), [0.0] * len(xs), [0.0] * len(xs)
        try:
            for i in range(len(xs)) if order is None else order:
                x = xs[i]
                if x != x0:
                    y, s = math.nan, (y0 + 1.0) * brace + ac
                    if point0[1] and s and x_min <= x <= x_max and x not in seam_xs:
                        ds = brace + a + a / y0
                        f2 = 1.0 + ds / s
                        f3 = 1.0 + (2.0 * ds + a * (y0 - 1.0) / y0 / y0) / s
                        dy = (x - point0[0]) / point0[1]
                        corr = dy * (-0.5 * f2 + dy * (3.0 * f2 * f2 - f3) / 6.0)
                        if abs(corr) <= 0.5:
                            y = y0 + dy * (1.0 + corr)
                    if lo < y < hi:
                        point = f(y)
                        limit = tol * (x if x > 1.0 else -x if x < -1.0 else 1.0)
                        r = point[0] - x
                        if not abs(r) <= limit:
                            # One Newton step inside the bracket the start
                            # shrank; a miss there goes on in the solver.
                            y_lo, y_hi = (lo, y) if (r > 0.0) == increasing else (y, hi)
                            newton = y - r / point[1] if point[1] else math.nan
                            if y_lo < newton < y_hi:
                                y, point = newton, f(newton)
                            if not abs(point[0] - x) <= limit:
                                y, res, _, _, _, point = _newton_bisect(
                                    f, x, y_lo, y_hi, increasing, limit, y, point)
                                if not res <= limit:
                                    raise _stalled(plan, x, tol, res)
                    else:  # no trusted series start: solve as evaluate does
                        y, _, _, _, point = _solve(p, plan, x, tol)
                    x0, y0, point0, brace = x, y, point, a * point[2] + 1.0
                ys[i], slopes[i], braces[i] = y0, point0[1], brace
        finally:
            last = x0, y0, point0, brace
        return ys, slopes, braces

    return invert


def evaluate(p: Params, branch: int, x: float, tol: float = 1e-12) -> EvalResult:
    """Invert f on one branch: find y in the branch with f(y) ~= x.

    The bracket is the branch's y-range, with an open end at y -> 0
    clipped to +-1e-307 (to half the seam when that lies below 2e-307)
    and one at |y| -> inf to +-1e300.  The first point is the inverse's
    branch-point series at a bounding seam d to third order,
    y = d + s*p + k2*p**2 + s*k3*p**3, p = sqrt(2*(x - f(d))/f''(d)) and
    s = +-1 the side of d the branch lies on, when p <= min(1, |d|); its
    p**2 and p**3 terms are dropped where they exceed half of s*p.
    Otherwise it is three steps on f(y) = x from a branch end: fixed-point
    steps y = (x*e^-y - c)/(a*ln(b*y) + 1) from y -> 0, or Newton steps on
    y - ln(x/P(y)), P = a*y*ln(b*y) + y + c, from beyond the seam of an
    unbounded branch (from d +- max(1, +-ln|x|); from a seam, after a step
    y = ln(x/P(y))); failing those, that point beyond the seam, or the
    bracket's bisection point.  From there
    the solver that also polishes the seams takes Newton steps while they
    stay inside the bracket and shrink (Press et al.'s rtsafe rule), and
    bisects otherwise, at the geometric mean when the bracket spans more
    than a factor of 4, until |f(y) - x| <= tol * max(1, |x|), with tol
    positive and finite (else DomainError);
    ConvergenceError when the bracket shrinks to a few ulps first.  A first
    point that meets the tolerance is the root (iterations = 1): only a
    miss enters the solver.  The bracket, f''(d), k2, k3
    and the other per-branch constants come with the catalog.
    Deterministic for fixed inputs.
    """
    try:
        y, res, it, at_seam, _ = _solve(p, _plan_or_raise(p, branch), x, tol)
    except (TypeError, ArithmeticError, LogLambertError):  # x or tol no float: redone as floats
        if _real("x", x) is x and _real("tol", tol) is tol:
            raise
        return evaluate(p, branch, _real("x", x), _real("tol", tol))
    return EvalResult(y, res, it, at_seam)


def derivative(p: Params, y: float) -> float:
    """dW/dx of the inverse at x = f(y): e^{-y} / seam_equation_lhs(y).

    Raises SingularityError where the seam equation vanishes (vertical
    tangent of the inverse) and RangeError when the value is not a finite
    double (e^{-y} overflows for y < -709.78).
    """
    by = p.b * (y := _real("y", y))
    log_by = math.log(by) if by >= _DBL_MIN else _log_by(p, y, "derivative")
    log_term = p.a * (y + 1.0) * log_by
    d = log_term + y + p.a + p.c + 1.0  # the seam equation
    scale = 1.0 + abs(log_term) + abs(y) + abs(p.a + p.c + 1.0)
    if abs(d) <= 1e-11 * scale:
        raise SingularityError(
            f"vertical tangent: seam equation is {d!r} at y={y!r}"
        )
    try:
        value = math.exp(-y) / d
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise RangeError(f"derivative overflows the double range at y={y!r}")
    return value


def antiderivative(p: Params, y: float) -> float:
    """Closed-form antiderivative F with dF/dx = y at x = f(y).

    F(y) = e^y * [a*(y^2-y+1)*ln(b*y) + y^2 + (c-1)*y + 1 + a - c]
           - a * Ei(y),
    integration constant zero.  The Ei coefficient -a is forced by the
    term-by-term integration; it is validated against quadrature in the
    test suite.  Raises RangeError when F(y) is not a finite double.
    """
    by = p.b * (y := _real("y", y))
    log_by = math.log(by) if by >= _DBL_MIN else _log_by(p, y, "antiderivative")
    bracket = (
        p.a * (y * y - y + 1.0) * log_by
        + y * y
        + (p.c - 1.0) * y
        + 1.0
        + p.a
        - p.c
    )
    try:
        value = math.exp(y) * bracket - p.a * ei(y)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise RangeError(f"antiderivative overflows the double range at y={y!r}")
    return value


def taylor_first_order(p: Params) -> tuple[float, float]:
    """Constant and linear coefficients of the inverse about x = 0.

    a0 = -c/(a*W(t)), t = -b*c*e^{1/a}/a (e^{-1/a}/b where |W(t)| < DBL_MIN),
    is the point with f(a0) = 0: e^{W(t) - 1/a}/b without that exponent's
    cancellation.  a1 = e^{-a0} / (a * (W(t) + 1)) = 1/f'(a0).  A t whose
    product -b*c*e^{1/a}/a overflows or passes a subnormal value (which
    loses bits) is read by its sign and ln|t| = 1/a + ln|-b*c/a| (ln|b| +
    ln|c| - ln|a| where -b*c or that quotient is no normal double), and
    W(t) = W0(e^{ln t}) from lambertw.  Where 1/a overflows (0 < a <
    1/DBL_MAX), a*W(t) = 1 + a*ln|b*c/(a*W(t))| rounds to 1, so a0 = -c and
    a1 = e^c.  Raises DomainError when t < -1/e at
    any magnitude, SingularityError when W(t) = -1, and RangeError when a0
    or a1 overflows or a0 underflows to 0.
    """
    a, b, c = p.a, p.b, p.c
    bc = -b * c
    try:
        head = bc * math.exp(1.0 / a) if c else 0.0  # t = 0 for c = 0, however large e^(1/a)
    except OverflowError:  # 1/a > 709.78: t beyond e^(1/a)
        head = math.inf
    t = head / a
    if c and not (_DBL_MIN <= abs(bc) and _DBL_MIN <= abs(head) and abs(t) < math.inf):
        # The product passed a subnormal value or overflowed: t = +-e^L,
        # signed as -b*c/a (a zero that underflowed too).
        u = bc / a
        L = (1.0 / a + math.log(abs(u)) if _DBL_MIN <= abs(bc) and _DBL_MIN <= abs(u) < math.inf
             else 1.0 / a + math.log(abs(b)) + math.log(abs(c)) - math.log(abs(a)))
        t = math.inf if math.copysign(1.0, u) > 0.0 else -math.exp(L) if L <= _Y_MAX else -math.inf
    if t < BRANCH_POINT:
        raise DomainError(f"no real expansion point: W argument {t!r} below -1/e")
    w = _w_exp(L) if t == math.inf else lambert_w(t)
    if w == -1.0:
        raise SingularityError("expansion point has f' = 0 (W(t) = -1)")
    try:
        if t == math.inf and L == math.inf:  # 1/a overflowed: a*W(t) = 1
            a0, a1 = float(-c), math.exp(c)
        else:
            a0 = -c / (a * w) if abs(w) >= _DBL_MIN else math.exp(-1.0 / a) / b
            a1 = math.exp(-a0) / (a * (w + 1.0))
    except OverflowError:
        a0 = a1 = math.inf
    if not (a0 and math.isfinite(a0) and math.isfinite(a1)):
        raise _range_error(p, "the expansion point about x = 0")
    return a0, a1


def _forward_series(p: Params, a0: float, n: int) -> list[float]:
    # c_0..c_n of f about its zero a0 by Leibniz's rule, from P's closed-form
    # coefficients p_j (see taylor_coefficients) and e^a0/m!.
    ps = [0.0, p.a * _log_by(p, a0, "the expansion point") + p.a + 1.0]
    exps, term = [math.exp(a0)], -1.0  # e^a0/m!; (-1)^j / a0^(j-1)
    for j in range(2, n + 1):
        term = -term / a0
        ps.append(p.a * term / (j * (j - 1)))
        exps.append(exps[-1] / (j - 1))
    c = [0.0] * (n + 1)
    for k in range(1, n + 1):
        for j in range(1, k + 1):
            c[k] += ps[j] * exps[k - j]
    return c


def _revert_series(c: list[float], n: int) -> list[float]:
    # Coefficients d of the inverse series given c (c[0] = 0, c[1] != 0).  Row k
    # of powers is g^k, g = d_1*x + ... (row 1 is d); order m adds column m,
    # which needs only d_1..d_(m-1): a sum over i ascending, zero factors skipped.
    d = [0.0] * (n + 1)
    d[1] = 1.0 / c[1]
    powers = [[], d]
    for m in range(2, n + 1):
        powers.append([0.0] * m)
        total = 0.0
        for k in range(1, m + 1):
            if k > 1:
                prev, v = powers[k - 1], 0.0
                for i in range(k - 1, m + 1):
                    u = prev[i]
                    if u != 0.0:
                        v += u * d[m - i]
                powers[k].append(v)
            ck = c[k] if k < len(c) else 0.0
            if ck != 0.0:
                total += ck * powers[k][m]
        d[m] = -total / c[1]
    return d


def taylor_coefficients(p: Params, n: int) -> list[float]:
    """Series coefficients g_1..g_n of the inverse about x = 0.

    The inverse expands as a0 + sum_k g_k x^k / k!.  Coefficients come
    from reverting the forward Taylor series about the expansion point,
    far better conditioned than iterated differentiation of the inversion-
    formula quotient.  Its coefficients are closed forms: f = P*e^y, P =
    a*y*ln(b*y) + y + c, whose own at a0 are p_0 = 0, p_1 = a*ln(b*a0) + a
    + 1 and p_j = a*(-1)^j/(j*(j-1)*a0^(j-1)), so c_k = sum_{j=1..k} p_j *
    e^a0/(k-j)!.  g_1 agrees with the closed-form linear coefficient.
    Refuses where taylor_first_order does, and with RangeError when a
    coefficient is not a finite double.
    """
    if not (hasattr(n, "__index__") and 1 <= n <= 8):  # an integer in range
        raise DomainError(f"series order must be an integer in 1..8, got {n!r}")
    a0, _ = taylor_first_order(p)
    try:
        c = _forward_series(p, a0, n)
    except OverflowError:  # e^a0 beyond the double range
        raise _range_error(p, "a series coefficient about x = 0") from None
    d = _revert_series(c, n)
    g = [d[k] * math.factorial(k) for k in range(1, n + 1)]
    if not all(math.isfinite(v) for v in g):
        raise _range_error(p, "a series coefficient about x = 0")
    return g


def asymptotic(p: Params, x: float) -> float:
    """Large-x approximation of the inverse through the classical W.

    With s = c/(a+1) and xi = x*e^s/(a+1), the paper's

        W(xi) - ln{ (e^s/(a+1)) * [a*ln(b*W(xi)) + 1] + (c/x)*e^{W(xi)} } - s

    is W(xi) - 2s - ln{ [a*ln(b*W(xi)) + 1 + c/W(xi)] / (a+1) }, as W(xi) *
    e^{W(xi)} = xi; a xi past the double range is read by ln xi = ln|x| -
    ln|a+1| + s, one below DBL_MIN (subnormal or 0) by ln|W(xi)| =
    ln|xi| - W(xi) and c/W(xi) = (c/x)*(a+1)*e^-s, and a normal xi with
    e^s below DBL_MIN (which has lost bits) as e^(ln|xi|).  Where c/W(xi)
    overflows, the log of the brace is ln|c/W(xi)| + ln(1 + t*W(xi)/c) -
    ln|a+1|, t = a*ln(b*W(xi)) + 1, so the value is still a double.
    Raises DomainError when a = -1, x = 0, xi < -1/e at any magnitude, or
    a logarithm argument is not positive, and RangeError when the value,
    or s, is not a finite double.
    """
    if p.a == -1.0:
        raise DomainError("approximation needs a != -1")
    if (x := _real("x", x)) == 0.0:
        raise DomainError("approximation needs x != 0")
    a1 = p.a + 1.0
    s = p.c / a1
    if not math.isfinite(s):  # nor are xi, W(xi) or 2s
        raise _range_error(p, "the large-x approximation")
    try:
        e_s = math.exp(s)
    except OverflowError:  # s > 709.78
        e_s = math.inf
    xi, log_xi = x * e_s / a1, None
    if not (e_s >= _DBL_MIN and _DBL_MIN <= abs(xi) < math.inf):  # read by ln|xi|
        log_xi = math.log(abs(x)) - math.log(abs(a1)) + s
        if abs(xi) < math.inf and math.exp(log_xi) >= _DBL_MIN:  # a normal xi: e^s lost bits
            xi, log_xi = math.copysign(math.exp(log_xi), xi), None
    if xi < BRANCH_POINT:
        raise DomainError(f"approximation undefined: W argument {xi!r} below -1/e")
    w, log_w = xi, None
    if log_xi is None or xi == math.inf:
        w = lambert_w(xi) if log_xi is None else _w_exp(log_xi)
        log_bw = _log_by(p, w, "the large-x approximation's ln(b*W(xi))")
    else:  # |xi| < DBL_MIN: W(xi) = xi, read by ln|W| = ln|xi| - W
        if not math.copysign(1.0, xi) * p.b > 0.0:
            raise DomainError(f"the large-x approximation's ln(b*W(xi)) needs b*y > 0; "
                              f"got b={p.b!r}, y={xi!r}")
        log_w = log_xi - xi
        log_bw = math.log(abs(p.b)) + log_w
    t = p.a * log_bw + 1.0
    if not p.c:
        cw = 0.0
    elif log_w is None:
        cw = p.c / w
    else:  # W has lost bits: c/W = (c/x)*(a+1)*e^-s, as e^W = 1
        cw = p.c / x * a1 * math.exp(-s) if -s <= _Y_MAX else math.inf
    if math.isfinite(cw):
        brace = (t + cw) / a1
        if not brace > 0.0:
            raise DomainError(f"approximation undefined: log argument {brace!r} at x={x!r}")
        log_brace = math.log(brace)
    else:  # c/W past the double range: brace*(a+1) = (c/W)*(1 + t*W/c)
        log_cw = math.log(abs(p.c)) - (math.log(abs(w)) if log_w is None else log_w)
        sign = math.copysign(1.0, p.c) * math.copysign(1.0, w)
        ratio = sign * t * math.exp(-log_cw)
        if not (ratio > -1.0 and sign * a1 > 0.0):
            raise DomainError(f"approximation undefined: log argument not positive at x={x!r} "
                              f"(c/W(xi) = {'-' if sign < 0.0 else ''}e^{log_cw!r}, "
                              f"a+1 = {a1!r})")
        log_brace = log_cw + math.log1p(ratio) - math.log(abs(a1))
    value = w - 2.0 * s - log_brace
    if not math.isfinite(value):
        raise _range_error(p, "the large-x approximation")
    return value
