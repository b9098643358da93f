"""Property tests: every input gets a contract-meeting answer or a typed error."""

import math

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglambert import (
    EnsembleSpec,
    EntropyParams,
    LogLambertError,
    Monotone,
    NoSolutionError,
    Params,
    RangeError,
    UnsupportedCaseError,
    antiderivative,
    asymptotic,
    branches,
    continuous_pdf,
    derivative,
    distribution,
    evaluate,
    forward,
    level_argument,
    singular_points,
    singular_residual,
    solve_alpha,
    stationarity_residuals,
    taylor_coefficients,
    taylor_first_order,
)
from loglambert.core import _forward_and_slope, _inverter, _knots, _log_by
from _sampling import x_in_domain

Y_MIN = math.exp(-708.0)
Y_MAX = math.log(1.7976931348623157e308)


def _seam_scale(p, y):
    # magnitude of the seam equation's terms, as in derivative()
    return (1.0 + abs(p.a * (y + 1.0) * math.log(p.b * y)) + abs(y)
            + abs(p.a + p.c + 1.0))


def _probes(bi):
    # Interior y values of a branch, spread geometrically in |y|.
    lo, hi = bi.y_range.lo, bi.y_range.hi
    if math.isinf(lo) or math.isinf(hi):
        seam = hi if math.isinf(lo) else lo
        return [seam * k for k in (1.1, 2.0, 10.0)]
    if lo == 0.0 or hi == 0.0:
        seam = lo or hi
        return [seam * k for k in (0.9, 0.5, 1e-3)]
    return [-math.exp(math.log(-lo) * (1.0 - u) + math.log(-hi) * u)
            for u in (0.1, 0.5, 0.9)]


def _plane_c(a, b, u, wide):
    # c as the benchmark's scan_cold workload draws it, from u in [0, 1]: in
    # (-3, 3) for b > 0, (-a, a) for b < 0 < a, and (-3, |a|) for b < 0,
    # a < 0.  When wide, c spans all of (-30, 30) for b < 0, where the seam
    # count alone decides between a catalog and a typed refusal.
    if b > 0.0:
        return 3.0 * (2.0 * u - 1.0)
    if wide:
        return 30.0 * (2.0 * u - 1.0)
    if a > 0.0:
        return a * (2.0 * u - 1.0)
    return -3.0 + (abs(a) + 3.0) * u


# The parameter ranges of the benchmark's scan_cold workload: |a| in
# 1e-3..1e2, |b| in 1e-3..1e3, all four sign cases, c by _plane_c.
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(sign_a=st.sampled_from([1.0, -1.0]), sign_b=st.sampled_from([1.0, -1.0]),
       log_a=st.floats(-3.0, 2.0), log_b=st.floats(-3.0, 3.0),
       u=st.floats(0.0, 1.0), wide=st.booleans())
def test_branches_meet_contract_or_refuse(sign_a, sign_b, log_a, log_b, u, wide):
    a, b = sign_a * 10.0 ** log_a, sign_b * 10.0 ** log_b
    p = Params(a, b, _plane_c(a, b, u, wide))
    try:
        cat = branches(p)
    except (RangeError, UnsupportedCaseError, NoSolutionError):  # the refusals branches documents
        return
    assert len(cat) == (2 if b > 0.0 else 3)
    seams = sorted({d for bi in cat for d, _ in bi.seams})
    assert len(seams) == len(cat) - 1
    for d in seams:
        assert Y_MIN <= abs(d) <= Y_MAX
        assert abs(singular_residual(p, d)) <= 1e-12 * _seam_scale(p, d)
    for bi in cat:
        for y in _probes(bi):
            # f'(y) = s(y) * e^y has the sign of the seam equation s, which
            # stays finite where e^y overflows.  A probe whose s is below
            # the rounding level of its terms cannot resolve the sign.
            s = singular_residual(p, y)
            if abs(s) <= 1e-12 * _seam_scale(p, y):
                continue
            assert (s > 0.0) == (bi.monotone is Monotone.INCREASING), (p, bi.index, y)


def _mp_seam_equation(p, y):
    a, b, c, y = (mpmath.mpf(v) for v in (p.a, p.b, p.c, y))
    return a * (y + 1) * mpmath.log(b * y) + y + a + c + 1


# The scan_cold plane with |a| down to 1e-6: below |a| = 1/708 the knots'
# Lambert W argument -b*e^(1+1/a) leaves the double range.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sign_a=st.sampled_from([1.0, -1.0]), sign_b=st.sampled_from([1.0, -1.0]),
       log_a=st.floats(-6.0, 2.0), log_b=st.floats(-3.0, 3.0),
       u=st.floats(0.0, 1.0), wide=st.booleans())
@example(sign_a=-1.0, sign_b=1.0, log_a=0.0, log_b=-1.1 / math.log(10.0), u=0.5,
         wide=False)  # L = -1.1
def test_seam_count_follows_from_the_knots(sign_a, sign_b, log_a, log_b, u, wide):
    a, b = sign_a * 10.0 ** log_a, sign_b * 10.0 ** log_b
    c = _plane_c(a, b, u, wide)
    p = Params(a, b, c)
    eps = 2.0 ** -52
    with mpmath.workdps(30):
        # The knots (zeros of s') are -1/W0 and -1/W-1 of z, ascending in |k|.
        z = -mpmath.mpf(b) * mpmath.exp(1 + 1 / mpmath.mpf(a))
        real = [0] if b < 0.0 else [-1, 0] if z >= -1 / mpmath.e else []
        exact = [-1 / mpmath.lambertw(z, k).real for k in real]
        knots = _knots(p)
        assert len(knots) == len(exact), (p, knots)
        # Each knot is -1/W of -sign(b)*e^L, with W taken from L = ln|b| + 1 +
        # 1/a, so t = -ln|k| = ln|W| carries L's rounding, a few ulps of
        # max(1, |L|), divided by the slope 1 - 1/k of L in t there.
        scale = 32.0 * eps * max(1.0, abs(math.log(abs(b)) + 1.0 + 1.0 / a))
        for k, k_star in zip(knots, exact):
            t_star = -mpmath.log(abs(k_star))
            assert (k > 0.0) == (k_star > 0), (p, k, k_star)
            if math.isinf(k):
                assert t_star < -Y_MAX, (p, k_star)
            else:
                assert abs(-math.log(abs(k)) - t_star) <= scale / abs(1 - 1 / k_star), \
                    (p, k, k_star)
        # s(k) = c - a*(k + 1 + 1/k) at the knots, between the limits
        # -sign(a)*inf (y -> 0) and sign(a)*sign(b)*inf (|y| -> inf).
        at_knots = [c - a * (k + 1 + 1 / k) for k in exact]
        if any(abs(v) <= 1e-12 * (abs(c) + abs(a) * (abs(k) + 1 + 1 / abs(k)))
               for v, k in zip(at_knots, exact)):
            return  # a seam pair too close to a knot for doubles to count
        signs = [a < 0.0, *(v > 0 for v in at_knots), (a > 0.0) == (b > 0.0)]
        count = sum(u != v for u, v in zip(signs, signs[1:]))
        expected = 1 if b > 0.0 else 2
        try:
            seams = singular_points(p)
        except UnsupportedCaseError:
            assert count > expected, p
            return
        except NoSolutionError:
            assert count < expected, p
            return
        except RangeError:
            assert count == expected, p
            return
        assert len(seams) == count == expected, (p, seams)
        for d in seams:
            assert Y_MIN <= abs(d) <= Y_MAX, (p, d)
            # A sign change of s within 4 ulps, or |s(d)| at the rounding
            # floor of its terms.
            lo, hi = d - 4.0 * math.ulp(d), d + 4.0 * math.ulp(d)
            log_bd = math.log(abs(b)) + math.log(abs(d))
            floor = 4.0 * eps * (abs(a * (d + 1.0) * log_bd) + abs(d) + abs(a) + abs(c) + 1.0)
            assert ((_mp_seam_equation(p, lo) > 0) != (_mp_seam_equation(p, hi) > 0)
                    or abs(_mp_seam_equation(p, d)) <= floor), (p, d)


@st.composite
def scan_params(draw):
    # The same ranges as test_branches_meet_contract_or_refuse.
    a = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-3.0, 2.0))
    b = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    return Params(a, b, _plane_c(a, b, draw(st.floats(0.0, 1.0)), draw(st.booleans())))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(p=scan_params(), us=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       toward_open=st.booleans())
# A root 1e-6 from a seam near y = -704, where derivative overflows
@example(p=Params(47.465181018900985, -0.0013947412728583688, 31.814355897237785),
         us=[0.5, 0.5, 1.0], toward_open=False)
def test_evaluate_meets_contract_or_refuses(p, us, toward_open):
    # Each answer meets the contract, and at its root derivative is finite
    # with the sign of the branch's direction or a typed refusal
    # (SingularityError within rounding distance of a seam, RangeError on
    # overflow), and antiderivative is finite or a RangeError.  No raw
    # exception escapes.
    try:
        cat = branches(p)
    except LogLambertError:
        return
    for bi, u in zip(cat, us):
        x = x_in_domain(bi, u, toward_open)
        if not bi.x_domain.contains(x):
            continue  # the distance underflowed onto an open end
        try:
            r = evaluate(p, bi.index, x, 1e-12)
        except LogLambertError:
            continue
        assert bi.y_range.contains(r.y), (p, bi.index, x, r)
        assert abs(forward(p, r.y) - x) <= 1e-12 * max(1.0, abs(x)), (p, bi.index, x, r)
        try:
            d = derivative(p, r.y)
        except LogLambertError:
            pass
        else:
            assert math.isfinite(d), (p, bi.index, x, r, d)
            assert (d > 0.0) == (bi.monotone is Monotone.INCREASING), (p, bi.index, x, r, d)
        try:
            big_f = antiderivative(p, r.y)
        except RangeError:
            continue
        assert math.isfinite(big_f), (p, bi.index, x, r, big_f)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=scan_params(), us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       toward_open=st.booleans(), data=st.data())
def test_inverter_meets_contract_or_refuses(p, us, toward_open, data):
    # One warm inverter per branch, fed one-x batches in a shuffled order
    # with duplicates: each answer meets evaluate's contract and comes with
    # f'(y) and the brace a*ln(b*y) + 1 of its root.  A fresh inverter has
    # no root to start from, so its first answer, or refusal, is evaluate's;
    # a later x is refused only where evaluate refuses it.  Then one
    # ascending batch on a fresh inverter: its first answer is evaluate's,
    # and equal x return equal bits.  (An equal x in any order is not
    # promised the same bits; continuous_pdf, which needs that, keeps its
    # weights by argument.)
    try:
        cat = branches(p)
    except LogLambertError:
        return
    for bi in cat:
        xs = [x_in_domain(bi, u, toward_open) for u in us]
        xs = data.draw(st.permutations(xs + xs[: len(xs) // 2 + 1]))
        invert = _inverter(p, bi.index, 1e-12)
        colds = {}
        for k, x in enumerate(xs):
            try:
                (y,), (slope,), (brace,) = invert([x])
            except LogLambertError:
                y = None
            try:
                colds[x] = evaluate(p, bi.index, x, 1e-12).y.hex()
            except LogLambertError:
                colds[x] = None
            if k == 0:
                assert (y if y is None else y.hex()) == colds[x], (p, bi.index, x)
            if y is None:
                assert colds[x] is None, (p, bi.index, x)
                continue
            _check_answer(p, bi, x, y, slope, brace)
        batch = sorted(xs)
        try:
            ys, slopes, braces = _inverter(p, bi.index, 1e-12)(batch)
        except LogLambertError:
            assert None in colds.values(), (p, bi.index, batch)
            continue
        assert ys[0].hex() == colds[batch[0]], (p, bi.index, batch)
        for k, x in enumerate(batch):
            _check_answer(p, bi, x, ys[k], slopes[k], braces[k])
            if k and x == batch[k - 1]:
                assert ys[k].hex() == ys[k - 1].hex(), (p, bi.index, x)


def _check_answer(p, bi, x, y, slope, brace):
    # evaluate's contract at y, with f'(y) as f gives it there (0 at a
    # seam) and the brace from ln(b*y) at y.
    assert bi.y_range.contains(y), (p, bi.index, x, y)
    assert abs(forward(p, y) - x) <= 1e-12 * max(1.0, abs(x)), (p, bi.index, x, y)
    assert slope == _forward_and_slope(p, y)[1] or (slope == 0.0 and y in dict(bi.seams)), \
        (p, bi.index, x, y)
    assert brace == p.a * _log_by(p, y, "the root") + 1.0, (p, bi.index, x, y)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=scan_params(), sign=st.sampled_from([1.0, -1.0]), log_x=st.floats(-12.0, 40.0),
       n=st.integers(1, 8))
# a within 1e-10 of -1, so that e^(c/(a+1)) overflows
@example(p=Params(-0.9999999999, 1.0, 1.0), sign=1.0, log_x=0.7, n=4)
# a0**k of the forward series about the expansion point underflows to 0
@example(p=Params(0.5, 1e300, 5e-324), sign=1.0, log_x=0.0, n=4)
# e^(1/a) is finite and t = 0, but a0 = e^(-1/a)/b underflows to 0
@example(p=Params(0.0015, 1e300, 0.0), sign=1.0, log_x=0.0, n=4)
def test_expansions_meet_contract_or_refuse(p, sign, log_x, n):
    # The large-x approximation at x = sign*10**log_x and the series about
    # x = 0 to order n: finite values or a typed refusal.  An answered expansion point a0 has b*a0 > 0, and the
    # series refuses where taylor_first_order does (with its error), else
    # only with a RangeError naming a series coefficient.
    x = sign * 10.0 ** log_x
    outcomes = []
    for expansion in (lambda: [asymptotic(p, x)], lambda: taylor_first_order(p),
                      lambda: taylor_coefficients(p, n)):
        try:
            values = expansion()
        except LogLambertError as exc:
            outcomes.append(exc)
            continue
        assert all(math.isfinite(v) for v in values), (p, x, n, values)
        outcomes.append(values)
    first, series = outcomes[1:]
    if isinstance(first, Exception):
        assert type(series) is type(first) and str(series) == str(first), (p, n, first, series)
    else:
        assert first[0] != 0.0 and (first[0] > 0.0) == (p.b > 0.0), (p, first)  # b*a0 > 0
        assert not isinstance(series, Exception) or (
            isinstance(series, RangeError) and "series coefficient" in str(series)), (p, n, series)


# The triples of the test suite, the README and the benchmark's maxent_fit.
TRIPLES = ((0.9, 0.8, 0.7), (0.95, 0.85, 0.75), (0.7, 0.8, 0.9), (0.85, 0.9, 0.6),
           (1.1, 1.2, 1.3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(trip=st.sampled_from(TRIPLES),
       shift=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
       levels=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=32))
@example(trip=TRIPLES[0], shift=[0.0, 0.0, 0.0], levels=[])
def test_maxent_meets_contract_or_refuses(trip, shift, levels):
    # solve_alpha -> distribution -> stationarity_residuals near the
    # triples: Z = 1 to 1e-12 and finite residuals, or a typed refusal (no
    # levels included).
    try:
        ep = EntropyParams(*(t + d for t, d in zip(trip, shift)))
        alpha = solve_alpha(levels, 0.1, ep)
        spec = EnsembleSpec(levels=tuple(levels), alpha=alpha, beta=0.1, ep=ep)
        dist = distribution(spec)
        residuals = stationarity_residuals(spec, dist.probs)
    except LogLambertError:
        return
    assert abs(dist.partition - 1.0) <= 1e-12, (ep, levels, alpha)
    assert abs(math.fsum(dist.probs) - 1.0) <= 1e-12, (ep, levels, alpha)
    assert len(residuals) == len(levels)
    assert all(math.isfinite(v) for v in residuals), (ep, levels, alpha)


def _away_from_one(sign, log_gap):
    return 1.0 + sign * 10.0 ** log_gap


WIDE = st.floats(-1e6, 1e6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3),
       gaps=st.lists(st.floats(-6.0, 3.0), min_size=3, max_size=3),
       alpha=WIDE, beta=WIDE, levels=st.lists(WIDE, min_size=1, max_size=8),
       branch=st.integers(0, 2))
# e^((1-r)/(1-q')) = e^746 overflows
@example(signs=[-1.0, -1.0, -1.0], gaps=[math.log10(0.5), 0.0, math.log10(746.0)],
         alpha=0.0, beta=0.1, levels=[0.1, 0.5], branch=0)
# e^((1-r)/(1-q')) = e^-1000 underflows to 0
@example(signs=[1.0, 1.0, -1.0], gaps=[0.0, 0.0, 3.0], alpha=0.0, beta=0.0, levels=[0.0],
         branch=0)
# every weight underflows, so Z = 0
@example(signs=[-1.0, -1.0, -1.0], gaps=[-3.0, -3.0, -3.0], alpha=0.0, beta=6524.0,
         levels=[-1.0], branch=0)
def test_maxent_over_the_qqr_plane_meets_contract_or_refuses(signs, gaps, alpha, beta,
                                                            levels, branch):
    # level_argument, distribution, solve_alpha and continuous_pdf at any
    # (q, q', r) with each at least 1e-6 from 1, and wide multipliers and
    # levels: every call returns finite values or raises a typed error.
    ep = EntropyParams(*map(_away_from_one, signs, gaps))
    spec = EnsembleSpec(levels=tuple(levels), alpha=alpha, beta=beta, ep=ep)
    calls = (lambda: [level_argument(spec, i) for i in range(len(levels))],
             lambda: [*distribution(spec).probs, distribution(spec).partition],
             lambda: [solve_alpha(levels, beta, ep)],
             lambda: continuous_pdf(ep, alpha, beta, branch, [-1.0, -0.25, 0.0, 0.5, 2.0]))
    for call in calls:
        try:
            values = call()
        except LogLambertError:
            continue
        assert all(math.isfinite(v) for v in values), (ep, alpha, beta, levels, values)


# The README's continuous example: alpha = 8/(1.5*e^1.5) - 10/3, beta = -0.4*e^-3.
ALPHA_CONT = 8.0 / (1.5 * math.exp(1.5)) - 10.0 / 3.0
BETA_CONT = -0.4 * math.exp(-3.0)


def _support_cut(ep, alpha, beta):
    # |x| where the weight's brace a*ln(b*y) + 1 vanishes, at y* = e^(-1/a)/b:
    # x* = f(y*) is the argument of the level eps* = x**2 there.  The
    # README's edge 3.7 when no positive level reaches it.
    p = ep.induced_params()
    ratio = (1.0 - ep.r) / (1.0 - ep.q_prime)
    x_star = forward(p, math.exp(-1.0 / p.a) / p.b)
    eps_star = (x_star / (ratio * math.exp(ratio)) + 1.0 / (1.0 - ep.r) - alpha) / beta
    return math.sqrt(eps_star) if eps_star > 0.0 else 3.7


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shift=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
       d_alpha=st.floats(-0.1, 0.1), d_beta=st.floats(-0.005, 0.005),
       gap=st.floats(-4.0, -0.3), side=st.sampled_from([1.0, -1.0]),
       n=st.integers(1, 40))
def test_continuous_pdf_meets_contract_or_refuses(shift, d_alpha, d_beta, gap, side, n):
    # Near the README's continuous example, on a grid of exact negation
    # pairs whose edge lies a share 10**gap of the support cut inside it
    # (side 1) or outside it (side -1): finite non-negative densities with
    # p(x) == p(-x) bit for bit, or a typed refusal.
    ep = EntropyParams(*(t + d for t, d in zip((1.1, 1.2, 1.3), shift)))
    alpha, beta = ALPHA_CONT + d_alpha, BETA_CONT + d_beta
    edge = _support_cut(ep, alpha, beta) * (1.0 - side * 10.0 ** gap)
    half = [edge * i / n for i in range(n + 1)]
    grid = [-t for t in reversed(half[1:])] + half
    try:
        dens = continuous_pdf(ep, alpha, beta, 1, grid)
    except LogLambertError:
        return
    assert len(dens) == len(grid)
    assert all(math.isfinite(v) and v >= 0.0 for v in dens), (ep, alpha, beta, edge)
    assert all(dens[i] == dens[-1 - i] for i in range(len(grid))), (ep, alpha, beta, edge)
